//! Crash-recovery matrix for the durable update subsystem.
//!
//! A deterministic update script runs against a durable store whose
//! pager and WAL backend share a [`FaultClock`]: the clock cuts the
//! ordered write stream at the Nth write (the WAL append that exhausts
//! the budget writes only half its bytes — a genuinely torn frame). The
//! matrix runs the script once per possible fault point, "crashes"
//! (drops the store), reopens from the surviving bytes, and checks the
//! recovered state against a volatile DOM-replay oracle: it must equal
//! the state after exactly `acked` or `acked + 1` operations — the
//! committed prefix, with the in-flight operation either fully in or
//! fully out.

use vamana_flex::{FlexKey, KeyRange};
use vamana_mass::record::RecordKind;
use vamana_mass::{
    FaultClock, FaultPager, FaultWalBackend, FsyncPolicy, MassCursor, MassStore, MemWalBackend,
    Result, SharedPager, WalRecord,
};

const CAP: usize = 64;

/// One scripted update. Targets are named by `(element name, ordinal)`
/// so the script replays identically against any store.
#[derive(Clone, Copy)]
enum Op {
    Load(&'static str, &'static str),
    AppendElement(&'static str, usize, &'static str),
    AppendText(&'static str, usize, &'static str),
    AppendAttribute(&'static str, usize, &'static str, &'static str),
    InsertAfter(&'static str, usize, &'static str),
    AppendFragment(&'static str, usize, &'static str),
    DeleteElement(&'static str, usize),
    /// One commit deleting several elements, each named as above.
    DeleteAll(&'static [(&'static str, usize)]),
    Checkpoint,
}

fn nth_element(s: &MassStore, name: &str, i: usize) -> FlexKey {
    let id = s.name_id(name).expect("script target name exists");
    let flat = s
        .name_index()
        .elements(id)
        .iter()
        .nth(i)
        .expect("script target ordinal exists")
        .to_vec();
    FlexKey::from_flat(flat)
}

fn apply(s: &mut MassStore, op: &Op) -> Result<()> {
    match *op {
        Op::Load(name, xml) => s.load_xml(name, xml).map(|_| ()),
        Op::AppendElement(p, i, name) => {
            let k = nth_element(s, p, i);
            s.append_element(&k, name).map(|_| ())
        }
        Op::AppendText(p, i, value) => {
            let k = nth_element(s, p, i);
            s.append_text(&k, value).map(|_| ())
        }
        Op::AppendAttribute(p, i, name, value) => {
            let k = nth_element(s, p, i);
            s.append_attribute(&k, name, value).map(|_| ())
        }
        Op::InsertAfter(p, i, name) => {
            let k = nth_element(s, p, i);
            s.insert_element_after(&k, name).map(|_| ())
        }
        Op::AppendFragment(p, i, xml) => {
            let k = nth_element(s, p, i);
            s.append_fragment(&k, xml).map(|_| ())
        }
        Op::DeleteElement(p, i) => {
            let k = nth_element(s, p, i);
            s.delete_subtree(&k).map(|_| ())
        }
        Op::DeleteAll(targets) => {
            let recs: Vec<WalRecord> = targets
                .iter()
                .map(|&(name, i)| WalRecord::DeleteSubtree {
                    key: nth_element(s, name, i),
                })
                .collect();
            s.commit(&recs).map(|_| ())
        }
        Op::Checkpoint => s.checkpoint(),
    }
}

/// Exercises every mutator, both WAL-logged updates and the bulk-load /
/// checkpoint paths, across two documents.
fn script() -> Vec<Op> {
    vec![
        Op::Load(
            "site",
            "<site><people><person id='p0'><name>Ann</name></person>\
             <person id='p1'><name>Bob</name></person></people>\
             <regions><item cat='c0'/></regions></site>",
        ),
        Op::AppendElement("people", 0, "person"),
        Op::AppendText("person", 2, "Zed"),
        Op::AppendAttribute("person", 2, "id", "p2"),
        Op::AppendFragment(
            "regions",
            0,
            "<item cat='c1'><name>Thing</name><price>9</price></item>",
        ),
        Op::Checkpoint,
        Op::InsertAfter("person", 0, "person"),
        Op::DeleteElement("person", 2),
        Op::AppendText("name", 0, " Q."),
        Op::Load("log", "<log><entry seq='1'>boot</entry></log>"),
        Op::AppendElement("log", 0, "entry"),
        Op::Checkpoint,
        Op::DeleteElement("item", 1),
        Op::AppendFragment(
            "people",
            0,
            "<person id='p3'><watches><watch/></watches></person>",
        ),
        // Both documents, and a key inside another's subtree.
        Op::DeleteAll(&[("entry", 1), ("name", 0), ("watches", 0), ("watch", 0)]),
    ]
}

/// Everything observable about a store: the full clustered scan
/// (keys, kinds, resolved names, resolved values), the registered
/// documents, every count the cost model would ask for, value-index
/// probes for every stored value, and the exported XML of each document.
type RecordRow = (Vec<u8>, RecordKind, Option<String>, Option<String>);

#[derive(Debug, PartialEq)]
struct Fingerprint {
    docs: Vec<(String, Vec<u8>)>,
    records: Vec<RecordRow>,
    element_counts: Vec<(String, u64)>,
    attribute_counts: Vec<(String, u64)>,
    text_total: u64,
    value_probes: Vec<(String, u64)>,
    exported: Vec<String>,
}

fn fingerprint(s: &MassStore) -> Fingerprint {
    let mut records = Vec::new();
    let mut cur = MassCursor::new(s, KeyRange::all());
    while let Some(rec) = cur.next().expect("recovered store must scan cleanly") {
        let name = rec.name.map(|n| s.names().resolve(n).to_string());
        let value = s.resolve_value(&rec).expect("values resolve");
        records.push((rec.key.as_flat().to_vec(), rec.kind, name, value));
    }
    let mut names: Vec<String> = records.iter().filter_map(|r| r.2.clone()).collect();
    names.sort();
    names.dedup();
    let count = |f: &dyn Fn(vamana_mass::NameId) -> u64, n: &str| s.name_id(n).map(f).unwrap_or(0);
    let element_counts = names
        .iter()
        .map(|n| (n.clone(), count(&|id| s.count_elements(id), n)))
        .collect();
    let attribute_counts = names
        .iter()
        .map(|n| {
            (
                n.clone(),
                count(&|id| s.count_attributes_in(id, &KeyRange::all()), n),
            )
        })
        .collect();
    let mut values: Vec<String> = records.iter().filter_map(|r| r.3.clone()).collect();
    values.sort();
    values.dedup();
    let value_probes = values
        .into_iter()
        .map(|v| {
            let c = s.text_count(&v);
            (v, c)
        })
        .collect();
    let exported = s
        .documents()
        .iter()
        .map(|d| vamana_mass::export::export_subtree_xml(s, &d.doc_key).expect("export"))
        .collect();
    Fingerprint {
        docs: s
            .documents()
            .iter()
            .map(|d| (d.name.to_string(), d.doc_key.as_flat().to_vec()))
            .collect(),
        records,
        element_counts,
        attribute_counts,
        text_total: s.count_text_in(&KeyRange::all()),
        value_probes,
        exported,
    }
}

/// Volatile oracle: the state after the first `k` script operations.
fn oracle_fingerprints(ops: &[Op]) -> Vec<Fingerprint> {
    (0..=ops.len())
        .map(|k| {
            let mut s = MassStore::open_memory();
            for op in &ops[..k] {
                apply(&mut s, op).expect("oracle replay is fault-free");
            }
            fingerprint(&s)
        })
        .collect()
}

fn faulted_store(
    pager: &SharedPager,
    wal: &MemWalBackend,
    clock: &std::sync::Arc<FaultClock>,
    format: vamana_mass::StoreFormat,
) -> Result<MassStore> {
    let mut s = MassStore::create_with_wal(
        Box::new(FaultPager::new(Box::new(pager.clone()), clock.clone())),
        CAP,
        Box::new(FaultWalBackend::new(Box::new(wal.clone()), clock.clone())),
        FsyncPolicy::Always,
    )?;
    s.set_format(format)?;
    Ok(s)
}

/// The matrix proper, parameterized by page format. The oracle always
/// runs uncompressed, so the v2 run doubles as a cross-format
/// equivalence check at every crash point.
fn run_crash_matrix(format: vamana_mass::StoreFormat) {
    let ops = script();
    let oracle = oracle_fingerprints(&ops);

    // Clean run sizes the matrix: one fault point per ordered write.
    let clock = FaultClock::new();
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    {
        let mut s = faulted_store(&pager, &wal, &clock, format).expect("clean create");
        for op in &ops {
            apply(&mut s, op).expect("clean run");
        }
    }
    let total_writes = clock.writes();
    assert!(
        total_writes > 40,
        "matrix should cover many write boundaries, got {total_writes}"
    );

    for n in 0..=total_writes {
        let clock = FaultClock::new();
        let pager = SharedPager::new();
        let wal = MemWalBackend::new();
        clock.arm(n);
        let mut acked = 0usize;
        if let Ok(mut s) = faulted_store(&pager, &wal, &clock, format) {
            for op in &ops {
                match apply(&mut s, op) {
                    Ok(()) => acked += 1,
                    Err(_) => break,
                }
            }
        }
        // "Crash": drop the store, reopen from whatever bytes survived.
        clock.disarm();
        let reopened = MassStore::open_with_wal(
            Box::new(pager.clone()),
            CAP,
            Box::new(wal.clone()),
            FsyncPolicy::Always,
        )
        .unwrap_or_else(|e| panic!("reopen after fault at write {n} failed: {e}"));
        let got = fingerprint(&reopened);
        let hi = (acked + 1).min(ops.len());
        assert!(
            got == oracle[acked] || got == oracle[hi],
            "fault at write {n}/{total_writes}: recovered state matches neither \
             shadow({acked}) nor shadow({hi})"
        );
    }
}

#[test]
fn crash_matrix_recovers_committed_prefix() {
    run_crash_matrix(vamana_mass::StoreFormat::V1);
}

#[test]
fn crash_matrix_recovers_committed_prefix_compressed() {
    run_crash_matrix(vamana_mass::StoreFormat::V2);
}

#[test]
fn uncommitted_tail_is_discarded_deterministically() {
    // Same matrix machinery, but checks the *stats* story: a reopen
    // after a fault reports a replayed LSN no greater than the last
    // committed LSN of the clean run, and the WAL depth equals the
    // number of surviving records.
    let ops = script();
    let clock = FaultClock::new();
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    {
        let mut s =
            faulted_store(&pager, &wal, &clock, vamana_mass::StoreFormat::V1).expect("create");
        for op in &ops {
            apply(&mut s, op).expect("clean run");
        }
        let stats = s.wal_stats();
        assert!(s.is_durable());
        assert!(stats.last_lsn > 0);
    }
    let w = clock.writes();
    // Cut mid-run.
    let clock = FaultClock::new();
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    clock.arm(w / 2);
    if let Ok(mut s) = faulted_store(&pager, &wal, &clock, vamana_mass::StoreFormat::V1) {
        for op in &ops {
            if apply(&mut s, op).is_err() {
                break;
            }
        }
    }
    clock.disarm();
    let s = MassStore::open_with_wal(
        Box::new(pager.clone()),
        CAP,
        Box::new(wal.clone()),
        FsyncPolicy::Always,
    )
    .expect("reopen");
    let stats = s.wal_stats();
    assert_eq!(stats.depth, stats.replayed_records);
    // Reopening *again* replays the identical prefix: recovery is
    // idempotent and deterministic.
    let again = MassStore::open_with_wal(
        Box::new(pager.clone()),
        CAP,
        Box::new(wal.clone()),
        FsyncPolicy::Always,
    )
    .expect("second reopen");
    assert_eq!(again.wal_stats().replayed_lsn, stats.replayed_lsn);
    assert_eq!(fingerprint(&again), fingerprint(&s));
}

// ---- file-backed durable round trips -----------------------------------

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vamana-recovery-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("store.mass")
}

#[test]
fn durable_file_updates_survive_reopen_without_checkpoint() {
    let path = temp_path("nockpt");
    let expected = {
        let mut s = MassStore::create_durable(&path, CAP, FsyncPolicy::Always).unwrap();
        for op in &script() {
            apply(&mut s, op).unwrap();
        }
        // Tail updates after the last checkpoint live only in the WAL.
        let k = nth_element(&s, "people", 0);
        s.append_element(&k, "straggler").unwrap();
        assert!(s.wal_stats().depth > 0, "tail must be un-checkpointed");
        fingerprint(&s)
        // dropped without checkpoint
    };
    let s = MassStore::open_durable(&path, CAP, FsyncPolicy::Always).unwrap();
    assert!(s.wal_stats().replayed_records > 0);
    assert_eq!(fingerprint(&s), expected);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn durable_file_checkpoint_empties_the_log() {
    let path = temp_path("ckpt");
    let expected = {
        let mut s = MassStore::create_durable(&path, CAP, FsyncPolicy::EveryN(4)).unwrap();
        for op in &script() {
            apply(&mut s, op).unwrap();
        }
        s.checkpoint().unwrap();
        assert_eq!(s.wal_stats().depth, 0);
        fingerprint(&s)
    };
    let s = MassStore::open_durable(&path, CAP, FsyncPolicy::EveryN(4)).unwrap();
    assert_eq!(s.wal_stats().replayed_records, 0, "log was folded");
    assert_eq!(fingerprint(&s), expected);
    // LSNs keep climbing across the checkpoint + reopen.
    let mut s = s;
    let k = nth_element(&s, "people", 0);
    s.append_element(&k, "post").unwrap();
    assert!(s.wal_stats().last_lsn > 0);
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn wal_file_truncated_at_every_byte_recovers_a_prefix() {
    // Byte-granular torn tails on a real file: truncate the WAL at every
    // length, reopen, and require a clean recovery to *some* committed
    // prefix (monotone in the truncation point).
    let path = temp_path("torn");
    {
        let mut s = MassStore::create_durable(&path, CAP, FsyncPolicy::Never).unwrap();
        s.load_xml("d", "<r><a/></r>").unwrap();
        let k = nth_element(&s, "r", 0);
        for i in 0..6 {
            let e = s.append_element(&k, "e").unwrap();
            s.append_text(&e, &format!("t{i}")).unwrap();
        }
    }
    let wal_path = vamana_mass::pager::FilePager::wal_path(&path);
    let full = std::fs::read(&wal_path).unwrap();
    let mut last_records = 0u64;
    for cut in (0..=full.len()).rev() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let s = MassStore::open_durable(&path, CAP, FsyncPolicy::Never)
            .unwrap_or_else(|e| panic!("reopen at cut {cut} failed: {e}"));
        let replayed = s.wal_stats().replayed_records;
        if cut == full.len() {
            last_records = replayed;
            assert_eq!(replayed, 12, "full log replays all 12 inserts");
        }
        assert!(
            replayed <= last_records,
            "shorter logs cannot replay more records"
        );
        last_records = replayed;
        // Every replayed prefix is pairwise consistent: elements and
        // texts arrive in lockstep.
        let e = s.name_id("e").map(|id| s.count_elements(id)).unwrap_or(0);
        assert!(e <= 6);
    }
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// A commit whose second record fails to apply (a page write fault)
/// still moves the generations: the first record's subtree is gone from
/// the pages, so an answer kept at the old generation must not be served.
#[test]
fn a_commit_that_fails_partway_still_moves_the_generations() {
    let xml = "<r><a><x/></a><b><y/></b></r>";
    let store = |clock: &std::sync::Arc<FaultClock>| {
        let pager = Box::new(FaultPager::new(Box::new(SharedPager::new()), clock.clone()));
        let wal = Box::new(MemWalBackend::new());
        let mut s = MassStore::create_with_wal(pager, CAP, wal, FsyncPolicy::Always).unwrap();
        let doc = s.load_xml("d", xml).unwrap();
        (s, doc)
    };
    let delete = |s: &MassStore, name| WalRecord::DeleteSubtree {
        key: nth_element(s, name, 0),
    };
    // The page writes of deleting `a` alone size the budget.
    let clock = FaultClock::new();
    let (mut s, _) = store(&clock);
    let before = clock.writes();
    s.commit(&[delete(&s, "a")]).unwrap();
    let first = clock.writes() - before;
    assert!(first > 0, "a delete writes pages");

    let clock = FaultClock::new();
    let (mut s, doc) = store(&clock);
    let (a, recs) = (nth_element(&s, "a", 0), [delete(&s, "a"), delete(&s, "b")]);
    let (generation, doc_generation) = (s.generation(), s.doc_generation(doc));
    clock.arm(first);
    assert!(s.commit(&recs).is_err(), "the second delete's write fails");
    clock.disarm();
    assert!(!s.contains(&a).unwrap(), "the first delete applied");
    assert_eq!(s.generation(), generation + 1);
    assert_eq!(s.doc_generation(doc), doc_generation + 1);
}

/// `commit` refuses a list that could not apply before logging it: an
/// insert onto a stored key, one under a missing parent (or one the list
/// deleted earlier), a key twice, and a record that is not a node insert
/// or a subtree delete. A list that inserts a fresh subtree parent first
/// passes.
#[test]
fn commit_rejects_records_that_cannot_apply_before_logging_them() {
    let mut s = MassStore::create_with_wal(
        Box::new(SharedPager::new()),
        CAP,
        Box::new(MemWalBackend::new()),
        FsyncPolicy::Always,
    )
    .unwrap();
    s.load_xml("d", "<r><a/></r>").unwrap();
    let a = nth_element(&s, "a", 0);
    let fresh = s.plan_fragment(&a, "<n><m/></n>").unwrap();
    let key_of = |rec: &WalRecord| match rec {
        WalRecord::InsertElement { key, .. } => key.clone(),
        other => panic!("{other:?} is not an element insert"),
    };
    let key = key_of(&fresh[0]);
    let element = |key: &FlexKey| WalRecord::InsertElement {
        key: key.clone(),
        name: "e".into(),
    };
    let orphan = key.child(&vamana_flex::seq_label(7));
    let refused: [Vec<WalRecord>; 6] = [
        vec![element(&a)],
        vec![element(&orphan)],
        vec![element(&key), element(&key)],
        vec![WalRecord::DeleteSubtree { key: a.clone() }, element(&key)],
        vec![element(&key), WalRecord::Commit],
        vec![WalRecord::LoadDocument {
            name: "e".into(),
            xml: "<e/>".into(),
        }],
    ];
    let logged = s.wal_stats().last_lsn;
    for recs in &refused {
        assert!(s.commit(recs).is_err(), "{recs:?} passed");
        assert_eq!(s.wal_stats().last_lsn, logged, "{recs:?} was logged");
    }
    s.commit(&fresh).unwrap();
    let deleted_and_back = [WalRecord::DeleteSubtree { key: key.clone() }, element(&key)];
    s.commit(&deleted_and_back).unwrap();
    assert!(s.contains(&key).unwrap());
    assert!(!s.contains(&key_of(&fresh[1])).unwrap());
}
