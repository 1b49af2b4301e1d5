//! Store images: a store's pages, blob heap and catalog, installed into a
//! fresh pager and opened as a restart opens a store, equal the source
//! in every record (key included), document, name, dictionary entry and
//! format, after the writes that make a re-load of the text assign
//! other keys. A cut at any write of the install reopens as an empty
//! store or as the whole image.

use vamana_flex::{FlexKey, KeyRange};
use vamana_mass::pager::MemoryPager;
use vamana_mass::record::RecordKind;
use vamana_mass::store::INLINE_VALUE_MAX;
use vamana_mass::{
    FaultClock, FaultPager, FaultWalBackend, FsyncPolicy, MassCursor, MassStore, MemWalBackend,
    NameId, SharedPager, StoreFormat, WalRecord,
};

const CAP: usize = 64;

/// One record as a store holds it: flat key, kind, name and value.
type Record = (Vec<u8>, RecordKind, Option<String>, Option<String>);

/// Everything an installed store must share with its source.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    records: Vec<Record>,
    documents: Vec<(String, Vec<u8>)>,
    names: Vec<String>,
    dict: Vec<String>,
    format: StoreFormat,
    lsn: u64,
}

fn fingerprint(s: &MassStore) -> Fingerprint {
    let mut records = Vec::new();
    let mut cursor = MassCursor::new(s, KeyRange::all());
    while let Some(rec) = cursor.next().unwrap() {
        let name = rec.name.map(|n| s.names().resolve(n).to_string());
        let value = s.resolve_value(&rec).unwrap();
        records.push((rec.key.as_flat().to_vec(), rec.kind, name, value));
    }
    Fingerprint {
        records,
        documents: s
            .documents()
            .iter()
            .map(|d| (d.name.to_string(), d.doc_key.as_flat().to_vec()))
            .collect(),
        names: (0..s.names().len())
            .map(|i| s.names().resolve(NameId(i as u32)).to_string())
            .collect(),
        dict: s.dict().iter().map(str::to_string).collect(),
        format: s.format(),
        lsn: s.replicated_lsn(),
    }
}

/// The element named `name` whose string value is `value`.
fn element(s: &MassStore, name: &str, value: &str) -> FlexKey {
    let id = s.name_id(name).unwrap();
    s.name_index()
        .elements(id)
        .iter()
        .map(FlexKey::from_flat_slice)
        .find(|k| s.string_value(k).unwrap() == value)
        .unwrap()
}

/// A store in `format` after the writes that shift keys on a re-load: a
/// middle delete, an attributed insert, and a delete that leaves two
/// texts side by side. It holds a value in the blob heap and values in
/// the dictionary.
fn written_store(format: StoreFormat) -> MassStore {
    let mut s = MassStore::create_with_wal(
        Box::new(MemoryPager::new()),
        CAP,
        Box::new(MemWalBackend::new()),
        FsyncPolicy::Never,
    )
    .unwrap();
    s.set_format(format).unwrap();
    let long = "w".repeat(INLINE_VALUE_MAX + 100);
    let mut people = String::new();
    for i in 0..500 {
        people.push_str(&format!(
            "<person><name>n{i}</name><city>Duluth</city></person>"
        ));
    }
    s.load_xml(
        "auction",
        &format!(
            "<site><people><person><name>A</name></person><person><name>M</name></person>\
             <person><name>Z</name></person>{people}</people><p>x<b/>y</p><note>{long}</note></site>"
        ),
    )
    .unwrap();
    s.load_xml("other", "<r><c>Duluth</c></r>").unwrap();

    let m = element(&s, "person", "M");
    s.delete_subtree(&m).unwrap();
    let people = s.name_index().elements(s.name_id("people").unwrap());
    let people = FlexKey::from_flat_slice(people.iter().next().unwrap());
    s.append_fragment(&people, "<person id='x'><name>B</name></person>")
        .unwrap();
    let b = element(&s, "b", "");
    s.delete_subtree(&b).unwrap();
    s
}

fn install(parts: &[Vec<u8>]) -> MassStore {
    MassStore::install_image(
        Box::new(MemoryPager::new()),
        CAP,
        Box::new(MemWalBackend::new()),
        FsyncPolicy::Never,
        parts,
    )
    .unwrap()
}

#[test]
fn an_installed_image_equals_its_source() {
    for format in [StoreFormat::V1, StoreFormat::V2] {
        let mut source = written_store(format);
        let want = fingerprint(&source);
        assert!(source.stats().pages > 2, "{format:?}: several pages");
        assert_eq!(
            want.dict.is_empty(),
            format == StoreFormat::V1,
            "{format:?}"
        );
        let parts = source.image().unwrap();
        let mut installed = install(&parts);
        assert_eq!(fingerprint(&installed), want, "{format:?}");
        assert_eq!(installed.stats().tuples, source.stats().tuples);

        // A write the source plans names the source's keys; committed on
        // both, it leaves them equal.
        let x = source
            .name_index()
            .attributes(source.name_id("id").unwrap())
            .iter()
            .map(|flat| FlexKey::from_flat_slice(flat).parent().unwrap())
            .next()
            .unwrap();
        let mut write = source.plan_fragment(&x, "<email>b@x</email>").unwrap();
        write.push(WalRecord::DeleteSubtree {
            key: element(&source, "person", "Z"),
        });
        source.commit(&write).unwrap();
        installed.commit(&write).unwrap();
        assert_eq!(fingerprint(&installed), fingerprint(&source), "{format:?}");
    }
}

#[test]
fn a_cut_install_reopens_empty_or_whole() {
    for format in [StoreFormat::V1, StoreFormat::V2] {
        let source = written_store(format);
        let want = fingerprint(&source);
        let parts = source.image().unwrap();
        let clock = FaultClock::new();
        let run = |budget: Option<u64>| {
            let (pager, wal) = (SharedPager::new(), MemWalBackend::new());
            if let Some(n) = budget {
                clock.arm(n);
            }
            let installed = MassStore::install_image(
                Box::new(FaultPager::new(Box::new(pager.clone()), clock.clone())),
                CAP,
                Box::new(FaultWalBackend::new(Box::new(wal.clone()), clock.clone())),
                FsyncPolicy::Never,
                &parts,
            );
            clock.disarm();
            (installed.is_ok(), pager, wal)
        };
        let (ok, ..) = run(None);
        assert!(ok);
        let writes = clock.writes();
        assert!(writes > 10, "{format:?}: {writes} writes");
        let mut whole = 0;
        for n in 0..=writes {
            let (ok, pager, wal) = run(Some(n));
            assert_eq!(ok, n == writes, "{format:?} cut at {n}");
            let reopened =
                MassStore::open_with_wal(Box::new(pager), CAP, Box::new(wal), FsyncPolicy::Never)
                    .unwrap_or_else(|e| panic!("{format:?} cut at {n}: {e}"));
            let got = fingerprint(&reopened);
            if got.documents.is_empty() {
                assert!(got.records.is_empty(), "{format:?} cut at {n}");
                assert_eq!(reopened.stats().tuples, 0, "{format:?} cut at {n}");
            } else {
                assert_eq!(got, want, "{format:?} cut at {n}");
                whole += 1;
            }
        }
        // The catalog write is the commit point; the log's header after it
        // is the install's last write.
        assert!(whole >= 1, "{format:?}");
    }
}
