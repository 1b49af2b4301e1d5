//! Property test for the query cache (see `vamana_core::views`).
//!
//! Random queries — every axis, name and kind tests, positional, value,
//! function and path predicates, unions — asked again and again over a
//! random document with attributes and text, with inserts and deletes
//! through `apply_update` in between, must always answer what a fresh
//! compile → optimize → execute answers and what the DOM oracle answers on
//! the document as it stands — from `query_doc`, whether a kept answer, a
//! cached plan or its shape's plan with other literals bound in served it,
//! and as a stream at every pull size. Each query is asked with two sets
//! of string literals — values common in the document, one that occurs
//! once, one that never does — so the second text is bound into the plan
//! optimized for the first when their literals are about as frequent, and
//! gets its own plan when they are not. A write keeps the plans; one bulk
//! insert of a new name moves that name's count past a magnitude, and the
//! plan of a probe query priced on it must be optimized afresh. Writes of
//! names no query asks for — elements with text and without, an element
//! with only an attribute — and deletes of those and of comments keep
//! the answers that cannot see them; a last such write after every script
//! keeps the probe's, so every case carries an answer across a write.
//!
//! A follower takes the same rule from the batches a primary's ring ships
//! it: every answer it hands out after each batch equals a fresh one. A
//! write that fails after its apply began drops the answers it moved.

use proptest::prelude::*;
use vamana_baseline::{dom::DomEngine, NodeIdentity, XPathEngine};
use vamana_core::{DocId, Engine, EngineOptions, MassStore, NodeEntry, UpdateOp};
use vamana_flex::{Axis, KeyRange};
use vamana_mass::{FaultClock, FaultPager, FsyncPolicy, MemWalBackend, SharedPager, WalRecord};

const NAMES: [&str; 4] = ["a", "b", "c", "d"];

const VALUES: [&str; 2] = ["x", "7"];

/// The predicates' string literals: `x` and `7` are common values, `q`
/// occurs once (the first leaf of every document), `none` never.
const LITERALS: [&str; 4] = ["x", "7", "q", "none"];

const TESTS: [&str; 7] = ["a", "b", "c", "*", "k", "node()", "text()"];

/// `{}` is a string literal's slot.
const PREDICATES: [&str; 16] = [
    "[1]",
    "[last()]",
    "[position() <= 2]",
    "[@k = '{}']",
    "[. = '{}']",
    "[text() = '{}']",
    "[text() > 5]",
    "[count(a) > 1]",
    "[not(b)]",
    "[contains(., '{}')]",
    "[string-length(@k) = 1]",
    "[b]",
    "[b/c]",
    "[@k]",
    "[.//a]",
    "[a[2]]",
];

const PULL_SIZES: [usize; 6] = [1, 2, 3, 7, 256, usize::MAX];

/// Asked at every step beside the generated queries: priced on the count
/// of `e`, a name only the bulk insert writes.
const PROBE: &str = "//a[e]";

/// Asked at every step too, each changed by writes of names it does not
/// ask for: the root's string value by an `<f>z</f>` anywhere, and its
/// last child, a `b` unless something was appended after it, by any
/// insert under the root.
const WATCHES: [&str; 2] = ["/a[contains(., 'z')]", "/a/node()[last()]/self::b"];

/// One step: `//` rather than `/` before it?, axis, node test, predicate.
type StepSpec = (bool, usize, usize, Option<usize>);

fn path_strategy() -> impl Strategy<Value = String> {
    let step = (
        any::<bool>(),
        0..Axis::ALL.len(),
        0..TESTS.len(),
        proptest::option::of(0..PREDICATES.len()),
    );
    proptest::collection::vec(step, 1..4).prop_map(|steps| render(&steps))
}

/// A path, or the union of two.
fn query_strategy() -> impl Strategy<Value = String> {
    (path_strategy(), proptest::option::of(path_strategy())).prop_map(|(left, right)| match right {
        Some(right) => format!("{left} | {right}"),
        None => left,
    })
}

fn render(steps: &[StepSpec]) -> String {
    let mut s = String::new();
    for &(descendant, axis, test, pred) in steps {
        s.push_str(if descendant { "//" } else { "/" });
        s.push_str(Axis::ALL[axis].as_str());
        s.push_str("::");
        s.push_str(TESTS[test]);
        if let Some(p) = pred {
            s.push_str(PREDICATES[p]);
        }
    }
    s
}

/// `query` with its literal slots filled from [`LITERALS`], slot `j` taking
/// the `(first + j)`-th: texts of one shape, no two slots of one value.
fn with_literals(query: &str, first: usize) -> String {
    let mut parts = query.split("{}");
    let mut text = parts.next().unwrap_or_default().to_string();
    for (j, part) in parts.enumerate() {
        text.push_str(LITERALS[(first + j) % LITERALS.len()]);
        text.push_str(part);
    }
    text
}

/// Builds a small XML document from a stack-machine tape: open a child
/// (with a `k` attribute for some), close the current element, or emit an
/// empty or a text leaf — names and values drawn from the alphabets the
/// queries use so matches are likely.
fn build_doc(ops: &[(u8, u8)]) -> String {
    let mut xml = String::from("<a><b k='q'>q</b>");
    let mut stack = vec!["a"];
    for &(n, action) in ops {
        let name = NAMES[(n % 4) as usize];
        let value = VALUES[(n / 8 % 2) as usize];
        match action % 4 {
            0 if stack.len() < 5 => {
                if n / 4 % 2 == 1 {
                    xml.push_str(&format!("<{name} k='{value}'>"));
                } else {
                    xml.push_str(&format!("<{name}>"));
                }
                stack.push(name);
            }
            1 if stack.len() > 1 => {
                let t = stack.pop().unwrap();
                xml.push_str(&format!("</{t}>"));
            }
            3 => xml.push_str(&format!("<{name}>{value}</{name}>")),
            2 if n % 4 == 3 => xml.push_str("<!--n-->"),
            _ => xml.push_str(&format!("<{name}/>")),
        }
    }
    while stack.len() > 1 {
        let t = stack.pop().unwrap();
        xml.push_str(&format!("</{t}>"));
    }
    xml.push_str("<b/></a>");
    xml
}

/// The write of one script step: an insert under the first `parent`, a
/// delete of children of a `parent` (never the root), or none. Most write
/// names the queries never ask for (`f`, `g`, `h`, `@m`): an element with
/// text, one without, one with only an attribute; and delete those, that
/// attribute alone, or comments.
fn update(action: u8, parent: &str, name: &str) -> Option<UpdateOp> {
    let insert = |fragment: String| {
        Some(UpdateOp::Insert {
            target: format!("//{parent}"),
            fragment,
        })
    };
    let delete = |children: &str| {
        Some(UpdateOp::Delete {
            target: format!("//{parent}/{children}"),
        })
    };
    match action % 10 {
        0 => insert(format!("<{name} k='x'><{parent}>7</{parent}></{name}>")),
        1 => delete(name),
        3 => insert("<f>z</f>".into()),
        4 => insert("<g/>".into()),
        5 => insert("<h m='7'/>".into()),
        6 => delete("f"),
        7 => delete(&format!("g | //{parent}/h")),
        8 => delete("h/@m"),
        9 => delete("comment()"),
        _ => None,
    }
}

/// The write after every script: a name the probe does not ask for.
fn unseen() -> UpdateOp {
    UpdateOp::Insert {
        target: "/a".into(),
        fragment: "<g/>".into(),
    }
}

/// Enough `e` elements under the root to move their count, none before,
/// past a magnitude, `⌊log₂(count + one page of tuples)⌋`: more than twice
/// the page of tuples.
fn bulk(engine: &Engine) -> UpdateOp {
    let slack = engine.store().tuples_per_page().ceil() as usize;
    UpdateOp::Insert {
        target: "/a".into(),
        fragment: format!("<e>{}</e>", "<e/>".repeat(2 * slack)),
    }
}

/// An engine that keeps every answer the first time it computes it.
fn engine_for(xml: &str) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("d", xml).expect("load generated doc");
    keeping(store)
}

fn keeping(store: MassStore) -> Engine {
    Engine::with_options(
        store,
        EngineOptions {
            view_admit_after: 1,
            ..EngineOptions::default()
        },
    )
}

/// An empty durable store whose pages and log live in memory, its page
/// writes charged to `clock`.
fn durable(clock: &std::sync::Arc<FaultClock>) -> MassStore {
    let pager = Box::new(FaultPager::new(Box::new(SharedPager::new()), clock.clone()));
    let wal = Box::new(MemWalBackend::new());
    MassStore::create_with_wal(pager, 64, wal, FsyncPolicy::Never).unwrap()
}

fn identities(engine: &Engine, result: &[NodeEntry]) -> Vec<NodeIdentity> {
    let names = engine.names_of(result).unwrap();
    let values = engine.string_values(result).unwrap();
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| NodeIdentity { name, value })
        .collect()
}

/// `xpath` planned and run afresh, past the query cache.
fn fresh(engine: &Engine, doc: DocId, xpath: &str) -> Vec<NodeEntry> {
    let plan = engine.compile(xpath).unwrap();
    let plan = engine.optimize_plan(plan, doc).unwrap().plan;
    engine.execute_plan(&plan, doc).unwrap()
}

/// The document as the store holds it now, for the oracle to re-parse.
fn exported(engine: &Engine) -> String {
    let store = engine.store();
    vamana_mass::export::export_subtree_xml(store, &store.documents()[0].doc_key).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn memo_answers_equal_direct_evaluation_across_writes(
        queries in proptest::collection::vec(query_strategy(), 1..4),
        first in 0..LITERALS.len(),
        script in proptest::collection::vec((any::<u8>(), 0usize..4, 0usize..4), 1..8),
        bulk_at in 1usize..8,
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let xml = build_doc(&ops);
        let mut subject = engine_for(&xml);
        let doc = DocId(0);
        let slots = |q: &String| q.matches("{}").count();
        // Texts that must have been bound into the template their query's
        // first text left: at the first step, where both texts are new,
        // each slot's two literals of one count. A write keeps both texts'
        // entries, so later a text binds only when its plan is made afresh.
        let mut must_bind = 0;
        // Each script step, then one more: a write the probe cannot see.
        for (step, spec) in script.iter().map(Some).chain([None]).enumerate() {
            match spec {
                // The probe's answer was kept at the step before.
                None => {
                    subject.apply_update(doc, &unseen()).unwrap();
                }
                Some(_) if step == bulk_at => {
                    // The probe's plan was checked at the step before, on
                    // the counts this insert starts from.
                    subject.apply_update(doc, &bulk(&subject)).unwrap();
                    let replans = subject.views().replans();
                    let found = subject.lookup(doc, PROBE).unwrap();
                    prop_assert!(!found.cached, "{} kept its plan past the bulk insert", PROBE);
                    prop_assert!(subject.views().replans() > replans);
                }
                Some(&(action, parent, name)) => {
                    if let Some(op) = update(action, NAMES[parent], NAMES[name]) {
                        subject.apply_update(doc, &op).unwrap();
                    }
                }
            }
            if step == 0 {
                let store = subject.store();
                let scope = KeyRange::subtree(&store.documents()[0].doc_key);
                let count = |i: usize| store.text_count_in(LITERALS[i % LITERALS.len()], &scope);
                let mut distinct = queries.clone();
                distinct.sort();
                distinct.dedup();
                must_bind += distinct
                    .iter()
                    .filter(|q| (1..=LITERALS.len()).contains(&slots(q)))
                    .filter(|q| (0..slots(q)).all(|j| count(first + j) == count(first + 1 + j)))
                    .count();
            }
            let dom = DomEngine::from_xml(&exported(&subject)).unwrap();
            // Two texts of each query's shape: the second may be bound
            // into the plan optimized for the first.
            let texts = queries
                .iter()
                .flat_map(|q| [with_literals(q, first), with_literals(q, first + 1)])
                .chain([PROBE].into_iter().chain(WATCHES).map(String::from));
            for xpath in texts {
                let xpath = xpath.as_str();
                let want = fresh(&subject, doc, xpath);
                prop_assert_eq!(
                    identities(&subject, &want),
                    dom.identities(xpath).unwrap(),
                    "{} at step {} disagrees with the DOM oracle",
                    xpath,
                    step
                );
                // Twice: the first keeps the answer, the second is it.
                for run in 0..2 {
                    let got = subject.query_doc(doc, xpath).unwrap();
                    prop_assert_eq!(&got, &want, "{} at step {}, run {}", xpath, step, run);
                }
                for max in PULL_SIZES {
                    let mut stream = subject.stream(doc, xpath).unwrap();
                    let mut streamed = Vec::new();
                    while stream.next_batch(&mut streamed, max).unwrap() == max {}
                    let streamed = stream.finish(streamed).unwrap().to_vec();
                    prop_assert_eq!(
                        &streamed,
                        &want,
                        "{} at step {} pulled by {}",
                        xpath,
                        step,
                        max
                    );
                }
            }
        }
        // Every query is kept at every generation, so every run but the
        // first after a write is answered from the cache.
        let answered = subject.views().stats().hits;
        let runs = (2 * queries.len() * script.len()) as u64;
        prop_assert!(
            answered >= runs * (1 + PULL_SIZES.len() as u64),
            "{} answers served",
            answered
        );
        prop_assert!(
            subject.views().stats().carried > 0,
            "no answer was carried across a write"
        );
        prop_assert!(
            subject.views().binds() >= must_bind as u64,
            "{} binds, {} texts of a template's magnitudes",
            subject.views().binds(),
            must_bind
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn follower_answers_equal_direct_evaluation_across_the_feed(
        queries in proptest::collection::vec(query_strategy(), 1..4),
        first in 0..LITERALS.len(),
        script in proptest::collection::vec((any::<u8>(), 0usize..4, 0usize..4), 1..8),
        ops in proptest::collection::vec((any::<u8>(), any::<u8>()), 0..40),
    ) {
        let mut primary = Engine::new(durable(&FaultClock::new()));
        let ring = primary.attach_replication(1024).unwrap();
        primary.load_xml("d", &build_doc(&ops)).unwrap();
        let mut follower = keeping(durable(&FaultClock::new()));
        let doc = DocId(0);
        let texts: Vec<String> = queries
            .iter()
            .flat_map(|q| [with_literals(q, first), with_literals(q, first + 1)])
            .chain([PROBE].into_iter().chain(WATCHES).map(String::from))
            .collect();
        let (mut shipped, mut batch, mut batches) = (0, Vec::new(), 0);
        // Each script step, then a write the probe cannot see.
        for spec in script.iter().map(Some).chain([None]) {
            let op = match spec {
                Some(&(action, parent, name)) => update(action, NAMES[parent], NAMES[name]),
                None => Some(unseen()),
            };
            if let Some(op) = op {
                primary.apply_update(doc, &op).unwrap();
            }
            // The ring's frames, split at each commit, as a follower's
            // feed delivers them.
            for (lsn, payload) in ring.frames_after(shipped, usize::MAX).unwrap() {
                shipped = lsn;
                let rec = WalRecord::decode(&payload).unwrap();
                let commit = matches!(rec, WalRecord::Commit);
                batch.push((lsn, rec));
                if !commit {
                    continue;
                }
                follower.apply_replicated(&batch).unwrap();
                batch.clear();
                batches += 1;
                for xpath in &texts {
                    let want = fresh(&follower, doc, xpath);
                    // Twice: the first keeps the answer, the second is it.
                    for run in 0..2 {
                        let got = follower.query_doc(doc, xpath).unwrap();
                        prop_assert_eq!(&got, &want, "{} after batch {}, run {}", xpath, batches, run);
                    }
                }
            }
        }
        let views = follower.views().stats();
        prop_assert!(views.hits >= batches * texts.len() as u64, "{} answers served", views.hits);
        prop_assert!(views.carried > 0, "no answer was carried across a replayed write");
    }
}

/// A commit that fails after its apply began has moved the document's
/// generation: the answer kept before it is not handed out, and the
/// document keeps answers again at the new generation.
#[test]
fn a_write_that_fails_partway_drops_the_answers_it_moved() {
    let xml = "<r><a><x/></a><b><y/></b></r>";
    let doc = DocId(0);
    let delete = |target: &str| UpdateOp::Delete {
        target: target.into(),
    };
    // The page writes of deleting `a` alone size the budget.
    let clock = FaultClock::new();
    let mut engine = keeping(durable(&clock));
    engine.load_xml("d", xml).unwrap();
    let before = clock.writes();
    engine.apply_update(doc, &delete("/r/a")).unwrap();
    let budget = clock.writes() - before;

    let clock = FaultClock::new();
    let mut engine = keeping(durable(&clock));
    engine.load_xml("d", xml).unwrap();
    assert_eq!(engine.query_doc(doc, "//x").unwrap().len(), 1);
    assert!(engine.lookup(doc, "//x").unwrap().answer.is_some());
    clock.arm(budget);
    let failed = engine.apply_update(doc, &delete("/r/a | /r/b"));
    clock.disarm();
    assert!(failed.is_err(), "the second delete's write fails");
    assert_eq!(engine.query_doc(doc, "//x").unwrap(), []);
    assert_eq!(
        engine.query_doc(doc, "//x").unwrap(),
        fresh(&engine, doc, "//x")
    );
    assert!(engine.lookup(doc, "//x").unwrap().answer.is_some());
}
