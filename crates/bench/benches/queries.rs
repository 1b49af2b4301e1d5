//! Criterion benches for the evaluation queries (Figs 12–16 micro-scale):
//! every (query × engine) cell at a fixed document size — after the
//! kernel of a scan step, what opening one context costs (`step_open`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vamana_bench::{document, Lineup, QUERIES};
use vamana_core::{DocId, Engine};
use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{AxisStream, NodeFilter};
use vamana_mass::{MassStore, RecordKind};

fn bench_queries(c: &mut Criterion) {
    let xml = document(1.0);
    let lineup = Lineup::build(&xml);
    let mut group = c.benchmark_group("queries_1mb");
    group.sample_size(10);
    for (label, query) in QUERIES {
        for engine in lineup.engines() {
            // Skip unsupported combinations (Galax/eXist on Q4) instead
            // of benchmarking an error path.
            if engine.count(query).is_err() {
                continue;
            }
            group.bench_with_input(BenchmarkId::new(*label, engine.label()), query, |b, q| {
                b.iter(|| engine.count(q).expect("supported"))
            });
        }
    }
    group.finish();
}

/// What a step pays per context tuple to open its axis stream — the
/// kernel under `//item/*`, `//person//*`, `/site/*/*` and Q2–Q4 —
/// reported as ns/context (the group's per-element time): one
/// [`AxisStream`] re-opened on each context in document order, as a step
/// cursor does it, pulled for its first row only (`open`: re-bound,
/// position, one record) and pulled dry (`drain`; minus `open`, over the
/// rows, is the per-row cost).
///
/// * `child_wildcard`: `child::*` from every `item` (a sibling-jump scan,
///   jumps in-page);
/// * `descendant_wildcard`: `descendant::*` from every `person` (a range
///   scan of a few records);
/// * `child_jump_offpage`: `child::*` from elements whose subtree crosses
///   a page boundary, so that a jump — or the run of children — runs off
///   the pinned page onto the next;
/// * `descendant_nested`: `descendant::*` from each of the first 200
///   `person`s and then its first element child, which nests in the
///   person's range, behind the cursor; the next person lies past where
///   the child's range ended. No context's record is where the last range
///   ended, so every open falls back to the re-seek: this pins what the
///   sweep's entry check costs that path;
/// * `parent_wildcard`: `parent::*` from every `price` (a point seek of
///   the stream's cursor: `*` has no posting list);
/// * `ancestor_named`: `ancestor::person` from every `watches` (finger
///   probes of the `person` list);
/// * `following_sibling_named`: `following-sibling::price` from every
///   `itemref` (a sibling range of the `price` list).
///
/// Last, what a step pays per tuple to test an exist-predicate the index
/// answers: `exists_parent`, Q1's optimized plan `//address[parent::person]`
/// (`filter`) against `//address` alone (`input`), per `address`; the
/// difference is the probe.
fn bench_step_open(c: &mut Criterion) {
    let xml = document(1.0);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    let engine = Engine::new(store);
    let store = engine.store();
    let name = |name: &str| store.name_id(name).expect(name);
    let elements = |name: &str| -> Vec<FlexKey> {
        let id = store.name_id(name).expect(name);
        let keys = store.name_index().elements(id).iter();
        keys.map(FlexKey::from_flat_slice).collect()
    };
    // Page-crossing subtrees, outermost first, none inside another.
    let mut crossing: Vec<FlexKey> = Vec::new();
    for flat in store.name_index().all_elements().iter() {
        let key = FlexKey::from_flat_slice(flat);
        if key.level() >= 3
            && store.page_span(&KeyRange::subtree(&key)) == 2
            && !crossing
                .last()
                .is_some_and(|last| last.is_ancestor_of(&key))
        {
            crossing.push(key);
        }
    }
    let all = store.name_index().all_elements();
    let nested: Vec<FlexKey> = elements("person")[..200]
        .iter()
        .flat_map(|person| {
            // The element right after a person is its first child.
            let child = all.get(all.lower_bound(person.as_flat()) + 1);
            [person.clone(), FlexKey::from_flat_slice(child)]
        })
        .collect();
    let any = NodeFilter::any_element();
    let cases = [
        ("child_wildcard", Axis::Child, any, elements("item")),
        (
            "descendant_wildcard",
            Axis::Descendant,
            any,
            elements("person"),
        ),
        ("child_jump_offpage", Axis::Child, any, crossing),
        ("descendant_nested", Axis::Descendant, any, nested),
        ("parent_wildcard", Axis::Parent, any, elements("price")),
        (
            "ancestor_named",
            Axis::Ancestor,
            NodeFilter::element(name("person")),
            elements("watches"),
        ),
        (
            "following_sibling_named",
            Axis::FollowingSibling,
            NodeFilter::element(name("price")),
            elements("itemref"),
        ),
    ];
    let mut group = c.benchmark_group("step_open");
    group.sample_size(30);
    for (label, axis, filter, contexts) in cases {
        assert!(
            contexts.len() >= 100,
            "{label}: {} contexts",
            contexts.len()
        );
        let walk = |max: usize| {
            let mut stream = AxisStream::new(store, axis, filter);
            let mut out = Vec::new();
            let mut rows = 0;
            for ctx in &contexts {
                stream.open(ctx, RecordKind::Element).expect("open");
                out.clear();
                rows += stream.next_batch(&mut out, max).expect("pull");
            }
            stream.release();
            rows
        };
        let rows = walk(usize::MAX) as f64 / contexts.len() as f64;
        group.throughput(Throughput::Elements(contexts.len() as u64));
        group.bench_function(format!("{label}/open"), |b| b.iter(|| walk(1)));
        group.bench_function(format!("{label}/drain ({rows:.1} rows a context)"), |b| {
            b.iter(|| walk(usize::MAX))
        });
    }
    let prepared = |xpath: &str| {
        let plan = engine.compile(xpath).expect(xpath);
        engine.optimize_plan(plan, DocId(0)).expect(xpath).plan
    };
    let (input, filter) = (prepared("//address"), prepared("//address[parent::person]"));
    let addresses = engine.execute_plan(&input, DocId(0)).expect("input").len();
    group.throughput(Throughput::Elements(addresses as u64));
    for (label, plan) in [("input", &input), ("filter", &filter)] {
        group.bench_function(format!("exists_parent/{label}"), |b| {
            b.iter(|| engine.execute_plan(plan, DocId(0)).expect("run").len())
        });
    }
    group.finish();
}

/// What handing out a kept answer costs, on an 8 MB store (the size of
/// `embed_point`'s): `clone_q1` copies the query cache's answer to Q1, in
/// ns per row; `query_doc_kept/{q1,lookup}` is a whole
/// [`Engine::query_doc`] the cache answers — Q1, and a one-row id lookup —
/// per call.
fn bench_kept_answer(c: &mut Criterion) {
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &document(8.0)).expect("load");
    let engine = Engine::new(store);
    let (q1, lookup) = (QUERIES[0].1, "//item[@id='item700']/location");
    for xpath in [q1, lookup] {
        // The second run of a text keeps its answer.
        for _ in 0..2 {
            engine.query_doc(DocId(0), xpath).expect(xpath);
        }
        let found = engine.lookup(DocId(0), xpath).expect(xpath);
        assert!(found.answer.is_some(), "{xpath}: answer not kept");
    }
    let kept = engine.lookup(DocId(0), q1).expect("q1").answer;
    let kept = kept.expect("kept");
    let mut group = c.benchmark_group("kept_answer");
    group.sample_size(200);
    for (label, xpath) in [("q1", q1), ("lookup", lookup)] {
        group.bench_function(format!("query_doc_kept/{label}"), |b| {
            b.iter(|| engine.query_doc(DocId(0), xpath).expect(xpath))
        });
    }
    group.throughput(Throughput::Elements(kept.len() as u64));
    group.bench_function(format!("clone_q1 ({} rows)", kept.len()), |b| {
        b.iter(|| kept.to_vec())
    });
    group.finish();
}

criterion_group!(benches, bench_step_open, bench_kept_answer, bench_queries);
criterion_main!(benches);
