//! Criterion benches for the evaluation queries (Figs 12–16 micro-scale):
//! every (query × engine) cell at a fixed document size — after the
//! kernel of a scan step, what opening one context costs (`step_open`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vamana_bench::{document, Lineup, QUERIES};
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

/// What a step pays per context tuple to open its clustered scan — the
/// kernel under `//item/*`, `//person//*` and `/site/*/*` — reported as
/// ns/context (the group's per-element time): one [`AxisStream`] re-opened
/// on each context in document order, as a step cursor does it, pulled
/// for its first row only (`open`: re-bound, position, one record) and
/// pulled dry (`drain`; minus `open`, over the rows, is the per-row cost).
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
///   sweep's entry check costs that path.
fn bench_step_open(c: &mut Criterion) {
    let xml = document(1.0);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
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
    let cases = [
        ("child_wildcard", Axis::Child, elements("item")),
        ("descendant_wildcard", Axis::Descendant, elements("person")),
        ("child_jump_offpage", Axis::Child, crossing),
        ("descendant_nested", Axis::Descendant, nested),
    ];
    let mut group = c.benchmark_group("step_open");
    group.sample_size(30);
    for (label, axis, contexts) in cases {
        assert!(
            contexts.len() >= 100,
            "{label}: {} contexts",
            contexts.len()
        );
        let walk = |max: usize| {
            let mut stream = AxisStream::new(&store, axis, NodeFilter::any_element());
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
    group.finish();
}

criterion_group!(benches, bench_step_open, bench_queries);
criterion_main!(benches);
