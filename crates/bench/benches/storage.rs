//! MASS micro-benchmarks: the index primitives the paper's cost model
//! and index-only plans rely on — loading, point lookups, index-level
//! counting (vs scanning), axis streams, value-index lookups, and the
//! page decode a buffer-pool miss pays.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vamana_bench::document;
use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{axis_stream, NodeFilter};
use vamana_mass::page::Page;
use vamana_mass::pager::PageStore;
use vamana_mass::{MassCursor, MassStore, RecordKind, SharedPager, StoreFormat};

fn store_1mb() -> MassStore {
    let xml = document(1.0);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml).expect("load");
    store
}

fn bench_load(c: &mut Criterion) {
    let xml = document(1.0);
    let mut group = c.benchmark_group("storage");
    group.sample_size(10);
    group.bench_function("bulk_load_1mb", |b| {
        b.iter(|| {
            let mut store = MassStore::open_memory();
            store.load_xml("auction.xml", &xml).expect("load");
            store.stats().tuples
        })
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let store = store_1mb();
    let person = store.name_id("person").expect("person");
    let person_keys: Vec<FlexKey> = store
        .name_index()
        .elements(person)
        .iter()
        .map(FlexKey::from_flat_slice)
        .collect();
    let mid = person_keys[person_keys.len() / 2].clone();
    let doc_key = store.documents()[0].doc_key.clone();

    let mut group = c.benchmark_group("storage");

    group.bench_function("point_get", |b| {
        b.iter(|| store.get(&mid).expect("io").is_some())
    });

    // The paper's headline: counting on the index level without touching
    // data pages...
    group.bench_function("count_index_only", |b| {
        b.iter(|| store.count_elements_in(person, &KeyRange::subtree(&doc_key)))
    });

    // ...versus what a scan-based count would cost.
    group.bench_function("count_by_scan", |b| {
        b.iter(|| {
            let mut cursor = MassCursor::new(&store, KeyRange::subtree(&doc_key));
            let mut n = 0u64;
            while let Some(rec) = cursor.next().expect("io") {
                if rec.kind == RecordKind::Element && rec.name == Some(person) {
                    n += 1;
                }
            }
            n
        })
    });

    group.bench_function("descendant_stream_person", |b| {
        b.iter(|| {
            let s = axis_stream(
                &store,
                &doc_key,
                RecordKind::Document,
                Axis::Descendant,
                NodeFilter::element(person),
            )
            .expect("stream");
            s.collect().expect("io").len()
        })
    });

    group.bench_function("child_stream_jumps", |b| {
        b.iter(|| {
            let s = axis_stream(
                &store,
                &mid,
                RecordKind::Element,
                Axis::Child,
                NodeFilter::any(),
            )
            .expect("stream");
            s.collect().expect("io").len()
        })
    });

    group.bench_function("value_index_tc", |b| b.iter(|| store.text_count("Vermont")));

    group.bench_function("parent_lookup", |b| {
        b.iter(|| {
            let s = axis_stream(
                &store,
                &mid,
                RecordKind::Element,
                Axis::Parent,
                NodeFilter::any_element(),
            )
            .expect("stream");
            !s.collect().expect("io").is_empty()
        })
    });

    group.finish();
}

/// The kernel of a buffer-pool miss: build the read form of every page
/// image of the 1 MB store and drop it again, per format. The image copy
/// stands in for the `Vec` the pager's `read_page` hands over.
fn bench_page_decode(c: &mut Criterion) {
    let xml = document(1.0);
    let mut group = c.benchmark_group("page_decode");
    for format in [StoreFormat::V1, StoreFormat::V2] {
        let mut pager = SharedPager::new();
        let mut store = MassStore::with_pager(Box::new(pager.clone()), 64);
        store.set_format(format).expect("format");
        store.load_xml("auction.xml", &xml).expect("load");
        let images: Vec<Vec<u8>> = (0..pager.page_count())
            .map(|id| pager.read_page(id).expect("page"))
            .collect();
        group.throughput(Throughput::Elements(store.stats().tuples));
        group.bench_function(
            format!("{} ({} pages)", format.as_str(), images.len()),
            |b| {
                b.iter(|| {
                    images
                        .iter()
                        .map(|image| Page::decode(image.clone(), 0).expect("decode").len())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_load, bench_primitives, bench_page_decode);
criterion_main!(benches);
