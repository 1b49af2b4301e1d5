//! Pull-boundary edge cases for the one pull protocol.
//!
//! `next_batch(out, max)` must produce the same tuple sequence whatever
//! `max` is: same nodes, same pipeline order, no duplicates or gaps at
//! pull boundaries, regardless of where a pull ends relative to pages,
//! contexts, predicates, or a consumer-imposed row limit. The expected
//! sequences are known from how each document is built.

use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, MassStore, NodeEntry};

/// Pull sizes every sequence is checked under: the tuple-at-a-time
/// `max = 1`, small sizes that cut every context group, one full batch,
/// and drain-all.
const PULLS: [usize; 6] = [1, 2, 3, 7, BATCH_SIZE, usize::MAX];

fn engine_from(xml: &str) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("doc", xml).unwrap();
    Engine::new(store)
}

/// Full drain of `xpath` in pipeline order with `max`-sized pulls.
fn drain(engine: &Engine, xpath: &str, max: usize) -> Vec<NodeEntry> {
    let mut out = Vec::new();
    let mut stream = engine.stream(DocId(0), xpath).unwrap();
    loop {
        let n = stream.next_batch(&mut out, max).unwrap();
        assert!(n <= max, "{xpath}: over-filled pull: {n} > {max}");
        if n < max {
            break;
        }
    }
    assert_eq!(
        stream.next_batch(&mut out, max).unwrap(),
        0,
        "{xpath}: exhausted stays exhausted (max {max})"
    );
    out
}

/// The sequence of `xpath` under every pull size, asserted identical;
/// returned as string values for comparison with the built document.
fn values_under_every_pull(engine: &Engine, xpath: &str) -> Vec<String> {
    let reference = drain(engine, xpath, usize::MAX);
    for max in PULLS {
        assert_eq!(drain(engine, xpath, max), reference, "{xpath}: max {max}");
    }
    // The materializing API (set semantics) agrees on these duplicate-free
    // document-order sequences.
    assert_eq!(engine.query(xpath).unwrap(), reference, "{xpath}: query()");
    engine.string_values(&reference).unwrap()
}

fn numbers(range: impl Iterator<Item = usize>) -> Vec<String> {
    range.map(|i| i.to_string()).collect()
}

#[test]
fn short_batch_then_exhausted() {
    // Fewer matches than `max`: one short batch, then a clean zero.
    let e = engine_from("<r><a>0</a><a>1</a><a>2</a></r>");
    let mut stream = e.stream(DocId(0), "//a").unwrap();
    let mut out = Vec::new();
    assert_eq!(stream.next_batch(&mut out, BATCH_SIZE).unwrap(), 3);
    assert_eq!(e.string_values(&out).unwrap(), numbers(0..3));
    assert_eq!(stream.next_batch(&mut out, BATCH_SIZE).unwrap(), 0);
    assert_eq!(
        stream.next_batch(&mut out, 1).unwrap(),
        0,
        "exhausted stays exhausted"
    );
}

#[test]
fn small_max_pulls_have_no_gaps_or_duplicates() {
    // A `max` far below the result size cuts every pull mid-stream; the
    // concatenation must still be the exact document sequence.
    let mut xml = String::from("<r>");
    for i in 0..1000 {
        xml.push_str(&format!("<e>{i}</e>"));
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    assert_eq!(values_under_every_pull(&e, "//e"), numbers(0..1000));
    // The same through a clustered scan (wildcard) and a sibling jump.
    assert_eq!(values_under_every_pull(&e, "/r/*"), numbers(0..1000));
    assert_eq!(values_under_every_pull(&e, "//e/text()"), numbers(0..1000));
}

#[test]
fn limit_cuts_a_batch_midway() {
    // A consumer that stops after `limit` rows (the server's LIMIT, the
    // shell's .limit) must see exactly the first `limit` tuples of the
    // full sequence, even when the limit lands inside a batch.
    let mut xml = String::from("<r>");
    for i in 0..600 {
        xml.push_str(&format!("<e>{i}</e>"));
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    for limit in [1, 10, BATCH_SIZE - 1, BATCH_SIZE + 1, 599] {
        let mut stream = e.stream(DocId(0), "//e").unwrap();
        let mut out = Vec::new();
        while out.len() < limit {
            let want = limit - out.len();
            let n = stream.next_batch(&mut out, want).unwrap();
            if n == 0 {
                break;
            }
        }
        assert_eq!(
            e.string_values(&out).unwrap(),
            numbers(0..limit),
            "limit {limit}"
        );
        // The stream is still usable past the cut.
        let mut after = Vec::new();
        assert_eq!(
            stream.next_batch(&mut after, 1).unwrap(),
            1,
            "more behind the cut"
        );
        assert_eq!(
            e.string_values(&after).unwrap(),
            numbers(limit..limit + 1),
            "tuple after the cut at {limit}"
        );
    }
}

#[test]
fn predicate_inner_path_crosses_batch_boundaries() {
    // Predicates re-anchor their inner context path at every tuple under
    // test (paper §V-B). With more tuples than one batch holds, inner
    // paths run for tuples on both sides of each boundary.
    let total = 2 * BATCH_SIZE + 37;
    let mut xml = String::from("<r>");
    for i in 0..total {
        if i % 3 == 0 {
            xml.push_str(&format!("<p><x/><v>{i}</v></p>"));
        } else {
            xml.push_str(&format!("<p><v>{i}</v></p>"));
        }
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    let kept = numbers((0..total).filter(|i| i % 3 == 0));
    let dropped = numbers((0..total).filter(|i| i % 3 != 0));
    assert_eq!(values_under_every_pull(&e, "//p[x]"), kept);
    assert_eq!(values_under_every_pull(&e, "//p[x]/v"), kept);
    assert_eq!(values_under_every_pull(&e, "//p[not(x)]"), dropped);
    // A two-step inner path takes the cursor machinery, not the
    // index-only existence probe.
    assert_eq!(values_under_every_pull(&e, "//r[p/x]/p[x]/v"), kept);
}

#[test]
fn contexts_pulled_by_the_batch_keep_the_sequence() {
    // A step over many small context groups: one pull spans several
    // contexts, and a context group is cut by every small pull size.
    let mut xml = String::from("<r>");
    let mut n = 0;
    for g in 0..300 {
        xml.push_str("<g>");
        for _ in 0..(g % 4) {
            xml.push_str(&format!("<v>{n}</v>"));
            n += 1;
        }
        xml.push_str("</g>");
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    assert_eq!(values_under_every_pull(&e, "//g/v"), numbers(0..n));
    assert_eq!(values_under_every_pull(&e, "//g/*"), numbers(0..n));
    assert_eq!(values_under_every_pull(&e, "/r/g/v/text()"), numbers(0..n));
    // Predicate groups are materialized per context and copied out in
    // chunks: the second `v` of every group that has one.
    let seconds = values_under_every_pull(&e, "//g/v[2]");
    assert_eq!(seconds.len(), 300 / 4 * 2);
}

#[test]
fn interleaved_single_and_batch_pulls_preserve_order() {
    // Mixing one-tuple and batch pulls on one stream must not reorder,
    // duplicate, or drop tuples.
    let mut xml = String::from("<r>");
    for i in 0..700 {
        xml.push_str(&format!("<e>{i}</e>"));
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    let mut stream = e.stream(DocId(0), "//e").unwrap();
    let mut out = Vec::new();
    // 3 single pulls, then a batch, then single again, then drain.
    for _ in 0..3 {
        assert_eq!(stream.next_batch(&mut out, 1).unwrap(), 1);
    }
    stream.next_batch(&mut out, 10).unwrap();
    assert_eq!(stream.next_batch(&mut out, 1).unwrap(), 1);
    while stream.next_batch(&mut out, BATCH_SIZE).unwrap() > 0 {}
    assert_eq!(e.string_values(&out).unwrap(), numbers(0..700));
}

#[test]
fn unions_and_value_steps_under_every_pull() {
    let mut xml = String::from("<r>");
    for i in 0..400 {
        xml.push_str(&format!("<a n='{i}'>{}</a><b>{i}</b>", i % 10));
    }
    xml.push_str("</r>");
    let e = engine_from(&xml);
    // The union streams its left side, then its right (document order
    // is the materializing API's job).
    let mut union = numbers((0..400).map(|i| i % 10));
    union.extend(numbers(0..400));
    let reference = drain(&e, "//a | //b", usize::MAX);
    for max in PULLS {
        assert_eq!(drain(&e, "//a | //b", max), reference, "union: max {max}");
    }
    assert_eq!(e.string_values(&reference).unwrap(), union);
    assert_eq!(e.query("//a | //b").unwrap().len(), 800);
    assert_eq!(values_under_every_pull(&e, "//a[.='5']"), vec!["5"; 40]);
    assert_eq!(values_under_every_pull(&e, "//a[@n='37']"), vec!["7"]);
    assert_eq!(
        values_under_every_pull(&e, "//b[. > 395]"),
        numbers(396..400)
    );
}
