//! `EXPLAIN ANALYZE` rendering: golden output, run stability, and
//! instrumentation hygiene (no drift when disabled, no profile
//! carry-over between queries).

use vamana_core::{DocId, Engine, EngineOptions, MassStore};

/// ~3600 elements; `engine` forces every eligible scan out.
fn big_doc() -> String {
    let mut xml = String::from("<site>");
    for s in 0..12 {
        xml.push_str(&format!("<section id='s{s}'>"));
        for i in 0..100 {
            xml.push_str(&format!(
                "<item><name>n{s}_{i}</name><price>{}</price></item>",
                i % 17
            ));
        }
        xml.push_str("</section>");
    }
    xml.push_str("</site>");
    xml
}

fn engine(workers: usize) -> Engine {
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &big_doc()).unwrap();
    Engine::with_options(
        store,
        EngineOptions {
            parallel_workers: workers,
            parallel_force: true,
            // A repeated query is analyzed again, not read from a view.
            view_admit_after: u32::MAX,
            ..Default::default()
        },
    )
}

fn small_engine() -> Engine {
    let mut store = MassStore::open_memory();
    store
        .load_xml(
            "doc",
            "<site><person id='p0'><name>Yung Flach</name></person>\
             <person id='p1'><name>Someone Else</name></person></site>",
        )
        .unwrap();
    Engine::new(store)
}

/// The full `.analyze` rendering, pinned: estimate cards, actual rows,
/// q-errors, and the misestimation summary. This is the golden test for
/// the text surface — if it moves, the CLI and server output move too.
#[test]
fn golden_analyze_render() {
    let engine = small_engine();
    let analysis = engine.analyze_doc(DocId(0), "//person/name").unwrap();
    let expected = "\
optimized plan (Σ tuple volume 12, 0 rules applied), 2 rows:
R0  [IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)  order: by construction
  └─ φ3 child::name  [COUNT=2 IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)
    └─ φ2 descendant::person  [COUNT=2 IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)
misestimations: none above ×1.05
";
    assert_eq!(analysis.render(), expected);

    // An exist-predicate answered by the index-only probe reports the
    // actuals its step's cursor would have: one hit per tuple kept.
    for (xpath, step, tested) in [
        ("//person[name]", "descendant::person", "child::name"),
        ("//person[@id]", "descendant::person", "attribute::id"),
        (
            "//name[parent::person]",
            "descendant::name",
            "parent::person",
        ),
    ] {
        let card = "[COUNT=2 IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)";
        let expected = format!(
            "\
optimized plan (Σ tuple volume 16, 0 rules applied), 2 rows:
R0  [IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)  order: by construction
  └─ φ4 {step}  {card}
    ⟨pred⟩ ξ3  [IN=2 OUT=2 δ=1.000] est=2 act=2 (err ×1.0)
      └─ φ2 {tested}  {card}
misestimations: none above ×1.05
"
        );
        let analysis = engine.analyze_doc(DocId(0), xpath).unwrap();
        assert_eq!(analysis.render(), expected, "{xpath}");
    }
}

/// `Analysis::render` is run stable: serial and fanned-out runs produce
/// byte-identical text (actual rows are the same either way; the varying
/// counters are confined to the JSON/profile surfaces).
#[test]
fn render_is_identical_serial_and_parallel() {
    let mut e = engine(4);
    for xpath in ["/site//*", "//item/*", "//item[price='3']/name"] {
        e.options_mut().parallel_workers = 1;
        let serial = e.analyze_doc(DocId(0), xpath).unwrap();
        e.options_mut().parallel_workers = 4;
        let parallel = e.analyze_doc(DocId(0), xpath).unwrap();
        assert_eq!(
            serial.render(),
            parallel.render(),
            "{xpath}: serial vs parallel"
        );
        if xpath == "/site//*" {
            assert!(
                parallel.profile.morsels > 0,
                "{xpath}: the scan did not fan out, stability untested"
            );
        }
    }
}

/// The parallel gate leaves a line in the trace at plan time (eligible,
/// or why not) and, for an eligible plan, one more when it has run: what
/// the executor saw and priced. `render()` stays run stable — neither
/// line is part of it.
#[test]
fn parallel_gate_is_traced_at_plan_time_and_at_run_time() {
    let e = engine(4);
    let named = e.analyze_doc(DocId(0), "//section/item").unwrap();
    let trace = named.opt_trace.render();
    assert!(
        trace.contains("parallel: ✗ rejected (name and kind tests stream from the index)"),
        "{trace}"
    );
    assert!(!trace.contains("parallel at run time"), "{trace}");

    let scan = e.analyze_doc(DocId(0), "//item/*").unwrap();
    let trace = scan.opt_trace.render();
    assert!(trace.contains("parallel: COUNT 3613 ✓ eligible"), "{trace}");
    assert!(
        trace.contains("parallel at run time: contexts=1200 pages="),
        "{trace}"
    );
    assert!(trace.contains("degree=4 morsels=8 ✓ fanned out (forced)"));
    let json = scan.render_json();
    assert!(json.contains("{\"event\":\"parallel\",\"estimated\":3613,\"eligible\":true"));
    assert!(json.contains("\"event\":\"parallel-run\",\"contexts\":1200,"));
    assert!(json.contains("\"degree\":4,\"morsels\":8,\"fanned_out\":true"));
    assert!(!scan.render().contains("parallel"));
}

/// Repeated ANALYZE of the same query yields identical actuals, and
/// stats-disabled runs in between record nowhere (each analysis carries
/// its own counter tree; the plain query path has none at all).
#[test]
fn repeated_analyze_has_no_counter_drift() {
    let e = engine(2);
    let first = e.analyze_doc(DocId(0), "//item/name").unwrap();
    for _ in 0..3 {
        e.query_doc(DocId(0), "//item/name").unwrap();
    }
    let second = e.analyze_doc(DocId(0), "//item/name").unwrap();
    // Everything but wall time is deterministic run to run.
    let stable = |a: &vamana_core::ExecStatsSnapshot| -> Vec<(u64, u64, u64, u64)> {
        a.ops
            .iter()
            .map(|o| (o.invocations, o.rows, o.probes, o.pins))
            .collect()
    };
    assert_eq!(stable(&first.actuals), stable(&second.actuals));
    assert_eq!(first.render(), second.render());
}

/// Profile counters are per-query deltas: a big parallel query followed
/// by a tiny serial one on the same engine must not leak morsel or
/// batch-pin counts into the second profile.
#[test]
fn profile_counters_reset_between_queries() {
    let e = engine(4);
    let (_, big) = e.query_doc_profiled(DocId(0), "/site//*").unwrap();
    assert!(big.morsels > 0, "big scan should fan out");
    // `//section` is a name test: answered from the index, never split.
    let (rows, small) = e.query_doc_profiled(DocId(0), "//section").unwrap();
    assert_eq!(rows.len(), 12);
    assert_eq!(small.morsels, 0, "morsels leaked into the serial query");
    assert_eq!(small.worker_batches, 0, "batches leaked");
    assert_eq!(small.merge_stalls, 0, "stalls leaked");
}

/// Where a request's time went covers the sort: EXPLAIN's root line says
/// whether the plan emits in document order, and ANALYZE adds what the
/// run did about it — nothing, or a sort whose rows, duplicates and time
/// are a line of their own, in the text trace and in the JSON.
#[test]
fn order_is_on_the_root_line_and_the_sort_is_a_line_of_its_own() {
    use vamana_core::OptEvent;
    // `a` inside `a`: the contexts of `//a/b` and `//a//b` nest.
    let mut store = MassStore::open_memory();
    store
        .load_xml(
            "doc",
            "<r><a><b/><a><b/><b/></a><b/></a><a><b/></a><c><b/></c></r>",
        )
        .unwrap();
    let engine = Engine::with_options(
        store,
        EngineOptions {
            view_admit_after: u32::MAX,
            ..Default::default()
        },
    );
    let order_of = |xpath: &str| {
        let analysis = engine.analyze_doc(DocId(0), xpath).unwrap();
        let verdict = analysis
            .opt_trace
            .events
            .iter()
            .find_map(|e| match e {
                OptEvent::OrderRun(v) => Some(*v),
                _ => None,
            })
            .unwrap_or_else(|| panic!("{xpath}: no order-run event"));
        (analysis, verdict)
    };

    // In order by construction, and the witness holds: no sort.
    let (analysis, verdict) = order_of("/r/a/b");
    assert!(analysis
        .render()
        .lines()
        .nth(1)
        .unwrap()
        .ends_with("order: by construction"));
    assert!(verdict.by_construction && !verdict.witness_tripped && !verdict.sorted());
    assert_eq!((verdict.sorted_rows, verdict.duplicates), (0, 0));
    let trace = analysis.opt_trace.render();
    assert!(
        trace.contains("order at run time: by construction, witness held — no sort"),
        "{trace}"
    );
    let json = analysis.render_json();
    assert!(
        json.contains(
            "{\"event\":\"order-run\",\"by_construction\":true,\"witness_tripped\":false,\
             \"sorted\":false,\"sorted_rows\":0,\"duplicates\":0,"
        ),
        "{json}"
    );

    // Same promise, but the contexts nest: the witness trips, the run
    // sorts, and the duplicates it dropped are counted.
    let (analysis, verdict) = order_of("//a//b");
    assert!(analysis.render().contains("order: by construction"));
    assert!(verdict.by_construction && verdict.witness_tripped && verdict.sorted());
    assert_eq!(
        (analysis.rows, verdict.sorted_rows, verdict.duplicates),
        (5, 7, 2)
    );
    let trace = analysis.opt_trace.render();
    assert!(
        trace.contains("order at run time: sorted 7 row(s), 2 duplicate(s) dropped, in "),
        "{trace}"
    );
    assert!(trace.contains("(witness tripped: the output step's contexts nest)"));
    assert!(analysis.render_json().contains(
        "\"witness_tripped\":true,\"sorted\":true,\"sorted_rows\":7,\"duplicates\":2,\"sort_nanos\":"
    ));

    // A union promises nothing: sorted at root, no witness asked.
    let (analysis, verdict) = order_of("//a/b | //b");
    assert!(analysis
        .render()
        .lines()
        .nth(1)
        .unwrap()
        .ends_with("order: sorted at root"));
    assert!(!verdict.by_construction && !verdict.witness_tripped && verdict.sorted());
    assert_eq!(
        (analysis.rows, verdict.sorted_rows, verdict.duplicates),
        (6, 11, 5)
    );
    assert!(analysis
        .opt_trace
        .render()
        .contains("(the plan promises no order)"));

    // EXPLAIN says it of both plans, before anything runs.
    let explain = engine
        .explain(DocId(0), "//b/following-sibling::b")
        .unwrap();
    assert!(explain
        .default_plan
        .lines()
        .next()
        .unwrap()
        .ends_with("order: sorted at root"));
    assert!(explain
        .optimized_plan
        .lines()
        .next()
        .unwrap()
        .ends_with("order: sorted at root"));
    let explain = engine.explain(DocId(0), "//a/b").unwrap();
    assert!(explain
        .optimized_plan
        .lines()
        .next()
        .unwrap()
        .ends_with("order: by construction"));
}
