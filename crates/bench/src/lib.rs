//! Shared harness for the VAMANA experiments.
//!
//! The five evaluation queries (paper §VIII), engine construction for a
//! given document, and timing helpers are used both by the `figures`
//! binary (which regenerates the paper's charts as text/CSV) and by the
//! Criterion micro-benches.

use std::time::{Duration, Instant};
use vamana_baseline::dom::{DomEngine, DomProfile};
use vamana_baseline::join::StructuralJoinEngine;
use vamana_baseline::{BaselineError, XPathEngine};
use vamana_core::{Engine, MassStore};
use vamana_xmark::scale::config_for_megabytes;

/// The evaluation queries of §VIII, in paper order.
pub const QUERIES: &[(&str, &str)] = &[
    ("Q1", "//person/address"),
    ("Q2", "//watches/watch/ancestor::person"),
    ("Q3", "/descendant::name/parent::*/self::person/address"),
    ("Q4", "//itemref/following-sibling::price/parent::*"),
    ("Q5", "//province[text()='Vermont']/ancestor::person"),
];

/// Structural scan queries.
///
/// Unlike Q1–Q5, whose named steps are answered mostly from the name
/// index (index-only `NameList` streams), these use wildcard and kind
/// tests so every step walks clustered MASS pages — the path that
/// amortizes page pins and that parallel scans split. Modeled on XMark Q1/Q6:
/// child/descendant chains over the region and person subtrees.
pub const SCAN_QUERIES: &[(&str, &str)] = &[
    ("S1", "/site/regions//*"),
    ("S2", "/site/people//*"),
    ("S3", "//item/*"),
    ("S4", "/site/*/*"),
    ("S5", "//person//*"),
];

/// Whole-document queries, for the differential suites only (no timed
/// mix includes them). Each starts at the document node, which the DOM
/// oracle's `node()` test used to drop: `//*` came out one short and
/// `//site` empty, so no suite could carry them.
pub const ROOT_QUERIES: &[(&str, &str)] = &[("R1", "//*"), ("R2", "//site"), ("R3", "//node()")];

/// Pull sizes the differential suites drain streams under: the
/// tuple-at-a-time `max = 1`, sizes that cut pages and context groups,
/// one full batch, and drain-all.
pub const PULL_SIZES: [usize; 6] = [1, 2, 3, 7, 256, usize::MAX];

/// The tuple sequence of `xpath` on document 0, pulled `max` tuples at a
/// time, and the stream it came from, exhausted (checked to stay so).
fn drained<'e>(
    engine: &'e Engine,
    xpath: &str,
    max: usize,
) -> (Vec<vamana_core::NodeEntry>, vamana_core::QueryStream<'e>) {
    let mut stream = engine.stream(vamana_core::DocId(0), xpath).expect(xpath);
    let mut out = Vec::new();
    while stream.next_batch(&mut out, max).expect(xpath) == max {}
    assert_eq!(stream.next_batch(&mut out, max).expect(xpath), 0, "{xpath}");
    (out, stream)
}

/// The pipeline-order tuple sequence of `xpath` on document 0, pulled
/// `max` tuples at a time.
pub fn drain_stream(engine: &Engine, xpath: &str, max: usize) -> Vec<vamana_core::NodeEntry> {
    drained(engine, xpath, max).0
}

/// [`drain_stream`] as a node-set: document order, duplicates removed —
/// finished by the stream itself, which sorts only a sequence it does not
/// know to be one already ([`vamana_core::QueryStream::finish`]).
pub fn drain_stream_set(engine: &Engine, xpath: &str, max: usize) -> Vec<vamana_core::NodeEntry> {
    let (mut out, stream) = drained(engine, xpath, max);
    stream.finish(&mut out);
    out
}

/// Generates an XMark document of roughly `megabytes` MB (streamed —
/// no DOM arena is materialized).
pub fn document(megabytes: f64) -> String {
    let mut buf = Vec::new();
    vamana_xmark::generate_to(&config_for_megabytes(megabytes), &mut buf).expect("vec write");
    String::from_utf8(buf).expect("generator emits UTF-8")
}

/// Builds a MASS-backed VAMANA engine over `xml`.
pub fn vamana_engine(xml: &str, optimize: bool) -> Engine {
    // `VAMANA_FORMAT=v2` benches the compressed tier.
    let mut store = MassStore::open_memory();
    store
        .set_format(vamana_mass::StoreFormat::from_env())
        .expect("empty store accepts any format");
    store.load_xml("auction.xml", xml).expect("load");
    let mut engine = Engine::new(store);
    let options = engine.options_mut();
    options.optimize = optimize;
    // The paper's configurations have no result cache: a repeated run
    // times (and the differential suites compare against) the plan, never
    // a materialized view of its last result.
    options.view_admit_after = u32::MAX;
    engine
}

/// Adapter for the cross-engine interface.
pub struct VamanaBench {
    engine: Engine,
    label: &'static str,
}

impl VamanaBench {
    /// The optimized configuration ("VQP-OPT").
    pub fn optimized(xml: &str) -> Self {
        VamanaBench {
            engine: vamana_engine(xml, true),
            label: "VQP-OPT",
        }
    }

    /// The default-plan configuration ("VQP").
    pub fn default_plan(xml: &str) -> Self {
        VamanaBench {
            engine: vamana_engine(xml, false),
            label: "VQP",
        }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the wrapped engine (toggling execution options
    /// between benchmark configurations).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}

impl XPathEngine for VamanaBench {
    fn label(&self) -> &str {
        self.label
    }

    fn count(&self, xpath: &str) -> Result<usize, BaselineError> {
        self.engine
            .query(xpath)
            .map(|r| r.len())
            .map_err(|e| BaselineError::Unsupported(e.to_string()))
    }

    fn identities(&self, xpath: &str) -> Result<Vec<vamana_baseline::NodeIdentity>, BaselineError> {
        let r = self
            .engine
            .query(xpath)
            .map_err(|e| BaselineError::Unsupported(e.to_string()))?;
        let names = self
            .engine
            .names_of(&r)
            .map_err(|e| BaselineError::Unsupported(e.to_string()))?;
        let values = self
            .engine
            .string_values(&r)
            .map_err(|e| BaselineError::Unsupported(e.to_string()))?;
        Ok(names
            .into_iter()
            .zip(values)
            .map(|(name, value)| vamana_baseline::NodeIdentity { name, value })
            .collect())
    }
}

/// The full engine line-up for one document.
pub struct Lineup {
    /// VQP-OPT.
    pub vamana_opt: VamanaBench,
    /// VQP.
    pub vamana_default: VamanaBench,
    /// Jaxen-like DOM engine.
    pub dom_jaxen: DomEngine,
    /// Galax-like DOM engine (no sibling axes).
    pub dom_galax: DomEngine,
    /// eXist-like structural-join engine.
    pub join: StructuralJoinEngine,
}

impl Lineup {
    /// Builds every engine over the same document text.
    pub fn build(xml: &str) -> Self {
        Lineup {
            vamana_opt: VamanaBench::optimized(xml),
            vamana_default: VamanaBench::default_plan(xml),
            dom_jaxen: DomEngine::from_xml(xml).expect("dom"),
            dom_galax: DomEngine::from_xml_with_profile(xml, DomProfile::Galax).expect("dom"),
            join: StructuralJoinEngine::from_xml(xml).expect("join"),
        }
    }

    /// All engines in chart order.
    pub fn engines(&self) -> Vec<&dyn XPathEngine> {
        vec![
            &self.vamana_opt,
            &self.vamana_default,
            &self.dom_jaxen,
            &self.dom_galax,
            &self.join,
        ]
    }
}

/// Outcome of one measured query run.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// Completed: elapsed time and result size.
    Ok {
        /// Wall-clock execution time.
        time: Duration,
        /// Result-set cardinality.
        count: usize,
    },
    /// The engine rejected the query (axis/feature gap).
    Unsupported(String),
}

impl Outcome {
    /// Render for the text tables ("12.3ms" / "n/s").
    pub fn cell(&self) -> String {
        match self {
            Outcome::Ok { time, .. } => format!("{:.1?}", time),
            Outcome::Unsupported(_) => "n/s".to_string(),
        }
    }

    /// Seconds as float (CSV output); `None` when unsupported.
    pub fn seconds(&self) -> Option<f64> {
        match self {
            Outcome::Ok { time, .. } => Some(time.as_secs_f64()),
            Outcome::Unsupported(_) => None,
        }
    }
}

/// Runs `query` once on `engine`, timed.
pub fn run_once(engine: &dyn XPathEngine, query: &str) -> Outcome {
    let start = Instant::now();
    match engine.count(query) {
        Ok(count) => Outcome::Ok {
            time: start.elapsed(),
            count,
        },
        Err(e) => Outcome::Unsupported(e.to_string()),
    }
}

/// Runs `query` `warmup + runs` times, reporting the best measured run
/// (the paper reports CPU time of query execution, excluding load).
pub fn run_best(engine: &dyn XPathEngine, query: &str, warmup: usize, runs: usize) -> Outcome {
    for _ in 0..warmup {
        if let Outcome::Unsupported(e) = run_once(engine, query) {
            return Outcome::Unsupported(e);
        }
    }
    let mut best: Option<(Duration, usize)> = None;
    for _ in 0..runs.max(1) {
        match run_once(engine, query) {
            Outcome::Ok { time, count } => {
                if best.is_none_or(|(t, _)| time < t) {
                    best = Some((time, count));
                }
            }
            unsupported => return unsupported,
        }
    }
    let (time, count) = best.expect("at least one run");
    Outcome::Ok { time, count }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lineup_agrees_on_supported_queries() {
        let xml = document(0.3);
        let lineup = Lineup::build(&xml);
        for (label, query) in QUERIES {
            let reference = lineup
                .dom_jaxen
                .identities(query)
                .expect("oracle supports all");
            assert!(
                !reference.is_empty(),
                "{label} found nothing — generator broken?"
            );
            for engine in [
                &lineup.vamana_opt as &dyn XPathEngine,
                &lineup.vamana_default,
            ] {
                let got = engine.identities(query).expect("vamana supports all");
                assert_eq!(got, reference, "{label} mismatch on {}", engine.label());
            }
        }
    }

    #[test]
    fn feature_gaps_mirror_the_paper() {
        let xml = document(0.2);
        let lineup = Lineup::build(&xml);
        // Q4 uses following-sibling: Galax profile and eXist-like engine
        // must refuse it; everyone else answers.
        let q4 = QUERIES[3].1;
        assert!(matches!(
            run_once(&lineup.dom_galax, q4),
            Outcome::Unsupported(_)
        ));
        assert!(matches!(
            run_once(&lineup.join, q4),
            Outcome::Unsupported(_)
        ));
        assert!(matches!(
            run_once(&lineup.vamana_opt, q4),
            Outcome::Ok { .. }
        ));
        assert!(matches!(
            run_once(&lineup.dom_jaxen, q4),
            Outcome::Ok { .. }
        ));
    }

    #[test]
    fn join_engine_agrees_on_join_friendly_queries() {
        let xml = document(0.2);
        let lineup = Lineup::build(&xml);
        for q in [
            "//person/address",
            "//watches/watch/ancestor::person",
            "//province[text()='Vermont']/ancestor::person",
        ] {
            let reference = lineup.dom_jaxen.identities(q).unwrap();
            assert_eq!(lineup.join.identities(q).unwrap(), reference, "{q}");
        }
    }
}
