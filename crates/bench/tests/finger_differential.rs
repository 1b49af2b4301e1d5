//! Differential correctness of the index finger probes on the plans a
//! finger is *bad* for: a reverse-axis step feeding a forward one hands
//! the forward step its contexts out of document order and with
//! duplicates, so each probe starts from a finger the last one left
//! somewhere else. The results must still be the DOM oracle's, the same
//! tuple sequence under every pull size, serial and fanned out — and
//! stay so while the posting lists under the probes are edited.

use vamana_baseline::dom::DomEngine;
use vamana_baseline::XPathEngine;
use vamana_bench::{drain_stream, drain_stream_set, vamana_engine, PULL_SIZES};
use vamana_core::exec::BATCH_SIZE;
use vamana_core::{DocId, Engine, UpdateOp};
use vamana_xmark::scale::config_for_megabytes;

/// Reverse step → forward step (contexts repeat and jump back), with
/// and without exist-predicates probing the same lists.
const OUT_OF_ORDER: [&str; 7] = [
    "//watch/ancestor::person/watches/watch",
    "//bidder/preceding-sibling::bidder/following-sibling::bidder/increase",
    "//watch/ancestor::person[watches/watch]/name",
    "//increase/parent::bidder/preceding-sibling::bidder[increase]/following-sibling::bidder",
    "//itemref/following-sibling::price/parent::*/itemref",
    "//text()/parent::name/parent::person[address]/watches/watch",
    "//province/ancestor::person/descendant::watch/parent::watches[parent::person[name]]",
];

/// Queries that probe the names the updates below insert and delete.
const PROBES: [&str; 5] = [
    "//watches/watch/ancestor::person",
    "//watch/ancestor::person/watches/watch",
    "//person[watches/watch]/name",
    "//watches[parent::person[name]]/watch",
    "//watch/parent::watches/preceding-sibling::name",
];

fn identities(engine: &Engine, xpath: &str) -> Vec<vamana_baseline::NodeIdentity> {
    let rows = engine.query(xpath).expect(xpath);
    let names = engine.names_of(&rows).expect(xpath);
    let values = engine.string_values(&rows).expect(xpath);
    names
        .into_iter()
        .zip(values)
        .map(|(name, value)| vamana_baseline::NodeIdentity { name, value })
        .collect()
}

/// `xpath` equals the oracle as a set, and is one tuple sequence
/// whatever the pull size.
fn check(engine: &Engine, dom: &DomEngine, xpath: &str, what: &str) {
    assert_eq!(
        identities(engine, xpath),
        dom.identities(xpath).expect(xpath),
        "{xpath} ({what}): vamana != DOM oracle"
    );
    let reference = drain_stream(engine, xpath, usize::MAX);
    for max in PULL_SIZES {
        assert_eq!(
            drain_stream(engine, xpath, max),
            reference,
            "{xpath} ({what}): pulled by {max}"
        );
    }
    assert_eq!(
        drain_stream_set(engine, xpath, BATCH_SIZE),
        engine.query(xpath).expect(xpath),
        "{xpath} ({what})"
    );
}

#[test]
fn out_of_order_and_duplicate_contexts_agree_with_the_dom() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.4));
    let dom = DomEngine::from_xml(&xml).unwrap();
    for optimize in [false, true] {
        let mut engine = vamana_engine(&xml, optimize);
        for (workers, force) in [(1, false), (2, true)] {
            let options = engine.options_mut();
            options.parallel_workers = workers;
            options.parallel_force = force;
            for xpath in OUT_OF_ORDER {
                let what = format!("optimize={optimize}, workers={workers}");
                assert!(
                    !dom.identities(xpath).unwrap().is_empty(),
                    "{xpath}: oracle returned nothing"
                );
                check(&engine, &dom, xpath, &what);
            }
        }
    }
}

/// The document as the store holds it now, for the oracle to re-parse.
fn exported(engine: &Engine) -> String {
    let store = engine.store();
    vamana_mass::export::export_subtree_xml(store, &store.documents()[0].doc_key).unwrap()
}

#[test]
fn probes_stay_correct_while_their_posting_lists_are_edited() {
    let xml = vamana_xmark::generate_string(&config_for_megabytes(0.1));
    let mut engine = vamana_engine(&xml, true);
    let doc = DocId(0);
    let people = engine.query("//person").unwrap().len();
    assert!(people >= 20, "only {people} people");
    // Inserts land at the front, the middle and the back of the `person`,
    // `watches` and `watch` lists; deletes take keys out of the same
    // places, first and last key included.
    let targets = [0, people / 2, people - 1, 1, people / 3];
    let mut round = 0;
    let mut step = |engine: &mut Engine, op: UpdateOp| {
        let outcome = engine.apply_update(doc, &op).unwrap();
        assert!(outcome.matched > 0, "{op:?} matched nothing");
        let dom = DomEngine::from_xml(&exported(engine)).unwrap();
        for xpath in PROBES {
            check(engine, &dom, xpath, &format!("after update {round}"));
        }
        round += 1;
    };
    for person in targets {
        step(
            &mut engine,
            UpdateOp::Insert {
                target: format!("//person[@id='person{person}']"),
                fragment: "<watches><watch open_auction='x'/><watch open_auction='y'/></watches>"
                    .into(),
            },
        );
    }
    step(
        &mut engine,
        UpdateOp::Insert {
            target: "/site/people".into(),
            fragment: "<person id='late'><name>Late</name><watches><watch/></watches></person>"
                .into(),
        },
    );
    for target in [
        "//person[@id='person0']/watches".to_string(),
        format!("//person[@id='person{}']", people - 1),
        "//person[@id='late']/watches/watch".to_string(),
        "//watches[watch/@open_auction='x']".to_string(),
    ] {
        step(&mut engine, UpdateOp::Delete { target });
    }
}
