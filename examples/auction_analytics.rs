//! Auction analytics: a realistic workload over a generated XMark
//! auction site — the use case the paper's introduction motivates
//! (structural queries over large XML data), including live updates with
//! always-fresh statistics.
//!
//! ```sh
//! cargo run --release --example auction_analytics
//! ```

use vamana::core::UpdateOp;
use vamana::xmark::{generate_string, XmarkConfig};
use vamana::{DocId, Engine, MassStore, Value};

fn num(v: Value) -> f64 {
    match v {
        Value::Num(n) => n,
        other => panic!("expected number, got {other:?}"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = XmarkConfig::with_scale(0.02);
    let xml = generate_string(&config);
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml)?;
    let mut engine = Engine::new(store);
    let d = DocId(0);

    println!("== auction site report ==");
    println!(
        "persons:          {}",
        num(engine.evaluate(d, "count(//person)")?)
    );
    println!(
        "open auctions:    {}",
        num(engine.evaluate(d, "count(//open_auction)")?)
    );
    println!(
        "closed auctions:  {}",
        num(engine.evaluate(d, "count(//closed_auction)")?)
    );
    println!(
        "items:            {}",
        num(engine.evaluate(d, "count(//item)")?)
    );
    println!(
        "gross closed-auction volume: {:.2}",
        num(engine.evaluate(d, "sum(//closed_auction/price)")?)
    );

    // Who watches the most auctions?
    let watchers = engine.query_doc(d, "//person[count(watches/watch) >= 3]/name")?;
    println!("\npersons watching ≥3 auctions: {}", watchers.len());
    for name in engine.string_values(&watchers)?.iter().take(5) {
        println!("  {name}");
    }

    // Vermont residents (Q5's shape) and their email addresses.
    let vermonters = engine.query_doc(
        d,
        "//province[text()='Vermont']/ancestor::person/emailaddress",
    )?;
    println!("\nVermont residents: {}", vermonters.len());
    for email in engine.string_values(&vermonters)?.iter().take(5) {
        println!("  {email}");
    }

    // Expensive closed auctions via a range predicate.
    let pricey = engine.query_doc(d, "//closed_auction[price > 450]")?;
    println!("\nclosed auctions above 450: {}", pricey.len());

    // Update the store: register a new person, then show the statistics
    // (and therefore the optimizer's costs) reflect it immediately —
    // the paper's no-histogram freshness property.
    let person_name = engine.store().name_id("person").expect("persons exist");
    let before = engine.store().count_elements(person_name);
    let insert = UpdateOp::Insert {
        target: "//people".into(),
        fragment: "<person><name>Freshly Inserted</name></person>".into(),
    };
    engine.apply_update(d, &insert)?;
    let after = engine.store().count_elements(person_name);
    println!("\nCOUNT(person): {before} -> {after} (no ANALYZE required)");
    let found = engine.query_doc(d, "//person[name='Freshly Inserted']")?;
    assert_eq!((after, found.len()), (before + 1, 1), "the insert is seen");
    println!("query finds the new person");
    Ok(())
}
