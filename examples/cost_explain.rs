//! Cost explanation: reproduce the paper's Figures 6–9 on a generated
//! XMark document — default plan vs optimized plan, annotated with the
//! live COUNT/TC/IN/OUT statistics the optimizer used.
//!
//! ```sh
//! cargo run --release --example cost_explain
//! ```

use vamana::xmark::{generate, XmarkConfig};
use vamana::{DocId, Engine, MassStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let doc = generate(&XmarkConfig::with_scale(0.02));
    let mut store = MassStore::open_memory();
    store.load_document("auction.xml", &doc)?;
    let engine = Engine::new(store);

    for (label, query) in [
        (
            "Q3 (paper §III Q1, Figs 5/6/8/11)",
            "/descendant::name/parent::*/self::person/address",
        ),
        (
            "Q2 (paper §III Q2, Figs 7/9)",
            "//name[text() = 'Yung Flach']/following-sibling::emailaddress",
        ),
        ("Q1 (evaluation)", "//person/address"),
        (
            "Q5 (evaluation)",
            "//province[text()='Vermont']/ancestor::person",
        ),
    ] {
        let explain = engine.explain(DocId(0), query)?;
        println!("==== {label}");
        println!("query: {query}\n");
        println!("{}", explain.render());
        let n = engine.query_doc(DocId(0), query)?.len();
        println!("result size: {n}\n");
    }
    Ok(())
}
