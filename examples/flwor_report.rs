//! FLWOR reporting: run XQuery-lite expressions over a generated XMark
//! auction site — the "outer expression language" role the paper assigns
//! VAMANA in §V-B/§VII, where location-step operators receive their
//! context nodes from another expression.
//!
//! ```sh
//! cargo run --release --example flwor_report
//! ```

use vamana::xmark::{generate_string, XmarkConfig};
use vamana::xquery::XQueryEngine;
use vamana::{Engine, MassStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let xml = generate_string(&XmarkConfig::with_scale(0.01));
    let mut store = MassStore::open_memory();
    store.load_xml("auction.xml", &xml)?;
    let engine = Engine::new(store);
    let xq = XQueryEngine::new(&engine);

    println!("== site summary ==");
    println!(
        "{}",
        xq.eval_to_xml(
            "<summary>{ count(//person) } persons, { count(//open_auction) } open auctions</summary>"
        )?
    );

    println!("\n== Vermont residents (alphabetical) ==");
    let report = xq.eval_to_xml(
        "for $p in //person \
         where $p/address/province = 'Vermont' \
         order by $p/name \
         return <resident id=\"x\">{ $p/name/text() }</resident>",
    )?;
    for line in report
        .split("</resident>")
        .filter(|s| !s.is_empty())
        .take(8)
    {
        println!("  {line}</resident>");
    }

    println!("\n== five most-watched-style pairing (value join via FLWOR) ==");
    let pairs = xq.eval(
        "for $w in //watches/watch \
         return $w",
    )?;
    println!("  watch references bound: {}", pairs.len());

    println!("\n== expensive closed auctions ==");
    let out = xq.eval_to_xml(
        "for $c in //closed_auction \
         where $c/price/text() > 480 \
         order by $c/price/text() descending \
         return <sale>{ $c/price/text() }</sale>",
    )?;
    println!("  {out}");
    Ok(())
}
