//! Persistence: build a file-backed MASS store, checkpoint it, reopen it
//! in a second "session", and keep querying — including after updates.
//!
//! ```sh
//! cargo run --release --example persistent_store
//! ```

use vamana::core::UpdateOp;
use vamana::xmark::{generate_string, XmarkConfig};
use vamana::{DocId, Engine, MassStore};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("vamana-persistent-example");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("auction.mass");

    // Session 1: create, load, checkpoint.
    {
        let mut store = MassStore::create_file(&path, 512)?;
        let xml = generate_string(&XmarkConfig::with_scale(0.01));
        store.load_xml("auction.xml", &xml)?;
        store.checkpoint()?;
        let stats = store.stats();
        println!(
            "session 1: loaded {} tuples onto {} pages ({} distinct names), checkpointed",
            stats.tuples, stats.pages, stats.distinct_names
        );
    } // store dropped — only the files remain

    // Session 2: reopen and query.
    {
        let store = MassStore::open_file(&path, 512)?;
        println!(
            "session 2: recovered {} tuples / {} documents from disk",
            store.stats().tuples,
            store.documents().len()
        );
        let mut engine = Engine::new(store);
        let vermonters = engine.query("//province[text()='Vermont']/ancestor::person")?;
        println!("Vermont residents found after reopen: {}", vermonters.len());

        // Update, checkpoint again.
        let insert = UpdateOp::Insert {
            target: "//people".into(),
            fragment: "<person><name>Persisted Person</name></person>".into(),
        };
        engine.apply_update(DocId(0), &insert)?;
        engine.checkpoint()?;
        println!("session 2: inserted one person and checkpointed");
    }

    // Session 3: the update survived.
    {
        let store = MassStore::open_file(&path, 512)?;
        let engine = Engine::new(store);
        let found = engine.query("//person[name='Persisted Person']")?;
        assert_eq!(found.len(), 1, "the update survives the reopen");
        println!("session 3: update visible after reopen");
        let stats = engine.store().stats();
        println!(
            "session 3: buffer pool read {} pages to answer (of {} total)",
            stats.buffer.hits + stats.buffer.misses,
            stats.pages
        );
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
