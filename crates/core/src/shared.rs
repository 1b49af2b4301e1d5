//! Shared-engine concurrency: many readers, one writer.
//!
//! [`Engine`]'s API already splits naturally — every query path takes
//! `&self`, only document loads and option changes take `&mut self` — so
//! a plain [`RwLock`] turns one engine into a concurrent query service:
//! queries run in parallel under read locks while loads and updates take
//! the write lock, and a write to a document (by bumping its generation)
//! drops the answers the query cache kept for it that the write can
//! change, and has its plans checked ([`crate::views`]). `vamana-server`'s connection threads,
//! the replica's apply loop and the shell all share an engine this way,
//! and the write lock is the only thing that keeps a writer from readers.

use crate::engine::Engine;
use crate::error::Result;
use std::sync::atomic::Ordering;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use vamana_mass::DocId;

/// An [`Engine`] behind a [`RwLock`]: clone the surrounding `Arc`, hand
/// it to any number of threads, and call [`read`](SharedEngine::read) on
/// the query path and [`write`](SharedEngine::write) on the load path.
pub struct SharedEngine {
    inner: RwLock<Engine>,
}

impl SharedEngine {
    /// Wraps an engine for shared use.
    pub fn new(engine: Engine) -> Self {
        SharedEngine {
            inner: RwLock::new(engine),
        }
    }

    /// Read access for the query path: any number of concurrent holders.
    ///
    /// Lock poisoning is ignored: the engine's `&self` methods never
    /// leave it in a broken state, and queries are independent, so a
    /// panicked holder should not take the service down.
    pub fn read(&self) -> RwLockReadGuard<'_, Engine> {
        self.inner.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Write access for the load/update path: exclusive. The wait for
    /// readers to leave is added to [`Engine::writer_wait_total`].
    pub fn write(&self) -> RwLockWriteGuard<'_, Engine> {
        self.write_waited().0
    }

    /// [`SharedEngine::write`], and how long it waited: the one
    /// measurement of a writer's wait, behind the update reply's
    /// `writer_wait=` as well as the total.
    pub fn write_waited(&self) -> (RwLockWriteGuard<'_, Engine>, Duration) {
        let asked = Instant::now();
        let engine = self.inner.write().unwrap_or_else(|p| p.into_inner());
        let waited = asked.elapsed();
        engine
            .writer_wait_us
            .fetch_add(waited.as_micros() as u64, Ordering::Relaxed);
        (engine, waited)
    }

    /// Convenience: load a document under the write lock.
    pub fn load_xml(&self, name: &str, xml: &str) -> Result<DocId> {
        self.write().load_xml(name, xml)
    }

    /// Store generation at this instant (see
    /// [`MassStore::generation`](vamana_mass::MassStore::generation));
    /// taken under the read lock.
    pub fn generation(&self) -> u64 {
        self.read().store().generation()
    }

    /// Consumes the wrapper, returning the engine.
    pub fn into_inner(self) -> Engine {
        self.inner.into_inner().unwrap_or_else(|p| p.into_inner())
    }
}

impl From<Engine> for SharedEngine {
    fn from(engine: Engine) -> Self {
        SharedEngine::new(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use vamana_mass::MassStore;

    fn shared() -> Arc<SharedEngine> {
        let mut store = MassStore::open_memory();
        store
            .load_xml("doc", "<r><a>1</a><a>2</a><b>3</b></r>")
            .unwrap();
        Arc::new(SharedEngine::new(Engine::new(store)))
    }

    #[test]
    fn readers_run_concurrently_with_consistent_results() {
        let shared = shared();
        let expected = shared.read().query("//a").unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let shared = Arc::clone(&shared);
                let expected = expected.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(shared.read().query("//a").unwrap(), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn writer_load_is_visible_to_readers_and_bumps_generation() {
        let shared = shared();
        let g0 = shared.generation();
        shared.load_xml("second", "<r><a>4</a></r>").unwrap();
        assert!(shared.generation() > g0, "load must bump the generation");
        assert_eq!(shared.read().query("//a").unwrap().len(), 3);
    }

    #[test]
    fn every_write_adds_its_wait_to_the_total() {
        let shared = shared();
        let reader = shared.read();
        let waited = std::thread::scope(|scope| {
            let writer = scope.spawn(|| shared.write_waited().1);
            std::thread::sleep(Duration::from_millis(5));
            drop(reader);
            writer.join().unwrap()
        });
        let (engine, again) = shared.write_waited();
        let us = |d: Duration| d.as_micros() as u64;
        assert_eq!(
            engine.writer_wait_total().as_micros() as u64,
            us(waited) + us(again)
        );
    }
}
