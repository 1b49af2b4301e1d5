//! Shared-engine concurrency: many readers, one writer.
//!
//! [`Engine`]'s API already splits naturally — every query path takes
//! `&self`, only document loads and option changes take `&mut self` — so
//! a plain [`RwLock`] turns one engine into a concurrent query service:
//! queries run in parallel under read locks while loads take the write
//! lock and (by bumping the store generation) invalidate any plans cached
//! against the old contents. `vamana-server` builds its worker pool on
//! this type.

use crate::engine::Engine;
use crate::error::Result;
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};
use vamana_mass::{BufferStats, DocId, NodeEntry};

/// Per-query execution counters: wall-clock time plus the buffer-pool
/// traffic observed while the query ran.
///
/// Buffer counters are *deltas of pool-wide totals* taken before and
/// after execution. Single-threaded they are exact; under concurrency
/// they attribute other queries' overlapping page traffic to this query,
/// so treat them as "pool activity during this query", not a precise
/// per-query charge (exact attribution would need per-thread counters
/// threaded through every operator).
#[derive(Debug, Clone, Default)]
pub struct QueryProfile {
    /// Wall-clock execution time (compile + optimize + execute).
    pub elapsed: Duration,
    /// Buffer-pool page hits observed during the query.
    pub buffer_hits: u64,
    /// Buffer-pool page misses (store reads) observed during the query.
    pub buffer_misses: u64,
    /// Pages pinned once by batched scans during the query.
    pub batch_pins: u64,
    /// Per-record pool entries batched scans avoided during the query.
    pub pins_saved: u64,
    /// Morsels dispatched to the scan pool during the query (zero when
    /// the query ran serially).
    pub morsels: u64,
    /// Batches produced by scan-pool workers during the query.
    pub worker_batches: u64,
    /// Times the ordered-merge consumer had to wait for the in-order
    /// morsel to produce a batch.
    pub merge_stalls: u64,
    /// Uncompressed (v1) page decodes during the query — data-page
    /// reads that missed the buffer pool.
    pub decodes_v1: u64,
    /// Front-coded (v2) page decodes during the query. Together with
    /// `decodes_v1` this is the storage tier's share of the misses.
    pub decodes_v2: u64,
    /// Result cardinality.
    pub rows: u64,
    /// Time a writer spent parked at the epoch gate waiting for pinned
    /// readers to drain ([`Engine::store_mut`]); always zero on the
    /// read-only profiled paths.
    pub writer_wait: Duration,
    /// Per-operator actuals of the run — populated only by
    /// `EXPLAIN ANALYZE` ([`crate::engine::Engine::analyze_doc`]);
    /// `None` on the plain profiled query paths, which record no
    /// per-operator counters at all.
    pub operators: Option<crate::exec::stats::ExecStatsSnapshot>,
}

struct BufferDelta {
    hits: u64,
    misses: u64,
    batch_pins: u64,
    pins_saved: u64,
    decodes_v1: u64,
    decodes_v2: u64,
}

fn delta(before: BufferStats, after: BufferStats) -> BufferDelta {
    BufferDelta {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        batch_pins: after.batch_pins.saturating_sub(before.batch_pins),
        pins_saved: after.pins_saved.saturating_sub(before.pins_saved),
        decodes_v1: after.decodes_v1.saturating_sub(before.decodes_v1),
        decodes_v2: after.decodes_v2.saturating_sub(before.decodes_v2),
    }
}

impl Engine {
    /// [`Engine::query_doc`] plus a [`QueryProfile`] of the run.
    pub fn query_doc_profiled(
        &self,
        doc: DocId,
        xpath: &str,
    ) -> Result<(Vec<NodeEntry>, QueryProfile)> {
        let before = self.store().buffer_pool().stats();
        let par_before = self.parallel_stats();
        let start = Instant::now();
        let rows = self.query_doc(doc, xpath)?;
        let elapsed = start.elapsed();
        let d = delta(before, self.store().buffer_pool().stats());
        let par = self.parallel_stats();
        let profile = QueryProfile {
            elapsed,
            buffer_hits: d.hits,
            buffer_misses: d.misses,
            batch_pins: d.batch_pins,
            pins_saved: d.pins_saved,
            morsels: par.morsels.saturating_sub(par_before.morsels),
            worker_batches: par.worker_batches.saturating_sub(par_before.worker_batches),
            merge_stalls: par.merge_stalls.saturating_sub(par_before.merge_stalls),
            decodes_v1: d.decodes_v1,
            decodes_v2: d.decodes_v2,
            rows: rows.len() as u64,
            writer_wait: Duration::ZERO,
            operators: None,
        };
        Ok((rows, profile))
    }
}

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

    /// Write access for the load/update path: exclusive.
    pub fn write(&self) -> RwLockWriteGuard<'_, Engine> {
        self.inner.write().unwrap_or_else(|p| p.into_inner())
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
    fn profiled_query_counts_time_rows_and_pages() {
        let shared = shared();
        let engine = shared.read();
        // `//a` alone is answered from the name index without touching
        // pages; the `.='1'` predicate forces string-value page reads.
        let (rows, profile) = engine.query_doc_profiled(DocId(0), "//a[.='1']").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(profile.rows, 1);
        assert!(profile.buffer_hits + profile.buffer_misses > 0);
    }
}
