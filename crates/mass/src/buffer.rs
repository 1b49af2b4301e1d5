//! Buffer pool: a sharded LRU cache of pages — each its disk image plus a
//! slot table, see [`crate::page`] — over a [`PageStore`].
//!
//! The pool is the unit of "I/O" in experiments: hits and misses are
//! counted so benchmarks can report how much of a document a query plan
//! actually touched — the paper's index-only plans read only a fraction of
//! the pages a scan would.
//!
//! Concurrency: the cache is split into [`SHARDS`] independent
//! mutex-protected shards selected by `page_id % SHARDS`, so concurrent
//! readers hitting different pages do not serialize on one lock (the
//! serving layer in `vamana-server` runs many queries against one pool).
//! Counters live inside their shard and are merged on read, which keeps
//! [`BufferStats`] exact under any interleaving. Only the backing
//! [`PageStore`] keeps a single lock: it is the simulated disk, touched
//! only on misses and writes.

use crate::compress::StoreFormat;
use crate::error::Result;
use crate::page::{Page, PageBuf};
use crate::pager::PageStore;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of independent LRU shards. A small power of two: enough to
/// spread contention across a worker pool without fragmenting capacity.
pub const SHARDS: usize = 8;

/// Buffer pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from the cache.
    pub hits: u64,
    /// Page requests that went to the backing store.
    pub misses: u64,
    /// Page images written back.
    pub writes: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Page pins under which a batched scan examined records (see
    /// [`crate::cursor::MassCursor::next_batch`]). A cursor holds its pin
    /// from one pull, and one context's range, to the next, so a page it
    /// walks across many contexts is one pin.
    pub batch_pins: u64,
    /// Per-record pool entries a batched scan avoided: records examined
    /// beyond the first under a single pin. `pins_saved / batch_pins` is
    /// the average amortization factor.
    pub pins_saved: u64,
    /// Misses that decoded an uncompressed (v1) page image.
    pub decodes_v1: u64,
    /// Misses that decoded a compressed (v2) page image.
    pub decodes_v2: u64,
    /// Page images written in the uncompressed format.
    pub writes_v1: u64,
    /// Page images written front-coded (v2).
    pub writes_v2: u64,
    /// V2 pages whose compressed image did not fit and were written
    /// uncompressed instead (the overflow rule).
    pub format_fallbacks: u64,
}

impl BufferStats {
    /// Hit ratio in `[0, 1]`; 0 when nothing was requested.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counts one page pin under which a scan examined `scanned` records
/// ([`BufferStats::batch_pins`], [`BufferStats::pins_saved`]); a pin that
/// examined nothing counts nothing.
fn count_pin(stats: &mut BufferStats, scanned: u64) {
    if scanned > 0 {
        stats.batch_pins += 1;
        stats.pins_saved += scanned - 1;
    }
}

#[derive(Default)]
struct Shard {
    /// page id → (page, last-used stamp). Stamps are updated in place on
    /// hits (O(1)); eviction scans for the minimum stamp, which is cheap
    /// because eviction only happens when the working set outgrows the
    /// shard.
    cache: HashMap<u32, (Arc<Page>, u64)>,
    clock: u64,
    stats: BufferStats,
}

/// Write-through sharded LRU buffer pool.
pub struct BufferPool {
    store: Mutex<Box<dyn PageStore>>,
    shards: [Mutex<Shard>; SHARDS],
    /// Per-shard page capacity (total capacity / SHARDS, at least 1).
    shard_capacity: usize,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &(self.shard_capacity * SHARDS))
            .field("shards", &SHARDS)
            .finish_non_exhaustive()
    }
}

/// Std mutexes poison on panic; the pool holds plain data, so a panicked
/// holder leaves nothing half-updated that the next holder could trip on.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl BufferPool {
    /// Default number of cached pages (8 MiB of 8 KiB pages).
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// Wraps `store` with a pool caching up to `capacity` pages.
    pub fn new(store: Box<dyn PageStore>, capacity: usize) -> Self {
        BufferPool {
            store: Mutex::new(store),
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_capacity: (capacity.max(1)).div_ceil(SHARDS),
        }
    }

    fn shard(&self, id: u32) -> &Mutex<Shard> {
        &self.shards[id as usize % SHARDS]
    }

    /// Fetches page `id`, reading it from the store on a miss.
    ///
    /// A miss is lock → read → decode → lock: the shard lock is dropped
    /// for the read and the decode and taken again to install the page
    /// and count the decode. Two readers racing on the same cold page may
    /// therefore both read and decode it; the second install wins, which
    /// is correct (pages are immutable snapshots) and keeps the counters
    /// honest about actual store reads.
    pub fn get(&self, id: u32) -> Result<Arc<Page>> {
        self.get_noting(id, 0)
    }

    /// [`BufferPool::get`] for a scan moving on to its next page: the
    /// pin it is leaving, under which it examined `scanned` records, is
    /// counted under the lock this request takes anyway — one shard lock
    /// per page pinned, not two. (The shard is the new page's; counters
    /// are only ever read summed.)
    pub(crate) fn get_noting(&self, id: u32, scanned: u64) -> Result<Arc<Page>> {
        {
            let mut shard = lock(self.shard(id));
            count_pin(&mut shard.stats, scanned);
            shard.clock += 1;
            let clock = shard.clock;
            if let Some((page, stamp)) = shard.cache.get_mut(&id) {
                *stamp = clock;
                let page = page.clone();
                shard.stats.hits += 1;
                return Ok(page);
            }
            shard.stats.misses += 1;
        }
        let image = lock(&self.store).read_page(id)?;
        let page = Arc::new(Page::decode(image, id)?);
        self.install(id, page.clone(), |stats| match page.format() {
            StoreFormat::V1 => stats.decodes_v1 += 1,
            StoreFormat::V2 => stats.decodes_v2 += 1,
        });
        Ok(page)
    }

    /// Caches `page` as the current image of `id`, evicting down to the
    /// shard's capacity; `count` updates the counters under the same lock.
    fn install(&self, id: u32, page: Arc<Page>, count: impl FnOnce(&mut BufferStats)) {
        let mut shard = lock(self.shard(id));
        count(&mut shard.stats);
        shard.clock += 1;
        let stamp = shard.clock;
        shard.cache.insert(id, (page, stamp));
        while shard.cache.len() > self.shard_capacity {
            // Evict the least-recently-used entry (linear scan — rare).
            let victim = shard
                .cache
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(id, _)| *id);
            match victim {
                Some(v) => {
                    shard.cache.remove(&v);
                    shard.stats.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Counts a scan's last pin, of page `id` — the one no later
    /// [`BufferPool::get_noting`] carries.
    pub(crate) fn note_pin(&self, id: u32, scanned: u64) {
        count_pin(&mut lock(self.shard(id)).stats, scanned);
    }

    /// Encodes `page`, writes the image through to the store and caches
    /// the read form built from that same image, returning the format
    /// actually written (a v2 page whose compressed image does not fit
    /// falls back to v1 — the overflow rule).
    pub fn put(&self, id: u32, page: &PageBuf) -> Result<StoreFormat> {
        let (image, written) = page.encode_with_format()?;
        lock(&self.store).write_page(id, &image)?;
        let cached = Arc::new(Page::decode(image, id)?);
        self.install(id, cached, |stats| {
            stats.writes += 1;
            match written {
                StoreFormat::V1 => stats.writes_v1 += 1,
                StoreFormat::V2 => stats.writes_v2 += 1,
            }
            if written != page.format() {
                stats.format_fallbacks += 1;
            }
        });
        Ok(written)
    }

    /// Allocates a new page id in the backing store.
    pub fn allocate(&self) -> Result<u32> {
        lock(&self.store).allocate()
    }

    /// Number of pages in the backing store.
    pub fn page_count(&self) -> u32 {
        lock(&self.store).page_count()
    }

    /// Appends to the blob heap.
    pub fn append_blob(&self, bytes: &[u8]) -> Result<u64> {
        lock(&self.store).append_blob(bytes)
    }

    /// Reads from the blob heap.
    pub fn read_blob(&self, offset: u64, len: u32) -> Result<Vec<u8>> {
        lock(&self.store).read_blob(offset, len)
    }

    /// Persists the catalog image.
    pub fn write_catalog(&self, bytes: &[u8]) -> Result<()> {
        lock(&self.store).write_catalog(bytes)
    }

    /// Reads the catalog image (empty if never written).
    pub fn read_catalog(&self) -> Result<Vec<u8>> {
        lock(&self.store).read_catalog()
    }

    /// Flushes all previously written pages/blobs to durable storage.
    pub fn sync(&self) -> Result<()> {
        lock(&self.store).sync()
    }

    /// Snapshot of the pool counters, merged across shards. Each shard's
    /// counters are read under its lock, so the totals never tear a
    /// single-shard update; concurrent activity on *other* shards may be
    /// included or not, as with any moment-in-time snapshot.
    pub fn stats(&self) -> BufferStats {
        let mut total = BufferStats::default();
        for shard in &self.shards {
            let s = lock(shard).stats;
            total.hits += s.hits;
            total.misses += s.misses;
            total.writes += s.writes;
            total.evictions += s.evictions;
            total.batch_pins += s.batch_pins;
            total.pins_saved += s.pins_saved;
            total.decodes_v1 += s.decodes_v1;
            total.decodes_v2 += s.decodes_v2;
            total.writes_v1 += s.writes_v1;
            total.writes_v2 += s.writes_v2;
            total.format_fallbacks += s.format_fallbacks;
        }
        total
    }

    /// Cheap two-counter snapshot for per-operator instrumentation:
    /// `(probes, batch_pins)`, where probes = page requests
    /// (hits + misses). Reads two counters per shard instead of the full
    /// [`BufferStats`] merge, so `EXPLAIN ANALYZE` can take before/after
    /// deltas around every batch without measurably perturbing the run.
    pub fn probe_pin_counts(&self) -> (u64, u64) {
        let mut probes = 0;
        let mut pins = 0;
        for shard in &self.shards {
            let s = &lock(shard).stats;
            probes += s.hits + s.misses;
            pins += s.batch_pins;
        }
        (probes, pins)
    }

    /// Resets the counters (not the cache) — used between benchmark runs.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            lock(shard).stats = BufferStats::default();
        }
    }

    /// Drops every cached page (cold-cache benchmarking).
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            lock(shard).cache.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::NameId;
    use crate::pager::MemoryPager;
    use crate::record::NodeRecord;
    use vamana_flex::{seq_label, FlexKey};

    fn page_with(i: u64) -> PageBuf {
        let mut p = PageBuf::new(StoreFormat::V1);
        p.append(NodeRecord::element(
            FlexKey::root().child(&seq_label(i)),
            NameId(i as u32),
        ))
        .unwrap();
        p
    }

    fn pool(capacity: usize, pages: u32) -> BufferPool {
        let pool = BufferPool::new(Box::new(MemoryPager::new()), capacity);
        for i in 0..pages {
            let id = pool.allocate().unwrap();
            pool.put(id, &page_with(i as u64)).unwrap();
        }
        pool.reset_stats();
        pool
    }

    #[test]
    fn get_after_put_hits_cache() {
        let pool = pool(8, 2);
        pool.get(0).unwrap();
        pool.get(0).unwrap();
        let s = pool.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 0);
    }

    #[test]
    fn cold_read_is_a_miss_then_hits() {
        let pool = pool(8, 2);
        pool.clear_cache();
        pool.get(1).unwrap();
        pool.get(1).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eviction_respects_lru_order_within_a_shard() {
        // Page ids a shard apart land in the same shard, so a 1-per-shard
        // capacity forces LRU eviction among them.
        let pool = pool(1, 0);
        let ids = [0u32, SHARDS as u32, 2 * SHARDS as u32];
        // Allocate enough backing pages to cover the ids used.
        for i in 0..=(2 * SHARDS as u32) {
            let id = pool.allocate().unwrap();
            pool.put(id, &page_with(i as u64)).unwrap();
        }
        pool.clear_cache();
        pool.reset_stats();
        pool.get(ids[0]).unwrap();
        pool.get(ids[1]).unwrap(); // evicts ids[0] (capacity 1 per shard)
        pool.get(ids[0]).unwrap(); // miss again
        let s = pool.stats();
        assert_eq!(s.misses, 3);
        assert!(s.evictions >= 2);
    }

    #[test]
    fn put_writes_through() {
        let pool = pool(2, 1);
        pool.put(0, &page_with(42)).unwrap();
        pool.clear_cache();
        let p = pool.get(0).unwrap();
        assert_eq!(p.name(0), Some(NameId(42)));
    }

    #[test]
    fn blob_round_trip_through_pool() {
        let pool = pool(2, 0);
        let off = pool.append_blob(b"overflow value").unwrap();
        assert_eq!(pool.read_blob(off, 14).unwrap(), b"overflow value");
    }

    #[test]
    fn eviction_counter_increments() {
        let pool = pool(1, 0);
        // Three pages in one shard with room for one.
        for i in 0..=(2 * SHARDS as u32) {
            let id = pool.allocate().unwrap();
            pool.put(id, &page_with(i as u64)).unwrap();
        }
        pool.clear_cache();
        pool.reset_stats();
        pool.get(0).unwrap();
        pool.get(SHARDS as u32).unwrap();
        pool.get(2 * SHARDS as u32).unwrap();
        assert_eq!(pool.stats().evictions, 2);
    }

    #[test]
    fn stats_are_exact_under_concurrent_readers() {
        let pool = pool(64, 16);
        pool.clear_cache();
        pool.reset_stats();
        let threads = 8;
        let rounds = 200u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let pool = &pool;
                scope.spawn(move || {
                    for i in 0..rounds {
                        pool.get(((t + i) % 16) as u32).unwrap();
                    }
                });
            }
        });
        let s = pool.stats();
        // Every single get is accounted for: hits + misses add up exactly.
        assert_eq!(s.hits + s.misses, threads * rounds);
        // All 16 pages were cold at most once per shard-install race.
        assert!(s.misses >= 16);
    }
}
