//! Morsel-driven intra-query parallel scans (the `ParallelScan`
//! operator).
//!
//! A plan whose output step the optimizer found splittable
//! ([`crate::opt::parallel::decide`]) reaches `build_parallel`, which
//! materialises the context list, holds the page span it now knows
//! against the break-even ([`crate::opt::parallel::price`]) and either
//! hands the contexts to an ordinary serial step or cuts the scan into
//! *morsels*: equi-depth runs of the pages one descendant range spans,
//! cut at page-first keys (`MassStore::partition_range`), or contiguous
//! slices of the context list. Concatenating morsel outputs in morsel
//! order is the serial tuple sequence.
//!
//! Morsels are claimed in order, one at a time, by whichever thread is
//! free — the calling thread included, which is one of the scan's
//! `degree` threads, not an extra one:
//!
//! * The **caller** ([`ParallelIter`]) claims the morsel it needs next
//!   and scans it straight into its output batch; nothing is queued.
//!   When that morsel is already being scanned by a worker it drains
//!   what the worker has produced, and when there is nothing to drain it
//!   scans the *earliest* unclaimed morsel into that morsel's queue, a
//!   chunk at a time, rather than wait.
//! * A **worker** is a thread of the engine's [`ScanPool`] holding a
//!   ticket for this scan: it claims morsels until none is claimable,
//!   pushing each one's output as chunks of [`CHUNK_ROWS`] rows that the
//!   caller takes by move. Claims stop `2 * degree` morsels ahead of the
//!   caller; a ticket that finds nothing claimable is dropped and the
//!   caller issues another when it catches up.
//!
//! **Back-pressure.** A morsel of a context list is as large as its
//! contexts' subtrees, so the claim window alone bounds nothing. The
//! scan's queues together hold at most `MorselSet::cap` chunks — what a
//! window of range morsels amounts to: a worker about to push past that
//! parks until the caller has taken a chunk (the one scanning the morsel
//! the caller is waiting on may always push into its empty queue), and
//! the caller stops scanning ahead. A consumer that stalls therefore
//! holds `cap` chunks plus the one in each worker's hands, and those
//! workers; other scans go on without them, on their own callers.
//!
//! Every wait is on a condvar guarded by the state it waits for, so there
//! is no polling. Dropping a `ParallelIter` cancels the scan and waits
//! for the (at most `degree - 1`) workers inside a morsel to notice,
//! which they do between chunks, between contexts and when parked; after
//! that no thread holds a clone of the store. A worker error or panic
//! fails the scan and the caller reports it.

use crate::error::{EngineError, Result};
use crate::exec::{build_iter, Env, OpIter, StepIter, BATCH_SIZE};
use crate::opt::parallel::price;
use crate::plan::{OpId, Operator};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use vamana_flex::{Axis, KeyRange};
use vamana_mass::axes::{range_scan_stream, AxisStream};
use vamana_mass::{MassStore, NodeEntry, NodeFilter, RecordKind};

/// Rows per chunk a worker hands to the caller. Every chunk but a
/// morsel's last is full, whatever the number of contexts behind it.
pub const CHUNK_ROWS: usize = 4 * BATCH_SIZE;

/// The work of one morsel in Table I units (tuples walked plus contexts
/// opened). Small enough that threads finish within a morsel of each
/// other and that the `2 * degree` morsels of buffered output stay
/// a few megabytes; large enough that the per-morsel hand-off (≈ 750
/// units, EXPERIMENTS.md "Hand-off calibration") is under a tenth of it.
pub const MORSEL_TUPLES: u64 = 16 * 1024;

/// Logical CPUs of the host (read once: the standard library re-reads
/// the cgroup files on every call).
pub fn host_cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every update under these mutexes is a single push, pop or counter
    // step, so the data is valid at every point a panic could unwind
    // from; a worker panic is reported through `SetState::failed`.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Cumulative counters of a [`ScanPool`] since creation, surfaced in
/// `QueryProfile`, CLI `.stats`, and server `STATS`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelScanStats {
    /// Threads one scan may use, the calling thread included — a gauge,
    /// not a counter. The pool itself runs one thread fewer.
    pub workers: u64,
    /// Morsels of scans that fanned out (whoever ran them).
    pub morsels: u64,
    /// Chunks that crossed a morsel queue.
    pub worker_batches: u64,
    /// Times the caller found its in-order morsel claimed by another
    /// thread with nothing ready to drain.
    pub merge_stalls: u64,
}

impl ParallelScanStats {
    /// The scans between `earlier`, a snapshot of the same pool, and these
    /// counters; `workers`, a gauge, is these counters'.
    pub fn since(&self, earlier: &ParallelScanStats) -> ParallelScanStats {
        ParallelScanStats {
            workers: self.workers,
            morsels: self.morsels.saturating_sub(earlier.morsels),
            worker_batches: self.worker_batches.saturating_sub(earlier.worker_batches),
            merge_stalls: self.merge_stalls.saturating_sub(earlier.merge_stalls),
        }
    }
}

struct PoolQueue {
    tickets: VecDeque<Arc<MorselSet>>,
    shutdown: bool,
}

/// State shared with the pool's threads. Split from [`ScanPool`] so they
/// hold no `Arc<ScanPool>` — otherwise the pool's drop (which joins
/// them) could never run.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    wake: Condvar,
    morsels: AtomicU64,
    chunks: AtomicU64,
    stalls: AtomicU64,
}

impl PoolShared {
    fn worker_loop(&self) {
        loop {
            let set = {
                let mut q = lock(&self.queue);
                loop {
                    if q.shutdown {
                        return;
                    }
                    if let Some(set) = q.tickets.pop_front() {
                        break set;
                    }
                    q = self.wake.wait(q).unwrap_or_else(|p| p.into_inner());
                }
            };
            // A panic inside a morsel fails that scan (`Running::drop`);
            // the thread itself must survive for the next one.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| set.work(self)));
        }
    }
}

/// The engine's worker threads for morsel scans, shared by all queries.
/// A pool of width `w` lets one scan use `w` threads and therefore runs
/// `w - 1` of its own: the calling thread is the other one. Created at
/// the first scan that fans out; dropping it joins the threads.
pub struct ScanPool {
    shared: Arc<PoolShared>,
    width: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ScanPool {
    /// Starts `width - 1` threads. A thread the host refuses to start is
    /// done without: the calling thread can run every morsel itself.
    pub fn new(width: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tickets: VecDeque::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            morsels: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
        });
        let handles = (1..width)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vamana-scan-{i}"))
                    .spawn(move || shared.worker_loop())
                    .ok()
            })
            .collect();
        ScanPool {
            shared,
            width: width.max(1),
            handles,
        }
    }

    /// Threads one scan may use, the calling thread included.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ParallelScanStats {
        ParallelScanStats {
            workers: self.width as u64,
            morsels: self.shared.morsels.load(Ordering::Relaxed),
            worker_batches: self.shared.chunks.load(Ordering::Relaxed),
            merge_stalls: self.shared.stalls.load(Ordering::Relaxed),
        }
    }

    /// Queues one ticket for `set` and wakes one thread for it.
    fn submit(&self, set: &Arc<MorselSet>) {
        lock(&self.shared.queue).tickets.push_back(Arc::clone(set));
        self.shared.wake.notify_one();
    }
}

impl Drop for ScanPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// The engine's lazily created [`ScanPool`]: nothing is spawned until a
/// scan fans out, and then only as wide as that scan may run; the pool
/// is replaced when a later scan may run wider.
#[derive(Default)]
pub struct PoolCell(Mutex<Option<Arc<ScanPool>>>);

impl PoolCell {
    /// The pool's counters; all zero while no scan has fanned out.
    pub fn stats(&self) -> ParallelScanStats {
        lock(&self.0)
            .as_ref()
            .map_or_else(ParallelScanStats::default, |pool| pool.stats())
    }

    fn get(&self, width: usize) -> Arc<ScanPool> {
        let mut cell = lock(&self.0);
        match cell.as_ref() {
            Some(pool) if pool.width() >= width => Arc::clone(pool),
            _ => {
                let pool = Arc::new(ScanPool::new(width));
                *cell = Some(Arc::clone(&pool));
                pool
            }
        }
    }
}

/// What the morsels of one scan are cut from.
enum Work {
    /// Disjoint page runs of one descendant(-or-self) range.
    Ranges(Vec<KeyRange>),
    /// The context list; morsel `i` is `ctxs[i * per..(i + 1) * per]`
    /// and runs the full axis stream of each context, in order.
    Contexts { ctxs: Vec<NodeEntry>, per: usize },
}

/// The immutable description of one parallel scan.
struct Job {
    axis: Axis,
    filter: NodeFilter,
    work: Work,
}

impl Job {
    fn morsels(&self) -> usize {
        match &self.work {
            Work::Ranges(ranges) => ranges.len(),
            Work::Contexts { ctxs, per } => ctxs.len().div_ceil(*per),
        }
    }
}

/// A scan over one morsel: the serial pipeline's own stream, so a
/// morsel's output is exactly the serial output over its slice.
struct MorselCursor<'s> {
    /// Contexts of the morsel still to open (empty for a range morsel).
    rest: std::ops::Range<usize>,
    /// The morsel's stream: a range morsel's only one; for a context
    /// morsel, re-opened on each context in turn, so that it is this
    /// morsel's finger as a serial step's is that step's ([`AxisStream`]).
    stream: AxisStream<'s>,
}

impl<'s> MorselCursor<'s> {
    fn open(store: &'s MassStore, job: &Job, index: usize) -> Self {
        match &job.work {
            Work::Ranges(ranges) => MorselCursor {
                rest: 0..0,
                stream: range_scan_stream(store, ranges[index].clone(), job.filter),
            },
            Work::Contexts { ctxs, per } => MorselCursor {
                rest: index * per..((index + 1) * per).min(ctxs.len()),
                stream: AxisStream::new(store, job.axis, job.filter),
            },
        }
    }

    /// Appends up to `max` rows to `out`, coalescing across contexts; a
    /// short count means the morsel is exhausted (or `stop` was raised,
    /// after which nobody reads the output).
    fn next_batch(
        &mut self,
        job: &Job,
        stop: &AtomicBool,
        out: &mut Vec<NodeEntry>,
        max: usize,
    ) -> vamana_mass::Result<usize> {
        let start = out.len();
        loop {
            let want = max - (out.len() - start);
            // A new stream is open on nothing and yields nothing.
            if want == 0 || self.stream.next_batch(out, want)? >= want {
                break;
            }
            let (Work::Contexts { ctxs, .. }, Some(k)) = (&job.work, self.rest.next()) else {
                self.stream.release();
                break;
            };
            if stop.load(Ordering::Relaxed) {
                break;
            }
            self.stream.open(&ctxs[k].key, ctxs[k].kind)?;
        }
        Ok(out.len() - start)
    }
}

/// The output of one morsel scanned by a thread other than the one that
/// consumes it.
#[derive(Default)]
struct Slot {
    chunks: VecDeque<Vec<NodeEntry>>,
    done: bool,
}

struct SetState {
    /// The store, cloned by each worker for the length of one morsel;
    /// `None` once the scan is over or cancelled, so a ticket still
    /// queued in the pool pins nothing.
    store: Option<Arc<MassStore>>,
    /// Morsels `next..` are unclaimed.
    next: usize,
    /// The morsel the caller is consuming.
    current: usize,
    /// Tickets queued in the pool or held by a worker.
    tickets: usize,
    /// Workers inside a morsel, i.e. holding a store clone.
    running: usize,
    /// The caller is parked on `ready` (a signal nobody waits for is
    /// still a system call, and there is one candidate per chunk).
    waiting: bool,
    /// Chunks sitting in `slots`, all morsels together.
    queued: usize,
    /// Workers parked on `space`.
    parked: usize,
    slots: Vec<Slot>,
    failed: Option<String>,
}

impl SetState {
    /// Parks the caller until a worker signals progress.
    fn wait<'a>(mut st: MutexGuard<'a, Self>, ready: &Condvar) -> MutexGuard<'a, Self> {
        st.waiting = true;
        let mut st = ready.wait(st).unwrap_or_else(|p| p.into_inner());
        st.waiting = false;
        st
    }

    /// Takes the next chunk of morsel `index`, if one is queued.
    fn pop(&mut self, index: usize) -> Option<Vec<NodeEntry>> {
        let chunk = self.slots[index].chunks.pop_front()?;
        self.queued -= 1;
        Some(chunk)
    }
}

/// The rendezvous of one parallel scan: what to scan, who has claimed
/// what, and the per-morsel queues.
struct MorselSet {
    job: Job,
    /// Threads the scan runs on, caller included.
    degree: usize,
    state: Mutex<SetState>,
    /// Signalled, when the caller is parked, on a pushed chunk and on a
    /// worker leaving a morsel.
    ready: Condvar,
    /// Signalled, when a worker is parked, on a taken chunk, on the
    /// caller moving to the next morsel and on cancellation.
    space: Condvar,
    cancelled: AtomicBool,
}

impl MorselSet {
    /// How many morsels past the caller's may be claimed. Two per thread
    /// keeps every thread busy while the caller drains.
    fn window(&self) -> usize {
        2 * self.degree
    }

    /// How many chunks the scan's queues may hold: the output of a
    /// window of [`MORSEL_TUPLES`]-sized morsels, which is all that range
    /// morsels ever queue — the cap only binds on fat contexts.
    fn cap(&self) -> usize {
        self.window() * MORSEL_TUPLES as usize / CHUNK_ROWS
    }

    /// Wakes the parked workers, whose conditions differ (one of them may
    /// be scanning the morsel the caller has just reached).
    fn wake_parked(&self, st: &SetState) {
        if st.parked > 0 {
            self.space.notify_all();
        }
    }

    /// The next morsel a thread may claim, if any.
    fn claimable(&self, st: &SetState) -> Option<usize> {
        (!self.cancelled.load(Ordering::Relaxed)
            && st.next < st.slots.len()
            && st.next < st.current + self.window())
        .then_some(st.next)
    }

    /// A pool thread's ticket: claim and scan morsels until none is
    /// claimable.
    fn work(&self, pool: &PoolShared) {
        struct Ticket<'a>(&'a MorselSet);
        impl Drop for Ticket<'_> {
            fn drop(&mut self) {
                lock(&self.0.state).tickets -= 1;
            }
        }
        let _ticket = Ticket(self);
        loop {
            let claim = {
                let mut st = lock(&self.state);
                let claim = self.claimable(&st).zip(st.store.clone());
                if claim.is_some() {
                    st.next += 1;
                    st.running += 1;
                }
                claim
            };
            let Some((index, store)) = claim else {
                return;
            };
            let mut running = Running {
                set: self,
                index,
                store: Some(store),
                failure: Some("scan worker panicked".into()),
            };
            let store = running.store.as_deref().expect("set above");
            running.failure = self.scan(index, store, pool).err().map(|e| e.to_string());
        }
    }

    /// A worker's scan of morsel `index` into its slot, chunk by chunk.
    fn scan(&self, index: usize, store: &MassStore, pool: &PoolShared) -> vamana_mass::Result<()> {
        let mut cursor = MorselCursor::open(store, &self.job, index);
        while self.scan_chunk(index, &mut cursor, pool, true)? {}
        Ok(())
    }

    /// Scans one more chunk of morsel `index` into its slot; `false` once
    /// the morsel is exhausted or the scan cancelled. With `park` (a
    /// worker) full queues are waited out; the caller looks at
    /// [`MorselSet::cap`] before it calls.
    fn scan_chunk(
        &self,
        index: usize,
        cursor: &mut MorselCursor<'_>,
        pool: &PoolShared,
        park: bool,
    ) -> vamana_mass::Result<bool> {
        let mut chunk = Vec::with_capacity(CHUNK_ROWS);
        let n = cursor.next_batch(&self.job, &self.cancelled, &mut chunk, CHUNK_ROWS)?;
        if n > 0 {
            let mut st = lock(&self.state);
            // Full: wait for the caller to take a chunk — unless it is
            // waiting for this very morsel and has nothing to take.
            while park
                && st.queued >= self.cap()
                && !(index == st.current && st.slots[index].chunks.is_empty())
                && !self.cancelled.load(Ordering::Relaxed)
            {
                st.parked += 1;
                st = self.space.wait(st).unwrap_or_else(|p| p.into_inner());
                st.parked -= 1;
            }
            if self.cancelled.load(Ordering::Relaxed) {
                return Ok(false);
            }
            st.slots[index].chunks.push_back(chunk);
            st.queued += 1;
            let wake = st.waiting;
            drop(st);
            if wake {
                self.ready.notify_one();
            }
            pool.chunks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(n == CHUNK_ROWS && !self.cancelled.load(Ordering::Relaxed))
    }

    /// Completes morsel `index`; `worker` when a pool thread ran it (and
    /// has dropped its store clone).
    fn finish(&self, index: usize, failure: Option<String>, worker: bool) {
        let mut st = lock(&self.state);
        if let Some(slot) = st.slots.get_mut(index) {
            slot.done = true;
        }
        if st.failed.is_none() {
            st.failed = failure;
        }
        if worker {
            st.running -= 1;
        }
        let wake = st.waiting;
        drop(st);
        if wake {
            self.ready.notify_one();
        }
    }
}

/// A worker inside a morsel. Dropping it — normally or by unwinding —
/// releases the store clone *first*, then completes the morsel, so the
/// caller never sees a finished scan whose workers still pin the store.
struct Running<'a> {
    set: &'a MorselSet,
    index: usize,
    store: Option<Arc<MassStore>>,
    failure: Option<String>,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        self.store = None;
        self.set.finish(self.index, self.failure.take(), true);
    }
}

/// What the engine hands the executor for a parallel-eligible plan.
pub struct ParallelHooks<'e> {
    /// The store, as workers will clone it.
    pub store: &'e Arc<MassStore>,
    /// The engine's scan pool, created when a scan first fans out.
    pub pool: &'e PoolCell,
    /// Threads one scan may use, the calling thread included.
    pub width: usize,
    /// Fan out as wide as `width` allows whatever the scan's size.
    pub force: bool,
}

/// The ordered-merge consumer and first of the scan's threads. Emits
/// morsel outputs strictly in morsel order, which *is* pipeline order by
/// construction.
pub struct ParallelIter<'s> {
    /// The plan operator the parallel scan replaces (the top step) —
    /// analyze runs attribute merged rows to it at the dispatch site.
    pub(crate) op: OpId,
    store: &'s MassStore,
    set: ScanHandle,
    pool: Arc<ScanPool>,
    /// The morsel being emitted.
    current: usize,
    /// `current` claimed by this thread: scanned straight into `out`.
    own: Option<MorselCursor<'s>>,
    /// A later morsel this thread is scanning into its slot while a
    /// worker holds `current`.
    ahead: Option<(usize, MorselCursor<'s>)>,
    /// Rest of a chunk larger than the caller's batch.
    buffer: std::vec::IntoIter<NodeEntry>,
    /// The scan's contexts did not arrive one whole subtree after
    /// another, so the morsels' outputs, each ascending, do not ascend
    /// end to end (see [`crate::exec::OpIter::order_broken`]).
    pub(crate) order_broken: bool,
}

enum Acquired<'s> {
    Chunk(Vec<NodeEntry>),
    Own(Box<MorselCursor<'s>>),
    Finished,
}

impl<'s> ParallelIter<'s> {
    /// Fans `job` out over `degree` threads: this one, and a ticket in
    /// `pool` for each of the others. `shared` is `store` as the workers
    /// will clone it.
    fn start(
        op: OpId,
        store: &'s MassStore,
        shared: &Arc<MassStore>,
        pool: Arc<ScanPool>,
        job: Job,
        degree: usize,
    ) -> Self {
        let morsels = job.morsels();
        let degree = degree.min(morsels);
        pool.shared
            .morsels
            .fetch_add(morsels as u64, Ordering::Relaxed);
        // Morsel 0 is the caller's: claimed here, before any worker wakes.
        let tickets = degree - 1;
        let own = MorselCursor::open(store, &job, 0);
        // Morsel order is context order: the merge ascends end to end
        // when the contexts' subtrees do (page runs of one range always).
        let order_broken =
            matches!(&job.work, Work::Contexts { ctxs, .. } if !subtrees_ascend(ctxs));
        let set = Arc::new(MorselSet {
            job,
            degree,
            state: Mutex::new(SetState {
                store: Some(Arc::clone(shared)),
                next: 1,
                current: 0,
                tickets,
                running: 0,
                waiting: false,
                queued: 0,
                parked: 0,
                slots: (0..morsels).map(|_| Slot::default()).collect(),
                failed: None,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            cancelled: AtomicBool::new(false),
        });
        for _ in 0..tickets {
            pool.submit(&set);
        }
        ParallelIter {
            op,
            store,
            set: ScanHandle(set),
            pool,
            current: 0,
            own: Some(own),
            ahead: None,
            buffer: Vec::new().into_iter(),
            order_broken,
        }
    }

    /// The pull, with the usual short-count-means-exhausted contract.
    pub fn next_batch(&mut self, out: &mut Vec<NodeEntry>, max: usize) -> Result<usize> {
        let start = out.len();
        loop {
            let want = max - (out.len() - start);
            if want == 0 {
                break;
            }
            if self.buffer.len() > 0 {
                out.extend(self.buffer.by_ref().take(want));
            } else if let Some(cursor) = &mut self.own {
                if cursor.next_batch(&self.set.job, &self.set.cancelled, out, want)? < want {
                    self.own = None;
                    self.advance();
                }
            } else if self.current >= self.set.job.morsels() {
                break;
            } else {
                match self.acquire()? {
                    Acquired::Chunk(mut chunk) if chunk.len() <= want => out.append(&mut chunk),
                    Acquired::Chunk(chunk) => self.buffer = chunk.into_iter(),
                    Acquired::Own(cursor) => self.own = Some(*cursor),
                    Acquired::Finished => self.advance(),
                }
            }
        }
        Ok(out.len() - start)
    }

    /// The next piece of the in-order morsel. Never waits while there is
    /// a morsel this thread could be scanning: an unclaimed in-order
    /// morsel becomes its own, and while a worker holds the in-order
    /// morsel the earliest unclaimed one is scanned into its slot — a
    /// chunk at a time, looking for in-order output in between, and only
    /// while the queues have room.
    fn acquire(&mut self) -> Result<Acquired<'s>> {
        let set = &**self.set;
        let mut stalled = false;
        let mut st = lock(&set.state);
        loop {
            if let Some(msg) = st.failed.take() {
                return Err(EngineError::Unsupported(format!(
                    "parallel scan failed: {msg}"
                )));
            }
            if let Some(chunk) = st.pop(self.current) {
                set.wake_parked(&st);
                return Ok(Acquired::Chunk(chunk));
            }
            if st.slots[self.current].done {
                return Ok(Acquired::Finished);
            }
            // Caught up with the morsel this thread was scanning ahead:
            // the rest of it goes straight to the output.
            if let Some((_, cursor)) = self.ahead.take_if(|(index, _)| *index == self.current) {
                return Ok(Acquired::Own(Box::new(cursor)));
            }
            if st.next == self.current {
                st.next += 1;
                drop(st);
                return Ok(Acquired::Own(Box::new(MorselCursor::open(
                    self.store,
                    &set.job,
                    self.current,
                ))));
            }
            if !stalled {
                stalled = true;
                self.pool.shared.stalls.fetch_add(1, Ordering::Relaxed);
            }
            let room = st.queued < set.cap();
            if room && self.ahead.is_none() {
                if let Some(index) = set.claimable(&st) {
                    st.next += 1;
                    self.ahead = Some((index, MorselCursor::open(self.store, &set.job, index)));
                }
            }
            match &mut self.ahead {
                Some((index, cursor)) if room => {
                    drop(st);
                    let index = *index;
                    let outcome = set.scan_chunk(index, cursor, &self.pool.shared, false);
                    if !matches!(outcome, Ok(true)) {
                        self.ahead = None;
                        set.finish(index, None, false);
                    }
                    outcome?;
                    st = lock(&set.state);
                }
                _ => st = SetState::wait(st, &set.ready),
            }
        }
    }

    /// Moves on to the next morsel, re-issuing a ticket if the window had
    /// run out under the workers.
    fn advance(&mut self) {
        self.current += 1;
        let set = &**self.set;
        let mut st = lock(&set.state);
        st.current = self.current;
        if self.current >= st.slots.len() {
            st.store = None;
        }
        let reissue = st.tickets + 1 < set.degree && set.claimable(&st).is_some();
        if reissue {
            st.tickets += 1;
        }
        set.wake_parked(&st);
        drop(st);
        if reissue {
            self.pool.submit(&self.set);
        }
    }
}

/// The caller's handle on its scan. Dropping it cancels the scan and
/// waits for the workers inside a morsel to leave it (each looks at the
/// flag between chunks, between contexts and when parked); after that no
/// thread holds a store clone, so the engine's writes have exclusive
/// access again: the only thing that lets a writer through.
/// A type of its own, without the store lifetime: with the `Drop` on
/// [`ParallelIter`] itself every stream would keep its engine borrowed
/// until it goes out of scope.
struct ScanHandle(Arc<MorselSet>);

impl std::ops::Deref for ScanHandle {
    type Target = Arc<MorselSet>;
    fn deref(&self) -> &Arc<MorselSet> {
        &self.0
    }
}

impl Drop for ScanHandle {
    fn drop(&mut self) {
        self.cancelled.store(true, Ordering::Relaxed);
        let mut st = lock(&self.state);
        st.store = None;
        self.wake_parked(&st);
        while st.running > 0 {
            st = SetState::wait(st, &self.ready);
        }
        // A ticket still queued keeps the set alive; not its rows.
        st.slots = Vec::new();
    }
}

/// The smallest key range holding every context's subtree: an upper
/// bound on what a context-list scan walks, tight when the contexts are
/// neighbours (one section's items), the whole document for `/site/*/*`.
fn envelope(contexts: &[NodeEntry]) -> KeyRange {
    let keys = || contexts.iter().map(|c| &c.key);
    match (keys().min(), keys().max()) {
        (Some(lo), Some(hi)) => KeyRange {
            lo: lo.as_flat().to_vec(),
            hi: hi.subtree_upper(),
        },
        _ => KeyRange::empty(),
    }
}

/// Whether `contexts` arrive one whole subtree after another — what a
/// serial step's stream watches for context by context
/// ([`AxisStream::nested`]), asked once of a list in hand. A descendant's
/// flat key extends its ancestor's, so a context lies after the last
/// one's subtree when it sorts after it without carrying it as a prefix.
fn subtrees_ascend(contexts: &[NodeEntry]) -> bool {
    contexts.windows(2).all(|w| {
        let (last, next) = (w[0].key.as_flat(), w[1].key.as_flat());
        last < next && !next.starts_with(last)
    })
}

/// Builds the cursor for the plan's parallel-eligible top step: a
/// [`ParallelIter`] when the scan is above the break-even (or forced), the
/// serial step over the same contexts when it is not. `None` means the
/// step was not looked at (one thread, or not the shape the optimizer
/// promised) and the caller builds the ordinary pipeline.
pub(crate) fn build_parallel<'s>(
    env: Env<'_, 's>,
    top: OpId,
    hooks: &ParallelHooks<'_>,
) -> Result<Option<OpIter<'s>>> {
    let Operator::Step {
        axis,
        test,
        context,
        predicates,
        ..
    } = env.plan.op(top)
    else {
        return Ok(None);
    };
    let max_degree = if hooks.force {
        hooks.width
    } else {
        hooks.width.min(host_cpus())
    };
    let Some(filter) = env.node_filter(*axis, test) else {
        return Ok(None);
    };
    if !predicates.is_empty() || max_degree < 2 {
        return Ok(None);
    }
    // The context stream (everything below the top step) runs serially —
    // it is almost always index-only and tiny next to the scan.
    let mut contexts = Vec::new();
    match context {
        Some(c) => {
            let mut it = build_iter(env, *c, None)?;
            it.next_batch(env, &mut contexts, usize::MAX)?;
        }
        None => contexts.push(env.root_ctx.clone()),
    }
    // One context: only descendant(-or-self) is one contiguous key
    // range, cut into page runs. Several: cut the list itself.
    let range = match (contexts.as_slice(), axis) {
        ([ctx], _) if ctx.kind == RecordKind::Attribute => None,
        ([ctx], Axis::Descendant) => Some(KeyRange::descendants(&ctx.key)),
        ([ctx], Axis::DescendantOrSelf) => Some(KeyRange::subtree(&ctx.key)),
        _ => None,
    };
    let (pages, max_morsels) = match &range {
        Some(range) => {
            let pages = hooks.store.page_span(range);
            (pages, pages)
        }
        None if contexts.len() > 1 => (hooks.store.page_span(&envelope(&contexts)), contexts.len()),
        None => (0, 1),
    };
    let tuples = (pages as f64 * hooks.store.tuples_per_page()) as u64;
    let verdict = price(
        contexts.len() as u64,
        pages as u64,
        tuples,
        max_degree,
        max_morsels,
        hooks.force,
    );
    if let Some(stats) = env.stats {
        stats.set_parallel(verdict);
    }
    let morsels = verdict.morsels as usize;
    let work = match range {
        _ if verdict.degree < 2 => None,
        Some(range) => {
            let ranges = hooks.store.partition_range(&range, morsels);
            (ranges.len() >= 2).then_some(Work::Ranges(ranges))
        }
        None => Some(Work::Contexts {
            per: contexts.len().div_ceil(morsels),
            ctxs: std::mem::take(&mut contexts),
        }),
    };
    let Some(work) = work else {
        // Stays on one thread: the ordinary step, over the context list
        // already in hand.
        return Ok(Some(OpIter::Step(Box::new(StepIter::new(
            env,
            top,
            *axis,
            Some(filter),
            Vec::new(),
            OpIter::Join(contexts.into_iter()),
        )))));
    };
    let job = Job {
        axis: *axis,
        filter,
        work,
    };
    let pool = hooks.pool.get(max_degree);
    Ok(Some(OpIter::Parallel(Box::new(ParallelIter::start(
        top,
        env.store,
        hooks.store,
        pool,
        job,
        verdict.degree as usize,
    )))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DocId, Engine};

    /// 3000 items of two children each: 6000 rows, six chunks' worth.
    fn engine() -> Engine {
        let mut xml = String::from("<r>");
        for i in 0..3000 {
            xml.push_str(&format!("<item><a>{i}</a><b/></item>"));
        }
        xml.push_str("</r>");
        let mut store = MassStore::open_memory();
        store.load_xml("doc", &xml).unwrap();
        let mut engine = Engine::new(store);
        engine.options_mut().parallel_workers = 1;
        engine
    }

    /// `//item/*` as a contexts job of `per` contexts a morsel.
    fn job(engine: &Engine, per: usize) -> Job {
        Job {
            axis: Axis::Child,
            filter: NodeFilter::any_element(),
            work: Work::Contexts {
                ctxs: engine.query_doc(DocId(0), "//item").unwrap(),
                per,
            },
        }
    }

    /// A scan of `job` at degree 2 on a pool that runs no thread, so the
    /// test decides who scans what: the ticket `start` queued is never
    /// picked up, and `set.work` on the test thread stands in for it.
    fn start(engine: &Engine, job: Job) -> ParallelIter<'_> {
        let pool = Arc::new(ScanPool::new(1));
        ParallelIter::start(OpId(0), engine.store(), &engine.store, pool, job, 2)
    }

    #[test]
    fn worker_chunks_are_full_whatever_the_contexts_behind_them() {
        let engine = engine();
        let serial = engine.query_doc(DocId(0), "//item/*").unwrap();
        // 700 contexts = 1400 rows a morsel: every morsel crosses a chunk
        // boundary in the middle of the context list.
        let iter = start(&engine, job(&engine, 700));
        iter.set.work(&iter.pool.shared);
        let st = lock(&iter.set.state);
        // The window (2 x degree) stopped the worker after morsels 1..=3.
        assert_eq!((st.next, st.tickets, st.running), (4, 0, 0));
        let mut rows = Vec::new();
        for slot in &st.slots[1..4] {
            assert!(slot.done);
            let sizes: Vec<usize> = slot.chunks.iter().map(Vec::len).collect();
            assert_eq!(sizes, [CHUNK_ROWS, 1400 - CHUNK_ROWS]);
            rows.extend(slot.chunks.iter().flatten().cloned());
        }
        assert_eq!(rows, serial[1400..5600]);
        assert_eq!(iter.pool.stats().worker_batches, 6);
    }

    #[test]
    fn caller_interleaves_own_morsels_and_worker_chunks_in_order() {
        let engine = engine();
        let serial = engine.query_doc(DocId(0), "//item/*").unwrap();
        for max in [1, 100, BATCH_SIZE, CHUNK_ROWS, 5000] {
            // Ten morsels of 600 rows; the stand-in worker takes 1..=3.
            let mut iter = start(&engine, job(&engine, 300));
            iter.set.work(&iter.pool.shared);
            let mut out = Vec::new();
            loop {
                let n = iter.next_batch(&mut out, max).unwrap();
                assert!(n <= max);
                if n < max {
                    break;
                }
            }
            assert_eq!(out, serial, "max {max}");
            let st = lock(&iter.set.state);
            // The caller re-issued the ticket once it had caught up, and
            // let go of the store when it emitted the last morsel.
            assert_eq!((st.next, st.current, st.tickets), (10, 10, 1));
            assert!(st.store.is_none());
            drop(st);
            assert_eq!(iter.next_batch(&mut out, max).unwrap(), 0);
        }
    }

    #[test]
    fn helping_takes_the_earliest_unclaimed_morsels() {
        let engine = engine();
        let serial = engine.query_doc(DocId(0), "//item/*").unwrap();
        let mut iter = start(&engine, job(&engine, 300));
        // A worker has claimed morsel 1 and is slow about it.
        {
            let mut st = lock(&iter.set.state);
            st.next = 2;
            st.running = 1;
        }
        let set = Arc::clone(&iter.set);
        let pool = Arc::clone(&iter.pool);
        let store = Arc::clone(&engine.store);
        let mut out = Vec::new();
        let seen = std::thread::scope(|s| {
            let worker = s.spawn(move || {
                // Hold morsel 1 back until the caller has nothing left
                // to do but wait for it.
                let seen = loop {
                    let st = lock(&set.state);
                    if st.waiting {
                        let done: Vec<bool> = st.slots.iter().map(|s| s.done).collect();
                        break (st.next, done);
                    }
                    drop(st);
                    std::thread::yield_now();
                };
                let outcome = set.scan(1, &store, &pool.shared);
                drop(store);
                set.finish(1, outcome.err().map(|e| e.to_string()), true);
                seen
            });
            while iter.next_batch(&mut out, BATCH_SIZE).unwrap() == BATCH_SIZE {}
            worker.join().unwrap()
        });
        // The caller emitted morsel 0 itself, found 1 taken with nothing
        // to drain, and scanned 2, 3 and 4 — the earliest unclaimed, as
        // far as the window reaches — into their slots before it parked.
        let (next, done) = seen;
        assert_eq!(next, 5);
        assert_eq!(
            done,
            [false, false, true, true, true, false, false, false, false, false]
        );
        assert_eq!(out, serial);
        assert!(iter.pool.stats().merge_stalls >= 1);
    }

    /// Six sections of 22 000 leaves, one context-list morsel each:
    /// 22 chunks a morsel, so three of them overflow a 64-chunk cap.
    fn fat_engine() -> Engine {
        let mut xml = String::from("<r>");
        for _ in 0..6 {
            xml.push_str("<s>");
            xml.push_str(&"<e/>".repeat(22_000));
            xml.push_str("</s>");
        }
        xml.push_str("</r>");
        let mut store = MassStore::open_memory();
        store.load_xml("doc", &xml).unwrap();
        let mut engine = Engine::new(store);
        engine.options_mut().parallel_workers = 1;
        engine
    }

    fn fat_job(engine: &Engine) -> Job {
        Job {
            axis: Axis::Child,
            filter: NodeFilter::any_element(),
            work: Work::Contexts {
                ctxs: engine.query_doc(DocId(0), "/r/s").unwrap(),
                per: 1,
            },
        }
    }

    /// Spins until `ready` says so of the scan's state, and returns what
    /// it made of it.
    fn when<T>(set: &MorselSet, ready: impl Fn(&SetState) -> Option<T>) -> T {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            if let Some(seen) = ready(&lock(&set.state)) {
                return seen;
            }
            assert!(std::time::Instant::now() < deadline, "scan never got there");
            std::thread::yield_now();
        }
    }

    fn buffered_rows(st: &SetState) -> usize {
        st.slots.iter().flat_map(|s| &s.chunks).map(Vec::len).sum()
    }

    #[test]
    fn a_stalled_consumer_parks_the_worker_at_the_cap() {
        let engine = fat_engine();
        let serial = engine.query_doc(DocId(0), "/r/s/*").unwrap();
        // A real pool thread this time; the caller pulls nothing.
        let pool = Arc::new(ScanPool::new(2));
        let mut iter = ParallelIter::start(
            OpId(0),
            engine.store(),
            &engine.store,
            pool,
            fat_job(&engine),
            2,
        );
        let cap = iter.set.cap();
        assert_eq!(cap, 64);
        // The window lets the worker claim morsels 1..=3, 66 chunks; it
        // parks with the 65th in its hands: two morsels and 20 chunks.
        let seen = when(&iter.set, |st| {
            (st.parked == 1).then(|| (st.queued, buffered_rows(st), st.next))
        });
        assert_eq!(seen, (cap, 2 * 22_000 + 20 * CHUNK_ROWS, 4));
        // Taking chunks lets it go on, and nothing is lost or reordered.
        let mut out = Vec::new();
        while iter.next_batch(&mut out, BATCH_SIZE).unwrap() == BATCH_SIZE {}
        assert_eq!(out, serial);
        let st = lock(&iter.set.state);
        assert_eq!((st.parked, st.queued, st.running), (0, 0, 0));
    }

    #[test]
    fn a_parked_worker_leaves_when_the_scan_is_dropped() {
        let engine = fat_engine();
        let pool = Arc::new(ScanPool::new(2));
        let iter = ParallelIter::start(
            OpId(0),
            engine.store(),
            &engine.store,
            pool,
            fat_job(&engine),
            2,
        );
        when(&iter.set, |st| (st.parked == 1).then_some(()));
        drop(iter);
        assert_eq!(Arc::strong_count(&engine.store), 1, "the engine's own");
    }

    #[test]
    fn the_caller_stops_scanning_ahead_at_the_cap() {
        let engine = fat_engine();
        let serial = engine.query_doc(DocId(0), "/r/s/*").unwrap();
        let mut iter = start(&engine, fat_job(&engine));
        // A worker has claimed morsel 1 and is slow about it.
        {
            let mut st = lock(&iter.set.state);
            st.next = 2;
            st.running = 1;
        }
        let set = Arc::clone(&iter.set);
        let pool = Arc::clone(&iter.pool);
        let store = Arc::clone(&engine.store);
        let mut out = Vec::new();
        let seen = std::thread::scope(|s| {
            let worker = s.spawn(move || {
                let seen = when(&set, |st| {
                    st.waiting.then(|| (st.queued, buffered_rows(st), st.next))
                });
                let outcome = set.scan(1, &store, &pool.shared);
                drop(store);
                set.finish(1, outcome.err().map(|e| e.to_string()), true);
                seen
            });
            while iter.next_batch(&mut out, BATCH_SIZE).unwrap() == BATCH_SIZE {}
            worker.join().unwrap()
        });
        // Morsels 2 and 3 whole (44 chunks) and 20 chunks of morsel 4;
        // the caller scans the rest of 4 when it gets there.
        assert_eq!(seen, (64, 2 * 22_000 + 20 * CHUNK_ROWS, 5));
        assert_eq!(out, serial);
    }

    #[test]
    fn a_failed_morsel_fails_the_scan() {
        let engine = engine();
        let mut iter = start(&engine, job(&engine, 300));
        lock(&iter.set.state).next = 2;
        iter.set.finish(1, Some("disk on fire".into()), false);
        let mut out = Vec::new();
        let err = loop {
            match iter.next_batch(&mut out, BATCH_SIZE) {
                Ok(n) => assert!(n > 0, "scan ended without reporting the failure"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("disk on fire"), "{err}");
    }
}
