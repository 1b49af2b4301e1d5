//! Fault injection for crash-recovery testing.
//!
//! The harness models a crash as an *ordered write stream cut at the Nth
//! write*: a shared [`FaultClock`] is charged by every durable write
//! issued by the page store **and** the WAL backend; once the armed
//! budget is exhausted, page writes fail outright and WAL appends write
//! only a partial frame (a genuine torn tail) before failing. Everything
//! written before the cut survives in shared backing buffers
//! ([`SharedPager`], [`crate::wal::MemWalBackend`]) that outlive the
//! "crashed" store, so a test can drop the store mid-operation and
//! reopen from exactly the bytes a real crash would have left behind.

use crate::error::Result;
use crate::pager::{MemoryPager, PageStore};
use crate::wal::WalBackend;
use std::sync::{Arc, Mutex};

fn io_fault() -> crate::error::MassError {
    crate::error::MassError::Io(std::io::Error::other("injected write fault"))
}

#[derive(Debug, Default)]
struct ClockState {
    /// Remaining writes before the cut; `None` = unlimited (disarmed).
    budget: Option<u64>,
    /// Total writes charged while disarmed or within budget.
    writes: u64,
}

/// Shared write-budget counter. Disarmed it just counts (to size a crash
/// matrix); armed with `n`, the first `n` writes succeed and every later
/// one fails.
#[derive(Debug, Default)]
pub struct FaultClock(Mutex<ClockState>);

impl FaultClock {
    /// A fresh, disarmed clock.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Arms the clock: the next `budget` writes succeed, later ones fail.
    pub fn arm(&self, budget: u64) {
        let mut s = self.0.lock().unwrap_or_else(|p| p.into_inner());
        s.budget = Some(budget);
        s.writes = 0;
    }

    /// Disarms the clock (all writes succeed again; recovery phase).
    pub fn disarm(&self) {
        let mut s = self.0.lock().unwrap_or_else(|p| p.into_inner());
        s.budget = None;
    }

    /// Writes charged since the last `arm`/reset.
    pub fn writes(&self) -> u64 {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).writes
    }

    /// Charges one write. Returns `false` when the budget is exhausted —
    /// the caller must fail (or tear) the write.
    fn charge(&self) -> bool {
        let mut s = self.0.lock().unwrap_or_else(|p| p.into_inner());
        match &mut s.budget {
            None => {
                s.writes += 1;
                true
            }
            Some(0) => false,
            Some(rem) => {
                *rem -= 1;
                s.writes += 1;
                true
            }
        }
    }
}

/// A [`MemoryPager`] behind an `Arc`, so the backing bytes survive the
/// store that writes them — the reopen half of a crash test reads the
/// same pages the crashed store wrote.
#[derive(Debug, Clone, Default)]
pub struct SharedPager(Arc<Mutex<MemoryPager>>);

impl SharedPager {
    /// A fresh empty shared pager.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryPager> {
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl PageStore for SharedPager {
    fn read_page(&mut self, id: u32) -> Result<Vec<u8>> {
        self.lock().read_page(id)
    }
    fn write_page(&mut self, id: u32, image: &[u8]) -> Result<()> {
        self.lock().write_page(id, image)
    }
    fn allocate(&mut self) -> Result<u32> {
        self.lock().allocate()
    }
    fn page_count(&self) -> u32 {
        self.lock().page_count()
    }
    fn append_blob(&mut self, bytes: &[u8]) -> Result<u64> {
        self.lock().append_blob(bytes)
    }
    fn read_blob(&mut self, offset: u64, len: u32) -> Result<Vec<u8>> {
        self.lock().read_blob(offset, len)
    }
    fn blob_len(&self) -> u64 {
        self.lock().blob_len()
    }
    fn write_catalog(&mut self, bytes: &[u8]) -> Result<()> {
        self.lock().write_catalog(bytes)
    }
    fn read_catalog(&mut self) -> Result<Vec<u8>> {
        self.lock().read_catalog()
    }
}

/// Page store wrapper that charges the clock on every durable write and
/// fails once the budget is gone. Reads are free (a crash loses no
/// already-written bytes in the ordered-write model).
pub struct FaultPager {
    inner: Box<dyn PageStore>,
    clock: Arc<FaultClock>,
}

impl FaultPager {
    /// Wraps `inner`, charging `clock` per write.
    pub fn new(inner: Box<dyn PageStore>, clock: Arc<FaultClock>) -> Self {
        FaultPager { inner, clock }
    }
}

impl PageStore for FaultPager {
    fn read_page(&mut self, id: u32) -> Result<Vec<u8>> {
        self.inner.read_page(id)
    }

    fn write_page(&mut self, id: u32, image: &[u8]) -> Result<()> {
        if !self.clock.charge() {
            return Err(io_fault());
        }
        self.inner.write_page(id, image)
    }

    fn allocate(&mut self) -> Result<u32> {
        if !self.clock.charge() {
            return Err(io_fault());
        }
        self.inner.allocate()
    }

    fn page_count(&self) -> u32 {
        self.inner.page_count()
    }

    fn append_blob(&mut self, bytes: &[u8]) -> Result<u64> {
        if !self.clock.charge() {
            return Err(io_fault());
        }
        self.inner.append_blob(bytes)
    }

    fn read_blob(&mut self, offset: u64, len: u32) -> Result<Vec<u8>> {
        self.inner.read_blob(offset, len)
    }

    fn blob_len(&self) -> u64 {
        self.inner.blob_len()
    }

    fn write_catalog(&mut self, bytes: &[u8]) -> Result<()> {
        if !self.clock.charge() {
            return Err(io_fault());
        }
        self.inner.write_catalog(bytes)
    }

    fn read_catalog(&mut self) -> Result<Vec<u8>> {
        self.inner.read_catalog()
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }
}

/// WAL backend wrapper: the write that exhausts the budget appends only
/// *half* its bytes before failing — a genuine torn frame for recovery
/// to detect and truncate. Later writes fail without writing.
pub struct FaultWalBackend {
    inner: Box<dyn WalBackend>,
    clock: Arc<FaultClock>,
    torn: bool,
}

impl FaultWalBackend {
    /// Wraps `inner`, charging `clock` per append/truncate.
    pub fn new(inner: Box<dyn WalBackend>, clock: Arc<FaultClock>) -> Self {
        FaultWalBackend {
            inner,
            clock,
            torn: false,
        }
    }
}

impl WalBackend for FaultWalBackend {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        if !self.clock.charge() {
            if !self.torn {
                self.torn = true;
                let cut = bytes.len() / 2;
                let _ = self.inner.append(&bytes[..cut]);
            }
            return Err(io_fault());
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<()> {
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        if !self.clock.charge() {
            return Err(io_fault());
        }
        self.inner.truncate(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::MemWalBackend;

    #[test]
    fn clock_counts_when_disarmed_and_cuts_when_armed() {
        let clock = FaultClock::new();
        assert!(clock.charge() && clock.charge());
        assert_eq!(clock.writes(), 2);
        clock.arm(1);
        assert!(clock.charge());
        assert!(!clock.charge());
        assert!(!clock.charge(), "stays failed");
        clock.disarm();
        assert!(clock.charge());
    }

    #[test]
    fn fault_pager_fails_after_budget() {
        let clock = FaultClock::new();
        clock.arm(2);
        let mut p = FaultPager::new(Box::new(SharedPager::new()), Arc::clone(&clock));
        let a = p.allocate().unwrap(); // write 1
        p.write_page(a, &[0u8; crate::page::PAGE_SIZE]).unwrap(); // write 2
        assert!(p.write_page(a, &[0u8; crate::page::PAGE_SIZE]).is_err());
        assert!(p.read_page(a).is_ok(), "reads stay free");
    }

    #[test]
    fn fault_wal_tears_the_failing_append() {
        let clock = FaultClock::new();
        clock.arm(1);
        let shared = MemWalBackend::new();
        let mut w = FaultWalBackend::new(Box::new(shared.clone()), Arc::clone(&clock));
        w.append(&[1, 2, 3, 4]).unwrap();
        assert!(w.append(&[5, 6, 7, 8]).is_err());
        // Half of the failing write landed: a torn tail.
        assert_eq!(shared.len(), 4 + 2);
        assert!(w.append(&[9]).is_err());
        assert_eq!(shared.len(), 6, "later failed writes add nothing");
    }

    #[test]
    fn shared_pager_survives_writer_drop() {
        let shared = SharedPager::new();
        {
            let mut handle = shared.clone();
            let id = handle.allocate().unwrap();
            let mut img = vec![0u8; crate::page::PAGE_SIZE];
            img[0] = 7;
            handle.write_page(id, &img).unwrap();
        }
        let mut reader = shared;
        assert_eq!(reader.read_page(0).unwrap()[0], 7);
    }
}
