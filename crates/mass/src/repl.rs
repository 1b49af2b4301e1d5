//! Replication: a retained feed of committed WAL frames plus the
//! follower-side apply path.
//!
//! A primary [`MassStore`] with an attached [`ReplicationLog`] publishes
//! every committed operation — updates *and* bulk loads (as
//! [`WalRecord::LoadDocument`]) — into an in-memory ring of `(lsn,
//! payload)` pairs. Feed connections read frames out of the ring and ship
//! them byte-identically to the on-disk WAL framing
//! ([`crate::wal::encode_frame`]), so a follower can persist what it
//! receives without re-framing and replay it through the exact recovery
//! path a crash would use.
//!
//! ## Checkpoints never strand followers
//!
//! [`MassStore::checkpoint`] truncates the *file* log but leaves the
//! replication ring untouched: retention is governed only by the ring's
//! frame budget. A follower whose resume LSN has aged out of the ring
//! (`from < floor`) is sent the store's image instead ([`crate::image`]):
//! its pages, blob heap and catalog, which the follower opens as a
//! restart opens a store, keys and all. A written document's keys record
//! its history, so a re-load of its text would not reproduce them.

use crate::error::{MassError, Result};
use crate::footprint::Footprint;
use crate::store::MassStore;
use crate::wal::WalRecord;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default number of committed frames a primary retains for catch-up.
pub const DEFAULT_RETAIN_FRAMES: usize = 1 << 16;

/// Counters describing the replication ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplLogStats {
    /// Highest LSN that has been discarded from the ring (0 = none):
    /// followers at or above this can stream, below it they must
    /// snapshot.
    pub floor_lsn: u64,
    /// LSN of the newest retained frame (0 when empty).
    pub last_lsn: u64,
    /// Frames currently retained.
    pub retained: usize,
    /// Frames appended since the log was attached.
    pub appended: u64,
}

struct LogInner {
    /// Retained committed frames: `(lsn, encoded WalRecord payload)`,
    /// contiguous LSNs, oldest first.
    frames: VecDeque<(u64, Arc<Vec<u8>>)>,
    /// Highest discarded (or never-captured) LSN.
    floor: u64,
    /// LSN of the newest frame ever appended.
    last: u64,
    /// Retention budget in frames.
    retain: usize,
    appended: u64,
}

/// A shared, bounded ring of committed WAL frames — the source every
/// replication feed reads from. Clones share the same ring.
#[derive(Clone)]
pub struct ReplicationLog {
    inner: Arc<(Mutex<LogInner>, Condvar)>,
}

impl std::fmt::Debug for ReplicationLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ReplicationLog")
            .field("floor", &s.floor_lsn)
            .field("last", &s.last_lsn)
            .field("retained", &s.retained)
            .finish()
    }
}

impl ReplicationLog {
    /// An empty ring retaining up to `retain` frames. `floor` marks the
    /// history that predates the ring (a store attaching mid-life passes
    /// its last committed LSN).
    pub fn new(retain: usize, floor: u64) -> Self {
        ReplicationLog {
            inner: Arc::new((
                Mutex::new(LogInner {
                    frames: VecDeque::new(),
                    floor,
                    last: floor,
                    retain: retain.max(1),
                    appended: 0,
                }),
                Condvar::new(),
            )),
        }
    }

    /// Publishes one committed batch (data records then the commit
    /// marker, with their log LSNs) and wakes waiting feeds.
    pub fn publish(&self, frames: &[(u64, Arc<Vec<u8>>)]) {
        if frames.is_empty() {
            return;
        }
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock().unwrap_or_else(|p| p.into_inner());
        for (lsn, payload) in frames {
            inner.frames.push_back((*lsn, Arc::clone(payload)));
            inner.last = *lsn;
            inner.appended += 1;
        }
        while inner.frames.len() > inner.retain {
            if let Some((lsn, _)) = inner.frames.pop_front() {
                inner.floor = lsn;
            }
        }
        cvar.notify_all();
    }

    /// Frames with LSN strictly greater than `from`, up to `max` of
    /// them. `None` means `from` has aged out of retention and the
    /// follower needs a snapshot.
    pub fn frames_after(&self, from: u64, max: usize) -> Option<Vec<(u64, Arc<Vec<u8>>)>> {
        let (lock, _) = &*self.inner;
        let inner = lock.lock().unwrap_or_else(|p| p.into_inner());
        if from < inner.floor {
            return None;
        }
        Some(
            inner
                .frames
                .iter()
                .skip_while(|(lsn, _)| *lsn <= from)
                .take(max)
                .map(|(lsn, p)| (*lsn, Arc::clone(p)))
                .collect(),
        )
    }

    /// Blocks until a frame newer than `lsn` exists (true) or `timeout`
    /// elapses (false).
    pub fn wait_beyond(&self, lsn: u64, timeout: Duration) -> bool {
        let (lock, cvar) = &*self.inner;
        let mut inner = lock.lock().unwrap_or_else(|p| p.into_inner());
        let deadline = std::time::Instant::now() + timeout;
        while inner.last <= lsn {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = cvar
                .wait_timeout(inner, left)
                .unwrap_or_else(|p| p.into_inner());
            inner = guard;
        }
        true
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ReplLogStats {
        let (lock, _) = &*self.inner;
        let inner = lock.lock().unwrap_or_else(|p| p.into_inner());
        ReplLogStats {
            floor_lsn: inner.floor,
            last_lsn: inner.last,
            retained: inner.frames.len(),
            appended: inner.appended,
        }
    }
}

impl MassStore {
    /// Attaches a replication ring retaining `retain` committed frames.
    /// Requires a durable store (LSNs come from the WAL). History
    /// committed before the attach is below the ring's floor: followers
    /// starting from scratch receive a snapshot instead.
    pub fn attach_replication(&mut self, retain: usize) -> Result<ReplicationLog> {
        if self.wal.is_none() {
            return Err(MassError::InvalidUpdate(
                "replication requires a durable store".into(),
            ));
        }
        let log = ReplicationLog::new(retain, self.replicated_lsn());
        self.repl = Some(log.clone());
        Ok(log)
    }

    /// The attached replication ring, if any.
    pub fn replication_log(&self) -> Option<ReplicationLog> {
        self.repl.clone()
    }

    /// LSN of the last durably committed operation (0 for volatile
    /// stores or before the first commit). Survives restarts: the WAL
    /// header/catalog floor carries it across reopen.
    pub fn replicated_lsn(&self) -> u64 {
        self.wal
            .as_ref()
            .map(|w| w.last_committed_lsn())
            .unwrap_or(0)
    }

    /// Fsync policy of the WAL (`None` for volatile stores).
    pub fn fsync_policy(&self) -> Option<crate::wal::FsyncPolicy> {
        self.wal.as_ref().map(|w| w.policy())
    }

    /// Applies one committed batch received from a primary: the frames
    /// are appended to this store's own WAL under the *primary's* LSNs
    /// (contiguity enforced — a gap aborts with the log rolled back),
    /// sealed by the batch's commit marker, and only then applied in
    /// replay mode by the apply path of [`MassStore::commit`], which moves
    /// the touched documents' generations as a local write does. Returns
    /// the nodes the batch inserted or removed.
    pub fn apply_replicated(&mut self, frames: &[(u64, WalRecord)]) -> Result<Footprint> {
        let Some((last, _)) = frames.split_last() else {
            return Ok(Footprint::default());
        };
        if !matches!(last.1, WalRecord::Commit) {
            return Err(MassError::InvalidUpdate(
                "replicated batch must end with a commit marker".into(),
            ));
        }
        let Some(wal) = self.wal.as_mut() else {
            return Err(MassError::InvalidUpdate(
                "replica store must be durable".into(),
            ));
        };
        for (lsn, rec) in frames {
            if let Err(e) = wal.append_external(*lsn, rec) {
                wal.rollback().ok();
                return Err(e);
            }
        }
        // Log is durable; now redo into the pages. Replay-mode apply is
        // idempotent, so an overlap after reconnect is harmless.
        let footprint = self.apply(frames.iter().map(|(_, rec)| rec), true)?;
        // Cascade: a follower with its own ring can feed further
        // followers.
        if let Some(log) = &self.repl {
            let encoded: Vec<(u64, Arc<Vec<u8>>)> = frames
                .iter()
                .map(|(lsn, rec)| (*lsn, Arc::new(rec.encode())))
                .collect();
            log.publish(&encoded);
        }
        Ok(footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemoryPager;
    use crate::wal::{FsyncPolicy, MemWalBackend};

    fn durable_store() -> MassStore {
        MassStore::create_with_wal(
            Box::new(MemoryPager::new()),
            64,
            Box::new(MemWalBackend::new()),
            FsyncPolicy::Never,
        )
        .unwrap()
    }

    #[test]
    fn ring_retention_moves_the_floor() {
        let log = ReplicationLog::new(4, 0);
        let frames: Vec<_> = (1..=6u64).map(|l| (l, Arc::new(vec![l as u8]))).collect();
        log.publish(&frames);
        let s = log.stats();
        assert_eq!((s.floor_lsn, s.last_lsn, s.retained), (2, 6, 4));
        // Below the floor: snapshot required.
        assert!(log.frames_after(1, 100).is_none());
        // At the floor: the retained tail streams.
        let tail = log.frames_after(2, 100).unwrap();
        assert_eq!(
            tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            [3, 4, 5, 6]
        );
        assert!(log.frames_after(6, 100).unwrap().is_empty());
    }

    #[test]
    fn commits_and_loads_enter_the_ring() {
        let mut primary = durable_store();
        let log = primary.attach_replication(1024).unwrap();
        primary.load_xml("d", "<r><a/></r>").unwrap();
        let after_load = log.stats();
        assert!(after_load.retained >= 2, "load + commit frames retained");
        let root = {
            let id = primary.name_id("r").unwrap();
            vamana_flex::FlexKey::from_flat_slice(
                primary.name_index().elements(id).iter().next().unwrap(),
            )
        };
        primary.append_element(&root, "b").unwrap();
        assert_eq!(log.stats().last_lsn, primary.replicated_lsn());
        // A checkpoint truncates the file log but not the ring.
        primary.checkpoint().unwrap();
        assert_eq!(log.stats().last_lsn, after_load.last_lsn + 2);
        assert!(log.frames_after(0, 100).is_some());
    }

    #[test]
    fn apply_replicated_reproduces_the_primary() {
        let mut primary = durable_store();
        let log = primary.attach_replication(1024).unwrap();
        primary.load_xml("d", "<r><a>1</a></r>").unwrap();
        let root = {
            let id = primary.name_id("r").unwrap();
            vamana_flex::FlexKey::from_flat_slice(
                primary.name_index().elements(id).iter().next().unwrap(),
            )
        };
        let e = primary.append_element(&root, "b").unwrap();
        primary.append_text(&e, "two").unwrap();
        let a = {
            let id = primary.name_id("a").unwrap();
            vamana_flex::FlexKey::from_flat_slice(
                primary.name_index().elements(id).iter().next().unwrap(),
            )
        };
        primary.delete_subtree(&a).unwrap();

        // Replay the ring on a fresh follower, batch by commit marker.
        let mut follower = durable_store();
        let mut batch: Vec<(u64, WalRecord)> = Vec::new();
        for (lsn, payload) in log.frames_after(0, usize::MAX).unwrap() {
            let rec = WalRecord::decode(&payload).unwrap();
            let is_commit = matches!(rec, WalRecord::Commit);
            batch.push((lsn, rec));
            if is_commit {
                follower.apply_replicated(&batch).unwrap();
                batch.clear();
            }
        }
        assert_eq!(follower.replicated_lsn(), primary.replicated_lsn());
        assert_eq!(follower.documents().len(), 1);
        let doc = follower.documents()[0].doc_key.clone();
        assert_eq!(
            crate::export::export_subtree_xml(&follower, &doc).unwrap(),
            crate::export::export_subtree_xml(&primary, &primary.documents()[0].doc_key.clone())
                .unwrap()
        );
        assert_eq!(follower.stats().tuples, primary.stats().tuples);
        // Plan-cache hook: the replicated writes bumped the doc generation.
        assert!(follower.doc_generation(crate::store::DocId(0)) > 0);
        // Re-applying the same batch after "reconnect overlap" is rejected
        // by LSN contiguity, not silently double-applied.
        let overlap: Vec<(u64, WalRecord)> = log
            .frames_after(0, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(l, p)| (l, WalRecord::decode(&p).unwrap()))
            .collect();
        assert!(follower.apply_replicated(&overlap).is_err());
        assert_eq!(follower.replicated_lsn(), primary.replicated_lsn());
    }

    /// A follower's apply of a primary's batch notes what the primary's
    /// commit noted, and moves the document's generation once per batch.
    #[test]
    fn a_replicated_batch_notes_the_primarys_footprint() {
        let mut primary = durable_store();
        let log = primary.attach_replication(1024).unwrap();
        primary.load_xml("d", "<r><a k='1'>x</a><b/></r>").unwrap();
        let doc = primary.documents()[0].doc_key.clone();
        let root = primary.last_child_key(&doc).unwrap().unwrap();
        let fragment = primary.plan_fragment(&root, "<n m='2'>y<o/></n>").unwrap();
        let deletes = [0, 1].map(|i| WalRecord::DeleteSubtree {
            key: root.child(&vamana_flex::seq_label(i)),
        });
        let writes = [
            primary.commit(&fragment).unwrap(),
            primary.commit(&deletes).unwrap(),
        ];

        let mut follower = durable_store();
        let mut batch: Vec<(u64, WalRecord)> = Vec::new();
        let mut noted = Vec::new();
        let mut generations = Vec::new();
        for (lsn, payload) in log.frames_after(0, usize::MAX).unwrap() {
            let rec = WalRecord::decode(&payload).unwrap();
            let is_commit = matches!(rec, WalRecord::Commit);
            batch.push((lsn, rec));
            if is_commit {
                noted.push(follower.apply_replicated(&batch).unwrap());
                generations.push(follower.doc_generation(crate::store::DocId(0)));
                batch.clear();
            }
        }
        // The load, then the two writes.
        assert_eq!(noted.len(), 3);
        assert_eq!(noted[1..], writes[..]);
        assert!(writes.iter().all(|w| !w.is_empty()));
        assert_eq!(generations, [0, 1, 2]);
    }

    /// A follower that installed a primary's image takes the primary's
    /// next frame: the image's catalog starts its log after the snapshot.
    #[test]
    fn an_installed_image_takes_the_primarys_next_frame() {
        let mut primary = durable_store();
        let log = primary.attach_replication(1024).unwrap();
        primary.load_xml("d", "<r/>").unwrap();
        let snap = primary.replicated_lsn();
        let mut follower = MassStore::install_image(
            Box::new(MemoryPager::new()),
            64,
            Box::new(MemWalBackend::new()),
            FsyncPolicy::Never,
            &primary.image().unwrap(),
        )
        .unwrap();
        assert_eq!(follower.replicated_lsn(), snap);
        primary.load_xml("x", "<x/>").unwrap();
        let batch: Vec<(u64, WalRecord)> = log
            .frames_after(snap, usize::MAX)
            .unwrap()
            .into_iter()
            .map(|(lsn, payload)| (lsn, WalRecord::decode(&payload).unwrap()))
            .collect();
        follower.apply_replicated(&batch).unwrap();
        assert_eq!(follower.replicated_lsn(), primary.replicated_lsn());
        assert!(follower.document_by_name("x").is_some());
    }
}
