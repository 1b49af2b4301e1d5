//! Logical write-ahead log for durable updates.
//!
//! Every structural mutation of a [`crate::store::MassStore`] is recorded
//! here *before* it touches a data page. Records are **keyed and
//! idempotent**: they carry the FLEX keys the mutation was planned with,
//! so replay after a crash converges on any partially-written page state
//! (an insert whose key is already present is skipped; a subtree delete
//! of absent keys is a no-op). Pages are written through the buffer pool
//! only after the operation's records are committed to the log, so the
//! page file can trail the log but never lead it — recovery is pure redo.
//!
//! ## Frame format
//!
//! The log file starts with a 13-byte header (`b"VWAL1"` magic + the
//! `u64` LSN the first frame will carry), followed by frames:
//!
//! ```text
//! [len: u32 LE] [lsn: u64 LE] [crc: u32 LE] [payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over `lsn || payload`. LSNs are assigned
//! sequentially; a gap, CRC mismatch, or short frame marks the torn tail.
//! Operations end with a [`WalRecord::Commit`] marker frame: on open,
//! everything after the **last** commit marker — torn bytes *and* intact
//! but uncommitted frames — is discarded and truncated away, giving
//! exact committed-prefix semantics at operation granularity.
//!
//! ## Group commit
//!
//! [`FsyncPolicy`] controls when the backend is fsynced: `Always` (one
//! fsync per commit), `EveryN(n)` (one fsync per `n` commits — group
//! commit), or `Never` (tests, or callers content with OS-crash-only
//! durability).

use crate::error::Result;
use std::io::{Read, Seek, SeekFrom};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};
use vamana_flex::FlexKey;

/// Magic prefix of a WAL file.
const MAGIC: &[u8; 5] = b"VWAL1";
/// Header: magic + start LSN.
const HEADER_LEN: usize = 5 + 8;
/// Frame prefix: len + lsn + crc.
const FRAME_HEADER: usize = 4 + 8 + 4;

/// Size of the `[len][lsn][crc]` prefix of every frame — shared with the
/// replication feed, which ships WAL frames byte-identically on the wire.
pub const FRAME_HEADER_LEN: usize = FRAME_HEADER;

/// Encodes one frame exactly as it is laid out in the log file:
/// `[len: u32 LE][lsn: u64 LE][crc: u32 LE][payload]`, with the CRC over
/// `lsn || payload`. The replication feed reuses this encoding on the
/// wire so followers persist received frames without re-framing.
pub fn encode_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&lsn.to_le_bytes());
    let mut checked = Vec::with_capacity(8 + payload.len());
    checked.extend_from_slice(&lsn.to_le_bytes());
    checked.extend_from_slice(payload);
    frame.extend_from_slice(&crc32(&checked).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Verifies a received frame's CRC (over `lsn || payload`).
pub fn verify_frame(lsn: u64, payload: &[u8], crc: u32) -> bool {
    let mut checked = Vec::with_capacity(8 + payload.len());
    checked.extend_from_slice(&lsn.to_le_bytes());
    checked.extend_from_slice(payload);
    crc32(&checked) == crc
}

/// When the log backend is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Fsync on every commit marker (full durability).
    Always,
    /// Fsync every `n` commits — group commit: up to `n - 1` acknowledged
    /// operations may be lost on power failure, none on process crash.
    EveryN(u32),
    /// Never fsync (tests; durability limited to OS page-cache flushes).
    Never,
}

/// Counters describing the log's activity and current depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Data records appended since this handle opened the log.
    pub records: u64,
    /// Commit markers appended since open.
    pub commits: u64,
    /// Fsyncs issued since open.
    pub fsyncs: u64,
    /// Data records currently in the log (since the last checkpoint).
    pub depth: u64,
    /// LSN of the most recent frame (0 when the log is empty).
    pub last_lsn: u64,
    /// LSN of the last record replayed at open (0 if none).
    pub replayed_lsn: u64,
    /// Number of records replayed at open.
    pub replayed_records: u64,
    /// LSN the log's first frame carries (the header LSN): everything
    /// below it has been folded into the page file by a checkpoint.
    pub start_lsn: u64,
}

/// One logical update record. Inserts carry the FLEX key assigned at
/// plan time plus the *name string* (not the interned id): replay
/// re-interns in LSN order, reproducing the exact id sequence on top of
/// the checkpointed catalog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A new element record at `key`.
    InsertElement {
        /// Assigned FLEX key.
        key: FlexKey,
        /// Element name (interned on apply).
        name: String,
    },
    /// A new text record at `key`.
    InsertText {
        /// Assigned FLEX key.
        key: FlexKey,
        /// Text content.
        value: String,
    },
    /// A new attribute record at `key`.
    InsertAttribute {
        /// Assigned FLEX key.
        key: FlexKey,
        /// Attribute name (interned on apply).
        name: String,
        /// Attribute value.
        value: String,
    },
    /// Removal of the whole subtree rooted at `key`.
    DeleteSubtree {
        /// Subtree root key.
        key: FlexKey,
    },
    /// Commit marker: all frames since the previous marker form one
    /// atomic operation.
    Commit,
    /// A whole-document bulk load, carried as the XML text the caller
    /// loaded. The loader assigns FLEX keys deterministically from
    /// document structure and ordinal, so replaying the text reproduces
    /// the exact key sequence; replay skips the record when a document of
    /// this name already exists. Durable stores log this once the text
    /// has passed the load's dry run and *before* the bulk page writes,
    /// so loads enter the replication stream and a logged load always
    /// replays (live loads still checkpoint immediately afterwards,
    /// truncating the record from the local log).
    LoadDocument {
        /// Registry name of the document.
        name: String,
        /// The XML text of the document, as loaded.
        xml: String,
    },
}

impl WalRecord {
    /// The key of the node an insert or delete record writes.
    pub(crate) fn key(&self) -> Option<&FlexKey> {
        match self {
            WalRecord::InsertElement { key, .. }
            | WalRecord::InsertText { key, .. }
            | WalRecord::InsertAttribute { key, .. }
            | WalRecord::DeleteSubtree { key } => Some(key),
            WalRecord::LoadDocument { .. } | WalRecord::Commit => None,
        }
    }

    /// Serializes the record to its log payload (also the wire payload
    /// of the replication feed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            WalRecord::InsertElement { key, name } => {
                out.push(1);
                put_bytes(&mut out, key.as_flat());
                put_bytes(&mut out, name.as_bytes());
            }
            WalRecord::InsertText { key, value } => {
                out.push(2);
                put_bytes(&mut out, key.as_flat());
                put_bytes(&mut out, value.as_bytes());
            }
            WalRecord::InsertAttribute { key, name, value } => {
                out.push(3);
                put_bytes(&mut out, key.as_flat());
                put_bytes(&mut out, name.as_bytes());
                put_bytes(&mut out, value.as_bytes());
            }
            WalRecord::DeleteSubtree { key } => {
                out.push(4);
                put_bytes(&mut out, key.as_flat());
            }
            WalRecord::Commit => out.push(5),
            WalRecord::LoadDocument { name, xml } => {
                out.push(6);
                put_bytes(&mut out, name.as_bytes());
                put_bytes(&mut out, xml.as_bytes());
            }
        }
        out
    }

    /// Parses a log payload back into a record (`None` on corruption).
    pub fn decode(payload: &[u8]) -> Option<WalRecord> {
        let (&tag, mut rest) = payload.split_first()?;
        let rec = match tag {
            1 => WalRecord::InsertElement {
                key: take_key(&mut rest)?,
                name: take_string(&mut rest)?,
            },
            2 => WalRecord::InsertText {
                key: take_key(&mut rest)?,
                value: take_string(&mut rest)?,
            },
            3 => WalRecord::InsertAttribute {
                key: take_key(&mut rest)?,
                name: take_string(&mut rest)?,
                value: take_string(&mut rest)?,
            },
            4 => WalRecord::DeleteSubtree {
                key: take_key(&mut rest)?,
            },
            5 => WalRecord::Commit,
            6 => WalRecord::LoadDocument {
                name: take_string(&mut rest)?,
                xml: take_string(&mut rest)?,
            },
            _ => return None,
        };
        if rest.is_empty() {
            Some(rec)
        } else {
            None
        }
    }
}

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn take_bytes(rest: &mut &[u8]) -> Option<Vec<u8>> {
    if rest.len() < 4 {
        return None;
    }
    let len = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
    if rest.len() < 4 + len {
        return None;
    }
    let out = rest[4..4 + len].to_vec();
    *rest = &rest[4 + len..];
    Some(out)
}

/// A FLEX key, refused unless well-formed: the replication feed hands
/// this decoder frames from a primary the follower does not control.
fn take_key(rest: &mut &[u8]) -> Option<FlexKey> {
    let flat = take_bytes(rest)?;
    FlexKey::is_valid_flat(&flat).then(|| FlexKey::from_flat(flat))
}

fn take_string(rest: &mut &[u8]) -> Option<String> {
    String::from_utf8(take_bytes(rest)?).ok()
}

/// CRC-32 (IEEE 802.3), bitwise — log frames are small and appends are
/// dominated by the fsync, so a table-free implementation suffices.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Byte storage under the log: a growable, truncatable, syncable tape.
pub trait WalBackend: Send + Sync {
    /// Reads the whole log image.
    fn read_all(&mut self) -> Result<Vec<u8>>;
    /// Appends bytes at the end.
    fn append(&mut self, bytes: &[u8]) -> Result<()>;
    /// Flushes appended bytes to durable storage.
    fn sync(&mut self) -> Result<()>;
    /// Truncates the log to `len` bytes.
    fn truncate(&mut self, len: u64) -> Result<()>;
}

/// File-backed log storage.
#[derive(Debug)]
pub struct FileWalBackend {
    file: std::fs::File,
    len: u64,
}

impl FileWalBackend {
    /// Creates (truncating) a log file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileWalBackend { file, len: 0 })
    }

    /// Opens (or creates empty) a log file at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileWalBackend { file, len })
    }
}

impl WalBackend for FileWalBackend {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut out = Vec::new();
        self.file.read_to_end(&mut out)?;
        Ok(out)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.file.write_all_at(bytes, self.len)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.len = len;
        Ok(())
    }
}

/// In-memory log storage over a shared buffer; clones share the same
/// bytes, so a test can "crash" a store (drop it) and reopen from the
/// surviving log image.
#[derive(Debug, Clone, Default)]
pub struct MemWalBackend(Arc<Mutex<Vec<u8>>>);

impl MemWalBackend {
    /// A fresh empty shared log buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current length of the shared image (test introspection).
    pub fn len(&self) -> usize {
        self.0.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl WalBackend for MemWalBackend {
    fn read_all(&mut self) -> Result<Vec<u8>> {
        Ok(self.0.lock().unwrap_or_else(|p| p.into_inner()).clone())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<()> {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> Result<()> {
        self.0
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .truncate(len as usize);
        Ok(())
    }
}

/// The write-ahead log: append/commit on the hot path, parse/repair on
/// open, truncate on checkpoint.
pub struct Wal {
    backend: Box<dyn WalBackend>,
    policy: FsyncPolicy,
    /// LSN the next appended frame will carry.
    next_lsn: u64,
    /// `next_lsn` as of the last durable commit marker (rollback target).
    committed_next_lsn: u64,
    /// Current byte length of the log.
    len: u64,
    /// Byte length of the committed prefix (end of the last commit frame).
    committed_len: u64,
    stats: WalStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("next_lsn", &self.next_lsn)
            .field("depth", &self.stats.depth)
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

fn header_bytes(start_lsn: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(MAGIC);
    h.extend_from_slice(&start_lsn.to_le_bytes());
    h
}

impl Wal {
    /// Initializes an empty log on `backend` (truncates any content).
    pub fn create(mut backend: Box<dyn WalBackend>, policy: FsyncPolicy) -> Result<Wal> {
        backend.truncate(0)?;
        backend.append(&header_bytes(1))?;
        backend.sync()?;
        Ok(Wal {
            backend,
            policy,
            next_lsn: 1,
            committed_next_lsn: 1,
            len: HEADER_LEN as u64,
            committed_len: HEADER_LEN as u64,
            stats: WalStats {
                start_lsn: 1,
                ..WalStats::default()
            },
        })
    }

    /// Opens an existing log, parses the committed prefix, truncates
    /// everything after the last commit marker (torn bytes and intact but
    /// uncommitted frames alike), and returns the committed records for
    /// replay. `lsn_floor` is the checkpoint LSN recorded in the catalog:
    /// the next assigned LSN never falls below it, keeping LSNs monotonic
    /// even when the log header was lost mid-checkpoint.
    pub fn open(
        mut backend: Box<dyn WalBackend>,
        policy: FsyncPolicy,
        lsn_floor: u64,
    ) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        let bytes = backend.read_all()?;
        if bytes.len() < HEADER_LEN || &bytes[..MAGIC.len()] != MAGIC {
            // Empty or torn header (crash mid-checkpoint-truncation): the
            // checkpoint that was truncating already folded every record
            // into the pages, so resetting to an empty log is exact.
            let start = lsn_floor.max(1);
            backend.truncate(0)?;
            backend.append(&header_bytes(start))?;
            backend.sync()?;
            let wal = Wal {
                backend,
                policy,
                next_lsn: start,
                committed_next_lsn: start,
                len: HEADER_LEN as u64,
                committed_len: HEADER_LEN as u64,
                stats: WalStats {
                    start_lsn: start,
                    ..WalStats::default()
                },
            };
            return Ok((wal, Vec::new()));
        }
        let header_lsn = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes")).max(1);
        let mut expected = header_lsn;
        let mut at = HEADER_LEN;
        let mut committed: Vec<(u64, WalRecord)> = Vec::new();
        let mut pending: Vec<(u64, WalRecord)> = Vec::new();
        let mut committed_end = HEADER_LEN;
        let mut committed_next = header_lsn;
        while at + FRAME_HEADER <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4")) as usize;
            let end = at + FRAME_HEADER + len;
            if end > bytes.len() {
                break; // torn tail: frame extends past the file
            }
            let lsn = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().expect("8"));
            let crc = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().expect("4"));
            let payload = &bytes[at + FRAME_HEADER..end];
            if lsn != expected {
                break; // LSN discontinuity: corruption
            }
            let mut checked = Vec::with_capacity(8 + payload.len());
            checked.extend_from_slice(&lsn.to_le_bytes());
            checked.extend_from_slice(payload);
            if crc32(&checked) != crc {
                break; // torn or corrupt frame
            }
            let Some(rec) = WalRecord::decode(payload) else {
                break;
            };
            expected += 1;
            at = end;
            if matches!(rec, WalRecord::Commit) {
                committed.append(&mut pending);
                committed_end = at;
                committed_next = expected;
            } else {
                pending.push((lsn, rec));
            }
        }
        if (committed_end as u64) < bytes.len() as u64 {
            backend.truncate(committed_end as u64)?;
            backend.sync()?;
        }
        // The next LSN continues after the last *surviving* frame (the
        // final commit marker), not after frames the truncation just
        // discarded. A replica depends on this: its resume handshake
        // sends `last_committed_lsn()`, and the primary re-streams the
        // interrupted batch under the very LSNs that were torn away, so
        // the contiguity check in `append_external` must expect them.
        let next_lsn = committed_next.max(lsn_floor).max(header_lsn);
        let depth = committed.len() as u64;
        let last_lsn = committed.last().map(|(l, _)| *l).unwrap_or(0);
        let wal = Wal {
            backend,
            policy,
            next_lsn,
            committed_next_lsn: next_lsn,
            len: committed_end as u64,
            committed_len: committed_end as u64,
            stats: WalStats {
                depth,
                last_lsn,
                start_lsn: header_lsn,
                ..WalStats::default()
            },
        };
        Ok((wal, committed))
    }

    fn append_frame(&mut self, rec: &WalRecord) -> Result<u64> {
        let lsn = self.next_lsn;
        let frame = encode_frame(lsn, &rec.encode());
        self.backend.append(&frame)?;
        self.next_lsn += 1;
        self.len += frame.len() as u64;
        self.stats.last_lsn = lsn;
        Ok(lsn)
    }

    /// Appends one data record (unsynced, uncommitted).
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        debug_assert!(!matches!(rec, WalRecord::Commit), "use commit()");
        let lsn = self.append_frame(rec)?;
        self.stats.records += 1;
        self.stats.depth += 1;
        Ok(lsn)
    }

    /// Appends a commit marker and fsyncs per policy, sealing every
    /// record since the previous marker into one atomic operation.
    /// Returns the marker's LSN.
    pub fn commit(&mut self) -> Result<u64> {
        let lsn = self.append_frame(&WalRecord::Commit)?;
        self.seal_commit()?;
        Ok(lsn)
    }

    /// Commit bookkeeping shared by [`Wal::commit`] and
    /// [`Wal::append_external`]: fsync per policy, advance the durable
    /// prefix markers.
    fn seal_commit(&mut self) -> Result<()> {
        self.stats.commits += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => n != 0 && self.stats.commits.is_multiple_of(n as u64),
            FsyncPolicy::Never => false,
        };
        if due {
            self.backend.sync()?;
            self.stats.fsyncs += 1;
        }
        self.committed_len = self.len;
        self.committed_next_lsn = self.next_lsn;
        Ok(())
    }

    /// Appends a record that carries an *externally assigned* LSN — the
    /// replication path, where a follower mirrors the primary's frames
    /// into its own log under the primary's numbering. The LSN must be
    /// exactly the next one this log expects; a gap means frames were
    /// lost in transit and the caller must resync. Commit markers seal
    /// the batch with the usual fsync policy.
    pub fn append_external(&mut self, lsn: u64, rec: &WalRecord) -> Result<u64> {
        if lsn != self.next_lsn {
            return Err(crate::error::MassError::InvalidUpdate(format!(
                "replication LSN gap: log expects {}, stream carries {}",
                self.next_lsn, lsn
            )));
        }
        let got = self.append_frame(rec)?;
        if matches!(rec, WalRecord::Commit) {
            self.seal_commit()?;
        } else {
            self.stats.records += 1;
            self.stats.depth += 1;
        }
        Ok(got)
    }

    /// Re-bases an *empty* log to start at `lsn` — a follower installing
    /// a snapshot taken at `lsn - 1` points its log here so subsequent
    /// [`Wal::append_external`] calls accept the primary's numbering.
    pub fn set_next_lsn(&mut self, lsn: u64) -> Result<()> {
        if self.len != HEADER_LEN as u64 {
            return Err(crate::error::MassError::InvalidUpdate(
                "set_next_lsn requires an empty log (checkpoint first)".into(),
            ));
        }
        self.backend.truncate(0)?;
        self.backend.append(&header_bytes(lsn))?;
        self.backend.sync()?;
        self.next_lsn = lsn;
        self.committed_next_lsn = lsn;
        self.stats.start_lsn = lsn;
        self.stats.last_lsn = 0;
        Ok(())
    }

    /// Discards uncommitted frames after a failed append/commit, so a
    /// later commit marker cannot accidentally seal them.
    pub fn rollback(&mut self) -> Result<()> {
        if self.len > self.committed_len {
            self.backend.truncate(self.committed_len)?;
            self.len = self.committed_len;
            self.next_lsn = self.committed_next_lsn;
        }
        Ok(())
    }

    /// Empties the log after a checkpoint folded it into the page store;
    /// the fresh header carries the next LSN so numbering stays monotonic.
    pub fn truncate_for_checkpoint(&mut self) -> Result<()> {
        self.backend.truncate(0)?;
        self.backend.append(&header_bytes(self.next_lsn))?;
        self.backend.sync()?;
        self.len = HEADER_LEN as u64;
        self.committed_len = self.len;
        self.committed_next_lsn = self.next_lsn;
        self.stats.depth = 0;
        self.stats.start_lsn = self.next_lsn;
        Ok(())
    }

    /// The LSN the next frame will carry.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// LSN of the last durably committed frame (0 when none yet).
    pub fn last_committed_lsn(&self) -> u64 {
        self.committed_next_lsn.saturating_sub(1)
    }

    /// The configured fsync policy.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Records replay results at open (set by the store after it applies
    /// the committed records this handle returned).
    pub(crate) fn note_replayed(&mut self, last_lsn: u64, records: u64) {
        self.stats.replayed_lsn = last_lsn;
        self.stats.replayed_records = records;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> WalRecord {
        WalRecord::InsertElement {
            key: FlexKey::root().child(&vamana_flex::seq_label(i)),
            name: format!("n{i}"),
        }
    }

    fn mem_pair() -> (MemWalBackend, Box<dyn WalBackend>) {
        let shared = MemWalBackend::new();
        let handle: Box<dyn WalBackend> = Box::new(shared.clone());
        (shared, handle)
    }

    #[test]
    fn crc32_known_vector() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn record_codec_round_trips() {
        let recs = [
            rec(0),
            WalRecord::InsertText {
                key: FlexKey::root().child(&vamana_flex::seq_label(1)),
                value: "hello".into(),
            },
            WalRecord::InsertAttribute {
                key: FlexKey::root().child(&vamana_flex::attr_label(0)),
                name: "id".into(),
                value: "p0".into(),
            },
            WalRecord::DeleteSubtree {
                key: FlexKey::root().child(&vamana_flex::seq_label(2)),
            },
            WalRecord::Commit,
            WalRecord::LoadDocument {
                name: "doc".into(),
                xml: "<r><a>1</a></r>".into(),
            },
        ];
        for r in &recs {
            assert_eq!(WalRecord::decode(&r.encode()).as_ref(), Some(r));
        }
        assert_eq!(WalRecord::decode(&[9, 0]), None);
        assert_eq!(WalRecord::decode(&[]), None);
    }

    #[test]
    fn a_key_without_its_terminator_is_refused() {
        // InsertElement, key `[5]`, name "a".
        let payload = [1, 1, 0, 0, 0, 5, 1, 0, 0, 0, b'a'];
        assert_eq!(WalRecord::decode(&payload), None);
        // An empty label (a bare terminator) is malformed too.
        assert_eq!(WalRecord::decode(&[4, 1, 0, 0, 0, 0]), None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 512,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// `decode` returns on any bytes, and whatever it accepts encodes
        /// back to exactly those bytes. Payloads are a tag, length-prefixed
        /// fields over a small alphabet (so keys and strings are often
        /// well-formed) and a few bytes of noise.
        #[test]
        fn decode_is_total_and_round_trips(
            tag in 0u8..8,
            fields in proptest::collection::vec(proptest::collection::vec(0u8..3, 0..6), 0..4),
            noise in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..3),
        ) {
            let mut payload = vec![tag];
            for field in &fields {
                put_bytes(&mut payload, field);
            }
            payload.extend_from_slice(&noise);
            for bytes in [&payload[..], &noise[..]] {
                if let Some(rec) = WalRecord::decode(bytes) {
                    proptest::prop_assert_eq!(rec.encode(), bytes);
                }
            }
        }
    }

    #[test]
    fn append_commit_reopen_replays_committed() {
        let (shared, handle) = mem_pair();
        {
            let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
            wal.append(&rec(0)).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.commit().unwrap();
            wal.append(&rec(2)).unwrap();
            // no commit for rec(2)
        }
        let (wal, records) = Wal::open(Box::new(shared.clone()), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].1, rec(0));
        assert_eq!(records[1].1, rec(1));
        // The uncommitted frame was truncated away.
        assert_eq!(wal.stats().depth, 2);
        let (_, records2) = Wal::open(Box::new(shared), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records2.len(), 2, "open is idempotent");
    }

    #[test]
    fn lsns_are_monotonic_and_sequential() {
        let (_, handle) = mem_pair();
        let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
        let a = wal.append(&rec(0)).unwrap();
        let c1 = wal.commit().unwrap();
        let b = wal.append(&rec(1)).unwrap();
        let c2 = wal.commit().unwrap();
        assert_eq!((a, c1, b, c2), (1, 2, 3, 4));
        assert_eq!(wal.next_lsn(), 5);
    }

    #[test]
    fn byte_level_truncation_discards_torn_tail() {
        let (shared, handle) = mem_pair();
        {
            let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
            wal.append(&rec(0)).unwrap();
            wal.commit().unwrap();
            wal.append(&rec(1)).unwrap();
            wal.commit().unwrap();
        }
        let full = shared.len();
        // Truncate at every byte boundary: the committed prefix must
        // always parse to 0, 1, or 2 records without error.
        for cut in 0..=full {
            let copy = MemWalBackend::new();
            let bytes = shared.clone().read_all().unwrap();
            copy.clone().append(&bytes[..cut]).unwrap();
            let (_, records) = Wal::open(Box::new(copy), FsyncPolicy::Never, 0).unwrap();
            assert!(records.len() <= 2, "cut at {cut}");
        }
        // Untouched log yields both records.
        let (_, records) = Wal::open(Box::new(shared), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn crc_corruption_truncates_from_bad_frame() {
        let (shared, handle) = mem_pair();
        {
            let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
            wal.append(&rec(0)).unwrap();
            wal.commit().unwrap();
            let first_commit_end = shared.len();
            wal.append(&rec(1)).unwrap();
            wal.commit().unwrap();
            // Flip a payload byte in the second operation's first frame.
            let mut bytes = shared.clone().read_all().unwrap();
            bytes[first_commit_end + FRAME_HEADER] ^= 0xFF;
            shared.clone().truncate(0).unwrap();
            shared.clone().append(&bytes).unwrap();
        }
        let (_, records) = Wal::open(Box::new(shared), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records.len(), 1, "corrupt second op discarded");
        assert_eq!(records[0].1, rec(0));
    }

    #[test]
    fn fsync_policy_counts() {
        let (_, h1) = mem_pair();
        let mut always = Wal::create(h1, FsyncPolicy::Always).unwrap();
        let (_, h2) = mem_pair();
        let mut every3 = Wal::create(h2, FsyncPolicy::EveryN(3)).unwrap();
        let (_, h3) = mem_pair();
        let mut never = Wal::create(h3, FsyncPolicy::Never).unwrap();
        for i in 0..6 {
            for w in [&mut always, &mut every3, &mut never] {
                w.append(&rec(i)).unwrap();
                w.commit().unwrap();
            }
        }
        assert_eq!(always.stats().fsyncs, 6);
        assert_eq!(every3.stats().fsyncs, 2);
        assert_eq!(never.stats().fsyncs, 0);
    }

    #[test]
    fn rollback_discards_uncommitted_and_reuses_lsns() {
        let (shared, handle) = mem_pair();
        let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.commit().unwrap();
        let committed = shared.len();
        wal.append(&rec(1)).unwrap();
        wal.rollback().unwrap();
        assert_eq!(shared.len(), committed);
        // The rolled-back LSN is reused, keeping on-disk LSNs contiguous.
        let lsn = wal.append(&rec(2)).unwrap();
        wal.commit().unwrap();
        assert_eq!(lsn, 3);
        let (_, records) = Wal::open(Box::new(shared), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].1, rec(2));
    }

    #[test]
    fn checkpoint_truncation_keeps_lsns_monotonic() {
        let (shared, handle) = mem_pair();
        let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.commit().unwrap();
        wal.truncate_for_checkpoint().unwrap();
        assert_eq!(wal.stats().depth, 0);
        let lsn = wal.append(&rec(1)).unwrap();
        assert!(lsn > 2, "LSNs continue after checkpoint, got {lsn}");
        wal.commit().unwrap();
        let (reopened, records) = Wal::open(Box::new(shared), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].0, lsn);
        assert!(reopened.next_lsn() > lsn);
    }

    #[test]
    fn external_appends_mirror_primary_lsns() {
        let (shared, handle) = mem_pair();
        {
            let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
            wal.set_next_lsn(41).unwrap();
            wal.append_external(41, &rec(0)).unwrap();
            wal.append_external(42, &WalRecord::Commit).unwrap();
            // A gap is rejected without touching the log.
            assert!(wal.append_external(50, &rec(1)).is_err());
            assert_eq!(wal.next_lsn(), 43);
            assert_eq!(wal.last_committed_lsn(), 42);
            // Re-basing a non-empty log is rejected.
            assert!(wal.set_next_lsn(99).is_err());
        }
        let (reopened, records) = Wal::open(Box::new(shared), FsyncPolicy::Never, 0).unwrap();
        assert_eq!(records, vec![(41, rec(0))]);
        assert_eq!(reopened.next_lsn(), 43);
        assert_eq!(reopened.stats().start_lsn, 41);
    }

    #[test]
    fn wire_frames_match_log_frames() {
        let (shared, handle) = mem_pair();
        let mut wal = Wal::create(handle, FsyncPolicy::Never).unwrap();
        wal.append(&rec(7)).unwrap();
        let bytes = shared.clone().read_all().unwrap();
        let on_disk = &bytes[HEADER_LEN..];
        assert_eq!(on_disk, encode_frame(1, &rec(7).encode()).as_slice());
        // And the CRC checks out through the wire-side verifier.
        let payload = &on_disk[FRAME_HEADER..];
        let crc = u32::from_le_bytes(on_disk[12..16].try_into().unwrap());
        assert!(verify_frame(1, payload, crc));
        assert!(!verify_frame(2, payload, crc));
    }

    #[test]
    fn torn_header_resets_with_lsn_floor() {
        let shared = MemWalBackend::new();
        shared.clone().append(b"VW").unwrap(); // torn header
        let (wal, records) = Wal::open(Box::new(shared), FsyncPolicy::Never, 42).unwrap();
        assert!(records.is_empty());
        assert_eq!(wal.next_lsn(), 42);
    }
}
