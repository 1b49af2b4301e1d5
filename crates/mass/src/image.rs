//! A store's image: the pages, blob heap and catalog that a checkpoint
//! makes reopenable, taken as a list of parts and installed into a fresh
//! pager, which then opens as a restart opens a store.
//!
//! FLEX keys record a document's history, not its text: a write
//! relabels nothing, so after deletes and inserts a re-load of the same
//! text assigns other keys. A follower that must name the primary's keys
//! in every later frame is therefore rebuilt from the primary's pages.
//!
//! Each part is the payload of one replication frame
//! ([`crate::wal::encode_frame`]), so every byte shipped is CRC-checked:
//!
//! ```text
//! P <page image, PAGE_SIZE bytes>        one per page, in page-id order
//! B <blob bytes, 1..=IMAGE_CHUNK>        the blob heap, in order
//! C <catalog bytes, ..=IMAGE_CHUNK>      the catalog, in order
//! E <pages u32> <blob bytes u64>         the end: the totals before it
//! ```
//!
//! The install writes an empty store's catalog first and the image's own
//! catalog last. The catalog is the commit point: a cut before it
//! reopens as an empty store (recovery drops the records no document
//! owns), a cut after it as the whole image.

use crate::error::{MassError, Result};
use crate::page::PAGE_SIZE;
use crate::pager::{FilePager, PageStore};
use crate::store::MassStore;
use crate::wal::{FileWalBackend, FsyncPolicy, WalBackend};
use std::path::Path;

/// Blob-heap or catalog bytes per part.
const IMAGE_CHUNK: usize = PAGE_SIZE;

/// Bytes of the longest part: a tag and one page.
pub const IMAGE_PART_MAX: usize = 1 + PAGE_SIZE;

const PAGE: u8 = b'P';
const BLOB: u8 = b'B';
const CATALOG: u8 = b'C';
const END: u8 = b'E';

fn part(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(tag);
    out.extend_from_slice(body);
    out
}

fn bad(msg: impl Into<String>) -> MassError {
    MassError::CorruptRecord(format!("store image: {}", msg.into()))
}

/// True for an image's last part.
pub fn is_end(part: &[u8]) -> bool {
    part.first() == Some(&END)
}

impl MassStore {
    /// This store's image at its last committed LSN: every page and the
    /// blob heap as stored, and the catalog a checkpoint would write now,
    /// ending with the [`is_end`] part. Pages are written through on
    /// every mutation, so the image is consistent while no write runs
    /// beside this call (the engine's read lock holds writes off).
    pub fn image(&self) -> Result<Vec<Vec<u8>>> {
        let pages = self.pool.page_count();
        let mut parts = Vec::new();
        for id in 0..pages {
            parts.push(part(PAGE, &self.pool.page_image(id)?));
        }
        let blob_len = self.pool.blob_len();
        let mut at = 0;
        while at < blob_len {
            let len = (blob_len - at).min(IMAGE_CHUNK as u64) as u32;
            parts.push(part(BLOB, &self.pool.read_blob(at, len)?));
            at += u64::from(len);
        }
        // The installed log starts after this store's last commit.
        let catalog = self.encode_catalog(self.replicated_lsn() + 1);
        parts.extend(catalog.chunks(IMAGE_CHUNK).map(|c| part(CATALOG, c)));
        let mut end = pages.to_le_bytes().to_vec();
        end.extend_from_slice(&blob_len.to_le_bytes());
        parts.push(part(END, &end));
        Ok(parts)
    }

    /// Writes the image `parts` into `pager`, which must be empty, and
    /// opens it with [`MassStore::open_with_wal`] over `backend`, which
    /// is emptied first: no earlier log may replay onto the image.
    pub fn install_image(
        mut pager: Box<dyn PageStore>,
        capacity: usize,
        mut backend: Box<dyn WalBackend>,
        policy: FsyncPolicy,
        parts: &[Vec<u8>],
    ) -> Result<MassStore> {
        backend.truncate(0)?;
        write_image(pager.as_mut(), parts)?;
        MassStore::open_with_wal(pager, capacity, backend, policy)
    }

    /// [`MassStore::install_image`] into the files
    /// [`MassStore::create_durable`] makes at `path`, truncating them, the
    /// log first.
    pub fn install_durable<P: AsRef<Path>>(
        path: P,
        capacity: usize,
        policy: FsyncPolicy,
        parts: &[Vec<u8>],
    ) -> Result<MassStore> {
        let backend = FileWalBackend::create(FilePager::wal_path(path.as_ref()))?;
        let pager = FilePager::create(path)?;
        Self::install_image(Box::new(pager), capacity, Box::new(backend), policy, parts)
    }
}

fn write_image(pager: &mut dyn PageStore, parts: &[Vec<u8>]) -> Result<()> {
    if pager.page_count() != 0 || pager.blob_len() != 0 {
        return Err(bad("the pager is not empty"));
    }
    // Until the image's own catalog lands, the pager reopens as this
    // empty store.
    pager.write_catalog(&MassStore::open_memory_with_capacity(1).encode_catalog(0))?;
    let mut catalog = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        match p.split_first() {
            Some((&PAGE, page)) if page.len() == PAGE_SIZE => {
                let id = pager.allocate()?;
                pager.write_page(id, page)?;
            }
            Some((&BLOB, bytes)) if !bytes.is_empty() => {
                pager.append_blob(bytes)?;
            }
            Some((&CATALOG, bytes)) => catalog.extend_from_slice(bytes),
            Some((&END, totals)) if i + 1 == parts.len() && totals.len() == 12 => {
                let pages = u32::from_le_bytes(totals[..4].try_into().expect("4 bytes"));
                let blob_len = u64::from_le_bytes(totals[4..].try_into().expect("8 bytes"));
                if (pages, blob_len) != (pager.page_count(), pager.blob_len()) {
                    return Err(bad("the parts do not add up to the totals"));
                }
                pager.sync()?;
                return pager.write_catalog(&catalog);
            }
            _ => return Err(bad(format!("part {i} is malformed"))),
        }
    }
    Err(bad("no end part"))
}
