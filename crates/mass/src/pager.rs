//! Page storage backends.
//!
//! A [`PageStore`] persists fixed-size page images plus an append-only
//! *blob heap* for overflow values. Two backends are provided: an
//! in-memory store for tests and benchmarks, and a file-backed store for
//! documents larger than RAM (the scalability story of the paper).

use crate::error::Result;
use crate::page::PAGE_SIZE;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Abstract page + blob storage.
pub trait PageStore: Send {
    /// Reads the image of page `id`.
    fn read_page(&mut self, id: u32) -> Result<Vec<u8>>;
    /// Writes the image of page `id` (must be `PAGE_SIZE` bytes).
    fn write_page(&mut self, id: u32, image: &[u8]) -> Result<()>;
    /// Allocates a fresh page id.
    fn allocate(&mut self) -> Result<u32>;
    /// Number of allocated pages.
    fn page_count(&self) -> u32;
    /// Appends `bytes` to the blob heap, returning their offset.
    fn append_blob(&mut self, bytes: &[u8]) -> Result<u64>;
    /// Reads `len` blob bytes at `offset`.
    fn read_blob(&mut self, offset: u64, len: u32) -> Result<Vec<u8>>;
    /// Length of the blob heap in bytes.
    fn blob_len(&self) -> u64;
    /// Replaces the durable catalog image (name table, document registry).
    fn write_catalog(&mut self, bytes: &[u8]) -> Result<()>;
    /// Reads the catalog image, empty if never written.
    fn read_catalog(&mut self) -> Result<Vec<u8>>;
    /// Flushes all previously written pages/blobs to durable storage.
    /// No-op for stores without a durability boundary.
    fn sync(&mut self) -> Result<()> {
        Ok(())
    }
}

/// Heap-backed page store for tests, benchmarks and small documents.
#[derive(Debug, Default)]
pub struct MemoryPager {
    pages: Vec<Vec<u8>>,
    blobs: Vec<u8>,
    catalog: Vec<u8>,
}

impl MemoryPager {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl PageStore for MemoryPager {
    fn read_page(&mut self, id: u32) -> Result<Vec<u8>> {
        self.pages
            .get(id as usize)
            .cloned()
            .ok_or(crate::error::MassError::CorruptPage {
                page: id,
                reason: "unallocated".into(),
            })
    }

    fn write_page(&mut self, id: u32, image: &[u8]) -> Result<()> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        let slot = self
            .pages
            .get_mut(id as usize)
            .ok_or(crate::error::MassError::CorruptPage {
                page: id,
                reason: "unallocated".into(),
            })?;
        slot.clear();
        slot.extend_from_slice(image);
        Ok(())
    }

    fn allocate(&mut self) -> Result<u32> {
        let id = self.pages.len() as u32;
        self.pages.push(vec![0u8; PAGE_SIZE]);
        Ok(id)
    }

    fn page_count(&self) -> u32 {
        self.pages.len() as u32
    }

    fn append_blob(&mut self, bytes: &[u8]) -> Result<u64> {
        let offset = self.blobs.len() as u64;
        self.blobs.extend_from_slice(bytes);
        Ok(offset)
    }

    fn read_blob(&mut self, offset: u64, len: u32) -> Result<Vec<u8>> {
        let start = offset as usize;
        let end = start + len as usize;
        if end > self.blobs.len() {
            return Err(crate::error::MassError::CorruptRecord(
                "blob out of range".into(),
            ));
        }
        Ok(self.blobs[start..end].to_vec())
    }

    fn blob_len(&self) -> u64 {
        self.blobs.len() as u64
    }

    fn write_catalog(&mut self, bytes: &[u8]) -> Result<()> {
        self.catalog = bytes.to_vec();
        Ok(())
    }

    fn read_catalog(&mut self) -> Result<Vec<u8>> {
        Ok(self.catalog.clone())
    }
}

/// File-backed page store: pages in `<path>`, blobs in `<path>.blob`.
#[derive(Debug)]
pub struct FilePager {
    pages: File,
    blobs: File,
    catalog_path: std::path::PathBuf,
    page_count: u32,
    blob_len: u64,
}

impl FilePager {
    /// Creates (truncating) a store at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let pages = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path.as_ref())?;
        let blob_path = Self::blob_path(path.as_ref());
        let blobs = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(blob_path)?;
        let catalog_path = Self::catalog_path(path.as_ref());
        std::fs::write(&catalog_path, [])?;
        Ok(FilePager {
            pages,
            blobs,
            catalog_path,
            page_count: 0,
            blob_len: 0,
        })
    }

    /// Opens an existing store at `path`.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let pages = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path.as_ref())?;
        let blobs = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(Self::blob_path(path.as_ref()))?;
        let page_bytes = pages.metadata()?.len();
        let blob_len = blobs.metadata()?.len();
        Ok(FilePager {
            pages,
            blobs,
            catalog_path: Self::catalog_path(path.as_ref()),
            page_count: (page_bytes / PAGE_SIZE as u64) as u32,
            blob_len,
        })
    }

    fn blob_path(path: &Path) -> std::path::PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".blob");
        std::path::PathBuf::from(p)
    }

    fn catalog_path(path: &Path) -> std::path::PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".cat");
        std::path::PathBuf::from(p)
    }

    /// Path of the write-ahead log that accompanies a durable store at
    /// `path` (same suffix convention as `.blob`/`.cat`).
    pub fn wal_path(path: &Path) -> std::path::PathBuf {
        let mut p = path.as_os_str().to_owned();
        p.push(".wal");
        std::path::PathBuf::from(p)
    }
}

impl PageStore for FilePager {
    fn read_page(&mut self, id: u32) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.pages
            .read_exact_at(&mut buf, id as u64 * PAGE_SIZE as u64)?;
        Ok(buf)
    }

    fn write_page(&mut self, id: u32, image: &[u8]) -> Result<()> {
        debug_assert_eq!(image.len(), PAGE_SIZE);
        self.pages
            .write_all_at(image, id as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate(&mut self) -> Result<u32> {
        let id = self.page_count;
        self.page_count += 1;
        // Extend the file eagerly so reads of fresh pages succeed.
        self.pages
            .write_all_at(&[0u8; PAGE_SIZE], id as u64 * PAGE_SIZE as u64)?;
        Ok(id)
    }

    fn page_count(&self) -> u32 {
        self.page_count
    }

    fn append_blob(&mut self, bytes: &[u8]) -> Result<u64> {
        let offset = self.blob_len;
        self.blobs.write_all_at(bytes, offset)?;
        self.blob_len += bytes.len() as u64;
        Ok(offset)
    }

    fn read_blob(&mut self, offset: u64, len: u32) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; len as usize];
        self.blobs.read_exact_at(&mut buf, offset)?;
        Ok(buf)
    }

    fn blob_len(&self) -> u64 {
        self.blob_len
    }

    fn write_catalog(&mut self, bytes: &[u8]) -> Result<()> {
        // Atomic-enough for a single writer: write a temp file and rename.
        let tmp = self.catalog_path.with_extension("cat.tmp");
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, &self.catalog_path)?;
        Ok(())
    }

    fn read_catalog(&mut self) -> Result<Vec<u8>> {
        match std::fs::read(&self.catalog_path) {
            Ok(b) => Ok(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e.into()),
        }
    }

    fn sync(&mut self) -> Result<()> {
        self.pages.sync_all()?;
        self.blobs.sync_all()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_ne!(a, b);
        assert_eq!(store.page_count(), 2);

        let mut img = vec![7u8; PAGE_SIZE];
        img[0] = 42;
        store.write_page(b, &img).unwrap();
        assert_eq!(store.read_page(b).unwrap()[0], 42);
        // Page `a` still zeroed.
        assert_eq!(store.read_page(a).unwrap()[0], 0);

        let off1 = store.append_blob(b"hello").unwrap();
        let off2 = store.append_blob(b"world!").unwrap();
        assert_eq!(store.read_blob(off1, 5).unwrap(), b"hello");
        assert_eq!(store.read_blob(off2, 6).unwrap(), b"world!");
        assert_eq!(store.blob_len(), 11);
    }

    #[test]
    fn memory_pager_basics() {
        exercise(&mut MemoryPager::new());
    }

    #[test]
    fn memory_pager_rejects_unallocated() {
        let mut p = MemoryPager::new();
        assert!(p.read_page(0).is_err());
        assert!(p.write_page(0, &[0u8; PAGE_SIZE]).is_err());
    }

    #[test]
    fn file_pager_basics() {
        let dir = std::env::temp_dir().join(format!("vamana-pager-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.mass");
        exercise(&mut FilePager::create(&path).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_pager_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("vamana-pager-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.mass");
        {
            let mut p = FilePager::create(&path).unwrap();
            let id = p.allocate().unwrap();
            let mut img = vec![0u8; PAGE_SIZE];
            img[100] = 9;
            p.write_page(id, &img).unwrap();
            p.append_blob(b"persisted").unwrap();
        }
        {
            let mut p = FilePager::open(&path).unwrap();
            assert_eq!(p.page_count(), 1);
            assert_eq!(p.read_page(0).unwrap()[100], 9);
            assert_eq!(p.read_blob(0, 9).unwrap(), b"persisted");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
