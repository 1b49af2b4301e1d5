//! Durable catalog and crash-free recovery.
//!
//! MASS keeps its secondary structures (sparse page index, name index,
//! value index) in memory; the data pages plus a small *catalog* — the
//! name table and document registry — are sufficient to rebuild them.
//! [`MassStore::checkpoint`] persists the catalog through the pager;
//! [`MassStore::open_file`] reads it back and reconstructs every index
//! with one sequential scan over the pages.

use crate::compress::StoreFormat;
use crate::error::{MassError, Result};
use crate::store::{DocInfo, MassStore};
use vamana_flex::FlexKey;

const MAGIC: &[u8; 5] = b"VCAT1";

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.buf.len() < self.at + n {
            return Err(MassError::CorruptRecord("catalog truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> Result<String> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| MassError::CorruptRecord("non-UTF8 catalog string".into()))
    }
}

impl MassStore {
    /// Serializes the catalog (name table + document registry + the WAL
    /// LSN as of this checkpoint).
    pub(crate) fn encode_catalog(&self, checkpoint_lsn: u64) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.names.len() as u32).to_le_bytes());
        for i in 0..self.names.len() {
            put_bytes(
                &mut out,
                self.names
                    .resolve(crate::names::NameId(i as u32))
                    .as_bytes(),
            );
        }
        out.extend_from_slice(&(self.docs.len() as u32).to_le_bytes());
        for d in &self.docs {
            put_bytes(&mut out, d.name.as_bytes());
            put_bytes(&mut out, d.doc_key.as_flat());
        }
        out.extend_from_slice(&checkpoint_lsn.to_le_bytes());
        // Compressed-tier trailer (absent in older catalogs, which are
        // read as v1 stores with an empty dictionary): the store format
        // plus the value dictionary in id order.
        out.push(match self.format {
            StoreFormat::V1 => 1,
            StoreFormat::V2 => 2,
        });
        out.extend_from_slice(&(self.dict.len() as u32).to_le_bytes());
        for v in self.dict.iter() {
            put_bytes(&mut out, v.as_bytes());
        }
        out
    }

    /// Persists the catalog through the pager. Data pages are written
    /// through on every mutation, so `checkpoint` + the page file is a
    /// complete, reopenable image of the store.
    ///
    /// For durable stores this folds the log into the page file: pages and
    /// blobs are fsynced, the catalog records the current WAL position,
    /// and the log is truncated. A crash anywhere in that sequence is
    /// safe — replaying an already-folded log is idempotent, and a torn
    /// log header after the truncation resets to the catalog's LSN.
    pub fn checkpoint(&mut self) -> Result<()> {
        let lsn = match &self.wal {
            Some(w) => {
                self.pool.sync()?;
                w.next_lsn()
            }
            None => 0,
        };
        self.pool.write_catalog(&self.encode_catalog(lsn))?;
        if let Some(w) = self.wal.as_mut() {
            w.truncate_for_checkpoint()?;
        }
        Ok(())
    }

    /// Reopens a file-backed store created with
    /// [`MassStore::create_file`], rebuilding every in-memory index from
    /// the catalog and one sequential page scan.
    pub fn open_file<P: AsRef<std::path::Path>>(path: P, capacity: usize) -> Result<Self> {
        let pager = crate::pager::FilePager::open(path)?;
        let mut store = MassStore::with_pager(Box::new(pager), capacity);
        store.recover()?;
        Ok(store)
    }

    /// Rebuilds the in-memory state from the pager's catalog and pages.
    pub(crate) fn recover(&mut self) -> Result<()> {
        // 1. Catalog: names and documents.
        let catalog = self.pool.read_catalog()?;
        if catalog.is_empty() {
            if self.pool.page_count() == 0 {
                return Ok(()); // brand-new store
            }
            return Err(MassError::CorruptRecord(
                "store has pages but no catalog — was checkpoint() called?".into(),
            ));
        }
        let mut r = Reader {
            buf: &catalog,
            at: 0,
        };
        if r.take(MAGIC.len())? != MAGIC {
            return Err(MassError::CorruptRecord("bad catalog magic".into()));
        }
        let name_count = r.u32()?;
        for _ in 0..name_count {
            let name = r.string()?;
            self.names.intern(&name);
        }
        let doc_count = r.u32()?;
        for _ in 0..doc_count {
            let name = r.string()?;
            let flat = r.bytes()?;
            if !FlexKey::is_valid_flat(flat) {
                return Err(MassError::CorruptRecord(
                    "malformed document key in catalog".into(),
                ));
            }
            let key = FlexKey::from_flat_slice(flat);
            self.docs.push(DocInfo {
                name: name.into(),
                doc_key: key,
            });
        }
        self.doc_gens = vec![0; self.docs.len()];
        // Checkpoint LSN trailer (absent in catalogs written before the
        // WAL existed): floors LSN assignment if the log header was lost.
        if r.buf.len() >= r.at + 8 {
            self.checkpoint_lsn_floor = u64::from_le_bytes(r.take(8)?.try_into().expect("8 bytes"));
        }
        // Compressed-tier trailer: store format + value dictionary. Must
        // be restored *before* the page scan below — rebuilding the
        // secondary indexes resolves [`crate::record::ValueRef::Dict`]
        // refs through the dictionary. A catalog without it predates v2.
        self.format = StoreFormat::V1;
        if r.buf.len() > r.at {
            self.format = match r.take(1)?[0] {
                1 => StoreFormat::V1,
                2 => StoreFormat::V2,
                other => {
                    return Err(MassError::CorruptRecord(format!(
                        "bad store format byte {other}"
                    )))
                }
            };
            let dict_count = r.u32()?;
            for _ in 0..dict_count {
                let v = r.string()?;
                self.dict.intern(&v);
            }
        }

        // 2. Page scan: sparse index first (pages are not in key order
        //    after splits), then the secondary indexes in key order so
        //    the cheap ordered inserts apply.
        let mut entries: Vec<(Vec<u8>, u32)> = Vec::new();
        for page_id in 0..self.pool.page_count() {
            let page = self.pool.get(page_id)?;
            if let Some(first) = page.first_key() {
                entries.push((first.to_vec(), page_id));
                self.page_formats.insert(page_id, page.format());
            } else {
                // Emptied by an earlier delete, or allocated by a split
                // that crashed before its first write: reusable.
                self.free_pages.push(page_id);
            }
        }
        entries.sort();
        self.index = entries;

        // 2a. Torn-load trim: bulk loads bypass the WAL (the page file +
        //     catalog written by the load's checkpoint are its durable
        //     image), so a crash mid-load leaves records whose document
        //     was never registered. Drop them — that load never
        //     committed. Pages emptied by the trim join the free list.
        let mut pos = 0;
        while pos < self.index.len() {
            let page_id = self.index[pos].1;
            let page = self.pool.get(page_id)?;
            let orphan = |flat: &[u8]| self.document_of(&FlexKey::from_flat_slice(flat)).is_none();
            if !(0..page.len()).any(|i| orphan(page.key(i))) {
                pos += 1;
                continue;
            }
            let mut page = page.to_buf()?;
            let mut i = 0;
            while i < page.len() {
                if self.document_of(&page.records()[i].key).is_none() {
                    page.remove(i);
                } else {
                    i += 1;
                }
            }
            if page.is_empty() {
                self.index.remove(pos);
                self.release_page(page_id);
                self.pool.put(page_id, &page)?;
            } else {
                self.index[pos].0 = page.first_key().expect("non-empty").to_vec();
                // Trimming can overflow a v2 page (a survivor's
                // front-coding lengthens when its predecessor is
                // removed); split before write-out.
                let added = self.put_page_at(pos, page)?;
                pos += 1 + added;
            }
        }
        // Re-sort: trimming can change a page's first key.
        self.index.sort();

        // 2b. Overlap repair: a crash between a split's two page writes
        //     (new upper page first, then the shrunk lower page) leaves
        //     the lower page still holding records that were copied to
        //     the upper one. Trim any record that belongs to a following
        //     page before indexing, so nothing is double-counted.
        for pos in 0..self.index.len().saturating_sub(1) {
            let next_first = self.index[pos + 1].0.clone();
            let page_id = self.index[pos].1;
            let overlaps = self
                .pool
                .get(page_id)?
                .last_key()
                .is_some_and(|k| k >= next_first.as_slice());
            if !overlaps {
                continue;
            }
            let mut page = self.pool.get(page_id)?.to_buf()?;
            while page.last_key().is_some_and(|k| k >= next_first.as_slice()) {
                // Tail removals never lengthen anything (no successor),
                // so the page cannot overflow here.
                page.remove(page.len() - 1);
            }
            self.put_data_page(page_id, &page)?;
        }

        for pos in 0..self.index.len() {
            // Owned records: `index_record` takes them, as from the loader.
            let records = self.pool.get(self.index[pos].1)?.to_records()?;
            for rec in &records {
                let value = self.resolve_value(rec)?;
                self.index_record(rec, value.as_deref(), true);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_flex::KeyRange;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("vamana-cat-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.mass")
    }

    #[test]
    fn checkpoint_and_reopen_round_trip() {
        let path = temp_path("roundtrip");
        {
            let mut s = MassStore::create_file(&path, 64).unwrap();
            s.load_xml("a", "<site><person id='p0'><name>Yung Flach</name></person><person id='p1'><name>Ann</name></person></site>")
                .unwrap();
            s.checkpoint().unwrap();
        }
        let s = MassStore::open_file(&path, 64).unwrap();
        assert_eq!(s.documents().len(), 1);
        let person = s.name_id("person").unwrap();
        assert_eq!(s.count_elements(person), 2);
        assert_eq!(s.text_count("Yung Flach"), 1);
        // doc node + site + 2 × (person + @id + name + text) = 10 tuples.
        assert_eq!(s.stats().tuples, 10);
        // Point lookups work (sparse index rebuilt).
        let flat = s
            .name_index()
            .elements(person)
            .iter()
            .next()
            .unwrap()
            .to_vec();
        let key = FlexKey::from_flat(flat);
        assert!(s.get(&key).unwrap().is_some());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn reopen_after_updates_sees_fresh_data() {
        let path = temp_path("updates");
        {
            let mut s = MassStore::create_file(&path, 64).unwrap();
            s.load_xml("a", "<r><a/><b/></r>").unwrap();
            let a = {
                let id = s.name_id("a").unwrap();
                FlexKey::from_flat_slice(s.name_index().elements(id).iter().next().unwrap())
            };
            s.insert_element_after(&a, "mid").unwrap();
            s.checkpoint().unwrap();
        }
        let s = MassStore::open_file(&path, 64).unwrap();
        let mid = s.name_id("mid").unwrap();
        assert_eq!(s.count_elements(mid), 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn reopen_without_checkpoint_is_detected() {
        let path = temp_path("nocat");
        {
            let mut s = MassStore::create_file(&path, 64).unwrap();
            s.load_xml("a", "<r><a/></r>").unwrap();
            // no checkpoint
        }
        assert!(MassStore::open_file(&path, 64).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn empty_store_reopens_cleanly() {
        let path = temp_path("empty");
        {
            let mut s = MassStore::create_file(&path, 64).unwrap();
            s.checkpoint().unwrap();
        }
        let s = MassStore::open_file(&path, 64).unwrap();
        assert_eq!(s.stats().tuples, 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn recovered_store_answers_range_counts() {
        let path = temp_path("counts");
        {
            let mut s = MassStore::create_file(&path, 64).unwrap();
            let mut xml = String::from("<r>");
            for i in 0..500 {
                xml.push_str(&format!("<e v='{i}'><t>{}</t></e>", i % 7));
            }
            xml.push_str("</r>");
            s.load_xml("big", &xml).unwrap();
            s.checkpoint().unwrap();
        }
        let s = MassStore::open_file(&path, 64).unwrap();
        let e = s.name_id("e").unwrap();
        assert_eq!(s.count_elements(e), 500);
        // texts are i%7: values 0..2 appear 72 times, 3..6 appear 71;
        // attributes are 0..499 once each.
        assert_eq!(s.text_count("3"), 71 + 1); // 71 texts + attribute v='3'
        assert_eq!(
            s.numeric_count_in(crate::value_index::RangeOp::Lt, 3.0, &KeyRange::all()),
            3 * 72 + 3 // texts 0,1,2 plus attributes 0,1,2
        );
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}

#[cfg(test)]
mod free_list_tests {
    use super::*;
    use vamana_flex::KeyRange;

    #[test]
    fn freed_pages_are_reused_by_later_inserts() {
        let mut s = MassStore::open_memory();
        // Two documents; deleting the first frees its pages.
        let mut xml = String::from("<a>");
        for i in 0..3000 {
            xml.push_str(&format!("<x>{i}</x>"));
        }
        xml.push_str("</a>");
        s.load_xml("a", &xml).unwrap();
        s.load_xml("b", "<b><keep/></b>").unwrap();
        let pages_before = s.pool.page_count();

        let a_doc = s.documents()[0].doc_key.clone();
        s.delete_subtree(&a_doc).unwrap();
        let freed = s.free_pages.len();
        assert!(
            freed > 5,
            "deleting a whole document should free pages, freed {freed}"
        );

        // Grow document b: the allocator must drain the free list before
        // growing the backing store.
        let b_root = {
            let id = s.name_id("b").unwrap();
            FlexKey::from_flat_slice(s.name_index().elements(id).iter().next().unwrap())
        };
        for i in 0..2000 {
            let e = s.append_element(&b_root, "y").unwrap();
            s.append_text(&e, &format!("{i}")).unwrap();
        }
        // All freed ids were consumed before any fresh allocation, so the
        // backing store grew by exactly (pages needed − pages freed).
        assert!(s.free_pages.is_empty(), "free list should be drained first");
        let live_pages = s.index.len() as u32;
        let grown = s.pool.page_count() - pages_before;
        assert_eq!(
            s.pool.page_count(),
            live_pages,
            "with the free list drained, every backing page is live (grew by {grown})"
        );
        let y = s.name_id("y").unwrap();
        assert_eq!(s.count_elements(y), 2000);
        // Everything is still key-ordered end to end.
        let mut cur = crate::cursor::MassCursor::new(&s, KeyRange::all());
        let mut prev: Option<Vec<u8>> = None;
        while let Some(rec) = cur.next().unwrap() {
            let flat = rec.key.as_flat().to_vec();
            if let Some(p) = &prev {
                assert!(p < &flat);
            }
            prev = Some(flat);
        }
    }
}
