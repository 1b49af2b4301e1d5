//! Bulk loading of XML text into a [`MassStore`], straight from the
//! tokenizer's events: no DOM stands between the text and the pages.
//!
//! The load walk assigns FLEX keys with a [`KeyGenerator`] (its frame
//! stack is the walk's only stack) and yields every record in key order.
//! A load runs it twice:
//!
//! 1. a dry run validates the text, checks that every record fits a page
//!    and counts the v2 dictionary candidates — it writes nothing, so a
//!    document it rejects leaves no trace, in the pages, the indexes or
//!    the log;
//! 2. the load proper packs records into pages append-only and feeds the
//!    name/value indexes in document order (cheap `push_ordered` instead
//!    of sorted inserts).

use crate::compress::{StoreFormat, DICT_MAX_VALUE_LEN, DICT_MIN_FREQ};
use crate::error::{MassError, Result};
use crate::page::{PageBuf, PAGE_CAPACITY};
use crate::record::{NodeRecord, RecordKind, ValueRef};
use crate::store::{DocId, DocInfo, MassStore, INLINE_VALUE_MAX};
use crate::wal::WalRecord;
use std::borrow::Cow;
use std::collections::HashMap;
use vamana_flex::{FlexKey, KeyGenerator};
use vamana_xml::{Event, Tokenizer};

impl MassStore {
    /// Loads the XML text `xml` under `name`, returning its id. Documents
    /// load after all previously loaded ones; their records never
    /// interleave. A load is all or nothing: text that does not parse,
    /// or holds a record no page can take (a key nested too deep), is
    /// rejected before anything is written.
    ///
    /// On durable stores the load is then logged as one
    /// [`WalRecord::LoadDocument`] record carrying `xml` itself — that is
    /// what replication streams to followers — and checkpointed, so the
    /// local log stays shallow (the page file + catalog are the durable
    /// image; the replication ring retains the frame independently of
    /// the checkpoint's truncation). It is the one write that bypasses
    /// [`MassStore::commit`]: the loader packs pages straight from the
    /// text.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<DocId> {
        let values = self.dry_load(xml)?;
        if self.is_durable() {
            self.log_records(&[WalRecord::LoadDocument {
                name: name.to_string(),
                xml: xml.to_string(),
            }])?;
        }
        let id = self.pack_load(name, xml, values)?;
        self.generation += 1;
        if self.is_durable() {
            self.checkpoint()?;
        }
        Ok(id)
    }

    /// The unlogged bulk load — both passes, no WAL traffic, no
    /// checkpoint. Keys depend only on the document structure and the
    /// load ordinal, so replaying the same texts in the same order (WAL
    /// recovery, replication) reproduces an identical key space.
    pub(crate) fn load_xml_unlogged(&mut self, name: &str, xml: &str) -> Result<DocId> {
        let values = self.dry_load(xml)?;
        self.pack_load(name, xml, values)
    }

    /// The first pass: walks `xml` as the load would, writing nothing.
    /// Rejects text that does not parse and a record that might not fit
    /// an empty page, and counts the dictionary candidates.
    fn dry_load(&self, xml: &str) -> Result<Candidates> {
        let mut values = Counting::new(self.format);
        load_walk(xml, self.docs.len() as u64, |node| {
            let len = max_record_len(node.key.as_flat().len(), node.value.as_deref());
            if len > PAGE_CAPACITY {
                return Err(MassError::InvalidUpdate(format!(
                    "record of up to {len} bytes exceeds page capacity (key too deep?)"
                )));
            }
            if let (RecordKind::Text | RecordKind::Attribute, Some(value)) = (node.kind, node.value)
            {
                values.count(value);
            }
            Ok(())
        })?;
        Ok(values.done())
    }

    /// The second pass: packs the records of `xml`, which the first pass
    /// accepted, into pages and feeds the indexes.
    fn pack_load(&mut self, name: &str, xml: &str, mut values: Candidates) -> Result<DocId> {
        let ordinal = self.docs.len() as u64;
        let mut sink = PageSink::new(self);
        let doc_key = load_walk(xml, ordinal, |node| {
            let store = &mut *sink.store;
            let name = node.name.map(|name| store.intern(name));
            let indexed = matches!(node.kind, RecordKind::Text | RecordKind::Attribute);
            let value = match &node.value {
                Some(value) if indexed => store.make_loaded_value(value, &mut values)?,
                Some(value) => store.make_value(value)?,
                None => ValueRef::None,
            };
            let rec = NodeRecord {
                key: node.key,
                kind: node.kind,
                name,
                value,
            };
            sink.emit(rec, node.value.as_deref().filter(|_| indexed))
        })?;
        sink.flush()?;
        self.docs.push(DocInfo {
            name: name.into(),
            doc_key,
        });
        self.doc_gens.push(0);
        Ok(DocId(ordinal as u32))
    }

    /// The value a bulk load stores for a text or attribute `value`. A
    /// candidate's first occurrence settles its slot: a value counted
    /// [`DICT_MIN_FREQ`] times is interned there, so all its occurrences
    /// are stored as its dictionary id and ids follow the document order
    /// of first occurrence; any other value keeps the id an earlier load
    /// gave it, or stays inline. Ids depend only on the document and the
    /// dictionary's prior state, so WAL replay and replication (which
    /// re-run the same loads in the same order) reproduce them exactly.
    fn make_loaded_value(&mut self, value: &str, values: &mut Candidates) -> Result<ValueRef> {
        let Some(slot) = values.next_slot() else {
            return self.inline_value(value);
        };
        if slot.count > 0 {
            slot.id = if slot.count >= DICT_MIN_FREQ {
                self.dict.intern(value)
            } else {
                self.dict.lookup(value)
            };
            slot.count = 0;
        }
        match slot.id {
            Some(id) => Ok(ValueRef::Dict(id)),
            None => self.inline_value(value),
        }
    }
}

/// One record of the load walk, before the store gives it a name id and
/// a value form.
struct LoadNode<'x> {
    key: FlexKey,
    kind: RecordKind,
    /// Element or attribute name, or PI target.
    name: Option<&'x str>,
    /// Text, attribute value, comment, or PI data.
    value: Option<Cow<'x, str>>,
}

/// At least the bytes a record with a key of `key_len` bytes and `value`
/// takes alone on a page, in either format and whatever name id and value
/// form (inline, blob heap or dictionary) the load gives it — a size the
/// first pass cannot know without writing, and which this exceeds by less
/// than 80 bytes (a dictionary id in place of a 64-byte value). v1 puts 12 header bytes around the key and stores a value
/// inline or as a 12-byte blob reference; v2's header is at most 9 bytes
/// (varints for the key's length and the name id) and its value at most
/// 2 bytes more than inline, 3 as a dictionary id, 15 as a blob
/// reference.
fn max_record_len(key_len: usize, value: Option<&str>) -> usize {
    key_len
        + 12
        + match value {
            None => 0,
            Some(v) if v.len() <= INLINE_VALUE_MAX => v.len() + 2,
            Some(_) => 12,
        }
}

/// The load walk: hands `visit` every record of `xml` as the document
/// `ordinal` of a store — the document record first, then the tokenizer's
/// events in key order (an element's attributes right after it) — and
/// returns the document record's key.
fn load_walk<'x>(
    xml: &'x str,
    ordinal: u64,
    mut visit: impl FnMut(LoadNode<'x>) -> Result<()>,
) -> Result<FlexKey> {
    let mut keys = KeyGenerator::new();
    // Skip ordinals already consumed by earlier documents.
    for _ in 0..ordinal {
        keys.open_element();
        keys.close_element();
    }
    let doc_key = keys.open_element();
    let node = |key, kind, name, value| LoadNode {
        key,
        kind,
        name,
        value,
    };
    visit(node(doc_key.clone(), RecordKind::Document, None, None))?;
    for event in Tokenizer::new(xml) {
        let event =
            event.map_err(|e| MassError::InvalidUpdate(format!("XML parse failed: {e}")))?;
        visit(match event {
            Event::Start(name) => node(keys.open_element(), RecordKind::Element, Some(name), None),
            Event::Attribute(name, value) => node(
                keys.attribute(),
                RecordKind::Attribute,
                Some(name),
                Some(value),
            ),
            Event::End(_) => {
                keys.close_element();
                continue;
            }
            Event::Text(value) => node(keys.leaf(), RecordKind::Text, None, Some(value)),
            Event::Comment(value) => {
                node(keys.leaf(), RecordKind::Comment, None, Some(value.into()))
            }
            Event::Pi(target, data) => {
                node(keys.leaf(), RecordKind::Pi, Some(target), Some(data.into()))
            }
        })?;
    }
    Ok(doc_key)
}

/// The first pass's count of the dictionary candidates of a document a
/// v2 store loads — its non-empty text and attribute values of at most
/// [`DICT_MAX_VALUE_LEN`] bytes. A v1 load has none.
struct Counting<'x> {
    v2: bool,
    index: HashMap<Cow<'x, str>, u32>,
    values: Candidates,
}

impl<'x> Counting<'x> {
    fn new(format: StoreFormat) -> Self {
        Counting {
            v2: format == StoreFormat::V2,
            index: HashMap::new(),
            values: Candidates {
                slots: vec![Slot::default()],
                order: Vec::new(),
                next: 0,
            },
        }
    }

    /// Counts the next text or attribute value of the walk.
    fn count(&mut self, value: Cow<'x, str>) {
        if !self.v2 {
            return;
        }
        let at = if value.is_empty() || value.len() > DICT_MAX_VALUE_LEN {
            0
        } else if let Some(&at) = self.index.get(&*value) {
            at
        } else {
            let at = self.values.slots.len() as u32;
            self.values.slots.push(Slot::default());
            self.index.insert(value, at);
            at
        };
        self.values.slots[at as usize].count += 1;
        self.values.order.push(at);
    }

    fn done(self) -> Candidates {
        self.values
    }
}

/// The candidates the second pass meets: per text or attribute value of
/// the walk, in walk order, its slot (0: no candidate, and every value of
/// a v1 load), so the second pass hashes no value again.
struct Candidates {
    slots: Vec<Slot>,
    order: Vec<u32>,
    next: usize,
}

impl Candidates {
    /// The slot of the next text or attribute value of the walk, `None`
    /// when it is no candidate.
    fn next_slot(&mut self) -> Option<&mut Slot> {
        let at = self.order.get(self.next).copied().unwrap_or(0);
        self.next += 1;
        (at != 0).then(|| &mut self.slots[at as usize])
    }
}

/// A candidate's count in the document until the second pass first meets
/// it; from then on 0, and the dictionary id it is stored as (`None`:
/// inline).
#[derive(Clone, Copy, Default)]
struct Slot {
    count: u64,
    id: Option<u32>,
}

/// Append-only page packer used during bulk load. Pages are created in
/// the store's format, so a v2 store bulk-loads compressed pages.
struct PageSink<'a> {
    store: &'a mut MassStore,
    page: PageBuf,
}

impl<'a> PageSink<'a> {
    fn new(store: &'a mut MassStore) -> Self {
        let page = PageBuf::new(store.format);
        PageSink { store, page }
    }

    /// Packs `rec` onto the open page, or onto a fresh one when it is
    /// full, then indexes it. The first pass has checked that `rec` fits
    /// an empty page.
    fn emit(&mut self, mut rec: NodeRecord, value: Option<&str>) -> Result<()> {
        while let Err(back) = self.page.append(rec) {
            if self.page.is_empty() {
                return Err(MassError::InvalidUpdate(format!(
                    "record of {} bytes exceeds page capacity (key too deep?)",
                    back.encoded_len()
                )));
            }
            self.write_page()?;
            rec = back;
        }
        let rec = self.page.records().last().expect("record just appended");
        self.store.index_record(rec, value, true);
        Ok(())
    }

    fn write_page(&mut self) -> Result<()> {
        let first = self
            .page
            .first_key()
            .expect("write_page on empty page")
            .to_vec();
        let id = self.store.allocate_page()?;
        self.store.put_data_page(id, &self.page)?;
        self.page = PageBuf::new(self.store.format);
        self.store.index.push((first, id));
        Ok(())
    }

    fn flush(&mut self) -> Result<()> {
        if !self.page.is_empty() {
            self.write_page()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::MassCursor;
    use vamana_flex::KeyRange;

    const PERSON: &str = r#"<site><people>
        <person id="person0"><name>Yung Flach</name><emailaddress>f@x.gr</emailaddress></person>
        <person id="person1"><name>Ann Smith</name></person>
    </people></site>"#;

    fn store_with(xml: &str) -> MassStore {
        let mut s = MassStore::open_memory();
        s.load_xml("test", xml).unwrap();
        s
    }

    #[test]
    fn load_registers_document() {
        let s = store_with(PERSON);
        assert_eq!(s.documents().len(), 1);
        let (_, info) = s.document_by_name("test").unwrap();
        assert_eq!(info.doc_key.level(), 1);
        assert!(s.contains(&info.doc_key).unwrap());
    }

    #[test]
    fn records_are_key_ordered_across_pages() {
        // Enough nodes to span several pages.
        let mut xml = String::from("<r>");
        for i in 0..5000 {
            xml.push_str(&format!("<e a='{i}'>{i}</e>"));
        }
        xml.push_str("</r>");
        let s = store_with(&xml);
        assert!(
            s.stats().pages > 3,
            "expected multiple pages, got {}",
            s.stats().pages
        );
        let mut cur = MassCursor::new(&s, KeyRange::all());
        let mut prev: Option<Vec<u8>> = None;
        let mut count = 0u64;
        while let Some(rec) = cur.next().unwrap() {
            let flat = rec.key.as_flat().to_vec();
            if let Some(p) = &prev {
                assert!(p < &flat, "cursor out of order");
            }
            prev = Some(flat);
            count += 1;
        }
        // doc + root + 5000 elements + 5000 attrs + 5000 texts
        assert_eq!(count, 2 + 15000);
        assert_eq!(s.stats().tuples, count);
    }

    #[test]
    fn name_index_counts_match_document() {
        let s = store_with(PERSON);
        let person = s.name_id("person").unwrap();
        let name = s.name_id("name").unwrap();
        let email = s.name_id("emailaddress").unwrap();
        assert_eq!(s.count_elements(person), 2);
        assert_eq!(s.count_elements(name), 2);
        assert_eq!(s.count_elements(email), 1);
        let id = s.name_id("id").unwrap();
        assert_eq!(s.count_attributes_in(id, &KeyRange::all()), 2);
        assert_eq!(s.count_text_in(&KeyRange::all()), 3);
    }

    #[test]
    fn value_index_counts_literals() {
        let s = store_with(PERSON);
        assert_eq!(s.text_count("Yung Flach"), 1);
        assert_eq!(s.text_count("Ann Smith"), 1);
        assert_eq!(s.text_count("person0"), 1); // attribute values too
        assert_eq!(s.text_count("Nobody"), 0);
    }

    #[test]
    fn string_value_concatenates_text() {
        let s = store_with(PERSON);
        let person = s.name_id("person").unwrap();
        let first = s
            .name_index()
            .elements(person)
            .iter()
            .next()
            .unwrap()
            .to_vec();
        let key = vamana_flex::FlexKey::from_flat(first);
        assert_eq!(s.string_value(&key).unwrap(), "Yung Flachf@x.gr");
    }

    #[test]
    fn get_fetches_by_key() {
        let s = store_with(PERSON);
        let name = s.name_id("name").unwrap();
        for flat in s.name_index().elements(name).iter() {
            let key = vamana_flex::FlexKey::from_flat_slice(flat);
            let rec = s.get(&key).unwrap().unwrap();
            assert_eq!(rec.kind, RecordKind::Element);
            assert_eq!(rec.name, Some(name));
        }
    }

    #[test]
    fn multiple_documents_do_not_interleave() {
        let mut s = MassStore::open_memory();
        let d0 = s.load_xml("a", "<a><x/></a>").unwrap();
        let d1 = s.load_xml("b", "<b><x/><x/></b>").unwrap();
        assert_ne!(d0, d1);
        let a = s.document(d0).unwrap().doc_key.clone();
        let b = s.document(d1).unwrap().doc_key.clone();
        assert!(a < b);
        let x = s.name_id("x").unwrap();
        assert_eq!(s.count_elements_in(x, &KeyRange::subtree(&a)), 1);
        assert_eq!(s.count_elements_in(x, &KeyRange::subtree(&b)), 2);
        assert_eq!(s.count_elements(x), 3);
        assert_eq!(s.document_of(&a), Some(d0));
    }

    #[test]
    fn long_values_overflow_to_blob_heap() {
        let long = "x".repeat(5000);
        let s = store_with(&format!("<r><t>{long}</t></r>"));
        let t_keys: Vec<_> = s.name_index().text().iter().map(|k| k.to_vec()).collect();
        assert_eq!(t_keys.len(), 1);
        let key = vamana_flex::FlexKey::from_flat(t_keys[0].clone());
        let rec = s.get(&key).unwrap().unwrap();
        assert!(matches!(
            rec.value,
            crate::record::ValueRef::Overflow { .. }
        ));
        assert_eq!(s.resolve_value(&rec).unwrap().unwrap(), long);
        // And the value index still counts it.
        assert_eq!(s.text_count(&long), 1);
    }

    #[test]
    fn cursor_seek_jumps_over_subtrees() {
        let s = store_with(PERSON);
        let person = s.name_id("person").unwrap();
        let people: Vec<_> = s
            .name_index()
            .elements(person)
            .iter()
            .map(|k| k.to_vec())
            .collect();
        let first = vamana_flex::FlexKey::from_flat(people[0].clone());
        let mut cur = MassCursor::new(&s, KeyRange::all());
        cur.seek(&first.subtree_upper().unwrap());
        let next = cur.next().unwrap().unwrap();
        assert_eq!(next.key.as_flat(), people[1].as_slice());
    }

    #[test]
    fn updates_keep_counts_fresh() {
        // The paper's claim: statistics stay accurate under updates
        // because they come from the index, not a cached histogram.
        let mut s = store_with(PERSON);
        let person = s.name_id("person").unwrap();
        assert_eq!(s.count_elements(person), 2);

        let people_key = {
            let people = s.name_id("people").unwrap();
            let flat = s
                .name_index()
                .elements(people)
                .iter()
                .next()
                .unwrap()
                .to_vec();
            vamana_flex::FlexKey::from_flat(flat)
        };
        let new_person = s.append_element(&people_key, "person").unwrap();
        assert_eq!(s.count_elements(person), 3);
        let name_key = s.append_element(&new_person, "name").unwrap();
        s.append_text(&name_key, "Zed Zombie").unwrap();
        assert_eq!(s.text_count("Zed Zombie"), 1);

        let removed = s.delete_subtree(&new_person).unwrap();
        assert_eq!(removed, 3);
        assert_eq!(s.count_elements(person), 2);
        assert_eq!(s.text_count("Zed Zombie"), 0);
    }

    #[test]
    fn insert_between_siblings_keeps_order() {
        let mut s = store_with("<r><a/><b/></r>");
        let a_key = {
            let a = s.name_id("a").unwrap();
            vamana_flex::FlexKey::from_flat_slice(s.name_index().elements(a).iter().next().unwrap())
        };
        let mid = s.insert_element_after(&a_key, "m").unwrap();
        let b_key = {
            let b = s.name_id("b").unwrap();
            vamana_flex::FlexKey::from_flat_slice(s.name_index().elements(b).iter().next().unwrap())
        };
        assert!(a_key < mid && mid < b_key);
        // Cursor sees a, m, b in order.
        let mut cur = MassCursor::new(&s, KeyRange::descendants(&a_key.parent().unwrap()));
        let names: Vec<_> = std::iter::from_fn(|| cur.next().unwrap())
            .filter_map(|r| r.name.map(|n| s.names().resolve(n).to_string()))
            .collect();
        assert_eq!(names, vec!["a", "m", "b"]);
    }

    #[test]
    fn page_split_on_insert_preserves_scan() {
        // Fill one document, then insert enough new children to split pages.
        let mut xml = String::from("<r>");
        for i in 0..400 {
            xml.push_str(&format!("<e>{i}</e>"));
        }
        xml.push_str("</r>");
        let mut s = store_with(&xml);
        let r_key = {
            let r = s.name_id("r").unwrap();
            vamana_flex::FlexKey::from_flat_slice(s.name_index().elements(r).iter().next().unwrap())
        };
        let pages_before = s.stats().pages;
        for _ in 0..500 {
            s.append_element(&r_key, "late").unwrap();
        }
        assert!(s.stats().pages > pages_before, "inserts should split pages");
        // Order still holds end to end.
        let mut cur = MassCursor::new(&s, KeyRange::all());
        let mut prev: Option<Vec<u8>> = None;
        while let Some(rec) = cur.next().unwrap() {
            let flat = rec.key.as_flat().to_vec();
            if let Some(p) = &prev {
                assert!(p < &flat);
            }
            prev = Some(flat);
        }
        let late = s.name_id("late").unwrap();
        assert_eq!(s.count_elements(late), 500);
    }

    #[test]
    fn delete_entire_document_leaves_store_usable() {
        let mut s = MassStore::open_memory();
        s.load_xml("a", "<a><x/></a>").unwrap();
        s.load_xml("b", "<b><y/></b>").unwrap();
        let a_doc = s.documents()[0].doc_key.clone();
        s.delete_subtree(&a_doc).unwrap();
        let x = s.name_id("x").unwrap();
        let y = s.name_id("y").unwrap();
        assert_eq!(s.count_elements(x), 0);
        assert_eq!(s.count_elements(y), 1);
        let mut cur = MassCursor::new(&s, KeyRange::all());
        let mut seen = 0;
        while cur.next().unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 3); // doc b + <b> + <y>
    }
}

#[cfg(test)]
mod fragment_tests {
    use crate::cursor::MassCursor;
    use crate::store::MassStore;
    use vamana_flex::{FlexKey, KeyRange};

    fn store() -> MassStore {
        let mut s = MassStore::open_memory();
        s.load_xml(
            "d",
            "<site><people><person id='p0'><name>Ann</name></person></people></site>",
        )
        .unwrap();
        s
    }

    fn key_of(s: &MassStore, name: &str, i: usize) -> FlexKey {
        let id = s.name_id(name).unwrap();
        FlexKey::from_flat_slice(s.name_index().elements(id).iter().nth(i).unwrap())
    }

    #[test]
    fn append_fragment_inserts_whole_subtree() {
        let mut s = store();
        let people = key_of(&s, "people", 0);
        let new_person = s
            .append_fragment(
                &people,
                "<person id='p1'><name>Bob</name><watches><watch open_auction='oa1'/></watches></person>",
            )
            .unwrap();
        let person = s.name_id("person").unwrap();
        assert_eq!(s.count_elements(person), 2);
        assert_eq!(s.text_count("Bob"), 1);
        assert_eq!(s.text_count("oa1"), 1); // attribute value indexed
                                            // Exported XML matches the fragment.
        let xml = crate::export::export_subtree_xml(&s, &new_person).unwrap();
        assert_eq!(
            xml,
            "<person id=\"p1\"><name>Bob</name><watches><watch open_auction=\"oa1\"/></watches></person>"
        );
    }

    #[test]
    fn append_attribute_to_existing_element() {
        let mut s = store();
        let person = key_of(&s, "person", 0);
        s.append_attribute(&person, "vip", "yes").unwrap();
        let vip = s.name_id("vip").unwrap();
        assert_eq!(s.count_attributes_in(vip, &KeyRange::all()), 1);
        // The new attribute still clusters with the element, after the
        // existing `id` attribute.
        let xml = crate::export::export_subtree_xml(&s, &person).unwrap();
        assert!(xml.starts_with("<person id=\"p0\" vip=\"yes\">"), "{xml}");
    }

    #[test]
    fn fragment_with_no_root_is_rejected() {
        let mut s = store();
        let people = key_of(&s, "people", 0);
        assert!(s.append_fragment(&people, "no markup").is_err());
        assert!(s.append_fragment(&people, "<broken>").is_err());
    }

    #[test]
    fn fragment_ordering_is_after_existing_children() {
        let mut s = store();
        let people = key_of(&s, "people", 0);
        s.append_fragment(&people, "<person id='p1'><name>Zed</name></person>")
            .unwrap();
        let mut cur = MassCursor::new(&s, KeyRange::descendants(&people));
        let names: Vec<String> = std::iter::from_fn(|| cur.next().unwrap())
            .filter(|r| r.kind == crate::record::RecordKind::Text)
            .map(|r| s.resolve_value(&r).unwrap().unwrap())
            .collect();
        assert_eq!(names, vec!["Ann", "Zed"]);
    }
}
