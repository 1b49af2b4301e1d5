//! Bulk loading of parsed XML documents into a [`MassStore`].
//!
//! The loader walks the document in pre-order, assigns FLEX keys with a
//! [`KeyGenerator`], packs records into pages append-only, and feeds the
//! name/value indexes in document order (cheap `push_ordered` instead of
//! sorted inserts).

use crate::compress::{StoreFormat, DICT_MAX_VALUE_LEN, DICT_MIN_FREQ};
use crate::error::{MassError, Result};
use crate::page::PageBuf;
use crate::record::{NodeRecord, RecordKind, ValueRef};
use crate::store::{DocId, DocInfo, MassStore};
use std::collections::HashMap;
use vamana_flex::KeyGenerator;
use vamana_xml::{Document, NodeId, NodeKind};

impl MassStore {
    /// Loads `doc` under `name`, returning its id. Documents load after
    /// all previously loaded ones; their records never interleave.
    ///
    /// On durable stores the load is first logged as one
    /// [`crate::wal::WalRecord::LoadDocument`] record carrying the
    /// document's compact serialization — that is what replication
    /// streams to followers — and then checkpointed, so the local log
    /// stays shallow (the page file + catalog are the durable image,
    /// exactly as before; the replication ring retains the frame
    /// independently of the checkpoint's truncation).
    pub fn load_document(&mut self, name: &str, doc: &Document) -> Result<DocId> {
        if self.is_durable() {
            let xml = vamana_xml::write_document(doc, &vamana_xml::WriteOptions::default());
            self.log_records(&[crate::wal::WalRecord::LoadDocument {
                name: name.to_string(),
                xml,
            }])?;
        }
        let id = self.load_document_unlogged(name, doc)?;
        if self.is_durable() {
            self.checkpoint()?;
        }
        Ok(id)
    }

    /// The unlogged bulk load: key assignment, page packing, index
    /// feeding — no WAL traffic, no checkpoint. Keys depend only on the
    /// document structure and the load ordinal, so replaying the same
    /// documents in the same order (WAL recovery, replication snapshots)
    /// reproduces an identical key space.
    pub(crate) fn load_document_unlogged(&mut self, name: &str, doc: &Document) -> Result<DocId> {
        self.bump_generation();
        let mut values = Candidates::count(doc, self.format);
        let ordinal = self.docs.len() as u64;
        let mut generator = KeyGenerator::new();
        // Skip ordinals already consumed by earlier documents.
        for _ in 0..ordinal {
            let k = generator.open_element();
            generator.close_element();
            debug_assert!(!k.is_root());
        }
        let doc_key = generator.open_element();
        let mut sink = PageSink::new(self);
        sink.emit(
            NodeRecord {
                key: doc_key.clone(),
                kind: RecordKind::Document,
                name: None,
                value: ValueRef::None,
            },
            None,
        )?;

        // Iterative pre-order walk of the XML arena: a node's next sibling
        // waits on the stack under the node's subtree.
        enum Step {
            Enter(NodeId),
            Leave,
        }
        let mut stack = Vec::from_iter(doc.first_child(Document::ROOT).map(Step::Enter));
        while let Some(step) = stack.pop() {
            let Step::Enter(id) = step else {
                generator.close_element();
                continue;
            };
            stack.extend(doc.next_sibling(id).map(Step::Enter));
            let (kind, name, value, indexed) = match doc.kind(id) {
                NodeKind::Element { name } => {
                    let name_id = sink.store.intern(name);
                    let key = generator.open_element();
                    sink.emit(NodeRecord::element(key, name_id), None)?;
                    // Attributes cluster directly after the element.
                    for attr in doc.attributes(id) {
                        let aname = doc.name(attr).expect("attribute has name");
                        let avalue = doc.value(attr).expect("attribute has value");
                        let aid = sink.store.intern(aname);
                        let akey = generator.attribute();
                        let vref = sink.store.make_loaded_value(attr, avalue, &mut values)?;
                        sink.emit(
                            NodeRecord {
                                key: akey,
                                kind: RecordKind::Attribute,
                                name: Some(aid),
                                value: vref,
                            },
                            Some(avalue),
                        )?;
                    }
                    stack.push(Step::Leave);
                    stack.extend(doc.first_child(id).map(Step::Enter));
                    continue;
                }
                NodeKind::Text { value } => {
                    let vref = sink.store.make_loaded_value(id, value, &mut values)?;
                    (RecordKind::Text, None, vref, Some(&**value))
                }
                NodeKind::Comment { value } => {
                    let vref = sink.store.make_value(value)?;
                    (RecordKind::Comment, None, vref, None)
                }
                NodeKind::ProcessingInstruction { target, data } => {
                    let vref = sink.store.make_value(data)?;
                    (RecordKind::Pi, Some(sink.store.intern(target)), vref, None)
                }
                NodeKind::Attribute { .. } => unreachable!("attributes are not children"),
                NodeKind::Document => unreachable!("nested document node"),
            };
            let key = generator.leaf();
            sink.emit(
                NodeRecord {
                    key,
                    kind,
                    name,
                    value,
                },
                indexed,
            )?;
        }
        sink.flush()?;
        self.docs.push(DocInfo {
            name: name.into(),
            doc_key,
        });
        self.doc_gens.push(0);
        Ok(DocId(ordinal as u32))
    }

    /// The value a bulk load stores for the text or attribute `node`. A
    /// candidate's first occurrence settles its slot: a value counted
    /// [`DICT_MIN_FREQ`] times is interned there, so all its occurrences
    /// are stored as its dictionary id and ids follow the document order
    /// of first occurrence; any other value keeps the id an earlier load
    /// gave it, or stays inline. Ids depend only on the document and the
    /// dictionary's prior state, so WAL replay and replication (which
    /// re-run the same loads in the same order) reproduce them exactly.
    fn make_loaded_value(
        &mut self,
        node: NodeId,
        value: &str,
        values: &mut Candidates,
    ) -> Result<ValueRef> {
        let slot = &mut values.slots[values.of_node.get(node.index()).map_or(0, |&i| i as usize)];
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

    /// Parses and loads XML text in one step.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<DocId> {
        let doc = vamana_xml::parse(xml)
            .map_err(|e| MassError::InvalidUpdate(format!("XML parse failed: {e}")))?;
        self.load_document(name, &doc)
    }
}

/// The dictionary candidates of a document a v2 store loads — its
/// non-empty text and attribute values of at most [`DICT_MAX_VALUE_LEN`]
/// bytes — each with a slot. Slot 0 stands for every other value (none
/// can be in the dictionary) and for all values of a v1 load.
struct Candidates {
    /// Per node id, its value's slot (0 past the end).
    of_node: Vec<u32>,
    slots: Vec<Slot>,
}

/// A candidate's count in the document until the load walk first meets
/// it; from then on 0, and the dictionary id it is stored as (`None`:
/// inline).
#[derive(Clone, Copy, Default)]
struct Slot {
    count: u64,
    id: Option<u32>,
}

impl Candidates {
    /// Counts the candidates of `doc` in one pass in arena order (counts
    /// need no order), so that the load walk finds each node's slot
    /// without hashing its value again.
    fn count(doc: &Document, format: StoreFormat) -> Self {
        let mut values = Candidates {
            of_node: Vec::new(),
            slots: vec![Slot::default()],
        };
        if format == StoreFormat::V1 {
            return values;
        }
        values.of_node = vec![0; doc.len()];
        let mut index: HashMap<&str, u32> = HashMap::new();
        for id in doc.all_ids() {
            if let NodeKind::Text { value } | NodeKind::Attribute { value, .. } = doc.kind(id) {
                if value.is_empty() || value.len() > DICT_MAX_VALUE_LEN {
                    continue;
                }
                let at = *index.entry(value).or_insert_with(|| {
                    values.slots.push(Slot::default());
                    (values.slots.len() - 1) as u32
                });
                values.slots[at as usize].count += 1;
                values.of_node[id.index()] = at;
            }
        }
        values
    }
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
    /// full, then indexes it. A record too large for an empty page is an
    /// error before anything indexes it.
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
        self.store.index_record(rec, value, true)
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
