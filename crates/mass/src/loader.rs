//! Bulk loading of parsed XML documents into a [`MassStore`].
//!
//! The loader walks the document in pre-order, assigns FLEX keys with a
//! [`KeyGenerator`], packs records into pages append-only, and feeds the
//! name/value indexes in document order (cheap `push_ordered` instead of
//! sorted inserts).

use crate::error::{MassError, Result};
use crate::page::PageBuf;
use crate::record::{NodeRecord, RecordKind};
use crate::store::{DocId, DocInfo, MassStore};
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
        if self.format == crate::compress::StoreFormat::V2 {
            self.admit_dictionary_values(doc);
        }
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
                value: crate::record::ValueRef::None,
            },
            None,
        )?;

        // Iterative pre-order walk of the XML arena.
        enum Step {
            Enter(NodeId),
            Leave,
        }
        let mut stack: Vec<Step> = doc
            .children(Document::ROOT)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
            .map(Step::Enter)
            .collect();
        while let Some(step) = stack.pop() {
            match step {
                Step::Leave => generator.close_element(),
                Step::Enter(id) => match doc.kind(id) {
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
                            let vref = sink.store.make_value(avalue)?;
                            sink.emit(
                                NodeRecord {
                                    key: akey,
                                    kind: RecordKind::Attribute,
                                    name: Some(aid),
                                    value: vref,
                                },
                                Some(avalue.to_string()),
                            )?;
                        }
                        stack.push(Step::Leave);
                        let kids: Vec<_> = doc.children(id).collect();
                        for child in kids.into_iter().rev() {
                            stack.push(Step::Enter(child));
                        }
                    }
                    NodeKind::Text { value } => {
                        let key = generator.leaf();
                        let vref = sink.store.make_value(value)?;
                        sink.emit(
                            NodeRecord {
                                key,
                                kind: RecordKind::Text,
                                name: None,
                                value: vref,
                            },
                            Some(value.to_string()),
                        )?;
                    }
                    NodeKind::Comment { value } => {
                        let key = generator.leaf();
                        let vref = sink.store.make_value(value)?;
                        sink.emit(
                            NodeRecord {
                                key,
                                kind: RecordKind::Comment,
                                name: None,
                                value: vref,
                            },
                            None,
                        )?;
                    }
                    NodeKind::ProcessingInstruction { target, data } => {
                        let name_id = sink.store.intern(target);
                        let key = generator.leaf();
                        let vref = sink.store.make_value(data)?;
                        sink.emit(
                            NodeRecord {
                                key,
                                kind: RecordKind::Pi,
                                name: Some(name_id),
                                value: vref,
                            },
                            None,
                        )?;
                    }
                    NodeKind::Attribute { .. } => unreachable!("attributes are not children"),
                    NodeKind::Document => unreachable!("nested document node"),
                },
            }
        }
        sink.flush()?;
        self.docs.push(DocInfo {
            name: name.into(),
            doc_key,
        });
        self.doc_gens.push(0);
        Ok(DocId(ordinal as u32))
    }

    /// Admits `doc`'s hot values into the store dictionary: short
    /// text/attribute values occurring at least
    /// [`crate::compress::DICT_MIN_FREQ`] times, admitted in document
    /// order of first occurrence. Both passes depend only on the document
    /// and the dictionary's prior state, so WAL replay and replication
    /// (which re-run the same loads in the same order) reproduce the
    /// exact id sequence.
    fn admit_dictionary_values(&mut self, doc: &Document) {
        use std::collections::HashMap;
        let mut counts: HashMap<&str, u64> = HashMap::new();
        for_each_value(doc, &mut |v| {
            if !v.is_empty() && v.len() <= crate::compress::DICT_MAX_VALUE_LEN {
                *counts.entry(v).or_insert(0) += 1;
            }
        });
        for_each_value(doc, &mut |v| {
            if counts.get(v).copied().unwrap_or(0) >= crate::compress::DICT_MIN_FREQ {
                self.dict.intern(v);
            }
        });
    }

    /// Parses and loads XML text in one step.
    pub fn load_xml(&mut self, name: &str, xml: &str) -> Result<DocId> {
        let doc = vamana_xml::parse(xml)
            .map_err(|e| MassError::InvalidUpdate(format!("XML parse failed: {e}")))?;
        self.load_document(name, &doc)
    }
}

/// Walks every text and attribute value of `doc` in document order.
fn for_each_value<'d>(doc: &'d Document, f: &mut dyn FnMut(&'d str)) {
    let mut stack: Vec<NodeId> = doc.children(Document::ROOT).collect();
    stack.reverse();
    while let Some(id) = stack.pop() {
        match doc.kind(id) {
            NodeKind::Element { .. } => {
                for attr in doc.attributes(id) {
                    f(doc.value(attr).expect("attribute has value"));
                }
                let kids: Vec<_> = doc.children(id).collect();
                for child in kids.into_iter().rev() {
                    stack.push(child);
                }
            }
            NodeKind::Text { value } => f(value),
            _ => {}
        }
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

    fn emit(&mut self, rec: NodeRecord, value: Option<String>) -> Result<()> {
        if !self.page.fits_record(&rec) {
            if self.page.is_empty() {
                return Err(MassError::InvalidUpdate(format!(
                    "record of {} bytes exceeds page capacity (key too deep?)",
                    rec.encoded_len()
                )));
            }
            self.write_page()?;
        }
        self.store.index_record(&rec, value.as_deref(), true)?;
        self.page.append(rec)?;
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
