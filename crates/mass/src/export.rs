//! Exporting stored subtrees back to XML.
//!
//! Reconstructs a [`vamana_xml::Document`] from the clustered index by
//! scanning a subtree range — used by `.save` in the CLI, by XQuery
//! element constructors (which copy nodes into their output), and by
//! tests that verify load → export round trips.

use crate::cursor::MassCursor;
use crate::error::{MassError, Result};
use crate::record::RecordKind;
use crate::store::MassStore;
use vamana_flex::{flat_is_ancestor, FlexKey, KeyRange};
use vamana_xml::{Document, NodeId};

/// Rebuilds the subtree rooted at `key` as a fresh XML document.
///
/// `key` may be a document record (exports the whole document) or any
/// element (exports that element as the new root).
pub fn export_subtree(store: &MassStore, key: &FlexKey) -> Result<Document> {
    let mut doc = Document::new();
    let root_rec = store.get(key)?.ok_or(MassError::KeyNotFound)?;
    let mut stack: Vec<(FlexKey, NodeId)> = Vec::new();
    match root_rec.kind {
        RecordKind::Document => {
            stack.push((key.clone(), Document::ROOT));
        }
        RecordKind::Element => {
            let name = store.names().resolve(
                root_rec
                    .name
                    .ok_or_else(|| MassError::CorruptRecord("element without name".into()))?,
            );
            let id = doc.push_element(Document::ROOT, name);
            stack.push((key.clone(), id));
        }
        other => {
            return Err(MassError::InvalidUpdate(format!(
                "can only export documents or elements, got {other:?}"
            )))
        }
    }

    let mut cursor = MassCursor::new(store, KeyRange::descendants(key));
    while let Some((page, i)) = cursor.next_in_place()? {
        let rec = page.view(i);
        while let Some((top_key, _)) = stack.last() {
            if flat_is_ancestor(top_key.as_flat(), rec.key) {
                break;
            }
            stack.pop();
        }
        let (_, parent) = *stack
            .last()
            .ok_or_else(|| MassError::CorruptRecord("record outside exported subtree".into()))?;
        let name = |what: &str| {
            rec.name
                .map(|id| store.names().resolve(id))
                .ok_or_else(|| MassError::CorruptRecord(format!("{what} without name")))
        };
        let mut value = String::new();
        store.append_value(page.value(i)?, &mut value)?;
        match rec.kind {
            RecordKind::Element => {
                let id = doc.push_element(parent, name("element")?);
                stack.push((FlexKey::from_flat_slice(rec.key), id));
            }
            RecordKind::Attribute => {
                doc.push_attribute(parent, name("attribute")?, &value);
            }
            RecordKind::Text => {
                doc.push_text(parent, &value);
            }
            RecordKind::Comment => {
                doc.push_comment(parent, &value);
            }
            RecordKind::Pi => {
                doc.push_pi(parent, name("PI")?, &value);
            }
            RecordKind::Document => {
                return Err(MassError::CorruptRecord("nested document record".into()))
            }
        }
    }
    Ok(doc)
}

/// Exports the subtree at `key` as XML text (compact).
pub fn export_subtree_xml(store: &MassStore, key: &FlexKey) -> Result<String> {
    let doc = export_subtree(store, key)?;
    Ok(vamana_xml::write_document(
        &doc,
        &vamana_xml::WriteOptions::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"<site><person id="p0"><name>Yung Flach</name><!--vip--><watches><watch open_auction="oa1"/></watches></person><person id="p1"><name>Ann</name></person></site>"#;

    fn store() -> MassStore {
        let mut s = MassStore::open_memory();
        s.load_xml("doc", SRC).unwrap();
        s
    }

    #[test]
    fn whole_document_round_trips() {
        let s = store();
        let doc_key = s.documents()[0].doc_key.clone();
        assert_eq!(export_subtree_xml(&s, &doc_key).unwrap(), SRC);
    }

    #[test]
    fn element_subtree_exports_as_root() {
        let s = store();
        let person = s.name_id("person").unwrap();
        let first =
            FlexKey::from_flat_slice(s.name_index().elements(person).iter().next().unwrap());
        let xml = export_subtree_xml(&s, &first).unwrap();
        assert_eq!(
            xml,
            r#"<person id="p0"><name>Yung Flach</name><!--vip--><watches><watch open_auction="oa1"/></watches></person>"#
        );
    }

    #[test]
    fn text_nodes_export_standalone_parents() {
        let s = store();
        let name = s.name_id("name").unwrap();
        let second = FlexKey::from_flat_slice(s.name_index().elements(name).iter().nth(1).unwrap());
        assert_eq!(export_subtree_xml(&s, &second).unwrap(), "<name>Ann</name>");
    }

    #[test]
    fn exporting_missing_key_errors() {
        let s = store();
        let bogus = FlexKey::root().child(&vamana_flex::seq_label(999));
        assert!(export_subtree(&s, &bogus).is_err());
    }

    #[test]
    fn export_after_update_reflects_changes() {
        let mut s = store();
        let person = s.name_id("person").unwrap();
        let first =
            FlexKey::from_flat_slice(s.name_index().elements(person).iter().next().unwrap());
        let e = s.append_element(&first, "phone").unwrap();
        s.append_text(&e, "555").unwrap();
        let xml = export_subtree_xml(&s, &first).unwrap();
        assert!(xml.contains("<phone>555</phone>"), "{xml}");
    }
}
