//! Exporting stored subtrees back to XML.
//!
//! Writes a subtree's XML text in one cursor sweep over its key range,
//! with an explicit stack of open elements and no DOM — used by `.save`
//! in the CLI, by XQuery result serialization, and by tests that verify
//! load → export round trips.

use crate::cursor::MassCursor;
use crate::error::{MassError, Result};
use crate::names::NameId;
use crate::record::RecordKind;
use crate::store::MassStore;
use std::fmt::Write as _;
use vamana_flex::{flat_is_ancestor, FlexKey, KeyRange};
use vamana_xml::escape::{escape_attr, escape_text};

/// Exports the subtree at `key` as compact XML text: the text
/// `vamana_xml::write_document` writes for the same tree.
///
/// `key` may be a document record (exports the whole document) or any
/// element (exports that element as the new root).
pub fn export_subtree_xml(store: &MassStore, key: &FlexKey) -> Result<String> {
    /// An element whose end tag is not written yet (the document record
    /// has no name): its key, and whether its start tag is still open for
    /// attributes.
    struct Open {
        key: FlexKey,
        name: Option<NameId>,
        in_tag: bool,
    }
    let corrupt = |why: &str| MassError::CorruptRecord(why.into());
    let close = |out: &mut String, open: Open| match (open.name, open.in_tag) {
        (None, _) => {}
        (Some(_), true) => out.push_str("/>"),
        (Some(name), false) => {
            let _ = write!(out, "</{}>", store.names().resolve(name));
        }
    };
    let mut out = String::new();
    let root = store.get(key)?.ok_or(MassError::KeyNotFound)?;
    let mut open = match root.kind {
        RecordKind::Document => vec![Open {
            key: key.clone(),
            name: None,
            in_tag: false,
        }],
        RecordKind::Element => {
            let name = root.name.ok_or_else(|| corrupt("element without name"))?;
            out.push('<');
            out.push_str(store.names().resolve(name));
            vec![Open {
                key: key.clone(),
                name: Some(name),
                in_tag: true,
            }]
        }
        other => {
            return Err(MassError::InvalidUpdate(format!(
                "can only export documents or elements, got {other:?}"
            )))
        }
    };

    let mut cursor = MassCursor::new(store, KeyRange::descendants(key));
    let mut value = String::new();
    while let Some((page, i)) = cursor.next_in_place()? {
        let rec = page.view(i);
        while let Some(top) = open.pop_if(|top| !flat_is_ancestor(top.key.as_flat(), rec.key)) {
            close(&mut out, top);
        }
        let top = open
            .last_mut()
            .ok_or_else(|| corrupt("record outside exported subtree"))?;
        let name = |what: &str| {
            rec.name
                .map(|id| store.names().resolve(id))
                .ok_or_else(|| corrupt(&format!("{what} without name")))
        };
        value.clear();
        store.append_value(page.value(i)?, &mut value)?;
        if rec.kind == RecordKind::Attribute {
            if !top.in_tag {
                return Err(corrupt("attribute outside a start tag"));
            }
            let _ = write!(out, " {}=\"{}\"", name("attribute")?, escape_attr(&value));
            continue;
        }
        if std::mem::take(&mut top.in_tag) {
            out.push('>');
        }
        match rec.kind {
            RecordKind::Element => {
                let _ = write!(out, "<{}", name("element")?);
                open.push(Open {
                    key: FlexKey::from_flat_slice(rec.key),
                    name: rec.name,
                    in_tag: true,
                });
            }
            RecordKind::Text => out.push_str(&escape_text(&value)),
            RecordKind::Comment => {
                let _ = write!(out, "<!--{value}-->");
            }
            RecordKind::Pi if value.is_empty() => {
                let _ = write!(out, "<?{}?>", name("PI")?);
            }
            RecordKind::Pi => {
                let _ = write!(out, "<?{} {value}?>", name("PI")?);
            }
            RecordKind::Attribute => unreachable!("attributes are written above"),
            RecordKind::Document => return Err(corrupt("nested document record")),
        }
    }
    while let Some(top) = open.pop() {
        close(&mut out, top);
    }
    Ok(out)
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
        assert!(export_subtree_xml(&s, &bogus).is_err());
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

    #[test]
    fn prolog_comments_pis_and_escapes_round_trip() {
        let src = r#"<!--head--><?style a b?><r k="&lt;&amp;&quot;">x &amp; y<?p?><e/><![CDATA[<z>]]></r><!--tail-->"#;
        let mut s = MassStore::open_memory();
        s.load_xml("d", src).unwrap();
        let doc = vamana_xml::parse(src).unwrap();
        let want = vamana_xml::write_document(&doc, &vamana_xml::WriteOptions::default());
        let key = s.documents()[0].doc_key.clone();
        assert_eq!(export_subtree_xml(&s, &key).unwrap(), want);
    }

    #[test]
    fn deep_documents_export_without_recursion() {
        let depth = 3000;
        let src = "<d>".repeat(depth) + &"</d>".repeat(depth);
        let mut s = MassStore::open_memory();
        s.load_xml("deep", &src).unwrap();
        let key = s.documents()[0].doc_key.clone();
        let want = "<d>".repeat(depth - 1) + "<d/>" + &"</d>".repeat(depth - 1);
        assert_eq!(export_subtree_xml(&s, &key).unwrap(), want);
    }
}
