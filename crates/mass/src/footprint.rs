//! What one write put into or took out of a document.

use crate::record::RecordKind;
use crate::wal::WalRecord;

/// The nodes one write inserted or deleted, as far as a node test can tell
/// them apart: the distinct names of the elements and attributes in the
/// written subtrees, and whether those held text, comment,
/// processing-instruction or document nodes. [`crate::MassStore::commit`]
/// returns it, and a follower's [`crate::MassStore::apply_replicated`]:
/// the one apply path notes it from the records it inserts and the ones
/// it removes anyway, so nothing is read twice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Names of the elements written.
    pub elements: Vec<Box<str>>,
    /// Names of the attributes written.
    pub attributes: Vec<Box<str>>,
    /// Whether a text node was written.
    pub text: bool,
    /// Whether a comment was written.
    pub comment: bool,
    /// Whether a processing instruction was written.
    pub pi: bool,
    /// Whether a document node was deleted.
    pub document: bool,
}

impl Footprint {
    /// Notes one written node of `kind`, named `name` when it is an
    /// element or an attribute.
    pub(crate) fn note(&mut self, kind: RecordKind, name: Option<&str>) {
        let names = match kind {
            RecordKind::Element => &mut self.elements,
            RecordKind::Attribute => &mut self.attributes,
            RecordKind::Text => {
                self.text = true;
                return;
            }
            RecordKind::Comment => {
                self.comment = true;
                return;
            }
            RecordKind::Pi => {
                self.pi = true;
                return;
            }
            RecordKind::Document => {
                self.document = true;
                return;
            }
        };
        if let Some(name) = name {
            if !names.iter().any(|n| **n == *name) {
                names.push(name.into());
            }
        }
    }

    /// Notes the node an insert record writes.
    pub(crate) fn note_insert(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::InsertElement { name, .. } => self.note(RecordKind::Element, Some(name)),
            WalRecord::InsertAttribute { name, .. } => self.note(RecordKind::Attribute, Some(name)),
            WalRecord::InsertText { .. } => self.note(RecordKind::Text, None),
            _ => {}
        }
    }

    /// Whether nothing was written.
    pub fn is_empty(&self) -> bool {
        *self == Footprint::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MassStore;

    #[test]
    fn a_write_notes_the_names_and_kinds_of_what_it_wrote() {
        let mut store = MassStore::open_memory();
        store
            .load_xml("d", "<r><p id='1'>x<!--c--><q/></p></r>")
            .unwrap();
        let doc = store.documents()[0].doc_key.clone();
        let r = store.last_child_key(&doc).unwrap().unwrap();
        let fragment = store.plan_fragment(&r, "<n k='v'><n/><m k='w'/></n>");
        let inserted = store.commit(&fragment.unwrap()).unwrap();
        assert_eq!(inserted.elements, vec!["n".into(), "m".into()]);
        assert_eq!(inserted.attributes, vec!["k".into()]);
        assert!(!inserted.text && !inserted.comment && !inserted.is_empty());
        let delete = |key| [WalRecord::DeleteSubtree { key }];
        let p = store.last_child_key(&r).unwrap().unwrap();
        let deleted = store.commit(&delete(p)).unwrap();
        assert_eq!(deleted.elements, vec!["n".into(), "m".into()]);
        let p = store.last_child_key(&r).unwrap().unwrap();
        let deleted = store.commit(&delete(p)).unwrap();
        assert_eq!(deleted.elements, vec!["p".into(), "q".into()]);
        assert_eq!(deleted.attributes, vec!["id".into()]);
        assert!(deleted.text && deleted.comment && !deleted.pi && !deleted.document);
        assert!(store.commit(&delete(doc)).unwrap().document);
    }
}
