//! Node records: what MASS stores for each XML node, and their on-page
//! byte encoding.

use crate::error::{MassError, Result};
use crate::names::NameId;
use vamana_flex::FlexKey;

/// The kind of a stored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum RecordKind {
    /// A per-document virtual root (the XPath document node).
    Document = 0,
    /// Element node.
    Element = 1,
    /// Attribute node.
    Attribute = 2,
    /// Text node.
    Text = 3,
    /// Comment node.
    Comment = 4,
    /// Processing instruction.
    Pi = 5,
}

impl RecordKind {
    pub(crate) fn from_u8(b: u8) -> Result<Self> {
        Ok(match b {
            0 => RecordKind::Document,
            1 => RecordKind::Element,
            2 => RecordKind::Attribute,
            3 => RecordKind::Text,
            4 => RecordKind::Comment,
            5 => RecordKind::Pi,
            other => return Err(MassError::CorruptRecord(format!("bad kind byte {other}"))),
        })
    }
}

/// Where a record's textual value lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueRef {
    /// No value (elements, documents).
    None,
    /// Short value stored inline in the record.
    Inline(Box<str>),
    /// Long value stored in the overflow blob heap: (offset, byte length).
    Overflow {
        /// Byte offset of the blob in the overflow heap.
        offset: u64,
        /// Byte length of the blob.
        len: u32,
    },
    /// Hot value interned in the store's [`crate::compress::ValueDict`].
    Dict(u32),
}

impl ValueRef {
    /// The same reference with an inline value borrowed, not owned.
    pub fn view(&self) -> ValueView<'_> {
        match self {
            ValueRef::None => ValueView::None,
            ValueRef::Inline(s) => ValueView::Inline(s),
            ValueRef::Overflow { offset, len } => ValueView::Overflow {
                offset: *offset,
                len: *len,
            },
            ValueRef::Dict(id) => ValueView::Dict(*id),
        }
    }
}

/// A [`ValueRef`] whose inline value is borrowed — from the page image
/// it lies in ([`crate::page::Page::value`]) or from an owned record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueView<'a> {
    /// No value (elements, documents).
    None,
    /// Short value, read in place.
    Inline(&'a str),
    /// Long value in the overflow blob heap: (offset, byte length).
    Overflow {
        /// Byte offset of the blob in the overflow heap.
        offset: u64,
        /// Byte length of the blob.
        len: u32,
    },
    /// Hot value interned in the store's [`crate::compress::ValueDict`].
    Dict(u32),
}

impl ValueView<'_> {
    /// The owned form, copying an inline value.
    pub fn into_owned(self) -> ValueRef {
        match self {
            ValueView::None => ValueRef::None,
            ValueView::Inline(s) => ValueRef::Inline(s.into()),
            ValueView::Overflow { offset, len } => ValueRef::Overflow { offset, len },
            ValueView::Dict(id) => ValueRef::Dict(id),
        }
    }
}

/// One stored node, owned: what [`crate::MassStore::get`] returns and
/// what the loader, the WAL and the update path build and edit. Scans
/// read records in place through [`crate::page::Page`]'s accessors and
/// never construct one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRecord {
    /// Structural key; also the clustering key.
    pub key: FlexKey,
    /// Node kind.
    pub kind: RecordKind,
    /// Interned name for elements/attributes/PI targets.
    pub name: Option<NameId>,
    /// Text/attribute/comment/PI value.
    pub value: ValueRef,
}

impl NodeRecord {
    /// Creates an element record.
    pub fn element(key: FlexKey, name: NameId) -> Self {
        NodeRecord {
            key,
            kind: RecordKind::Element,
            name: Some(name),
            value: ValueRef::None,
        }
    }

    /// Creates a text record with an inline value.
    pub fn text(key: FlexKey, value: &str) -> Self {
        NodeRecord {
            key,
            kind: RecordKind::Text,
            name: None,
            value: ValueRef::Inline(value.into()),
        }
    }

    /// Creates an attribute record with an inline value.
    pub fn attribute(key: FlexKey, name: NameId, value: &str) -> Self {
        NodeRecord {
            key,
            kind: RecordKind::Attribute,
            name: Some(name),
            value: ValueRef::Inline(value.into()),
        }
    }

    /// Serialized size in bytes (used by the page packer).
    pub fn encoded_len(&self) -> usize {
        let val = match &self.value {
            ValueRef::None => 0,
            ValueRef::Inline(s) => s.len(),
            ValueRef::Overflow { .. } => 12,
            ValueRef::Dict(_) => 4,
        };
        // key_len(2) + key + kind(1) + name(4) + value_tag(1) + value_len(4) + value
        2 + self.key.as_flat().len() + 1 + 4 + 1 + 4 + val
    }

    /// Appends the record's encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let flat = self.key.as_flat();
        out.extend_from_slice(&(flat.len() as u16).to_le_bytes());
        out.extend_from_slice(flat);
        out.push(self.kind as u8);
        out.extend_from_slice(
            &self
                .name
                .map(|n| n.0)
                .unwrap_or(NameId::NONE_RAW)
                .to_le_bytes(),
        );
        match &self.value {
            ValueRef::None => {
                out.push(0);
                out.extend_from_slice(&0u32.to_le_bytes());
            }
            ValueRef::Inline(s) => {
                out.push(1);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            ValueRef::Overflow { offset, len } => {
                out.push(2);
                out.extend_from_slice(&12u32.to_le_bytes());
                out.extend_from_slice(&offset.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
            ValueRef::Dict(id) => {
                out.push(3);
                out.extend_from_slice(&4u32.to_le_bytes());
                out.extend_from_slice(&id.to_le_bytes());
            }
        }
    }

    /// Decodes one record from `buf`, returning it and the bytes consumed.
    ///
    /// Not on the read path: pages build a slot table over their image
    /// instead ([`crate::page::Page::decode`]). This stays as the
    /// record-level codec and as the reference that decode is tested
    /// against.
    pub fn decode(buf: &[u8]) -> Result<(NodeRecord, usize)> {
        let need = |n: usize, at: usize| -> Result<()> {
            if buf.len() < at + n {
                Err(MassError::CorruptRecord("record truncated".into()))
            } else {
                Ok(())
            }
        };
        need(2, 0)?;
        let key_len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        need(key_len, 2)?;
        if !FlexKey::is_valid_flat(&buf[2..2 + key_len]) {
            return Err(MassError::CorruptRecord("malformed flat key".into()));
        }
        let key = FlexKey::from_flat_slice(&buf[2..2 + key_len]);
        let mut at = 2 + key_len;
        need(1 + 4 + 1 + 4, at)?;
        let kind = RecordKind::from_u8(buf[at])?;
        at += 1;
        let raw_name = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes"));
        let name = (raw_name != NameId::NONE_RAW).then_some(NameId(raw_name));
        at += 4;
        let tag = buf[at];
        at += 1;
        let vlen = u32::from_le_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        at += 4;
        need(vlen, at)?;
        let value = match tag {
            0 => ValueRef::None,
            1 => ValueRef::Inline(
                std::str::from_utf8(&buf[at..at + vlen])
                    .map_err(|_| MassError::CorruptRecord("non-UTF8 value".into()))?
                    .into(),
            ),
            2 => {
                if vlen != 12 {
                    return Err(MassError::CorruptRecord("bad overflow ref".into()));
                }
                ValueRef::Overflow {
                    offset: u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes")),
                    len: u32::from_le_bytes(buf[at + 8..at + 12].try_into().expect("4 bytes")),
                }
            }
            3 => {
                if vlen != 4 {
                    return Err(MassError::CorruptRecord("bad dict ref".into()));
                }
                ValueRef::Dict(u32::from_le_bytes(
                    buf[at..at + 4].try_into().expect("4 bytes"),
                ))
            }
            other => return Err(MassError::CorruptRecord(format!("bad value tag {other}"))),
        };
        at += vlen;
        Ok((
            NodeRecord {
                key,
                kind,
                name,
                value,
            },
            at,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_flex::seq_label;

    fn key(path: &[u64]) -> FlexKey {
        let mut k = FlexKey::root();
        for &i in path {
            k = k.child(&seq_label(i));
        }
        k
    }

    #[test]
    fn element_round_trip() {
        let rec = NodeRecord::element(key(&[0, 3]), NameId(7));
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len());
        let (back, used) = NodeRecord::decode(&buf).unwrap();
        assert_eq!(back, rec);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn text_round_trip() {
        let rec = NodeRecord::text(key(&[0, 3, 1]), "Yung Flach");
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let (back, _) = NodeRecord::decode(&buf).unwrap();
        assert_eq!(back.value, ValueRef::Inline("Yung Flach".into()));
        assert_eq!(back.kind, RecordKind::Text);
        assert_eq!(back.name, None);
    }

    #[test]
    fn attribute_round_trip() {
        let rec = NodeRecord::attribute(key(&[1]), NameId(0), "person144");
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let (back, _) = NodeRecord::decode(&buf).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn overflow_round_trip() {
        let rec = NodeRecord {
            key: key(&[2]),
            kind: RecordKind::Text,
            name: None,
            value: ValueRef::Overflow {
                offset: 123456789,
                len: 42,
            },
        };
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        assert_eq!(buf.len(), rec.encoded_len());
        let (back, _) = NodeRecord::decode(&buf).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn consecutive_records_decode_in_sequence() {
        let recs = vec![
            NodeRecord::element(key(&[0]), NameId(0)),
            NodeRecord::text(key(&[0, 0]), "hello"),
            NodeRecord::attribute(key(&[0, 1]), NameId(1), "v"),
        ];
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf);
        }
        let mut at = 0;
        for r in &recs {
            let (back, used) = NodeRecord::decode(&buf[at..]).unwrap();
            assert_eq!(&back, r);
            at += used;
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let rec = NodeRecord::text(key(&[0]), "some value here");
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        for cut in [0, 1, 3, buf.len() - 1] {
            assert!(NodeRecord::decode(&buf[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_kind_byte_is_an_error() {
        let rec = NodeRecord::element(key(&[0]), NameId(0));
        let mut buf = Vec::new();
        rec.encode(&mut buf);
        let kind_pos = 2 + rec.key.as_flat().len();
        buf[kind_pos] = 99;
        assert!(NodeRecord::decode(&buf).is_err());
    }
}
