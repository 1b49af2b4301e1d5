//! The compressed page tier: store formats, varints, the per-store
//! value dictionary, and the front-coded (v2) record codec.
//!
//! Format v2 exploits two redundancies the v1 page image ignores:
//!
//! * **FLEX keys share prefixes.** Records are clustered in document
//!   order, and a descendant's key extends its ancestor's, so adjacent
//!   records on a page agree on most of their key bytes. V2 front-codes
//!   each key against its on-page predecessor: `varint(shared-prefix
//!   length) + varint(suffix length) + suffix bytes`.
//! * **Values repeat.** Tag and attribute names are already interned as
//!   [`crate::names::NameId`]s; v2 additionally interns *hot values*
//!   (short text/attribute strings that recur in a document) in a
//!   per-store [`ValueDict`] persisted in the catalog, so a repeated
//!   value costs a varint per occurrence instead of its bytes.
//!
//! Fixed-width fields shrink too: the v1 record spends 12 bytes on
//! `key_len(2) + kind(1) + name(4) + value_tag(1) + value_len(4)`; v2
//! packs kind + value tag + name presence into one meta byte and writes
//! the rest as varints. Pages self-describe their format in the header
//! magic, so a store may hold a mix (see the overflow rule in
//! `DESIGN.md`) and every page decodes without out-of-band state.

use crate::error::{MassError, Result};
use crate::names::NameId;
use crate::record::{NodeRecord, RecordKind, ValueRef};
use std::collections::HashMap;
use vamana_flex::FlexKey;

/// On-disk page format of a store. New pages are written in this format;
/// existing pages keep whatever format their header magic declares. New
/// stores are v2; v1 is kept for older stores and the overflow fallback.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum StoreFormat {
    /// The original uncompressed page image.
    V1,
    /// Front-coded keys + dictionary-coded values.
    #[default]
    V2,
}

impl StoreFormat {
    /// Short human-readable name (`"v1"` / `"v2"`).
    pub fn as_str(self) -> &'static str {
        match self {
            StoreFormat::V1 => "v1",
            StoreFormat::V2 => "v2",
        }
    }
}

// ---- varints -------------------------------------------------------------

/// Bytes a LEB128 varint of `v` occupies (1..=10).
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Appends `v` as a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from `buf`, returning `(value, bytes used)`.
pub fn read_varint(buf: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(MassError::CorruptRecord("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(MassError::CorruptRecord("varint truncated".into()))
}

// ---- value dictionary ----------------------------------------------------

/// Only values this short are dictionary candidates; longer ones rarely
/// repeat and would bloat the catalog.
pub const DICT_MAX_VALUE_LEN: usize = 64;
/// A value must occur at least this often within one loaded document to
/// be admitted.
pub const DICT_MIN_FREQ: u64 = 4;
/// Hard cap on dictionary entries (ids stay comfortably in a varint).
pub const DICT_MAX_ENTRIES: usize = 1 << 16;

/// Per-store dictionary of hot text/attribute values.
///
/// Append-only with dense ids, mirroring [`crate::names::NameTable`]:
/// ids handed out are never reassigned, so a [`ValueRef::Dict`] stored in
/// a page stays valid for the life of the store. Entries are admitted
/// only during bulk loads (deterministically from the document, in
/// document order), which keeps WAL replay and replication byte-exact:
/// replaying the same loads in the same order rebuilds the same ids.
#[derive(Debug, Default, Clone)]
pub struct ValueDict {
    entries: Vec<Box<str>>,
    ids: HashMap<Box<str>, u32>,
}

impl ValueDict {
    /// An empty dictionary.
    pub fn new() -> Self {
        ValueDict::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no values are interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Id of `value` if interned.
    pub fn lookup(&self, value: &str) -> Option<u32> {
        self.ids.get(value).copied()
    }

    /// Resolves an id to its value.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.entries.get(id as usize).map(|s| &**s)
    }

    /// Interns `value`, returning its id (existing or fresh). Returns
    /// `None` when the dictionary is full.
    pub fn intern(&mut self, value: &str) -> Option<u32> {
        if let Some(&id) = self.ids.get(value) {
            return Some(id);
        }
        if self.entries.len() >= DICT_MAX_ENTRIES {
            return None;
        }
        let id = self.entries.len() as u32;
        self.entries.push(value.into());
        self.ids.insert(value.into(), id);
        Some(id)
    }

    /// Iterates entries in id order (catalog serialization).
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|s| &**s)
    }
}

// ---- the v2 record codec -------------------------------------------------

pub(crate) const KIND_MASK: u8 = 0x07;
pub(crate) const TAG_SHIFT: u8 = 3;
pub(crate) const TAG_MASK: u8 = 0x03;
pub(crate) const HAS_NAME: u8 = 0x20;

fn kind_from_u8(b: u8) -> Result<RecordKind> {
    Ok(match b {
        0 => RecordKind::Document,
        1 => RecordKind::Element,
        2 => RecordKind::Attribute,
        3 => RecordKind::Text,
        4 => RecordKind::Comment,
        5 => RecordKind::Pi,
        other => return Err(MassError::CorruptRecord(format!("bad kind bits {other}"))),
    })
}

/// Length of the longest common prefix of `a` and `b`.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Encoded size of `rec` front-coded against `prev` (the flat key of the
/// record's on-page predecessor, `None` for the first record).
pub fn v2_record_len(rec: &NodeRecord, prev: Option<&[u8]>) -> usize {
    let flat = rec.key.as_flat();
    let lcp = prev.map_or(0, |p| common_prefix(p, flat));
    let suffix = flat.len() - lcp;
    let name = rec.name.map_or(0, |NameId(raw)| varint_len(u64::from(raw)));
    let value = match &rec.value {
        ValueRef::None => 0,
        ValueRef::Inline(s) => varint_len(s.len() as u64) + s.len(),
        ValueRef::Overflow { offset, len } => varint_len(*offset) + varint_len(u64::from(*len)),
        ValueRef::Dict(id) => varint_len(u64::from(*id)),
    };
    varint_len(lcp as u64) + varint_len(suffix as u64) + suffix + 1 + name + value
}

/// Appends the v2 encoding of `rec` (front-coded against `prev`) to `out`.
pub fn v2_encode_record(rec: &NodeRecord, prev: Option<&[u8]>, out: &mut Vec<u8>) {
    let flat = rec.key.as_flat();
    let lcp = prev.map_or(0, |p| common_prefix(p, flat));
    put_varint(out, lcp as u64);
    put_varint(out, (flat.len() - lcp) as u64);
    out.extend_from_slice(&flat[lcp..]);
    let tag = match &rec.value {
        ValueRef::None => 0u8,
        ValueRef::Inline(_) => 1,
        ValueRef::Overflow { .. } => 2,
        ValueRef::Dict(_) => 3,
    };
    let mut meta = (rec.kind as u8) | (tag << TAG_SHIFT);
    if rec.name.is_some() {
        meta |= HAS_NAME;
    }
    out.push(meta);
    if let Some(NameId(raw)) = rec.name {
        put_varint(out, u64::from(raw));
    }
    match &rec.value {
        ValueRef::None => {}
        ValueRef::Inline(s) => {
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        ValueRef::Overflow { offset, len } => {
            put_varint(out, *offset);
            put_varint(out, u64::from(*len));
        }
        ValueRef::Dict(id) => put_varint(out, u64::from(*id)),
    }
}

/// Decodes one v2 record from `buf` given the predecessor's flat key,
/// returning the record and bytes consumed.
///
/// Not on the read path ([`crate::page::Page::decode`] rebuilds a page's
/// keys into one arena without a record per node); kept as the
/// record-level codec and the reference that decode is tested against.
pub fn v2_decode_record(buf: &[u8], prev: Option<&[u8]>) -> Result<(NodeRecord, usize)> {
    let truncated = || MassError::CorruptRecord("v2 record truncated".into());
    let (lcp, n) = read_varint(buf)?;
    let mut at = n;
    let (suffix_len, n) = read_varint(&buf[at..])?;
    at += n;
    let (lcp, suffix_len) = (lcp as usize, suffix_len as usize);
    let prev = prev.unwrap_or(&[]);
    if lcp > prev.len() {
        return Err(MassError::CorruptRecord(
            "v2 shared prefix exceeds predecessor key".into(),
        ));
    }
    if buf.len() < at + suffix_len {
        return Err(truncated());
    }
    let mut flat = Vec::with_capacity(lcp + suffix_len);
    flat.extend_from_slice(&prev[..lcp]);
    flat.extend_from_slice(&buf[at..at + suffix_len]);
    at += suffix_len;
    if !FlexKey::is_valid_flat(&flat) {
        return Err(MassError::CorruptRecord("malformed front-coded key".into()));
    }
    let key = FlexKey::from_flat(flat);
    let meta = *buf.get(at).ok_or_else(truncated)?;
    at += 1;
    let kind = kind_from_u8(meta & KIND_MASK)?;
    let name = if meta & HAS_NAME != 0 {
        let (raw, n) = read_varint(&buf[at..])?;
        at += n;
        if raw >= u64::from(NameId::NONE_RAW) {
            return Err(MassError::CorruptRecord("name id out of range".into()));
        }
        Some(NameId(raw as u32))
    } else {
        None
    };
    let value = match (meta >> TAG_SHIFT) & TAG_MASK {
        0 => ValueRef::None,
        1 => {
            let (len, n) = read_varint(&buf[at..])?;
            at += n;
            let len = len as usize;
            if buf.len() < at + len {
                return Err(truncated());
            }
            let s = std::str::from_utf8(&buf[at..at + len])
                .map_err(|_| MassError::CorruptRecord("non-UTF8 value".into()))?;
            at += len;
            ValueRef::Inline(s.into())
        }
        2 => {
            let (offset, n) = read_varint(&buf[at..])?;
            at += n;
            let (len, n) = read_varint(&buf[at..])?;
            at += n;
            if len > u64::from(u32::MAX) {
                return Err(MassError::CorruptRecord("overflow length too large".into()));
            }
            ValueRef::Overflow {
                offset,
                len: len as u32,
            }
        }
        3 => {
            let (id, n) = read_varint(&buf[at..])?;
            at += n;
            if id > u64::from(u32::MAX) {
                return Err(MassError::CorruptRecord("dict id too large".into()));
            }
            ValueRef::Dict(id as u32)
        }
        _ => unreachable!("2-bit tag"),
    };
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
    fn varint_round_trips() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), varint_len(v), "len of {v}");
            let (back, used) = read_varint(&out).unwrap();
            assert_eq!(back, v);
            assert_eq!(used, out.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut out = Vec::new();
        put_varint(&mut out, u64::MAX);
        assert!(read_varint(&out[..out.len() - 1]).is_err());
        assert!(read_varint(&[0x80; 11]).is_err());
        assert!(read_varint(&[]).is_err());
    }

    #[test]
    fn dict_interns_and_resolves() {
        let mut d = ValueDict::new();
        let a = d.intern("Vermont").unwrap();
        let b = d.intern("creditcard").unwrap();
        assert_eq!(d.intern("Vermont"), Some(a));
        assert_ne!(a, b);
        assert_eq!(d.resolve(a), Some("Vermont"));
        assert_eq!(d.lookup("creditcard"), Some(b));
        assert_eq!(d.lookup("absent"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn v2_record_round_trips_with_and_without_prev() {
        let recs = [
            NodeRecord::element(key(&[0, 3, 7]), NameId(5)),
            NodeRecord::text(key(&[0, 3, 7, 1]), "hello world"),
            NodeRecord::attribute(key(&[0, 3, 8]), NameId(300), "v"),
            NodeRecord {
                key: key(&[0, 4]),
                kind: RecordKind::Text,
                name: None,
                value: ValueRef::Dict(42),
            },
            NodeRecord {
                key: key(&[1]),
                kind: RecordKind::Text,
                name: None,
                value: ValueRef::Overflow {
                    offset: 1 << 40,
                    len: 9999,
                },
            },
        ];
        let mut prev: Option<Vec<u8>> = None;
        let mut buf = Vec::new();
        let mut lens = Vec::new();
        for r in &recs {
            let before = buf.len();
            v2_encode_record(r, prev.as_deref(), &mut buf);
            let used = buf.len() - before;
            assert_eq!(used, v2_record_len(r, prev.as_deref()));
            lens.push(used);
            prev = Some(r.key.as_flat().to_vec());
        }
        let mut at = 0;
        let mut prev: Option<Vec<u8>> = None;
        for (r, len) in recs.iter().zip(&lens) {
            let (back, used) = v2_decode_record(&buf[at..], prev.as_deref()).unwrap();
            assert_eq!(&back, r);
            assert_eq!(used, *len);
            at += used;
            prev = Some(back.key.as_flat().to_vec());
        }
        assert_eq!(at, buf.len());
    }

    #[test]
    fn front_coding_shrinks_deep_siblings() {
        // Adjacent deep siblings share almost their whole key: the v2
        // encoding must be far smaller than the v1 one.
        let a = NodeRecord::element(key(&[0, 1, 2, 3, 4, 5, 6, 7]), NameId(3));
        let b = NodeRecord::element(key(&[0, 1, 2, 3, 4, 5, 6, 8]), NameId(3));
        let v2 = v2_record_len(&b, Some(a.key.as_flat()));
        assert!(
            v2 * 2 < b.encoded_len(),
            "v2 {} vs v1 {}",
            v2,
            b.encoded_len()
        );
    }

    #[test]
    fn v2_decode_rejects_corruption() {
        let rec = NodeRecord::text(key(&[0, 1]), "abc");
        let mut buf = Vec::new();
        v2_encode_record(&rec, None, &mut buf);
        for cut in 0..buf.len() {
            assert!(v2_decode_record(&buf[..cut], None).is_err(), "cut={cut}");
        }
        // A shared-prefix claim with no predecessor is corruption.
        let mut bad = Vec::new();
        v2_encode_record(&rec, Some(rec.key.as_flat()), &mut bad);
        assert!(v2_decode_record(&bad, None).is_err());
    }
}
