//! Index-based evaluation of all 13 XPath axes.
//!
//! [`axis_stream`] returns a lazy, document-order stream of the nodes
//! reachable from a context node along an axis, filtered by a node test.
//! Two evaluation strategies are chosen automatically:
//!
//! * **Name-driven** (node test is a name, or `text()`): iterate the name
//!   index inside the axis's key range and verify the structural relation
//!   from the key alone — *no data page is touched*. This is the
//!   index-only execution the paper contrasts with join-based engines.
//! * **Clustered scan** (wildcard/kind tests): scan the clustered index
//!   inside the axis range, using sibling jumps (`seek(subtree_upper)`)
//!   for `child` and the sibling axes so whole subtrees are skipped.

use crate::cursor::MassCursor;
use crate::error::Result;
use crate::names::NameId;
use crate::record::{NodeRecord, RecordKind};
use crate::store::MassStore;
use vamana_flex::{Axis, FlexKey, KeyRange};

/// A kind filter derived from an XPath node test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindFilter {
    /// `node()`
    Any,
    /// name test / `*` on a non-attribute axis
    Element,
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// name test / `*` on the attribute axis
    Attribute,
}

impl KindFilter {
    /// Whether a record of `kind` passes the filter.
    pub fn matches(self, kind: RecordKind) -> bool {
        match self {
            KindFilter::Any => kind != RecordKind::Document,
            KindFilter::Element => kind == RecordKind::Element,
            KindFilter::Text => kind == RecordKind::Text,
            KindFilter::Comment => kind == RecordKind::Comment,
            KindFilter::Pi => kind == RecordKind::Pi,
            KindFilter::Attribute => kind == RecordKind::Attribute,
        }
    }
}

/// A resolved node test: kind plus optional interned name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeFilter {
    /// Kind constraint.
    pub kind: KindFilter,
    /// Name constraint (elements/attributes/PI targets).
    pub name: Option<NameId>,
}

impl NodeFilter {
    /// `node()`
    pub fn any() -> Self {
        NodeFilter {
            kind: KindFilter::Any,
            name: None,
        }
    }

    /// Element with `name`.
    pub fn element(name: NameId) -> Self {
        NodeFilter {
            kind: KindFilter::Element,
            name: Some(name),
        }
    }

    /// Any element (`*`).
    pub fn any_element() -> Self {
        NodeFilter {
            kind: KindFilter::Element,
            name: None,
        }
    }

    /// `text()`
    pub fn text() -> Self {
        NodeFilter {
            kind: KindFilter::Text,
            name: None,
        }
    }

    /// Attribute with `name`.
    pub fn attribute(name: NameId) -> Self {
        NodeFilter {
            kind: KindFilter::Attribute,
            name: Some(name),
        }
    }

    /// Whether `rec` passes kind and name constraints.
    pub fn matches(&self, rec: &NodeRecord) -> bool {
        self.matches_parts(rec.kind, rec.name)
    }

    /// Kind/name check without a record in hand.
    pub fn matches_parts(&self, kind: RecordKind, name: Option<NameId>) -> bool {
        self.kind.matches(kind) && self.name.is_none_or(|n| name == Some(n))
    }

    /// Whether an entry passes kind and name constraints.
    pub fn matches_entry(&self, entry: &NodeEntry) -> bool {
        self.matches_parts(entry.kind, entry.name)
    }
}

/// A lightweight node handle produced by axis evaluation: everything the
/// pipeline needs without materializing values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    /// Structural key.
    pub key: FlexKey,
    /// Node kind.
    pub kind: RecordKind,
    /// Interned name, if the node has one.
    pub name: Option<NameId>,
}

impl NodeEntry {
    /// Builds an entry from a stored record.
    pub fn from_record(rec: &NodeRecord) -> Self {
        NodeEntry {
            key: rec.key.clone(),
            kind: rec.kind,
            name: rec.name,
        }
    }
}

/// Structural verification applied to name-index candidates.
#[derive(Debug, Clone)]
enum StructVerify {
    /// Range membership is enough.
    None,
    /// Key level must equal this value (child / sibling axes).
    Level(usize),
    /// Key must not be an ancestor of the context (preceding axis).
    NotAncestorOf(FlexKey),
}

impl StructVerify {
    fn ok(&self, key: &FlexKey) -> bool {
        match self {
            StructVerify::None => true,
            StructVerify::Level(l) => key.level() == *l,
            StructVerify::NotAncestorOf(ctx) => !key.is_ancestor_of(ctx),
        }
    }
}

enum Inner<'a> {
    Empty,
    /// Pre-computed keys resolved by point lookups (self/parent/ancestor).
    Keys {
        store: &'a MassStore,
        keys: std::vec::IntoIter<FlexKey>,
        filter: NodeFilter,
    },
    /// Pre-computed keys verified by name-index membership — one binary
    /// search per key, no data page touched (index-only reverse axes).
    KeysIndexOnly {
        keys: std::vec::IntoIter<FlexKey>,
        list: &'a crate::name_index::SortedKeys,
        kind: RecordKind,
        name: NameId,
    },
    /// Name-index iteration with structural verification (index-only).
    /// Borrows the index's key slice directly — no copies.
    NameList {
        keys: &'a [Vec<u8>],
        pos: usize,
        kind: RecordKind,
        name: Option<NameId>,
        verify: StructVerify,
    },
    /// Clustered-index range scan.
    Scan {
        cursor: MassCursor<'a>,
        filter: NodeFilter,
        skip_attrs: bool,
        not_ancestor_of: Option<FlexKey>,
    },
    /// Clustered scan that jumps over subtrees (child / sibling axes).
    JumpScan {
        cursor: MassCursor<'a>,
        filter: NodeFilter,
        skip_attrs: bool,
    },
    /// Attribute scan: attributes cluster immediately after their element,
    /// so the scan stops at the first non-attribute record.
    AttrScan {
        cursor: MassCursor<'a>,
        filter: NodeFilter,
    },
    /// Fully materialized (namespace axis).
    Materialized {
        items: std::vec::IntoIter<NodeEntry>,
    },
}

/// Lazy stream of nodes along an axis. Pull with
/// [`AxisStream::next_batch`].
pub struct AxisStream<'a> {
    inner: Inner<'a>,
}

impl<'a> AxisStream<'a> {
    /// Pulls up to `max` matching nodes, in document order, into `out`,
    /// returning how many were appended. A short (or zero) count means
    /// the stream is exhausted — callers may treat it as end-of-stream
    /// without another call, and further calls keep returning zero.
    ///
    /// Clustered scans decode whole pinned pages in one pass
    /// ([`MassCursor::next_batch`]); sibling-jump scans resolve in-page
    /// jumps by binary search over the pinned records
    /// (`MassCursor::next_batch_jump`); name-index iteration fills the
    /// batch in a tight loop over the borrowed key slice; the
    /// pre-computed-key modes resolve one key per iteration.
    pub fn next_batch(&mut self, out: &mut Vec<NodeEntry>, max: usize) -> Result<usize> {
        let start = out.len();
        match &mut self.inner {
            Inner::Empty => {}
            Inner::Keys {
                store,
                keys,
                filter,
            } => {
                while out.len() - start < max {
                    let Some(key) = keys.next() else { break };
                    if let Some(entry) = store.get_entry(&key)? {
                        if filter.matches_entry(&entry) {
                            out.push(entry);
                        }
                    }
                }
            }
            Inner::KeysIndexOnly {
                keys,
                list,
                kind,
                name,
            } => {
                while out.len() - start < max {
                    let Some(key) = keys.next() else { break };
                    if list.contains(key.as_flat()) {
                        out.push(NodeEntry {
                            key,
                            kind: *kind,
                            name: Some(*name),
                        });
                    }
                }
            }
            Inner::NameList {
                keys,
                pos,
                kind,
                name,
                verify,
            } => {
                while *pos < keys.len() && out.len() - start < max {
                    let flat = &keys[*pos];
                    *pos += 1;
                    let key = FlexKey::from_flat(flat.clone());
                    if verify.ok(&key) {
                        out.push(NodeEntry {
                            key,
                            kind: *kind,
                            name: *name,
                        });
                    }
                }
            }
            Inner::Scan {
                cursor,
                filter,
                skip_attrs,
                not_ancestor_of,
            } => {
                cursor.next_batch_filtered(
                    filter,
                    *skip_attrs,
                    not_ancestor_of.as_ref(),
                    out,
                    max,
                )?;
            }
            Inner::JumpScan {
                cursor,
                filter,
                skip_attrs,
            } => {
                cursor.next_batch_jump(filter, *skip_attrs, out, max)?;
            }
            Inner::AttrScan { cursor, filter } => {
                // One record per iteration: the first non-attribute ends
                // the stream and must not reach `out`. The stream then
                // flips to `Empty`, because the cursor itself would go on
                // into the element's children on the next call.
                while out.len() - start < max {
                    let at = out.len();
                    if cursor.next_batch(out, 1)? == 0 || out[at].kind != RecordKind::Attribute {
                        out.truncate(at);
                        self.inner = Inner::Empty;
                        break;
                    }
                    if !filter.matches_entry(&out[at]) {
                        out.truncate(at);
                    }
                }
            }
            Inner::Materialized { items } => {
                out.extend(items.by_ref().take(max));
            }
        }
        Ok(out.len() - start)
    }

    /// Drains the stream into a vector (tests, predicate-group
    /// materialization in the executor).
    pub fn collect(mut self) -> Result<Vec<NodeEntry>> {
        let mut out = Vec::new();
        self.next_batch(&mut out, usize::MAX)?;
        Ok(out)
    }

    fn empty() -> Self {
        AxisStream {
            inner: Inner::Empty,
        }
    }
}

/// Returns the document-order stream of nodes on `axis` from `ctx`,
/// filtered by `filter`.
///
/// `ctx_kind` disambiguates attribute contexts: per the XPath data model,
/// attribute nodes have no children or siblings, but they do have a
/// parent, ancestors, and `following`/`preceding` relative to document
/// order.
pub fn axis_stream<'a>(
    store: &'a MassStore,
    ctx: &FlexKey,
    ctx_kind: RecordKind,
    axis: Axis,
    filter: NodeFilter,
) -> Result<AxisStream<'a>> {
    let is_attr_ctx = ctx_kind == RecordKind::Attribute;
    let stream = match axis {
        Axis::SelfAxis => keys_stream(store, vec![ctx.clone()], filter),
        Axis::Parent => match ctx.parent() {
            Some(p) if !p.is_root() => keys_stream(store, vec![p], filter),
            _ => AxisStream::empty(),
        },
        Axis::Ancestor | Axis::AncestorOrSelf => {
            let mut keys = Vec::new();
            if axis == Axis::AncestorOrSelf {
                keys.push(ctx.clone());
            }
            let mut cur = ctx.clone();
            while let Some(p) = cur.parent() {
                if p.is_root() {
                    break;
                }
                keys.push(p.clone());
                cur = p;
            }
            keys.reverse(); // document order: outermost first
            keys_stream(store, keys, filter)
        }
        Axis::Child if is_attr_ctx => AxisStream::empty(),
        Axis::Child => ranged_stream(
            store,
            KeyRange::descendants(ctx),
            filter,
            Some(ctx.level() + 1),
            None,
            true,
        ),
        Axis::Descendant if is_attr_ctx => AxisStream::empty(),
        Axis::Descendant => {
            ranged_stream(store, KeyRange::descendants(ctx), filter, None, None, false)
        }
        Axis::DescendantOrSelf if is_attr_ctx => keys_stream(store, vec![ctx.clone()], filter),
        Axis::DescendantOrSelf => {
            ranged_stream(store, KeyRange::subtree(ctx), filter, None, None, false)
        }
        Axis::Following => {
            // Bounded by the end of the containing document.
            let doc_range = document_range(ctx);
            let range = KeyRange::following(ctx).intersect(&doc_range);
            ranged_stream(store, range, filter, None, None, false)
        }
        Axis::Preceding => {
            let doc_range = document_range(ctx);
            let range = KeyRange::before(ctx).intersect(&doc_range);
            ranged_stream(store, range, filter, None, Some(ctx.clone()), false)
        }
        Axis::FollowingSibling if is_attr_ctx => AxisStream::empty(),
        Axis::FollowingSibling => {
            let range = KeyRange::following_siblings(ctx);
            ranged_stream(store, range, filter, Some(ctx.level()), None, true)
        }
        Axis::PrecedingSibling if is_attr_ctx => AxisStream::empty(),
        Axis::PrecedingSibling => {
            let range = KeyRange::preceding_siblings(ctx);
            ranged_stream(store, range, filter, Some(ctx.level()), None, true)
        }
        Axis::Attribute if is_attr_ctx => AxisStream::empty(),
        Axis::Attribute => attribute_stream(store, ctx, filter),
        Axis::Namespace => namespace_stream(store, ctx, filter)?,
    };
    Ok(stream)
}

/// The stream a morsel-parallel worker runs over one sub-range of a
/// descendant(-or-self) axis: the same evaluation [`axis_stream`] picks
/// for those axes (name-driven index slice when the filter allows,
/// clustered batched scan otherwise), restricted to `range`.
///
/// Splitting the axis range with [`MassStore::partition_range`] and
/// concatenating the streams of the parts in order yields exactly the
/// sequence `axis_stream` produces over the whole range — the contract
/// the ordered merge in `vamana-core` relies on.
pub fn range_scan_stream(store: &MassStore, range: KeyRange, filter: NodeFilter) -> AxisStream<'_> {
    ranged_stream(store, range, filter, None, None, false)
}

/// The subtree range of the document containing `key` (or all documents
/// when `key` is the virtual super-root).
fn document_range(key: &FlexKey) -> KeyRange {
    match key.labels().next() {
        Some(first) => KeyRange::subtree(&FlexKey::root().child(first)),
        None => KeyRange::all(),
    }
}

fn keys_stream(store: &MassStore, keys: Vec<FlexKey>, filter: NodeFilter) -> AxisStream<'_> {
    // Named element/attribute tests verify by name-index membership —
    // pure key arithmetic plus binary searches, no page access.
    if let Some(name) = filter.name {
        let (list, kind) = match filter.kind {
            KindFilter::Element => (store.name_index().elements(name), RecordKind::Element),
            KindFilter::Attribute => (store.name_index().attributes(name), RecordKind::Attribute),
            _ => {
                return AxisStream {
                    inner: Inner::Keys {
                        store,
                        keys: keys.into_iter(),
                        filter,
                    },
                }
            }
        };
        return AxisStream {
            inner: Inner::KeysIndexOnly {
                keys: keys.into_iter(),
                list,
                kind,
                name,
            },
        };
    }
    AxisStream {
        inner: Inner::Keys {
            store,
            keys: keys.into_iter(),
            filter,
        },
    }
}

/// Chooses name-driven or clustered-scan evaluation for a ranged axis.
///
/// `level`: require this key level (child / sibling axes). `not_ancestor_of`:
/// exclude ancestors of this key (preceding axis). `jump`: use sibling
/// jumps on the clustered scan fallback.
fn ranged_stream<'a>(
    store: &'a MassStore,
    range: KeyRange,
    filter: NodeFilter,
    level: Option<usize>,
    not_ancestor_of: Option<FlexKey>,
    jump: bool,
) -> AxisStream<'a> {
    if range.is_empty() {
        return AxisStream::empty();
    }
    // Name-driven (index-only) path.
    let list = match (filter.kind, filter.name) {
        (KindFilter::Element, Some(name)) => Some((
            store.name_index().elements(name),
            RecordKind::Element,
            Some(name),
        )),
        (KindFilter::Attribute, Some(name)) => Some((
            store.name_index().attributes(name),
            RecordKind::Attribute,
            Some(name),
        )),
        (KindFilter::Text, None) => Some((store.name_index().text(), RecordKind::Text, None)),
        (KindFilter::Comment, None) => {
            Some((store.name_index().comments(), RecordKind::Comment, None))
        }
        _ => None,
    };
    if let Some((list, kind, name)) = list {
        let keys = list.slice_in(&range);
        let verify = match (&level, &not_ancestor_of) {
            (Some(l), _) => StructVerify::Level(*l),
            (None, Some(ctx)) => StructVerify::NotAncestorOf(ctx.clone()),
            (None, None) => StructVerify::None,
        };
        return AxisStream {
            inner: Inner::NameList {
                keys,
                pos: 0,
                kind,
                name,
                verify,
            },
        };
    }
    // Clustered scan path.
    let cursor = MassCursor::new(store, range);
    let skip_attrs = filter.kind != KindFilter::Attribute;
    if jump {
        AxisStream {
            inner: Inner::JumpScan {
                cursor,
                filter,
                skip_attrs,
            },
        }
    } else {
        AxisStream {
            inner: Inner::Scan {
                cursor,
                filter,
                skip_attrs,
                not_ancestor_of,
            },
        }
    }
}

/// Attribute axis: attributes cluster directly after the element record,
/// so a short bounded scan suffices; it stops at the first non-attribute.
fn attribute_stream<'a>(store: &'a MassStore, ctx: &FlexKey, filter: NodeFilter) -> AxisStream<'a> {
    // A name/`*` test on this axis selects attributes (its principal node
    // kind); an explicit kind test like `text()` is honored and matches
    // nothing, since the axis only contains attributes.
    let kind = match filter.kind {
        KindFilter::Element | KindFilter::Any => KindFilter::Attribute,
        other => other,
    };
    let filter = NodeFilter {
        kind,
        name: filter.name,
    };
    let cursor = MassCursor::new(store, KeyRange::descendants(ctx));
    AxisStream {
        inner: Inner::AttrScan { cursor, filter },
    }
}

/// Namespace axis: synthesized from `xmlns`/`xmlns:*` attributes in scope
/// (nearest declaration wins). Nodes are reported as attribute entries.
fn namespace_stream<'a>(
    store: &'a MassStore,
    ctx: &FlexKey,
    filter: NodeFilter,
) -> Result<AxisStream<'a>> {
    // As on the attribute axis, an explicit kind test matches nothing.
    if matches!(
        filter.kind,
        KindFilter::Text | KindFilter::Comment | KindFilter::Pi
    ) {
        return Ok(AxisStream::empty());
    }
    let mut seen: Vec<NameId> = Vec::new();
    let mut items: Vec<NodeEntry> = Vec::new();
    let mut cur = Some(ctx.clone());
    while let Some(key) = cur {
        if key.is_root() {
            break;
        }
        let attrs = attribute_stream(
            store,
            &key,
            NodeFilter {
                kind: KindFilter::Attribute,
                name: None,
            },
        );
        for a in attrs.collect()? {
            let Some(name_id) = a.name else { continue };
            let name = store.names().resolve(name_id);
            if (name == "xmlns" || name.starts_with("xmlns:")) && !seen.contains(&name_id) {
                seen.push(name_id);
                if filter.name.is_none_or(|n| n == name_id) {
                    items.push(a);
                }
            }
        }
        cur = key.parent();
    }
    items.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(AxisStream {
        inner: Inner::Materialized {
            items: items.into_iter(),
        },
    })
}
