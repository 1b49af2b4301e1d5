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
use crate::name_index::{KeyIter, SortedKeys, NO_FINGER};
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
    /// Name-index iteration with structural verification (index-only).
    /// Borrows the index's key run directly — no copies.
    NameList {
        keys: KeyIter<'a>,
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
    /// Fully materialized: the namespace axis, and the reverse axes under
    /// a name test, whose few candidates are settled against the name
    /// index when the stream is opened.
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
    /// batch in a tight loop over the borrowed key run; the
    /// pre-computed-key mode resolves one key per iteration.
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
            Inner::NameList {
                keys,
                kind,
                name,
                verify,
            } => {
                while out.len() - start < max {
                    let Some(flat) = keys.next() else { break };
                    let key = FlexKey::from_flat_slice(flat);
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
    let mut finger = NO_FINGER;
    axis_stream_from(store, ctx, ctx_kind, axis, filter, &mut finger)
}

/// [`axis_stream`] for a cursor that opens one stream per context tuple
/// with the same `axis` and `filter`, and so probes the same posting
/// list every time.
///
/// `finger` is that cursor's own position in the list: each index probe
/// starts from it ([`SortedKeys::lower_bound_from`]) and leaves it where
/// the probe landed, so contexts that arrive in document order walk the
/// list like a merge join instead of searching it from the top once per
/// context. Any value is correct — the stream is the one [`axis_stream`]
/// returns — and a cursor starts with [`NO_FINGER`]. Streams that read no
/// posting list leave it alone.
pub fn axis_stream_from<'a>(
    store: &'a MassStore,
    ctx: &FlexKey,
    ctx_kind: RecordKind,
    axis: Axis,
    filter: NodeFilter,
    finger: &mut usize,
) -> Result<AxisStream<'a>> {
    let is_attr_ctx = ctx_kind == RecordKind::Attribute;
    let ranged = |range, level, not_ancestor_of, jump, finger| {
        ranged_stream(store, range, filter, level, not_ancestor_of, jump, finger)
    };
    let stream = match axis {
        Axis::SelfAxis | Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf => {
            upward_stream(store, ctx, axis, filter, finger)
        }
        Axis::Child if is_attr_ctx => AxisStream::empty(),
        Axis::Child => ranged(
            KeyRange::descendants(ctx),
            Some(ctx.level() + 1),
            None,
            true,
            finger,
        ),
        Axis::Descendant if is_attr_ctx => AxisStream::empty(),
        Axis::Descendant => ranged(KeyRange::descendants(ctx), None, None, false, finger),
        Axis::DescendantOrSelf if is_attr_ctx => {
            upward_stream(store, ctx, Axis::SelfAxis, filter, finger)
        }
        Axis::DescendantOrSelf => ranged(KeyRange::subtree(ctx), None, None, false, finger),
        Axis::Following => {
            // Bounded by the end of the containing document.
            let doc_range = document_range(ctx);
            let range = KeyRange::following(ctx).intersect(&doc_range);
            ranged(range, None, None, false, finger)
        }
        Axis::Preceding => {
            let doc_range = document_range(ctx);
            let range = KeyRange::before(ctx).intersect(&doc_range);
            ranged(range, None, Some(ctx.clone()), false, finger)
        }
        Axis::FollowingSibling if is_attr_ctx => AxisStream::empty(),
        Axis::FollowingSibling => {
            let range = KeyRange::following_siblings(ctx);
            ranged(range, Some(ctx.level()), None, true, finger)
        }
        Axis::PrecedingSibling if is_attr_ctx => AxisStream::empty(),
        Axis::PrecedingSibling => {
            let range = KeyRange::preceding_siblings(ctx);
            ranged(range, Some(ctx.level()), None, true, finger)
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
    let mut finger = NO_FINGER;
    ranged_stream(store, range, filter, None, None, false, &mut finger)
}

/// The subtree range of the document containing `key` (or all documents
/// when `key` is the virtual super-root).
fn document_range(key: &FlexKey) -> KeyRange {
    match key.labels().next() {
        Some(first) => KeyRange::subtree(&FlexKey::root().child(first)),
        None => KeyRange::all(),
    }
}

/// The posting list that holds exactly the nodes passing `filter`, and
/// their kind — `None` for tests no single list answers (`*`, `node()`,
/// processing instructions).
fn posting_list(store: &MassStore, filter: NodeFilter) -> Option<(&SortedKeys, RecordKind)> {
    let index = store.name_index();
    match (filter.kind, filter.name) {
        (KindFilter::Element, Some(name)) => Some((index.elements(name), RecordKind::Element)),
        (KindFilter::Attribute, Some(name)) => {
            Some((index.attributes(name), RecordKind::Attribute))
        }
        (KindFilter::Text, None) => Some((index.text(), RecordKind::Text)),
        (KindFilter::Comment, None) => Some((index.comments(), RecordKind::Comment)),
        _ => None,
    }
}

/// The flat keys of `flat`'s ancestors-or-self below the document node,
/// outermost first: its prefixes that end on a label terminator.
fn ancestors_or_self(flat: &[u8]) -> impl Iterator<Item = &[u8]> {
    flat.iter()
        .enumerate()
        .filter(|(_, &b)| b == 0)
        .map(move |(at, _)| &flat[..=at])
}

/// The self, parent and ancestor axes: the candidates are prefixes of the
/// context's own key.
///
/// When a posting list answers the node test they are settled against it
/// here — key arithmetic plus one finger probe each, no page access. The
/// candidates ascend, and the next context's chain parts from this one
/// near its inner end, so the probes move a local finger forward and the
/// cursor's is left where the innermost candidate landed; the outer
/// ones, usually above every posting, cost one comparison each.
fn upward_stream<'a>(
    store: &'a MassStore,
    ctx: &FlexKey,
    axis: Axis,
    filter: NodeFilter,
    finger: &mut usize,
) -> AxisStream<'a> {
    let level = ctx.level();
    let up = |n: usize| level.saturating_sub(n);
    let wanted = match axis {
        Axis::SelfAxis => up(1)..level,
        Axis::Parent => up(2)..up(1),
        Axis::Ancestor => 0..up(1),
        _ => 0..level,
    };
    let candidates = ancestors_or_self(ctx.as_flat())
        .take(wanted.end)
        .skip(wanted.start);
    let Some((list, kind)) = posting_list(store, filter) else {
        return AxisStream {
            inner: Inner::Keys {
                store,
                keys: candidates
                    .map(FlexKey::from_flat_slice)
                    .collect::<Vec<_>>()
                    .into_iter(),
                filter,
            },
        };
    };
    let mut items = Vec::new();
    let mut from = *finger;
    for flat in candidates {
        *finger = list.lower_bound_from(from, flat);
        from = from.max(*finger);
        if *finger < list.len() && list.get(*finger) == flat {
            items.push(NodeEntry {
                key: FlexKey::from_flat_slice(flat),
                kind,
                name: filter.name,
            });
        }
    }
    AxisStream {
        inner: Inner::Materialized {
            items: items.into_iter(),
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
    finger: &mut usize,
) -> AxisStream<'a> {
    if range.is_empty() {
        return AxisStream::empty();
    }
    // Name-driven (index-only) path.
    if let Some((list, kind)) = posting_list(store, filter) {
        let keys = list.slice_in_from(*finger, &range);
        *finger = keys.start();
        let verify = match (level, not_ancestor_of) {
            (Some(l), _) => StructVerify::Level(l),
            (None, Some(ctx)) => StructVerify::NotAncestorOf(ctx),
            (None, None) => StructVerify::None,
        };
        return AxisStream {
            inner: Inner::NameList {
                keys: keys.iter(),
                kind,
                name: filter.name,
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
