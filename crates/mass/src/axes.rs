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
//!   inside the axis range, using sibling jumps for `child` and the
//!   sibling axes so whole subtrees are skipped.

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

/// What the stream is reading for the context it is open on.
enum Inner<'a> {
    Empty,
    /// Pre-computed keys resolved by point lookups (self/parent/ancestor).
    Keys(std::vec::IntoIter<FlexKey>),
    /// Name-index iteration with structural verification (index-only).
    /// Borrows the index's key run directly — no copies.
    NameList {
        keys: KeyIter<'a>,
        verify: StructVerify,
    },
    /// Clustered-index range scan by the stream's cursor.
    Scan {
        not_ancestor_of: Option<FlexKey>,
    },
    /// Clustered scan that jumps over subtrees (child / sibling axes).
    JumpScan,
    /// Attribute scan: attributes cluster immediately after their element,
    /// so the scan stops at the first non-attribute record.
    AttrScan,
    /// Fully materialized: the namespace axis, and the reverse axes under
    /// a name test, whose few candidates are settled against the name
    /// index when the stream is opened.
    Materialized(std::vec::IntoIter<NodeEntry>),
}

/// Lazy stream of the nodes on one axis, under one node test, from a
/// context node. Pull with [`AxisStream::next_batch`]; give it the next
/// context with [`AxisStream::open`].
///
/// The stream is the *finger* of a step that opens one context after
/// another: it keeps its position in the posting list of its node test,
/// its clustered cursor (sparse-index position, pinned page, record slot
/// — see [`MassCursor::rebound`]) and the two range buffers from context
/// to context. Contexts that arrive in document order therefore walk
/// list and pages like a merge join instead of searching both from the
/// top once per context. A clustered `child`, `descendant` or
/// `descendant-or-self` scan goes further: a context whose record is the
/// one its last context's subtree ended on — a next sibling — is not
/// re-bound at all, so a run of siblings is one forward sweep over their
/// subtrees. Any position is correct — an opened stream yields what
/// [`axis_stream`] yields for that context — and a near one is fast.
pub struct AxisStream<'a> {
    store: &'a MassStore,
    axis: Axis,
    filter: NodeFilter,
    /// The posting list answering `filter`, if one does, and its kind.
    list: Option<(&'a SortedKeys, RecordKind)>,
    /// Where the last probe of `list` landed.
    finger: usize,
    /// The axis range of the context the stream is open on — on a
    /// downward axis, until the next one is opened, the range its start
    /// is held against. A new stream's ends at the empty key, which
    /// nothing starts before. After a sweep only its end is kept: the
    /// cursor holds the range.
    range: KeyRange,
    /// A context began before the end of the range then in `range`
    /// ([`AxisStream::nested`]).
    nested: bool,
    /// The clustered scans' cursor, re-bound to `range` context after
    /// context.
    cursor: MassCursor<'a>,
    inner: Inner<'a>,
}

impl<'a> AxisStream<'a> {
    /// A stream for `axis` and `filter` that is open on no context yet
    /// (and yields nothing).
    pub fn new(store: &'a MassStore, axis: Axis, mut filter: NodeFilter) -> Self {
        if axis == Axis::Attribute {
            // A name/`*` test on this axis selects attributes (its
            // principal node kind); an explicit kind test like `text()`
            // is honored and matches nothing, since the axis only
            // contains attributes.
            if matches!(filter.kind, KindFilter::Element | KindFilter::Any) {
                filter.kind = KindFilter::Attribute;
            }
        }
        AxisStream {
            store,
            axis,
            filter,
            list: posting_list(store, filter),
            finger: NO_FINGER,
            range: KeyRange {
                lo: Vec::new(),
                hi: Some(Vec::new()),
            },
            nested: false,
            cursor: MassCursor::unbound(store),
            inner: Inner::Empty,
        }
    }

    /// Opens the stream on context `ctx`, dropping whatever the last
    /// context had left.
    ///
    /// `ctx_kind` disambiguates attribute contexts: per the XPath data
    /// model, attribute nodes have no children or siblings, but they do
    /// have a parent, ancestors, and `following`/`preceding` relative to
    /// document order.
    pub fn open(&mut self, ctx: &FlexKey, ctx_kind: RecordKind) -> Result<()> {
        let attr_ctx = ctx_kind == RecordKind::Attribute;
        if self.axis.is_downward() {
            // What these axes yield lies in the context's subtree (the
            // self axis: at the context). The subtrees of contexts that
            // ascend without nesting are disjoint and ascend, and then so
            // does everything the stream yields, context after context;
            // one that starts before the last one's end is remembered.
            let flat = ctx.as_flat();
            if self.range.hi.as_deref().is_none_or(|end| flat < end) {
                self.nested = true;
            }
            // A clustered child or descendant scan sweeps on to a context
            // whose record ends the last one's subtree — its next sibling
            // — and the stream keeps only the new range's end.
            if self.list.is_none()
                && !attr_ctx
                && matches!(
                    self.axis,
                    Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
                )
                && self.cursor.sweep(flat, self.axis != Axis::DescendantOrSelf)
            {
                self.range.hi.clone_from(self.cursor.end());
                self.inner = if self.axis == Axis::Child {
                    Inner::JumpScan
                } else {
                    Inner::Scan {
                        not_ancestor_of: None,
                    }
                };
                return Ok(());
            }
            match self.axis {
                Axis::DescendantOrSelf => self.range.set_subtree(ctx),
                Axis::SelfAxis => {
                    // The context alone: ends where its descendants begin.
                    self.range.set_subtree(ctx);
                    let end = self.range.hi.get_or_insert_with(Vec::new);
                    end.clone_from(&self.range.lo);
                    end.push(1);
                }
                _ => self.range.set_descendants(ctx),
            }
        }
        self.inner = match self.axis {
            Axis::SelfAxis | Axis::Parent | Axis::Ancestor | Axis::AncestorOrSelf => {
                self.upward(ctx, self.axis)
            }
            Axis::DescendantOrSelf if attr_ctx => self.upward(ctx, Axis::SelfAxis),
            Axis::Namespace => Inner::Materialized(self.namespaces(ctx)?.into_iter()),
            // An attribute has no children, siblings or attributes.
            Axis::Child
            | Axis::Descendant
            | Axis::FollowingSibling
            | Axis::PrecedingSibling
            | Axis::Attribute
                if attr_ctx =>
            {
                Inner::Empty
            }
            Axis::Child => self.ranged(Some(ctx.level() + 1), None, true),
            Axis::Descendant | Axis::DescendantOrSelf => self.ranged(None, None, false),
            Axis::Following => {
                // Bounded by the end of the containing document.
                self.range = KeyRange::following(ctx).intersect(&document_range(ctx));
                self.ranged(None, None, false)
            }
            Axis::Preceding => {
                self.range = KeyRange::before(ctx).intersect(&document_range(ctx));
                self.ranged(None, Some(ctx.clone()), false)
            }
            Axis::FollowingSibling => {
                self.range = KeyRange::following_siblings(ctx);
                self.ranged(Some(ctx.level()), None, true)
            }
            Axis::PrecedingSibling => {
                self.range = KeyRange::preceding_siblings(ctx);
                self.ranged(Some(ctx.level()), None, true)
            }
            Axis::Attribute => {
                // Attributes cluster directly after the element record,
                // so a short bounded scan suffices.
                self.cursor.rebound(&self.range);
                Inner::AttrScan
            }
        };
        Ok(())
    }

    /// Whether some context opened on a downward axis (`self`, `child`,
    /// `attribute`, `descendant`, `descendant-or-self`) did not lie wholly
    /// after the one before it: repeated, nested in it, or before it in
    /// document order (on the self axis, which yields nothing below the
    /// context, nesting is no harm: repeated or before it). While this is
    /// `false`, everything the stream has yielded on such an axis, over
    /// all its contexts, is strictly ascending.
    pub fn nested(&self) -> bool {
        self.nested
    }

    /// Lets go of the page the stream's cursor holds pinned and has the
    /// pool count that pin ([`MassCursor::release`]) — what an owner does
    /// when it is out of contexts.
    pub fn release(&mut self) {
        self.cursor.release();
    }

    /// Pulls up to `max` matching nodes, in document order, into `out`,
    /// returning how many were appended. A short (or zero) count means
    /// the context is exhausted — callers may treat it as end-of-stream
    /// without another call, and further calls keep returning zero.
    ///
    /// Clustered scans decode whole pinned pages in one pass
    /// ([`MassCursor::next_batch`]); sibling-jump scans read in-page
    /// jumps off the pinned records' shared-prefix lengths
    /// (`MassCursor::next_batch_jump`); name-index iteration fills the
    /// batch in a tight loop over the borrowed key run; the
    /// pre-computed-key mode resolves one key per iteration.
    pub fn next_batch(&mut self, out: &mut Vec<NodeEntry>, max: usize) -> Result<usize> {
        let start = out.len();
        let filter = &self.filter;
        // A clustered scan meets attributes only to step over them,
        // unless they are what the test selects.
        let skip_attrs = filter.kind != KindFilter::Attribute;
        match &mut self.inner {
            Inner::Empty => {}
            Inner::Keys(keys) => {
                while out.len() - start < max {
                    let Some(key) = keys.next() else { break };
                    if let Some(entry) = self.store.get_entry(&key)? {
                        if filter.matches_entry(&entry) {
                            out.push(entry);
                        }
                    }
                }
            }
            Inner::NameList { keys, verify } => {
                let kind = self.list.expect("a name list has a list").1;
                while out.len() - start < max {
                    let Some(flat) = keys.next() else { break };
                    let key = FlexKey::from_flat_slice(flat);
                    if verify.ok(&key) {
                        out.push(NodeEntry {
                            key,
                            kind,
                            name: filter.name,
                        });
                    }
                }
            }
            Inner::Scan { not_ancestor_of } => {
                self.cursor.next_batch_filtered(
                    filter,
                    skip_attrs,
                    not_ancestor_of.as_ref(),
                    out,
                    max,
                )?;
            }
            Inner::JumpScan => {
                self.cursor.next_batch_jump(filter, skip_attrs, out, max)?;
            }
            Inner::AttrScan => {
                // One record per iteration: the first non-attribute ends
                // the stream and must not reach `out`. The stream then
                // flips to `Empty`, because the cursor itself would go on
                // into the element's children on the next call.
                while out.len() - start < max {
                    let at = out.len();
                    if self.cursor.next_batch(out, 1)? == 0 || out[at].kind != RecordKind::Attribute
                    {
                        out.truncate(at);
                        self.inner = Inner::Empty;
                        break;
                    }
                    if !filter.matches_entry(&out[at]) {
                        out.truncate(at);
                    }
                }
            }
            Inner::Materialized(items) => {
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
        self.release();
        Ok(out)
    }

    /// The self, parent and ancestor axes: the candidates are prefixes of
    /// the context's own key.
    ///
    /// When a posting list answers the node test they are settled against
    /// it here — key arithmetic plus one finger probe each, no page
    /// access. The candidates ascend, and the next context's chain parts
    /// from this one near its inner end, so the probes move a local
    /// finger forward and the stream's is left where the innermost
    /// candidate landed; the outer ones, usually above every posting,
    /// cost one comparison each.
    fn upward(&mut self, ctx: &FlexKey, axis: Axis) -> Inner<'a> {
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
        let Some((list, kind)) = self.list else {
            let keys: Vec<_> = candidates.map(FlexKey::from_flat_slice).collect();
            return Inner::Keys(keys.into_iter());
        };
        let mut items = Vec::new();
        let mut from = self.finger;
        for flat in candidates {
            self.finger = list.lower_bound_from(from, flat);
            from = from.max(self.finger);
            if self.finger < list.len() && list.get(self.finger) == flat {
                items.push(NodeEntry {
                    key: FlexKey::from_flat_slice(flat),
                    kind,
                    name: self.filter.name,
                });
            }
        }
        Inner::Materialized(items.into_iter())
    }

    /// Chooses name-driven or clustered-scan evaluation of `self.range`.
    ///
    /// `level`: require this key level (child / sibling axes).
    /// `not_ancestor_of`: exclude ancestors of this key (preceding axis).
    /// `jump`: use sibling jumps on the clustered scan fallback.
    fn ranged(
        &mut self,
        level: Option<usize>,
        not_ancestor_of: Option<FlexKey>,
        jump: bool,
    ) -> Inner<'a> {
        if self.range.is_empty() {
            return Inner::Empty;
        }
        // Name-driven (index-only) path.
        if let Some((list, _)) = self.list {
            let keys = list.slice_in_from(self.finger, &self.range);
            self.finger = keys.start();
            let verify = match (level, not_ancestor_of) {
                (Some(l), _) => StructVerify::Level(l),
                (None, Some(ctx)) => StructVerify::NotAncestorOf(ctx),
                (None, None) => StructVerify::None,
            };
            return Inner::NameList {
                keys: keys.iter(),
                verify,
            };
        }
        // Clustered scan path.
        self.cursor.rebound(&self.range);
        if jump {
            Inner::JumpScan
        } else {
            Inner::Scan { not_ancestor_of }
        }
    }

    /// Namespace axis: synthesized from `xmlns`/`xmlns:*` attributes in
    /// scope (nearest declaration wins). Nodes are reported as attribute
    /// entries, in document order.
    fn namespaces(&self, ctx: &FlexKey) -> Result<Vec<NodeEntry>> {
        // As on the attribute axis, an explicit kind test matches nothing.
        if matches!(
            self.filter.kind,
            KindFilter::Text | KindFilter::Comment | KindFilter::Pi
        ) {
            return Ok(Vec::new());
        }
        let any_attribute = NodeFilter {
            kind: KindFilter::Attribute,
            name: None,
        };
        let mut attrs = AxisStream::new(self.store, Axis::Attribute, any_attribute);
        let mut declared = Vec::new();
        let mut seen: Vec<NameId> = Vec::new();
        let mut items: Vec<NodeEntry> = Vec::new();
        let mut cur = Some(ctx.clone());
        while let Some(key) = cur {
            if key.is_root() {
                break;
            }
            attrs.open(&key, RecordKind::Element)?;
            declared.clear();
            attrs.next_batch(&mut declared, usize::MAX)?;
            for a in declared.drain(..) {
                let Some(name_id) = a.name else { continue };
                let name = self.store.names().resolve(name_id);
                if (name == "xmlns" || name.starts_with("xmlns:")) && !seen.contains(&name_id) {
                    seen.push(name_id);
                    if self.filter.name.is_none_or(|n| n == name_id) {
                        items.push(a);
                    }
                }
            }
            cur = key.parent();
        }
        items.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(items)
    }
}

/// Returns the document-order stream of nodes on `axis` from `ctx`,
/// filtered by `filter`: a new [`AxisStream`], [opened](AxisStream::open)
/// on `ctx`.
pub fn axis_stream<'a>(
    store: &'a MassStore,
    ctx: &FlexKey,
    ctx_kind: RecordKind,
    axis: Axis,
    filter: NodeFilter,
) -> Result<AxisStream<'a>> {
    let mut stream = AxisStream::new(store, axis, filter);
    stream.open(ctx, ctx_kind)?;
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
    let mut stream = AxisStream::new(store, Axis::Descendant, filter);
    stream.range = range;
    stream.inner = stream.ranged(None, None, false);
    stream
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
