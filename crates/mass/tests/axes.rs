//! Exhaustive tests of all 13 XPath axes evaluated through MASS:
//! hand-written expectations, then every axis from every element
//! against the axis computed on the parsed `vamana-xml` document.

use vamana_flex::{Axis, FlexKey, KeyRange};
use vamana_mass::axes::{axis_stream, AxisStream, NodeEntry, NodeFilter};
use vamana_mass::{MassStore, RecordKind};

const DOC: &str = r#"<site xmlns:x="urn:x">
  <people>
    <person id="p0"><name>Ann</name><emailaddress>a@x</emailaddress>
      <address><city>Monroe</city><province>Vermont</province></address>
    </person>
    <person id="p1"><name>Bob</name>
      <watches><watch open_auction="oa1"/><watch open_auction="oa2"/></watches>
    </person>
  </people>
  <open_auctions>
    <open_auction id="oa1"><itemref item="i0"/><price>12</price></open_auction>
  </open_auctions>
</site>"#;

struct Fixture {
    store: MassStore,
}

impl Fixture {
    fn new() -> Self {
        let mut store = MassStore::open_memory();
        store.load_xml("doc", DOC).unwrap();
        Fixture { store }
    }

    /// Key of the `i`-th element named `name` (document order).
    fn elem(&self, name: &str, i: usize) -> FlexKey {
        let id = self
            .store
            .name_id(name)
            .unwrap_or_else(|| panic!("no name {name}"));
        let flat = self
            .store
            .name_index()
            .elements(id)
            .iter()
            .nth(i)
            .unwrap_or_else(|| panic!("no element {name}[{i}]"));
        FlexKey::from_flat_slice(flat)
    }

    /// Names of the elements reached by `axis` from `ctx` with test `*`.
    fn run_star(&self, ctx: &FlexKey, axis: Axis) -> Vec<String> {
        let stream = axis_stream(
            &self.store,
            ctx,
            RecordKind::Element,
            axis,
            NodeFilter::any_element(),
        )
        .unwrap();
        stream
            .collect()
            .unwrap()
            .into_iter()
            .map(|e| self.store.names().resolve(e.name.unwrap()).to_string())
            .collect()
    }

    /// Names reached with a name test.
    fn run_named(&self, ctx: &FlexKey, axis: Axis, name: &str) -> usize {
        let Some(id) = self.store.name_id(name) else {
            return 0;
        };
        let stream = axis_stream(
            &self.store,
            ctx,
            RecordKind::Element,
            axis,
            NodeFilter::element(id),
        )
        .unwrap();
        stream.collect().unwrap().len()
    }
}

/// Every batch and kept answer is a `Vec<NodeEntry>`: a 32-byte key plus
/// kind and name, six words a row.
#[test]
fn node_entry_is_six_words() {
    assert_eq!(std::mem::size_of::<NodeEntry>(), 48);
}

#[test]
fn child_axis_elements_only() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    assert_eq!(
        f.run_star(&site, Axis::Child),
        vec!["people", "open_auctions"]
    );
    let person0 = f.elem("person", 0);
    assert_eq!(
        f.run_star(&person0, Axis::Child),
        vec!["name", "emailaddress", "address"]
    );
}

#[test]
fn child_axis_excludes_attributes() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let stream = axis_stream(
        &f.store,
        &person0,
        RecordKind::Element,
        Axis::Child,
        NodeFilter::any(),
    )
    .unwrap();
    for e in stream.collect().unwrap() {
        assert_ne!(e.kind, RecordKind::Attribute);
    }
}

#[test]
fn descendant_axis_counts() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    assert_eq!(f.run_named(&site, Axis::Descendant, "person"), 2);
    assert_eq!(f.run_named(&site, Axis::Descendant, "watch"), 2);
    assert_eq!(f.run_named(&site, Axis::Descendant, "site"), 0); // strict
    let people = f.elem("people", 0);
    assert_eq!(f.run_named(&people, Axis::Descendant, "price"), 0); // other subtree
}

#[test]
fn descendant_or_self_includes_context() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    assert_eq!(f.run_named(&site, Axis::DescendantOrSelf, "site"), 1);
    assert_eq!(f.run_named(&site, Axis::DescendantOrSelf, "person"), 2);
}

#[test]
fn parent_axis() {
    let f = Fixture::new();
    let name0 = f.elem("name", 0);
    assert_eq!(f.run_star(&name0, Axis::Parent), vec!["person"]);
    assert_eq!(f.run_named(&name0, Axis::Parent, "person"), 1);
    assert_eq!(f.run_named(&name0, Axis::Parent, "site"), 0);
    // Parent of the root element is the document node — not an element.
    let site = f.elem("site", 0);
    assert_eq!(f.run_star(&site, Axis::Parent), Vec::<String>::new());
}

#[test]
fn ancestor_axis_outermost_first() {
    let f = Fixture::new();
    let city = f.elem("city", 0);
    assert_eq!(
        f.run_star(&city, Axis::Ancestor),
        vec!["site", "people", "person", "address"]
    );
    assert_eq!(
        f.run_star(&city, Axis::AncestorOrSelf),
        vec!["site", "people", "person", "address", "city"]
    );
}

#[test]
fn following_axis_skips_descendants_and_ancestors() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let following = f.run_star(&person0, Axis::Following);
    // person1's subtree plus open_auctions subtree; nothing from person0.
    assert!(following.contains(&"person".to_string()));
    assert!(following.contains(&"open_auction".to_string()));
    assert!(!following.contains(&"city".to_string())); // own descendant
    assert!(!following.contains(&"people".to_string())); // ancestor
    assert!(!following.contains(&"site".to_string()));
}

#[test]
fn preceding_axis_excludes_ancestors() {
    let f = Fixture::new();
    let price = f.elem("price", 0);
    let preceding = f.run_star(&price, Axis::Preceding);
    assert!(preceding.contains(&"person".to_string()));
    assert!(preceding.contains(&"itemref".to_string())); // earlier sibling
    assert!(!preceding.contains(&"open_auction".to_string())); // ancestor
    assert!(!preceding.contains(&"site".to_string())); // ancestor
    assert!(!preceding.contains(&"open_auctions".to_string())); // ancestor
}

#[test]
fn sibling_axes() {
    let f = Fixture::new();
    let email = f.elem("emailaddress", 0);
    assert_eq!(f.run_star(&email, Axis::FollowingSibling), vec!["address"]);
    assert_eq!(f.run_star(&email, Axis::PrecedingSibling), vec!["name"]);
    let itemref = f.elem("itemref", 0);
    assert_eq!(f.run_star(&itemref, Axis::FollowingSibling), vec!["price"]);
    // First child has no preceding siblings.
    let name0 = f.elem("name", 0);
    assert_eq!(
        f.run_star(&name0, Axis::PrecedingSibling),
        Vec::<String>::new()
    );
}

#[test]
fn self_axis_respects_node_test() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    assert_eq!(f.run_named(&person0, Axis::SelfAxis, "person"), 1);
    assert_eq!(f.run_named(&person0, Axis::SelfAxis, "name"), 0);
}

#[test]
fn attribute_axis() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let id = f.store.name_id("id").unwrap();
    let stream = axis_stream(
        &f.store,
        &person0,
        RecordKind::Element,
        Axis::Attribute,
        NodeFilter::attribute(id),
    )
    .unwrap();
    let attrs = stream.collect().unwrap();
    assert_eq!(attrs.len(), 1);
    assert_eq!(attrs[0].kind, RecordKind::Attribute);
    let rec = f.store.get(&attrs[0].key).unwrap().unwrap();
    assert_eq!(f.store.resolve_value(&rec).unwrap().unwrap(), "p0");
    // Watch has two attributes named open_auction? One each.
    let watch0 = f.elem("watch", 0);
    let oa = f.store.name_id("open_auction").unwrap();
    let stream = axis_stream(
        &f.store,
        &watch0,
        RecordKind::Element,
        Axis::Attribute,
        NodeFilter::attribute(oa),
    )
    .unwrap();
    assert_eq!(stream.collect().unwrap().len(), 1);
}

#[test]
fn attribute_context_has_no_children_or_siblings() {
    let f = Fixture::new();
    let person0 = f.elem("person", 0);
    let stream = axis_stream(
        &f.store,
        &person0,
        RecordKind::Element,
        Axis::Attribute,
        NodeFilter {
            kind: vamana_mass::KindFilter::Attribute,
            name: None,
        },
    )
    .unwrap();
    let attr = stream.collect().unwrap().into_iter().next().unwrap();
    for axis in [
        Axis::Child,
        Axis::Descendant,
        Axis::FollowingSibling,
        Axis::PrecedingSibling,
        Axis::Attribute,
    ] {
        let s = axis_stream(
            &f.store,
            &attr.key,
            RecordKind::Attribute,
            axis,
            NodeFilter::any(),
        )
        .unwrap();
        assert!(
            s.collect().unwrap().is_empty(),
            "axis {axis} should be empty for attributes"
        );
    }
    // But parent works.
    let s = axis_stream(
        &f.store,
        &attr.key,
        RecordKind::Attribute,
        Axis::Parent,
        NodeFilter::any_element(),
    )
    .unwrap();
    assert_eq!(s.collect().unwrap().len(), 1);
}

#[test]
fn namespace_axis_synthesizes_in_scope_declarations() {
    let f = Fixture::new();
    let city = f.elem("city", 0);
    let stream = axis_stream(
        &f.store,
        &city,
        RecordKind::Element,
        Axis::Namespace,
        NodeFilter {
            kind: vamana_mass::KindFilter::Attribute,
            name: None,
        },
    )
    .unwrap();
    let ns = stream.collect().unwrap();
    assert_eq!(ns.len(), 1);
    assert_eq!(f.store.names().resolve(ns[0].name.unwrap()), "xmlns:x");
}

#[test]
fn text_node_test_on_child_axis() {
    let f = Fixture::new();
    let name0 = f.elem("name", 0);
    let stream = axis_stream(
        &f.store,
        &name0,
        RecordKind::Element,
        Axis::Child,
        NodeFilter::text(),
    )
    .unwrap();
    let texts = stream.collect().unwrap();
    assert_eq!(texts.len(), 1);
    let rec = f.store.get(&texts[0].key).unwrap().unwrap();
    assert_eq!(f.store.resolve_value(&rec).unwrap().unwrap(), "Ann");
}

#[test]
fn streams_yield_document_order() {
    let f = Fixture::new();
    let site = f.elem("site", 0);
    for axis in [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Following,
    ] {
        let stream = axis_stream(
            &f.store,
            &site,
            RecordKind::Element,
            axis,
            NodeFilter::any(),
        )
        .unwrap();
        let keys: Vec<_> = stream
            .collect()
            .unwrap()
            .into_iter()
            .map(|e| e.key)
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1], "axis {axis} out of order");
        }
    }
}

#[test]
fn counts_match_stream_lengths() {
    // The cost model's COUNT must agree with what execution produces.
    let f = Fixture::new();
    let site = f.elem("site", 0);
    for name in ["person", "name", "watch", "price", "province"] {
        let id = f.store.name_id(name).unwrap();
        let counted = f.store.count_elements_in(id, &KeyRange::descendants(&site));
        let streamed = f.run_named(&site, Axis::Descendant, name) as u64;
        assert_eq!(counted, streamed, "mismatch for {name}");
    }
}

#[test]
fn every_axis_runs_from_every_element() {
    // Smoke test: no axis panics or violates document order anywhere.
    let f = Fixture::new();
    let all_elems: Vec<FlexKey> = {
        let mut keys = Vec::new();
        for name in [
            "site",
            "people",
            "person",
            "name",
            "address",
            "city",
            "province",
            "watches",
            "watch",
            "open_auctions",
            "open_auction",
            "itemref",
            "price",
            "emailaddress",
        ] {
            if let Some(id) = f.store.name_id(name) {
                for flat in f.store.name_index().elements(id).iter() {
                    keys.push(FlexKey::from_flat_slice(flat));
                }
            }
        }
        keys
    };
    assert!(all_elems.len() >= 15);
    for key in &all_elems {
        for axis in Axis::ALL {
            let stream =
                axis_stream(&f.store, key, RecordKind::Element, axis, NodeFilter::any()).unwrap();
            let entries = stream.collect().unwrap();
            for w in entries.windows(2) {
                assert!(w[0].key < w[1].key, "axis {axis} out of order from {key}");
            }
        }
    }
}

// ---- every axis against the `vamana-xml` model, under every pull size ----

/// Pull sizes every stream is drained under: tuple-at-a-time, sizes that
/// cut pages and sibling runs, a full batch, and drain-all.
const PULLS: [usize; 6] = [1, 2, 3, 7, 256, usize::MAX];

/// Drains `stream` through `next_batch` pulls of `max` entries each,
/// then checks that the exhausted stream stays exhausted (an attribute
/// scan must not wander on into the element's children).
fn drain(mut stream: AxisStream<'_>, max: usize) -> Vec<vamana_mass::NodeEntry> {
    drain_open(&mut stream, max)
}

/// [`drain`] of the context `stream` is open on; the stream lives on for
/// the next one.
fn drain_open(stream: &mut AxisStream<'_>, max: usize) -> Vec<vamana_mass::NodeEntry> {
    let mut out = Vec::new();
    loop {
        let n = stream.next_batch(&mut out, max).unwrap();
        assert!(n <= max, "over-filled pull: {n} > {max}");
        if n < max {
            break;
        }
    }
    let len = out.len();
    for _ in 0..2 {
        assert_eq!(stream.next_batch(&mut out, max).unwrap(), 0);
    }
    assert_eq!(out.len(), len);
    // As an owner out of contexts would (most callers are: they pass the
    // stream by value); the stream is as good as before for the next one.
    stream.release();
    out
}

/// The node tests the oracle understands, as XPath spells them.
#[derive(Debug, Clone, Copy)]
enum Test {
    /// `node()`
    Node,
    /// `*`
    Star,
    /// `text()`
    Text,
    /// A name test.
    Named(&'static str),
}

/// The DOM side: the parsed document and its nodes in document order
/// (attributes directly after their element), which is the order of the
/// store's records — so the `i`-th node *is* the `i`-th stored key.
struct Model {
    doc: vamana_xml::Document,
    order: Vec<vamana_xml::NodeId>,
    keys: Vec<FlexKey>,
}

impl Model {
    fn new(xml: &str, store: &MassStore) -> Self {
        fn walk(
            doc: &vamana_xml::Document,
            id: vamana_xml::NodeId,
            out: &mut Vec<vamana_xml::NodeId>,
        ) {
            out.push(id);
            out.extend(doc.attributes(id));
            for c in doc.children(id) {
                walk(doc, c, out);
            }
        }
        let doc = vamana_xml::parse(xml).unwrap();
        let mut order = Vec::new();
        walk(&doc, vamana_xml::Document::ROOT, &mut order);
        let doc_key = store.documents()[0].doc_key.clone();
        let mut records = Vec::new();
        vamana_mass::cursor::MassCursor::new(store, KeyRange::subtree(&doc_key))
            .next_batch(&mut records, usize::MAX)
            .unwrap();
        assert_eq!(records.len(), order.len(), "one record per model node");
        let keys = records.into_iter().map(|e| e.key).collect();
        Model { doc, order, keys }
    }

    fn pos(&self, id: vamana_xml::NodeId) -> usize {
        self.order.iter().position(|n| *n == id).unwrap()
    }

    fn is_ancestor(&self, anc: vamana_xml::NodeId, mut id: vamana_xml::NodeId) -> bool {
        while let Some(p) = self.doc.parent(id) {
            if p == anc {
                return true;
            }
            id = p;
        }
        false
    }

    /// The nodes on `axis` from element `ctx`, in document order, before
    /// the node test.
    fn axis(&self, ctx: vamana_xml::NodeId, axis: Axis) -> Vec<vamana_xml::NodeId> {
        let doc = &self.doc;
        let ancestors = || {
            let mut up = Vec::new();
            let mut cur = ctx;
            while let Some(p) = doc.parent(cur) {
                up.push(p);
                cur = p;
            }
            up.reverse();
            up
        };
        let siblings = |after: bool| -> Vec<_> {
            let parent = doc.parent(ctx).unwrap();
            let at = self.pos(ctx);
            doc.children(parent)
                .filter(|c| *c != ctx && (self.pos(*c) > at) == after)
                .collect()
        };
        let in_document_order = |keep: &dyn Fn(vamana_xml::NodeId) -> bool| -> Vec<_> {
            self.order
                .iter()
                .copied()
                .filter(|n| !doc.kind(*n).is_attribute() && keep(*n))
                .collect()
        };
        match axis {
            Axis::SelfAxis => vec![ctx],
            Axis::Child => doc.children(ctx).collect(),
            Axis::Descendant => doc.descendants(ctx).collect(),
            Axis::DescendantOrSelf => std::iter::once(ctx).chain(doc.descendants(ctx)).collect(),
            Axis::Parent => doc.parent(ctx).into_iter().collect(),
            Axis::Ancestor => ancestors(),
            Axis::AncestorOrSelf => ancestors().into_iter().chain([ctx]).collect(),
            Axis::Following => {
                in_document_order(&|n| self.pos(n) > self.pos(ctx) && !self.is_ancestor(ctx, n))
            }
            Axis::Preceding => {
                in_document_order(&|n| self.pos(n) < self.pos(ctx) && !self.is_ancestor(n, ctx))
            }
            Axis::FollowingSibling => siblings(true),
            Axis::PrecedingSibling => siblings(false),
            Axis::Attribute => doc.attributes(ctx).collect(),
            Axis::Namespace => {
                // In-scope declarations, the nearest of each prefix.
                let mut seen = Vec::new();
                let mut decls = Vec::new();
                for e in ancestors().into_iter().chain([ctx]).rev() {
                    for a in doc.attributes(e) {
                        let name = doc.name(a).unwrap();
                        if (name == "xmlns" || name.starts_with("xmlns:")) && !seen.contains(&name)
                        {
                            seen.push(name);
                            decls.push(a);
                        }
                    }
                }
                decls.sort_by_key(|a| self.pos(*a));
                decls
            }
        }
    }

    /// XPath node-test semantics: `*` and name tests select the axis's
    /// principal node kind; `node()` selects any node, the document node
    /// included.
    fn passes(&self, id: vamana_xml::NodeId, axis: Axis, test: Test) -> bool {
        let kind = self.doc.kind(id);
        // Namespace nodes are modelled as the declaring attributes.
        let principal = if matches!(axis, Axis::Attribute | Axis::Namespace) {
            kind.is_attribute()
        } else {
            kind.is_element()
        };
        match test {
            Test::Node => true,
            Test::Star => principal,
            Test::Text => kind.is_text(),
            Test::Named(name) => principal && self.doc.name(id) == Some(name),
        }
    }

    /// What `axis::test` from `ctx` must produce: keys in document order.
    fn expected(&self, ctx: vamana_xml::NodeId, axis: Axis, test: Test) -> Vec<FlexKey> {
        self.axis(ctx, axis)
            .into_iter()
            .filter(|n| self.passes(*n, axis, test))
            .map(|n| self.keys[self.pos(n)].clone())
            .collect()
    }
}

/// The store-side filter for `test` on `axis`; `None` when the name does
/// not occur in the store (the step is then provably empty).
fn node_filter(store: &MassStore, axis: Axis, test: Test) -> Option<NodeFilter> {
    let attribute = axis.principal_is_attribute();
    Some(match test {
        Test::Node => NodeFilter::any(),
        Test::Text => NodeFilter::text(),
        Test::Star if attribute => NodeFilter {
            kind: vamana_mass::KindFilter::Attribute,
            name: None,
        },
        Test::Star => NodeFilter::any_element(),
        Test::Named(name) if attribute => NodeFilter::attribute(store.name_id(name)?),
        Test::Named(name) => NodeFilter::element(store.name_id(name)?),
    })
}

#[test]
fn every_axis_matches_the_dom_under_every_pull_size() {
    // From every element, every axis, under node tests that take every
    // stream shape (clustered scan, sibling jump, name-index slice,
    // key list, attribute scan): the stream is the axis computed on the
    // parsed document, whatever the pull size.
    let f = Fixture::new();
    let model = Model::new(DOC, &f.store);
    let tests = [
        Test::Node,
        Test::Star,
        Test::Text,
        Test::Named("person"),
        Test::Named("name"),
        Test::Named("id"),
        Test::Named("xmlns:x"),
    ];
    let elements: Vec<_> = model
        .order
        .iter()
        .copied()
        .filter(|n| model.doc.kind(*n).is_element())
        .collect();
    assert!(elements.len() >= 15);
    let mut non_empty = 0;
    for ctx in elements {
        let key = &model.keys[model.pos(ctx)];
        for axis in Axis::ALL {
            for test in tests {
                let expected = model.expected(ctx, axis, test);
                non_empty += usize::from(!expected.is_empty());
                let Some(filter) = node_filter(&f.store, axis, test) else {
                    panic!("{test:?} names nothing in the fixture");
                };
                for max in PULLS {
                    let stream =
                        axis_stream(&f.store, key, RecordKind::Element, axis, filter).unwrap();
                    let got: Vec<FlexKey> = drain(stream, max).into_iter().map(|e| e.key).collect();
                    assert_eq!(got, expected, "{axis}::{test:?} from {key} pulled by {max}");
                }
            }
        }
    }
    assert!(non_empty > 300, "only {non_empty} non-empty cases");
}

#[test]
fn a_stream_carried_across_contexts_is_the_stream_of_each() {
    // One stream per (axis, test), as a step cursor keeps it, re-opened
    // on contexts in document order (the fast case), in reverse, and
    // jumping about with repeats — drained each time, or left a few
    // entries in, so the next context finds the posting-list finger and
    // the clustered cursor wherever the last one happened to stop. Every
    // stream is still the DOM's.
    let f = Fixture::new();
    let model = Model::new(DOC, &f.store);
    let tests = [
        Test::Node,
        Test::Star,
        Test::Text,
        Test::Named("person"),
        Test::Named("name"),
        Test::Named("watch"),
        Test::Named("id"),
    ];
    let elements: Vec<_> = model
        .order
        .iter()
        .copied()
        .filter(|n| model.doc.kind(*n).is_element())
        .collect();
    let n = elements.len();
    let orders: [Vec<usize>; 3] = [
        (0..n).collect(),
        (0..n).rev().collect(),
        (0..3 * n).map(|i| (i * 7 + i / 3) % n).collect(),
    ];
    for axis in Axis::ALL {
        for test in tests {
            let filter = node_filter(&f.store, axis, test).expect("name in fixture");
            for (order, abandon) in orders.iter().zip([usize::MAX, 2, 3]) {
                let mut stream = AxisStream::new(&f.store, axis, filter);
                for (turn, &at) in order.iter().enumerate() {
                    let ctx = elements[at];
                    let key = &model.keys[model.pos(ctx)];
                    stream.open(key, RecordKind::Element).unwrap();
                    let expected = model.expected(ctx, axis, test);
                    if turn % abandon == 1 {
                        // Walk away from this context after one entry.
                        let mut first = Vec::new();
                        stream.next_batch(&mut first, 1).unwrap();
                        let first: Vec<_> = first.into_iter().map(|e| e.key).collect();
                        assert_eq!(first, expected[..expected.len().min(1)]);
                        continue;
                    }
                    let got: Vec<FlexKey> = drain_open(&mut stream, 3)
                        .into_iter()
                        .map(|e| e.key)
                        .collect();
                    assert_eq!(got, expected, "{axis}::{test:?} from {key}, turn {turn}");
                }
                // The elements of the fixture nest, so even their walk in
                // document order trips the witness of a downward axis —
                // bar the self axis, which only the other two walks do.
                let trips = match axis {
                    Axis::SelfAxis => abandon != usize::MAX,
                    other => other.is_downward(),
                };
                assert_eq!(stream.nested(), trips, "{axis}::{test:?}");
            }
        }
    }
}

#[test]
fn the_nesting_witness_trips_exactly_when_a_context_starts_inside_the_last() {
    let f = Fixture::new();
    let person = [f.elem("person", 0), f.elem("person", 1)];
    let people = f.elem("people", 0);
    let watch = [f.elem("watch", 0), f.elem("watch", 1)];
    let open = |contexts: &[&FlexKey], axis: Axis| {
        let mut stream = AxisStream::new(&f.store, axis, NodeFilter::any());
        for ctx in contexts {
            stream.open(ctx, RecordKind::Element).unwrap();
            drain_open(&mut stream, 7);
        }
        stream.nested()
    };
    for axis in [
        Axis::SelfAxis,
        Axis::Child,
        Axis::Attribute,
        Axis::Descendant,
        Axis::DescendantOrSelf,
    ] {
        // Siblings, and cousins, in document order: disjoint subtrees.
        assert!(!open(&[&person[0], &person[1]], axis), "{axis}");
        assert!(!open(&[&person[0], &watch[0], &watch[1]], axis), "{axis}");
        // A descendant after its ancestor — which the self axis, yielding
        // nothing below its context, does not mind — a repeat, a step back.
        let minds = axis != Axis::SelfAxis;
        assert_eq!(open(&[&people, &person[0]], axis), minds, "{axis}");
        assert_eq!(open(&[&person[1], &watch[0]], axis), minds, "{axis}");
        assert!(open(&[&watch[0], &watch[0]], axis), "{axis}");
        assert!(open(&[&person[1], &person[0]], axis), "{axis}");
    }
    // The axes that look elsewhere promise no order and say nothing.
    for axis in [Axis::Parent, Axis::Following, Axis::PrecedingSibling] {
        assert!(!open(&[&people, &person[0], &person[0]], axis), "{axis}");
    }
}

#[test]
fn cursor_batch_on_empty_store_and_empty_range() {
    use vamana_mass::cursor::MassCursor;
    // Empty store: no pages at all.
    let empty = MassStore::open_memory();
    let mut cur = MassCursor::new(&empty, KeyRange::all());
    let mut out = Vec::new();
    assert_eq!(cur.next_batch(&mut out, 256).unwrap(), 0);
    assert_eq!(cur.next_batch(&mut out, 256).unwrap(), 0, "stays exhausted");
    // Populated store, but a range past every stored key.
    let f = Fixture::new();
    let last = f.elem("open_auction", 0);
    let range = KeyRange {
        lo: last.subtree_upper().unwrap(),
        hi: None,
    };
    let mut cur = MassCursor::new(&f.store, range);
    let n = cur.next_batch(&mut out, 256).unwrap();
    // Nothing below the document level follows the last auction subtree.
    assert!(
        out.iter().all(|e| !last.is_ancestor_of(&e.key)),
        "range must exclude the subtree"
    );
    let _ = n;
}

#[test]
fn scan_crosses_pages_emptied_by_deletes() {
    // Build a store large enough for several pages, carve a hole in the
    // middle with a subtree delete, and check the scan steps over the
    // gap: what is left is what was there minus the deleted subtree.
    let mut xml = String::from("<r>");
    for part in 0..3 {
        xml.push_str(&format!("<part id='g{part}'>"));
        for i in 0..800 {
            xml.push_str(&format!("<e>{part}-{i}</e>"));
        }
        xml.push_str("</part>");
    }
    xml.push_str("</r>");
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &xml).unwrap();
    assert!(
        store.stats().pages > 3,
        "fixture must span multiple pages, got {}",
        store.stats().pages
    );
    let root = {
        let id = store.name_id("r").unwrap();
        let flat = store.name_index().elements(id).iter().next().unwrap();
        FlexKey::from_flat_slice(flat)
    };
    let descendants = |store: &MassStore, max: usize| {
        let stream = axis_stream(
            store,
            &root,
            RecordKind::Element,
            Axis::Descendant,
            NodeFilter::any(),
        )
        .unwrap();
        drain(stream, max)
    };
    let before = descendants(&store, usize::MAX);
    // Three parts of 800 elements with one text each (attributes are
    // not on the descendant axis).
    assert_eq!(before.len(), 3 * (1 + 2 * 800));
    let part1 = {
        let id = store.name_id("part").unwrap();
        let flat = store.name_index().elements(id).iter().nth(1).unwrap();
        FlexKey::from_flat_slice(flat)
    };
    let deleted = store.delete_subtree(&part1).unwrap();
    assert!(deleted > 800, "subtree delete must remove the middle part");
    let expected: Vec<_> = before
        .into_iter()
        .filter(|e| e.key != part1 && !part1.is_ancestor_of(&e.key))
        .collect();
    assert_eq!(expected.len(), 2 * (1 + 2 * 800));
    for max in PULLS {
        assert_eq!(descendants(&store, max), expected, "max {max}");
    }
}

#[test]
fn batch_counters_account_for_amortized_pins() {
    let mut xml = String::from("<r>");
    for i in 0..2000 {
        xml.push_str(&format!("<e>{i}</e>"));
    }
    xml.push_str("</r>");
    let mut store = MassStore::open_memory();
    store.load_xml("doc", &xml).unwrap();
    store.buffer_pool().reset_stats();
    let root = {
        let id = store.name_id("r").unwrap();
        let flat = store.name_index().elements(id).iter().next().unwrap();
        FlexKey::from_flat_slice(flat)
    };
    let stream = axis_stream(
        &store,
        &root,
        RecordKind::Element,
        Axis::Descendant,
        NodeFilter::any(),
    )
    .unwrap();
    let entries = drain(stream, 256);
    let stats = store.buffer_pool().stats();
    assert!(!entries.is_empty());
    assert!(stats.batch_pins > 0, "batched scan must record its pins");
    assert!(
        stats.pins_saved >= entries.len() as u64 - stats.batch_pins,
        "pins_saved {} too small for {} entries over {} batch pins",
        stats.pins_saved,
        entries.len(),
        stats.batch_pins
    );
    // Every batch saves exactly (scanned - 1) pins, so the two counters
    // together equal the number of records examined.
    let scanned = stats.batch_pins + stats.pins_saved;
    assert!(
        scanned >= entries.len() as u64,
        "scanned {scanned} < produced {}",
        entries.len()
    );
}
