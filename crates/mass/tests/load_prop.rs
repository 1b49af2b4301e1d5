//! The streaming load against the DOM: random documents loaded into v1
//! and v2 stores hold, record by record, what `vamana_xml::parse` builds
//! from the same text; a load the store cannot take leaves no trace; and
//! XMark stores at two small scales keep the page files, dictionaries and
//! catalogs pinned below.

use proptest::prelude::*;
use std::collections::HashMap;
use vamana_flex::KeyRange;
use vamana_mass::{
    FsyncPolicy, MassCursor, MassStore, MemWalBackend, RecordKind, SharedPager, StoreFormat,
};
use vamana_xmark::{generate_string, XmarkConfig};
use vamana_xml::{Document, NodeId, NodeKind};

const CAP: usize = 64;

/// Text pieces: entity and character references, CDATA beside text,
/// whitespace only, a value long enough for the blob heap, and short
/// values that repeat (dictionary candidates).
const TEXTS: &[&str] = &[
    "Yung Flach",
    "a &amp; b",
    "&lt;tag&gt; &#65;&#x42;",
    "x<![CDATA[<raw & ]]>y",
    "<![CDATA[cdata only]]>",
    "  \n\t ",
    "<![CDATA[ ]]> ",
    "hot",
    "hot",
    "&quot;q&apos;",
];

const ATTRS: &[&str] = &["hot", "v &amp; w", "&#x263A;", "", "  ", "hot"];

const NAMES: &[&str] = &["a", "b", "person", "x:y", "item_1"];

/// One step of the document generator.
#[derive(Debug, Clone)]
enum Op {
    Open(usize, Vec<(usize, usize)>),
    Close,
    Text(usize),
    Comment,
    Pi,
    /// `n` nested elements, opened at once.
    Deep(usize),
    Long,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..NAMES.len(),
            proptest::collection::vec((0..NAMES.len(), 0..ATTRS.len()), 0..3)
        )
            .prop_map(|(n, attrs)| Op::Open(n, attrs)),
        (
            0..NAMES.len(),
            proptest::collection::vec((0..NAMES.len(), 0..ATTRS.len()), 0..3)
        )
            .prop_map(|(n, attrs)| Op::Open(n, attrs)),
        (0u8..1).prop_map(|_| Op::Close),
        (0..TEXTS.len()).prop_map(Op::Text),
        (0..TEXTS.len()).prop_map(Op::Text),
        (0u8..1).prop_map(|_| Op::Comment),
        (0u8..1).prop_map(|_| Op::Pi),
        (1usize..400).prop_map(Op::Deep),
        (0u8..8).prop_map(|i| if i == 0 { Op::Long } else { Op::Close }),
    ]
}

/// Renders `ops` inside a root element, with comments and PIs in the
/// prolog and epilog when `frame` says so.
fn render(ops: &[Op], frame: u8) -> String {
    let mut xml = String::new();
    if frame & 1 != 0 {
        xml.push_str("<?xml version=\"1.0\"?>\n<!-- prolog --><?style sheet?>\n");
    }
    xml.push_str("<root id='r'>");
    let mut open: Vec<&str> = vec!["root"];
    for op in ops {
        match op {
            Op::Open(n, attrs) => {
                xml.push('<');
                xml.push_str(NAMES[*n]);
                let mut seen = Vec::new();
                for &(a, v) in attrs {
                    if !seen.contains(&a) {
                        seen.push(a);
                        xml.push_str(&format!(" {}=\"{}\"", NAMES[a], ATTRS[v]));
                    }
                }
                xml.push('>');
                open.push(NAMES[*n]);
            }
            Op::Close if open.len() > 1 => {
                xml.push_str(&format!("</{}>", open.pop().unwrap()));
            }
            Op::Close => {}
            Op::Text(t) => xml.push_str(TEXTS[*t]),
            Op::Comment => xml.push_str("<!-- c &amp; -->"),
            Op::Pi => xml.push_str("<?target some data ?>"),
            Op::Deep(n) => {
                xml.push_str(&"<d>".repeat(*n));
                open.extend(std::iter::repeat_n("d", *n));
            }
            Op::Long => xml.push_str(&"long ".repeat(260)),
        }
    }
    while let Some(name) = open.pop() {
        xml.push_str(&format!("</{name}>"));
    }
    if frame & 2 != 0 {
        xml.push_str("\n<!-- epilog --><?done?>\n");
    }
    xml
}

/// A DOM node in load order: the document node, then pre-order with an
/// element's attributes right after it.
fn dom_order(doc: &Document) -> Vec<NodeId> {
    let mut out = vec![Document::ROOT];
    let mut stack: Vec<NodeId> = doc.children(Document::ROOT).collect();
    stack.reverse();
    while let Some(id) = stack.pop() {
        out.push(id);
        if doc.kind(id).is_element() {
            out.extend(doc.attributes(id));
            let kids: Vec<_> = doc.children(id).collect();
            stack.extend(kids.into_iter().rev());
        }
    }
    out
}

fn kind_of(kind: &NodeKind) -> RecordKind {
    match kind {
        NodeKind::Document => RecordKind::Document,
        NodeKind::Element { .. } => RecordKind::Element,
        NodeKind::Attribute { .. } => RecordKind::Attribute,
        NodeKind::Text { .. } => RecordKind::Text,
        NodeKind::Comment { .. } => RecordKind::Comment,
        NodeKind::ProcessingInstruction { .. } => RecordKind::Pi,
    }
}

/// Checks that `store`'s only document holds `doc` record by record, and
/// that its name and value indexes count what `doc` holds.
fn assert_matches_dom(store: &MassStore, doc: &Document) -> Result<(), String> {
    let order = dom_order(doc);
    let mut cur = MassCursor::new(store, KeyRange::all());
    let mut i = 0;
    while let Some(rec) = cur.next().unwrap() {
        prop_assert!(i < order.len(), "the store holds more records than the DOM");
        let id = order[i];
        prop_assert_eq!(rec.key.level(), doc.depth(id) + 1, "level of record {}", i);
        prop_assert_eq!(rec.kind, kind_of(doc.kind(id)), "kind of record {}", i);
        let name = rec.name.map(|n| store.names().resolve(n).to_string());
        prop_assert_eq!(name.as_deref(), doc.name(id), "name of record {}", i);
        let value = store.resolve_value(&rec).unwrap();
        prop_assert_eq!(value.as_deref(), doc.value(id), "value of record {}", i);
        i += 1;
    }
    prop_assert_eq!(i, order.len(), "the store holds fewer records than the DOM");
    prop_assert_eq!(store.stats().tuples, order.len() as u64);

    let all = KeyRange::all();
    let mut elements: HashMap<&str, u64> = HashMap::new();
    let mut attributes: HashMap<&str, u64> = HashMap::new();
    let mut values: HashMap<&str, u64> = HashMap::new();
    let (mut texts, mut comments, mut pis) = (0, 0, 0);
    for &id in &order {
        match doc.kind(id) {
            NodeKind::Element { name } => *elements.entry(name).or_default() += 1,
            NodeKind::Attribute { name, value } => {
                *attributes.entry(name).or_default() += 1;
                *values.entry(value).or_default() += 1;
            }
            NodeKind::Text { value } => {
                texts += 1;
                *values.entry(value).or_default() += 1;
            }
            NodeKind::Comment { .. } => comments += 1,
            NodeKind::ProcessingInstruction { .. } => pis += 1,
            NodeKind::Document => {}
        }
    }
    for (name, n) in elements {
        prop_assert_eq!(
            store.count_elements(store.name_id(name).unwrap()),
            n,
            "<{}>",
            name
        );
    }
    for (name, n) in attributes {
        let id = store.name_id(name).unwrap();
        prop_assert_eq!(store.count_attributes_in(id, &all), n, "@{}", name);
    }
    for (value, n) in values {
        prop_assert_eq!(store.text_count(value), n, "value {:?}", value);
    }
    prop_assert_eq!(store.count_text_in(&all), texts);
    prop_assert_eq!(store.count_comments_in(&all), comments);
    prop_assert_eq!(store.count_pis_in(&all), pis);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// v1 and v2 stores load exactly the DOM of the same text.
    #[test]
    fn loaded_records_match_the_dom(
        ops in proptest::collection::vec(arb_op(), 0..60),
        frame in 0u8..4,
    ) {
        let xml = render(&ops, frame);
        let doc = vamana_xml::parse(&xml).expect("generated documents are well formed");
        for format in [StoreFormat::V1, StoreFormat::V2] {
            let mut store = MassStore::open_memory_with_capacity(CAP);
            store.set_format(format).unwrap();
            store.load_xml("d", &xml).unwrap();
            assert_matches_dom(&store, &doc)?;
        }
    }
}

// ---- all or nothing -----------------------------------------------------

/// A document nested deeper than a page can hold a key for.
fn too_deep() -> String {
    "<a>".repeat(6000) + &"</a>".repeat(6000)
}

#[test]
fn a_load_too_deep_for_a_page_leaves_a_memory_store_as_it_was() {
    let mut s = MassStore::open_memory();
    let err = s.load_xml("deep", &too_deep()).unwrap_err();
    assert!(err.to_string().contains("page capacity"), "{err}");
    assert_eq!(s.stats().tuples, 0);
    assert_eq!(s.stats().pages, 0);
    assert!(s.documents().is_empty());
    assert_eq!(s.generation(), 0);

    let next = s.load_xml("next", "<n><m/></n>").unwrap();
    let key = s.document(next).unwrap().doc_key.clone();
    let mut cur = MassCursor::new(&s, KeyRange::subtree(&key));
    let mut records = 0;
    while cur.next().unwrap().is_some() {
        records += 1;
    }
    assert_eq!(records, 3, "document, <n> and <m>");
    assert_eq!(s.stats().tuples, 3);
}

#[test]
fn a_load_too_deep_for_a_page_is_never_logged() {
    let pager = SharedPager::new();
    let wal = MemWalBackend::new();
    {
        let mut s = MassStore::create_with_wal(
            Box::new(pager.clone()),
            CAP,
            Box::new(wal.clone()),
            FsyncPolicy::Never,
        )
        .unwrap();
        s.load_xml("deep", &too_deep()).unwrap_err();
        assert_eq!(s.wal_stats().records, 0, "nothing logged");
        s.load_xml("next", "<n><m/></n>").unwrap();
    }
    let s = MassStore::open_with_wal(Box::new(pager), CAP, Box::new(wal), FsyncPolicy::Never)
        .expect("the store reopens");
    let names: Vec<_> = s.documents().iter().map(|d| d.name.to_string()).collect();
    assert_eq!(names, ["next"]);
    assert_eq!(s.stats().tuples, 3);
}

#[test]
fn malformed_text_is_rejected_before_anything_is_written() {
    // A mismatched tag, and character data outside the root element —
    // in a CDATA section too, which is no document-level text record.
    for bad in ["<a><b>text</b><c></a>", "<![CDATA[x]]><a/>"] {
        let mut s = MassStore::open_memory();
        assert!(s.load_xml("bad", bad).is_err(), "{bad}");
        assert_eq!(s.stats().tuples, 0, "{bad}");
        assert!(s.documents().is_empty(), "{bad}");
    }
}

// ---- XMark goldens ----------------------------------------------------------

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of a durable XMark store's page file, blob file and catalog,
/// and of its dictionary's entries, after one `load_xml`.
fn store_fingerprint(scale: f64, format: StoreFormat) -> [u64; 4] {
    let xml = generate_string(&XmarkConfig::with_scale(scale));
    let dir = std::env::temp_dir().join(format!(
        "vamana-load-golden-{}-{scale}-{}",
        format.as_str(),
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("store.mass");
    let dict = {
        let mut s = MassStore::create_durable(&path, CAP, FsyncPolicy::Never).unwrap();
        s.set_format(format).unwrap();
        s.load_xml("auction", &xml).unwrap();
        s.dict()
            .iter()
            .fold(FNV_SEED, |h, v| fnv(fnv(h, v.as_bytes()), &[0]))
    };
    let file = |suffix: &str| {
        let mut p = path.as_os_str().to_owned();
        p.push(suffix);
        fnv(FNV_SEED, &std::fs::read(p).unwrap())
    };
    let out = [file(""), file(".blob"), file(".cat"), dict];
    std::fs::remove_dir_all(&dir).ok();
    out
}

/// Taken from the DOM-based loader this one replaced: the streaming load
/// writes the same bytes.
#[test]
fn xmark_stores_match_the_golden_fingerprints() {
    let golden: [(f64, StoreFormat, [u64; 4]); 4] = [
        (
            0.002,
            StoreFormat::V1,
            [0x419f9a593ef898a9, FNV_SEED, 0x0270018a3fe2ad4a, FNV_SEED],
        ),
        (
            0.002,
            StoreFormat::V2,
            [
                0x6a2a0057d974c960,
                FNV_SEED,
                0xa031b8c0df7a7257,
                0xecce0fa4452ff37e,
            ],
        ),
        (
            0.005,
            StoreFormat::V1,
            [0x696643ad10130c19, FNV_SEED, 0x6780115f11a45c4e, FNV_SEED],
        ),
        (
            0.005,
            StoreFormat::V2,
            [
                0x895504f790e5cf19,
                FNV_SEED,
                0x156b405237fa94f7,
                0xc7ec2ef35ee4afb8,
            ],
        ),
    ];
    for (scale, format, want) in golden {
        let got = store_fingerprint(scale, format);
        assert_eq!(
            got,
            want,
            "scale {scale} {}: [pages, blobs, catalog, dictionary]",
            format.as_str()
        );
    }
}
