//! Property-based oracle testing: for random documents and random XPath
//! expressions, the VAMANA engine (default *and* optimized plans, so the
//! whole transformation library is exercised) must agree with the
//! independent DOM evaluator node for node — and, for random scalar
//! expressions over those paths, value for value.

use proptest::prelude::*;
use vamana::baseline::dom::DomEngine;
use vamana::baseline::XPathEngine;
use vamana::{DocId, Engine, MassStore, VamanaAdapter};

const NAMES: &[&str] = &["a", "b", "c", "person", "name"];
const VALUES: &[&str] = &["x", "yy", "Vermont", "7", "12.5"];

/// A random XML tree, rendered as text.
#[derive(Debug, Clone)]
struct Tree {
    name: usize,
    attr: Option<(usize, usize)>,
    text: Option<usize>,
    children: Vec<Tree>,
}

impl Tree {
    fn render(&self, out: &mut String) {
        out.push('<');
        out.push_str(NAMES[self.name]);
        if let Some((n, v)) = self.attr {
            out.push_str(&format!(" {}=\"{}\"", NAMES[n], VALUES[v]));
        }
        out.push('>');
        if let Some(t) = self.text {
            out.push_str(VALUES[t]);
        }
        for c in &self.children {
            c.render(out);
        }
        out.push_str("</");
        out.push_str(NAMES[self.name]);
        out.push('>');
    }
}

/// An element with a random name, attribute and text over `children`.
fn element(children: impl Strategy<Value = Vec<Tree>>) -> impl Strategy<Value = Tree> {
    (
        0..NAMES.len(),
        proptest::option::of((0..NAMES.len(), 0..VALUES.len())),
        proptest::option::of(0..VALUES.len()),
        children,
    )
        .prop_map(|(name, attr, text, children)| Tree {
            name,
            attr,
            text,
            children,
        })
}

/// A root over three to five random subtrees, each inner element with two
/// to four children (59 elements on average). A small document answers
/// most paths with nothing; on this one about a quarter of the node-set
/// property's (document, path) draws select nodes.
fn tree_strategy() -> impl Strategy<Value = Tree> {
    let leaf = element(Just(Vec::new()));
    let subtree = leaf.prop_recursive(3, 24, 4, |inner| {
        element(proptest::collection::vec(inner, 2..5))
    });
    element(proptest::collection::vec(subtree, 3..6))
}

/// One random location step.
#[derive(Debug, Clone)]
struct RandStep {
    axis: usize,
    test: usize,
    pred: usize,
}

const AXES: &[&str] = &[
    "child",
    "descendant",
    "descendant-or-self",
    "parent",
    "ancestor",
    "ancestor-or-self",
    "following",
    "following-sibling",
    "preceding",
    "preceding-sibling",
    "self",
    "attribute",
    "namespace",
];

impl RandStep {
    fn render(&self, out: &mut String) {
        out.push_str(AXES[self.axis]);
        out.push_str("::");
        // test: 0..NAMES = name, NAMES = *, NAMES+1 = node(), NAMES+2 = text()
        if self.test < NAMES.len() {
            out.push_str(NAMES[self.test]);
        } else if self.test == NAMES.len() {
            out.push('*');
        } else if self.test == NAMES.len() + 1 {
            out.push_str("node()");
        } else {
            out.push_str("text()");
        }
        match self.pred {
            0 => {}
            1 => out.push_str("[1]"),
            2 => out.push_str("[last()]"),
            3 => out.push_str(&format!("[{}]", NAMES[0])),
            4 => out.push_str(&format!("[@{} = '{}']", NAMES[1], VALUES[0])),
            5 => out.push_str(&format!("[text() = '{}']", VALUES[2])),
            6 => out.push_str("[position() <= 2]"),
            7 => out.push_str(&format!("[{}/{}]", NAMES[1], NAMES[2])),
            8 => out.push_str(&format!("[.//{}]", NAMES[4])),
            9 => out.push_str(&format!("[count({}) > 1]", NAMES[0])),
            10 => out.push_str(&format!("[{} = '{}']", NAMES[3], VALUES[1])),
            11 => out.push_str(&format!("[not({})]", NAMES[2])),
            12 => out.push_str("[text() > 5]"),
            13 => out.push_str(&format!("[@{} <= 10]", NAMES[0])),
            14 => out.push_str(&format!("[{}[2]]", NAMES[0])),
            15 => out.push_str(&format!("[count(.//{}) = 0]", NAMES[0])),
            16 => out.push_str(&format!("[count(descendant-or-self::{}) > 1]", NAMES[0])),
            // The parent of each child is the one parent: counted once.
            _ => out.push_str("[count(../*/..) = 1]"),
        }
    }
}

/// A random path: half rooted at the document node, a predicate on
/// almost every step, and half drawn as the scalars' paths are, which
/// select something far more often.
fn query_strategy() -> impl Strategy<Value = String> {
    prop_oneof![rooted_path_strategy(), scalar_path_strategy()]
}

fn rooted_path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (0..AXES.len(), 0..NAMES.len() + 3, 0usize..18).prop_map(|(axis, test, pred)| RandStep {
            axis,
            test,
            pred,
        }),
        1..4,
    )
    .prop_map(|steps| {
        let mut q = String::from("/");
        // Absolute path: /step/step...
        for (i, s) in steps.iter().enumerate() {
            if i > 0 {
                q.push('/');
            }
            s.render(&mut q);
        }
        q
    })
}

/// Scalar expressions over a random path `{}`: counts (of the path, and
/// per node of it), sums, booleans, strings, comparisons against a literal
/// and arithmetic. Each is read as a number, a coercion both engines make
/// alike.
const SCALARS: &[&str] = &[
    "count({})",
    "sum({})",
    "boolean({})",
    "not({})",
    "string-length(string({}))",
    "number(string({}))",
    "{} = 'yy'",
    "{} != 'x'",
    "{} > 5",
    "12.5 >= {}",
    "count({}) * 2 + 1",
    "count({}) mod 3 - sum({})",
    "-count({}) div 2",
    "count({}[count(.//a) = 0])",
    "count({}[count(descendant-or-self::a) = 1])",
];

/// A random path for a scalar to wrap: one to three random steps taken
/// from every node (`//`), half of them without a predicate, so that its
/// node-set is seldom empty and reverse axes repeat nodes.
fn scalar_path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        (0..AXES.len(), 0..NAMES.len() + 3, 0usize..36).prop_map(|(axis, test, pred)| RandStep {
            axis,
            test,
            pred: pred.saturating_sub(18),
        }),
        1..4,
    )
    .prop_map(|steps| {
        let mut q = String::from("/");
        for s in &steps {
            q.push('/');
            s.render(&mut q);
        }
        q
    })
}

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(192)
}

proptest! {
    // Five times the default cases: most random paths select nothing, and
    // a wrong count shows on fewer inputs still (a scalar reads one number
    // off its path; a predicate's count decides one step's rows).
    #![proptest_config(ProptestConfig { cases: 5 * cases(), ..ProptestConfig::default() })]

    #[test]
    fn vamana_agrees_with_dom_on_random_inputs(tree in tree_strategy(), query in query_strategy()) {
        let mut xml = String::new();
        tree.render(&mut xml);

        let oracle = DomEngine::from_xml(&xml).expect("oracle parse");
        let expected = oracle.identities(&query).expect("oracle eval");

        let build = || {
            let mut store = MassStore::open_memory();
            store.load_xml("doc", &xml).expect("load");
            Engine::new(store)
        };
        let optimized = VamanaAdapter::optimized(build());
        let default = VamanaAdapter::default_plan(build());

        let got_opt = optimized.identities(&query).expect("vamana-opt eval");
        prop_assert_eq!(&got_opt, &expected, "optimized differs on `{}` over {}", query, xml);
        let got_dflt = default.identities(&query).expect("vamana eval");
        prop_assert_eq!(&got_dflt, &expected, "default differs on `{}` over {}", query, xml);
    }

    #[test]
    fn mass_round_trips_random_documents(tree in tree_strategy()) {
        let mut xml = String::new();
        tree.render(&mut xml);
        let doc = vamana::xml::parse(&xml).expect("parse");
        let mut store = MassStore::open_memory();
        store.load_xml("doc", &xml).expect("load");

        // Every element/attribute/text node of the DOM is findable in
        // MASS, with the same counts per name.
        use std::collections::HashMap;
        let mut dom_elems: HashMap<String, u64> = HashMap::new();
        let mut dom_texts = 0u64;
        for n in doc.descendants(vamana::xml::Document::ROOT) {
            match doc.kind(n) {
                vamana::xml::NodeKind::Element { name } => {
                    *dom_elems.entry(name.to_string()).or_default() += 1;
                }
                vamana::xml::NodeKind::Text { .. } => dom_texts += 1,
                _ => {}
            }
        }
        for (name, count) in dom_elems {
            let id = store.name_id(&name).expect("interned");
            prop_assert_eq!(store.count_elements(id), count, "count mismatch for {}", name);
        }
        prop_assert_eq!(store.count_text_in(&vamana::flex::KeyRange::all()), dom_texts);

        // Reconstructed string value of the root element matches the DOM.
        let root_elem = doc.root_element().expect("root");
        let dom_value = doc.string_value(root_elem);
        let site = store.documents()[0].doc_key.clone();
        let mass_value = store.string_value(&site).expect("string value");
        prop_assert_eq!(dom_value, mass_value);
    }

    #[test]
    fn vamana_agrees_with_dom_on_random_scalars(
        tree in tree_strategy(),
        query in scalar_path_strategy(),
        scalar in 0..SCALARS.len(),
    ) {
        let mut xml = String::new();
        tree.render(&mut xml);
        let expr = SCALARS[scalar].replace("{}", &query);

        let oracle = DomEngine::from_xml(&xml).expect("oracle parse");
        let expected = oracle.eval_number(&expr).expect("oracle eval");
        for optimize in [true, false] {
            let mut store = MassStore::open_memory();
            store.load_xml("doc", &xml).expect("load");
            let mut engine = Engine::new(store);
            engine.options_mut().optimize = optimize;
            let value = engine.evaluate(DocId(0), &expr).expect("vamana eval");
            let got = value.number(engine.store()).expect("number");
            prop_assert!(
                got == expected || (got.is_nan() && expected.is_nan()),
                "optimize={} gives {} for `{}`, the DOM {} over {}", optimize, got, expr, expected, xml
            );
        }
    }
}
