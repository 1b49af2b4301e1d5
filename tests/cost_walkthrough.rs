//! Pins the paper's §VI-B cost-estimation walkthrough (Figs 6 and 7) on
//! a real generated document: not the absolute numbers (those depend on
//! scale) but every *relationship* the text derives.

use vamana::core::cost::{estimate, PlanCosts};
use vamana::core::opt::cleanup::cleanup;
use vamana::core::{build_plan, QueryPlan};
use vamana::flex::KeyRange;
use vamana::xmark::{generate_string, XmarkConfig};
use vamana::MassStore;

fn store() -> MassStore {
    let mut s = MassStore::open_memory();
    s.load_xml(
        "auction.xml",
        &generate_string(&XmarkConfig::with_scale(0.01)),
    )
    .unwrap();
    s
}

fn costed(s: &MassStore, q: &str) -> (QueryPlan, PlanCosts) {
    let mut plan = build_plan(&vamana::xpath::parse(q).unwrap()).unwrap();
    cleanup(&mut plan);
    let scope = KeyRange::subtree(&s.documents()[0].doc_key);
    let costs = estimate(&plan, s, &scope).unwrap();
    (plan, costs)
}

#[test]
fn fig6_walkthrough_relationships_hold() {
    let s = store();
    // Paper Q1/§III (eval Q3) after clean-up:
    // descendant::name / parent::person / child::address
    let (plan, costs) = costed(&s, "/descendant::name/parent::*/self::person/address");
    let path = plan.context_path(); // top-down: address, person, name
    assert_eq!(path.len(), 3);
    let addr = costs.get(path[0]).unwrap();
    let person = costs.get(path[1]).unwrap();
    let name = costs.get(path[2]).unwrap();

    // Leaf (case 1): IN = OUT = COUNT.
    assert_eq!(name.input, name.count.unwrap());
    assert_eq!(name.output, name.count.unwrap());

    // XMark shape: more names than persons (items/categories have names).
    assert!(name.count.unwrap() > person.count.unwrap());

    // parent::person (up-axis, Table I): OUT = IN even though COUNT < IN.
    assert_eq!(person.input, name.output);
    assert_eq!(person.output, person.input);
    assert!(person.count.unwrap() < person.input);

    // child::address (down-axis): COUNT < IN, so OUT = COUNT — "there is
    // a smaller number of address than person ... the upper bound is
    // determined by φ2" (§VI-C.1).
    assert_eq!(addr.input, person.output);
    assert!(addr.count.unwrap() < addr.input);
    assert_eq!(addr.output, addr.count.unwrap());

    // The address step is the most selective operator in L(P) — the
    // optimizer's starting point.
    assert_eq!(costs.ordered[0].0, path[0]);
    assert!(addr.selectivity() < person.selectivity());
}

#[test]
fn fig7_walkthrough_relationships_hold() {
    let s = store();
    // One unique full name anchors TC ≈ small, as 'Yung Flach' in Fig 7.
    // Find a name value that occurs exactly once.
    let unique = {
        let name_id = s.name_id("name").unwrap();
        let mut found = None;
        for flat in s.name_index().elements(name_id).iter().take(200) {
            let key = vamana::flex::FlexKey::from_flat_slice(flat);
            let v = s.string_value(&key).unwrap();
            if !v.is_empty() && s.text_count(&v) == 1 {
                found = Some(v);
                break;
            }
        }
        found.expect("some name value occurs exactly once")
    };
    let q = format!("//name[text() = '{unique}']/following-sibling::emailaddress");
    let (plan, costs) = costed(&s, &q);
    let path = plan.context_path(); // following-sibling, name
    assert_eq!(path.len(), 2);
    let sib = costs.get(path[0]).unwrap();
    let name = costs.get(path[1]).unwrap();

    // TC caps the name step's output at 1 (case 5), out of thousands in.
    assert_eq!(name.output, 1);
    assert!(name.input > 100);

    // The following-sibling step (up/lateral, Table I) is bounded by its
    // input: at most one tuple flows on.
    assert_eq!(sib.input, 1);
    assert_eq!(sib.output, 1);

    // δ of the name step is (near) zero — it ranks among the most
    // selective operators of L(P) (tied with its literal/β children,
    // which share the TC-capped output).
    assert!(name.selectivity() < 0.01);
    let rank = costs
        .ordered
        .iter()
        .position(|(id, _)| *id == path[1])
        .unwrap();
    assert!(rank <= 3, "name step ranked {rank} in L(P)");
}

#[test]
fn scope_controls_count_granularity() {
    // §I.A: costs "over the entire database ... or specific to a
    // particular XML document or even a specific point within one".
    let mut s = MassStore::open_memory();
    s.load_xml("a", "<site><person><name>A</name></person></site>")
        .unwrap();
    s.load_xml("b", &generate_string(&XmarkConfig::with_scale(0.005)))
        .unwrap();

    let name = s.name_id("name").unwrap();
    let whole_db = s.count_elements_in(name, &KeyRange::all());
    let doc_a = s.count_elements_in(name, &KeyRange::subtree(&s.documents()[0].doc_key));
    let doc_b = s.count_elements_in(name, &KeyRange::subtree(&s.documents()[1].doc_key));
    assert_eq!(doc_a, 1);
    assert_eq!(whole_db, doc_a + doc_b);

    // A specific point: one person's subtree within document b.
    let person = s.name_id("person").unwrap();
    let some_person = vamana::flex::FlexKey::from_flat_slice(
        s.name_index().elements(person).iter().nth(1).unwrap(),
    );
    let point = s.count_elements_in(name, &KeyRange::subtree(&some_person));
    assert!(point >= 1 && point < doc_b);
}
