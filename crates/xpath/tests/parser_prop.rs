//! Property tests for the XPath front end: the parser must never panic,
//! and pretty-printed location paths must re-parse to the same AST.

use proptest::prelude::*;
use vamana_flex::Axis;
use vamana_xpath::{ast, parse, Expr, LocationPath, NodeTest, Step};

proptest! {
    /// Arbitrary input never panics — it parses or errors.
    #[test]
    fn parser_total_on_arbitrary_strings(input in ".{0,60}") {
        let _ = parse(&input);
    }

    /// Arbitrary ASCII-ish operator soup never panics either.
    #[test]
    fn parser_total_on_operator_soup(input in "[a-z@/\\[\\]()*.:'|=<>! 0-9-]{0,40}") {
        let _ = parse(&input);
    }
}

fn axis_strategy() -> impl Strategy<Value = Axis> {
    (0..Axis::ALL.len()).prop_map(|i| Axis::ALL[i])
}

fn test_strategy() -> impl Strategy<Value = NodeTest> {
    prop_oneof![
        "[a-z][a-z0-9]{0,6}".prop_map(|s| NodeTest::Name(s.into())),
        Just(NodeTest::Wildcard),
        Just(NodeTest::Text),
        Just(NodeTest::Node),
        Just(NodeTest::Comment),
        Just(NodeTest::Pi(None)),
    ]
}

fn pred_strategy() -> impl Strategy<Value = Expr> {
    prop_oneof![
        (1u32..20).prop_map(|n| Expr::Number(n as f64)),
        "[a-z]{1,5}".prop_map(|s| Expr::Path(LocationPath {
            absolute: false,
            steps: vec![Step::new(Axis::Child, NodeTest::Name(s.into()))],
        })),
        ("[a-z]{1,5}", "[A-Za-z ]{0,8}").prop_map(|(n, v)| Expr::Equality(
            ast::EqOp::Eq,
            Box::new(Expr::Path(LocationPath {
                absolute: false,
                steps: vec![Step::new(Axis::Child, NodeTest::Name(n.into()))],
            })),
            Box::new(Expr::Literal(v.into())),
        )),
    ]
}

fn path_strategy() -> impl Strategy<Value = LocationPath> {
    (
        any::<bool>(),
        proptest::collection::vec(
            (
                axis_strategy(),
                test_strategy(),
                proptest::collection::vec(pred_strategy(), 0..2),
            ),
            1..5,
        ),
    )
        .prop_map(|(absolute, steps)| LocationPath {
            absolute,
            steps: steps
                .into_iter()
                .map(|(axis, test, predicates)| Step {
                    axis,
                    test,
                    predicates,
                })
                .collect(),
        })
}

proptest! {
    /// Display → parse is the identity on location paths.
    #[test]
    fn display_reparses_to_same_ast(path in path_strategy()) {
        let printed = path.to_string();
        let reparsed = parse(&printed)
            .unwrap_or_else(|e| panic!("own output failed to parse: `{printed}`: {e}"));
        prop_assert_eq!(reparsed, Expr::Path(path), "printed as `{}`", printed);
    }
}

// ---- shape keys --------------------------------------------------------
//
// A query's shape key is its token stream with every string literal
// replaced by one slot; plans are bound by that key, so two texts that
// share a key must mean the same query up to their literals.

/// Random multi-byte text: one, two, three and four byte characters in
/// equal shares, quotes, brackets and operators among them.
fn utf8_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u32>(), 0..48).prop_map(|draws| {
        draws
            .into_iter()
            .map(|d| {
                let c = match d % 5 {
                    0 => (d >> 3) % 0x80,
                    1 => 0x80 + (d >> 3) % 0x780,
                    2 => 0x800 + (d >> 3) % 0xF800,
                    3 => 0x10000 + (d >> 3) % 0x100000,
                    _ => "'\"[]()/@=!<>|*.:$-"
                        .chars()
                        .nth((d >> 3) as usize % 18)
                        .unwrap() as u32,
                };
                char::from_u32(c).unwrap_or('\u{FFFD}')
            })
            .collect()
    })
}

proptest! {
    /// `lexer::shape` returns on any input and never panics.
    #[test]
    fn shape_total_on_arbitrary_strings(input in ".{0,60}") {
        let _ = vamana_xpath::lexer::shape(&input);
    }

    #[test]
    fn shape_total_on_multibyte_strings(input in utf8_text()) {
        let _ = vamana_xpath::lexer::shape(&input);
    }
}

/// One step of a generated path: `//` or `/`, a name, and what carries
/// its literal — 0 nothing, 1 `[@n = L]`, 2 `[n = L]`, 3
/// `[contains(n, L)]`, 4 `[L != @n]`, 5 `[2]`, 6 the node test
/// `processing-instruction(L)`, 7 `[@n = L or n = L]` (two literals).
type ShapeStep = (bool, String, u8);

/// One literal as written: its value and whether it is double-quoted.
type Written = (String, bool);

fn shape_steps(names: &'static str, steps: usize) -> impl Strategy<Value = Vec<ShapeStep>> {
    proptest::collection::vec((any::<bool>(), names, 0u8..8), 1..steps)
}

/// Literal values full of what the key itself is made of: spaces,
/// brackets, slashes, `#`, the other quote, multi-byte characters.
fn written_literals() -> impl Strategy<Value = Vec<Written>> {
    proptest::collection::vec(
        (
            "[a-z0-9 /\\[\\]@=#'\"\u{e9}\u{4e2d}\u{1f600}]{0,6}",
            any::<bool>(),
        ),
        16,
    )
}

/// The text of `steps`, drawing literals from `literals` in order and
/// spacing tokens out when `spaced`. Each value starts with its index,
/// so no two literals of one text are equal.
fn shape_text(steps: &[ShapeStep], literals: &[Written], spaced: bool) -> String {
    let mut next = literals.iter().enumerate();
    let mut literal = || {
        let (i, (value, double)) = next.next().expect("enough literals");
        let quote = if *double { '"' } else { '\'' };
        let value: String = value.chars().filter(|&c| c != quote).collect();
        format!("{quote}{i}{value}{quote}")
    };
    let sp = if spaced { " " } else { "" };
    let mut text = String::new();
    for (descendant, name, kind) in steps {
        text.push_str(if *descendant { "//" } else { "/" });
        match kind {
            6 => text.push_str(&format!("processing-instruction({sp}{}{sp})", literal())),
            _ => text.push_str(name),
        }
        let predicate = match kind {
            1 => format!("@{name}{sp}={sp}{}", literal()),
            2 => format!("{name}{sp}={sp}{}", literal()),
            3 => format!("contains({name},{sp}{})", literal()),
            4 => format!("{}{sp}!={sp}@{name}", literal()),
            5 => "2".to_string(),
            7 => format!("@{name}={} or {name}{sp}={sp}{}", literal(), literal()),
            _ => continue,
        };
        text.push_str(&format!("[{sp}{predicate}{sp}]"));
    }
    text
}

/// `expr` with each string literal replaced by its slot in `literals`.
fn slotted(expr: Expr, literals: &[Box<str>]) -> Expr {
    let slot = |value: &str| -> Box<str> {
        let i = literals
            .iter()
            .position(|l| &**l == value)
            .unwrap_or_else(|| panic!("literal {value:?} has no slot in {literals:?}"));
        format!("slot {i}").into()
    };
    let path = |path: LocationPath| LocationPath {
        absolute: path.absolute,
        steps: path
            .steps
            .into_iter()
            .map(|step| Step {
                axis: step.axis,
                test: match step.test {
                    NodeTest::Pi(Some(target)) => NodeTest::Pi(Some(slot(&target))),
                    test => test,
                },
                predicates: step
                    .predicates
                    .into_iter()
                    .map(|p| slotted(p, literals))
                    .collect(),
            })
            .collect(),
    };
    let sub = |e: Box<Expr>| Box::new(slotted(*e, literals));
    match expr {
        Expr::Literal(value) => Expr::Literal(slot(&value)),
        Expr::Path(p) => Expr::Path(path(p)),
        Expr::Filter {
            primary,
            predicates,
            path: rest,
        } => Expr::Filter {
            primary: sub(primary),
            predicates: predicates
                .into_iter()
                .map(|p| slotted(p, literals))
                .collect(),
            path: rest.map(path),
        },
        Expr::Or(a, b) => Expr::Or(sub(a), sub(b)),
        Expr::And(a, b) => Expr::And(sub(a), sub(b)),
        Expr::Equality(op, a, b) => Expr::Equality(op, sub(a), sub(b)),
        Expr::Relational(op, a, b) => Expr::Relational(op, sub(a), sub(b)),
        Expr::Arithmetic(op, a, b) => Expr::Arithmetic(op, sub(a), sub(b)),
        Expr::Union(a, b) => Expr::Union(sub(a), sub(b)),
        Expr::Neg(a) => Expr::Neg(sub(a)),
        Expr::FunctionCall(name, args) => Expr::FunctionCall(
            name,
            args.into_iter().map(|a| slotted(a, literals)).collect(),
        ),
        leaf @ (Expr::Number(_) | Expr::Var(_)) => leaf,
    }
}

/// Checks the key's promise on two texts: equal keys, equal trees once
/// every literal is its slot.
fn check_shared_key(a: &str, b: &str) -> Result<(), String> {
    use vamana_xpath::lexer::shape;
    let (sa, sb) = (shape(a).unwrap(), shape(b).unwrap());
    if sa.key != sb.key {
        return Ok(());
    }
    let ta = parse(a).unwrap_or_else(|e| panic!("`{a}`: {e}"));
    let tb = parse(b).unwrap_or_else(|e| panic!("`{b}`: {e}"));
    prop_assert_eq!(
        slotted(ta, &sa.literals),
        slotted(tb, &sb.literals),
        "`{}` and `{}` share the key {:?}",
        a,
        b,
        sa.key
    );
    Ok(())
}

proptest! {
    /// One path written twice — other literals, other quotes, other
    /// spacing — has one key, and its two trees differ only in literals.
    #[test]
    fn texts_of_one_shape_share_a_key_and_a_tree(
        steps in shape_steps("[a-z]{1,4}", 5),
        a in written_literals(),
        b in written_literals(),
        spaced_a in any::<bool>(),
        spaced_b in any::<bool>(),
    ) {
        use vamana_xpath::lexer::shape;
        let (ta, tb) = (shape_text(&steps, &a, spaced_a), shape_text(&steps, &b, spaced_b));
        prop_assert_eq!(shape(&ta).unwrap().key, shape(&tb).unwrap().key, "`{}` vs `{}`", ta, tb);
        check_shared_key(&ta, &tb)?;
    }

    /// Two paths drawn independently from a small alphabet, so that keys
    /// meet often: whenever they do, the trees agree up to literals.
    #[test]
    fn independent_texts_with_one_key_parse_alike(
        steps_a in shape_steps("[ab]", 3),
        steps_b in shape_steps("[ab]", 3),
        a in written_literals(),
        b in written_literals(),
        spaced_a in any::<bool>(),
        spaced_b in any::<bool>(),
    ) {
        check_shared_key(&shape_text(&steps_a, &a, spaced_a), &shape_text(&steps_b, &b, spaced_b))?;
    }
}
