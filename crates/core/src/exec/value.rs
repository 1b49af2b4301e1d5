//! The XPath 1.0 value model: node-sets, strings, numbers, booleans,
//! with the spec's coercion and comparison rules, plus the core function
//! library.

use crate::error::{EngineError, Result};
use crate::plan::BinOp;
use vamana_mass::{MassStore, NodeEntry, RecordKind};

/// A computed XPath value.
#[derive(Debug, Clone)]
pub enum Value {
    /// A node-set in document order.
    Nodes(Vec<NodeEntry>),
    /// A string.
    Str(String),
    /// A number.
    Num(f64),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// `boolean()` coercion.
    pub fn boolean(&self) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Str(s) => !s.is_empty(),
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Bool(b) => *b,
        }
    }

    /// `string()` coercion (node-set → string-value of its first node).
    pub fn string(&self, store: &MassStore) -> Result<String> {
        Ok(match self {
            Value::Nodes(ns) => match ns.first() {
                Some(n) => node_string_value(store, n)?,
                None => String::new(),
            },
            Value::Str(s) => s.clone(),
            Value::Num(n) => format_number(*n),
            Value::Bool(b) => b.to_string(),
        })
    }

    /// `number()` coercion.
    pub fn number(&self, store: &MassStore) -> Result<f64> {
        Ok(match self {
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            Value::Num(n) => *n,
            other => str_to_number(&other.string(store)?),
        })
    }
}

/// The XPath string-value of a node.
pub fn node_string_value(store: &MassStore, node: &NodeEntry) -> Result<String> {
    Ok(store.string_value(&node.key)?)
}

/// The expanded name of a node (`name()`), empty for unnamed kinds.
pub fn node_name(store: &MassStore, node: &NodeEntry) -> String {
    node.name
        .map(|id| store.names().resolve(id).to_string())
        .unwrap_or_default()
}

/// XPath `string(number)` formatting: integers print without a decimal
/// point.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 {
            "Infinity".to_string()
        } else {
            "-Infinity".to_string()
        }
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// XPath `number(string)`: trims whitespace, `NaN` on failure.
pub fn str_to_number(s: &str) -> f64 {
    s.trim().parse::<f64>().unwrap_or(f64::NAN)
}

fn cmp_numbers(op: BinOp, a: f64, b: f64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        BinOp::And | BinOp::Or => unreachable!("boolean connectors are not comparisons"),
    }
}

/// XPath 1.0 §3.4 comparison between two values.
pub fn compare(store: &MassStore, op: BinOp, left: &Value, right: &Value) -> Result<bool> {
    debug_assert!(!matches!(op, BinOp::And | BinOp::Or));
    let relational = matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge);
    match (left, right) {
        (Value::Nodes(ls), Value::Nodes(rs)) => {
            // Existentially quantified over both sides.
            for l in ls {
                let lv = node_string_value(store, l)?;
                for r in rs {
                    let rv = node_string_value(store, r)?;
                    let hit = if relational {
                        cmp_numbers(op, str_to_number(&lv), str_to_number(&rv))
                    } else {
                        cmp_numbers(op, 0.0, if lv == rv { 0.0 } else { 1.0 })
                    };
                    if hit {
                        return Ok(true);
                    }
                }
            }
            Ok(false)
        }
        (Value::Nodes(ns), other) | (other, Value::Nodes(ns)) => {
            let flipped = !matches!(left, Value::Nodes(_));
            let eff_op = if flipped { flip(op) } else { op };
            match other {
                Value::Bool(b) => {
                    let l = !ns.is_empty();
                    Ok(cmp_numbers(
                        eff_op,
                        if l { 1.0 } else { 0.0 },
                        if *b { 1.0 } else { 0.0 },
                    ))
                }
                Value::Num(n) => {
                    for node in ns {
                        let v = str_to_number(&node_string_value(store, node)?);
                        if cmp_numbers(eff_op, v, *n) {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
                Value::Str(s) => {
                    for node in ns {
                        let v = node_string_value(store, node)?;
                        let hit = if relational {
                            cmp_numbers(eff_op, str_to_number(&v), str_to_number(s))
                        } else {
                            let eq = v == *s;
                            matches!(eff_op, BinOp::Eq) == eq
                        };
                        if hit {
                            return Ok(true);
                        }
                    }
                    Ok(false)
                }
                Value::Nodes(_) => unreachable!("handled above"),
            }
        }
        (l, r) => {
            if relational || matches!(l, Value::Num(_)) || matches!(r, Value::Num(_)) {
                if matches!(l, Value::Bool(_)) || matches!(r, Value::Bool(_)) {
                    if relational {
                        return Ok(cmp_numbers(op, l.number(store)?, r.number(store)?));
                    }
                    return Ok(matches!(op, BinOp::Eq) == (l.boolean() == r.boolean()));
                }
                Ok(cmp_numbers(op, l.number(store)?, r.number(store)?))
            } else if matches!(l, Value::Bool(_)) || matches!(r, Value::Bool(_)) {
                Ok(matches!(op, BinOp::Eq) == (l.boolean() == r.boolean()))
            } else {
                let eq = l.string(store)? == r.string(store)?;
                Ok(matches!(op, BinOp::Eq) == eq)
            }
        }
    }
}

fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Dispatches an XPath core-library function.
///
/// `position`/`size` are the dynamic context; `ctx` is the context node.
#[allow(clippy::too_many_arguments)]
pub fn call_function(
    store: &MassStore,
    name: &str,
    args: &[Value],
    ctx: &NodeEntry,
    position: usize,
    size: usize,
) -> Result<Value> {
    let arity = |n: usize| -> Result<()> {
        if args.len() == n {
            Ok(())
        } else {
            Err(EngineError::BadFunctionCall {
                name: name.to_string(),
                reason: format!("expected {n} argument(s), got {}", args.len()),
            })
        }
    };
    let arg_or_ctx_string = |args: &[Value]| -> Result<String> {
        match args.first() {
            Some(v) => v.string(store),
            None => node_string_value(store, ctx),
        }
    };
    Ok(match name {
        "position" => {
            arity(0)?;
            Value::Num(position as f64)
        }
        "last" => {
            arity(0)?;
            Value::Num(size as f64)
        }
        "count" => {
            arity(1)?;
            match &args[0] {
                Value::Nodes(ns) => Value::Num(ns.len() as f64),
                _ => {
                    return Err(EngineError::BadFunctionCall {
                        name: "count".into(),
                        reason: "argument must be a node-set".into(),
                    })
                }
            }
        }
        "not" => {
            arity(1)?;
            Value::Bool(!args[0].boolean())
        }
        "true" => {
            arity(0)?;
            Value::Bool(true)
        }
        "false" => {
            arity(0)?;
            Value::Bool(false)
        }
        "boolean" => {
            arity(1)?;
            Value::Bool(args[0].boolean())
        }
        "string" => Value::Str(arg_or_ctx_string(args)?),
        "number" => match args.first() {
            Some(v) => Value::Num(v.number(store)?),
            None => Value::Num(str_to_number(&node_string_value(store, ctx)?)),
        },
        "concat" => {
            if args.len() < 2 {
                return Err(EngineError::BadFunctionCall {
                    name: "concat".into(),
                    reason: "needs at least two arguments".into(),
                });
            }
            let mut out = String::new();
            for a in args {
                out.push_str(&a.string(store)?);
            }
            Value::Str(out)
        }
        "contains" => {
            arity(2)?;
            Value::Bool(args[0].string(store)?.contains(&args[1].string(store)?))
        }
        "starts-with" => {
            arity(2)?;
            Value::Bool(args[0].string(store)?.starts_with(&args[1].string(store)?))
        }
        "string-length" => Value::Num(arg_or_ctx_string(args)?.chars().count() as f64),
        "normalize-space" => {
            let s = arg_or_ctx_string(args)?;
            Value::Str(s.split_whitespace().collect::<Vec<_>>().join(" "))
        }
        "substring" => {
            if args.len() < 2 || args.len() > 3 {
                return Err(EngineError::BadFunctionCall {
                    name: "substring".into(),
                    reason: "takes two or three arguments".into(),
                });
            }
            let s = args[0].string(store)?;
            let start = args[1].number(store)?.round();
            let len = match args.get(2) {
                Some(v) => v.number(store)?.round(),
                None => f64::INFINITY,
            };
            let chars: Vec<char> = s.chars().collect();
            let mut out = String::new();
            for (i, c) in chars.iter().enumerate() {
                let pos = (i + 1) as f64;
                if pos >= start && pos < start + len {
                    out.push(*c);
                }
            }
            Value::Str(out)
        }
        "substring-before" => {
            arity(2)?;
            let s = args[0].string(store)?;
            let pat = args[1].string(store)?;
            Value::Str(s.find(&pat).map(|i| s[..i].to_string()).unwrap_or_default())
        }
        "substring-after" => {
            arity(2)?;
            let s = args[0].string(store)?;
            let pat = args[1].string(store)?;
            Value::Str(
                s.find(&pat)
                    .map(|i| s[i + pat.len()..].to_string())
                    .unwrap_or_default(),
            )
        }
        "name" | "local-name" => match args.first() {
            Some(Value::Nodes(ns)) => {
                let full = ns.first().map(|n| node_name(store, n)).unwrap_or_default();
                Value::Str(strip_prefix_if(name == "local-name", full))
            }
            None => Value::Str(strip_prefix_if(name == "local-name", node_name(store, ctx))),
            Some(_) => {
                return Err(EngineError::BadFunctionCall {
                    name: name.to_string(),
                    reason: "argument must be a node-set".into(),
                })
            }
        },
        "sum" => {
            arity(1)?;
            match &args[0] {
                Value::Nodes(ns) => {
                    let mut total = 0.0;
                    for n in ns {
                        total += str_to_number(&node_string_value(store, n)?);
                    }
                    Value::Num(total)
                }
                _ => {
                    return Err(EngineError::BadFunctionCall {
                        name: "sum".into(),
                        reason: "argument must be a node-set".into(),
                    })
                }
            }
        }
        "floor" => {
            arity(1)?;
            Value::Num(args[0].number(store)?.floor())
        }
        "ceiling" => {
            arity(1)?;
            Value::Num(args[0].number(store)?.ceil())
        }
        "round" => {
            arity(1)?;
            Value::Num(args[0].number(store)?.round())
        }
        other => return Err(EngineError::Unsupported(format!("function {other}()"))),
    })
}

fn strip_prefix_if(strip: bool, name: String) -> String {
    if strip {
        name.rsplit(':').next().unwrap_or("").to_string()
    } else {
        name
    }
}

/// True if `node` is a text node (used by value-step kind filters).
pub fn is_text(node: &NodeEntry) -> bool {
    node.kind == RecordKind::Text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> MassStore {
        let mut s = MassStore::open_memory();
        s.load_xml("t", "<r><a>12</a><b>hello</b><a>3</a></r>")
            .unwrap();
        s
    }

    fn nodes_named(s: &MassStore, name: &str) -> Vec<NodeEntry> {
        let id = s.name_id(name).unwrap();
        s.name_index()
            .elements(id)
            .iter()
            .map(|k| NodeEntry {
                key: vamana_flex::FlexKey::from_flat_slice(k),
                kind: RecordKind::Element,
                name: Some(id),
            })
            .collect()
    }

    #[test]
    fn boolean_coercions() {
        assert!(!Value::Str(String::new()).boolean());
        assert!(Value::Str("x".into()).boolean());
        assert!(!Value::Num(0.0).boolean());
        assert!(!Value::Num(f64::NAN).boolean());
        assert!(Value::Num(-1.0).boolean());
        assert!(!Value::Nodes(vec![]).boolean());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(3.5), "3.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(-0.0), "0");
    }

    #[test]
    fn string_to_number() {
        assert_eq!(str_to_number(" 42 "), 42.0);
        assert!(str_to_number("abc").is_nan());
    }

    #[test]
    fn nodeset_vs_string_equality() {
        let s = store();
        let a = Value::Nodes(nodes_named(&s, "a"));
        assert!(compare(&s, BinOp::Eq, &a, &Value::Str("12".into())).unwrap());
        assert!(compare(&s, BinOp::Eq, &a, &Value::Str("3".into())).unwrap());
        assert!(!compare(&s, BinOp::Eq, &a, &Value::Str("99".into())).unwrap());
        // != is also existential: some a != "12" (namely "3").
        assert!(compare(&s, BinOp::Ne, &a, &Value::Str("12".into())).unwrap());
    }

    #[test]
    fn nodeset_vs_number_relational() {
        let s = store();
        let a = Value::Nodes(nodes_named(&s, "a"));
        assert!(compare(&s, BinOp::Gt, &a, &Value::Num(10.0)).unwrap()); // 12 > 10
        assert!(compare(&s, BinOp::Lt, &a, &Value::Num(10.0)).unwrap()); // 3 < 10
        assert!(!compare(&s, BinOp::Gt, &a, &Value::Num(100.0)).unwrap());
        // Flipped operand order flips the operator.
        assert!(compare(&s, BinOp::Lt, &Value::Num(10.0), &a).unwrap()); // 10 < 12
    }

    #[test]
    fn nodeset_vs_nodeset_equality() {
        let s = store();
        let a = Value::Nodes(nodes_named(&s, "a"));
        let b = Value::Nodes(nodes_named(&s, "b"));
        assert!(!compare(&s, BinOp::Eq, &a, &b).unwrap());
        assert!(compare(&s, BinOp::Eq, &a, &a).unwrap());
    }

    #[test]
    fn scalar_comparisons() {
        let s = store();
        assert!(compare(
            &s,
            BinOp::Eq,
            &Value::Str("x".into()),
            &Value::Str("x".into())
        )
        .unwrap());
        assert!(compare(&s, BinOp::Lt, &Value::Num(1.0), &Value::Num(2.0)).unwrap());
        // String compared to number coerces to number.
        assert!(compare(&s, BinOp::Eq, &Value::Str("2".into()), &Value::Num(2.0)).unwrap());
        // Booleans dominate equality.
        assert!(compare(&s, BinOp::Eq, &Value::Bool(true), &Value::Str("x".into())).unwrap());
    }

    #[test]
    fn core_functions() {
        let s = store();
        let ctx = nodes_named(&s, "b").remove(0);
        let call = |name: &str, args: Vec<Value>| call_function(&s, name, &args, &ctx, 2, 5);
        assert!(matches!(call("position", vec![]).unwrap(), Value::Num(n) if n == 2.0));
        assert!(matches!(call("last", vec![]).unwrap(), Value::Num(n) if n == 5.0));
        assert!(
            matches!(call("count", vec![Value::Nodes(nodes_named(&s, "a"))]).unwrap(), Value::Num(n) if n == 2.0)
        );
        assert!(matches!(
            call("not", vec![Value::Bool(false)]).unwrap(),
            Value::Bool(true)
        ));
        assert!(matches!(
            call(
                "contains",
                vec![Value::Str("hello".into()), Value::Str("ell".into())]
            )
            .unwrap(),
            Value::Bool(true)
        ));
        assert!(matches!(
            call(
                "starts-with",
                vec![Value::Str("hello".into()), Value::Str("he".into())]
            )
            .unwrap(),
            Value::Bool(true)
        ));
        assert!(matches!(call("string-length", vec![]).unwrap(), Value::Num(n) if n == 5.0)); // "hello"
        assert!(
            matches!(call("sum", vec![Value::Nodes(nodes_named(&s, "a"))]).unwrap(), Value::Num(n) if n == 15.0)
        );
        assert!(matches!(call("name", vec![]).unwrap(), Value::Str(n) if n == "b"));
        assert!(matches!(call("floor", vec![Value::Num(2.7)]).unwrap(), Value::Num(n) if n == 2.0));
        assert!(
            matches!(call("normalize-space", vec![Value::Str("  a   b ".into())]).unwrap(), Value::Str(v) if v == "a b")
        );
        assert!(
            matches!(call("substring", vec![Value::Str("12345".into()), Value::Num(2.0), Value::Num(3.0)]).unwrap(), Value::Str(v) if v == "234")
        );
        assert!(
            matches!(call("substring-before", vec![Value::Str("a=b".into()), Value::Str("=".into())]).unwrap(), Value::Str(v) if v == "a")
        );
        assert!(
            matches!(call("substring-after", vec![Value::Str("a=b".into()), Value::Str("=".into())]).unwrap(), Value::Str(v) if v == "b")
        );
    }

    #[test]
    fn function_errors() {
        let s = store();
        let ctx = nodes_named(&s, "b").remove(0);
        assert!(call_function(&s, "count", &[], &ctx, 1, 1).is_err());
        assert!(call_function(&s, "count", &[Value::Num(1.0)], &ctx, 1, 1).is_err());
        assert!(call_function(&s, "frobnicate", &[], &ctx, 1, 1).is_err());
        assert!(call_function(&s, "concat", &[Value::Str("a".into())], &ctx, 1, 1).is_err());
    }
}
