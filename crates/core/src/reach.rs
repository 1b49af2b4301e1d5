//! Whether a write can change a query's answer: a static check over the
//! parsed query, sound by construction, that lets the query cache keep an
//! answer across every write the query cannot see ([`crate::views`],
//! "Validity").
//!
//! A write inserts or deletes whole subtrees, and its [`Footprint`] names
//! what they held. Every node outside it keeps its FLEX key, its value and
//! its relations to the other nodes outside. So along a path the check
//! carries two flags for the node-set each step outputs:
//!
//! - **F**: it may hold a node of the footprint;
//! - **C**: its part outside the footprint may differ.
//!
//! A step whose node test matches a footprint node sets F when its axis
//! reaches such a node from a context outside (downward or sideways) or
//! F was set. C, once set, stays. A step sets it when F was set and its
//! axis leads from a footprint node to nodes outside (upward or
//! sideways), and so does a predicate that may differ at a context
//! outside: one whose paths end with F or C set, a positional one over
//! candidates with F set, or — when the footprint holds text — one that
//! reads an element's string value. The answer may change iff F or C is
//! set after the last step. What the check does not model (a variable,
//! an unknown function, a deleted document node) may change.

use vamana_flex::Axis;
use vamana_mass::Footprint;
use vamana_xpath::{Expr, LocationPath, NodeTest, Step};

/// Whether the answer of `expr` may differ after a write of `footprint`.
pub(crate) fn sees(expr: &Expr, footprint: &Footprint) -> bool {
    if footprint.document {
        return true;
    }
    let out = Reach(footprint).set(expr, Flags::default());
    out.f || out.c
}

/// The two flags of a node-set (module docs).
#[derive(Debug, Clone, Copy, Default)]
struct Flags {
    f: bool,
    c: bool,
}

/// The flags of a node-set that may differ anywhere.
const CHANGED: Flags = Flags { f: false, c: true };

struct Reach<'a>(&'a Footprint);

impl Reach<'_> {
    /// The flags of node-set expression `expr` evaluated at contexts
    /// flagged `ctx`.
    fn set(&self, expr: &Expr, ctx: Flags) -> Flags {
        match expr {
            Expr::Path(path) => self.path(path, ctx),
            Expr::Union(a, b) => {
                let (a, b) = (self.set(a, ctx), self.set(b, ctx));
                Flags {
                    f: a.f || b.f,
                    c: a.c || b.c,
                }
            }
            Expr::Filter {
                primary,
                predicates,
                path,
            } => {
                let mut out = self.set(primary, ctx);
                for p in predicates {
                    out.c |= self.differs(p, out.f);
                }
                match path {
                    Some(path) => path.steps.iter().fold(out, |i, s| self.step(i, s)),
                    None => out,
                }
            }
            _ => CHANGED,
        }
    }

    fn path(&self, path: &LocationPath, ctx: Flags) -> Flags {
        let start = if path.absolute { Flags::default() } else { ctx };
        path.steps.iter().fold(start, |i, s| self.step(i, s))
    }

    fn step(&self, input: Flags, step: &Step) -> Flags {
        use Axis::*;
        let axis = step.axis;
        let reaches = matches!(
            axis,
            Child
                | Descendant
                | DescendantOrSelf
                | Following
                | FollowingSibling
                | Preceding
                | PrecedingSibling
                | Attribute
                | Namespace
        );
        let leaves = matches!(
            axis,
            Parent
                | Ancestor
                | AncestorOrSelf
                | Following
                | FollowingSibling
                | Preceding
                | PrecedingSibling
                | Namespace
        );
        let f = self.matches(axis, &step.test) && (reaches || input.f);
        // A namespace node is an `xmlns` attribute of the context or an
        // ancestor, the nearest declaration shadowing the rest: deleting
        // one can uncover another outside the footprint.
        let mut c =
            input.c || (input.f && leaves) || (axis == Namespace && !self.0.attributes.is_empty());
        for p in &step.predicates {
            c |= self.differs(p, f);
        }
        Flags { f, c }
    }

    /// Whether `test` on `axis` may match a node of the footprint. The
    /// attribute and namespace axes select attributes only; on any other
    /// a name is looked up among elements and attributes alike (`self`
    /// of an attribute is the attribute).
    fn matches(&self, axis: Axis, test: &NodeTest) -> bool {
        let fp = self.0;
        let attributes = !fp.attributes.is_empty();
        if matches!(axis, Axis::Attribute | Axis::Namespace) {
            return match test {
                NodeTest::Name(name) => fp.attributes.iter().any(|n| n == name),
                NodeTest::Wildcard | NodeTest::NsWildcard(_) | NodeTest::Node => attributes,
                NodeTest::Text | NodeTest::Comment | NodeTest::Pi(_) => false,
            };
        }
        match test {
            NodeTest::Name(name) => fp.elements.iter().chain(&fp.attributes).any(|n| n == name),
            NodeTest::Wildcard | NodeTest::NsWildcard(_) => !fp.elements.is_empty() || attributes,
            NodeTest::Node => !fp.is_empty(),
            NodeTest::Text => fp.text,
            NodeTest::Comment => fp.comment,
            NodeTest::Pi(_) => fp.pi,
        }
    }

    /// Whether predicate `p` may take another value at a context outside
    /// the footprint, among candidates that may hold footprint nodes when
    /// `f`.
    fn differs(&self, p: &Expr, f: bool) -> bool {
        (f && positional(p)) || self.value(p, false)
    }

    /// Whether the value of `e` at a context outside the footprint may
    /// differ; `read` when the string values of a node-set `e` are read.
    fn value(&self, e: &Expr, read: bool) -> bool {
        match e {
            Expr::Path(_) | Expr::Union(..) | Expr::Filter { .. } => {
                let out = self.set(e, Flags::default());
                out.f || out.c || (read && self.0.text && holds_elements(e))
            }
            Expr::Literal(_) | Expr::Number(_) => false,
            Expr::Var(_) => true,
            Expr::Or(a, b) | Expr::And(a, b) => self.value(a, false) || self.value(b, false),
            Expr::Equality(_, a, b) | Expr::Relational(_, a, b) | Expr::Arithmetic(_, a, b) => {
                self.value(a, true) || self.value(b, true)
            }
            Expr::Neg(a) => self.value(a, true),
            Expr::FunctionCall(name, args) => {
                let read = match &**name {
                    "position" | "last" | "true" | "false" | "count" | "not" | "boolean"
                    | "name" | "local-name" => false,
                    // Without an argument, the context's own string value.
                    "string" | "number" | "string-length" | "normalize-space"
                        if args.is_empty() =>
                    {
                        return self.0.text
                    }
                    "string" | "number" | "string-length" | "normalize-space" | "concat"
                    | "contains" | "starts-with" | "substring" | "substring-before"
                    | "substring-after" | "sum" | "floor" | "ceiling" | "round" => true,
                    _ => return true,
                };
                args.iter().any(|a| self.value(a, read))
            }
        }
    }
}

/// Whether predicate `p` selects by position: it may be a number, or it
/// asks `position()` or `last()` of its own context.
fn positional(p: &Expr) -> bool {
    let numeric = match p {
        Expr::Number(_) | Expr::Arithmetic(..) | Expr::Neg(_) | Expr::Var(_) => true,
        Expr::FunctionCall(name, _) => matches!(
            &**name,
            "count" | "sum" | "number" | "string-length" | "floor" | "ceiling" | "round"
        ),
        _ => false,
    };
    numeric || asks_position(p)
}

/// Whether `e` calls `position()` or `last()` outside a node-set's own
/// predicates, which have contexts of their own.
fn asks_position(e: &Expr) -> bool {
    match e {
        Expr::FunctionCall(name, args) => {
            matches!(&**name, "position" | "last") || args.iter().any(asks_position)
        }
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Equality(_, a, b)
        | Expr::Relational(_, a, b)
        | Expr::Arithmetic(_, a, b) => asks_position(a) || asks_position(b),
        Expr::Neg(a) => asks_position(a),
        _ => false,
    }
}

/// Whether node-set `e` may hold a node whose string value is the text
/// below it: anything but attributes, namespaces, text, comments and
/// processing instructions, whose own values no write outside them
/// changes.
fn holds_elements(e: &Expr) -> bool {
    let last = |path: &LocationPath| {
        path.steps.last().is_none_or(|s| {
            !matches!(s.axis, Axis::Attribute | Axis::Namespace)
                && !matches!(s.test, NodeTest::Text | NodeTest::Comment | NodeTest::Pi(_))
        })
    };
    match e {
        Expr::Path(path) => last(path),
        Expr::Union(a, b) => holds_elements(a) || holds_elements(b),
        Expr::Filter {
            primary,
            path: None,
            ..
        } => holds_elements(primary),
        Expr::Filter {
            path: Some(path), ..
        } => last(path),
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A write of elements `names` (`@` before an attribute's), with text
    /// when `text`.
    fn write(names: &[&str], text: bool) -> Footprint {
        let mut fp = Footprint {
            text,
            ..Footprint::default()
        };
        for name in names {
            match name.strip_prefix('@') {
                Some(attr) => fp.attributes.push(attr.into()),
                None => fp.elements.push((*name).into()),
            }
        }
        fp
    }

    fn sees_text(xpath: &str, fp: &Footprint) -> bool {
        sees(&vamana_xpath::parse(xpath).unwrap(), fp)
    }

    /// Each query with a write it sees and one it cannot.
    #[test]
    fn verdicts_both_ways() {
        let e = write(&["e"], false);
        let note = write(&["trajnote", "@seq"], false);
        let text = write(&["i"], true);
        let comment = Footprint {
            comment: true,
            ..Footprint::default()
        };
        #[rustfmt::skip]
        let table: &[(&str, &Footprint, bool)] = &[
            ("//*", &e, true),
            ("//*", &comment, false),
            ("//node()", &comment, true),
            ("//node()", &Footprint::default(), false),
            ("//comment()", &comment, true),
            ("//text()", &comment, false),
            ("//e", &e, true),
            ("//person/name", &e, false),
            ("//a/parent::*", &write(&["a"], false), true),
            ("//a/parent::*", &e, false),
            ("//a/ancestor::*", &write(&["a"], false), true),
            ("//a/following-sibling::*[1]", &e, true),
            ("//a/following-sibling::b[1]", &e, false),
            ("//a/following-sibling::b", &write(&["b"], false), true),
            ("//a[last()]", &e, false),
            ("//*[last()]", &e, true),
            ("//a/*[position() = 2]", &e, true),
            ("//a/b[2]", &e, false),
            ("//a[. = 'x']", &text, true),
            ("//a[. = 'x']", &e, false),
            ("//a[string-length() > 2]", &text, true),
            ("//a[@k = 'x']", &text, false),
            ("//a[@k = 'x']", &write(&["@k"], false), true),
            ("//a[text() = 'x']", &text, true),
            ("//a[b = 'x']", &text, true),
            ("//a[b]", &text, false),
            ("//a[count(//e) > 0]", &e, true),
            ("//a[count(//e) > 0]", &write(&["f"], true), false),
            ("//person[@id='person7']/name", &note, false),
            ("//person[@id='person7']/name", &write(&["name"], false), true),
            ("//person[@id='person7']/name", &write(&["@id"], false), true),
            ("//person/address", &note, false),
            ("//watches/watch/ancestor::person", &note, false),
            ("/descendant::name/parent::*/self::person/address", &note, false),
            ("//itemref/following-sibling::price/parent::*", &note, false),
            ("//province[text()='Vermont']/ancestor::person", &note, false),
            ("//trajnote/parent::person", &note, true),
            ("//a | //e", &e, true),
            ("(//a)[1]", &e, false),
            ("(//e)[1]", &e, true),
            ("//a[$v]", &e, true),
            ("//a[lang('en')]", &e, true),
            ("//a/namespace::*", &write(&["@xmlns:p"], false), true),
            ("//a/namespace::*", &e, false),
            ("count(//a)", &e, true),
        ];
        for &(xpath, fp, want) in table {
            assert_eq!(sees_text(xpath, fp), want, "{xpath} with {fp:?}");
        }
        // A deleted document node changes everything.
        let document = Footprint {
            document: true,
            ..Footprint::default()
        };
        assert!(sees_text("//a", &document));
    }
}
