//! DOM tree-traversal XPath engine (Jaxen / Galax class).
//!
//! The document is fully materialized in memory (the scalability
//! limitation the paper attributes to this engine class) and every
//! location step is evaluated by navigating the tree — no indexes, no
//! statistics, no plan rewriting. The evaluator is nonetheless complete
//! and careful about XPath semantics (document order, per-context
//! positions, reverse axes), because it doubles as the *oracle* for the
//! correctness tests of the optimized VAMANA engine.

use crate::{BaselineError, NodeIdentity, XPathEngine};
use vamana_flex::Axis;
use vamana_xml::{Document, NodeId, NodeKind};
use vamana_xpath::{ast, Expr, LocationPath, NodeTest, Step};

/// Engine profile: which real-world engine's feature gaps to mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomProfile {
    /// Jaxen: full axis support.
    Jaxen,
    /// Galax: the paper reports `following-sibling`/`preceding-sibling`
    /// as unsupported.
    Galax,
}

/// The DOM engine.
pub struct DomEngine {
    doc: Document,
    profile: DomProfile,
    /// Document-order index per arena id (attributes included, right
    /// after their element).
    order: Vec<u32>,
    /// Exclusive end of each node's subtree in document order.
    subtree_end: Vec<u32>,
    /// All node ids in document order.
    doc_order: Vec<NodeId>,
}

/// An XPath value in the DOM engine.
#[derive(Debug, Clone)]
enum DomValue {
    Nodes(Vec<NodeId>),
    Str(String),
    Num(f64),
    Bool(bool),
}

type Result<T> = std::result::Result<T, BaselineError>;

impl DomEngine {
    /// Wraps a parsed document with the full-featured (Jaxen) profile.
    pub fn new(doc: Document) -> Self {
        Self::with_profile(doc, DomProfile::Jaxen)
    }

    /// Wraps a parsed document with an explicit profile.
    pub fn with_profile(doc: Document, profile: DomProfile) -> Self {
        let mut order = vec![0u32; doc.len()];
        let mut subtree_end = vec![0u32; doc.len()];
        let mut doc_order = Vec::with_capacity(doc.len());
        let mut counter = 0u32;
        // Iterative pre-order walk assigning order and subtree extents.
        enum Frame {
            Enter(NodeId),
            Leave(NodeId),
        }
        let mut stack = vec![Frame::Enter(Document::ROOT)];
        while let Some(frame) = stack.pop() {
            match frame {
                Frame::Enter(id) => {
                    order[id.index()] = counter;
                    doc_order.push(id);
                    counter += 1;
                    // Attributes come right after the element itself.
                    for attr in doc.attributes(id) {
                        order[attr.index()] = counter;
                        subtree_end[attr.index()] = counter + 1;
                        doc_order.push(attr);
                        counter += 1;
                    }
                    stack.push(Frame::Leave(id));
                    let kids: Vec<_> = doc.children(id).collect();
                    for k in kids.into_iter().rev() {
                        stack.push(Frame::Enter(k));
                    }
                }
                Frame::Leave(id) => {
                    subtree_end[id.index()] = counter;
                }
            }
        }
        DomEngine {
            doc,
            profile,
            order,
            subtree_end,
            doc_order,
        }
    }

    /// Parses and wraps XML text.
    pub fn from_xml(xml: &str) -> Result<Self> {
        let doc = vamana_xml::parse(xml).map_err(|e| BaselineError::Parse(e.to_string()))?;
        Ok(Self::new(doc))
    }

    /// Parses and wraps XML text with a profile.
    pub fn from_xml_with_profile(xml: &str, profile: DomProfile) -> Result<Self> {
        let doc = vamana_xml::parse(xml).map_err(|e| BaselineError::Parse(e.to_string()))?;
        Ok(Self::with_profile(doc, profile))
    }

    /// The wrapped document.
    pub fn document(&self) -> &Document {
        &self.doc
    }

    /// Evaluates `xpath`, returning node ids in document order.
    pub fn eval(&self, xpath: &str) -> Result<Vec<NodeId>> {
        let expr = vamana_xpath::parse(xpath).map_err(|e| BaselineError::Parse(e.to_string()))?;
        match self.eval_expr(&expr, Document::ROOT, 1, 1)? {
            DomValue::Nodes(ns) => Ok(ns),
            _ => Err(BaselineError::Unsupported(
                "top-level scalar expression".into(),
            )),
        }
    }

    /// Evaluates `xpath` and coerces to a number (e.g. `count(//a)`).
    pub fn eval_number(&self, xpath: &str) -> Result<f64> {
        let expr = vamana_xpath::parse(xpath).map_err(|e| BaselineError::Parse(e.to_string()))?;
        let v = self.eval_expr(&expr, Document::ROOT, 1, 1)?;
        Ok(self.to_number(&v))
    }

    fn sort_dedup(&self, mut nodes: Vec<NodeId>) -> Vec<NodeId> {
        nodes.sort_by_key(|n| self.order[n.index()]);
        nodes.dedup();
        nodes
    }

    // ---- axes -----------------------------------------------------------

    fn axis_nodes(&self, n: NodeId, axis: Axis) -> Result<Vec<NodeId>> {
        if self.profile == DomProfile::Galax
            && matches!(axis, Axis::FollowingSibling | Axis::PrecedingSibling)
        {
            return Err(BaselineError::Unsupported(format!(
                "Galax profile does not support the {axis} axis"
            )));
        }
        let is_attr = self.doc.kind(n).is_attribute();
        Ok(match axis {
            Axis::SelfAxis => vec![n],
            Axis::Child => {
                if is_attr {
                    Vec::new()
                } else {
                    self.doc.children(n).collect()
                }
            }
            Axis::Descendant => {
                if is_attr {
                    Vec::new()
                } else {
                    self.doc.descendants(n).collect()
                }
            }
            Axis::DescendantOrSelf => {
                let mut v = vec![n];
                if !is_attr {
                    v.extend(self.doc.descendants(n));
                }
                v
            }
            Axis::Parent => self.doc.parent(n).into_iter().collect(),
            Axis::Ancestor | Axis::AncestorOrSelf => {
                let mut v = Vec::new();
                if axis == Axis::AncestorOrSelf {
                    v.push(n);
                }
                let mut cur = n;
                while let Some(p) = self.doc.parent(cur) {
                    v.push(p);
                    cur = p;
                }
                v.reverse(); // document order
                v
            }
            Axis::FollowingSibling => {
                if is_attr {
                    Vec::new()
                } else {
                    let mut v = Vec::new();
                    let mut cur = n;
                    while let Some(s) = self.doc.next_sibling(cur) {
                        v.push(s);
                        cur = s;
                    }
                    v
                }
            }
            Axis::PrecedingSibling => {
                if is_attr {
                    Vec::new()
                } else {
                    let mut v = Vec::new();
                    let mut cur = n;
                    while let Some(s) = self.doc.prev_sibling(cur) {
                        v.push(s);
                        cur = s;
                    }
                    v.reverse();
                    v
                }
            }
            Axis::Following => {
                let end = self.subtree_end[n.index()] as usize;
                self.doc_order[end..]
                    .iter()
                    .copied()
                    .filter(|m| !self.doc.kind(*m).is_attribute())
                    .collect()
            }
            Axis::Preceding => {
                let my_order = self.order[n.index()] as usize;
                self.doc_order[..my_order]
                    .iter()
                    .copied()
                    .filter(|m| {
                        !self.doc.kind(*m).is_attribute()
                            && self.subtree_end[m.index()] <= my_order as u32
                    })
                    .collect()
            }
            Axis::Attribute => {
                if is_attr {
                    Vec::new()
                } else {
                    self.doc.attributes(n).collect()
                }
            }
            Axis::Namespace => {
                // Synthesize from in-scope xmlns declarations.
                let mut seen = Vec::new();
                let mut out = Vec::new();
                let mut cur = Some(n);
                while let Some(c) = cur {
                    for a in self.doc.attributes(c) {
                        let name = self.doc.name(a).unwrap_or("");
                        if (name == "xmlns" || name.starts_with("xmlns:"))
                            && !seen.contains(&name.to_string())
                        {
                            seen.push(name.to_string());
                            out.push(a);
                        }
                    }
                    cur = self.doc.parent(c);
                }
                self.sort_dedup(out)
            }
        })
    }

    fn test_matches(&self, n: NodeId, axis: Axis, test: &NodeTest) -> bool {
        let kind = self.doc.kind(n);
        match test {
            NodeTest::Name(name) => {
                let principal = if axis == Axis::Attribute || axis == Axis::Namespace {
                    kind.is_attribute()
                } else {
                    kind.is_element()
                };
                principal && self.doc.name(n) == Some(&**name)
            }
            NodeTest::Wildcard => {
                if axis == Axis::Attribute || axis == Axis::Namespace {
                    kind.is_attribute()
                } else {
                    kind.is_element()
                }
            }
            NodeTest::NsWildcard(prefix) => {
                kind.is_element()
                    && self
                        .doc
                        .name(n)
                        .is_some_and(|name| name.starts_with(&format!("{prefix}:")))
            }
            NodeTest::Text => kind.is_text(),
            // XPath 1.0 §2.3: true for any node of any type whatsoever —
            // the root node included, or `//x` (which starts with
            // `/descendant-or-self::node()`) loses the root element.
            NodeTest::Node => true,
            NodeTest::Comment => matches!(kind, NodeKind::Comment { .. }),
            NodeTest::Pi(target) => match kind {
                NodeKind::ProcessingInstruction { target: t, .. } => {
                    target.as_ref().is_none_or(|want| **t == **want)
                }
                _ => false,
            },
        }
    }

    // ---- paths ----------------------------------------------------------

    fn eval_location_path(&self, path: &LocationPath, ctx: NodeId) -> Result<Vec<NodeId>> {
        let mut current: Vec<NodeId> = if path.absolute {
            vec![Document::ROOT]
        } else {
            vec![ctx]
        };
        for step in &path.steps {
            let mut next = Vec::new();
            for c in &current {
                next.extend(self.eval_step(step, *c)?);
            }
            current = self.sort_dedup(next);
        }
        Ok(current)
    }

    /// Evaluates one location step from a single context node: axis,
    /// node test, then predicates with per-group positions. Exposed so
    /// the `EXPLAIN ANALYZE` oracle tests can replay a path step by step
    /// *without* the between-step duplicate elimination
    /// [`eval`](DomEngine::eval) performs — matching what the pipelined
    /// executor's per-operator counters see.
    pub fn eval_step(&self, step: &Step, ctx: NodeId) -> Result<Vec<NodeId>> {
        let mut group: Vec<NodeId> = self
            .axis_nodes(ctx, step.axis)?
            .into_iter()
            .filter(|n| self.test_matches(*n, step.axis, &step.test))
            .collect();
        for pred in &step.predicates {
            group = self.apply_predicate(pred, group, step.axis.is_reverse())?;
        }
        Ok(group)
    }

    fn apply_predicate(
        &self,
        pred: &Expr,
        group: Vec<NodeId>,
        reverse: bool,
    ) -> Result<Vec<NodeId>> {
        let size = group.len();
        let mut out = Vec::with_capacity(size);
        for (i, n) in group.into_iter().enumerate() {
            let pos = if reverse { size - i } else { i + 1 };
            let v = self.eval_expr(pred, n, pos, size)?;
            let keep = match v {
                DomValue::Num(x) => pos as f64 == x,
                other => self.to_boolean(&other),
            };
            if keep {
                out.push(n);
            }
        }
        Ok(out)
    }

    // ---- expressions ------------------------------------------------------

    fn eval_expr(&self, expr: &Expr, ctx: NodeId, pos: usize, size: usize) -> Result<DomValue> {
        Ok(match expr {
            Expr::Path(p) => DomValue::Nodes(self.eval_location_path(p, ctx)?),
            Expr::Filter {
                primary,
                predicates,
                path,
            } => {
                let DomValue::Nodes(mut nodes) = self.eval_expr(primary, ctx, pos, size)? else {
                    return Err(BaselineError::Unsupported(
                        "filtering a non-node-set".into(),
                    ));
                };
                for p in predicates {
                    nodes = self.apply_predicate(p, nodes, false)?;
                }
                if let Some(rel) = path {
                    let mut out = Vec::new();
                    for n in nodes {
                        out.extend(self.eval_location_path(rel, n)?);
                    }
                    nodes = self.sort_dedup(out);
                }
                DomValue::Nodes(nodes)
            }
            Expr::Or(a, b) => DomValue::Bool(
                self.to_boolean(&self.eval_expr(a, ctx, pos, size)?)
                    || self.to_boolean(&self.eval_expr(b, ctx, pos, size)?),
            ),
            Expr::And(a, b) => DomValue::Bool(
                self.to_boolean(&self.eval_expr(a, ctx, pos, size)?)
                    && self.to_boolean(&self.eval_expr(b, ctx, pos, size)?),
            ),
            Expr::Equality(op, a, b) => {
                let l = self.eval_expr(a, ctx, pos, size)?;
                let r = self.eval_expr(b, ctx, pos, size)?;
                DomValue::Bool(self.compare_eq(*op == ast::EqOp::Eq, &l, &r))
            }
            Expr::Relational(op, a, b) => {
                let l = self.eval_expr(a, ctx, pos, size)?;
                let r = self.eval_expr(b, ctx, pos, size)?;
                DomValue::Bool(self.compare_rel(*op, &l, &r))
            }
            Expr::Arithmetic(op, a, b) => {
                let l = self.to_number(&self.eval_expr(a, ctx, pos, size)?);
                let r = self.to_number(&self.eval_expr(b, ctx, pos, size)?);
                DomValue::Num(match op {
                    ast::ArithOp::Add => l + r,
                    ast::ArithOp::Sub => l - r,
                    ast::ArithOp::Mul => l * r,
                    ast::ArithOp::Div => l / r,
                    ast::ArithOp::Mod => l % r,
                })
            }
            Expr::Neg(e) => DomValue::Num(-self.to_number(&self.eval_expr(e, ctx, pos, size)?)),
            Expr::Union(a, b) => {
                let DomValue::Nodes(mut l) = self.eval_expr(a, ctx, pos, size)? else {
                    return Err(BaselineError::Unsupported("union of non-node-sets".into()));
                };
                let DomValue::Nodes(r) = self.eval_expr(b, ctx, pos, size)? else {
                    return Err(BaselineError::Unsupported("union of non-node-sets".into()));
                };
                l.extend(r);
                DomValue::Nodes(self.sort_dedup(l))
            }
            Expr::Literal(s) => DomValue::Str(s.to_string()),
            Expr::Number(n) => DomValue::Num(*n),
            Expr::Var(v) => return Err(BaselineError::Unsupported(format!("variable ${v}"))),
            Expr::FunctionCall(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_expr(a, ctx, pos, size)?);
                }
                self.call(name, &vals, ctx, pos, size)?
            }
        })
    }

    // ---- coercions --------------------------------------------------------

    fn string_value(&self, n: NodeId) -> String {
        self.doc.string_value(n)
    }

    fn to_boolean(&self, v: &DomValue) -> bool {
        match v {
            DomValue::Nodes(ns) => !ns.is_empty(),
            DomValue::Str(s) => !s.is_empty(),
            DomValue::Num(n) => *n != 0.0 && !n.is_nan(),
            DomValue::Bool(b) => *b,
        }
    }

    fn to_string_v(&self, v: &DomValue) -> String {
        match v {
            DomValue::Nodes(ns) => ns
                .first()
                .map(|n| self.string_value(*n))
                .unwrap_or_default(),
            DomValue::Str(s) => s.clone(),
            DomValue::Num(n) => {
                if *n == n.trunc() && n.abs() < 1e15 && !n.is_nan() {
                    format!("{}", *n as i64)
                } else {
                    format!("{n}")
                }
            }
            DomValue::Bool(b) => b.to_string(),
        }
    }

    fn to_number(&self, v: &DomValue) -> f64 {
        match v {
            DomValue::Num(n) => *n,
            DomValue::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => self.to_string_v(other).trim().parse().unwrap_or(f64::NAN),
        }
    }

    fn compare_eq(&self, eq: bool, l: &DomValue, r: &DomValue) -> bool {
        match (l, r) {
            (DomValue::Nodes(ls), DomValue::Nodes(rs)) => {
                for a in ls {
                    let av = self.string_value(*a);
                    for b in rs {
                        if (av == self.string_value(*b)) == eq {
                            return true;
                        }
                    }
                }
                false
            }
            (DomValue::Nodes(ns), other) | (other, DomValue::Nodes(ns)) => match other {
                DomValue::Bool(b) => (ns.is_empty() != *b) == eq,
                DomValue::Num(x) => ns.iter().any(|n| {
                    (self
                        .string_value(*n)
                        .trim()
                        .parse::<f64>()
                        .unwrap_or(f64::NAN)
                        == *x)
                        == eq
                }),
                DomValue::Str(s) => ns.iter().any(|n| (self.string_value(*n) == *s) == eq),
                DomValue::Nodes(_) => unreachable!(),
            },
            (a, b) => {
                if matches!(a, DomValue::Bool(_)) || matches!(b, DomValue::Bool(_)) {
                    (self.to_boolean(a) == self.to_boolean(b)) == eq
                } else if matches!(a, DomValue::Num(_)) || matches!(b, DomValue::Num(_)) {
                    (self.to_number(a) == self.to_number(b)) == eq
                } else {
                    (self.to_string_v(a) == self.to_string_v(b)) == eq
                }
            }
        }
    }

    fn compare_rel(&self, op: ast::RelOp, l: &DomValue, r: &DomValue) -> bool {
        let cmp = |a: f64, b: f64| match op {
            ast::RelOp::Lt => a < b,
            ast::RelOp::Le => a <= b,
            ast::RelOp::Gt => a > b,
            ast::RelOp::Ge => a >= b,
        };
        match (l, r) {
            (DomValue::Nodes(ls), DomValue::Nodes(rs)) => ls.iter().any(|a| {
                let av = self
                    .string_value(*a)
                    .trim()
                    .parse::<f64>()
                    .unwrap_or(f64::NAN);
                rs.iter().any(|b| {
                    cmp(
                        av,
                        self.string_value(*b)
                            .trim()
                            .parse::<f64>()
                            .unwrap_or(f64::NAN),
                    )
                })
            }),
            (DomValue::Nodes(ns), other) => {
                let rv = self.to_number(other);
                ns.iter().any(|n| {
                    cmp(
                        self.string_value(*n)
                            .trim()
                            .parse::<f64>()
                            .unwrap_or(f64::NAN),
                        rv,
                    )
                })
            }
            (other, DomValue::Nodes(ns)) => {
                let lv = self.to_number(other);
                ns.iter().any(|n| {
                    cmp(
                        lv,
                        self.string_value(*n)
                            .trim()
                            .parse::<f64>()
                            .unwrap_or(f64::NAN),
                    )
                })
            }
            (a, b) => cmp(self.to_number(a), self.to_number(b)),
        }
    }

    // ---- functions ----------------------------------------------------------

    fn call(
        &self,
        name: &str,
        args: &[DomValue],
        ctx: NodeId,
        pos: usize,
        size: usize,
    ) -> Result<DomValue> {
        let s0 = |args: &[DomValue]| match args.first() {
            Some(v) => self.to_string_v(v),
            None => self.string_value(ctx),
        };
        Ok(match name {
            "position" => DomValue::Num(pos as f64),
            "last" => DomValue::Num(size as f64),
            "count" => match args.first() {
                Some(DomValue::Nodes(ns)) => DomValue::Num(ns.len() as f64),
                _ => {
                    return Err(BaselineError::Unsupported(
                        "count() needs a node-set".into(),
                    ))
                }
            },
            "not" => DomValue::Bool(!args.first().map(|v| self.to_boolean(v)).unwrap_or(false)),
            "true" => DomValue::Bool(true),
            "false" => DomValue::Bool(false),
            "boolean" => DomValue::Bool(args.first().map(|v| self.to_boolean(v)).unwrap_or(false)),
            "string" => DomValue::Str(s0(args)),
            "number" => DomValue::Num(s0(args).trim().parse().unwrap_or(f64::NAN)),
            "concat" => DomValue::Str(args.iter().map(|a| self.to_string_v(a)).collect::<String>()),
            "contains" => DomValue::Bool(
                self.to_string_v(&args[0])
                    .contains(&self.to_string_v(&args[1])),
            ),
            "starts-with" => DomValue::Bool(
                self.to_string_v(&args[0])
                    .starts_with(&self.to_string_v(&args[1])),
            ),
            "string-length" => DomValue::Num(s0(args).chars().count() as f64),
            "normalize-space" => {
                DomValue::Str(s0(args).split_whitespace().collect::<Vec<_>>().join(" "))
            }
            "name" | "local-name" => {
                let full = match args.first() {
                    Some(DomValue::Nodes(ns)) => ns
                        .first()
                        .and_then(|n| self.doc.name(*n))
                        .unwrap_or("")
                        .to_string(),
                    None => self.doc.name(ctx).unwrap_or("").to_string(),
                    _ => return Err(BaselineError::Unsupported("name() needs a node-set".into())),
                };
                if name == "local-name" {
                    DomValue::Str(full.rsplit(':').next().unwrap_or("").to_string())
                } else {
                    DomValue::Str(full)
                }
            }
            "sum" => match args.first() {
                Some(DomValue::Nodes(ns)) => DomValue::Num(
                    ns.iter()
                        .map(|n| {
                            self.string_value(*n)
                                .trim()
                                .parse::<f64>()
                                .unwrap_or(f64::NAN)
                        })
                        .sum(),
                ),
                _ => return Err(BaselineError::Unsupported("sum() needs a node-set".into())),
            },
            "floor" => DomValue::Num(self.to_number(&args[0]).floor()),
            "ceiling" => DomValue::Num(self.to_number(&args[0]).ceil()),
            "round" => DomValue::Num(self.to_number(&args[0]).round()),
            other => return Err(BaselineError::Unsupported(format!("function {other}()"))),
        })
    }

    /// Evaluates a predicate expression at `node` with explicit dynamic
    /// context. Exposed for the structural-join engine's DOM fallback.
    pub fn predicate_holds(
        &self,
        pred: &Expr,
        node: NodeId,
        pos: usize,
        size: usize,
    ) -> Result<bool> {
        let v = self.eval_expr(pred, node, pos, size)?;
        Ok(match v {
            DomValue::Num(x) => pos as f64 == x,
            other => self.to_boolean(&other),
        })
    }

    /// Canonical identity of a node (for cross-engine comparison).
    pub fn identity(&self, n: NodeId) -> NodeIdentity {
        NodeIdentity {
            name: self.doc.name(n).unwrap_or("").to_string(),
            value: self.string_value(n),
        }
    }
}

impl XPathEngine for DomEngine {
    fn label(&self) -> &str {
        match self.profile {
            DomProfile::Jaxen => "dom-jaxen",
            DomProfile::Galax => "dom-galax",
        }
    }

    fn count(&self, xpath: &str) -> Result<usize> {
        Ok(self.eval(xpath)?.len())
    }

    fn identities(&self, xpath: &str) -> Result<Vec<NodeIdentity>> {
        Ok(self
            .eval(xpath)?
            .into_iter()
            .map(|n| self.identity(n))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &str = r#"<site><people>
      <person id="p0"><name>Ann</name><emailaddress>a@x</emailaddress>
        <address><city>Monroe</city><province>Vermont</province></address></person>
      <person id="p1"><name>Bob</name>
        <watches><watch open_auction="oa1"/><watch open_auction="oa2"/></watches></person>
    </people>
    <open_auctions><open_auction><itemref/><price>12</price></open_auction></open_auctions>
    </site>"#;

    fn engine() -> DomEngine {
        DomEngine::from_xml(DOC).unwrap()
    }

    #[test]
    fn simple_paths() {
        let e = engine();
        assert_eq!(e.count("//person").unwrap(), 2);
        assert_eq!(e.count("//person/name").unwrap(), 2);
        assert_eq!(e.count("/site/people/person").unwrap(), 2);
        assert_eq!(e.count("/site//watch").unwrap(), 2);
        assert_eq!(e.count("//nothing").unwrap(), 0);
    }

    #[test]
    fn paper_queries() {
        let e = engine();
        assert_eq!(e.count("//person/address").unwrap(), 1);
        assert_eq!(e.count("//watches/watch/ancestor::person").unwrap(), 1);
        assert_eq!(
            e.count("/descendant::name/parent::*/self::person/address")
                .unwrap(),
            1
        );
        assert_eq!(
            e.count("//itemref/following-sibling::price/parent::*")
                .unwrap(),
            1
        );
        assert_eq!(
            e.count("//province[text()='Vermont']/ancestor::person")
                .unwrap(),
            1
        );
    }

    #[test]
    fn node_test_matches_the_root_node() {
        // `//a` is `/descendant-or-self::node()/child::a`: the root
        // element is a child of the document node only.
        let e = DomEngine::from_xml("<a><b/></a>").unwrap();
        assert_eq!(e.count("//a").unwrap(), 1);
        assert_eq!(e.count("//*").unwrap(), 2);
        assert_eq!(e.count("//node()").unwrap(), 2);
        assert_eq!(e.count("/descendant-or-self::node()").unwrap(), 3);
        assert_eq!(e.count("//b/ancestor::node()").unwrap(), 2);
        assert_eq!(engine().count("//site").unwrap(), 1);
    }

    #[test]
    fn predicates_and_positions() {
        let e = engine();
        assert_eq!(e.count("//person[name='Ann']").unwrap(), 1);
        assert_eq!(e.count("//person[1]").unwrap(), 1);
        assert_eq!(e.count("//watch[2]").unwrap(), 1);
        assert_eq!(e.count("//person[position()=last()]").unwrap(), 1);
        assert_eq!(e.count("//person[@id='p1']").unwrap(), 1);
        assert_eq!(e.count("//person[watches]").unwrap(), 1);
        assert_eq!(e.count("//price[. > 10]").unwrap(), 1);
        assert_eq!(e.count("//price[. > 20]").unwrap(), 0);
    }

    #[test]
    fn reverse_axis_positions_count_from_context() {
        let e = engine();
        // ancestor::*[1] is the parent.
        let ids = e.identities("//city/ancestor::*[1]").unwrap();
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].name, "address");
    }

    #[test]
    fn results_in_document_order() {
        let e = engine();
        let ids = e.identities("//name | //price").unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0].value, "Ann");
        assert_eq!(ids[2].value, "12");
    }

    #[test]
    fn galax_profile_rejects_sibling_axes() {
        let e = DomEngine::from_xml_with_profile(DOC, DomProfile::Galax).unwrap();
        assert!(matches!(
            e.count("//itemref/following-sibling::price"),
            Err(BaselineError::Unsupported(_))
        ));
        // Everything else still works.
        assert_eq!(e.count("//person").unwrap(), 2);
    }

    #[test]
    fn functions_work_in_predicates() {
        let e = engine();
        assert_eq!(e.count("//person[count(watches/watch) = 2]").unwrap(), 1);
        assert_eq!(e.count("//person[contains(name, 'nn')]").unwrap(), 1);
        assert_eq!(e.count("//person[starts-with(name, 'B')]").unwrap(), 1);
        assert_eq!(e.count("//person[not(address)]").unwrap(), 1);
        assert_eq!(e.eval_number("count(//watch)").unwrap(), 2.0);
        assert_eq!(e.eval_number("sum(//price)").unwrap(), 12.0);
    }

    #[test]
    fn following_and_preceding() {
        let e = engine();
        // Everything after person[1]'s subtree that is a price.
        assert_eq!(e.count("//person[1]/following::price").unwrap(), 1);
        // preceding excludes ancestors.
        let ids = e.identities("//price/preceding::person").unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(e.count("//price/ancestor::open_auctions").unwrap(), 1);
    }

    #[test]
    fn attribute_axis_and_tests() {
        let e = engine();
        assert_eq!(e.count("//watch/@open_auction").unwrap(), 2);
        assert_eq!(e.count("//@id").unwrap(), 2);
        assert_eq!(e.count("//watch/@*").unwrap(), 2);
        let ids = e.identities("//person[1]/@id").unwrap();
        assert_eq!(ids[0].value, "p0");
    }

    #[test]
    fn filter_expressions() {
        let e = engine();
        assert_eq!(e.count("(//person)[1]").unwrap(), 1);
        let ids = e.identities("(//person)[2]/name").unwrap();
        assert_eq!(ids[0].value, "Bob");
    }

    #[test]
    fn scalar_top_level_is_error_via_eval() {
        let e = engine();
        assert!(e.eval("1 + 1").is_err());
        assert_eq!(e.eval_number("1 + 1").unwrap(), 2.0);
    }
}
