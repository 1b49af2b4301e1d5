//! FLWOR evaluation over a VAMANA [`Engine`].
//!
//! Variable-relative paths (`$p/name`) run through
//! [`Engine::query_from`], so each binding iterates the same pipelined,
//! index-driven machinery as a standalone XPath query — the integration
//! the paper sketches in §V-B/§VII.

use crate::ast::{Clause, Content, Flwor, XqExpr};
use crate::parser::parse_xquery;
use crate::{Result, XQueryError};
use vamana_core::exec::value as xval;
use vamana_core::{DocId, Engine, Value};
use vamana_mass::{NodeEntry, RecordKind};
use vamana_xpath::{ast as xp, Expr};

/// One item of an XQuery result sequence.
#[derive(Debug, Clone)]
pub enum Item {
    /// A stored node.
    Node(NodeEntry),
    /// Constructed XML (element-constructor output; serialized form).
    Xml(String),
    /// An atomic string.
    Str(String),
    /// An atomic number.
    Num(f64),
    /// An atomic boolean.
    Bool(bool),
}

/// Variable bindings, innermost last.
type Bindings = Vec<(String, Vec<Item>)>;

fn lookup<'a>(env: &'a Bindings, var: &str) -> Result<&'a Vec<Item>> {
    env.iter()
        .rev()
        .find(|(name, _)| name == var)
        .map(|(_, items)| items)
        .ok_or_else(|| XQueryError::Eval(format!("unbound variable ${var}")))
}

/// The FLWOR evaluator.
pub struct XQueryEngine<'a> {
    engine: &'a Engine,
    doc: DocId,
}

impl<'a> XQueryEngine<'a> {
    /// Evaluates against document 0 of the engine's store.
    pub fn new(engine: &'a Engine) -> Self {
        XQueryEngine {
            engine,
            doc: DocId(0),
        }
    }

    /// Evaluates against a specific document.
    pub fn for_document(engine: &'a Engine, doc: DocId) -> Self {
        XQueryEngine { engine, doc }
    }

    /// Parses and evaluates `query`, returning the result sequence.
    pub fn eval(&self, query: &str) -> Result<Vec<Item>> {
        let expr = parse_xquery(query)?;
        self.eval_xq(&expr, &Vec::new())
    }

    /// Parses, evaluates and serializes `query` to XML/text.
    pub fn eval_to_xml(&self, query: &str) -> Result<String> {
        let items = self.eval(query)?;
        let mut out = String::new();
        let mut prev_atomic = false;
        for item in &items {
            let (s, atomic) = self.serialize_item(item)?;
            if prev_atomic && atomic && !out.is_empty() {
                out.push(' ');
            }
            out.push_str(&s);
            prev_atomic = atomic;
        }
        Ok(out)
    }

    fn serialize_item(&self, item: &Item) -> Result<(String, bool)> {
        Ok(match item {
            Item::Node(n) => match n.kind {
                RecordKind::Element | RecordKind::Document => (
                    vamana_mass::export::export_subtree_xml(self.engine.store(), &n.key)
                        .map_err(|e| XQueryError::Eval(e.to_string()))?,
                    false,
                ),
                _ => (escape(&self.node_string(n)?), true),
            },
            Item::Xml(x) => (x.clone(), false),
            Item::Str(s) => (escape(s), true),
            Item::Num(n) => (xval::format_number(*n), true),
            Item::Bool(b) => (b.to_string(), true),
        })
    }

    fn node_string(&self, n: &NodeEntry) -> Result<String> {
        self.engine
            .store()
            .string_value(&n.key)
            .map_err(|e| XQueryError::Eval(e.to_string()))
    }

    fn doc_entry(&self) -> Result<NodeEntry> {
        let info = self
            .engine
            .store()
            .document(self.doc)
            .ok_or_else(|| XQueryError::Eval("no such document".into()))?;
        Ok(NodeEntry {
            key: info.doc_key.clone(),
            kind: RecordKind::Document,
            name: None,
        })
    }

    // ---- FLWOR machinery --------------------------------------------------

    fn eval_xq(&self, expr: &XqExpr, env: &Bindings) -> Result<Vec<Item>> {
        match expr {
            XqExpr::Flwor(f) => self.eval_flwor(f, env),
            XqExpr::XPath(e) => self.eval_xpath_items(e, env),
            XqExpr::ElementCtor {
                name,
                attrs,
                children,
            } => Ok(vec![Item::Xml(
                self.build_element(name, attrs, children, env)?,
            )]),
        }
    }

    fn eval_flwor(&self, f: &Flwor, env: &Bindings) -> Result<Vec<Item>> {
        // Expand for/let clauses into a stream of binding tuples.
        let mut tuples: Vec<Bindings> = vec![env.clone()];
        for clause in &f.clauses {
            match clause {
                Clause::For { var, pos, source } => {
                    let mut next = Vec::new();
                    for tuple in &tuples {
                        for (i, item) in self
                            .eval_xpath_items(source, tuple)?
                            .into_iter()
                            .enumerate()
                        {
                            let mut t = tuple.clone();
                            t.push((var.clone(), vec![item]));
                            if let Some(pos_var) = pos {
                                t.push((pos_var.clone(), vec![Item::Num((i + 1) as f64)]));
                            }
                            next.push(t);
                        }
                    }
                    tuples = next;
                }
                Clause::Let { var, source } => {
                    for tuple in &mut tuples {
                        let seq = self.eval_xpath_items(source, tuple)?;
                        tuple.push((var.clone(), seq));
                    }
                }
            }
        }

        // where
        if let Some(cond) = &f.where_clause {
            let mut kept = Vec::new();
            for tuple in tuples {
                if self.eval_xpath_value(cond, &tuple)?.boolean() {
                    kept.push(tuple);
                }
            }
            tuples = kept;
        }

        // order by
        if let Some((key_expr, descending)) = &f.order_by {
            let mut keyed: Vec<(OrderKey, Bindings)> = Vec::with_capacity(tuples.len());
            for tuple in tuples {
                let v = self.eval_xpath_value(key_expr, &tuple)?;
                let s = v
                    .string(self.engine.store())
                    .map_err(|e| XQueryError::Eval(e.to_string()))?;
                keyed.push((OrderKey::from(s), tuple));
            }
            keyed.sort_by(|a, b| a.0.cmp(&b.0));
            if *descending {
                keyed.reverse();
            }
            tuples = keyed.into_iter().map(|(_, t)| t).collect();
        }

        // return
        let mut out = Vec::new();
        for tuple in &tuples {
            out.extend(self.eval_xq(&f.ret, tuple)?);
        }
        Ok(out)
    }

    fn build_element(
        &self,
        name: &str,
        attrs: &[(String, String)],
        children: &[Content],
        env: &Bindings,
    ) -> Result<String> {
        let mut out = String::new();
        out.push('<');
        out.push_str(name);
        for (a, v) in attrs {
            out.push_str(&format!(" {a}=\"{}\"", escape(v)));
        }
        if children.is_empty() {
            out.push_str("/>");
            return Ok(out);
        }
        out.push('>');
        let mut prev_atomic = false;
        for child in children {
            match child {
                Content::Text(t) => {
                    out.push_str(&escape(t));
                    prev_atomic = false;
                }
                Content::Embed(e) => {
                    for item in self.eval_xq(e, env)? {
                        let (s, atomic) = self.serialize_item(&item)?;
                        if prev_atomic && atomic {
                            out.push(' ');
                        }
                        out.push_str(&s);
                        prev_atomic = atomic;
                    }
                }
            }
        }
        out.push_str("</");
        out.push_str(name);
        out.push('>');
        Ok(out)
    }

    // ---- XPath fragments with variables ------------------------------------

    /// Evaluates an embedded XPath expression to a sequence of items.
    fn eval_xpath_items(&self, e: &Expr, env: &Bindings) -> Result<Vec<Item>> {
        match e {
            Expr::Var(v) => Ok(lookup(env, v)?.clone()),
            Expr::Filter {
                primary,
                predicates,
                path,
            } => {
                if let Expr::Var(v) = &**primary {
                    if !predicates.is_empty() {
                        return Err(XQueryError::Eval(
                            "predicates directly on a variable are not supported; filter in the where clause".into(),
                        ));
                    }
                    let bound = lookup(env, v)?.clone();
                    let Some(rel) = path else { return Ok(bound) };
                    let rel_text = rel.to_string();
                    let mut nodes: Vec<NodeEntry> = Vec::new();
                    for item in &bound {
                        let Item::Node(n) = item else {
                            return Err(XQueryError::Eval(format!(
                                "${v} is not a node sequence; cannot navigate {rel_text}"
                            )));
                        };
                        nodes.extend(self.engine.query_from(n, &rel_text)?);
                    }
                    // One node-set per bound item, in binding order:
                    // theirs is not document order.
                    vamana_core::finish_node_set(&mut nodes, bound.len() <= 1);
                    return Ok(nodes.into_iter().map(Item::Node).collect());
                }
                // Variable-free filter: delegate to the engine.
                self.eval_plain_path(e)
            }
            Expr::Path(_) | Expr::Union(..) => {
                if expr_uses_vars(e) {
                    return Err(XQueryError::Eval(
                        "variables inside unions/paths must be the leading step (`$x/...`)".into(),
                    ));
                }
                self.eval_plain_path(e)
            }
            scalar => {
                let v = self.eval_xpath_value(scalar, env)?;
                Ok(match v {
                    Value::Nodes(ns) => ns.into_iter().map(Item::Node).collect(),
                    Value::Str(s) => vec![Item::Str(s)],
                    Value::Num(n) => vec![Item::Num(n)],
                    Value::Bool(b) => vec![Item::Bool(b)],
                })
            }
        }
    }

    fn eval_plain_path(&self, e: &Expr) -> Result<Vec<Item>> {
        let nodes = self.engine.query_doc(self.doc, &e.to_string())?;
        Ok(nodes.into_iter().map(Item::Node).collect())
    }

    /// Evaluates an embedded XPath expression to an XPath [`Value`]
    /// (where clauses, order keys, constructor scalars).
    fn eval_xpath_value(&self, e: &Expr, env: &Bindings) -> Result<Value> {
        let store = self.engine.store();
        Ok(match e {
            Expr::Literal(s) => Value::Str(s.to_string()),
            Expr::Number(n) => Value::Num(*n),
            Expr::Var(_) | Expr::Path(_) | Expr::Filter { .. } | Expr::Union(..) => {
                let items = self.eval_xpath_items(e, env)?;
                items_to_value(items)?
            }
            Expr::Or(a, b) => Value::Bool(
                self.eval_xpath_value(a, env)?.boolean()
                    || self.eval_xpath_value(b, env)?.boolean(),
            ),
            Expr::And(a, b) => Value::Bool(
                self.eval_xpath_value(a, env)?.boolean()
                    && self.eval_xpath_value(b, env)?.boolean(),
            ),
            Expr::Equality(op, a, b) => {
                let bin = match op {
                    xp::EqOp::Eq => vamana_core::plan::BinOp::Eq,
                    xp::EqOp::Ne => vamana_core::plan::BinOp::Ne,
                };
                let l = self.eval_xpath_value(a, env)?;
                let r = self.eval_xpath_value(b, env)?;
                Value::Bool(
                    xval::compare(store, bin, &l, &r)
                        .map_err(|e| XQueryError::Eval(e.to_string()))?,
                )
            }
            Expr::Relational(op, a, b) => {
                let bin = match op {
                    xp::RelOp::Lt => vamana_core::plan::BinOp::Lt,
                    xp::RelOp::Le => vamana_core::plan::BinOp::Le,
                    xp::RelOp::Gt => vamana_core::plan::BinOp::Gt,
                    xp::RelOp::Ge => vamana_core::plan::BinOp::Ge,
                };
                let l = self.eval_xpath_value(a, env)?;
                let r = self.eval_xpath_value(b, env)?;
                Value::Bool(
                    xval::compare(store, bin, &l, &r)
                        .map_err(|e| XQueryError::Eval(e.to_string()))?,
                )
            }
            Expr::Arithmetic(op, a, b) => {
                let l = self
                    .eval_xpath_value(a, env)?
                    .number(store)
                    .map_err(|e| XQueryError::Eval(e.to_string()))?;
                let r = self
                    .eval_xpath_value(b, env)?
                    .number(store)
                    .map_err(|e| XQueryError::Eval(e.to_string()))?;
                Value::Num(match op {
                    xp::ArithOp::Add => l + r,
                    xp::ArithOp::Sub => l - r,
                    xp::ArithOp::Mul => l * r,
                    xp::ArithOp::Div => l / r,
                    xp::ArithOp::Mod => l % r,
                })
            }
            Expr::Neg(inner) => Value::Num(
                -self
                    .eval_xpath_value(inner, env)?
                    .number(store)
                    .map_err(|e| XQueryError::Eval(e.to_string()))?,
            ),
            Expr::FunctionCall(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_xpath_value(a, env)?);
                }
                let ctx = self.doc_entry()?;
                xval::call_function(store, name, &vals, &ctx, 1, 1)
                    .map_err(|e| XQueryError::Eval(e.to_string()))?
            }
        })
    }
}

/// Converts a sequence to an XPath value: node sequences become
/// node-sets; singleton atomics pass through.
fn items_to_value(items: Vec<Item>) -> Result<Value> {
    if items.iter().all(|i| matches!(i, Item::Node(_))) {
        let nodes = items
            .into_iter()
            .map(|i| match i {
                Item::Node(n) => n,
                _ => unreachable!(),
            })
            .collect();
        return Ok(Value::Nodes(nodes));
    }
    if items.len() == 1 {
        return Ok(match items.into_iter().next().expect("len 1") {
            Item::Str(s) | Item::Xml(s) => Value::Str(s),
            Item::Num(n) => Value::Num(n),
            Item::Bool(b) => Value::Bool(b),
            Item::Node(_) => unreachable!("handled above"),
        });
    }
    Err(XQueryError::Eval(
        "mixed atomic sequence in value context".into(),
    ))
}

/// True if the expression references any variable.
fn expr_uses_vars(e: &Expr) -> bool {
    match e {
        Expr::Var(_) => true,
        Expr::Path(p) => p
            .steps
            .iter()
            .any(|s| s.predicates.iter().any(expr_uses_vars)),
        Expr::Filter {
            primary,
            predicates,
            path,
        } => {
            expr_uses_vars(primary)
                || predicates.iter().any(expr_uses_vars)
                || path.as_ref().is_some_and(|p| {
                    p.steps
                        .iter()
                        .any(|s| s.predicates.iter().any(expr_uses_vars))
                })
        }
        Expr::Or(a, b)
        | Expr::And(a, b)
        | Expr::Equality(_, a, b)
        | Expr::Relational(_, a, b)
        | Expr::Arithmetic(_, a, b)
        | Expr::Union(a, b) => expr_uses_vars(a) || expr_uses_vars(b),
        Expr::Neg(x) => expr_uses_vars(x),
        Expr::FunctionCall(_, args) => args.iter().any(expr_uses_vars),
        Expr::Literal(_) | Expr::Number(_) => false,
    }
}

/// Sort key for `order by`: numeric when the value parses as a number,
/// lexicographic otherwise; numbers sort before strings.
#[derive(Debug, PartialEq)]
enum OrderKey {
    Num(f64),
    Str(String),
}

impl From<String> for OrderKey {
    fn from(s: String) -> Self {
        match s.trim().parse::<f64>() {
            Ok(n) if !n.is_nan() => OrderKey::Num(n),
            _ => OrderKey::Str(s),
        }
    }
}

impl Eq for OrderKey {}

impl PartialOrd for OrderKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self, other) {
            (OrderKey::Num(a), OrderKey::Num(b)) => a.total_cmp(b),
            (OrderKey::Str(a), OrderKey::Str(b)) => a.cmp(b),
            (OrderKey::Num(_), OrderKey::Str(_)) => std::cmp::Ordering::Less,
            (OrderKey::Str(_), OrderKey::Num(_)) => std::cmp::Ordering::Greater,
        }
    }
}

/// Minimal XML text escaping for constructed content.
fn escape(s: &str) -> String {
    vamana_xml::escape::escape_text(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_core::MassStore;

    const DOC: &str = r#"<site><people>
      <person id="p0"><name>Cyd</name><age>44</age>
        <address><province>Vermont</province></address></person>
      <person id="p1"><name>Ann</name><age>31</age>
        <address><province>Texas</province></address></person>
      <person id="p2"><name>Bob</name><age>17</age></person>
    </people></site>"#;

    fn engine() -> Engine {
        let mut store = MassStore::open_memory();
        store.load_xml("doc", DOC).unwrap();
        Engine::new(store)
    }

    #[test]
    fn simple_for_return_path() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq.eval_to_xml("for $p in //person return $p/name").unwrap();
        assert_eq!(out, "<name>Cyd</name><name>Ann</name><name>Bob</name>");
    }

    #[test]
    fn where_clause_filters_bindings() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml("for $p in //person where $p/age > 20 return $p/name")
            .unwrap();
        assert_eq!(out, "<name>Cyd</name><name>Ann</name>");
    }

    #[test]
    fn order_by_sorts_tuples() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml("for $p in //person order by $p/name return $p/name")
            .unwrap();
        assert_eq!(out, "<name>Ann</name><name>Bob</name><name>Cyd</name>");
        let out = xq
            .eval_to_xml("for $p in //person order by $p/age descending return $p/age")
            .unwrap();
        assert_eq!(out, "<age>44</age><age>31</age><age>17</age>");
    }

    #[test]
    fn let_bindings_and_constructors() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml(
                "for $p in //person let $n := $p/name where $p/address return <resident>{ $n/text() }</resident>",
            )
            .unwrap();
        assert_eq!(out, "<resident>Cyd</resident><resident>Ann</resident>");
    }

    #[test]
    fn constructor_copies_element_nodes() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml("for $p in //person where $p/name = 'Bob' return <row>{ $p/name }</row>")
            .unwrap();
        assert_eq!(out, "<row><name>Bob</name></row>");
    }

    #[test]
    fn nested_flwor_joins_documents() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        // Cross product filtered by equality — a value join expressed in
        // FLWOR form.
        let out = xq
            .eval_to_xml(
                "for $a in //person, $b in //person where $a/age < $b/age return <pair>{ $a/name/text() } { $b/name/text() }</pair>",
            )
            .unwrap();
        assert_eq!(
            out,
            "<pair>Ann Cyd</pair><pair>Bob Cyd</pair><pair>Bob Ann</pair>"
        );
    }

    #[test]
    fn aggregates_in_constructors() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml("<report>{ count(//person) }</report>")
            .unwrap();
        assert_eq!(out, "<report>3</report>");
        let out = xq.eval_to_xml("<total>{ sum(//age) }</total>").unwrap();
        assert_eq!(out, "<total>92</total>");
    }

    #[test]
    fn positional_variables_bind_iteration_index() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml("for $p at $i in //person return <n>{ $i }</n>")
            .unwrap();
        assert_eq!(out, "<n>1</n><n>2</n><n>3</n>");
        // Positions are usable in where clauses.
        let out = xq
            .eval_to_xml("for $p at $i in //person where $i = 2 return $p/name")
            .unwrap();
        assert_eq!(out, "<name>Ann</name>");
    }

    #[test]
    fn plain_xpath_still_works() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        let items = xq.eval("//person[age > 40]/name").unwrap();
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn unbound_variable_is_an_error() {
        let e = engine();
        let xq = XQueryEngine::new(&e);
        assert!(matches!(
            xq.eval("for $p in //person return $q/name"),
            Err(XQueryError::Eval(_))
        ));
    }

    #[test]
    fn text_escaping_in_output() {
        let mut store = MassStore::open_memory();
        store.load_xml("d", "<r><v>a &lt; b</v></r>").unwrap();
        let e = Engine::new(store);
        let xq = XQueryEngine::new(&e);
        let out = xq
            .eval_to_xml("for $v in //v return <out>{ $v/text() }</out>")
            .unwrap();
        assert_eq!(out, "<out>a &lt; b</out>");
    }
}
