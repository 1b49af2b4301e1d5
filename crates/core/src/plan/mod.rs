//! The VAMANA physical algebra (paper §V).
//!
//! A query plan is an arena of operators. The paper's operator kinds map
//! onto [`Operator`] as follows:
//!
//! | paper | here |
//! |---|---|
//! | Root `R` | [`Operator::Root`] |
//! | Step `φ axis::nodetest` | [`Operator::Step`] |
//! | value-based step `φ value::'v'` (Fig 9) | [`Operator::ValueStep`] |
//! | Literal `L` | [`Operator::Literal`] / [`Operator::Number`] |
//! | Exist predicate `ξ` | [`Operator::Exists`] |
//! | Binary predicate `β cond` | [`Operator::Binary`] |
//! | Join `J cond` | [`Operator::Join`] |
//!
//! The *context path* is the chain of operators linked through
//! `context`/`child` edges — tuples flow up along it. *Predicate trees*
//! hang off steps via `predicates` and are re-evaluated per tuple with
//! dynamically set context (paper §V-B).

pub mod builder;
pub mod display;

use vamana_flex::Axis;

/// Identifier of an operator inside a [`QueryPlan`] arena. Matches the
/// paper's `id` subscript (`φ₂`, `β₃`, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u32);

impl OpId {
    /// Arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A resolved node test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestSpec {
    /// Element name (attribute name on the attribute axis).
    Named(Box<str>),
    /// `*`
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    AnyNode,
    /// `comment()`
    Comment,
    /// `processing-instruction()`, optionally with a target.
    Pi(Option<Box<str>>),
}

impl std::fmt::Display for TestSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestSpec::Named(n) => write!(f, "{n}"),
            TestSpec::Wildcard => write!(f, "*"),
            TestSpec::Text => write!(f, "text()"),
            TestSpec::AnyNode => write!(f, "node()"),
            TestSpec::Comment => write!(f, "comment()"),
            TestSpec::Pi(None) => write!(f, "processing-instruction()"),
            TestSpec::Pi(Some(t)) => write!(f, "processing-instruction('{t}')"),
        }
    }
}

/// Where a leaf operator obtains its context (paper §V-B: dynamic setting
/// of context).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextSource {
    /// The query root, set by the execution engine before the plan runs
    /// (the document node for absolute paths).
    QueryRoot,
    /// The tuple currently being filtered — used by leaf operators on
    /// predicate paths.
    OuterTuple,
}

/// Binary predicate conditions (`β cond`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

impl BinOp {
    /// Paper-style label (`EQ`, `AND`, ...).
    pub fn label(self) -> &'static str {
        match self {
            BinOp::Eq => "EQ",
            BinOp::Ne => "NE",
            BinOp::Lt => "LT",
            BinOp::Le => "LE",
            BinOp::Gt => "GT",
            BinOp::Ge => "GE",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Comparison operators usable against the numeric value index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RangeCmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl RangeCmp {
    /// From a comparison [`BinOp`], if it is one.
    pub fn from_binop(op: BinOp) -> Option<RangeCmp> {
        Some(match op {
            BinOp::Lt => RangeCmp::Lt,
            BinOp::Le => RangeCmp::Le,
            BinOp::Gt => RangeCmp::Gt,
            BinOp::Ge => RangeCmp::Ge,
            _ => return None,
        })
    }

    /// Mirror for flipped operands (`x < e` ⇔ `e > x`).
    pub fn flip(self) -> RangeCmp {
        match self {
            RangeCmp::Lt => RangeCmp::Gt,
            RangeCmp::Le => RangeCmp::Ge,
            RangeCmp::Gt => RangeCmp::Lt,
            RangeCmp::Ge => RangeCmp::Le,
        }
    }

    /// The mass-layer scan operator.
    pub fn to_mass(self) -> vamana_mass::RangeOp {
        match self {
            RangeCmp::Lt => vamana_mass::RangeOp::Lt,
            RangeCmp::Le => vamana_mass::RangeOp::Le,
            RangeCmp::Gt => vamana_mass::RangeOp::Gt,
            RangeCmp::Ge => vamana_mass::RangeOp::Ge,
        }
    }
}

/// Arithmetic in general expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `div`
    Div,
    /// `mod`
    Mod,
}

/// One operator of the physical algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum Operator {
    /// `R`: identifies the start of the plan; returns its context child's
    /// tuples (deduplicated under set semantics).
    Root {
        /// The top of the context path.
        child: Option<OpId>,
    },
    /// `φ axis::nodetest`: fetches index tuples satisfying the node test
    /// on `axis` from each context tuple.
    Step {
        /// The axis.
        axis: Axis,
        /// The node test.
        test: TestSpec,
        /// Context child, or a leaf source.
        context: Option<OpId>,
        /// Leaf context source (used when `context` is `None`).
        source: ContextSource,
        /// Predicate trees, applied in order.
        predicates: Vec<OpId>,
    },
    /// `φ value::'v'` — the value-index location step created by the Fig 9
    /// rewrite: yields text/attribute nodes whose value equals `value`
    /// inside the context subtree, straight from the value index.
    ValueStep {
        /// The literal value.
        value: Box<str>,
        /// Restrict to text nodes (`true`) or attribute nodes (`false`);
        /// `None` accepts both.
        text_only: Option<bool>,
        /// For attribute rewrites: the required attribute name.
        attr_name: Option<Box<str>>,
        /// Context child, or a leaf source.
        context: Option<OpId>,
        /// Leaf context source.
        source: ContextSource,
    },
    /// `φ range::(op bound)` — the numeric-range location step created
    /// by the range-index rewrite: yields text/attribute nodes whose
    /// numeric value satisfies `op bound`, straight from the numeric
    /// value index.
    RangeStep {
        /// Comparison operator.
        op: RangeCmp,
        /// Comparison bound.
        bound: f64,
        /// Restrict to text nodes (`true`) or attributes (`false`).
        text_only: bool,
        /// For attribute rewrites: the required attribute name.
        attr_name: Option<Box<str>>,
        /// Context child, or a leaf source.
        context: Option<OpId>,
        /// Leaf context source.
        source: ContextSource,
    },
    /// `L 'value'`: a string literal.
    Literal {
        /// The value.
        value: Box<str>,
    },
    /// A numeric literal (bare numbers act as position predicates).
    Number {
        /// The value.
        value: f64,
    },
    /// `ξ`: existential predicate over a path.
    Exists {
        /// Root of the predicate path.
        path: OpId,
    },
    /// `β cond`: binary predicate.
    Binary {
        /// The condition.
        op: BinOp,
        /// Left operand.
        left: OpId,
        /// Right operand.
        right: OpId,
    },
    /// XPath core-library function call.
    Function {
        /// Function name.
        name: Box<str>,
        /// Argument expressions.
        args: Vec<OpId>,
    },
    /// Arithmetic expression.
    Arith {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        left: OpId,
        /// Right operand.
        right: OpId,
    },
    /// Unary minus.
    Neg {
        /// Operand.
        child: OpId,
    },
    /// Filter-expression predicates (`(expr)[p]`): unlike step
    /// predicates, these apply positionally over the *whole* node-set
    /// produced by `input`, in document order.
    Filter {
        /// The node-set being filtered.
        input: OpId,
        /// Predicates, applied in order.
        predicates: Vec<OpId>,
    },
    /// Node-set union of two context paths (`a | b`).
    Union {
        /// Left path.
        left: OpId,
        /// Right path.
        right: OpId,
    },
    /// `J cond`: value join of two context paths (provided for algebra
    /// completeness / XQuery-style callers; the XPath compiler itself
    /// never emits it).
    Join {
        /// Join condition on string values.
        op: BinOp,
        /// Left context child.
        left: OpId,
        /// Right context child.
        right: OpId,
    },
}

/// Plan-time eligibility for a morsel-parallel scan, carried by the plan
/// so cached (pre-compiled) plans keep it: the output step is a shape
/// the executor can split, and the index put this `COUNT` on it. Whether
/// and how wide a run actually fans out is priced when the plan
/// executes ([`crate::opt::parallel::price`]), from the context list and
/// page span of that run — a stale estimate cannot mis-size anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelChoice {
    /// The index-derived `COUNT` of the output step's node test in the
    /// document, at plan time.
    pub estimated: u64,
}

/// A physical query plan: an operator arena plus the root id.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    ops: Vec<Operator>,
    root: OpId,
    parallel: Option<ParallelChoice>,
    /// Stamped by the optimizer when the query lies in the fragment whose
    /// answers the result memo keeps ([`crate::views::in_fragment`]).
    memoizable: bool,
    /// Per-operator [`EstimateCard`]s stamped at optimization time,
    /// indexed by arena position. Empty until
    /// [`QueryPlan::set_estimates`] runs (e.g. on plans that never went
    /// through the optimizer).
    estimates: Vec<Option<crate::cost::EstimateCard>>,
}

impl QueryPlan {
    /// Creates a plan from parts (used by the builder and the optimizer).
    pub fn new(ops: Vec<Operator>, root: OpId) -> Self {
        QueryPlan {
            ops,
            root,
            parallel: None,
            memoizable: false,
            estimates: Vec::new(),
        }
    }

    /// The estimate card stamped on `id`, if the plan was estimated and
    /// the operator is live (detached slots and post-stamp pushes read
    /// back as `None`).
    pub fn estimate(&self, id: OpId) -> Option<crate::cost::EstimateCard> {
        self.estimates.get(id.index()).copied().flatten()
    }

    /// Stamps the per-operator estimates (see
    /// [`crate::cost::PlanCosts::cards`]). The optimizer calls this once
    /// the plan has reached its final shape; rewrites that clone and
    /// mutate the arena afterwards should re-stamp.
    pub fn set_estimates(&mut self, estimates: Vec<Option<crate::cost::EstimateCard>>) {
        self.estimates = estimates;
    }

    /// The optimizer's parallel-scan eligibility, if the output step has
    /// a splittable shape.
    pub fn parallel(&self) -> Option<ParallelChoice> {
        self.parallel
    }

    /// Records (or clears) the parallel-scan eligibility.
    pub fn set_parallel(&mut self, choice: Option<ParallelChoice>) {
        self.parallel = choice;
    }

    /// Whether the result memo may keep this query's answers: `false` for
    /// a query outside its fragment or a plan that was never optimized.
    pub(crate) fn memoizable(&self) -> bool {
        self.memoizable
    }

    /// Records whether the result memo may keep this query's answers.
    pub(crate) fn set_memoizable(&mut self, memoizable: bool) {
        self.memoizable = memoizable;
    }

    /// The root operator id.
    pub fn root(&self) -> OpId {
        self.root
    }

    /// Sets a new root (optimizer use).
    pub fn set_root(&mut self, root: OpId) {
        self.root = root;
    }

    /// The operator at `id`.
    pub fn op(&self, id: OpId) -> &Operator {
        &self.ops[id.index()]
    }

    /// Mutable access for the optimizer.
    pub fn op_mut(&mut self, id: OpId) -> &mut Operator {
        &mut self.ops[id.index()]
    }

    /// Appends an operator, returning its id.
    pub fn push(&mut self, op: Operator) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.ops.push(op);
        id
    }

    /// Number of operators in the arena (including detached ones left
    /// behind by rewrites).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the arena is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Ids of operators reachable from the root (live operators).
    pub fn live_ops(&self) -> Vec<OpId> {
        let mut seen = vec![false; self.ops.len()];
        let mut stack = vec![self.root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if std::mem::replace(&mut seen[id.index()], true) {
                continue;
            }
            out.push(id);
            for c in self.children_of(id) {
                stack.push(c);
            }
        }
        out
    }

    /// Direct children (context, predicate, operand edges) of `id`.
    pub fn children_of(&self, id: OpId) -> Vec<OpId> {
        match self.op(id) {
            Operator::Root { child } => child.iter().copied().collect(),
            Operator::Step {
                context,
                predicates,
                ..
            } => context
                .iter()
                .copied()
                .chain(predicates.iter().copied())
                .collect(),
            Operator::ValueStep { context, .. } | Operator::RangeStep { context, .. } => {
                context.iter().copied().collect()
            }
            Operator::Literal { .. } | Operator::Number { .. } => Vec::new(),
            Operator::Exists { path } => vec![*path],
            Operator::Binary { left, right, .. }
            | Operator::Arith { left, right, .. }
            | Operator::Union { left, right }
            | Operator::Join { left, right, .. } => vec![*left, *right],
            Operator::Function { args, .. } => args.clone(),
            Operator::Neg { child } => vec![*child],
            Operator::Filter { input, predicates } => std::iter::once(*input)
                .chain(predicates.iter().copied())
                .collect(),
        }
    }

    /// The plan's output operator — the top of the context path: the
    /// root's child, or the root itself in a plan without a
    /// [`Operator::Root`] (`None` for an empty plan).
    pub fn top(&self) -> Option<OpId> {
        match self.op(self.root) {
            Operator::Root { child } => *child,
            _ => Some(self.root),
        }
    }

    /// Whether the plan emits a node-set as it runs — document order,
    /// each node once — so that nothing need sort its output: the static
    /// half of the order rule. It is a property of the output operator
    /// alone:
    ///
    /// * a step on a *downward* axis (`self`, `child`, `attribute`,
    ///   `descendant`, `descendant-or-self`, predicates or not) yields,
    ///   per context, an ascending run inside that context's subtree; the
    ///   runs follow each other in order whenever the contexts arrive one
    ///   whole subtree after another. That is a fact about the data and
    ///   about whatever produced the contexts, so the step witnesses it
    ///   as it runs ([`crate::exec::OpIter::order_broken`]), and a plan
    ///   whose witness trips is sorted after all;
    /// * a value or range step at the leaf reads one run of the value
    ///   index;
    /// * anything else — a reverse or sideways axis, a union, a join, a
    ///   filter — promises nothing.
    pub fn emits_in_order(&self) -> bool {
        let Some(top) = self.top() else {
            return true;
        };
        match self.op(top) {
            Operator::Step { axis, .. } => axis.is_downward(),
            Operator::ValueStep { context, .. } | Operator::RangeStep { context, .. } => {
                context.is_none()
            }
            _ => false,
        }
    }

    /// The context path of the plan: operator ids from the root's child
    /// down to the leaf, following context edges (paper §V-A).
    pub fn context_path(&self) -> Vec<OpId> {
        let mut out = Vec::new();
        let mut cur = self.top();
        while let Some(id) = cur {
            out.push(id);
            cur = match self.op(id) {
                Operator::Step { context, .. }
                | Operator::ValueStep { context, .. }
                | Operator::RangeStep { context, .. } => *context,
                _ => None,
            };
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_plan() -> QueryPlan {
        // R1 <- step(descendant::name) with predicate exists(child::text)
        let mut plan = QueryPlan::new(Vec::new(), OpId(0));
        let root = plan.push(Operator::Root { child: None });
        let text_step = plan.push(Operator::Step {
            axis: Axis::Child,
            test: TestSpec::Text,
            context: None,
            source: ContextSource::OuterTuple,
            predicates: Vec::new(),
        });
        let exists = plan.push(Operator::Exists { path: text_step });
        let step = plan.push(Operator::Step {
            axis: Axis::Descendant,
            test: TestSpec::Named("name".into()),
            context: None,
            source: ContextSource::QueryRoot,
            predicates: vec![exists],
        });
        *plan.op_mut(root) = Operator::Root { child: Some(step) };
        plan.set_root(root);
        plan
    }

    #[test]
    fn context_path_follows_context_edges() {
        let plan = tiny_plan();
        let path = plan.context_path();
        assert_eq!(path.len(), 1);
        assert!(matches!(
            plan.op(path[0]),
            Operator::Step {
                axis: Axis::Descendant,
                ..
            }
        ));
    }

    #[test]
    fn live_ops_reaches_predicate_trees() {
        let plan = tiny_plan();
        let live = plan.live_ops();
        assert_eq!(live.len(), 4);
    }

    #[test]
    fn children_of_step_includes_predicates() {
        let plan = tiny_plan();
        let step = plan.context_path()[0];
        let kids = plan.children_of(step);
        assert_eq!(kids.len(), 1); // no context child, one predicate
    }

    #[test]
    fn test_spec_display() {
        assert_eq!(TestSpec::Named("person".into()).to_string(), "person");
        assert_eq!(TestSpec::Wildcard.to_string(), "*");
        assert_eq!(TestSpec::Text.to_string(), "text()");
    }

    #[test]
    fn binop_labels() {
        assert_eq!(BinOp::Eq.label(), "EQ");
        assert_eq!(BinOp::And.label(), "AND");
    }
}
