//! Recursive-descent parser for XPath 1.0.
//!
//! Grammar (simplified from the spec, full precedence honored):
//!
//! ```text
//! Expr        := OrExpr
//! OrExpr      := AndExpr ('or' AndExpr)*
//! AndExpr     := EqExpr ('and' EqExpr)*
//! EqExpr      := RelExpr (('='|'!=') RelExpr)*
//! RelExpr     := AddExpr (('<'|'<='|'>'|'>=') AddExpr)*
//! AddExpr     := MulExpr (('+'|'-') MulExpr)*
//! MulExpr     := UnaryExpr (('*'|'div'|'mod') UnaryExpr)*
//! UnaryExpr   := '-'* UnionExpr
//! UnionExpr   := PathExpr ('|' PathExpr)*
//! PathExpr    := LocationPath | FilterExpr (('/'|'//') RelativePath)?
//! FilterExpr  := PrimaryExpr Predicate*
//! PrimaryExpr := '$'Name | '(' Expr ')' | Literal | Number | FunctionCall
//! ```

use crate::ast::{ArithOp, EqOp, Expr, LocationPath, NodeTest, RelOp, Step};
use crate::error::ParseError;
use crate::lexer::{tokenize, Token, TokenKind};
use vamana_flex::Axis;

/// How deep the parsed expression tree may be: every parenthesis,
/// predicate, function argument and unary minus goes one level down,
/// and so does every further operand of an operator chain (`a or b or
/// c` is a left-deep tree) and every step of a path (a step's context
/// is the step before it). The parser, the plan builder, the optimizer
/// rules and the executor all recurse once per level, so this bounds
/// their stack use on any input. Measured on a 2 MB thread stack, whole
/// pipeline: a release build first overflows past 400 nested
/// parentheses or predicates (800 levels by this count) and 1600 steps;
/// a debug build between 128 and 192 levels. Within one scope the count
/// is a running one — links and steps of sibling operands add up, so
/// `@a = 1 or @a = 2 or …` fits about forty alternatives; the paper's
/// and XMark's queries are under twenty deep by this count.
pub const MAX_DEPTH: usize = 128;

/// Parses an XPath 1.0 expression.
pub fn parse(input: &str) -> Result<Expr, ParseError> {
    let tokens = tokenize(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        len: input.len(),
        depth: 0,
        below: 0,
    };
    let expr = p.expr()?;
    if let Some(t) = p.peek() {
        return Err(ParseError::new(
            "trailing tokens after expression",
            t.offset,
        ));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    len: usize,
    /// Levels above the parse position: the enclosing scopes (see
    /// [`Parser::nested`]) and the chain links of the current one.
    depth: usize,
    /// Height of the tallest finished sub-expression of the current
    /// scope — a later chain link goes on top of it. `depth + below`
    /// never exceeds [`MAX_DEPTH`].
    below: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek_kind(&self) -> Option<&TokenKind> {
        self.peek().map(|t| &t.kind)
    }

    fn peek2_kind(&self) -> Option<&TokenKind> {
        self.tokens.get(self.pos + 1).map(|t| &t.kind)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn offset(&self) -> usize {
        self.peek().map(|t| t.offset).unwrap_or(self.len)
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek_kind() == Some(kind) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(ParseError::new(format!("expected {what}"), self.offset()))
        }
    }

    // ---- expression precedence chain ----------------------------------

    /// One level down within the current scope: a further operand of an
    /// operator chain, or a further step of a path.
    fn link(&mut self) -> Result<(), ParseError> {
        if self.depth + self.below >= MAX_DEPTH {
            return Err(ParseError::new(
                format!("expression is more than {MAX_DEPTH} levels deep"),
                self.offset(),
            ));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs `f` in a scope of its own, one level down; the height the
    /// scope reached counts against whatever this scope still stacks on
    /// top of it.
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        let (depth, below) = (self.depth, self.below);
        self.below = 0;
        self.link()?;
        let expr = f(self)?;
        let height = self.depth - depth + self.below;
        self.depth = depth;
        self.below = below.max(height);
        Ok(expr)
    }

    /// Every nested expression (parenthesized, predicate, argument)
    /// enters here.
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Self::or_expr)
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.and_expr()?;
        while self.eat(&TokenKind::Or) {
            self.link()?;
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.eq_expr()?;
        while self.eat(&TokenKind::And) {
            self.link()?;
            let right = self.eq_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn eq_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.rel_expr()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Eq) => EqOp::Eq,
                Some(TokenKind::Ne) => EqOp::Ne,
                _ => break,
            };
            self.bump();
            self.link()?;
            let right = self.rel_expr()?;
            left = Expr::Equality(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn rel_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.add_expr()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Lt) => RelOp::Lt,
                Some(TokenKind::Le) => RelOp::Le,
                Some(TokenKind::Gt) => RelOp::Gt,
                Some(TokenKind::Ge) => RelOp::Ge,
                _ => break,
            };
            self.bump();
            self.link()?;
            let right = self.add_expr()?;
            left = Expr::Relational(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.mul_expr()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Plus) => ArithOp::Add,
                Some(TokenKind::Minus) => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            self.link()?;
            let right = self.mul_expr()?;
            left = Expr::Arithmetic(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.unary_expr()?;
        loop {
            let op = match self.peek_kind() {
                Some(TokenKind::Multiply) => ArithOp::Mul,
                Some(TokenKind::Div) => ArithOp::Div,
                Some(TokenKind::Mod) => ArithOp::Mod,
                _ => break,
            };
            self.bump();
            self.link()?;
            let right = self.unary_expr()?;
            left = Expr::Arithmetic(op, Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&TokenKind::Minus) {
            let inner = self.nested(Self::unary_expr)?;
            return Ok(Expr::Neg(Box::new(inner)));
        }
        self.union_expr()
    }

    fn union_expr(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.path_expr()?;
        while self.eat(&TokenKind::Pipe) {
            self.link()?;
            let right = self.path_expr()?;
            left = Expr::Union(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    // ---- paths ----------------------------------------------------------

    /// Is the upcoming token sequence a filter-expression primary rather
    /// than a location path?
    fn starts_filter(&self) -> bool {
        match self.peek_kind() {
            Some(
                TokenKind::Dollar
                | TokenKind::Literal(_)
                | TokenKind::Number(_)
                | TokenKind::LParen,
            ) => true,
            Some(TokenKind::Name(name)) => {
                // A function call — unless it's a node-type test, which
                // belongs to a location step.
                matches!(self.peek2_kind(), Some(TokenKind::LParen))
                    && !matches!(
                        name.as_str(),
                        "text" | "node" | "comment" | "processing-instruction"
                    )
            }
            _ => false,
        }
    }

    fn path_expr(&mut self) -> Result<Expr, ParseError> {
        if self.starts_filter() {
            let primary = self.primary_expr()?;
            let mut predicates = Vec::new();
            while self.peek_kind() == Some(&TokenKind::LBracket) {
                predicates.push(self.predicate()?);
            }
            let path = if self.peek_kind() == Some(&TokenKind::Slash) {
                self.bump();
                Some(self.relative_path(false)?)
            } else if self.peek_kind() == Some(&TokenKind::DoubleSlash) {
                self.bump();
                Some(self.relative_path(true)?)
            } else {
                None
            };
            if predicates.is_empty() && path.is_none() {
                return Ok(primary);
            }
            return Ok(Expr::Filter {
                primary: Box::new(primary),
                predicates,
                path,
            });
        }
        Ok(Expr::Path(self.full_location_path()?))
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        let offset = self.offset();
        match self.bump().map(|t| t.kind) {
            Some(TokenKind::Dollar) => match self.bump().map(|t| t.kind) {
                Some(TokenKind::Name(n)) => Ok(Expr::Var(n.into())),
                _ => Err(ParseError::new("expected variable name after `$`", offset)),
            },
            Some(TokenKind::LParen) => {
                let inner = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(inner)
            }
            Some(TokenKind::Literal(s)) => Ok(Expr::Literal(s.into())),
            Some(TokenKind::Number(n)) => Ok(Expr::Number(n)),
            Some(TokenKind::Name(name)) => {
                self.expect(&TokenKind::LParen, "`(` after function name")?;
                let mut args = Vec::new();
                if self.peek_kind() != Some(&TokenKind::RParen) {
                    loop {
                        args.push(self.expr()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&TokenKind::RParen, "`)` after arguments")?;
                Ok(Expr::FunctionCall(name.into(), args))
            }
            _ => Err(ParseError::new("expected primary expression", offset)),
        }
    }

    fn predicate(&mut self) -> Result<Expr, ParseError> {
        self.expect(&TokenKind::LBracket, "`[`")?;
        let inner = self.expr()?;
        self.expect(&TokenKind::RBracket, "`]`")?;
        Ok(inner)
    }

    // ---- location paths ---------------------------------------------------

    fn full_location_path(&mut self) -> Result<LocationPath, ParseError> {
        match self.peek_kind() {
            Some(TokenKind::Slash) => {
                self.bump();
                // Bare `/` selects the document root.
                if self.starts_step() {
                    let mut path = self.relative_path(false)?;
                    path.absolute = true;
                    Ok(path)
                } else {
                    Ok(LocationPath {
                        absolute: true,
                        steps: Vec::new(),
                    })
                }
            }
            Some(TokenKind::DoubleSlash) => {
                self.bump();
                let mut path = self.relative_path(true)?;
                path.absolute = true;
                Ok(path)
            }
            _ => self.relative_path(false),
        }
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek_kind(),
            Some(
                TokenKind::Name(_)
                    | TokenKind::Star
                    | TokenKind::At
                    | TokenKind::Dot
                    | TokenKind::DotDot
            )
        )
    }

    /// Parses `Step (('/'|'//') Step)*`, prepending a
    /// `descendant-or-self::node()` step when `leading_double` is set.
    fn relative_path(&mut self, leading_double: bool) -> Result<LocationPath, ParseError> {
        let mut steps = Vec::new();
        if leading_double {
            steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
        }
        loop {
            self.link()?;
            steps.push(self.step()?);
            if self.eat(&TokenKind::Slash) {
                continue;
            }
            if self.eat(&TokenKind::DoubleSlash) {
                steps.push(Step::new(Axis::DescendantOrSelf, NodeTest::Node));
                continue;
            }
            break;
        }
        Ok(LocationPath {
            absolute: false,
            steps,
        })
    }

    fn step(&mut self) -> Result<Step, ParseError> {
        let offset = self.offset();
        // Abbreviations.
        if self.eat(&TokenKind::Dot) {
            return Ok(Step::new(Axis::SelfAxis, NodeTest::Node));
        }
        if self.eat(&TokenKind::DotDot) {
            return Ok(Step::new(Axis::Parent, NodeTest::Node));
        }
        let axis = if self.eat(&TokenKind::At) {
            Axis::Attribute
        } else if let (Some(TokenKind::Name(name)), Some(TokenKind::ColonColon)) =
            (self.peek_kind(), self.peek2_kind())
        {
            let axis = Axis::parse(name)
                .ok_or_else(|| ParseError::new(format!("unknown axis `{name}`"), offset))?;
            self.bump();
            self.bump();
            axis
        } else {
            Axis::Child
        };
        let test = self.node_test()?;
        let mut step = Step::new(axis, test);
        while self.peek_kind() == Some(&TokenKind::LBracket) {
            step.predicates.push(self.predicate()?);
        }
        Ok(step)
    }

    fn node_test(&mut self) -> Result<NodeTest, ParseError> {
        let offset = self.offset();
        match self.bump().map(|t| t.kind) {
            Some(TokenKind::Star) => Ok(NodeTest::Wildcard),
            Some(TokenKind::Name(name)) => {
                if self.peek_kind() == Some(&TokenKind::LParen) {
                    // Node-type test.
                    self.bump();
                    let test = match name.as_str() {
                        "text" => NodeTest::Text,
                        "node" => NodeTest::Node,
                        "comment" => NodeTest::Comment,
                        "processing-instruction" => {
                            if let Some(TokenKind::Literal(target)) = self.peek_kind().cloned() {
                                self.bump();
                                NodeTest::Pi(Some(target.into()))
                            } else {
                                NodeTest::Pi(None)
                            }
                        }
                        other => {
                            return Err(ParseError::new(
                                format!("`{other}(...)` is not a node test"),
                                offset,
                            ))
                        }
                    };
                    self.expect(&TokenKind::RParen, "`)` after node-type test")?;
                    Ok(test)
                } else if name.ends_with(":*") {
                    Ok(NodeTest::NsWildcard(name[..name.len() - 2].into()))
                } else {
                    Ok(NodeTest::Name(name.into()))
                }
            }
            _ => Err(ParseError::new("expected node test", offset)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(input: &str) -> LocationPath {
        match parse(input).unwrap() {
            Expr::Path(p) => p,
            other => panic!("expected path, got {other:?}"),
        }
    }

    #[test]
    fn paper_q1_parses() {
        // §III Q1: descendant::name/parent::*/self::person/address
        let p = path("descendant::name/parent::*/self::person/address");
        assert!(!p.absolute);
        assert_eq!(p.steps.len(), 4);
        assert_eq!(p.steps[0].axis, Axis::Descendant);
        assert_eq!(p.steps[1].axis, Axis::Parent);
        assert_eq!(p.steps[1].test, NodeTest::Wildcard);
        assert_eq!(p.steps[2].axis, Axis::SelfAxis);
        assert_eq!(p.steps[3].axis, Axis::Child);
        assert_eq!(p.steps[3].test, NodeTest::Name("address".into()));
    }

    #[test]
    fn paper_q2_parses() {
        // §III Q2: //name[text() = 'Yung Flach']/following-sibling::emailaddress
        let p = path("//name[text() = 'Yung Flach']/following-sibling::emailaddress");
        assert!(p.absolute);
        assert_eq!(p.steps.len(), 3); // descendant-or-self::node(), name, following-sibling
        assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[0].test, NodeTest::Node);
        assert_eq!(p.steps[1].test, NodeTest::Name("name".into()));
        assert_eq!(p.steps[1].predicates.len(), 1);
        match &p.steps[1].predicates[0] {
            Expr::Equality(EqOp::Eq, l, r) => {
                assert!(matches!(**l, Expr::Path(_)));
                assert!(matches!(**r, Expr::Literal(ref s) if &**s == "Yung Flach"));
            }
            other => panic!("wrong predicate: {other:?}"),
        }
        assert_eq!(p.steps[2].axis, Axis::FollowingSibling);
    }

    #[test]
    fn eval_queries_parse() {
        // All five queries of the experimental section.
        for q in [
            "//person/address",
            "//watches/watch/ancestor::person",
            "/descendant::name/parent::*/self::person/address",
            "//itemref/following-sibling::price/parent::*",
            "//province[text()='Vermont']/ancestor::person",
        ] {
            assert!(parse(q).is_ok(), "failed to parse {q}");
        }
    }

    #[test]
    fn abbreviations_expand() {
        let p = path("../@id");
        assert_eq!(p.steps[0].axis, Axis::Parent);
        assert_eq!(p.steps[0].test, NodeTest::Node);
        assert_eq!(p.steps[1].axis, Axis::Attribute);
        assert_eq!(p.steps[1].test, NodeTest::Name("id".into()));
        let p = path(".");
        assert_eq!(p.steps[0].axis, Axis::SelfAxis);
    }

    #[test]
    fn double_slash_inserts_descendant_or_self() {
        let p = path("a//b");
        assert_eq!(p.steps.len(), 3);
        assert_eq!(p.steps[1].axis, Axis::DescendantOrSelf);
        assert_eq!(p.steps[1].test, NodeTest::Node);
    }

    #[test]
    fn bare_root_path() {
        let p = path("/");
        assert!(p.absolute);
        assert!(p.steps.is_empty());
    }

    #[test]
    fn position_predicate() {
        let p = path("//person[3]");
        assert!(matches!(p.steps[1].predicates[0], Expr::Number(n) if n == 3.0));
    }

    #[test]
    fn nested_predicates() {
        let p = path("//person[address[city='Monroe']]");
        let pred = &p.steps[1].predicates[0];
        match pred {
            Expr::Path(inner) => {
                assert_eq!(inner.steps[0].test, NodeTest::Name("address".into()));
                assert_eq!(inner.steps[0].predicates.len(), 1);
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn boolean_and_comparison_precedence() {
        // a = 1 or b = 2 and c = 3  →  or(eq, and(eq, eq))
        let e = parse("a = 1 or b = 2 and c = 3").unwrap();
        match e {
            Expr::Or(l, r) => {
                assert!(matches!(*l, Expr::Equality(..)));
                assert!(matches!(*r, Expr::And(..)));
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_precedence() {
        // 1 + 2 * 3  →  add(1, mul(2,3))
        let e = parse("1 + 2 * 3").unwrap();
        match e {
            Expr::Arithmetic(ArithOp::Add, l, r) => {
                assert!(matches!(*l, Expr::Number(n) if n == 1.0));
                assert!(matches!(*r, Expr::Arithmetic(ArithOp::Mul, ..)));
            }
            other => panic!("wrong: {other:?}"),
        }
        assert!(matches!(
            parse("6 div 2").unwrap(),
            Expr::Arithmetic(ArithOp::Div, ..)
        ));
        assert!(matches!(
            parse("7 mod 2").unwrap(),
            Expr::Arithmetic(ArithOp::Mod, ..)
        ));
    }

    #[test]
    fn unary_minus() {
        assert!(matches!(parse("-1").unwrap(), Expr::Neg(_)));
        assert!(matches!(parse("--1").unwrap(), Expr::Neg(_)));
    }

    #[test]
    fn union_of_paths() {
        let e = parse("//a | //b").unwrap();
        assert!(matches!(e, Expr::Union(..)));
    }

    #[test]
    fn function_calls() {
        let e = parse("count(//person)").unwrap();
        match e {
            Expr::FunctionCall(name, args) => {
                assert_eq!(&*name, "count");
                assert_eq!(args.len(), 1);
            }
            other => panic!("wrong: {other:?}"),
        }
        assert!(parse("concat('a', 'b', 'c')").is_ok());
        assert!(parse("not(position() = last())").is_ok());
    }

    #[test]
    fn filter_expression_with_trailing_path() {
        let e = parse("(//person)[1]/name").unwrap();
        match e {
            Expr::Filter {
                predicates, path, ..
            } => {
                assert_eq!(predicates.len(), 1);
                assert!(path.is_some());
            }
            other => panic!("wrong: {other:?}"),
        }
    }

    #[test]
    fn kind_tests() {
        assert_eq!(path("//comment()").steps[1].test, NodeTest::Comment);
        assert_eq!(path("//node()").steps[1].test, NodeTest::Node);
        assert_eq!(
            path("//processing-instruction('php')").steps[1].test,
            NodeTest::Pi(Some("php".into()))
        );
    }

    #[test]
    fn all_axes_parse() {
        for axis in Axis::ALL {
            let q = format!("{}::node()", axis.as_str());
            let p = path(&q);
            assert_eq!(p.steps[0].axis, axis, "axis {axis}");
        }
    }

    #[test]
    fn variable_reference_parses() {
        assert!(matches!(parse("$x").unwrap(), Expr::Var(v) if &*v == "x"));
    }

    #[test]
    fn range_predicates_parse() {
        let p = path("//price[. >= 10]");
        assert!(matches!(
            p.steps[1].predicates[0],
            Expr::Relational(RelOp::Ge, ..)
        ));
        let p = path("//price[. < 20 and . > 5]");
        assert!(matches!(p.steps[1].predicates[0], Expr::And(..)));
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse("").is_err());
        assert!(parse("//").is_err());
        assert!(parse("//a[").is_err());
        assert!(parse("foo(").is_err());
        assert!(parse("sideways::a").is_err());
        assert!(parse("//a]").is_err());
        assert!(parse("1 +").is_err());
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            parse("//person/address").unwrap(),
            parse("  // person / address  ").unwrap()
        );
    }

    #[test]
    fn tree_depth_is_bounded() {
        let too_deep = |q: &str| {
            let err = parse(q).unwrap_err().to_string();
            assert!(err.contains("more than 128 levels deep"), "{err}");
        };
        // The whole expression is level 1; each `(`, `[`, argument list
        // or unary minus goes one level down, a path step one more.
        let parens = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse(&parens(MAX_DEPTH - 1)).unwrap(), Expr::Number(1.0));
        too_deep(&parens(MAX_DEPTH));
        let minuses = |n: usize| format!("{}1", "-".repeat(n));
        assert!(parse(&minuses(MAX_DEPTH - 1)).is_ok());
        too_deep(&minuses(MAX_DEPTH));
        let preds = |n: usize| format!("{}a{}", "a[".repeat(n), "]".repeat(n));
        assert!(parse(&preds(MAX_DEPTH / 2 - 1)).is_ok());
        too_deep(&preds(MAX_DEPTH / 2));
        // Chains and paths are as deep as they are long.
        let sum = |n: usize| vec!["1"; n].join(" + ");
        assert!(parse(&sum(MAX_DEPTH)).is_ok());
        too_deep(&sum(MAX_DEPTH + 1));
        let path = |n: usize| vec!["a"; n].join("/");
        assert!(parse(&path(MAX_DEPTH - 1)).is_ok());
        too_deep(&path(MAX_DEPTH));
        let union = |n: usize| vec!["a"; n].join(" | ");
        assert!(parse(&union(MAX_DEPTH / 2)).is_ok());
        too_deep(&union(MAX_DEPTH));
        // A chain on top of a deep operand adds to it...
        too_deep(&format!("{} + {}", parens(MAX_DEPTH - 10), sum(20)));
        // ...but siblings do not add up: depth, not size.
        let wide = vec![parens(MAX_DEPTH / 2); 3].join(" , ");
        assert!(parse(&format!("concat({wide})")).is_ok());
        // What used to overflow the stack is an error like any other.
        too_deep(&parens(10_000));
        too_deep(&minuses(10_000));
        too_deep(&path(10_000));
        too_deep(&sum(10_000));
    }
}
