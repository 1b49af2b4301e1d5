//! FLWOR parser.
//!
//! The parser handles the FLWOR skeleton and element constructors itself
//! and delegates every expression fragment to the XPath parser. Clause
//! keywords (`for`, `let`, `where`, `order`, `return`) are reserved at
//! top level inside FLWOR expressions; element names inside XPath
//! fragments may still use them (`//for`) because keyword detection
//! requires a word boundary on both sides at bracket depth zero.

use crate::ast::{Clause, Content, Flwor, XqExpr};
use crate::{Result, XQueryError};
use vamana_xpath::parser::MAX_DEPTH;

/// Parses an XQuery-lite expression: a FLWOR, an element constructor, or
/// a plain XPath expression.
pub fn parse_xquery(input: &str) -> Result<XqExpr> {
    parse_at(input, 0)
}

/// One FLWOR or constructor level below `depth`. The parser and the
/// evaluator recurse once per level, so nesting has the XPath parser's
/// budget (each embedded XPath fragment has its own on top).
fn descend(depth: usize) -> Result<usize> {
    if depth == MAX_DEPTH {
        return Err(XQueryError::Parse(format!(
            "expression is more than {MAX_DEPTH} levels deep"
        )));
    }
    Ok(depth + 1)
}

fn parse_at(input: &str, depth: usize) -> Result<XqExpr> {
    let trimmed = input.trim();
    if trimmed.is_empty() {
        return Err(XQueryError::Parse("empty expression".into()));
    }
    if starts_with_keyword(trimmed, "for") || starts_with_keyword(trimmed, "let") {
        return parse_flwor(trimmed, depth);
    }
    if trimmed.starts_with('<') {
        let (ctor, rest) = parse_ctor(trimmed, depth)?;
        if !rest.trim().is_empty() {
            return Err(XQueryError::Parse(format!(
                "unexpected trailing content after constructor: `{}`",
                rest.trim()
            )));
        }
        return Ok(ctor);
    }
    Ok(XqExpr::XPath(vamana_xpath::parse(trimmed)?))
}

fn starts_with_keyword(s: &str, kw: &str) -> bool {
    s.starts_with(kw)
        && s[kw.len()..]
            .chars()
            .next()
            .is_some_and(|c| c.is_whitespace())
}

/// Scans `s` for the first top-level occurrence of any of `stops`
/// (word-bounded, outside quotes/brackets/braces), returning
/// (fragment-before, rest-including-keyword).
fn split_at_keyword<'a>(s: &'a str, stops: &[&str]) -> (&'a str, &'a str) {
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut quote: Option<u8> = None;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            i += 1;
            continue;
        }
        match b {
            b'\'' | b'"' => quote = Some(b),
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            _ => {}
        }
        if depth == 0 && (i == 0 || bytes[i - 1].is_ascii_whitespace()) {
            for stop in stops {
                if s[i..].starts_with(stop)
                    && s[i + stop.len()..]
                        .chars()
                        .next()
                        .is_none_or(|c| c.is_whitespace())
                {
                    return (&s[..i], &s[i..]);
                }
            }
        }
        i += 1;
    }
    (s, "")
}

const CLAUSE_STOPS: &[&str] = &["for", "let", "where", "order", "return"];

fn parse_flwor(input: &str, depth: usize) -> Result<XqExpr> {
    let depth = descend(depth)?;
    let mut clauses = Vec::new();
    let mut rest = input;

    // for / let clauses
    loop {
        rest = rest.trim_start();
        if starts_with_keyword(rest, "for") {
            rest = &rest[3..];
            loop {
                let (var, after) = parse_var(rest)?;
                let after = after.trim_start();
                let (pos, after) = if starts_with_keyword(after, "at") {
                    let (pos_var, rest2) = parse_var(&after[2..])?;
                    (Some(pos_var), rest2)
                } else {
                    (None, after)
                };
                let after = expect_word(after, "in")?;
                let (frag, next) = split_at_keyword_or_comma(after);
                let source = vamana_xpath::parse(frag.trim())?;
                clauses.push(Clause::For { var, pos, source });
                rest = next;
                if let Some(stripped) = rest.trim_start().strip_prefix(',') {
                    rest = stripped;
                    continue;
                }
                break;
            }
        } else if starts_with_keyword(rest, "let") {
            rest = &rest[3..];
            let (var, after) = parse_var(rest)?;
            let after = expect_symbol(after, ":=")?;
            let (frag, next) = split_at_keyword(after, CLAUSE_STOPS);
            let source = vamana_xpath::parse(frag.trim())?;
            clauses.push(Clause::Let { var, source });
            rest = next;
        } else {
            break;
        }
    }
    if clauses.is_empty() {
        return Err(XQueryError::Parse(
            "FLWOR needs at least one for/let clause".into(),
        ));
    }

    // where
    let mut where_clause = None;
    rest = rest.trim_start();
    if starts_with_keyword(rest, "where") {
        let (frag, next) = split_at_keyword(&rest[5..], &["order", "return"]);
        where_clause = Some(vamana_xpath::parse(frag.trim())?);
        rest = next;
    }

    // order by
    let mut order_by = None;
    rest = rest.trim_start();
    if starts_with_keyword(rest, "order") {
        let after = expect_word(&rest[5..], "by")?;
        let (frag, next) = split_at_keyword(after, &["return"]);
        let mut frag = frag.trim();
        let mut descending = false;
        if let Some(stripped) = frag.strip_suffix("descending") {
            frag = stripped.trim_end();
            descending = true;
        } else if let Some(stripped) = frag.strip_suffix("ascending") {
            frag = stripped.trim_end();
        }
        order_by = Some((vamana_xpath::parse(frag)?, descending));
        rest = next;
    }

    // return
    rest = rest.trim_start();
    if !starts_with_keyword(rest, "return") {
        return Err(XQueryError::Parse(format!(
            "expected `return`, found `{}`",
            rest.chars().take(20).collect::<String>()
        )));
    }
    let ret_src = rest[6..].trim();
    let ret = parse_return(ret_src, depth)?;

    Ok(XqExpr::Flwor(Box::new(Flwor {
        clauses,
        where_clause,
        order_by,
        ret,
    })))
}

fn split_at_keyword_or_comma(s: &str) -> (&str, &str) {
    // Like split_at_keyword but also stops at a top-level comma (multiple
    // for-bindings).
    let (frag, rest) = split_at_keyword(s, CLAUSE_STOPS);
    let bytes = frag.as_bytes();
    let mut depth = 0i32;
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            continue;
        }
        match b {
            b'\'' | b'"' => quote = Some(b),
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b',' if depth == 0 => return (&frag[..i], &s[i..]),
            _ => {}
        }
    }
    (frag, rest)
}

fn parse_var(s: &str) -> Result<(String, &str)> {
    let s = s.trim_start();
    let s = s
        .strip_prefix('$')
        .ok_or_else(|| XQueryError::Parse("expected `$variable`".into()))?;
    let end = s
        .char_indices()
        .find(|(_, c)| !c.is_alphanumeric() && *c != '_' && *c != '-')
        .map(|(i, _)| i)
        .unwrap_or(s.len());
    if end == 0 {
        return Err(XQueryError::Parse("empty variable name".into()));
    }
    Ok((s[..end].to_string(), &s[end..]))
}

fn expect_word<'a>(s: &'a str, word: &str) -> Result<&'a str> {
    let s = s.trim_start();
    if starts_with_keyword(s, word) {
        Ok(&s[word.len()..])
    } else {
        Err(XQueryError::Parse(format!("expected `{word}`")))
    }
}

fn expect_symbol<'a>(s: &'a str, sym: &str) -> Result<&'a str> {
    let s = s.trim_start();
    s.strip_prefix(sym)
        .ok_or_else(|| XQueryError::Parse(format!("expected `{sym}`")))
}

fn parse_return(s: &str, depth: usize) -> Result<XqExpr> {
    if s.starts_with('<') {
        let (ctor, rest) = parse_ctor(s, depth)?;
        if !rest.trim().is_empty() {
            return Err(XQueryError::Parse(format!(
                "unexpected content after return constructor: `{}`",
                rest.trim()
            )));
        }
        Ok(ctor)
    } else if starts_with_keyword(s, "for") || starts_with_keyword(s, "let") {
        parse_flwor(s, depth)
    } else {
        Ok(XqExpr::XPath(vamana_xpath::parse(s)?))
    }
}

/// Parses one element constructor, returning it and the remaining input.
fn parse_ctor(s: &str, depth: usize) -> Result<(XqExpr, &str)> {
    let depth = descend(depth)?;
    let inner = s
        .strip_prefix('<')
        .ok_or_else(|| XQueryError::Parse("expected `<`".into()))?;
    let name_end = inner
        .char_indices()
        .find(|(_, c)| !c.is_alphanumeric() && *c != '_' && *c != '-' && *c != ':')
        .map(|(i, _)| i)
        .unwrap_or(inner.len());
    if name_end == 0 {
        return Err(XQueryError::Parse(
            "constructor needs an element name".into(),
        ));
    }
    let name = inner[..name_end].to_string();
    let mut rest = &inner[name_end..];

    // Static attributes.
    let mut attrs = Vec::new();
    loop {
        rest = rest.trim_start();
        if let Some(r) = rest.strip_prefix("/>") {
            return Ok((
                XqExpr::ElementCtor {
                    name,
                    attrs,
                    children: Vec::new(),
                },
                r,
            ));
        }
        if let Some(r) = rest.strip_prefix('>') {
            rest = r;
            break;
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| XQueryError::Parse("malformed constructor attribute".into()))?;
        let aname = rest[..eq].trim().to_string();
        let after_eq = rest[eq + 1..].trim_start();
        let quote = after_eq
            .chars()
            .next()
            .filter(|c| *c == '"' || *c == '\'')
            .ok_or_else(|| XQueryError::Parse("attribute value must be quoted".into()))?;
        let vend = after_eq[1..]
            .find(quote)
            .ok_or_else(|| XQueryError::Parse("unterminated attribute value".into()))?;
        attrs.push((aname, after_eq[1..1 + vend].to_string()));
        rest = &after_eq[vend + 2..];
    }

    // Content until the matching close tag.
    let mut children = Vec::new();
    loop {
        if rest.is_empty() {
            return Err(XQueryError::Parse(format!("unterminated <{name}>")));
        }
        if let Some(r) = rest.strip_prefix("</") {
            let r = r
                .strip_prefix(name.as_str())
                .ok_or_else(|| XQueryError::Parse(format!("mismatched close tag for <{name}>")))?;
            let r = r.trim_start();
            let r = r
                .strip_prefix('>')
                .ok_or_else(|| XQueryError::Parse("malformed close tag".into()))?;
            return Ok((
                XqExpr::ElementCtor {
                    name,
                    attrs,
                    children,
                },
                r,
            ));
        }
        if rest.starts_with('<') {
            let (child, r) = parse_ctor(rest, depth)?;
            children.push(Content::Embed(child));
            rest = r;
            continue;
        }
        if rest.starts_with('{') {
            let end = matching_brace(rest)
                .ok_or_else(|| XQueryError::Parse("unterminated `{`".into()))?;
            let inner_expr = parse_at(&rest[1..end], depth)?;
            children.push(Content::Embed(inner_expr));
            rest = &rest[end + 1..];
            continue;
        }
        // Literal text up to the next '<' or '{'.
        let stop = rest.find(['<', '{']).unwrap_or(rest.len());
        let text = &rest[..stop];
        if !text.trim().is_empty() {
            children.push(Content::Text(text.to_string()));
        }
        rest = &rest[stop..];
    }
}

/// Index of the `}` matching the `{` at position 0 (quote-aware).
fn matching_brace(s: &str) -> Option<usize> {
    debug_assert!(s.starts_with('{'));
    let bytes = s.as_bytes();
    let mut depth = 0i32;
    let mut quote: Option<u8> = None;
    for (i, &b) in bytes.iter().enumerate() {
        if let Some(q) = quote {
            if b == q {
                quote = None;
            }
            continue;
        }
        match b {
            b'\'' | b'"' => quote = Some(b),
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use vamana_xpath::Expr;

    #[test]
    fn plain_xpath_passes_through() {
        let q = parse_xquery("//person/name").unwrap();
        assert!(matches!(q, XqExpr::XPath(Expr::Path(_))));
    }

    #[test]
    fn simple_for_return() {
        let q = parse_xquery("for $p in //person return $p/name").unwrap();
        let XqExpr::Flwor(f) = q else { panic!() };
        assert_eq!(f.clauses.len(), 1);
        assert!(matches!(&f.clauses[0], Clause::For { var, pos: None, .. } if var == "p"));
        assert!(f.where_clause.is_none());
        assert!(matches!(f.ret, XqExpr::XPath(_)));
    }

    #[test]
    fn let_where_order_by() {
        let q = parse_xquery(
            "for $p in //person let $n := $p/name where $p/age > 30 order by $n descending return $n",
        )
        .unwrap();
        let XqExpr::Flwor(f) = q else { panic!() };
        assert_eq!(f.clauses.len(), 2);
        assert!(matches!(&f.clauses[1], Clause::Let { var, .. } if var == "n"));
        assert!(f.where_clause.is_some());
        let (_, desc) = f.order_by.as_ref().unwrap();
        assert!(*desc);
    }

    #[test]
    fn multiple_for_bindings() {
        let q = parse_xquery("for $a in //x, $b in //y return $a").unwrap();
        let XqExpr::Flwor(f) = q else { panic!() };
        assert_eq!(f.clauses.len(), 2);
    }

    #[test]
    fn element_constructor_with_embeds() {
        let q = parse_xquery(
            "for $p in //person return <row id=\"r1\">name: { $p/name } <b>!</b></row>",
        )
        .unwrap();
        let XqExpr::Flwor(f) = q else { panic!() };
        let XqExpr::ElementCtor {
            name,
            attrs,
            children,
        } = &f.ret
        else {
            panic!()
        };
        assert_eq!(name, "row");
        assert_eq!(attrs[0], ("id".to_string(), "r1".to_string()));
        assert!(children.len() >= 3);
        assert!(matches!(&children[0], Content::Text(t) if t.contains("name:")));
    }

    #[test]
    fn nested_flwor_in_return() {
        let q =
            parse_xquery("for $p in //people return for $n in $p/person return $n/name").unwrap();
        let XqExpr::Flwor(outer) = q else { panic!() };
        assert!(matches!(outer.ret, XqExpr::Flwor(_)));
    }

    #[test]
    fn keywords_inside_predicates_do_not_split() {
        // `[. = 'return of the king']` must not terminate the clause.
        let q = parse_xquery("for $b in //book[. = 'return of the king'] return $b").unwrap();
        let XqExpr::Flwor(f) = q else { panic!() };
        assert_eq!(f.clauses.len(), 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_xquery("").is_err());
        assert!(parse_xquery("for $p //person return $p").is_err()); // missing in
        assert!(parse_xquery("for $p in //person").is_err()); // missing return
        assert!(parse_xquery("for p in //x return $p").is_err()); // missing $
        assert!(parse_xquery("for $p in //person return <a>{").is_err());
        assert!(parse_xquery("for $p in //person return <a></b>").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let ctors = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        assert!(parse_xquery(&ctors(MAX_DEPTH)).is_ok());
        assert!(parse_xquery(&ctors(MAX_DEPTH + 1)).is_err());
        assert!(parse_xquery(&ctors(10_000)).is_err());
        let flwors = "for $a in //x return ".repeat(10_000) + "$a";
        assert!(parse_xquery(&flwors).is_err());
        // The embedded XPath fragments carry the XPath parser's budget.
        let deep = format!("<a>{{ {}1{} }}</a>", "(".repeat(10_000), ")".repeat(10_000));
        assert!(parse_xquery(&deep).is_err());
    }

    #[test]
    fn positional_variable_parses() {
        let q = parse_xquery("for $p at $i in //person return $i").unwrap();
        let XqExpr::Flwor(f) = q else { panic!() };
        assert!(matches!(
            &f.clauses[0],
            Clause::For { var, pos: Some(p), .. } if var == "p" && p == "i"
        ));
    }

    #[test]
    fn standalone_constructor() {
        let q = parse_xquery("<report>{ count(//person) }</report>").unwrap();
        assert!(matches!(q, XqExpr::ElementCtor { .. }));
    }
}
