//! Property tests for the FLWOR front end: `parse_xquery` parses or
//! returns `Err` on any input — arbitrary text, and soups of the tokens
//! its FLWOR and constructor scanners split on — and never panics.

use proptest::prelude::*;
use vamana_xquery::parse_xquery;

/// Clause keywords, variables, constructor markup, braces, quotes and
/// XPath fragments, plus multi-byte text to catch byte-index slicing off a
/// character boundary.
const TOKENS: &[&str] = &[
    "for",
    "let",
    "where",
    "order",
    "by",
    "return",
    "at",
    "in",
    "ascending",
    "descending",
    "$p",
    "$",
    ":=",
    ",",
    "<a>",
    "</a>",
    "<b x='1'>",
    "<a",
    "/>",
    ">",
    "</",
    "=",
    "{",
    "}",
    "'",
    "\"",
    "(",
    ")",
    "[",
    "]",
    "//person",
    "$p/name",
    "count(//x)",
    "é",
    "€",
    "\t",
];

fn soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0..TOKENS.len(), any::<bool>()), 0..24).prop_map(|tokens| {
        let mut s = String::new();
        for (token, space) in tokens {
            s.push_str(TOKENS[token]);
            if space {
                s.push(' ');
            }
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 2048, ..ProptestConfig::default() })]

    /// Arbitrary printable input never panics.
    #[test]
    fn parser_total_on_arbitrary_strings(input in ".{0,80}") {
        let _ = parse_xquery(&input);
    }

    /// FLWOR and constructor token soup never panics either.
    #[test]
    fn parser_total_on_flwor_token_soup(input in soup()) {
        let _ = parse_xquery(&input);
    }

    /// A FLWOR prefix over any soup: every clause parser is reached.
    #[test]
    fn parser_total_after_a_flwor_head(input in soup()) {
        let _ = parse_xquery(&format!("for $p in //person {input}"));
        let _ = parse_xquery(&format!("for $p in //person return <a>{input}"));
    }
}
