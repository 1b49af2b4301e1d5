//! XPath 1.0 lexer.
//!
//! Implements the spec's §3.7 lexical disambiguation: `*` is the
//! multiplication operator (and `and`/`or`/`div`/`mod` are operator
//! names) exactly when the preceding token implies an operand just ended;
//! otherwise `*` is a node-test wildcard and the words are names.

use crate::error::ParseError;

/// One lexical token with its source offset.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind/payload.
    pub kind: TokenKind,
    /// Byte offset in the expression text.
    pub offset: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// NCName or QName (`person`, `x:item`).
    Name(String),
    /// Numeric literal.
    Number(f64),
    /// String literal (quotes stripped).
    Literal(String),
    /// `/`
    Slash,
    /// `//`
    DoubleSlash,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `@`
    At,
    /// `.`
    Dot,
    /// `..`
    DotDot,
    /// `,`
    Comma,
    /// `|`
    Pipe,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*` as the wildcard node test.
    Star,
    /// `*` as multiplication (operator position).
    Multiply,
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
    /// `::`
    ColonColon,
    /// `$`
    Dollar,
    /// `and` in operator position.
    And,
    /// `or` in operator position.
    Or,
    /// `div` in operator position.
    Div,
    /// `mod` in operator position.
    Mod,
}

impl TokenKind {
    /// After these tokens, `*`/`and`/`or`/`div`/`mod` are *operators*
    /// (XPath 1.0 §3.7: preceding token is not `@`, `::`, `(`, `[`, `,`,
    /// or an operator).
    fn ends_operand(&self) -> bool {
        matches!(
            self,
            TokenKind::Name(_)
                | TokenKind::Number(_)
                | TokenKind::Literal(_)
                | TokenKind::RParen
                | TokenKind::RBracket
                | TokenKind::Dot
                | TokenKind::DotDot
                | TokenKind::Star
        )
    }
}

fn is_name_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_name_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '.')
}

/// Tokenizes `input`.
pub fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let bytes = input.as_bytes();
    let mut tokens: Vec<Token> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = input[i..].chars().next().expect("in bounds");
        let start = i;
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                i += 1;
                continue;
            }
            '/' => {
                if bytes.get(i + 1) == Some(&b'/') {
                    tokens.push(Token {
                        kind: TokenKind::DoubleSlash,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Slash,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '[' => {
                tokens.push(Token {
                    kind: TokenKind::LBracket,
                    offset: start,
                });
                i += 1;
            }
            ']' => {
                tokens.push(Token {
                    kind: TokenKind::RBracket,
                    offset: start,
                });
                i += 1;
            }
            '(' => {
                tokens.push(Token {
                    kind: TokenKind::LParen,
                    offset: start,
                });
                i += 1;
            }
            ')' => {
                tokens.push(Token {
                    kind: TokenKind::RParen,
                    offset: start,
                });
                i += 1;
            }
            '@' => {
                tokens.push(Token {
                    kind: TokenKind::At,
                    offset: start,
                });
                i += 1;
            }
            ',' => {
                tokens.push(Token {
                    kind: TokenKind::Comma,
                    offset: start,
                });
                i += 1;
            }
            '|' => {
                tokens.push(Token {
                    kind: TokenKind::Pipe,
                    offset: start,
                });
                i += 1;
            }
            '+' => {
                tokens.push(Token {
                    kind: TokenKind::Plus,
                    offset: start,
                });
                i += 1;
            }
            '-' => {
                tokens.push(Token {
                    kind: TokenKind::Minus,
                    offset: start,
                });
                i += 1;
            }
            '$' => {
                tokens.push(Token {
                    kind: TokenKind::Dollar,
                    offset: start,
                });
                i += 1;
            }
            '=' => {
                tokens.push(Token {
                    kind: TokenKind::Eq,
                    offset: start,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ne,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new("expected `!=`", start));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Le,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Lt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token {
                        kind: TokenKind::Ge,
                        offset: start,
                    });
                    i += 2;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Gt,
                        offset: start,
                    });
                    i += 1;
                }
            }
            ':' => {
                if bytes.get(i + 1) == Some(&b':') {
                    tokens.push(Token {
                        kind: TokenKind::ColonColon,
                        offset: start,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new("stray `:` (expected `::` or QName)", start));
                }
            }
            '*' => {
                let op_position = tokens.last().is_some_and(|t| t.kind.ends_operand());
                let kind = if op_position {
                    TokenKind::Multiply
                } else {
                    TokenKind::Star
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i += 1;
            }
            '.' => {
                if bytes.get(i + 1) == Some(&b'.') {
                    tokens.push(Token {
                        kind: TokenKind::DotDot,
                        offset: start,
                    });
                    i += 2;
                } else if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
                    // .5 style number
                    let (n, len) = lex_number(&input[i..], start)?;
                    tokens.push(Token {
                        kind: TokenKind::Number(n),
                        offset: start,
                    });
                    i += len;
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Dot,
                        offset: start,
                    });
                    i += 1;
                }
            }
            '\'' | '"' => {
                let quote = c;
                let rest = &input[i + 1..];
                let end = rest
                    .find(quote)
                    .ok_or_else(|| ParseError::new("unterminated string literal", start))?;
                tokens.push(Token {
                    kind: TokenKind::Literal(rest[..end].to_string()),
                    offset: start,
                });
                i += end + 2;
            }
            '0'..='9' => {
                let (n, len) = lex_number(&input[i..], start)?;
                tokens.push(Token {
                    kind: TokenKind::Number(n),
                    offset: start,
                });
                i += len;
            }
            c if is_name_start(c) => {
                let mut end = i;
                let mut colon_seen = false;
                for (rel, ch) in input[i..].char_indices() {
                    if is_name_char(ch) {
                        end = i + rel + ch.len_utf8();
                    } else if ch == ':'
                        && !colon_seen
                        && input[i + rel + 1..]
                            .chars()
                            .next()
                            .is_some_and(is_name_start)
                    {
                        // QName prefix, but not `::`.
                        if input.as_bytes().get(i + rel + 1) == Some(&b':') {
                            break;
                        }
                        colon_seen = true;
                        end = i + rel + 1;
                    } else {
                        break;
                    }
                }
                let word = &input[i..end];
                let op_position = tokens.last().is_some_and(|t| t.kind.ends_operand());
                let kind = match word {
                    "and" if op_position => TokenKind::And,
                    "or" if op_position => TokenKind::Or,
                    "div" if op_position => TokenKind::Div,
                    "mod" if op_position => TokenKind::Mod,
                    _ => TokenKind::Name(word.to_string()),
                };
                tokens.push(Token {
                    kind,
                    offset: start,
                });
                i = end;
            }
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{other}`"),
                    start,
                ));
            }
        }
    }
    Ok(tokens)
}

/// An expression's text with its string literals lifted out (see
/// [`shape`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// The tokens, whitespace dropped, one code each; every string literal
    /// is the same one-character slot. Two texts with equal keys parse to
    /// the same tree up to the values of those literals.
    pub key: String,
    /// The string literals, in text order: slot `i` holds `literals[i]`.
    pub literals: Vec<Box<str>>,
}

/// Tokenizes `input` and splits it into its [`Shape`]: `//a[@id='x']` and
/// `//a[ @id = "y" ]` share a key; `//a[1]` and `//a[2]` do not — numbers
/// stay in the key, since a plan may depend on one as a position.
pub fn shape(input: &str) -> Result<Shape, ParseError> {
    use std::fmt::Write as _;
    let mut key = String::with_capacity(input.len());
    let mut literals = Vec::new();
    for token in tokenize(input)? {
        // Names and numbers end in a space, numbers start with `#`; every
        // other token is one character no name starts with, so a key reads
        // back to exactly one token sequence.
        let code = match token.kind {
            TokenKind::Name(name) => {
                key.push_str(&name);
                ' '
            }
            TokenKind::Number(n) => {
                let _ = write!(key, "#{n}");
                ' '
            }
            TokenKind::Literal(value) => {
                literals.push(value.into_boxed_str());
                '\''
            }
            TokenKind::Slash => '/',
            TokenKind::DoubleSlash => '\\',
            TokenKind::LBracket => '[',
            TokenKind::RBracket => ']',
            TokenKind::LParen => '(',
            TokenKind::RParen => ')',
            TokenKind::At => '@',
            TokenKind::Dot => '.',
            TokenKind::DotDot => ':',
            TokenKind::Comma => ',',
            TokenKind::Pipe => '|',
            TokenKind::Plus => '+',
            TokenKind::Minus => '-',
            TokenKind::Star => '*',
            TokenKind::Multiply => '%',
            TokenKind::Eq => '=',
            TokenKind::Ne => '!',
            TokenKind::Lt => '<',
            TokenKind::Le => '{',
            TokenKind::Gt => '>',
            TokenKind::Ge => '}',
            TokenKind::ColonColon => ';',
            TokenKind::Dollar => '$',
            TokenKind::And => '&',
            TokenKind::Or => '^',
            TokenKind::Div => '~',
            TokenKind::Mod => '`',
        };
        key.push(code);
    }
    Ok(Shape { key, literals })
}

fn lex_number(s: &str, offset: usize) -> Result<(f64, usize), ParseError> {
    let mut len = 0;
    let mut dot = false;
    for ch in s.chars() {
        match ch {
            '0'..='9' => len += 1,
            '.' if !dot => {
                dot = true;
                len += 1;
            }
            _ => break,
        }
    }
    s[..len]
        .parse::<f64>()
        .map(|n| (n, len))
        .map_err(|_| ParseError::new("malformed number", offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_path() {
        assert_eq!(
            kinds("//person/address"),
            vec![
                TokenKind::DoubleSlash,
                TokenKind::Name("person".into()),
                TokenKind::Slash,
                TokenKind::Name("address".into()),
            ]
        );
    }

    #[test]
    fn lexes_axis_syntax() {
        assert_eq!(
            kinds("descendant::name"),
            vec![
                TokenKind::Name("descendant".into()),
                TokenKind::ColonColon,
                TokenKind::Name("name".into()),
            ]
        );
    }

    #[test]
    fn star_is_wildcard_after_axis() {
        assert_eq!(
            kinds("parent::*"),
            vec![
                TokenKind::Name("parent".into()),
                TokenKind::ColonColon,
                TokenKind::Star
            ]
        );
        assert_eq!(kinds("//*")[1], TokenKind::Star);
    }

    #[test]
    fn star_is_multiply_after_operand() {
        let k = kinds("2 * 3");
        assert_eq!(k[1], TokenKind::Multiply);
        let k = kinds("price * 2");
        assert_eq!(k[1], TokenKind::Multiply);
    }

    #[test]
    fn and_or_div_mod_positional() {
        let k = kinds("a and b");
        assert_eq!(k[1], TokenKind::And);
        // `and` as an element name in step position stays a name.
        let k = kinds("//and");
        assert_eq!(k[1], TokenKind::Name("and".into()));
        let k = kinds("6 div 2 mod 2");
        assert_eq!(k[1], TokenKind::Div);
        assert_eq!(k[3], TokenKind::Mod);
    }

    #[test]
    fn literals_both_quote_styles() {
        assert_eq!(
            kinds("'Yung Flach'"),
            vec![TokenKind::Literal("Yung Flach".into())]
        );
        assert_eq!(kinds("\"it's\""), vec![TokenKind::Literal("it's".into())]);
    }

    #[test]
    fn numbers_integer_decimal_leading_dot() {
        assert_eq!(kinds("42"), vec![TokenKind::Number(42.0)]);
        assert_eq!(kinds("3.5"), vec![TokenKind::Number(3.5)]);
        assert_eq!(kinds(".5"), vec![TokenKind::Number(0.5)]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(
            kinds("a <= b != c >= d"),
            vec![
                TokenKind::Name("a".into()),
                TokenKind::Le,
                TokenKind::Name("b".into()),
                TokenKind::Ne,
                TokenKind::Name("c".into()),
                TokenKind::Ge,
                TokenKind::Name("d".into()),
            ]
        );
    }

    #[test]
    fn dot_and_dotdot() {
        assert_eq!(kinds(". .."), vec![TokenKind::Dot, TokenKind::DotDot]);
    }

    #[test]
    fn qname_lexes_as_one_name() {
        assert_eq!(kinds("x:item"), vec![TokenKind::Name("x:item".into())]);
        // but axis::name is three tokens
        assert_eq!(kinds("self::item").len(), 3);
    }

    #[test]
    fn hyphenated_names() {
        assert_eq!(
            kinds("following-sibling::emailaddress")[0],
            TokenKind::Name("following-sibling".into())
        );
    }

    #[test]
    fn errors_carry_offsets() {
        assert_eq!(tokenize("a ! b").unwrap_err().offset, 2);
        assert!(tokenize("'unterminated").is_err());
        assert!(tokenize("#").is_err());
    }

    #[test]
    fn variable_reference() {
        assert_eq!(
            kinds("$v"),
            vec![TokenKind::Dollar, TokenKind::Name("v".into())]
        );
    }

    #[test]
    fn shape_lifts_string_literals_and_keeps_every_other_token() {
        let a = shape("//a[@id='x']/b").unwrap();
        let b = shape("//a[ @id = \"it's\" ] / b").unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.literals, vec![Box::from("x")]);
        assert_eq!(b.literals, vec![Box::from("it's")]);
        for other in [
            "//a[@id=x]/b",
            "//a[@id='x']//b",
            "//a[@id!='x']/b",
            "//ab[@id='x']/b",
            "//a[1]/b",
        ] {
            assert_ne!(shape(other).unwrap().key, a.key, "{other}");
        }
        assert_ne!(shape("//a[1]").unwrap().key, shape("//a[2]").unwrap().key);
        assert!(shape("//a['open]").is_err());
    }

    #[test]
    fn offsets_track_positions() {
        let toks = tokenize("//a[1]").unwrap();
        assert_eq!(toks[0].offset, 0);
        assert_eq!(toks[1].offset, 2);
        assert_eq!(toks[2].offset, 3);
        assert_eq!(toks[3].offset, 4);
    }
}
