//! The request grammar, in both directions: [`parse_line`] turns one
//! request line into a [`Parsed`] action and [`Request::to_line`] writes
//! a request back out. The server, the router and the shell all parse with it;
//! `DESIGN.md` ("Protocol grammar") is its specification.

use vamana_core::UpdateOp;

/// Where a `LOAD`/`LOADXML` payload comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadSource {
    /// Inline XML on the request line (`LOADXML`).
    Inline(String),
    /// A path readable by the server process (`LOAD`).
    File(String),
}

/// The read verbs, which share one operand form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadVerb {
    /// `QUERY`: rows over every document, or the one in scope.
    Query,
    /// `EVAL`: full XPath on document 0, or the one in scope.
    Eval,
    /// `EXPLAIN`: both plans and the optimizer trace.
    Explain,
    /// `ANALYZE`: an instrumented run.
    Analyze,
}

/// What one request line asks the engine for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// `<verb> [JSON] [DOC <doc>] <xpath>`; only `EXPLAIN` and `ANALYZE`
    /// take `JSON`.
    Read {
        /// Which read.
        verb: ReadVerb,
        /// The `JSON` modifier.
        json: bool,
        /// The `DOC` scope.
        doc: Option<String>,
        /// The expression.
        xpath: String,
    },
    /// `INSERT <doc> <target> <fragment>` or `DELETE <doc> <target>`.
    Update {
        /// The document, by name or id.
        doc: String,
        /// What to change.
        op: UpdateOp,
    },
    /// `CHECKPOINT`.
    Checkpoint,
    /// `LOADXML <name> <xml>` or `LOAD <name> <path>`.
    Load {
        /// The new document's name.
        name: String,
        /// Its XML.
        source: LoadSource,
    },
    /// `STATS`.
    Stats,
    /// `DOCS`.
    Docs,
    /// `CACHE [LIST]`.
    CacheList,
    /// `CACHE CLEAR`.
    CacheClear,
    /// `LAG`.
    Lag,
}

/// One request line, parsed: a connection-level action or a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed {
    /// `PING`.
    Ping,
    /// `QUIT`.
    Quit,
    /// `LIMIT [<n>]`: set the connection's row cap, or report it.
    Limit(Option<usize>),
    /// `REPLICATE <from>`: the connection becomes a WAL frame feed.
    Replicate(u64),
    /// Anything that runs against the engine.
    Run(Request),
}

impl Request {
    /// Mutating verbs, which a read-only replica refuses.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Update { .. } | Request::Checkpoint | Request::Load { .. }
        )
    }

    /// Control-plane requests skip the query metrics and the deadline.
    pub(crate) fn is_control(&self) -> bool {
        matches!(
            self,
            Request::Stats
                | Request::Docs
                | Request::CacheList
                | Request::CacheClear
                | Request::Lag
        )
    }

    /// The request line that [`parse_line`] reads back as this request.
    pub fn to_line(&self) -> String {
        match self {
            Request::Read {
                verb,
                json,
                doc,
                xpath,
            } => {
                let verb = match verb {
                    ReadVerb::Query => "QUERY",
                    ReadVerb::Eval => "EVAL",
                    ReadVerb::Explain => "EXPLAIN",
                    ReadVerb::Analyze => "ANALYZE",
                };
                let json = if *json { " JSON" } else { "" };
                match doc {
                    Some(doc) => format!("{verb}{json} DOC {doc} {xpath}"),
                    None => format!("{verb}{json} {xpath}"),
                }
            }
            Request::Update {
                doc,
                op: UpdateOp::Insert { target, fragment },
            } => format!("INSERT {doc} {target} {fragment}"),
            Request::Update {
                doc,
                op: UpdateOp::Delete { target },
            } => format!("DELETE {doc} {target}"),
            Request::Checkpoint => "CHECKPOINT".into(),
            Request::Load {
                name,
                source: LoadSource::Inline(xml),
            } => format!("LOADXML {name} {xml}"),
            Request::Load {
                name,
                source: LoadSource::File(path),
            } => format!("LOAD {name} {path}"),
            Request::Stats => "STATS".into(),
            Request::Docs => "DOCS".into(),
            Request::CacheList => "CACHE LIST".into(),
            Request::CacheClear => "CACHE CLEAR".into(),
            Request::Lag => "LAG".into(),
        }
    }
}

/// Parses one request line (without its newline). `Err` is the message
/// of the `ERR proto …` reply for a line outside the grammar.
pub fn parse_line(line: &str) -> Result<Parsed, String> {
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    let request = match verb {
        "PING" => return Ok(Parsed::Ping),
        "QUIT" => return Ok(Parsed::Quit),
        "LIMIT" if rest.is_empty() => return Ok(Parsed::Limit(None)),
        "LIMIT" => {
            return rest
                .parse()
                .map(|n| Parsed::Limit(Some(n)))
                .map_err(|_| "LIMIT needs a non-negative integer".into())
        }
        "REPLICATE" => {
            return rest
                .parse()
                .map(Parsed::Replicate)
                .map_err(|_| "REPLICATE needs a starting LSN".into())
        }
        "STATS" => Request::Stats,
        "DOCS" => Request::Docs,
        "CACHE" => match rest {
            "" | "LIST" => Request::CacheList,
            "CLEAR" => Request::CacheClear,
            _ => return Err("CACHE takes LIST or CLEAR".into()),
        },
        "LAG" => Request::Lag,
        "CHECKPOINT" => Request::Checkpoint,
        "LOADXML" | "LOAD" => {
            let Some((name, payload)) = rest.split_once(' ').map(|(n, p)| (n, p.trim())) else {
                return Err(format!("{verb} needs a name and a payload"));
            };
            let payload = payload.to_string();
            Request::Load {
                name: name.to_string(),
                source: match verb {
                    "LOAD" => LoadSource::File(payload),
                    _ => LoadSource::Inline(payload),
                },
            }
        }
        "INSERT" | "DELETE" => parse_update(verb, rest)?,
        "QUERY" | "EVAL" | "EXPLAIN" | "ANALYZE" => {
            let read = match verb {
                "QUERY" => ReadVerb::Query,
                "EVAL" => ReadVerb::Eval,
                "EXPLAIN" => ReadVerb::Explain,
                _ => ReadVerb::Analyze,
            };
            // EXPLAIN/ANALYZE take an optional JSON modifier, and every
            // read verb an optional DOC scope, before the expression:
            // `EXPLAIN JSON DOC auction //a/b`.
            let (json, rest) = match rest.strip_prefix("JSON") {
                Some(r)
                    if r.starts_with(' ')
                        && matches!(read, ReadVerb::Explain | ReadVerb::Analyze) =>
                {
                    (true, r.trim())
                }
                _ => (false, rest),
            };
            let (doc, xpath) = match rest.strip_prefix("DOC ") {
                Some(r) => match r.trim_start().split_once(' ') {
                    Some((d, x)) => (Some(d.to_string()), x.trim()),
                    None => {
                        return Err(format!(
                            "{verb} DOC needs a document and an XPath expression"
                        ))
                    }
                },
                None => (None, rest),
            };
            if xpath.is_empty() {
                return Err(format!("{verb} needs an XPath expression"));
            }
            Request::Read {
                verb: read,
                json,
                doc,
                xpath: xpath.to_string(),
            }
        }
        _ => return Err(format!("unknown request {verb}")),
    };
    Ok(Parsed::Run(request))
}

/// Parses `INSERT <doc> <target> <fragment>` and `DELETE <doc> <target>`.
/// The insert fragment is split from the target XPath at the first ` <`:
/// a fragment is always markup, and a `<` comparison in the target is
/// written without a leading space (or the line is refused as missing its
/// fragment).
fn parse_update(verb: &str, rest: &str) -> Result<Request, String> {
    let needs = || format!("{verb} needs a document and a target XPath");
    let (doc, tail) = rest
        .split_once(' ')
        .map(|(d, t)| (d, t.trim()))
        .ok_or_else(needs)?;
    if doc.is_empty() || tail.is_empty() {
        return Err(needs());
    }
    let op = match verb {
        "INSERT" => {
            let Some(at) = tail.find(" <") else {
                return Err("INSERT needs an XML fragment after the target XPath".into());
            };
            let (target, fragment) = tail.split_at(at);
            UpdateOp::Insert {
                target: target.trim().to_string(),
                fragment: fragment.trim().to_string(),
            }
        }
        _ => UpdateOp::Delete {
            target: tail.to_string(),
        },
    };
    Ok(Request::Update {
        doc: doc.to_string(),
        op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MAX_LINE;
    use proptest::prelude::*;

    /// Random UTF-8 up to `MAX_LINE` bytes: one, two, three and four byte
    /// characters in equal shares, so verbs, spaces and `<` show up too.
    fn utf8_line() -> impl Strategy<Value = String> {
        proptest::collection::vec(any::<u32>(), 0..MAX_LINE / 4).prop_map(|draws| {
            draws
                .into_iter()
                .map(|d| {
                    let c = match d % 4 {
                        0 => (d >> 2) % 0x80,
                        1 => 0x80 + (d >> 2) % 0x780,
                        2 => 0x800 + (d >> 2) % 0xF800,
                        _ => 0x10000 + (d >> 2) % 0x100000,
                    };
                    char::from_u32(c).unwrap_or('\u{FFFD}')
                })
                .collect()
        })
    }

    /// An operand the grammar carries verbatim: no whitespace at either
    /// end, no ` <`, and not starting with a modifier keyword.
    fn operand() -> impl Strategy<Value = String> {
        "/[a-z@*()\\[\\]'=. /|:-]{0,20}[a-z*)\\]]"
    }

    fn token() -> impl Strategy<Value = String> {
        "[a-z0-9_.-]{1,8}"
    }

    fn fragment() -> impl Strategy<Value = String> {
        "<[a-z]{1,6} [a-z]{1,3}='[a-z<> ]{0,6}'/>"
    }

    fn scope() -> impl Strategy<Value = Option<String>> {
        proptest::option::of(token())
    }

    /// Every variant of [`Parsed`], with operands the grammar can carry.
    fn parsed() -> impl Strategy<Value = Parsed> {
        let verbs = [
            ReadVerb::Query,
            ReadVerb::Eval,
            ReadVerb::Explain,
            ReadVerb::Analyze,
        ];
        prop_oneof![
            Just(Parsed::Ping),
            Just(Parsed::Quit),
            proptest::option::of(any::<usize>()).prop_map(Parsed::Limit),
            any::<u64>().prop_map(Parsed::Replicate),
            (0..verbs.len(), any::<bool>(), scope(), operand()).prop_map(
                move |(verb, json, doc, xpath)| {
                    let verb = verbs[verb];
                    let json = json && matches!(verb, ReadVerb::Explain | ReadVerb::Analyze);
                    Parsed::Run(Request::Read {
                        verb,
                        json,
                        doc,
                        xpath,
                    })
                }
            ),
            (token(), operand(), fragment()).prop_map(|(doc, target, fragment)| {
                Parsed::Run(Request::Update {
                    doc,
                    op: UpdateOp::Insert { target, fragment },
                })
            }),
            (token(), operand()).prop_map(|(doc, target)| {
                Parsed::Run(Request::Update {
                    doc,
                    op: UpdateOp::Delete { target },
                })
            }),
            Just(Parsed::Run(Request::Checkpoint)),
            (token(), fragment()).prop_map(|(name, xml)| {
                Parsed::Run(Request::Load {
                    name,
                    source: LoadSource::Inline(xml),
                })
            }),
            (token(), operand()).prop_map(|(name, path)| {
                Parsed::Run(Request::Load {
                    name,
                    source: LoadSource::File(path),
                })
            }),
            Just(Parsed::Run(Request::Stats)),
            Just(Parsed::Run(Request::Docs)),
            Just(Parsed::Run(Request::CacheList)),
            Just(Parsed::Run(Request::CacheClear)),
            Just(Parsed::Run(Request::Lag)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// `parse_line` returns on any line a client can send, and never
        /// panics.
        #[test]
        fn parse_line_returns_on_random_utf8(line in utf8_line()) {
            prop_assert!(line.len() <= MAX_LINE);
            let _ = parse_line(&line);
        }

        #[test]
        fn parse_line_returns_on_verb_soup(seed in any::<u64>()) {
            let _ = parse_line(&crate::testkit::verb_soup(seed));
        }
    }

    /// The line of a connection-level action, or of a request as
    /// [`Request::to_line`] writes it.
    fn line_of(parsed: &Parsed) -> String {
        match parsed {
            Parsed::Ping => "PING".into(),
            Parsed::Quit => "QUIT".into(),
            Parsed::Limit(None) => "LIMIT".into(),
            Parsed::Limit(Some(n)) => format!("LIMIT {n}"),
            Parsed::Replicate(from) => format!("REPLICATE {from}"),
            Parsed::Run(request) => request.to_line(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

        /// The grammar is spelled once: what `to_line` writes, `parse_line`
        /// reads back as the same request.
        #[test]
        fn to_line_round_trips_through_parse_line(p in parsed()) {
            prop_assert_eq!(parse_line(&line_of(&p)), Ok(p));
        }
    }

    #[test]
    fn parse_line_covers_the_grammar() {
        assert_eq!(parse_line("PING"), Ok(Parsed::Ping));
        assert_eq!(parse_line("QUIT"), Ok(Parsed::Quit));
        assert_eq!(parse_line("LIMIT 5"), Ok(Parsed::Limit(Some(5))));
        assert_eq!(parse_line("LIMIT"), Ok(Parsed::Limit(None)));
        let read = |verb, json, doc: Option<&str>, xpath: &str| Request::Read {
            verb,
            json,
            doc: doc.map(str::to_string),
            xpath: xpath.to_string(),
        };
        assert_eq!(
            run_of("QUERY //a"),
            read(ReadVerb::Query, false, None, "//a")
        );
        assert_eq!(
            run_of("QUERY DOC auction //a"),
            read(ReadVerb::Query, false, Some("auction"), "//a")
        );
        assert_eq!(
            run_of("ANALYZE JSON DOC auction //a"),
            read(ReadVerb::Analyze, true, Some("auction"), "//a")
        );
        // Only EXPLAIN and ANALYZE take the modifier.
        assert_eq!(
            run_of("EVAL JSON //a"),
            read(ReadVerb::Eval, false, None, "JSON //a")
        );
        assert_eq!(run_of("STATS"), Request::Stats);
        assert_eq!(run_of("DOCS"), Request::Docs);
        assert_eq!(parse_line("REPLICATE 7"), Ok(Parsed::Replicate(7)));
        assert!(parse_line("NONSENSE").is_err_and(|e| e.starts_with("unknown")));
        assert!(parse_line("LIMIT many").is_err());
        assert!(parse_line("INSERT d //a").is_err());
    }

    #[test]
    fn writes_are_the_mutating_verbs() {
        for line in [
            "LOADXML d <a/>",
            "LOAD d a.xml",
            "INSERT d //a <b/>",
            "DELETE d //a",
        ] {
            assert!(run_of(line).is_write(), "{line}");
        }
        assert!(run_of("CHECKPOINT").is_write());
        for line in ["QUERY //a", "EVAL 1", "STATS", "CACHE CLEAR", "LAG", "DOCS"] {
            assert!(!run_of(line).is_write(), "{line}");
        }
    }

    fn run_of(line: &str) -> Request {
        match parse_line(line) {
            Ok(Parsed::Run(request)) => request,
            other => panic!("{line}: {other:?}"),
        }
    }
}
