//! Result-row rendering and the escaping that keeps a value on one line.
//!
//! A node-set renders as one line per node, `<name> string-value`,
//! truncated to a configurable width, capped at a configurable row limit.
//! Only what is shown is read: one cursor sweeps the shown rows
//! ([`vamana_mass::MassStore::value_prefixes`]) and stops each value's walk
//! one character past the width. A reply value travels through
//! [`escape_line`], and a client that needs the text back uses
//! [`unescape_line`].

use vamana_core::{Engine, NodeEntry, Result};

/// Rendering knobs.
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Maximum rows rendered (`0` = unlimited).
    pub limit: usize,
    /// Maximum characters of string-value shown per row.
    pub value_width: usize,
}

impl Default for RenderOptions {
    fn default() -> Self {
        RenderOptions {
            limit: 20,
            value_width: 60,
        }
    }
}

/// A rendered node-set: up to `limit` formatted rows plus the total
/// cardinality (callers print "… N more" from the difference).
#[derive(Debug, Clone)]
pub struct Rendered {
    /// `<name> value` lines, one per shown row.
    pub lines: Vec<String>,
    /// Total result cardinality (≥ `lines.len()`).
    pub total: usize,
}

impl Rendered {
    /// Rows beyond the limit that were not rendered.
    pub fn truncated(&self) -> usize {
        self.total - self.lines.len()
    }
}

/// Rows a reply shows of `total` under a row cap of `limit` (`0` =
/// unlimited).
pub(crate) fn shown_rows(limit: usize, total: usize) -> usize {
    match limit {
        0 => total,
        _ => total.min(limit),
    }
}

/// Renders `nodes` (name + truncated string-value per row) under `opts`.
pub fn render_rows(engine: &Engine, nodes: &[NodeEntry], opts: &RenderOptions) -> Result<Rendered> {
    let shown = &nodes[..shown_rows(opts.limit, nodes.len())];
    let store = engine.store();
    let width = opts.value_width;
    let prefixes = store.value_prefixes(shown.iter().map(|node| &node.key), width)?;
    let lines = shown
        .iter()
        .zip(prefixes)
        .map(|(node, (name, value))| {
            // A value-index tuple carries no name: its record has it.
            let name = node.name.or(name).map_or("", |n| store.names().resolve(n));
            let mut line = String::with_capacity(name.len() + value.len() + 6);
            line.push('<');
            line.push_str(name);
            line.push_str("> ");
            match value.char_indices().nth(width) {
                Some((cut, _)) => {
                    line.push_str(&value[..cut]);
                    line.push('…');
                }
                None => line.push_str(&value),
            }
            line
        })
        .collect();
    Ok(Rendered {
        lines,
        total: nodes.len(),
    })
}

/// Protocol values are single-line: escapes the characters that would
/// break framing (`\\`, `\n`, `\r`, `\t`).
pub fn escape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// The length of `escape_line(s)`, without building it.
pub(crate) fn escaped_len(s: &str) -> usize {
    s.len()
        + s.bytes()
            .filter(|b| matches!(b, b'\\' | b'\n' | b'\r' | b'\t'))
            .count()
}

/// Appends `s` to `out` as [`escape_line`] escapes it.
pub(crate) fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c => out.push(c),
        }
    }
}

/// The inverse of [`escape_line`]. A backslash before any other
/// character, or at the end, is kept as it is.
pub fn unescape_line(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vamana_core::{Engine, MassStore};

    fn engine() -> Engine {
        let mut store = MassStore::open_memory();
        store
            .load_xml(
                "d",
                "<r><p><n>Ann</n></p><p><n>Bob</n></p><p><n>Cyd</n></p></r>",
            )
            .unwrap();
        Engine::new(store)
    }

    #[test]
    fn renders_name_and_value_up_to_limit() {
        let e = engine();
        let nodes = e.query("//n").unwrap();
        let r = render_rows(
            &e,
            &nodes,
            &RenderOptions {
                limit: 2,
                value_width: 60,
            },
        )
        .unwrap();
        assert_eq!(r.lines, vec!["<n> Ann", "<n> Bob"]);
        assert_eq!(r.total, 3);
        assert_eq!(r.truncated(), 1);
    }

    #[test]
    fn zero_limit_means_unlimited_and_width_truncates() {
        let e = engine();
        let nodes = e.query("//n").unwrap();
        let r = render_rows(
            &e,
            &nodes,
            &RenderOptions {
                limit: 0,
                value_width: 2,
            },
        )
        .unwrap();
        assert_eq!(r.lines.len(), 3);
        assert_eq!(r.lines[0], "<n> An…");
        assert_eq!(r.truncated(), 0);
    }

    #[test]
    fn escape_round_trips_framing_characters() {
        assert_eq!(escape_line("a\tb\nc\\d"), "a\\tb\\nc\\\\d");
        assert_eq!(escape_line("plain"), "plain");
        assert_eq!(unescape_line("a\\tb\\nc\\\\d"), "a\tb\nc\\d");
        assert_eq!(unescape_line("plain"), "plain");
        assert_eq!(unescape_line("trailing\\"), "trailing\\");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Any string survives the wire: the escaped form is one line,
        /// [`escaped_len`] long, and reads back as the string, framing
        /// characters and backslash runs included.
        #[test]
        fn unescape_inverts_escape(s in "[a-z\\\\\n\r\t\u{e9}\u{1f600} n]{0,40}") {
            let escaped = escape_line(&s);
            prop_assert!(!escaped.contains(['\n', '\r']), "{escaped:?}");
            prop_assert_eq!(escaped.len(), escaped_len(&s));
            prop_assert_eq!(unescape_line(&escaped), s);
        }
    }
}
