//! Serialization of a [`Document`] back to XML text.

use crate::escape::{escape_attr, escape_text};
use crate::model::{Document, NodeId, NodeKind};
use std::fmt::Write as _;

/// Options controlling serialization.
#[derive(Debug, Clone, Default)]
pub struct WriteOptions {
    /// Emit an `<?xml version="1.0"?>` declaration first.
    pub declaration: bool,
    /// Indent nested elements by this many spaces per level
    /// (`None` = compact output, required for byte-exact round-trips).
    pub indent: Option<usize>,
}

/// Serializes the whole document.
pub fn write_document(doc: &Document, opts: &WriteOptions) -> String {
    let mut out = String::new();
    if opts.declaration {
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    for child in doc.children(Document::ROOT) {
        write_node(doc, child, opts, &mut out);
        if opts.indent.is_some() {
            out.push('\n');
        }
    }
    out
}

fn write_indent(out: &mut String, opts: &WriteOptions, level: usize) {
    if let Some(n) = opts.indent {
        out.push('\n');
        for _ in 0..level * n {
            out.push(' ');
        }
    }
}

/// Writes `top` and its subtree in one walk with an explicit stack of the
/// open elements: no recursion, however deep the document.
fn write_node(doc: &Document, top: NodeId, opts: &WriteOptions, out: &mut String) {
    // Each open element with whether its content is mixed (any text
    // child), which suppresses indentation so that significant text is not
    // polluted with whitespace.
    let mut open: Vec<(NodeId, bool)> = Vec::new();
    let mut next = Some(top);
    loop {
        let id = match next {
            Some(id) => id,
            // The innermost open element has no more children: close it.
            None => {
                let (id, mixed) = open.pop().expect("a written node closes its element");
                if !mixed {
                    write_indent(out, opts, open.len());
                }
                let _ = write!(out, "</{}>", doc.name(id).unwrap_or(""));
                if open.is_empty() {
                    return;
                }
                next = doc.next_sibling(id);
                continue;
            }
        };
        if open.last().is_some_and(|&(_, mixed)| !mixed) {
            write_indent(out, opts, open.len());
        }
        match doc.kind(id) {
            NodeKind::Document => {}
            NodeKind::Element { name } => {
                out.push('<');
                out.push_str(name);
                for attr in doc.attributes(id) {
                    let _ = write!(
                        out,
                        " {}=\"{}\"",
                        doc.name(attr).unwrap_or(""),
                        escape_attr(doc.value(attr).unwrap_or(""))
                    );
                }
                if let Some(first) = doc.first_child(id) {
                    out.push('>');
                    let mixed = doc.children(id).any(|c| doc.kind(c).is_text());
                    open.push((id, mixed));
                    next = Some(first);
                    continue;
                }
                out.push_str("/>");
            }
            NodeKind::Text { value } => out.push_str(&escape_text(value)),
            NodeKind::Comment { value } => {
                let _ = write!(out, "<!--{value}-->");
            }
            NodeKind::ProcessingInstruction { target, data } => {
                if data.is_empty() {
                    let _ = write!(out, "<?{target}?>");
                } else {
                    let _ = write!(out, "<?{target} {data}?>");
                }
            }
            NodeKind::Attribute { .. } => unreachable!("attributes are written with their element"),
        }
        if open.is_empty() {
            return;
        }
        next = doc.next_sibling(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_round_trip() {
        let src = r#"<person id="p1"><name>Yung Flach</name><watches><watch open_auction="oa1"/></watches></person>"#;
        let doc = parse(src).unwrap();
        let out = write_document(&doc, &WriteOptions::default());
        assert_eq!(out, src);
    }

    #[test]
    fn escapes_round_trip() {
        let src = r#"<a b="x &amp; y">1 &lt; 2 &amp; 3</a>"#;
        let doc = parse(src).unwrap();
        let out = write_document(&doc, &WriteOptions::default());
        let doc2 = parse(&out).unwrap();
        assert_eq!(
            doc.string_value(doc.root_element().unwrap()),
            doc2.string_value(doc2.root_element().unwrap())
        );
    }

    #[test]
    fn indentation_applies_to_element_only_content() {
        let doc = parse("<a><b><c/></b></a>").unwrap();
        let out = write_document(
            &doc,
            &WriteOptions {
                declaration: false,
                indent: Some(2),
            },
        );
        assert!(out.contains("\n  <b>"), "{out}");
        assert!(out.contains("\n    <c/>"), "{out}");
    }

    #[test]
    fn mixed_content_is_not_indented() {
        let doc = parse("<a>text<b/></a>").unwrap();
        let out = write_document(
            &doc,
            &WriteOptions {
                declaration: false,
                indent: Some(2),
            },
        );
        assert!(out.contains("<a>text<b/></a>"), "{out}");
    }

    #[test]
    fn declaration_emitted_when_requested() {
        let doc = parse("<a/>").unwrap();
        let out = write_document(
            &doc,
            &WriteOptions {
                declaration: true,
                indent: None,
            },
        );
        assert!(out.starts_with("<?xml"));
    }

    #[test]
    fn nested_indentation_and_mixed_content() {
        let src = "<a x=\"1\"><b><c/><d>t<e/></d></b><!--n--></a>";
        let doc = parse(src).unwrap();
        assert_eq!(write_document(&doc, &WriteOptions::default()), src);
        let opts = WriteOptions {
            declaration: false,
            indent: Some(1),
        };
        let want = "<a x=\"1\">\n <b>\n  <c/>\n  <d>t<e/></d>\n </b>\n <!--n-->\n</a>\n";
        assert_eq!(write_document(&doc, &opts), want);
    }

    #[test]
    fn a_document_deeper_than_the_stack_would_allow_is_written() {
        // 6 000 levels, written on a thread with a 2 MB stack, which a frame
        // per level would overflow.
        const DEPTH: usize = 6_000;
        let mut doc = Document::new();
        let mut parent = Document::ROOT;
        for _ in 0..DEPTH {
            parent = doc.push_element(parent, "d");
        }
        doc.push_text(parent, "x");
        let out = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || write_document(&doc, &WriteOptions::default()))
            .unwrap()
            .join()
            .expect("the writer overflowed its stack");
        assert_eq!(
            out,
            format!("{}x{}", "<d>".repeat(DEPTH), "</d>".repeat(DEPTH))
        );
    }

    #[test]
    fn comments_and_pis_round_trip() {
        let src = "<a><!--note--><?go now?></a>";
        let doc = parse(src).unwrap();
        assert_eq!(write_document(&doc, &WriteOptions::default()), src);
    }
}
