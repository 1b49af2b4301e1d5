//! The DOM builder: a [`Document`] arena from the [`Tokenizer`]'s events.
//!
//! What the document may hold, and the text and whitespace rules, are the
//! tokenizer's; this module only links its events into a tree.

use crate::error::XmlError;
use crate::model::{Document, NodeId};
use crate::tokenizer::{Event, Tokenizer};

/// Parses `input` into a [`Document`].
///
/// This is the main entry point of the crate:
///
/// ```
/// let doc = vamana_xml::parse("<a><b/>text</a>").unwrap();
/// assert_eq!(doc.name(doc.root_element().unwrap()), Some("a"));
/// ```
pub fn parse(input: &str) -> Result<Document, XmlError> {
    parse_tokens(Tokenizer::new(input))
}

/// Builds a [`Document`] from the events of `tokens` — [`parse`] under
/// the tokenizer's options:
///
/// ```
/// use vamana_xml::{parse_tokens, Tokenizer};
///
/// let doc = parse_tokens(Tokenizer::new("<a> <b/> </a>").preserve_whitespace()).unwrap();
/// assert_eq!(doc.children(doc.root_element().unwrap()).count(), 3);
/// ```
///
/// The open elements form an explicit stack, so arbitrarily deep
/// documents cannot overflow the call stack.
pub fn parse_tokens(tokens: Tokenizer<'_>) -> Result<Document, XmlError> {
    let mut doc = Document::new();
    let mut open: Vec<NodeId> = vec![Document::ROOT];
    for event in tokens {
        let parent = *open.last().expect("the document node stays open");
        match event? {
            Event::Start(name) => open.push(doc.push_element(parent, name)),
            Event::Attribute(name, value) => {
                doc.push_attribute(parent, name, &value);
            }
            Event::End(_) => {
                open.pop();
            }
            Event::Text(value) => {
                doc.push_text(parent, &value);
            }
            Event::Comment(value) => {
                doc.push_comment(parent, value);
            }
            Event::Pi(target, data) => {
                doc.push_pi(parent, target, data);
            }
        }
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::XmlErrorKind;
    use crate::model::NodeKind;

    #[test]
    fn parses_nested_elements_and_text() {
        let doc = parse("<person><name>Yung Flach</name></person>").unwrap();
        let person = doc.root_element().unwrap();
        let name = doc.first_child(person).unwrap();
        assert_eq!(doc.name(name), Some("name"));
        assert_eq!(doc.string_value(name), "Yung Flach");
    }

    #[test]
    fn parses_attributes_with_both_quote_styles() {
        let doc = parse(r#"<watch open_auction="oa108" id='w1'/>"#).unwrap();
        let w = doc.root_element().unwrap();
        assert_eq!(doc.attribute(w, "open_auction"), Some("oa108"));
        assert_eq!(doc.attribute(w, "id"), Some("w1"));
    }

    #[test]
    fn self_closing_root() {
        let doc = parse("<empty/>").unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("empty"));
        assert_eq!(doc.children(doc.root_element().unwrap()).count(), 0);
    }

    #[test]
    fn xml_declaration_and_doctype_skipped() {
        let doc =
            parse("<?xml version=\"1.0\"?><!DOCTYPE site [ <!ELEMENT a (b)> ]><site/>").unwrap();
        assert_eq!(doc.name(doc.root_element().unwrap()), Some("site"));
    }

    #[test]
    fn entities_in_text_and_attributes() {
        let doc = parse(r#"<a b="x &amp; y">1 &lt; 2</a>"#).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.attribute(a, "b"), Some("x & y"));
        assert_eq!(doc.string_value(a), "1 < 2");
    }

    #[test]
    fn cdata_is_text() {
        let doc = parse("<a><![CDATA[<not&markup>]]></a>").unwrap();
        assert_eq!(
            doc.string_value(doc.root_element().unwrap()),
            "<not&markup>"
        );
    }

    #[test]
    fn comments_and_pis_are_nodes() {
        let doc = parse("<a><!-- hi --><?php run?></a>").unwrap();
        let a = doc.root_element().unwrap();
        let kids: Vec<_> = doc.children(a).collect();
        assert_eq!(kids.len(), 2);
        assert!(matches!(doc.kind(kids[0]), NodeKind::Comment { .. }));
        assert!(matches!(
            doc.kind(kids[1]),
            NodeKind::ProcessingInstruction { .. }
        ));
    }

    #[test]
    fn whitespace_only_text_dropped_by_default() {
        let doc = parse("<a>\n  <b/>\n</a>").unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 1);
    }

    #[test]
    fn whitespace_preserved_when_asked() {
        let doc = parse_tokens(Tokenizer::new("<a>\n  <b/>\n</a>").preserve_whitespace()).unwrap();
        let a = doc.root_element().unwrap();
        assert_eq!(doc.children(a).count(), 3);
    }

    #[test]
    fn mismatched_tag_reports_names() {
        let err = parse("<a><b></a></b>").unwrap_err();
        match err.kind {
            XmlErrorKind::MismatchedTag { expected, found } => {
                assert_eq!(expected, "b");
                assert_eq!(found, "a");
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn unterminated_document_is_eof() {
        let err = parse("<a><b>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn multiple_roots_rejected() {
        let err = parse("<a/><b/>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::MultipleRoots);
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(parse("").unwrap_err().kind, XmlErrorKind::NoRootElement);
        assert_eq!(parse("   ").unwrap_err().kind, XmlErrorKind::NoRootElement);
    }

    #[test]
    fn deeply_nested_document_does_not_overflow() {
        let depth = 200_000;
        let mut s = String::new();
        for _ in 0..depth {
            s.push_str("<d>");
        }
        for _ in 0..depth {
            s.push_str("</d>");
        }
        let doc = parse(&s).unwrap();
        assert_eq!(doc.len(), depth + 1);
    }

    #[test]
    fn comment_in_prolog_attaches_to_document() {
        let doc = parse("<!-- license --><a/>").unwrap();
        let kids: Vec<_> = doc.children(Document::ROOT).collect();
        assert_eq!(kids.len(), 2);
        assert!(matches!(doc.kind(kids[0]), NodeKind::Comment { .. }));
    }

    #[test]
    fn text_outside_root_rejected() {
        assert!(parse("hello<a/>").is_err());
    }

    #[test]
    fn unknown_entity_rejected_with_position() {
        let err = parse("<a>&bogus;</a>").unwrap_err();
        assert!(matches!(err.kind, XmlErrorKind::UnknownEntity(_)));
        assert_eq!(err.line, 1);
    }
}
