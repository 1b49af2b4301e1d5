//! The pull tokenizer: XML text in, a flat stream of [`Event`]s out.
//!
//! This is the crate's one tokenizer. [`crate::parse`] builds a
//! [`crate::Document`] from its events, and a consumer that needs no tree
//! (a bulk loader, say) reads them directly, so memory stays the input
//! plus the open-element stack.
//!
//! Supported: elements, attributes (single or double quoted), character
//! data, CDATA sections, comments, processing instructions, the XML
//! declaration, predefined entities and numeric character references.
//! Not supported (rejected or skipped): DTDs beyond skipping a `<!DOCTYPE
//! ...>` with at most one level of internal subset, parameter entities,
//! namespaces-aware processing (prefixes are kept as part of the name).
//!
//! Text rules: adjacent character data and CDATA sections coalesce into
//! one [`Event::Text`], ended by any tag, comment or PI; entities are
//! resolved; whitespace-only text is dropped unless
//! [`Tokenizer::preserve_whitespace`] is set.

use crate::error::{XmlError, XmlErrorKind};
use crate::escape::unescape_into;
use std::borrow::Cow;

/// One token of a document, in document order. Names and comment or PI
/// bodies borrow from the input; text and attribute values borrow too
/// unless entities or CDATA made them differ from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// A start tag's name. Its attributes follow as [`Event::Attribute`]s
    /// before any other event.
    Start(&'a str),
    /// An attribute of the element last started: name and value.
    Attribute(&'a str, Cow<'a, str>),
    /// The end of the innermost open element (also sent for `<a/>`).
    End(&'a str),
    /// Character data, coalesced and with entities resolved.
    Text(Cow<'a, str>),
    /// A comment's body.
    Comment(&'a str),
    /// A processing instruction: target and data (trailing whitespace
    /// trimmed).
    Pi(&'a str, &'a str),
}

/// Where the tokenizer is in the document.
#[derive(Debug, Clone, Copy)]
enum State<'a> {
    /// Before the XML declaration.
    Begin,
    /// Before the root element: comments, PIs and a DOCTYPE.
    Prolog,
    /// Inside the start tag of the named element, reading attributes.
    Tag(&'a str),
    /// Content, up to the end of the root element.
    Content,
    /// After the root element: comments and PIs only.
    Epilog,
    /// The input is consumed, or an error was returned.
    Done,
}

/// Text read since the last markup event.
#[derive(Debug, Default)]
enum Pending<'a> {
    #[default]
    Empty,
    /// One run of input that needed no change.
    Borrowed(&'a str),
    Owned(String),
}

impl<'a> Pending<'a> {
    fn owned(&mut self) -> &mut String {
        let s = match std::mem::take(self) {
            Pending::Empty => String::new(),
            Pending::Borrowed(b) => b.to_owned(),
            Pending::Owned(s) => s,
        };
        *self = Pending::Owned(s);
        match self {
            Pending::Owned(s) => s,
            _ => unreachable!("made owned above"),
        }
    }

    fn push(&mut self, s: &'a str) {
        match self {
            Pending::Empty => *self = Pending::Borrowed(s),
            _ => self.owned().push_str(s),
        }
    }
}

/// A pull tokenizer over one XML document. Iterate it for
/// `Result<Event, XmlError>`s; after the first error it yields nothing.
///
/// ```
/// use vamana_xml::{Event, Tokenizer};
///
/// let events: Vec<Event> = Tokenizer::new("<a b='1'>x &amp; y</a>")
///     .collect::<Result<_, _>>()
///     .unwrap();
/// assert_eq!(events.len(), 4);
/// assert_eq!(events[2], Event::Text("x & y".into()));
/// ```
pub struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// When false (default), whitespace-only text is dropped. XMark
    /// documents put no significant whitespace-only text nodes, and
    /// dropping them keeps node counts meaningful.
    keep_whitespace: bool,
    state: State<'a>,
    /// Names of the open elements, innermost last.
    open: Vec<&'a str>,
    text: Pending<'a>,
}

impl<'a> Tokenizer<'a> {
    /// A tokenizer over `input` with default options.
    pub fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            keep_whitespace: false,
            state: State::Begin,
            open: Vec::new(),
            text: Pending::Empty,
        }
    }

    /// Keep whitespace-only text instead of dropping it.
    pub fn preserve_whitespace(mut self) -> Self {
        self.keep_whitespace = true;
        self
    }

    fn err(&self, kind: XmlErrorKind) -> XmlError {
        XmlError::new(kind, self.input, self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XmlError> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else if self.pos >= self.bytes.len() {
            Err(self.err(XmlErrorKind::UnexpectedEof))
        } else {
            Err(self.err(XmlErrorKind::Malformed(format!("expected `{s}`"))))
        }
    }

    fn read_until(&mut self, delim: &str, what: &str) -> Result<&'a str, XmlError> {
        match self.input[self.pos..].find(delim) {
            Some(rel) => {
                let s = &self.input[self.pos..self.pos + rel];
                self.pos += rel + delim.len();
                Ok(s)
            }
            None => {
                self.pos = self.bytes.len();
                Err(self.err(XmlErrorKind::Malformed(format!("unterminated {what}"))))
            }
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn read_name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => self.pos += 1,
            Some(_) => return Err(self.err(XmlErrorKind::Malformed("name".into()))),
            None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.pos += 1;
        }
        Ok(&self.input[start..self.pos])
    }

    /// `input[start..pos]` with entities resolved, borrowed when it has
    /// none.
    fn unescaped(&self, start: usize, end: usize) -> Result<Cow<'a, str>, XmlError> {
        let raw = &self.input[start..end];
        if !raw.contains('&') {
            return Ok(Cow::Borrowed(raw));
        }
        let mut out = String::with_capacity(raw.len());
        unescape_into(raw, &mut out, self.input, start)?;
        Ok(Cow::Owned(out))
    }

    fn skip_doctype(&mut self) -> Result<(), XmlError> {
        // Skip to the matching '>' allowing one level of [...] internal
        // subset (entities inside it are not processed).
        self.pos += "<!DOCTYPE".len();
        let mut depth = 0i32;
        loop {
            match self.peek() {
                None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                Some(b'[') => {
                    depth += 1;
                    self.pos += 1;
                }
                Some(b']') => {
                    depth -= 1;
                    self.pos += 1;
                }
                Some(b'>') if depth <= 0 => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn comment(&mut self) -> Result<Event<'a>, XmlError> {
        self.pos += "<!--".len();
        Ok(Event::Comment(self.read_until("-->", "comment")?))
    }

    fn pi(&mut self) -> Result<Event<'a>, XmlError> {
        self.expect("<?")?;
        let target = self.read_name()?;
        self.skip_ws();
        let data = self.read_until("?>", "processing instruction")?;
        Ok(Event::Pi(target, data.trim_end()))
    }

    /// The text read since the last markup event, unless it is empty or
    /// (by default) whitespace only.
    fn take_text(&mut self) -> Option<Cow<'a, str>> {
        let text = match std::mem::take(&mut self.text) {
            Pending::Empty => return None,
            Pending::Borrowed(s) => Cow::Borrowed(s),
            Pending::Owned(s) => Cow::Owned(s),
        };
        let dropped =
            text.is_empty() || (!self.keep_whitespace && text.chars().all(char::is_whitespace));
        (!dropped).then_some(text)
    }

    /// The next event, `None` at the end of a well-formed document.
    fn step(&mut self) -> Result<Option<Event<'a>>, XmlError> {
        loop {
            match self.state {
                State::Begin => {
                    self.skip_ws();
                    if self.starts_with("<?xml") {
                        self.pos += 5;
                        self.read_until("?>", "XML declaration")?;
                    }
                    self.state = State::Prolog;
                }
                State::Prolog => {
                    self.skip_ws();
                    if self.starts_with("<!--") {
                        return self.comment().map(Some);
                    } else if self.starts_with("<!DOCTYPE") {
                        self.skip_doctype()?;
                    } else if self.starts_with("<?") {
                        return self.pi().map(Some);
                    } else if self.peek() != Some(b'<') {
                        return Err(self.err(XmlErrorKind::NoRootElement));
                    } else {
                        self.state = State::Content;
                    }
                }
                State::Tag(name) => {
                    self.skip_ws();
                    match self.peek() {
                        Some(b'>') => {
                            self.pos += 1;
                            self.open.push(name);
                            self.state = State::Content;
                        }
                        Some(b'/') => {
                            self.pos += 1;
                            self.expect(">")?;
                            self.state = if self.open.is_empty() {
                                State::Epilog
                            } else {
                                State::Content
                            };
                            return Ok(Some(Event::End(name)));
                        }
                        Some(b) if Self::is_name_start(b) => {
                            let aname = self.read_name()?;
                            self.skip_ws();
                            self.expect("=")?;
                            self.skip_ws();
                            let quote = match self.peek() {
                                Some(q @ (b'"' | b'\'')) => q,
                                _ => {
                                    return Err(
                                        self.err(XmlErrorKind::Malformed("attribute value".into()))
                                    )
                                }
                            };
                            self.pos += 1;
                            let start = self.pos;
                            let raw = self.read_until(
                                if quote == b'"' { "\"" } else { "'" },
                                "attribute value",
                            )?;
                            let value = self.unescaped(start, start + raw.len())?;
                            return Ok(Some(Event::Attribute(aname, value)));
                        }
                        Some(_) => {
                            return Err(self.err(XmlErrorKind::Malformed("start tag".into())))
                        }
                        None => return Err(self.err(XmlErrorKind::UnexpectedEof)),
                    }
                }
                State::Content => {
                    // Markup first hands back the text before it; the
                    // loop then meets the same markup with none pending.
                    let markup = self.peek() == Some(b'<') && !self.starts_with("<![CDATA[");
                    if markup {
                        if let Some(text) = self.take_text() {
                            return Ok(Some(Event::Text(text)));
                        }
                    }
                    match self.peek() {
                        None => {
                            return Err(self.err(if self.open.is_empty() {
                                XmlErrorKind::NoRootElement
                            } else {
                                XmlErrorKind::UnexpectedEof
                            }))
                        }
                        Some(b'<') if self.starts_with("<!--") => {
                            return self.comment().map(Some);
                        }
                        Some(b'<') if self.starts_with("<![CDATA[") && self.open.is_empty() => {
                            // Character data before the root element.
                            return Err(
                                self.err(XmlErrorKind::Malformed("text outside root".into()))
                            );
                        }
                        Some(b'<') if self.starts_with("<![CDATA[") => {
                            self.pos += 9;
                            let c = self.read_until("]]>", "CDATA section")?;
                            self.text.push(c);
                        }
                        Some(b'<') if self.starts_with("<?") => return self.pi().map(Some),
                        Some(b'<') if self.starts_with("</") => {
                            self.pos += 2;
                            let name = self.read_name()?;
                            self.skip_ws();
                            self.expect(">")?;
                            let open = self.open.pop().ok_or_else(|| {
                                self.err(XmlErrorKind::Malformed(
                                    "close tag without open tag".into(),
                                ))
                            })?;
                            if open != name {
                                return Err(self.err(XmlErrorKind::MismatchedTag {
                                    expected: open.to_string(),
                                    found: name.to_string(),
                                }));
                            }
                            if self.open.is_empty() {
                                self.state = State::Epilog;
                            }
                            return Ok(Some(Event::End(name)));
                        }
                        Some(b'<') => {
                            self.pos += 1;
                            let name = self.read_name()?;
                            self.state = State::Tag(name);
                            return Ok(Some(Event::Start(name)));
                        }
                        Some(_) => {
                            // Character data up to the next '<'.
                            let start = self.pos;
                            self.pos = self.input[start..]
                                .find('<')
                                .map_or(self.bytes.len(), |i| start + i);
                            let raw = &self.input[start..self.pos];
                            if self.open.is_empty() {
                                // Text before the root element.
                                if raw.chars().all(char::is_whitespace) {
                                    continue;
                                }
                                self.pos = start;
                                return Err(
                                    self.err(XmlErrorKind::Malformed("text outside root".into()))
                                );
                            }
                            if raw.contains('&') {
                                unescape_into(raw, self.text.owned(), self.input, start)?;
                            } else {
                                self.text.push(raw);
                            }
                        }
                    }
                }
                State::Epilog => {
                    // Only whitespace, comments and PIs may follow.
                    self.skip_ws();
                    match self.peek() {
                        None => {
                            self.state = State::Done;
                            return Ok(None);
                        }
                        Some(b'<') if self.starts_with("<!--") => return self.comment().map(Some),
                        Some(b'<') if self.starts_with("<?") => return self.pi().map(Some),
                        Some(b'<') => return Err(self.err(XmlErrorKind::MultipleRoots)),
                        Some(_) => return Err(self.err(XmlErrorKind::TrailingContent)),
                    }
                }
                State::Done => return Ok(None),
            }
        }
    }
}

impl<'a> Iterator for Tokenizer<'a> {
    type Item = Result<Event<'a>, XmlError>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            self.state = State::Done;
        }
        step.transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(xml: &str) -> Vec<Event<'_>> {
        Tokenizer::new(xml).collect::<Result<_, _>>().unwrap()
    }

    #[test]
    fn start_attributes_end_in_order() {
        assert_eq!(
            events("<a x='1' y=\"2\"><b/></a>"),
            vec![
                Event::Start("a"),
                Event::Attribute("x", "1".into()),
                Event::Attribute("y", "2".into()),
                Event::Start("b"),
                Event::End("b"),
                Event::End("a"),
            ]
        );
    }

    #[test]
    fn text_coalesces_across_cdata_and_borrows_when_it_can() {
        let evs = events("<a>x &lt; <![CDATA[<y>]]> z</a>");
        assert_eq!(evs[1], Event::Text("x < <y> z".into()));
        let evs = events("<a>plain</a>");
        assert!(matches!(evs[1], Event::Text(Cow::Borrowed("plain"))));
        let evs = events("<a v='no entities'/>");
        assert!(matches!(evs[1], Event::Attribute(_, Cow::Borrowed(_))));
    }

    #[test]
    fn comments_and_pis_end_text() {
        assert_eq!(
            events("<?xml version='1.0'?><!--p--><a>x<!--c-->y<?t d ?></a><?e?>"),
            vec![
                Event::Comment("p"),
                Event::Start("a"),
                Event::Text("x".into()),
                Event::Comment("c"),
                Event::Text("y".into()),
                Event::Pi("t", "d"),
                Event::End("a"),
                Event::Pi("e", ""),
            ]
        );
    }

    #[test]
    fn whitespace_only_text_follows_the_option() {
        assert_eq!(events("<a> <b/> </a>").len(), 4);
        let kept: Vec<_> = Tokenizer::new("<a> <b/> </a>")
            .preserve_whitespace()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(kept.len(), 6);
        // An empty CDATA section is no text even when whitespace is kept.
        let empty: Vec<_> = Tokenizer::new("<a><![CDATA[]]></a>")
            .preserve_whitespace()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(empty.len(), 2);
    }

    #[test]
    fn character_data_before_the_root_is_refused_in_cdata_too() {
        assert!(crate::parse("x<a/>").is_err());
        for xml in ["<![CDATA[x]]><a/>", " <!-- c --><![CDATA[ ]]><a/>"] {
            let err = Tokenizer::new(xml).find_map(Result::err).expect(xml);
            let outside = XmlErrorKind::Malformed("text outside root".into());
            assert_eq!(err.kind, outside, "{xml}");
            assert!(crate::parse(xml).is_err(), "{xml}");
        }
        // Inside the root a CDATA section is text.
        assert_eq!(events("<a><![CDATA[x]]></a>")[1], Event::Text("x".into()));
    }

    #[test]
    fn an_error_ends_the_stream() {
        let mut t = Tokenizer::new("<a><b></a>");
        assert!(t.by_ref().any(|e| e.is_err()));
        assert!(t.next().is_none());
    }
}
