//! # vamana-xml
//!
//! A small, dependency-free XML substrate for the VAMANA XPath engine.
//!
//! The crate provides:
//!
//! * an arena-based [`Document`] model ([`model`]) with cheap node ids and
//!   sibling/child/parent navigation,
//! * a non-validating pull [`tokenizer`] sufficient for XMark-style
//!   documents (elements, attributes, character data, CDATA, comments,
//!   processing instructions, the five predefined entities and numeric
//!   character references — no DTD processing), whose events a consumer
//!   that needs no tree reads directly,
//! * a DOM builder over it ([`parser`]),
//! * entity [`escape`] helpers, and
//! * a [`writer`] that serializes a document back to text.
//!
//! The tokenizer intentionally favors predictable, linear-time behavior
//! over full XML 1.0 conformance: VAMANA loads documents once into the
//! MASS storage structure and never re-parses, so it is a loading tool,
//! not a query-time component.
//!
//! ```
//! use vamana_xml::parse;
//!
//! let doc = parse("<person id='p1'><name>Yung Flach</name></person>").unwrap();
//! let root = doc.root_element().unwrap();
//! assert_eq!(doc.name(root), Some("person"));
//! ```

pub mod error;
pub mod escape;
pub mod model;
pub mod parser;
pub mod tokenizer;
pub mod writer;

pub use error::{XmlError, XmlErrorKind};
pub use model::{Document, NodeId, NodeKind};
pub use parser::{parse, parse_tokens};
pub use tokenizer::{Event, Tokenizer};
pub use writer::{write_document, WriteOptions};
