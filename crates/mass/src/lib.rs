//! # vamana-mass
//!
//! MASS — the Multi-Axis Storage Structure (Deschler & Rundensteiner,
//! CIKM 2003) — is the storage and index substrate of the VAMANA XPath
//! engine. It stores XML documents as FLEX-keyed node records clustered
//! in document order across fixed-size pages, with secondary indexes that
//! make both axis navigation and value lookups index-only operations:
//!
//! * **clustered index** ([`store::MassStore`]): records in FLEX-key
//!   (= document) order; a sparse in-memory index maps page first-keys to
//!   page ids; pages move through an LRU [`buffer::BufferPool`] over an
//!   in-memory or file-backed [`pager::PageStore`];
//! * **name index** ([`name_index::NameIndex`]): per-name sorted key
//!   lists for elements and attributes plus per-kind lists — node-test
//!   counts inside any structural range are two binary searches;
//! * **value index** ([`value_index::ValueIndex`]): exact string and
//!   numeric projections of text/attribute values — `TC(literal)` in one
//!   lookup, and `value::`-step evaluation without touching data pages;
//! * **axis streams** ([`axes::axis_stream`]): lazy document-order
//!   evaluation of all 13 XPath axes, choosing name-driven (index-only)
//!   or clustered-scan strategies per node test.
//!
//! ```
//! use vamana_mass::{MassStore, axes::{axis_stream, NodeFilter}};
//! use vamana_mass::record::RecordKind;
//! use vamana_flex::Axis;
//!
//! let mut store = MassStore::open_memory();
//! store.load_xml("doc", "<site><person><name>Yung Flach</name></person></site>").unwrap();
//!
//! // COUNT(person) without touching data pages:
//! let person = store.name_id("person").unwrap();
//! assert_eq!(store.count_elements(person), 1);
//!
//! // descendant::name from the document root:
//! let doc_key = store.documents()[0].doc_key.clone();
//! let name = store.name_id("name").unwrap();
//! let mut stream = axis_stream(&store, &doc_key, RecordKind::Document,
//!                              Axis::Descendant, NodeFilter::element(name)).unwrap();
//! let mut names = Vec::new();
//! assert_eq!(stream.next_batch(&mut names, 1).unwrap(), 1);
//! ```

#![deny(missing_docs)]

pub mod axes;
pub mod buffer;
pub mod catalog;
pub mod compress;
pub mod cursor;
pub mod error;
pub mod export;
pub mod fault;
pub mod footprint;
pub mod image;
pub mod loader;
pub mod name_index;
pub mod names;
pub mod page;
pub mod pager;
pub mod record;
pub mod repl;
pub mod stats;
pub mod store;
pub mod value_index;
pub mod wal;

pub use axes::{axis_stream, range_scan_stream, AxisStream, KindFilter, NodeEntry, NodeFilter};
pub use buffer::{BufferPool, BufferStats};
pub use compress::{StoreFormat, ValueDict};
pub use cursor::MassCursor;
pub use error::{MassError, Result};
pub use fault::{FaultClock, FaultPager, FaultWalBackend, SharedPager};
pub use footprint::Footprint;
pub use names::{NameId, NameTable};
pub use record::{NodeRecord, RecordKind, ValueRef, ValueView};
pub use repl::{ReplLogStats, ReplicationLog, DEFAULT_RETAIN_FRAMES};
pub use stats::StoreStats;
pub use store::{DocId, DocInfo, MassStore};
pub use value_index::RangeOp;
pub use wal::{
    encode_frame, verify_frame, FileWalBackend, FsyncPolicy, MemWalBackend, Wal, WalBackend,
    WalRecord, WalStats, FRAME_HEADER_LEN,
};
