//! # vamana-flex
//!
//! Fast Lexicographical Keys (FLEX) — the structural encoding MASS uses for
//! every node of an XML document (Deschler & Rundensteiner, CIKM 2003).
//!
//! A FLEX key is a sequence of *labels*, one per tree level (the paper
//! renders them as `a.d.y.c.a`). The encoding has three properties that the
//! whole VAMANA stack builds on:
//!
//! 1. **Order isomorphism** — comparing two keys byte-wise (in their flat
//!    encoding) is exactly document order, with ancestors ordering before
//!    their descendants.
//! 2. **Key arithmetic** — `parent`, `is_ancestor_of`, and the scan ranges
//!    for every XPath axis (`subtree_range`, `following_range`, ...) are
//!    computed from the key alone, without touching stored data.
//! 3. **Update friendliness** — a new sibling can always be labeled
//!    *between* two existing siblings ([`label_between`]) without
//!    relabeling any other node.
//!
//! ## Flat encoding
//!
//! Each label is a non-empty byte string over the alphabet `1..=255`
//! (byte `0` is the component terminator). Keys are stored flattened:
//! `label₁ 0x00 label₂ 0x00 …`. Because labels never contain `0x00`,
//! plain `memcmp` over flat keys yields document order: a terminator
//! (`0x00`) sorts before any label byte, so an ancestor (whose flat key is
//! a strict prefix) sorts immediately before its subtree.
//!
//! ## Label alphabets
//!
//! * Sequentially allocated **element labels** ([`seq_label`]) use digits
//!   `2..=255` and length-grouped first bytes (`0x40..`, `0x80..`, ...) so
//!   that any count of siblings stays order-correct and prefix-free.
//! * **Attribute labels** ([`attr_label`]) use first bytes `0x04..=0x3F`,
//!   below every element label, so attributes cluster directly after their
//!   owning element and before its element/text children — the MASS layout
//!   that makes attribute lookups a one-seek operation.
//! * Digit `1` is reserved for [`label_between`], which guarantees a free
//!   slot between any two distinct labels produced by this crate.
//!
//! ```
//! use vamana_flex::{FlexKey, seq_label};
//!
//! let root = FlexKey::root().child(&seq_label(0));
//! let name = root.child(&seq_label(0));
//! let email = root.child(&seq_label(1));
//! assert!(name < email);                 // document order
//! assert!(root.is_ancestor_of(&name));
//! assert_eq!(name.parent().unwrap(), root);
//! ```

#![deny(missing_docs)]

pub mod axis;
pub mod component;
pub mod generate;
pub mod key;
pub mod range;

pub use axis::Axis;
pub use component::{attr_label, label_between, seq_label, LabelError};
pub use generate::KeyGenerator;
pub use key::{flat_is_ancestor, flat_level, flat_parent, FlexKey};
pub use range::KeyRange;
