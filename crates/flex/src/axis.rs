//! The 13 XPath axes as structural relations over FLEX keys.
//!
//! The enum lives in this crate because an axis *is* a key relation:
//! every layer of the stack (MASS cursors, the VAMANA physical algebra,
//! the baseline engines, the XPath parser) shares this vocabulary.

use std::fmt;

/// An XPath axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// `child`
    Child,
    /// `descendant`
    Descendant,
    /// `descendant-or-self`
    DescendantOrSelf,
    /// `parent`
    Parent,
    /// `ancestor`
    Ancestor,
    /// `ancestor-or-self`
    AncestorOrSelf,
    /// `following`
    Following,
    /// `following-sibling`
    FollowingSibling,
    /// `preceding`
    Preceding,
    /// `preceding-sibling`
    PrecedingSibling,
    /// `self`
    SelfAxis,
    /// `attribute`
    Attribute,
    /// `namespace`
    Namespace,
}

impl Axis {
    /// All 13 axes, for exhaustive tests.
    pub const ALL: [Axis; 13] = [
        Axis::Child,
        Axis::Descendant,
        Axis::DescendantOrSelf,
        Axis::Parent,
        Axis::Ancestor,
        Axis::AncestorOrSelf,
        Axis::Following,
        Axis::FollowingSibling,
        Axis::Preceding,
        Axis::PrecedingSibling,
        Axis::SelfAxis,
        Axis::Attribute,
        Axis::Namespace,
    ];

    /// True for the XPath *reverse* axes (context position counts
    /// backwards from the context node).
    pub fn is_reverse(self) -> bool {
        matches!(
            self,
            Axis::Parent
                | Axis::Ancestor
                | Axis::AncestorOrSelf
                | Axis::Preceding
                | Axis::PrecedingSibling
        )
    }

    /// True for the axes that select inside the context node's own
    /// subtree: `self`, `child`, `attribute`, `descendant` and
    /// `descendant-or-self`. From contexts that follow each other one
    /// whole subtree after another, what such an axis selects follows in
    /// document order too.
    pub fn is_downward(self) -> bool {
        matches!(
            self,
            Axis::SelfAxis
                | Axis::Child
                | Axis::Attribute
                | Axis::Descendant
                | Axis::DescendantOrSelf
        )
    }

    /// The axis name as written in XPath.
    pub fn as_str(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::Following => "following",
            Axis::FollowingSibling => "following-sibling",
            Axis::Preceding => "preceding",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
            Axis::Namespace => "namespace",
        }
    }

    /// Parses an axis name (`following-sibling`, ...).
    pub fn parse(s: &str) -> Option<Axis> {
        Axis::ALL.iter().copied().find(|a| a.as_str() == s)
    }

    /// Whether attribute nodes are the *principal node kind* of the axis
    /// (only the `attribute` axis): a bare name test selects attributes
    /// there and elements everywhere else.
    pub fn principal_is_attribute(self) -> bool {
        self == Axis::Attribute
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_has_thirteen_distinct_axes() {
        assert_eq!(Axis::ALL.len(), 13);
        let mut names: Vec<_> = Axis::ALL.iter().map(|a| a.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
    }

    #[test]
    fn parse_round_trips() {
        for axis in Axis::ALL {
            assert_eq!(Axis::parse(axis.as_str()), Some(axis));
        }
        assert_eq!(Axis::parse("sideways"), None);
    }

    #[test]
    fn reverse_axes_are_exactly_five() {
        let reverse: Vec<_> = Axis::ALL.iter().filter(|a| a.is_reverse()).collect();
        assert_eq!(reverse.len(), 5);
        assert!(Axis::Preceding.is_reverse());
        assert!(!Axis::Following.is_reverse());
        assert!(!Axis::SelfAxis.is_reverse());
    }

    #[test]
    fn principal_node_kind() {
        assert!(Axis::Attribute.principal_is_attribute());
        assert!(!Axis::Child.principal_is_attribute());
    }
}
