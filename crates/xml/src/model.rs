//! Arena-based XML document model.
//!
//! All nodes live in a single `Vec`; [`NodeId`] is an index into it. This
//! keeps the tree cache-friendly and makes node handles `Copy`, which the
//! DOM baseline engine and the MASS loader both rely on.
//!
//! Attributes are kept on a separate sibling chain (headed by
//! `first_attr`) rather than in the child list, matching the XPath data
//! model where the `attribute` axis is distinct from `child`.

/// Identifier of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind (and payload) of a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// The document root (exactly one per document, always [`Document::ROOT`]).
    Document,
    /// An element with a tag name.
    Element { name: Box<str> },
    /// An attribute with a name and value.
    Attribute { name: Box<str>, value: Box<str> },
    /// Character data.
    Text { value: Box<str> },
    /// A comment.
    Comment { value: Box<str> },
    /// A processing instruction.
    ProcessingInstruction { target: Box<str>, data: Box<str> },
}

impl NodeKind {
    /// True for element nodes.
    #[inline]
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// True for text nodes.
    #[inline]
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text { .. })
    }

    /// True for attribute nodes.
    #[inline]
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeKind::Attribute { .. })
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct NodeData {
    kind: NodeKind,
    parent: u32,
    first_child: u32,
    last_child: u32,
    next_sibling: u32,
    prev_sibling: u32,
    first_attr: u32,
}

impl NodeData {
    fn new(kind: NodeKind, parent: u32) -> Self {
        NodeData {
            kind,
            parent,
            first_child: NIL,
            last_child: NIL,
            next_sibling: NIL,
            prev_sibling: NIL,
            first_attr: NIL,
        }
    }
}

/// An XML document: an arena of nodes rooted at [`Document::ROOT`].
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Vec<NodeData>,
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// The document node, parent of the root element.
    pub const ROOT: NodeId = NodeId(0);

    /// Creates an empty document containing only the document node.
    pub fn new() -> Self {
        Document {
            nodes: vec![NodeData::new(NodeKind::Document, NIL)],
        }
    }

    /// Number of nodes in the arena, including the document node and
    /// attributes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the document contains only the document node.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    /// The element or attribute name of `id` (PI target for PIs), if any.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].kind {
            NodeKind::Element { name } | NodeKind::Attribute { name, .. } => Some(name),
            NodeKind::ProcessingInstruction { target, .. } => Some(target),
            _ => None,
        }
    }

    /// The direct textual value of `id`: text content for text/comment
    /// nodes, attribute value for attributes, PI data for PIs.
    pub fn value(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id.index()].kind {
            NodeKind::Text { value } | NodeKind::Comment { value } => Some(value),
            NodeKind::Attribute { value, .. } => Some(value),
            NodeKind::ProcessingInstruction { data, .. } => Some(data),
            _ => None,
        }
    }

    fn opt(&self, raw: u32) -> Option<NodeId> {
        (raw != NIL).then_some(NodeId(raw))
    }

    /// Parent node, if any (the document node has none; attributes report
    /// their owning element).
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.opt(self.nodes[id.index()].parent)
    }

    /// First child (attributes excluded).
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.opt(self.nodes[id.index()].first_child)
    }

    /// Last child (attributes excluded).
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.opt(self.nodes[id.index()].last_child)
    }

    /// Next sibling in document order (attributes chain among themselves).
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.opt(self.nodes[id.index()].next_sibling)
    }

    /// Previous sibling in document order.
    #[inline]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.opt(self.nodes[id.index()].prev_sibling)
    }

    /// First attribute of an element.
    #[inline]
    pub fn first_attr(&self, id: NodeId) -> Option<NodeId> {
        self.opt(self.nodes[id.index()].first_attr)
    }

    /// Iterator over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            doc: self,
            next: self.nodes[id.index()].first_child,
        }
    }

    /// Iterator over the attributes of `id` in document order.
    pub fn attributes(&self, id: NodeId) -> Attributes<'_> {
        Attributes {
            doc: self,
            next: self.nodes[id.index()].first_attr,
        }
    }

    /// Looks up an attribute of `id` by name.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.attributes(id)
            .find(|a| self.name(*a) == Some(name))
            .and_then(|a| self.value(a))
    }

    /// Iterator over all descendants of `id` (excluding `id` itself and
    /// attributes) in document order.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            doc: self,
            root: id,
            next: self.nodes[id.index()].first_child,
        }
    }

    /// The single top-level element, if the document has one.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(Self::ROOT)
            .find(|c| self.kind(*c).is_element())
    }

    /// The XPath string-value of `id`: concatenation of all descendant text
    /// for elements and the document node; direct value otherwise.
    pub fn string_value(&self, id: NodeId) -> String {
        match self.kind(id) {
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                for d in self.descendants(id) {
                    if let NodeKind::Text { value } = self.kind(d) {
                        out.push_str(value);
                    }
                }
                out
            }
            _ => self.value(id).unwrap_or("").to_string(),
        }
    }

    /// Depth of `id`: the document node is 0, the root element 1, and so on.
    /// Attributes are one deeper than their owning element.
    pub fn depth(&self, id: NodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            d += 1;
            cur = p;
        }
        d
    }

    // ---- construction -------------------------------------------------

    fn push_node(&mut self, kind: NodeKind, parent: NodeId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData::new(kind, parent.0));
        let p = &mut self.nodes[parent.index()];
        if p.first_child == NIL {
            p.first_child = id.0;
            p.last_child = id.0;
        } else {
            let prev = p.last_child;
            p.last_child = id.0;
            self.nodes[prev as usize].next_sibling = id.0;
            self.nodes[id.index()].prev_sibling = prev;
        }
        id
    }

    /// Appends an element child under `parent` and returns its id.
    pub fn push_element(&mut self, parent: NodeId, name: &str) -> NodeId {
        self.push_node(NodeKind::Element { name: name.into() }, parent)
    }

    /// Appends a text child under `parent`.
    pub fn push_text(&mut self, parent: NodeId, value: &str) -> NodeId {
        self.push_node(
            NodeKind::Text {
                value: value.into(),
            },
            parent,
        )
    }

    /// Appends a comment child under `parent`.
    pub fn push_comment(&mut self, parent: NodeId, value: &str) -> NodeId {
        self.push_node(
            NodeKind::Comment {
                value: value.into(),
            },
            parent,
        )
    }

    /// Appends a processing-instruction child under `parent`.
    pub fn push_pi(&mut self, parent: NodeId, target: &str, data: &str) -> NodeId {
        self.push_node(
            NodeKind::ProcessingInstruction {
                target: target.into(),
                data: data.into(),
            },
            parent,
        )
    }

    /// Attaches an attribute to `element` and returns its id.
    pub fn push_attribute(&mut self, element: NodeId, name: &str, value: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData::new(
            NodeKind::Attribute {
                name: name.into(),
                value: value.into(),
            },
            element.0,
        ));
        // Append to the attribute chain.
        let first = self.nodes[element.index()].first_attr;
        if first == NIL {
            self.nodes[element.index()].first_attr = id.0;
        } else {
            let mut cur = first;
            loop {
                let next = self.nodes[cur as usize].next_sibling;
                if next == NIL {
                    break;
                }
                cur = next;
            }
            self.nodes[cur as usize].next_sibling = id.0;
            self.nodes[id.index()].prev_sibling = cur;
        }
        id
    }
}

/// Iterator over the children of a node. See [`Document::children`].
pub struct Children<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.doc.opt(self.next)?;
        self.next = self.doc.nodes[id.index()].next_sibling;
        Some(id)
    }
}

/// Iterator over the attributes of an element. See [`Document::attributes`].
pub struct Attributes<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for Attributes<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.doc.opt(self.next)?;
        self.next = self.doc.nodes[id.index()].next_sibling;
        Some(id)
    }
}

/// Pre-order iterator over the descendants of a node.
/// See [`Document::descendants`].
pub struct Descendants<'a> {
    doc: &'a Document,
    root: NodeId,
    next: u32,
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let id = self.doc.opt(self.next)?;
        // Advance: first child, else next sibling, else climb until a
        // sibling exists or we reach the subtree root.
        let data = &self.doc.nodes[id.index()];
        let mut next = data.first_child;
        if next == NIL {
            let mut cur = id;
            loop {
                if cur == self.root {
                    next = NIL;
                    break;
                }
                let d = &self.doc.nodes[cur.index()];
                if d.next_sibling != NIL {
                    next = d.next_sibling;
                    break;
                }
                match self.doc.parent(cur) {
                    Some(p) => cur = p,
                    None => {
                        next = NIL;
                        break;
                    }
                }
            }
        }
        self.next = next;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Document, NodeId, NodeId, NodeId) {
        let mut doc = Document::new();
        let person = doc.push_element(Document::ROOT, "person");
        doc.push_attribute(person, "id", "person144");
        let name = doc.push_element(person, "name");
        doc.push_text(name, "Yung Flach");
        let email = doc.push_element(person, "emailaddress");
        doc.push_text(email, "Flach@auth.gr");
        (doc, person, name, email)
    }

    #[test]
    fn children_in_order() {
        let (doc, person, name, email) = sample();
        let kids: Vec<_> = doc.children(person).collect();
        assert_eq!(kids, vec![name, email]);
    }

    #[test]
    fn attributes_are_not_children() {
        let (doc, person, ..) = sample();
        assert!(doc.children(person).all(|c| !doc.kind(c).is_attribute()));
        let attrs: Vec<_> = doc.attributes(person).collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(doc.attribute(person, "id"), Some("person144"));
    }

    #[test]
    fn descendants_pre_order() {
        let (doc, person, name, email) = sample();
        let descs: Vec<_> = doc.descendants(Document::ROOT).collect();
        assert_eq!(descs[0], person);
        assert_eq!(descs[1], name);
        // text under name comes before email
        assert!(descs.iter().position(|d| *d == email).unwrap() > 2);
        let sub: Vec<_> = doc.descendants(name).collect();
        assert_eq!(sub.len(), 1);
        assert!(doc.kind(sub[0]).is_text());
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let (doc, person, name, _) = sample();
        assert_eq!(doc.string_value(name), "Yung Flach");
        assert_eq!(doc.string_value(person), "Yung FlachFlach@auth.gr");
    }

    #[test]
    fn depth_counts_from_document_node() {
        let (doc, person, name, _) = sample();
        assert_eq!(doc.depth(Document::ROOT), 0);
        assert_eq!(doc.depth(person), 1);
        assert_eq!(doc.depth(name), 2);
    }

    #[test]
    fn sibling_links_are_consistent() {
        let (doc, person, name, email) = sample();
        assert_eq!(doc.next_sibling(name), Some(email));
        assert_eq!(doc.prev_sibling(email), Some(name));
        assert_eq!(doc.first_child(person), Some(name));
        assert_eq!(doc.last_child(person), Some(email));
        assert_eq!(doc.parent(name), Some(person));
    }

    #[test]
    fn root_element_skips_non_elements() {
        let mut doc = Document::new();
        doc.push_comment(Document::ROOT, "header");
        let e = doc.push_element(Document::ROOT, "site");
        assert_eq!(doc.root_element(), Some(e));
    }

    #[test]
    fn multiple_attributes_chain() {
        let mut doc = Document::new();
        let e = doc.push_element(Document::ROOT, "watch");
        doc.push_attribute(e, "a", "1");
        doc.push_attribute(e, "b", "2");
        doc.push_attribute(e, "c", "3");
        let names: Vec<_> = doc
            .attributes(e)
            .map(|a| doc.name(a).unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert_eq!(doc.root_element(), None);
        assert_eq!(doc.string_value(Document::ROOT), "");
    }
}
