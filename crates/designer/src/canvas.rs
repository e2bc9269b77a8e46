//! The design canvas: palette of data sources + the element tree.

use crate::element::{Element, ElementId, ElementKind};

/// Errors from canvas/designer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DesignError {
    /// Referenced element does not exist.
    UnknownElement(ElementId),
    /// Insertion target cannot hold children.
    NotAContainer(ElementId),
    /// Referenced data source is not in the palette.
    UnknownSource(String),
    /// Undo stack empty.
    NothingToUndo,
    /// Redo stack empty.
    NothingToRedo,
    /// The root element cannot be removed.
    CannotRemoveRoot,
}

impl std::fmt::Display for DesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DesignError::UnknownElement(id) => write!(f, "unknown element {}", id.0),
            DesignError::NotAContainer(id) => write!(f, "element {} is not a container", id.0),
            DesignError::UnknownSource(s) => write!(f, "unknown data source: {s}"),
            DesignError::NothingToUndo => write!(f, "nothing to undo"),
            DesignError::NothingToRedo => write!(f, "nothing to redo"),
            DesignError::CannotRemoveRoot => write!(f, "cannot remove the root"),
        }
    }
}

impl std::error::Error for DesignError {}

/// A data-source card in the palette (Fig. 1 left bar: "various data
/// sources that application designers can drag-n-drop onto an
/// application").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSourceCard {
    /// Source name (matches the application's data-source config).
    pub name: String,
    /// Category shown on the card ("proprietary", "web", "image",
    /// "video", "news", "service", "ads").
    pub category: String,
    /// Fields the source exposes for binding.
    pub fields: Vec<String>,
}

/// The canvas: a root container plus the source palette.
#[derive(Debug, Clone, PartialEq)]
pub struct Canvas {
    root: Element,
    next_id: u32,
    palette: Vec<DataSourceCard>,
}

impl Default for Canvas {
    fn default() -> Self {
        Canvas::new()
    }
}

impl Canvas {
    /// Empty canvas (a column root).
    pub fn new() -> Canvas {
        let mut root = Element::column(Vec::new());
        root.id = ElementId(1);
        Canvas {
            root,
            next_id: 2,
            palette: Vec::new(),
        }
    }

    /// The root container's id.
    pub fn root_id(&self) -> ElementId {
        self.root.id
    }

    /// Borrow the tree.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Register a data source in the palette (idempotent by name).
    pub(crate) fn register_source(&mut self, card: DataSourceCard) {
        if let Some(existing) = self.palette.iter_mut().find(|c| c.name == card.name) {
            *existing = card;
        } else {
            self.palette.push(card);
        }
    }

    /// The palette.
    pub fn palette(&self) -> &[DataSourceCard] {
        &self.palette
    }

    /// Palette lookup.
    pub(crate) fn source(&self, name: &str) -> Option<&DataSourceCard> {
        self.palette.iter().find(|c| c.name == name)
    }

    fn assign_ids(&mut self, element: &mut Element) {
        element.id = ElementId(self.next_id);
        self.next_id += 1;
        match &mut element.kind {
            ElementKind::Container { children, .. } => {
                let mut kids = std::mem::take(children);
                for c in &mut kids {
                    self.assign_ids(c);
                }
                if let ElementKind::Container { children, .. } = &mut element.kind {
                    *children = kids;
                }
            }
            ElementKind::ResultList { item, .. } => {
                let mut boxed = item.clone();
                self.assign_ids(&mut boxed);
                if let ElementKind::ResultList { item, .. } = &mut element.kind {
                    *item = boxed;
                }
            }
            _ => {}
        }
    }

    /// Insert `element` (ids are assigned to the whole subtree) as the
    /// last child of `parent`. Returns the new element's id.
    pub fn insert(
        &mut self,
        parent: ElementId,
        mut element: Element,
    ) -> Result<ElementId, DesignError> {
        if self.root.find(parent).is_none() {
            return Err(DesignError::UnknownElement(parent));
        }
        self.assign_ids(&mut element);
        let id = element.id;
        let target = self.root.find_mut(parent).expect("checked above");
        match &mut target.kind {
            ElementKind::Container { children, .. } => {
                children.push(element);
                Ok(id)
            }
            ElementKind::ResultList { item, .. } => {
                // Dropping onto a result list means "into its item
                // layout" (Fig. 1: supplemental content is added by
                // dragging data sources onto the result layout).
                match &mut item.kind {
                    ElementKind::Container { children, .. } => {
                        children.push(element);
                        Ok(id)
                    }
                    _ => {
                        // Wrap the existing item in a column.
                        let old = (**item).clone();
                        let mut wrapper = Element::column(vec![old, element]);
                        wrapper.id = ElementId(self.next_id);
                        self.next_id += 1;
                        **item = wrapper;
                        Ok(id)
                    }
                }
            }
            _ => Err(DesignError::NotAContainer(parent)),
        }
    }

    /// Remove an element (and its subtree).
    pub(crate) fn remove(&mut self, id: ElementId) -> Result<(), DesignError> {
        if id == self.root.id {
            return Err(DesignError::CannotRemoveRoot);
        }
        fn remove_in(e: &mut Element, id: ElementId) -> bool {
            match &mut e.kind {
                ElementKind::Container { children, .. } => {
                    if let Some(pos) = children.iter().position(|c| c.id == id) {
                        children.remove(pos);
                        return true;
                    }
                    children.iter_mut().any(|c| remove_in(c, id))
                }
                ElementKind::ResultList { item, .. } => remove_in(item, id),
                _ => false,
            }
        }
        if remove_in(&mut self.root, id) {
            Ok(())
        } else {
            Err(DesignError::UnknownElement(id))
        }
    }

    /// Move an element (with its subtree, ids preserved) to become a
    /// child of `new_parent` at `index` (clamped to the child count).
    /// The target must be a container outside the moved subtree.
    pub(crate) fn move_element(
        &mut self,
        id: ElementId,
        new_parent: ElementId,
        index: usize,
    ) -> Result<(), DesignError> {
        if id == self.root.id {
            return Err(DesignError::CannotRemoveRoot);
        }
        let moving = self.root.find(id).ok_or(DesignError::UnknownElement(id))?;
        // The destination must not live inside the moved subtree.
        if moving.find(new_parent).is_some() {
            return Err(DesignError::NotAContainer(new_parent));
        }
        match self.root.find(new_parent).map(|e| &e.kind) {
            Some(ElementKind::Container { .. }) => {}
            Some(_) => return Err(DesignError::NotAContainer(new_parent)),
            None => return Err(DesignError::UnknownElement(new_parent)),
        }
        // Detach...
        fn detach(e: &mut Element, id: ElementId) -> Option<Element> {
            match &mut e.kind {
                ElementKind::Container { children, .. } => {
                    if let Some(pos) = children.iter().position(|c| c.id == id) {
                        return Some(children.remove(pos));
                    }
                    children.iter_mut().find_map(|c| detach(c, id))
                }
                ElementKind::ResultList { item, .. } => detach(item, id),
                _ => None,
            }
        }
        let element = detach(&mut self.root, id).expect("presence checked above");
        // ...and reattach at the requested position.
        let target = self
            .root
            .find_mut(new_parent)
            .expect("destination checked above");
        if let ElementKind::Container { children, .. } = &mut target.kind {
            let at = index.min(children.len());
            children.insert(at, element);
        }
        Ok(())
    }

    /// Find an element.
    pub fn find(&self, id: ElementId) -> Option<&Element> {
        self.root.find(id)
    }

    /// Find an element mutably.
    pub(crate) fn find_mut(&mut self, id: ElementId) -> Option<&mut Element> {
        self.root.find_mut(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_assigns_fresh_ids_recursively() {
        let mut c = Canvas::new();
        let id = c
            .insert(
                c.root_id(),
                Element::column(vec![Element::text("a"), Element::text("b")]),
            )
            .unwrap();
        let inserted = c.find(id).unwrap();
        let mut ids = Vec::new();
        inserted.visit(&mut |e| ids.push(e.id.0));
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|&i| i >= 2));
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "ids must be unique");
    }

    #[test]
    fn insert_into_unknown_parent_fails() {
        let mut c = Canvas::new();
        assert_eq!(
            c.insert(ElementId(99), Element::text("x")).unwrap_err(),
            DesignError::UnknownElement(ElementId(99))
        );
    }

    #[test]
    fn insert_into_leaf_fails() {
        let mut c = Canvas::new();
        let leaf = c.insert(c.root_id(), Element::text("x")).unwrap();
        assert_eq!(
            c.insert(leaf, Element::text("y")).unwrap_err(),
            DesignError::NotAContainer(leaf)
        );
    }

    #[test]
    fn insert_onto_result_list_goes_into_item_layout() {
        let mut c = Canvas::new();
        let list = c
            .insert(
                c.root_id(),
                Element::result_list("inv", Element::column(vec![Element::text("{title}")]), 5),
            )
            .unwrap();
        let nested = c
            .insert(
                list,
                Element::result_list("reviews", Element::text("{title}"), 3),
            )
            .unwrap();
        let list_el = c.find(list).unwrap();
        assert_eq!(list_el.sources(), vec!["inv", "reviews"]);
        assert!(c.find(nested).is_some());
    }

    #[test]
    fn insert_onto_result_list_with_leaf_item_wraps() {
        let mut c = Canvas::new();
        let list = c
            .insert(
                c.root_id(),
                Element::result_list("inv", Element::text("{t}"), 5),
            )
            .unwrap();
        c.insert(list, Element::text("extra")).unwrap();
        if let ElementKind::ResultList { item, .. } = &c.find(list).unwrap().kind {
            assert_eq!(item.kind.name(), "container");
        } else {
            panic!("not a result list");
        }
    }

    #[test]
    fn remove_subtree() {
        let mut c = Canvas::new();
        let id = c.insert(c.root_id(), Element::text("x")).unwrap();
        c.remove(id).unwrap();
        assert!(c.find(id).is_none());
        assert_eq!(c.remove(id).unwrap_err(), DesignError::UnknownElement(id));
    }

    #[test]
    fn cannot_remove_root() {
        let mut c = Canvas::new();
        assert_eq!(
            c.remove(c.root_id()).unwrap_err(),
            DesignError::CannotRemoveRoot
        );
    }

    #[test]
    fn move_element_repositions_subtree_keeping_ids() {
        let mut c = Canvas::new();
        let a = c.insert(c.root_id(), Element::text("a")).unwrap();
        let b = c.insert(c.root_id(), Element::column(vec![])).unwrap();
        let x = c.insert(c.root_id(), Element::text("x")).unwrap();
        // Move x into container b.
        c.move_element(x, b, 0).unwrap();
        let bb = c.find(b).unwrap();
        if let crate::element::ElementKind::Container { children, .. } = &bb.kind {
            assert_eq!(children.len(), 1);
            assert_eq!(children[0].id, x);
        } else {
            panic!();
        }
        // Move x back before a (index 0 of root).
        let root = c.root_id();
        c.move_element(x, root, 0).unwrap();
        if let crate::element::ElementKind::Container { children, .. } = &c.root().kind {
            assert_eq!(children[0].id, x);
            assert_eq!(children[1].id, a);
        } else {
            panic!();
        }
    }

    #[test]
    fn move_into_own_subtree_rejected() {
        let mut c = Canvas::new();
        let outer = c
            .insert(c.root_id(), Element::column(vec![Element::column(vec![])]))
            .unwrap();
        // Find the inner container's id.
        let inner = {
            let mut ids = Vec::new();
            c.find(outer).unwrap().visit(&mut |e| ids.push(e.id));
            ids[1]
        };
        assert_eq!(
            c.move_element(outer, inner, 0).unwrap_err(),
            DesignError::NotAContainer(inner)
        );
    }

    #[test]
    fn move_rejects_root_and_leaf_targets() {
        let mut c = Canvas::new();
        let leaf = c.insert(c.root_id(), Element::text("t")).unwrap();
        let other = c.insert(c.root_id(), Element::text("u")).unwrap();
        let root = c.root_id();
        assert_eq!(
            c.move_element(root, root, 0).unwrap_err(),
            DesignError::CannotRemoveRoot
        );
        assert_eq!(
            c.move_element(other, leaf, 0).unwrap_err(),
            DesignError::NotAContainer(leaf)
        );
        assert_eq!(
            c.move_element(ElementId(99), root, 0).unwrap_err(),
            DesignError::UnknownElement(ElementId(99))
        );
    }

    #[test]
    fn palette_registration_idempotent() {
        let mut c = Canvas::new();
        c.register_source(DataSourceCard {
            name: "inv".into(),
            category: "proprietary".into(),
            fields: vec!["title".into()],
        });
        c.register_source(DataSourceCard {
            name: "inv".into(),
            category: "proprietary".into(),
            fields: vec!["title".into(), "price".into()],
        });
        assert_eq!(c.palette().len(), 1);
        assert_eq!(c.source("inv").unwrap().fields.len(), 2);
        assert!(c.source("nope").is_none());
    }
}
