//! The drag-and-drop operation log with undo/redo.
//!
//! The WYSIWYG surface of Fig. 1 is a GUI; its programmatic equivalent
//! is a sequence of [`DesignOp`]s applied to a [`Canvas`] through a
//! [`Designer`]. Examples and the Fig.-1 report binary construct
//! applications exactly this way, which makes the "no coding required"
//! interaction reproducible and testable.

use crate::canvas::{Canvas, DataSourceCard, DesignError};
use crate::element::{Element, ElementId};
use crate::template::wizard_item_layout;

/// One designer interaction.
#[derive(Debug, Clone, PartialEq)]
pub enum DesignOp {
    /// Drag a palette source onto a container: creates a result list
    /// whose item layout the wizard proposes from the source's fields.
    DropSource {
        /// Palette source name.
        source: String,
        /// Drop target (a container, usually the root).
        target: ElementId,
        /// "How many results to be shown" (Fig. 1).
        max_results: usize,
    },
    /// Add an explicit element under a parent.
    AddElement {
        /// Parent container (or result list, meaning its item layout).
        parent: ElementId,
        /// The element to add.
        element: Element,
    },
    /// Remove an element subtree.
    RemoveElement {
        /// Element to remove.
        id: ElementId,
    },
    /// Set one inline style property.
    SetStyle {
        /// Target element.
        id: ElementId,
        /// Property name ("color").
        property: String,
        /// Property value ("navy").
        value: String,
    },
    /// Assign a stylesheet class.
    SetClass {
        /// Target element.
        id: ElementId,
        /// Class name.
        class: String,
    },
    /// Rearrange: move an element under a new parent container
    /// ("Multiple data sources can be added to the layout and
    /// arranged as desired", Fig. 1).
    MoveElement {
        /// Element to move (subtree moves with it).
        id: ElementId,
        /// Destination container.
        new_parent: ElementId,
        /// Position among the destination's children (clamped).
        index: usize,
    },
}

/// The designer session: canvas + undo/redo stacks.
///
/// Undo is snapshot-based: canvases are small (tens of nodes), so a
/// clone per op is cheaper than maintaining inverse operations and
/// trivially correct.
#[derive(Debug, Default)]
pub struct Designer {
    canvas: Canvas,
    undo: Vec<Canvas>,
    redo: Vec<Canvas>,
}

impl Designer {
    /// Start from an empty canvas.
    pub fn new() -> Designer {
        Designer::default()
    }

    /// The current canvas.
    pub fn canvas(&self) -> &Canvas {
        &self.canvas
    }

    /// Consume the designer, yielding the canvas.
    pub fn into_canvas(self) -> Canvas {
        self.canvas
    }

    /// Register a palette source (not an undoable edit).
    pub fn register_source(&mut self, card: DataSourceCard) {
        self.canvas.register_source(card);
    }

    /// Apply one operation. Returns the id of the element the op
    /// created, when it created one.
    pub fn apply(&mut self, op: DesignOp) -> Result<Option<ElementId>, DesignError> {
        let snapshot = self.canvas.clone();
        let result = self.apply_inner(op);
        match result {
            Ok(created) => {
                self.undo.push(snapshot);
                self.redo.clear();
                Ok(created)
            }
            Err(e) => Err(e),
        }
    }

    fn apply_inner(&mut self, op: DesignOp) -> Result<Option<ElementId>, DesignError> {
        match op {
            DesignOp::DropSource {
                source,
                target,
                max_results,
            } => {
                let card = self
                    .canvas
                    .source(&source)
                    .ok_or_else(|| DesignError::UnknownSource(source.clone()))?
                    .clone();
                let item = wizard_item_layout(&card.fields);
                let list = Element::result_list(&card.name, item, max_results);
                let id = self.canvas.insert(target, list)?;
                Ok(Some(id))
            }
            DesignOp::AddElement { parent, element } => {
                let id = self.canvas.insert(parent, element)?;
                Ok(Some(id))
            }
            DesignOp::RemoveElement { id } => {
                self.canvas.remove(id)?;
                Ok(None)
            }
            DesignOp::SetStyle {
                id,
                property,
                value,
            } => {
                let el = self
                    .canvas
                    .find_mut(id)
                    .ok_or(DesignError::UnknownElement(id))?;
                el.style.set(&property, &value);
                Ok(None)
            }
            DesignOp::SetClass { id, class } => {
                let el = self
                    .canvas
                    .find_mut(id)
                    .ok_or(DesignError::UnknownElement(id))?;
                el.class = Some(class);
                Ok(None)
            }
            DesignOp::MoveElement {
                id,
                new_parent,
                index,
            } => {
                self.canvas.move_element(id, new_parent, index)?;
                Ok(None)
            }
        }
    }

    /// Undo the last applied op.
    pub fn undo(&mut self) -> Result<(), DesignError> {
        let prev = self.undo.pop().ok_or(DesignError::NothingToUndo)?;
        self.redo.push(std::mem::replace(&mut self.canvas, prev));
        Ok(())
    }

    /// Redo the last undone op.
    pub fn redo(&mut self) -> Result<(), DesignError> {
        let next = self.redo.pop().ok_or(DesignError::NothingToRedo)?;
        self.undo.push(std::mem::replace(&mut self.canvas, next));
        Ok(())
    }

    /// Depth of the undo stack (ops applied and undoable).
    pub fn undo_depth(&self) -> usize {
        self.undo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inventory_card() -> DataSourceCard {
        DataSourceCard {
            name: "inventory".into(),
            category: "proprietary".into(),
            fields: vec![
                "title".into(),
                "detail_url".into(),
                "image_url".into(),
                "description".into(),
            ],
        }
    }

    fn designer() -> Designer {
        let mut d = Designer::new();
        d.register_source(inventory_card());
        d
    }

    #[test]
    fn drop_source_builds_wizard_layout() {
        let mut d = designer();
        let root = d.canvas().root_id();
        let id = d
            .apply(DesignOp::DropSource {
                source: "inventory".into(),
                target: root,
                max_results: 10,
            })
            .unwrap()
            .unwrap();
        let el = d.canvas().find(id).unwrap();
        assert_eq!(el.kind.name(), "resultlist");
        assert_eq!(el.sources(), vec!["inventory"]);
        // Wizard produced link+image+description inside.
        assert!(el.node_count() >= 4);
    }

    #[test]
    fn hybrid_source_card_drops_like_any_other() {
        // A hybrid source (structured predicate + full-text, planned
        // by the store's selectivity planner) reaches the designer as
        // a palette card with category "hybrid" and the table's schema
        // fields — the wizard needs no special casing.
        let mut d = Designer::new();
        d.register_source(DataSourceCard {
            name: "cheap_in_stock".into(),
            category: "hybrid".into(),
            fields: vec!["title".into(), "description".into(), "price".into()],
        });
        assert_eq!(
            d.canvas().source("cheap_in_stock").unwrap().category,
            "hybrid"
        );
        let root = d.canvas().root_id();
        let id = d
            .apply(DesignOp::DropSource {
                source: "cheap_in_stock".into(),
                target: root,
                max_results: 5,
            })
            .unwrap()
            .unwrap();
        let el = d.canvas().find(id).unwrap();
        assert_eq!(el.kind.name(), "resultlist");
        assert_eq!(el.sources(), vec!["cheap_in_stock"]);
    }

    #[test]
    fn drop_unknown_source_fails_without_mutating() {
        let mut d = designer();
        let root = d.canvas().root_id();
        let before = d.canvas().clone();
        let err = d
            .apply(DesignOp::DropSource {
                source: "nope".into(),
                target: root,
                max_results: 5,
            })
            .unwrap_err();
        assert_eq!(err, DesignError::UnknownSource("nope".into()));
        assert_eq!(d.canvas(), &before);
        assert_eq!(d.undo_depth(), 0);
    }

    #[test]
    fn undo_redo_roundtrip() {
        let mut d = designer();
        let root = d.canvas().root_id();
        let empty = d.canvas().clone();
        d.apply(DesignOp::AddElement {
            parent: root,
            element: Element::text("hello"),
        })
        .unwrap();
        let with_text = d.canvas().clone();
        d.undo().unwrap();
        assert_eq!(d.canvas(), &empty);
        d.redo().unwrap();
        assert_eq!(d.canvas(), &with_text);
    }

    #[test]
    fn new_op_clears_redo() {
        let mut d = designer();
        let root = d.canvas().root_id();
        d.apply(DesignOp::AddElement {
            parent: root,
            element: Element::text("a"),
        })
        .unwrap();
        d.undo().unwrap();
        d.apply(DesignOp::AddElement {
            parent: root,
            element: Element::text("b"),
        })
        .unwrap();
        assert_eq!(d.redo().unwrap_err(), DesignError::NothingToRedo);
    }

    #[test]
    fn undo_on_empty_stack_errors() {
        let mut d = designer();
        assert_eq!(d.undo().unwrap_err(), DesignError::NothingToUndo);
    }

    #[test]
    fn style_and_class_ops() {
        let mut d = designer();
        let root = d.canvas().root_id();
        let id = d
            .apply(DesignOp::AddElement {
                parent: root,
                element: Element::text("x"),
            })
            .unwrap()
            .unwrap();
        d.apply(DesignOp::SetStyle {
            id,
            property: "color".into(),
            value: "navy".into(),
        })
        .unwrap();
        d.apply(DesignOp::SetClass {
            id,
            class: "headline".into(),
        })
        .unwrap();
        let el = d.canvas().find(id).unwrap();
        assert_eq!(el.style.get("color"), Some("navy"));
        assert_eq!(el.class.as_deref(), Some("headline"));
        // Undo restores the style but keeps the class (separate ops).
        d.undo().unwrap();
        let el = d.canvas().find(id).unwrap();
        assert_eq!(el.style.get("color"), Some("navy"));
        assert_eq!(el.class, None);
    }

    #[test]
    fn move_op_is_undoable() {
        let mut d = designer();
        let root = d.canvas().root_id();
        let a = d
            .apply(DesignOp::AddElement {
                parent: root,
                element: Element::text("a"),
            })
            .unwrap()
            .unwrap();
        let b = d
            .apply(DesignOp::AddElement {
                parent: root,
                element: Element::text("b"),
            })
            .unwrap()
            .unwrap();
        d.apply(DesignOp::MoveElement {
            id: b,
            new_parent: root,
            index: 0,
        })
        .unwrap();
        let order = |d: &Designer| -> Vec<u32> {
            match &d.canvas().root().kind {
                crate::element::ElementKind::Container { children, .. } => {
                    children.iter().map(|c| c.id.0).collect()
                }
                _ => panic!("root is a container"),
            }
        };
        assert_eq!(order(&d), vec![b.0, a.0]);
        d.undo().unwrap();
        assert_eq!(order(&d), vec![a.0, b.0]);
    }

    #[test]
    fn remove_op() {
        let mut d = designer();
        let root = d.canvas().root_id();
        let id = d
            .apply(DesignOp::AddElement {
                parent: root,
                element: Element::text("x"),
            })
            .unwrap()
            .unwrap();
        d.apply(DesignOp::RemoveElement { id }).unwrap();
        assert!(d.canvas().find(id).is_none());
        d.undo().unwrap();
        assert!(d.canvas().find(id).is_some());
    }
}
