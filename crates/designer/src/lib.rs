//! # symphony-designer
//!
//! The no-code design layer of the Symphony reproduction — the
//! programmatic model behind the WYSIWYG interface of the paper's
//! Fig. 1.
//!
//! * `binding` — `{field}` templates and field bindings.
//! * `style` — style properties, stylesheets, cascade.
//! * `element` — the element tree (containers, text, images,
//!   hyperlinks, search box, result lists).
//! * [`canvas`] — data-source palette + the tree, with structural ops.
//! * [`ops`] — drag-and-drop operations with undo/redo.
//! * [`template`] — prebuilt layouts and the wizard.
//! * `render` — HTML rendering (runtime items and the design
//!   surface): one streaming pass into the caller's buffer.
//!
//! ## Quick example
//!
//! ```
//! use symphony_designer::canvas::DataSourceCard;
//! use symphony_designer::ops::{DesignOp, Designer};
//!
//! let mut designer = Designer::new();
//! designer.register_source(DataSourceCard {
//!     name: "inventory".into(),
//!     category: "proprietary".into(),
//!     fields: vec!["title".into(), "detail_url".into(), "description".into()],
//! });
//! let root = designer.canvas().root_id();
//! let list = designer
//!     .apply(DesignOp::DropSource { source: "inventory".into(), target: root, max_results: 10 })
//!     .unwrap()
//!     .unwrap();
//! assert_eq!(designer.canvas().find(list).unwrap().kind.name(), "resultlist");
//! ```

#![warn(missing_docs)]

mod binding;
pub mod canvas;
mod element;
pub mod ops;
mod render;
mod style;
pub mod template;

pub use binding::Template;
pub use canvas::{Canvas, DesignError};
pub use element::{Element, ElementKind};
pub use render::{render_design_surface, render_element, render_into, render_outline};
pub use style::{Selector, StyleProps, Stylesheet};
