//! The element tree — the designer's document model.
//!
//! Fig. 1 right panel: a result layout composed of HTML elements
//! ("text, images and hyperlinks using fields from the data source"),
//! plus the application-level pieces: the search box, result lists
//! (one per data source on the canvas), and layout containers.

use crate::binding::{Binding, Template};
use crate::style::StyleProps;

/// Stable identifier of an element within one canvas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub u32);

/// Layout direction for containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Children render left-to-right.
    Row,
    /// Children render top-to-bottom.
    Column,
}

/// The element variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ElementKind {
    /// Layout container.
    Container {
        /// Flow direction.
        direction: Direction,
        /// Children in order.
        children: Vec<Element>,
    },
    /// Text with `{field}` interpolation (HTML-escaped on render).
    Text {
        /// The template.
        template: Template,
    },
    /// Like `Text`, but rendered *without* HTML escaping. Only for
    /// fields the platform itself produced as safe HTML — e.g. the
    /// web engine's highlighted snippets (which are escaped at
    /// snippet-generation time, with `<b>` markers added after). Never
    /// bind raw uploaded data here.
    RichText {
        /// The template.
        template: Template,
    },
    /// An image bound to a source URL.
    Image {
        /// Image source.
        src: Binding,
        /// Alt text template.
        alt: Template,
    },
    /// A hyperlink with a templated label.
    Link {
        /// Target URL.
        href: Binding,
        /// Visible label.
        label: Template,
    },
    /// The application's query input.
    SearchBox {
        /// Placeholder text.
        placeholder: String,
    },
    /// Renders the results of a named data source using an item
    /// layout (dropping supplemental sources *onto a result layout*
    /// nests another `ResultList` inside the item).
    ResultList {
        /// Data-source name this list renders.
        source: String,
        /// Layout applied to each result.
        item: Box<Element>,
        /// Result count ("how many results to be shown", Fig. 1).
        max_results: usize,
    },
}

impl ElementKind {
    /// Kind name used by stylesheet selectors and rendering.
    pub fn name(&self) -> &'static str {
        match self {
            ElementKind::Container { .. } => "container",
            ElementKind::Text { .. } => "text",
            ElementKind::RichText { .. } => "richtext",
            ElementKind::Image { .. } => "image",
            ElementKind::Link { .. } => "link",
            ElementKind::SearchBox { .. } => "searchbox",
            ElementKind::ResultList { .. } => "resultlist",
        }
    }
}

/// One node of the design tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Element {
    /// Id assigned by the designer (0 until inserted).
    pub id: ElementId,
    /// Variant.
    pub kind: ElementKind,
    /// Optional class for stylesheet targeting.
    pub class: Option<String>,
    /// Inline style properties.
    pub style: StyleProps,
}

impl Element {
    /// New element with no id/class/style.
    pub(crate) fn new(kind: ElementKind) -> Element {
        Element {
            id: ElementId(0),
            kind,
            class: None,
            style: StyleProps::new(),
        }
    }

    /// Row container.
    #[cfg(test)]
    pub(crate) fn row(children: Vec<Element>) -> Element {
        Element::new(ElementKind::Container {
            direction: Direction::Row,
            children,
        })
    }

    /// Column container.
    pub fn column(children: Vec<Element>) -> Element {
        Element::new(ElementKind::Container {
            direction: Direction::Column,
            children,
        })
    }

    /// Text element from a template string.
    pub fn text(template: &str) -> Element {
        Element::new(ElementKind::Text {
            template: Template::parse(template),
        })
    }

    /// Rich-text element: renders without escaping (see
    /// [`ElementKind::RichText`] for the safety contract).
    pub fn rich_text(template: &str) -> Element {
        Element::new(ElementKind::RichText {
            template: Template::parse(template),
        })
    }

    /// Image bound to a field.
    pub fn image_field(field: &str, alt: &str) -> Element {
        Element::new(ElementKind::Image {
            src: Binding::Field(field.to_string()),
            alt: Template::parse(alt),
        })
    }

    /// Link with field-bound href and templated label.
    pub fn link_field(href_field: &str, label: &str) -> Element {
        Element::new(ElementKind::Link {
            href: Binding::Field(href_field.to_string()),
            label: Template::parse(label),
        })
    }

    /// Search box.
    pub fn search_box(placeholder: &str) -> Element {
        Element::new(ElementKind::SearchBox {
            placeholder: placeholder.to_string(),
        })
    }

    /// Result list for a data source.
    pub fn result_list(source: &str, item: Element, max_results: usize) -> Element {
        Element::new(ElementKind::ResultList {
            source: source.to_string(),
            item: Box::new(item),
            max_results,
        })
    }

    /// Builder: set the class.
    pub fn with_class(mut self, class: &str) -> Element {
        self.class = Some(class.to_string());
        self
    }

    /// Builder: set an inline style property.
    #[cfg(test)]
    pub(crate) fn with_style(mut self, name: &str, value: &str) -> Element {
        self.style.set(name, value);
        self
    }

    /// Depth-first search for an element.
    pub(crate) fn find(&self, id: ElementId) -> Option<&Element> {
        if self.id == id {
            return Some(self);
        }
        match &self.kind {
            ElementKind::Container { children, .. } => children.iter().find_map(|c| c.find(id)),
            ElementKind::ResultList { item, .. } => item.find(id),
            _ => None,
        }
    }

    /// Depth-first mutable search.
    pub(crate) fn find_mut(&mut self, id: ElementId) -> Option<&mut Element> {
        if self.id == id {
            return Some(self);
        }
        match &mut self.kind {
            ElementKind::Container { children, .. } => {
                children.iter_mut().find_map(|c| c.find_mut(id))
            }
            ElementKind::ResultList { item, .. } => item.find_mut(id),
            _ => None,
        }
    }

    /// Visit every node depth-first.
    pub fn visit<'a>(&'a self, f: &mut dyn FnMut(&'a Element)) {
        f(self);
        match &self.kind {
            ElementKind::Container { children, .. } => {
                for c in children {
                    c.visit(f);
                }
            }
            ElementKind::ResultList { item, .. } => item.visit(f),
            _ => {}
        }
    }

    /// Number of nodes in the subtree.
    #[cfg(test)]
    pub(crate) fn node_count(&self) -> usize {
        let mut n = 0;
        self.visit(&mut |_| n += 1);
        n
    }

    /// All data-source names referenced by `ResultList`s in the
    /// subtree (depth-first order, deduped).
    pub fn sources(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        self.visit(&mut |e| {
            if let ElementKind::ResultList { source, .. } = &e.kind {
                if !out.contains(source) {
                    out.push(source.clone());
                }
            }
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::column(vec![
            Element::search_box("Search games…"),
            Element::result_list(
                "inventory",
                Element::column(vec![
                    Element::link_field("detail_url", "{title}"),
                    Element::image_field("image_url", "{title}"),
                    Element::text("{description}"),
                    Element::result_list("reviews", Element::text("{title}"), 3),
                ]),
                10,
            ),
        ])
    }

    #[test]
    fn builders_produce_expected_kinds() {
        let e = sample();
        assert_eq!(e.kind.name(), "container");
        assert_eq!(e.node_count(), 9);
    }

    #[test]
    fn sources_lists_nested_result_lists() {
        assert_eq!(sample().sources(), vec!["inventory", "reviews"]);
    }

    #[test]
    fn find_by_id_after_manual_assignment() {
        let mut e = sample();
        // Assign ids depth-first.
        let mut next = 1u32;
        fn assign(e: &mut Element, next: &mut u32) {
            e.id = ElementId(*next);
            *next += 1;
            match &mut e.kind {
                ElementKind::Container { children, .. } => {
                    for c in children {
                        assign(c, next);
                    }
                }
                ElementKind::ResultList { item, .. } => assign(item, next),
                _ => {}
            }
        }
        assign(&mut e, &mut next);
        assert!(e.find(ElementId(5)).is_some());
        assert!(e.find(ElementId(99)).is_none());
        e.find_mut(ElementId(5)).unwrap().style.set("color", "red");
        assert_eq!(
            e.find(ElementId(5)).unwrap().style.get("color"),
            Some("red")
        );
    }

    #[test]
    fn class_and_style_builders() {
        let e = Element::text("x")
            .with_class("hl")
            .with_style("color", "red");
        assert_eq!(e.class.as_deref(), Some("hl"));
        assert_eq!(e.style.get("color"), Some("red"));
    }

    #[test]
    fn kind_names_cover_all_variants() {
        assert_eq!(Element::text("x").kind.name(), "text");
        assert_eq!(Element::search_box("s").kind.name(), "searchbox");
        assert_eq!(
            Element::result_list("s", Element::text("x"), 1).kind.name(),
            "resultlist"
        );
        assert_eq!(Element::image_field("f", "a").kind.name(), "image");
        assert_eq!(Element::link_field("f", "l").kind.name(), "link");
    }
}
