//! Prebuilt layouts and the wizard (paper: "templates, wizard-style
//! assistance from Symphony").
//!
//! The wizard inspects a data source's field names and proposes the
//! classic result layout of Fig. 1: a hyperlink, an image, and a
//! descriptive field.

use crate::element::Element;

/// Field-name heuristics the wizard recognizes.
fn find_field<'a>(fields: &'a [String], candidates: &[&str]) -> Option<&'a str> {
    // Exact (case-insensitive) matches first, then substring matches.
    for cand in candidates {
        if let Some(f) = fields.iter().find(|f| f.eq_ignore_ascii_case(cand)) {
            return Some(f);
        }
    }
    for cand in candidates {
        if let Some(f) = fields
            .iter()
            .find(|f| f.to_lowercase().contains(&cand.to_lowercase()))
        {
            return Some(f);
        }
    }
    None
}

/// Propose an item layout for a source exposing `fields`.
///
/// Heuristics: a title-ish field becomes a hyperlink (bound to a
/// URL-ish field when one exists, otherwise plain headline text); an
/// image-ish field becomes an `<img>`; a description-ish field becomes
/// body text; a price-ish field is appended as a caption. Sources with
/// none of those get their first three fields as labeled text rows.
pub(crate) fn wizard_item_layout(fields: &[String]) -> Element {
    let title = find_field(fields, &["title", "name", "headline"]);
    let url = find_field(fields, &["url", "link", "detail_url", "href"]);
    let image = find_field(fields, &["image", "image_url", "thumbnail", "img", "src"]);
    let desc = find_field(
        fields,
        &["description", "snippet", "summary", "body", "text", "blurb"],
    );
    let price = find_field(fields, &["price", "cost"]);

    let mut children = Vec::new();
    match (title, url) {
        (Some(t), Some(u)) => {
            children.push(Element::link_field(u, &format!("{{{t}}}")).with_class("result-title"))
        }
        (Some(t), None) => {
            children.push(Element::text(&format!("{{{t}}}")).with_class("result-title"))
        }
        (None, Some(u)) => {
            children.push(Element::link_field(u, &format!("{{{u}}}")).with_class("result-title"))
        }
        (None, None) => {}
    }
    if let Some(img) = image {
        let alt = title.map(|t| format!("{{{t}}}")).unwrap_or_default();
        children.push(Element::image_field(img, &alt).with_class("result-image"));
    }
    if let Some(d) = desc {
        // Snippets arrive pre-highlighted (safe HTML) from the search
        // engine; other descriptive fields are raw data and escape.
        let el = if d.to_lowercase().contains("snippet") {
            Element::rich_text(&format!("{{{d}}}"))
        } else {
            Element::text(&format!("{{{d}}}"))
        };
        children.push(el.with_class("result-description"));
    }
    if let Some(p) = price {
        children.push(Element::text(&format!("${{{p}}}")).with_class("result-price"));
    }
    if children.is_empty() {
        for f in fields.iter().take(3) {
            children.push(Element::text(&format!("{f}: {{{f}}}")));
        }
    }
    Element::column(children).with_class("result-item")
}

/// The classic web-result layout (link + snippet), used by default for
/// web-vertical sources.
pub fn web_result_layout() -> Element {
    Element::column(vec![
        Element::link_field("url", "{title}").with_class("result-title"),
        Element::rich_text("{snippet}").with_class("result-description"),
        Element::text("{domain}").with_class("result-domain"),
    ])
    .with_class("result-item")
}

/// An ad layout (clearly labeled, per the paper's voluntary-ads
/// policy).
pub fn ad_layout() -> Element {
    Element::column(vec![
        Element::text("Sponsored").with_class("ad-label"),
        Element::link_field("target_url", "{title}").with_class("ad-title"),
        Element::text("{text}").with_class("ad-text"),
        Element::text("{display_url}").with_class("ad-display-url"),
    ])
    .with_class("result-item ad")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::ElementKind;

    fn f(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn wizard_classic_inventory() {
        let layout = wizard_item_layout(&f(&[
            "title",
            "detail_url",
            "image_url",
            "description",
            "price",
        ]));
        let kinds: Vec<&str> = match &layout.kind {
            ElementKind::Container { children, .. } => {
                children.iter().map(|c| c.kind.name()).collect()
            }
            _ => panic!(),
        };
        assert_eq!(kinds, vec!["link", "image", "text", "text"]);
    }

    #[test]
    fn wizard_title_without_url_is_text() {
        let layout = wizard_item_layout(&f(&["name", "stock"]));
        if let ElementKind::Container { children, .. } = &layout.kind {
            assert_eq!(children[0].kind.name(), "text");
        } else {
            panic!();
        }
    }

    #[test]
    fn wizard_substring_heuristics() {
        let layout = wizard_item_layout(&f(&["game_title", "review_link", "thumb_image"]));
        if let ElementKind::Container { children, .. } = &layout.kind {
            assert_eq!(children[0].kind.name(), "link");
            assert!(children.iter().any(|c| c.kind.name() == "image"));
        } else {
            panic!();
        }
    }

    #[test]
    fn wizard_fallback_lists_first_fields() {
        let layout = wizard_item_layout(&f(&["alpha", "beta", "gamma", "delta"]));
        if let ElementKind::Container { children, .. } = &layout.kind {
            assert_eq!(children.len(), 3);
            assert!(children.iter().all(|c| c.kind.name() == "text"));
        } else {
            panic!();
        }
    }

    #[test]
    fn prebuilt_layouts_have_classes() {
        assert_eq!(web_result_layout().class.as_deref(), Some("result-item"));
        assert!(ad_layout().class.as_deref().unwrap().contains("ad"));
    }

    #[test]
    fn ad_layout_is_labeled_sponsored() {
        let mut found = false;
        ad_layout().visit(&mut |e| {
            if let ElementKind::Text { template } = &e.kind {
                if template.source() == "Sponsored" {
                    found = true;
                }
            }
        });
        assert!(found);
    }
}
