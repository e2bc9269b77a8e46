//! Style properties and stylesheets.
//!
//! Paper §II-A, "Presentation": look-and-feel customization *"via
//! templates, wizard-style assistance, or through style properties on
//! individual elements (e.g., color, font-size). For more web-savvy
//! users, greater control is possible via style-sheets."* Both levels
//! exist here: per-element [`StyleProps`] and [`Stylesheet`] rules with
//! a simple cascade (kind < class < id < inline).

use crate::render::push_text;

/// An ordered property list (`color: red; font-size: 12px`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StyleProps {
    props: Vec<(String, String)>,
}

impl StyleProps {
    /// Empty properties.
    pub fn new() -> StyleProps {
        StyleProps::default()
    }

    /// Builder-style property set.
    pub fn with(mut self, name: &str, value: &str) -> StyleProps {
        self.set(name, value);
        self
    }

    /// Set (or replace) a property.
    pub(crate) fn set(&mut self, name: &str, value: &str) {
        match self.props.iter_mut().find(|(k, _)| k == name) {
            Some((_, v)) => *v = value.to_string(),
            None => self.props.push((name.to_string(), value.to_string())),
        }
    }

    /// Property lookup.
    #[cfg(test)]
    pub(crate) fn get(&self, name: &str) -> Option<&str> {
        self.props
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Overlay `other` on top of `self` (other wins).
    pub(crate) fn merge_over(&self, other: &StyleProps) -> StyleProps {
        let mut merged = self.clone();
        for (k, v) in &other.props {
            merged.set(k, v);
        }
        merged
    }

    /// True when no property is set.
    pub(crate) fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// Append the inline `style` attribute value (`k:v;k:v`) to `out`,
    /// HTML-escaped when `escape` is set.
    pub(crate) fn write_inline_css(&self, out: &mut String, escape: bool) {
        for (i, (k, v)) in self.props.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            push_text(out, k, escape);
            out.push(':');
            push_text(out, v, escape);
        }
    }
}

/// What a stylesheet rule targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selector {
    /// Every element of a kind name ("text", "link", "image", ...).
    Kind(String),
    /// Elements carrying a class.
    Class(String),
    /// One element by id.
    Id(u32),
}

/// Cascade strength of a selector (higher wins).
fn specificity(s: &Selector) -> u8 {
    match s {
        Selector::Kind(_) => 0,
        Selector::Class(_) => 1,
        Selector::Id(_) => 2,
    }
}

/// An ordered list of `(selector, props)` rules.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stylesheet {
    rules: Vec<(Selector, StyleProps)>,
}

impl Stylesheet {
    /// Empty stylesheet.
    pub fn new() -> Stylesheet {
        Stylesheet::default()
    }

    /// Append a rule.
    pub fn rule(mut self, selector: Selector, props: StyleProps) -> Stylesheet {
        self.rules.push((selector, props));
        self
    }

    /// Number of rules.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when no rules exist.
    pub(crate) fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Compute the effective style for an element: matching rules in
    /// specificity order (kind, class, id), then `inline` on top.
    pub(crate) fn resolve(
        &self,
        kind: &str,
        class: Option<&str>,
        id: u32,
        inline: &StyleProps,
    ) -> StyleProps {
        let mut matching: Vec<&(Selector, StyleProps)> = self
            .rules
            .iter()
            .filter(|(sel, _)| match sel {
                Selector::Kind(k) => k == kind,
                Selector::Class(c) => class == Some(c.as_str()),
                Selector::Id(i) => *i == id,
            })
            .collect();
        matching.sort_by_key(|(sel, _)| specificity(sel));
        let mut out = StyleProps::new();
        for (_, props) in matching {
            out = out.merge_over(props);
        }
        out.merge_over(inline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_replace() {
        let mut p = StyleProps::new();
        p.set("color", "red");
        p.set("color", "blue");
        assert_eq!(p.get("color"), Some("blue"));
        assert_eq!(p.get("font-size"), None);
    }

    #[test]
    fn inline_css_rendering() {
        let p = StyleProps::new()
            .with("color", "red")
            .with("font-size", "12px");
        let css = |p: &StyleProps, escape| {
            let mut out = String::new();
            p.write_inline_css(&mut out, escape);
            out
        };
        assert_eq!(css(&p, false), "color:red;font-size:12px");
        assert_eq!(css(&StyleProps::new(), false), "");
        let q = StyleProps::new().with("font-family", "\"A&B\"");
        assert_eq!(css(&q, true), "font-family:&quot;A&amp;B&quot;");
    }

    #[test]
    fn merge_over_prefers_other() {
        let base = StyleProps::new().with("color", "red").with("margin", "4px");
        let over = StyleProps::new().with("color", "blue");
        let m = base.merge_over(&over);
        assert_eq!(m.get("color"), Some("blue"));
        assert_eq!(m.get("margin"), Some("4px"));
    }

    #[test]
    fn cascade_specificity() {
        let sheet = Stylesheet::new()
            .rule(
                Selector::Kind("text".into()),
                StyleProps::new()
                    .with("color", "black")
                    .with("font-size", "10px"),
            )
            .rule(
                Selector::Class("headline".into()),
                StyleProps::new().with("color", "navy"),
            )
            .rule(Selector::Id(7), StyleProps::new().with("color", "gold"));
        // Kind only.
        let a = sheet.resolve("text", None, 1, &StyleProps::new());
        assert_eq!(a.get("color"), Some("black"));
        // Class overrides kind.
        let b = sheet.resolve("text", Some("headline"), 1, &StyleProps::new());
        assert_eq!(b.get("color"), Some("navy"));
        assert_eq!(b.get("font-size"), Some("10px"));
        // Id overrides class.
        let c = sheet.resolve("text", Some("headline"), 7, &StyleProps::new());
        assert_eq!(c.get("color"), Some("gold"));
        // Inline overrides everything.
        let d = sheet.resolve(
            "text",
            Some("headline"),
            7,
            &StyleProps::new().with("color", "red"),
        );
        assert_eq!(d.get("color"), Some("red"));
    }

    #[test]
    fn non_matching_rules_ignored() {
        let sheet = Stylesheet::new().rule(
            Selector::Class("x".into()),
            StyleProps::new().with("color", "red"),
        );
        let r = sheet.resolve("text", None, 0, &StyleProps::new());
        assert!(r.is_empty());
        assert_eq!(sheet.len(), 1);
        assert!(!sheet.is_empty());
    }
}
