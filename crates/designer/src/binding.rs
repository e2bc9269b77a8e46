//! Field bindings and `{field}` templates.
//!
//! Fig. 1's result layout binds HTML elements to data-source fields:
//! a hyperlink whose text is `{title}`, an image whose source is
//! `{image_url}`, a text block showing `{description}`. Templates are
//! parsed once and rendered against a field-lookup function.
//!
//! The lookups the renderer uses *lend* their values
//! (`Option<Cow<str>>`): a record's field is borrowed, not cloned. The
//! owned-lookup methods ([`Binding::resolve`], [`Template::render`])
//! are adapters over the lending ones.

use std::borrow::Cow;

use crate::render::push_text;

/// A value that is either a literal or a field reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Binding {
    /// Fixed text.
    Literal(String),
    /// Value of a named data-source field.
    Field(String),
}

impl Binding {
    /// Resolve against a field lookup; missing fields resolve empty.
    #[cfg(test)]
    pub(crate) fn resolve(&self, fields: &dyn Fn(&str) -> Option<String>) -> String {
        self.lend(&|name| fields(name).map(Cow::Owned)).into_owned()
    }

    /// Resolve against a lending lookup: a literal borrows from the
    /// binding, a field whatever the lookup lends; missing fields
    /// resolve empty.
    pub(crate) fn lend<'a, 'v: 'a>(
        &'a self,
        fields: &dyn Fn(&str) -> Option<Cow<'v, str>>,
    ) -> Cow<'a, str> {
        match self {
            Binding::Literal(s) => Cow::Borrowed(s),
            Binding::Field(f) => fields(f).unwrap_or_default(),
        }
    }
}

/// One parsed template segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Segment {
    Literal(String),
    Field(String),
}

/// A `{field}` interpolation template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    segments: Vec<Segment>,
    source: String,
}

impl Template {
    /// Parse a template. `{name}` interpolates a field; `{{` and `}}`
    /// escape literal braces; an unclosed `{` is kept literally.
    pub fn parse(input: &str) -> Template {
        let mut segments = Vec::new();
        let mut literal = String::new();
        let mut chars = input.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '{' if chars.peek() == Some(&'{') => {
                    chars.next();
                    literal.push('{');
                }
                '}' if chars.peek() == Some(&'}') => {
                    chars.next();
                    literal.push('}');
                }
                '{' => {
                    let mut name = String::new();
                    let mut closed = false;
                    for c2 in chars.by_ref() {
                        if c2 == '}' {
                            closed = true;
                            break;
                        }
                        name.push(c2);
                    }
                    if closed && !name.is_empty() && name.chars().all(valid_field_char) {
                        if !literal.is_empty() {
                            segments.push(Segment::Literal(std::mem::take(&mut literal)));
                        }
                        segments.push(Segment::Field(name));
                    } else {
                        // Malformed: keep literally.
                        literal.push('{');
                        literal.push_str(&name);
                        if closed {
                            literal.push('}');
                        }
                    }
                }
                c => literal.push(c),
            }
        }
        if !literal.is_empty() {
            segments.push(Segment::Literal(literal));
        }
        Template {
            segments,
            source: input.to_string(),
        }
    }

    /// The original template text.
    pub(crate) fn source(&self) -> &str {
        &self.source
    }

    /// Field names referenced, in order of first appearance.
    #[cfg(test)]
    pub(crate) fn fields(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for s in &self.segments {
            if let Segment::Field(f) = s {
                if !out.contains(&f.as_str()) {
                    out.push(f);
                }
            }
        }
        out
    }

    /// Render against a field lookup; missing fields render empty.
    pub fn render(&self, fields: &dyn Fn(&str) -> Option<String>) -> String {
        let mut out = String::new();
        self.render_into(&mut out, &|name| fields(name).map(Cow::Owned), false);
        out
    }

    /// Append the rendering to `out`, HTML-escaped when `escape` is
    /// set; missing fields render empty. Escaping segment by segment is
    /// byte-equal to escaping the concatenation (the escape maps each
    /// character on its own).
    pub fn render_into<'v>(
        &self,
        out: &mut String,
        fields: &dyn Fn(&str) -> Option<Cow<'v, str>>,
        escape: bool,
    ) {
        for s in &self.segments {
            match s {
                Segment::Literal(l) => push_text(out, l, escape),
                Segment::Field(f) => {
                    if let Some(v) = fields(f) {
                        push_text(out, &v, escape);
                    }
                }
            }
        }
    }

    /// True when the template is a single bare field (`"{title}"`).
    #[cfg(test)]
    pub(crate) fn is_single_field(&self) -> bool {
        matches!(self.segments.as_slice(), [Segment::Field(_)])
    }
}

fn valid_field_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '.'
}

/// Render helper over a slice of `(name, value)` pairs.
#[cfg(test)]
pub(crate) fn lookup_in<'a>(pairs: &'a [(String, String)]) -> impl Fn(&str) -> Option<String> + 'a {
    move |name: &str| {
        pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(name: &str) -> Option<String> {
        match name {
            "title" => Some("Galactic Raiders".into()),
            "price" => Some("49.99".into()),
            _ => None,
        }
    }

    #[test]
    fn literal_only() {
        let t = Template::parse("hello world");
        assert_eq!(t.render(&fields), "hello world");
        assert!(t.fields().is_empty());
    }

    #[test]
    fn interpolation() {
        let t = Template::parse("{title} — ${price}");
        assert_eq!(t.render(&fields), "Galactic Raiders — $49.99");
        assert_eq!(t.fields(), vec!["title", "price"]);
    }

    #[test]
    fn missing_field_renders_empty() {
        let t = Template::parse("[{nope}]");
        assert_eq!(t.render(&fields), "[]");
    }

    #[test]
    fn escaped_braces() {
        let t = Template::parse("{{literal}} {title}");
        assert_eq!(t.render(&fields), "{literal} Galactic Raiders");
    }

    #[test]
    fn unclosed_brace_is_literal() {
        let t = Template::parse("oops {title");
        assert_eq!(t.render(&fields), "oops {title");
    }

    #[test]
    fn invalid_field_name_is_literal() {
        let t = Template::parse("{not a field}");
        assert_eq!(t.render(&fields), "{not a field}");
    }

    #[test]
    fn single_field_detection() {
        assert!(Template::parse("{title}").is_single_field());
        assert!(!Template::parse("x{title}").is_single_field());
        assert!(!Template::parse("plain").is_single_field());
    }

    #[test]
    fn duplicate_fields_deduped_in_listing() {
        let t = Template::parse("{a} {a} {b}");
        assert_eq!(t.fields(), vec!["a", "b"]);
    }

    #[test]
    fn binding_resolution() {
        assert_eq!(Binding::Literal("x".into()).resolve(&fields), "x");
        assert_eq!(
            Binding::Field("title".into()).resolve(&fields),
            "Galactic Raiders"
        );
        assert_eq!(Binding::Field("none".into()).resolve(&fields), "");
    }

    #[test]
    fn lending_lookups_are_not_copied() {
        let value = String::from("Galactic <Raiders>");
        let lend = |name: &str| (name == "title").then_some(Cow::Borrowed(value.as_str()));
        let field = Binding::Field("title".into());
        assert!(matches!(
            field.lend(&lend),
            Cow::Borrowed("Galactic <Raiders>")
        ));
        let literal = Binding::Literal("x".into());
        assert!(matches!(literal.lend(&lend), Cow::Borrowed("x")));
        assert_eq!(Binding::Field("none".into()).lend(&lend), "");

        let mut out = String::from("> ");
        Template::parse("{title} & co").render_into(&mut out, &lend, true);
        assert_eq!(out, "> Galactic &lt;Raiders&gt; &amp; co");
    }

    #[test]
    fn lookup_in_pairs() {
        let pairs = vec![("a".to_string(), "1".to_string())];
        let f = lookup_in(&pairs);
        assert_eq!(f("a"), Some("1".into()));
        assert_eq!(f("b"), None);
    }
}
