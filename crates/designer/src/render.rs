//! HTML rendering of element trees.
//!
//! One streaming renderer, [`render_into`], writes tags, attributes
//! and escaped text straight into the caller's buffer in one pass:
//! field values are *lent* by the lookup (`Option<Cow<str>>`, borrowed
//! from the record), escaping copies the runs between `& < > "` whole,
//! and nested result lists write into the same buffer through the
//! caller's closure. The allocating entry points ([`render_element`],
//! [`escape_html`]) are thin adapters over it that keep
//! their owned signatures for the callers that want a `String`.
//!
//! Two modes share the renderer:
//!
//! * **Runtime** — [`render_into`] renders an item layout against a
//!   concrete record's fields; nested result lists are delegated to a
//!   caller-supplied closure (the platform runtime executes the
//!   supplemental query and renders its items recursively).
//! * **Design surface** — [`render_design_surface`] renders the canvas
//!   with `⟦field⟧` chips instead of data and one sample item per
//!   result list, which is what the Fig.-1 report binary prints.

use std::borrow::Cow;

use crate::canvas::Canvas;
use crate::element::{Direction, Element, ElementKind};
use crate::style::Stylesheet;

/// Append `text` to `out`, escaped for HTML character data and
/// attribute values. The runs between `& < > "` bytes are copied whole.
pub(crate) fn escape_into(out: &mut String, text: &str) {
    let mut run = 0;
    for (i, b) in text.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => continue,
        };
        // The four bytes are ASCII, so `i` is a char boundary.
        out.push_str(&text[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&text[run..]);
}

/// Append `text` to `out`, escaped when `escape` is set.
pub(crate) fn push_text(out: &mut String, text: &str, escape: bool) {
    if escape {
        escape_into(out, text)
    } else {
        out.push_str(text)
    }
}

/// Escape text for HTML character data.
pub(crate) fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    escape_into(&mut out, text);
    out
}

/// Append a URL attribute value: the trimmed URL, escaped, when it is
/// http(s) (ASCII case-insensitive) or relative; `#` otherwise (a
/// `javascript:` URL in uploaded data must not become a live link in a
/// hosted application).
fn url_into(out: &mut String, url: &str) {
    let url = url.trim();
    let has_scheme = |scheme: &str| {
        url.as_bytes()
            .get(..scheme.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(scheme.as_bytes()))
    };
    if has_scheme("http://") || has_scheme("https://") || url.starts_with('/') {
        escape_into(out, url)
    } else {
        out.push('#')
    }
}

/// Escape a URL for an attribute; anything not http(s) or relative is
/// neutralized to `#`.
#[cfg(test)]
pub(crate) fn safe_url(url: &str) -> String {
    let mut out = String::new();
    url_into(&mut out, url);
    out
}

/// `<tag class="…" style="…"`, unclosed. `base` is the class the kind
/// always carries (`sym-row`, `sym-search`), merged with the element's
/// own into one attribute. The cascade runs only when the stylesheet or
/// the inline style has something in it.
fn open_tag(out: &mut String, tag: &str, base: Option<&str>, e: &Element, sheet: &Stylesheet) {
    out.push('<');
    out.push_str(tag);
    if base.is_some() || e.class.is_some() {
        out.push_str(" class=\"");
        if let Some(b) = base {
            out.push_str(b);
        }
        if let Some(c) = &e.class {
            if base.is_some() {
                out.push(' ');
            }
            escape_into(out, c);
        }
        out.push('"');
    }
    if !sheet.is_empty() || !e.style.is_empty() {
        let resolved = sheet.resolve(e.kind.name(), e.class.as_deref(), e.id.0, &e.style);
        if !resolved.is_empty() {
            out.push_str(" style=\"");
            resolved.write_inline_css(out, true);
            out.push('"');
        }
    }
}

/// Render one element into `out` against a lending field lookup.
/// Nested [`ElementKind::ResultList`]s are written by `nested(out,
/// source, max, item_layout)` into the same buffer.
pub fn render_into<'v>(
    out: &mut String,
    e: &Element,
    sheet: &Stylesheet,
    fields: &dyn Fn(&str) -> Option<Cow<'v, str>>,
    nested: &mut dyn FnMut(&mut String, &str, usize, &Element),
) {
    match &e.kind {
        ElementKind::Container {
            direction,
            children,
        } => {
            let dir_class = match direction {
                Direction::Row => "sym-row",
                Direction::Column => "sym-col",
            };
            open_tag(out, "div", Some(dir_class), e, sheet);
            out.push('>');
            for c in children {
                render_into(out, c, sheet, fields, nested);
            }
            out.push_str("</div>");
        }
        ElementKind::Text { template } | ElementKind::RichText { template } => {
            open_tag(out, "span", None, e, sheet);
            out.push('>');
            // `RichText` is not escaped. Safety contract documented on
            // the variant: the bound fields are platform-generated safe
            // HTML.
            let escape = matches!(e.kind, ElementKind::Text { .. });
            template.render_into(out, fields, escape);
            out.push_str("</span>");
        }
        ElementKind::Image { src, alt } => {
            open_tag(out, "img", None, e, sheet);
            out.push_str(" src=\"");
            url_into(out, &src.lend(fields));
            out.push_str("\" alt=\"");
            alt.render_into(out, fields, true);
            out.push_str("\">");
        }
        ElementKind::Link { href, label } => {
            open_tag(out, "a", None, e, sheet);
            out.push_str(" href=\"");
            url_into(out, &href.lend(fields));
            out.push_str("\">");
            label.render_into(out, fields, true);
            out.push_str("</a>");
        }
        ElementKind::SearchBox { placeholder } => {
            open_tag(out, "form", Some("sym-search"), e, sheet);
            out.push_str(
                " onsubmit=\"return symphonySearch(this)\">\
                 <input type=\"text\" name=\"q\" placeholder=\"",
            );
            escape_into(out, placeholder);
            out.push_str("\"><button type=\"submit\">Search</button></form>");
        }
        ElementKind::ResultList {
            source,
            item,
            max_results,
        } => {
            open_tag(out, "div", None, e, sheet);
            out.push_str(" data-source=\"");
            escape_into(out, source);
            out.push_str("\">");
            nested(out, source, *max_results, item);
            out.push_str("</div>");
        }
    }
}

/// Render one element against an owned field lookup. Nested
/// [`ElementKind::ResultList`]s are rendered by `nested(source, max,
/// item_layout)`. An adapter over [`render_into`].
pub fn render_element(
    e: &Element,
    sheet: &Stylesheet,
    fields: &dyn Fn(&str) -> Option<String>,
    nested: &mut dyn FnMut(&str, usize, &Element) -> String,
) -> String {
    let mut out = String::new();
    render_into(
        &mut out,
        e,
        sheet,
        &|name| fields(name).map(Cow::Owned),
        &mut |out, source, max, item| out.push_str(&nested(source, max, item)),
    );
    out
}

/// Render the design-time surface of a canvas: the palette (Fig. 1
/// left bar) and the tree with `⟦field⟧` placeholder chips and one
/// sample item per result list.
pub fn render_design_surface(canvas: &Canvas, sheet: &Stylesheet) -> String {
    let mut html = String::from("<div class=\"sym-designer\">\n<aside class=\"sym-palette\">\n");
    html.push_str("<h3>Data sources</h3>\n<ul>\n");
    for card in canvas.palette() {
        html.push_str(&format!(
            "<li draggable=\"true\" data-source=\"{}\"><b>{}</b> <i>({})</i><br><small>{}</small></li>\n",
            escape_html(&card.name),
            escape_html(&card.name),
            escape_html(&card.category),
            escape_html(&card.fields.join(", ")),
        ));
    }
    html.push_str("</ul>\n</aside>\n<main class=\"sym-canvas\">\n");
    let chips = |name: &str| Some(format!("⟦{name}⟧"));
    let mut sample = |source: &str, max: usize, item: &Element| {
        let inner = render_element(item, sheet, &chips, &mut |s, m, i| {
            // Nested supplemental lists also show one sample item.
            let inner = render_element(i, sheet, &chips, &mut |_, _, _| String::new());
            format!(
                "<div class=\"sym-sample\" data-source=\"{}\" data-max=\"{m}\">{inner}</div>",
                escape_html(s)
            )
        });
        format!(
            "<div class=\"sym-sample\" data-source=\"{}\" data-max=\"{max}\">{inner}</div>",
            escape_html(source)
        )
    };
    html.push_str(&render_element(canvas.root(), sheet, &chips, &mut sample));
    html.push_str("\n</main>\n</div>\n");
    html
}

/// Indented text rendering of the tree structure (the Fig.-1 binary
/// prints this next to the HTML so the layout is inspectable).
pub fn render_outline(e: &Element) -> String {
    fn go(e: &Element, depth: usize, out: &mut String) {
        out.push_str(&"  ".repeat(depth));
        out.push_str(e.kind.name());
        match &e.kind {
            ElementKind::Text { template } => {
                out.push_str(&format!(" {:?}", template.source()));
            }
            ElementKind::Link { label, .. } => {
                out.push_str(&format!(" label={:?}", label.source()));
            }
            ElementKind::ResultList {
                source,
                max_results,
                ..
            } => {
                out.push_str(&format!(" source={source:?} max={max_results}"));
            }
            _ => {}
        }
        if let Some(c) = &e.class {
            out.push_str(&format!(" .{c}"));
        }
        out.push('\n');
        match &e.kind {
            ElementKind::Container { children, .. } => {
                for c in children {
                    go(c, depth + 1, out);
                }
            }
            ElementKind::ResultList { item, .. } => go(item, depth + 1, out),
            _ => {}
        }
    }
    let mut out = String::new();
    go(e, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::{Binding, Template};
    use crate::canvas::DataSourceCard;
    use crate::element::ElementId;
    use crate::style::{Selector, StyleProps};
    use proptest::prelude::*;

    /// The escaper this module shipped before [`escape_into`]: one
    /// `char` at a time into a fresh `String`.
    fn escape_reference(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        for c in text.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                c => out.push(c),
            }
        }
        out
    }

    /// The URL check this module shipped before `url_into`.
    fn safe_url_reference(url: &str) -> String {
        let trimmed = url.trim();
        let lower = trimmed.to_lowercase();
        if lower.starts_with("http://") || lower.starts_with("https://") || trimmed.starts_with('/')
        {
            escape_reference(trimmed)
        } else {
            String::from("#")
        }
    }

    /// The allocating recursive renderer [`render_into`] replaced, kept
    /// as the oracle: every element returns its own `String`, every
    /// field value is an owned copy, and the parent copies each child
    /// again through `format!`. One change: the search box's class
    /// merges into `sym-search` (it used to emit a second attribute).
    fn render_reference(
        e: &Element,
        sheet: &Stylesheet,
        fields: &dyn Fn(&str) -> Option<String>,
        nested: &mut dyn FnMut(&str, usize, &Element) -> String,
    ) -> String {
        let resolved = sheet.resolve(e.kind.name(), e.class.as_deref(), e.id.0, &e.style);
        let style = if resolved.is_empty() {
            String::new()
        } else {
            let mut css = String::new();
            resolved.write_inline_css(&mut css, false);
            format!(" style=\"{}\"", escape_reference(&css))
        };
        let class = match &e.class {
            Some(c) => format!(" class=\"{}\"", escape_reference(c)),
            None => String::new(),
        };
        let merged = |base: &str| match &e.class {
            Some(c) => format!(" class=\"{base} {}\"", escape_reference(c)),
            None => format!(" class=\"{base}\""),
        };
        match &e.kind {
            ElementKind::Container {
                direction,
                children,
            } => {
                let dir_class = match direction {
                    Direction::Row => "sym-row",
                    Direction::Column => "sym-col",
                };
                let inner: String = children
                    .iter()
                    .map(|c| render_reference(c, sheet, fields, nested))
                    .collect();
                let class = merged(dir_class);
                format!("<div{class}{style}>{inner}</div>")
            }
            ElementKind::Text { template } => {
                format!(
                    "<span{class}{style}>{}</span>",
                    escape_reference(&template.render(fields))
                )
            }
            ElementKind::RichText { template } => {
                format!("<span{class}{style}>{}</span>", template.render(fields))
            }
            ElementKind::Image { src, alt } => {
                let url = safe_url_reference(&src.resolve(fields));
                format!(
                    "<img{class}{style} src=\"{url}\" alt=\"{}\">",
                    escape_reference(&alt.render(fields))
                )
            }
            ElementKind::Link { href, label } => {
                let url = safe_url_reference(&href.resolve(fields));
                format!(
                    "<a{class}{style} href=\"{url}\">{}</a>",
                    escape_reference(&label.render(fields))
                )
            }
            ElementKind::SearchBox { placeholder } => {
                let class = merged("sym-search");
                format!(
                    "<form{class}{style} onsubmit=\"return symphonySearch(this)\">\
                     <input type=\"text\" name=\"q\" placeholder=\"{}\">\
                     <button type=\"submit\">Search</button></form>",
                    escape_reference(placeholder)
                )
            }
            ElementKind::ResultList {
                source,
                item,
                max_results,
            } => {
                let inner = nested(source, *max_results, item);
                format!(
                    "<div{class}{style} data-source=\"{}\">{inner}</div>",
                    escape_reference(source)
                )
            }
        }
    }

    fn fields(name: &str) -> Option<String> {
        match name {
            "title" => Some("Galactic <Raiders>".into()),
            "url" => Some("http://shop.example.com/gr".into()),
            "img" => Some("http://shop.example.com/gr.jpg".into()),
            "description" => Some("space & lasers".into()),
            _ => None,
        }
    }

    fn no_nested(_: &str, _: usize, _: &Element) -> String {
        String::new()
    }

    #[test]
    fn text_escapes_html() {
        let html = render_element(
            &Element::text("{title}"),
            &Stylesheet::new(),
            &fields,
            &mut no_nested,
        );
        assert_eq!(html, "<span>Galactic &lt;Raiders&gt;</span>");
    }

    #[test]
    fn rich_text_renders_without_escaping() {
        let snippet = |name: &str| (name == "snippet").then(|| "a <b>hit</b> here".to_string());
        let html = render_element(
            &Element::rich_text("{snippet}"),
            &Stylesheet::new(),
            &snippet,
            &mut no_nested,
        );
        assert_eq!(html, "<span>a <b>hit</b> here</span>");
        // Plain text with the same binding escapes.
        let escaped = render_element(
            &Element::text("{snippet}"),
            &Stylesheet::new(),
            &snippet,
            &mut no_nested,
        );
        assert!(escaped.contains("&lt;b&gt;"));
    }

    #[test]
    fn link_binds_href_and_label() {
        let html = render_element(
            &Element::link_field("url", "{title}"),
            &Stylesheet::new(),
            &fields,
            &mut no_nested,
        );
        assert!(html.contains("href=\"http://shop.example.com/gr\""));
        assert!(html.contains(">Galactic &lt;Raiders&gt;</a>"));
    }

    #[test]
    fn javascript_urls_neutralized() {
        let evil = |name: &str| (name == "u").then(|| "javascript:alert(1)".to_string());
        let html = render_element(
            &Element::link_field("u", "x"),
            &Stylesheet::new(),
            &evil,
            &mut no_nested,
        );
        assert!(html.contains("href=\"#\""), "{html}");
    }

    #[test]
    fn image_renders_src_and_alt() {
        let html = render_element(
            &Element::image_field("img", "{title}"),
            &Stylesheet::new(),
            &fields,
            &mut no_nested,
        );
        assert!(html.starts_with("<img"));
        assert!(html.contains("src=\"http://shop.example.com/gr.jpg\""));
        assert!(html.contains("alt=\"Galactic &lt;Raiders&gt;\""));
    }

    #[test]
    fn container_direction_classes() {
        let row = render_element(
            &Element::row(vec![Element::text("a")]),
            &Stylesheet::new(),
            &fields,
            &mut no_nested,
        );
        assert!(row.contains("sym-row"));
        let col = render_element(
            &Element::column(vec![]),
            &Stylesheet::new(),
            &fields,
            &mut no_nested,
        );
        assert!(col.contains("sym-col"));
    }

    #[test]
    fn styles_resolve_into_attribute() {
        let sheet = Stylesheet::new();
        let e = Element::text("{title}").with_style("color", "navy");
        let html = render_element(&e, &sheet, &fields, &mut no_nested);
        assert!(html.contains("style=\"color:navy\""));
    }

    #[test]
    fn result_list_delegates_to_nested() {
        let e = Element::result_list("reviews", Element::text("{title}"), 3);
        let mut calls = Vec::new();
        let html = render_element(&e, &Stylesheet::new(), &fields, &mut |s, m, _| {
            calls.push((s.to_string(), m));
            "<p>NESTED</p>".into()
        });
        assert_eq!(calls, vec![("reviews".to_string(), 3)]);
        assert!(html.contains("<p>NESTED</p>"));
        assert!(html.contains("data-source=\"reviews\""));
    }

    #[test]
    fn search_box_renders_form() {
        let html = render_element(
            &Element::search_box("Search games…"),
            &Stylesheet::new(),
            &fields,
            &mut no_nested,
        );
        assert!(html.contains("<form"));
        assert!(html.contains("placeholder=\"Search games…\""));
    }

    #[test]
    fn design_surface_shows_palette_and_chips() {
        let mut canvas = Canvas::new();
        canvas.register_source(DataSourceCard {
            name: "inventory".into(),
            category: "proprietary".into(),
            fields: vec!["title".into(), "price".into()],
        });
        let root = canvas.root_id();
        canvas
            .insert(
                root,
                Element::result_list("inventory", Element::text("{title}"), 5),
            )
            .unwrap();
        let html = render_design_surface(&canvas, &Stylesheet::new());
        assert!(html.contains("sym-palette"));
        assert!(html.contains("inventory"));
        assert!(html.contains("⟦title⟧"));
        assert!(html.contains("data-max=\"5\""));
    }

    #[test]
    fn outline_is_indented() {
        let e = Element::column(vec![Element::result_list("inv", Element::text("{t}"), 2)]);
        let outline = render_outline(&e);
        assert!(outline.starts_with("container\n"));
        assert!(outline.contains("  resultlist source=\"inv\" max=2\n"));
        assert!(outline.contains("    text \"{t}\"\n"));
    }

    #[test]
    fn search_box_class_merges_into_one_attribute() {
        let e = Element::search_box("q")
            .with_class("x")
            .with_style("color", "red");
        let html = render_element(&e, &Stylesheet::new(), &fields, &mut no_nested);
        assert!(
            html.starts_with("<form class=\"sym-search x\" style=\"color:red\" onsubmit="),
            "{html}"
        );
        assert_eq!(html.matches("class=").count(), 1, "{html}");
    }

    #[test]
    fn escape_and_url_adapters() {
        assert_eq!(
            escape_html("a<b>&\"c\" ünï"),
            "a&lt;b&gt;&amp;&quot;c&quot; ünï"
        );
        assert_eq!(safe_url("  HTTP://a.b/<x> "), "HTTP://a.b/&lt;x&gt;");
        assert_eq!(safe_url("hTtPs://a"), "hTtPs://a");
        assert_eq!(safe_url(" /rel"), "/rel");
        assert_eq!(safe_url("JaVaScRiPt:alert(1)"), "#");
        assert_eq!(safe_url("http:/x"), "#");
        assert_eq!(safe_url("ĥttp://x"), "#");
    }

    #[test]
    fn render_into_lends_fields_and_nests_in_one_buffer() {
        let item = Element::column(vec![
            Element::link_field("url", "{title}"),
            Element::result_list("reviews", Element::text("{title}"), 2),
        ]);
        let title = String::from("A & B");
        let mut out = String::from("<!-- page -->");
        render_into(
            &mut out,
            &item,
            &Stylesheet::new(),
            &|name| match name {
                "title" => Some(Cow::Borrowed(title.as_str())),
                "url" => Some(Cow::Borrowed("/a")),
                _ => None,
            },
            &mut |out, source, max, el| {
                for i in 0..max {
                    let v = format!("{source} {i}");
                    render_into(
                        out,
                        el,
                        &Stylesheet::new(),
                        &|_| Some(Cow::Borrowed(v.as_str())),
                        &mut |_, _, _, _| {},
                    );
                }
            },
        );
        assert_eq!(
            out,
            "<!-- page --><div class=\"sym-col\"><a href=\"/a\">A &amp; B</a>\
             <div data-source=\"reviews\"><span>reviews 0</span><span>reviews 1</span></div></div>"
        );
    }

    // ---- render_into ≡ render_reference ------------------------------

    /// Field values of a drawn record, one record per nested item.
    type Record = Vec<(String, String)>;

    const KINDS: [&str; 7] = [
        "container",
        "text",
        "richtext",
        "image",
        "link",
        "searchbox",
        "resultlist",
    ];

    fn class_name() -> impl Strategy<Value = String> {
        "(hl|a&b|<q>|x\"y|ünï|two words)"
    }

    fn field_name() -> impl Strategy<Value = String> {
        "(title|url|body|snippet|ünï)"
    }

    /// A field value: URLs the check must get right (schemes in any
    /// case, padding, relative, look-alikes), markup, non-ASCII.
    fn value() -> impl Strategy<Value = String> {
        prop_oneof![
            "(javascript:alert\\(1\\)| JavaScript:x|HTTP://X\\.com/a\\?b=1&c=2|  https://y\\.org/<p> | /rel|\t/tab|hTtPs://Ω|\nHttp://n |ftp://z|http:/x|httpx://y|)",
            "\\PC{0,12}",
            "[a-z&<>\"' ]{0,8}",
        ]
    }

    /// Template source: fields present and missing, escaped and stray
    /// braces, malformed names, markup, non-ASCII.
    fn template_source() -> impl Strategy<Value = String> {
        proptest::collection::vec(
            "(\\{title\\}|\\{url\\}|\\{body\\}|\\{snippet\\}|\\{missing\\}|\\{ünï\\}|\\{\\{|\\}\\}|\\{|\\}|\\{bad name\\}|a&b|<i>|\"q\"|plain|Ω )",
            0..5,
        )
        .prop_map(|pieces| pieces.concat())
    }

    fn binding() -> impl Strategy<Value = Binding> {
        prop_oneof![
            value().prop_map(Binding::Literal),
            field_name().prop_map(Binding::Field),
            Just(Binding::Field("missing".into())),
        ]
    }

    fn props() -> impl Strategy<Value = StyleProps> {
        proptest::collection::vec(("(color|font-size|x<y)", "(red|12px|a&b|\"q\"|ü)"), 0..3)
            .prop_map(|kvs| kvs.iter().fold(StyleProps::new(), |p, (k, v)| p.with(k, v)))
    }

    fn sheet() -> impl Strategy<Value = Stylesheet> {
        let selector = prop_oneof![
            (0..KINDS.len()).prop_map(|i| Selector::Kind(KINDS[i].into())),
            class_name().prop_map(Selector::Class),
            (0u32..4).prop_map(Selector::Id),
        ];
        proptest::collection::vec((selector, props()), 0..4).prop_map(|rules| {
            rules
                .into_iter()
                .fold(Stylesheet::new(), |s, (sel, p)| s.rule(sel, p))
        })
    }

    /// Give a drawn element a class, an inline style and an id (for
    /// `Selector::Id` rules), each possibly empty.
    fn decorated(kind: impl Strategy<Value = Element> + 'static) -> BoxedStrategy<Element> {
        let class = prop_oneof![Just(None), class_name().prop_map(Some)];
        (kind, class, props(), 0u32..4)
            .prop_map(|(mut e, class, style, id)| {
                e.class = class;
                e.style = style;
                e.id = ElementId(id);
                e
            })
            .boxed()
    }

    /// Trees over all seven kinds, nested at most four deep.
    fn tree() -> BoxedStrategy<Element> {
        let leaf = decorated(prop_oneof![
            template_source().prop_map(|t| Element::text(&t)),
            template_source().prop_map(|t| Element::rich_text(&t)),
            (binding(), template_source()).prop_map(|(src, alt)| {
                Element::new(ElementKind::Image {
                    src,
                    alt: Template::parse(&alt),
                })
            }),
            (binding(), template_source()).prop_map(|(href, label)| {
                Element::new(ElementKind::Link {
                    href,
                    label: Template::parse(&label),
                })
            }),
            "[a-z&<>\" …]{0,8}".prop_map(|p| Element::search_box(&p)),
        ]);
        leaf.prop_recursive(4, 64, 4, |inner| {
            prop_oneof![
                inner.clone(),
                decorated(
                    (
                        proptest::collection::vec(inner.clone(), 0..4),
                        any::<bool>()
                    )
                        .prop_map(|(children, row)| {
                            if row {
                                Element::row(children)
                            } else {
                                Element::column(children)
                            }
                        })
                ),
                decorated(
                    ("(reviews|a&b|<s>)", inner, 0usize..4)
                        .prop_map(|(source, item, max)| Element::result_list(&source, item, max))
                ),
            ]
        })
    }

    /// [`render_into`] with borrowed fields; a nested list shows up to
    /// `max` further records, two levels deep, in the same buffer.
    fn streamed(
        out: &mut String,
        e: &Element,
        sheet: &Stylesheet,
        records: &[Record],
        at: usize,
        depth: usize,
    ) {
        let rec = &records[at % records.len()];
        let fields = |name: &str| {
            rec.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| Cow::Borrowed(v.as_str()))
        };
        render_into(out, e, sheet, &fields, &mut |out, source, max, item| {
            if depth < 2 {
                for j in 0..max {
                    streamed(out, item, sheet, records, at + j + source.len(), depth + 1);
                }
            }
        });
    }

    /// An owned-lookup renderer: [`render_reference`] or the
    /// [`render_element`] adapter.
    type OwnedRender = fn(
        &Element,
        &Stylesheet,
        &dyn Fn(&str) -> Option<String>,
        &mut dyn FnMut(&str, usize, &Element) -> String,
    ) -> String;

    /// The same page through an owned-lookup renderer.
    fn owned(
        render: OwnedRender,
        e: &Element,
        sheet: &Stylesheet,
        records: &[Record],
        at: usize,
        depth: usize,
    ) -> String {
        let rec = &records[at % records.len()];
        let fields = |name: &str| rec.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
        render(e, sheet, &fields, &mut |source, max, item| {
            let mut html = String::new();
            if depth < 2 {
                for j in 0..max {
                    html.push_str(&owned(
                        render,
                        item,
                        sheet,
                        records,
                        at + j + source.len(),
                        depth + 1,
                    ));
                }
            }
            html
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The streaming renderer (and the `render_element` adapter
        /// over it) is byte-equal to the allocating renderer it
        /// replaced, over random trees, stylesheets and records.
        #[test]
        fn render_into_equals_reference(
            root in tree(),
            sheet in sheet(),
            records in proptest::collection::vec(
                proptest::collection::vec((field_name(), value()), 0..5),
                1..4,
            ),
        ) {
            let want = owned(render_reference, &root, &sheet, &records, 0, 0);
            let mut got = String::from("<!-- prefix kept -->");
            streamed(&mut got, &root, &sheet, &records, 0, 0);
            prop_assert_eq!(
                got.strip_prefix("<!-- prefix kept -->"),
                Some(want.as_str()),
                "tree {:?} sheet {:?} records {:?}", root, sheet, records
            );
            let adapted = owned(render_element, &root, &sheet, &records, 0, 0);
            prop_assert_eq!(adapted, want);
        }
    }
}
