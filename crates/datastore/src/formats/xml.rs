//! Minimal XML parser and record extraction.
//!
//! Supports the subset uploaded data and RSS feeds actually use:
//! elements, attributes, character data, entity references
//! (`&amp; &lt; &gt; &quot; &apos;` and numeric), CDATA sections,
//! comments, processing instructions, and self-closing tags. No
//! namespaces-aware processing (prefixes are kept verbatim), no DTDs.

use crate::error::StoreError;

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct XmlElement {
    /// Tag name (prefix kept verbatim).
    pub tag: String,
    /// Attributes in document order.
    pub attrs: Vec<(String, String)>,
    /// Child elements in document order.
    pub children: Vec<XmlElement>,
    /// Concatenated character data directly inside this element
    /// (trimmed).
    pub text: String,
}

impl XmlElement {
    /// First child with the given tag.
    pub(crate) fn child(&self, tag: &str) -> Option<&XmlElement> {
        self.children.iter().find(|c| c.tag == tag)
    }

    /// All children with the given tag.
    pub(crate) fn children_named<'a>(
        &'a self,
        tag: &'a str,
    ) -> impl Iterator<Item = &'a XmlElement> {
        self.children.iter().filter(move |c| c.tag == tag)
    }

    /// Text of the first child with the given tag, if any.
    pub(crate) fn child_text(&self, tag: &str) -> Option<&str> {
        self.child(tag).map(|c| c.text.as_str())
    }

    /// Attribute lookup.
    pub(crate) fn attr(&self, name: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The deepest element nesting a document may have. The parser recurses
/// once per element, so an upload or a feed must not choose the depth
/// of the stack.
const MAX_DEPTH: usize = 256;

/// Parse an XML document into its root element.
pub(crate) fn parse(input: &str) -> Result<XmlElement, StoreError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        input,
        pos: 0,
        depth: 0,
    };
    p.skip_misc();
    let root = p.element()?;
    p.skip_misc();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after document element"));
    }
    Ok(root)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
    /// Elements open around the current position.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> StoreError {
        StoreError::Parse(format!("xml: {msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, XML declarations, PIs, comments, and DOCTYPE.
    fn skip_misc(&mut self) {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.skip_until("?>");
            } else if self.starts_with("<!--") {
                self.skip_until("-->");
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_until(">");
            } else {
                return;
            }
        }
    }

    fn skip_until(&mut self, end: &str) {
        match self.input[self.pos..].find(end) {
            Some(i) => self.pos += i + end.len(),
            None => self.pos = self.bytes.len(),
        }
    }

    fn name(&mut self) -> Result<String, StoreError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':' | b'.'))
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(self.input[start..self.pos].to_string())
    }

    fn element(&mut self) -> Result<XmlElement, StoreError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("elements nested deeper than {MAX_DEPTH} levels")));
        }
        if self.peek() != Some(b'<') {
            return Err(self.err("expected '<'"));
        }
        self.pos += 1;
        let tag = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    self.pos += 1;
                    return Ok(XmlElement {
                        tag,
                        attrs,
                        children: Vec::new(),
                        text: String::new(),
                    });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err("expected '=' in attribute"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let quote = self.peek();
                    if quote != Some(b'"') && quote != Some(b'\'') {
                        return Err(self.err("expected quoted attribute value"));
                    }
                    let q = quote.unwrap();
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some() && self.peek() != Some(q) {
                        self.pos += 1;
                    }
                    if self.peek().is_none() {
                        return Err(self.err("unterminated attribute value"));
                    }
                    let raw = &self.input[start..self.pos];
                    self.pos += 1;
                    attrs.push((key, unescape(raw)));
                }
                None => return Err(self.err("unexpected end inside tag")),
            }
        }
        // Content.
        let mut children = Vec::new();
        let mut text = String::new();
        loop {
            if self.starts_with("<!--") {
                self.skip_until("-->");
                continue;
            }
            if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                match self.input[self.pos..].find("]]>") {
                    Some(i) => {
                        text.push_str(&self.input[start..start + i]);
                        self.pos = start + i + 3;
                    }
                    None => return Err(self.err("unterminated CDATA")),
                }
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.name()?;
                if close != tag {
                    return Err(self.err(&format!("mismatched close tag </{close}> for <{tag}>")));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err("expected '>' in close tag"));
                }
                self.pos += 1;
                return Ok(XmlElement {
                    tag,
                    attrs,
                    children,
                    text: text.trim().to_string(),
                });
            }
            if self.starts_with("<?") {
                self.skip_until("?>");
                continue;
            }
            match self.peek() {
                Some(b'<') => {
                    self.depth += 1;
                    children.push(self.element()?);
                    self.depth -= 1;
                }
                Some(_) => {
                    let start = self.pos;
                    while self.peek().is_some() && self.peek() != Some(b'<') {
                        self.pos += 1;
                    }
                    text.push_str(&unescape(&self.input[start..self.pos]));
                }
                None => return Err(self.err(&format!("unterminated element <{tag}>"))),
            }
        }
    }
}

/// Decode XML entity references.
pub fn unescape(raw: &str) -> String {
    if !raw.contains('&') {
        return raw.to_string();
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let end = match rest.find(';') {
            Some(e) if e <= 10 => e,
            _ => {
                out.push('&');
                rest = &rest[1..];
                continue;
            }
        };
        let entity = &rest[1..end];
        let decoded = match entity {
            "amp" => Some('&'),
            "lt" => Some('<'),
            "gt" => Some('>'),
            "quot" => Some('"'),
            "apos" => Some('\''),
            _ if entity.starts_with("#x") || entity.starts_with("#X") => {
                u32::from_str_radix(&entity[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
            }
            _ if entity.starts_with('#') => {
                entity[1..].parse::<u32>().ok().and_then(char::from_u32)
            }
            _ => None,
        };
        match decoded {
            Some(c) => {
                out.push(c);
                rest = &rest[end + 1..];
            }
            None => {
                out.push('&');
                rest = &rest[1..];
            }
        }
    }
    out.push_str(rest);
    out
}

/// Escape text for XML character data / attribute values.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
    out
}

/// Extract tabular records from an XML document: the majority child
/// tag under the root (or under a single wrapper child) is treated as
/// the row element; each row's child-element texts become columns and
/// attributes become columns too.
pub(crate) fn records(root: &XmlElement) -> Result<(Vec<String>, Vec<Vec<String>>), StoreError> {
    let rows_parent = if root.children.len() == 1 && !root.children[0].children.is_empty() {
        &root.children[0]
    } else {
        root
    };
    // Majority tag among children.
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for c in &rows_parent.children {
        match counts.iter_mut().find(|(t, _)| *t == c.tag) {
            Some((_, n)) => *n += 1,
            None => counts.push((&c.tag, 1)),
        }
    }
    let row_tag = counts
        .iter()
        .max_by_key(|(_, n)| *n)
        .map(|(t, _)| t.to_string())
        .ok_or_else(|| StoreError::Parse("xml: no row elements found".into()))?;
    let rows_elems: Vec<&XmlElement> = rows_parent.children_named(&row_tag).collect();

    let mut names: Vec<String> = Vec::new();
    for row in &rows_elems {
        for (k, _) in &row.attrs {
            if !names.contains(k) {
                names.push(k.clone());
            }
        }
        for c in &row.children {
            if !names.contains(&c.tag) {
                names.push(c.tag.clone());
            }
        }
    }
    if names.is_empty() {
        return Err(StoreError::Parse(
            "xml: row elements carry no fields".into(),
        ));
    }
    let rows = rows_elems
        .iter()
        .map(|row| {
            names
                .iter()
                .map(|n| {
                    row.attr(n)
                        .map(str::to_string)
                        .or_else(|| row.child_text(n).map(str::to_string))
                        .unwrap_or_default()
                })
                .collect()
        })
        .collect();
    Ok((names, rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_document() {
        let root = parse("<inv><item><t>A</t></item></inv>").unwrap();
        assert_eq!(root.tag, "inv");
        assert_eq!(root.children[0].child_text("t"), Some("A"));
    }

    #[test]
    fn declaration_comments_doctype_skipped() {
        let src = "<?xml version=\"1.0\"?><!DOCTYPE inv><!-- hi --><inv><a>1</a></inv>";
        let root = parse(src).unwrap();
        assert_eq!(root.tag, "inv");
    }

    #[test]
    fn attributes_and_self_closing() {
        let root = parse("<r><img src=\"http://x/y.png\" w='5'/></r>").unwrap();
        let img = root.child("img").unwrap();
        assert_eq!(img.attr("src"), Some("http://x/y.png"));
        assert_eq!(img.attr("w"), Some("5"));
        assert_eq!(img.attr("nope"), None);
    }

    #[test]
    fn entities_decoded() {
        let root = parse("<t a=\"x &amp; y\">1 &lt; 2 &#65;&#x42;</t>").unwrap();
        assert_eq!(root.attr("a"), Some("x & y"));
        assert_eq!(root.text, "1 < 2 AB");
    }

    #[test]
    fn bare_ampersand_survives() {
        assert_eq!(unescape("a & b &unknown; c"), "a & b &unknown; c");
    }

    #[test]
    fn cdata() {
        let root = parse("<t><![CDATA[<raw> & stuff]]></t>").unwrap();
        assert_eq!(root.text, "<raw> & stuff");
    }

    #[test]
    fn mismatched_close_errors() {
        assert!(parse("<a><b></a></b>").is_err());
        assert!(parse("<a>").is_err());
        assert!(parse("<a></a><b></b>").is_err());
    }

    #[test]
    fn escape_roundtrip() {
        let s = "a<b>&\"c'";
        assert_eq!(unescape(&escape(s)), s);
    }

    #[test]
    fn records_majority_child() {
        let src = "<inventory>\
            <game id=\"1\"><title>A</title><price>9.99</price></game>\
            <game id=\"2\"><title>B</title></game>\
            <meta>ignored</meta>\
            </inventory>";
        let (names, rows) = records(&parse(src).unwrap()).unwrap();
        assert_eq!(names, vec!["id", "title", "price"]);
        assert_eq!(rows[0], vec!["1", "A", "9.99"]);
        assert_eq!(rows[1], vec!["2", "B", ""]);
    }

    #[test]
    fn records_under_wrapper() {
        let src = "<doc><items><i><x>1</x></i><i><x>2</x></i></items></doc>";
        let (names, rows) = records(&parse(src).unwrap()).unwrap();
        assert_eq!(names, vec!["x"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn records_empty_errors() {
        assert!(records(&parse("<a></a>").unwrap()).is_err());
        assert!(records(&parse("<a><b></b></a>").unwrap()).is_err());
    }

    #[test]
    fn nested_text_trimmed() {
        let root = parse("<t>\n  hello  \n</t>").unwrap();
        assert_eq!(root.text, "hello");
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |n: usize| format!("{}{}", "<a>".repeat(n), "</a>".repeat(n));
        let doc = parse(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(doc.tag, "a");
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nested deeper than 256"), "{err}");
    }
}
