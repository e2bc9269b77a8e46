//! The user-facing query language.
//!
//! The syntax is the small classic web-search grammar, which is also
//! what Symphony's configurable sources understand:
//!
//! * `space shooter` — two optional ("should") terms;
//! * `"space shooter"` — a phrase that must appear contiguously;
//! * `+shooter` — a required term; `-puzzle` — an excluded term;
//! * `title:raiders` — restrict one clause to a named field.
//!
//! Parsing happens on the raw string; analysis (lowercasing, stemming)
//! is applied later, when a searcher resolves the words against a
//! concrete index's lexicon.

/// Whether a clause is optional, required, or prohibited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occur {
    /// Contributes to the score; not required.
    Should,
    /// Document must match the clause.
    Must,
    /// Document must not match the clause.
    MustNot,
}

/// What a clause matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClauseKind {
    /// A single term.
    Term(String),
    /// A contiguous phrase.
    Phrase(Vec<String>),
}

/// One parsed query clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clause {
    /// Optional/required/prohibited.
    pub occur: Occur,
    /// Term or phrase.
    pub kind: ClauseKind,
    /// Restrict to a named field, or search all fields.
    pub field: Option<String>,
}

/// A parsed query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Query {
    /// The clauses in input order.
    pub clauses: Vec<Clause>,
}

impl Query {
    /// Parse the query syntax described at module level. Parsing never
    /// fails: malformed input degrades to plain terms (an unclosed
    /// quote spans to the end of the string).
    pub fn parse(input: &str) -> Query {
        let mut clauses = Vec::new();
        let mut chars = input.char_indices().peekable();
        while let Some(&(i, c)) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
                continue;
            }
            // Occurrence prefix.
            let occur = match c {
                '+' => {
                    chars.next();
                    Occur::Must
                }
                '-' => {
                    chars.next();
                    Occur::MustNot
                }
                _ => Occur::Should,
            };
            let _ = i;
            // Optional field prefix: letters up to ':' followed by a
            // non-space.
            let mut field = None;
            if let Some(&(start, fc)) = chars.peek() {
                if fc.is_alphabetic() {
                    // Lookahead for "name:" without consuming on failure.
                    let rest = &input[start..];
                    if let Some(colon) = rest.find(':') {
                        let name = &rest[..colon];
                        let after = rest[colon + 1..].chars().next();
                        if !name.is_empty()
                            && name.chars().all(|ch| ch.is_alphanumeric() || ch == '_')
                            && after.map(|a| !a.is_whitespace()).unwrap_or(false)
                        {
                            field = Some(name.to_string());
                            for _ in 0..name.chars().count() + 1 {
                                chars.next();
                            }
                        }
                    }
                }
            }
            // Phrase or bare term.
            match chars.peek() {
                Some(&(_, '"')) => {
                    chars.next();
                    let mut words = Vec::new();
                    let mut cur = String::new();
                    let mut closed = false;
                    for (_, ch) in chars.by_ref() {
                        if ch == '"' {
                            closed = true;
                            break;
                        }
                        if ch.is_whitespace() {
                            if !cur.is_empty() {
                                words.push(std::mem::take(&mut cur));
                            }
                        } else {
                            cur.push(ch);
                        }
                    }
                    let _ = closed;
                    if !cur.is_empty() {
                        words.push(cur);
                    }
                    match words.len() {
                        0 => {}
                        1 => clauses.push(Clause {
                            occur,
                            kind: ClauseKind::Term(words.pop().unwrap()),
                            field,
                        }),
                        _ => clauses.push(Clause {
                            occur,
                            kind: ClauseKind::Phrase(words),
                            field,
                        }),
                    }
                }
                Some(_) => {
                    let mut word = String::new();
                    while let Some(&(_, ch)) = chars.peek() {
                        if ch.is_whitespace() {
                            break;
                        }
                        word.push(ch);
                        chars.next();
                    }
                    if !word.is_empty() {
                        clauses.push(Clause {
                            occur,
                            kind: ClauseKind::Term(word),
                            field,
                        });
                    }
                }
                None => {}
            }
        }
        Query { clauses }
    }

    /// Build a query from plain terms, all `Should`, no fields. Used by
    /// programmatic callers (supplemental query templates).
    #[cfg(test)]
    pub(crate) fn terms<I, S>(terms: I) -> Query
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Query {
            clauses: terms
                .into_iter()
                .map(|t| Clause {
                    occur: Occur::Should,
                    kind: ClauseKind::Term(t.into()),
                    field: None,
                })
                .collect(),
        }
    }

    /// True when no clause would contribute a match.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// All positive (non-excluded) raw words, for highlighting.
    pub fn positive_words(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for c in &self.clauses {
            if c.occur == Occur::MustNot {
                continue;
            }
            match &c.kind {
                ClauseKind::Term(t) => out.push(t.as_str()),
                ClauseKind::Phrase(ws) => out.extend(ws.iter().map(|w| w.as_str())),
            }
        }
        out
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for c in &self.clauses {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            match c.occur {
                Occur::Must => write!(f, "+")?,
                Occur::MustNot => write!(f, "-")?,
                Occur::Should => {}
            }
            if let Some(field) = &c.field {
                write!(f, "{field}:")?;
            }
            match &c.kind {
                ClauseKind::Term(t) => write!(f, "{t}")?,
                ClauseKind::Phrase(ws) => write!(f, "\"{}\"", ws.join(" "))?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_terms() {
        let q = Query::parse("space shooter");
        assert_eq!(q.clauses.len(), 2);
        assert!(q
            .clauses
            .iter()
            .all(|c| c.occur == Occur::Should && c.field.is_none()));
    }

    #[test]
    fn phrase() {
        let q = Query::parse("\"space shooter\" game");
        assert_eq!(q.clauses.len(), 2);
        assert_eq!(
            q.clauses[0].kind,
            ClauseKind::Phrase(vec!["space".into(), "shooter".into()])
        );
    }

    #[test]
    fn single_word_phrase_degrades_to_term() {
        let q = Query::parse("\"shooter\"");
        assert_eq!(q.clauses[0].kind, ClauseKind::Term("shooter".into()));
    }

    #[test]
    fn must_and_mustnot_prefixes() {
        let q = Query::parse("+shooter -puzzle arcade");
        assert_eq!(q.clauses[0].occur, Occur::Must);
        assert_eq!(q.clauses[1].occur, Occur::MustNot);
        assert_eq!(q.clauses[2].occur, Occur::Should);
    }

    #[test]
    fn field_restriction() {
        let q = Query::parse("title:raiders body:space");
        assert_eq!(q.clauses[0].field.as_deref(), Some("title"));
        assert_eq!(q.clauses[1].field.as_deref(), Some("body"));
    }

    #[test]
    fn field_with_phrase() {
        let q = Query::parse("title:\"galactic raiders\"");
        assert_eq!(q.clauses[0].field.as_deref(), Some("title"));
        assert!(matches!(q.clauses[0].kind, ClauseKind::Phrase(_)));
    }

    #[test]
    fn colon_without_field_name_is_a_term() {
        let q = Query::parse("12:30");
        // "12" is not alphabetic-leading... actually '1' is alphanumeric
        // but not alphabetic, so the whole token stays a term.
        assert_eq!(q.clauses[0].kind, ClauseKind::Term("12:30".into()));
    }

    #[test]
    fn trailing_colon_is_a_term() {
        let q = Query::parse("note:");
        assert_eq!(q.clauses.len(), 1);
        assert_eq!(q.clauses[0].kind, ClauseKind::Term("note:".into()));
        assert_eq!(q.clauses[0].field, None);
    }

    #[test]
    fn unclosed_quote_spans_to_end() {
        let q = Query::parse("\"space shooter");
        assert_eq!(
            q.clauses[0].kind,
            ClauseKind::Phrase(vec!["space".into(), "shooter".into()])
        );
    }

    #[test]
    fn empty_input() {
        assert!(Query::parse("").is_empty());
        assert!(Query::parse("   ").is_empty());
        assert!(Query::parse("\"\"").is_empty());
    }

    #[test]
    fn display_roundtrip() {
        for s in ["space shooter", "+a -b c", "title:raiders", "\"a b\" c"] {
            let q = Query::parse(s);
            assert_eq!(Query::parse(&q.to_string()), q, "roundtrip of {s:?}");
        }
    }

    #[test]
    fn positive_words_excludes_mustnot() {
        let q = Query::parse("space -puzzle \"laser cannon\"");
        assert_eq!(q.positive_words(), vec!["space", "laser", "cannon"]);
    }

    #[test]
    fn terms_builder() {
        let q = Query::terms(["galactic", "raiders"]);
        assert_eq!(q.clauses.len(), 2);
        assert_eq!(q.to_string(), "galactic raiders");
    }
}
