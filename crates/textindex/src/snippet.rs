//! Snippet extraction and query-term highlighting.
//!
//! Symphony result layouts show a "descriptive field" per hit (paper
//! Fig. 1); for web results that field is a contextual snippet. The
//! generator picks the `WINDOW`-token window with the highest count of
//! distinct matched query terms (ties: earliest window), wraps matches
//! in `<b>` tags, HTML-escapes everything else and clamps the result to
//! `MAX_CHARS` characters. Both sizes are constants: every result
//! page in the platform uses the same ones.

use crate::analysis::{analyze, analyze_with, TokenScratch};
use crate::fx::FxHashMap;

/// Window size in kept tokens.
const WINDOW: usize = 24;
/// Hard cap on snippet length in characters (applied after window
/// selection, on a char boundary, with an ellipsis).
const MAX_CHARS: usize = 220;

/// Slot of a kept token that matches no query term.
const NO_SLOT: u32 = u32::MAX;

/// One kept token of the text: which query term it matched (its slot,
/// or [`NO_SLOT`]) and its byte span.
struct Kept {
    slot: u32,
    start: usize,
    end: usize,
}

/// Builds highlighted snippets for a fixed set of query words.
pub struct SnippetGenerator {
    /// Distinct analyzed query terms, each numbered with a dense slot
    /// so a window's distinct-term count is a counter per slot.
    slots: FxHashMap<String, u32>,
}

impl SnippetGenerator {
    /// Create a generator for `query_words` (raw query words; they are
    /// analyzed like the text so stemmed forms match).
    pub fn new(query_words: &[&str]) -> Self {
        let mut slots = FxHashMap::default();
        for w in query_words {
            for tok in analyze(w) {
                let next = slots.len() as u32;
                slots.entry(tok.term).or_insert(next);
            }
        }
        SnippetGenerator { slots }
    }

    /// Produce a highlighted, HTML-escaped snippet of `text`.
    ///
    /// When no query term occurs in the text the leading window is
    /// returned un-highlighted (the behaviour users expect from a web
    /// result with a title-only match).
    ///
    /// Linear in the text: one streaming analysis pass records each
    /// kept token's query-term slot and byte span (no owned term is
    /// materialized), then a sliding window keeps a count per slot and
    /// updates the number of distinct matched terms in O(1) per step.
    /// The token vector is sized up front — a token needs a byte and a
    /// separator — so the number of heap allocations does not depend on
    /// the length of the text.
    pub fn snippet(&self, text: &str) -> String {
        let mut tokens: Vec<Kept> = Vec::with_capacity(text.len() / 2 + 1);
        analyze_with(text, &mut TokenScratch::default(), |term, _, start, end| {
            let slot = self.slots.get(term).copied().unwrap_or(NO_SLOT);
            tokens.push(Kept { slot, start, end });
        });
        if tokens.is_empty() {
            return truncate_escape(text);
        }

        // Slide the window by its right edge; the earliest window with
        // the most distinct matched terms wins (strict '>' keeps the
        // earliest on ties). While the first window is still filling,
        // `distinct` counts a prefix of it, which can only claim
        // start 0 — the start it ends up with anyway.
        let w = WINDOW.min(tokens.len());
        let mut counts = vec![0u32; self.slots.len()];
        let mut distinct = 0usize;
        let (mut best_start, mut best_score) = (0usize, 0usize);
        for (end, entering) in tokens.iter().enumerate() {
            if entering.slot != NO_SLOT {
                counts[entering.slot as usize] += 1;
                distinct += usize::from(counts[entering.slot as usize] == 1);
            }
            if end >= w && tokens[end - w].slot != NO_SLOT {
                let leaving = tokens[end - w].slot as usize;
                counts[leaving] -= 1;
                distinct -= usize::from(counts[leaving] == 0);
            }
            if distinct > best_score {
                best_score = distinct;
                best_start = (end + 1).saturating_sub(w);
            }
        }
        // Extend the window to the text boundaries when it touches the
        // first/last token, so leading/trailing punctuation survives.
        let window = &tokens[best_start..best_start + w];
        let from = if best_start == 0 { 0 } else { window[0].start };
        let to = if best_start + w == tokens.len() {
            text.len()
        } else {
            window[w - 1].end
        };

        // Emit escaped text with <b> around matched tokens.
        let mut out = String::with_capacity((to - from) + 32);
        if from > 0 {
            out.push_str("… ");
        }
        let mut cursor = from;
        for tok in window {
            if tok.start > cursor {
                push_escaped(&mut out, &text[cursor..tok.start]);
            }
            if tok.slot != NO_SLOT {
                out.push_str("<b>");
                push_escaped(&mut out, &text[tok.start..tok.end]);
                out.push_str("</b>");
            } else {
                push_escaped(&mut out, &text[tok.start..tok.end]);
            }
            cursor = tok.end;
        }
        if to > cursor {
            push_escaped(&mut out, &text[cursor..to]);
        }
        if to < text.len() {
            out.push_str(" …");
        }
        clamp_chars(&mut out);
        out
    }
}

/// Escape `&`, `<`, `>`, `"` for safe HTML embedding.
pub(crate) fn escape_html(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    push_escaped(&mut out, text);
    out
}

fn push_escaped(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(ch),
        }
    }
}

fn truncate_escape(text: &str) -> String {
    let mut s = escape_html(text);
    clamp_chars(&mut s);
    s
}

fn clamp_chars(s: &mut String) {
    if s.chars().count() > MAX_CHARS {
        let cut = s
            .char_indices()
            .nth(MAX_CHARS - 1)
            .map(|(i, _)| i)
            .unwrap_or(s.len());
        s.truncate(cut);
        s.push('…');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fx::FxHashSet;
    use proptest::prelude::*;

    /// The snippeter this module shipped before the linear pass, kept
    /// as the oracle: owned tokens, and a hash set of matched terms
    /// rebuilt for every window start.
    fn snippet_reference(query_words: &[&str], text: &str) -> String {
        let mut terms = FxHashSet::default();
        for w in query_words {
            for tok in analyze(w) {
                terms.insert(tok.term);
            }
        }
        let tokens = analyze(text);
        if tokens.is_empty() {
            return truncate_escape(text);
        }
        let matched: Vec<bool> = tokens.iter().map(|t| terms.contains(&t.term)).collect();

        let w = WINDOW.min(tokens.len());
        let mut best_start = 0usize;
        let mut best_score = -1i64;
        for start in 0..=(tokens.len() - w) {
            let mut seen = FxHashSet::default();
            for i in start..start + w {
                if matched[i] {
                    seen.insert(tokens[i].term.as_str());
                }
            }
            let score = seen.len() as i64;
            if score > best_score {
                best_score = score;
                best_start = start;
            }
        }
        let last_idx = (best_start + w - 1).min(tokens.len() - 1);
        let from = if best_start == 0 {
            0
        } else {
            tokens[best_start].start
        };
        let to = if last_idx == tokens.len() - 1 {
            text.len()
        } else {
            tokens[last_idx].end
        };

        let mut out = String::with_capacity((to - from) + 32);
        if from > 0 {
            out.push_str("… ");
        }
        let mut cursor = from;
        for (i, tok) in tokens.iter().enumerate() {
            if i < best_start || i >= best_start + w {
                continue;
            }
            if tok.start > cursor {
                push_escaped(&mut out, &text[cursor..tok.start]);
            }
            if matched[i] {
                out.push_str("<b>");
                push_escaped(&mut out, &text[tok.start..tok.end]);
                out.push_str("</b>");
            } else {
                push_escaped(&mut out, &text[tok.start..tok.end]);
            }
            cursor = tok.end;
        }
        if to > cursor {
            push_escaped(&mut out, &text[cursor..to]);
        }
        if to < text.len() {
            out.push_str(" …");
        }
        clamp_chars(&mut out);
        out
    }

    /// A word of the kind the snippeter has to get right: query
    /// vocabulary in several inflections and cases, stop words, markup
    /// to escape, non-ASCII (borrowed and lowercased paths), digits.
    fn word() -> impl Strategy<Value = String> {
        prop_oneof![
            "(wine|Wines|WINE|bordeaux|stories|story|running|runs|glass|boxes)",
            "(the|a|of|and|The|IS)",
            "(<b>|</script>|&amp;|\"quoted\"|a<b&c>d|--|\\.\\.\\.|;)",
            "(Café|MÜNCH|Σοφία|ΟΔΟΣ|naïve|日本語|x²)",
            "[a-z]{1,9}",
            "[A-Za-z0-9]{1,6}",
        ]
    }

    /// Up to 160 words: from empty through shorter than one window to
    /// several windows long, and mostly past the character cap.
    fn text() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec((word(), "( |  |, |\\. |\n|-|)"), 0..160),
            "( |\\(|)",
        )
            .prop_map(|(words, lead)| {
                let mut s = lead;
                for (w, sep) in words {
                    s.push_str(&w);
                    s.push_str(&sep);
                }
                s
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The linear snippeter is byte-identical to the quadratic one
        /// it replaced: texts from empty through shorter-than-the-window
        /// to several windows long, snippets under and over the
        /// character cap, query words present / absent / repeated /
        /// stop words.
        #[test]
        fn snippet_linear_equals_reference(
            text in text(),
            query in proptest::collection::vec(word(), 0..5),
        ) {
            let words: Vec<&str> = query.iter().map(String::as_str).collect();
            let want = snippet_reference(&words, &text);
            let got = SnippetGenerator::new(&words).snippet(&text);
            prop_assert_eq!(got, want, "text {:?} query {:?}", text, words);
        }
    }

    #[test]
    fn highlights_matched_terms() {
        let s = SnippetGenerator::new(&["space", "shooter"])
            .snippet("A thrilling space shooter for everyone");
        assert!(s.contains("<b>space</b>"), "got: {s}");
        assert!(s.contains("<b>shooter</b>"), "got: {s}");
    }

    #[test]
    fn stemmed_forms_highlight() {
        let s = SnippetGenerator::new(&["laser"]).snippet("many lasers everywhere");
        assert!(s.contains("<b>lasers</b>"), "got: {s}");
    }

    #[test]
    fn picks_window_with_most_distinct_terms() {
        // `bordeaux` lies more than a window past the first `wine`: only
        // a later window holds both.
        let g = SnippetGenerator::new(&["wine", "bordeaux"]);
        let text = format!(
            "wine {}great wine from bordeaux chateau {}",
            "filler ".repeat(30),
            "filler ".repeat(30)
        );
        let s = g.snippet(&text);
        assert!(s.contains("<b>wine</b> from <b>bordeaux</b>"), "got: {s}");
        assert!(s.starts_with("… "), "leading ellipsis expected: {s}");
        assert!(s.ends_with(" …"), "trailing ellipsis expected: {s}");
    }

    #[test]
    fn no_match_returns_leading_window() {
        let s = SnippetGenerator::new(&["absent"]).snippet("Just a plain description of a product");
        assert!(!s.contains("<b>"));
        assert!(s.contains("plain"));
    }

    #[test]
    fn escapes_html() {
        let s = SnippetGenerator::new(&["bold"]).snippet("<script> bold & dangerous \"stuff\"");
        assert!(s.contains("&lt;script&gt;"), "got: {s}");
        assert!(s.contains("&amp;"), "got: {s}");
        assert!(s.contains("&quot;stuff&quot;"), "got: {s}");
        assert!(s.contains("<b>bold</b>"), "got: {s}");
    }

    #[test]
    fn empty_text() {
        assert_eq!(SnippetGenerator::new(&["x"]).snippet(""), "");
    }

    #[test]
    fn clamps_to_max_chars() {
        // A full window of highlighted words runs past the cap: the
        // snippet keeps `MAX_CHARS - 1` characters and an ellipsis.
        let s = SnippetGenerator::new(&["word"]).snippet("word ".repeat(50).as_str());
        assert_eq!(s.chars().count(), MAX_CHARS, "got: {s}");
        assert!(s.starts_with("<b>word</b> "), "got: {s}");
        assert!(s.ends_with('…'));
        // Unmatched text shorter than one window is clamped the same way.
        let s = SnippetGenerator::new(&["word"]).snippet(&"x".repeat(500));
        assert_eq!(s.chars().count(), MAX_CHARS, "got: {s}");
    }

    #[test]
    fn escape_html_standalone() {
        assert_eq!(escape_html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn trailing_ellipsis_when_text_continues() {
        // One window of short words, well under the cap, then more text.
        let rest: Vec<String> = (1..40).map(|i| format!("w{i}")).collect();
        let s = SnippetGenerator::new(&["alpha"]).snippet(&format!("alpha {}", rest.join(" ")));
        assert!(s.starts_with("<b>alpha</b> w1 "), "got: {s}");
        assert!(s.ends_with(" w23 …"), "got: {s}");
    }
}
