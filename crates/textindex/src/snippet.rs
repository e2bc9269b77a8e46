//! Snippet extraction and query-term highlighting.
//!
//! Symphony result layouts show a "descriptive field" per hit (paper
//! Fig. 1); for web results that field is a contextual snippet. The
//! generator picks the token window with the highest count of distinct
//! matched query terms (ties: earliest window) and wraps matches in
//! `<b>` tags, HTML-escaping everything else.

use crate::analysis::{Analyzer, TokenScratch};
use crate::fx::FxHashMap;

/// Configuration for [`SnippetGenerator`].
#[derive(Debug, Clone)]
pub struct SnippetConfig {
    /// Window size in tokens.
    pub window: usize,
    /// Hard cap on snippet length in characters (applied after window
    /// selection, on a char boundary, with an ellipsis).
    pub max_chars: usize,
}

impl Default for SnippetConfig {
    fn default() -> Self {
        SnippetConfig {
            window: 24,
            max_chars: 220,
        }
    }
}

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
pub struct SnippetGenerator<'a> {
    analyzer: &'a dyn Analyzer,
    /// Distinct analyzed query terms, each numbered with a dense slot
    /// so a window's distinct-term count is a counter per slot.
    slots: FxHashMap<String, u32>,
    config: SnippetConfig,
}

impl<'a> SnippetGenerator<'a> {
    /// Create a generator for `query_words` (raw query words; they are
    /// analyzed with the same analyzer as the text so stemmed forms
    /// match).
    pub fn new(analyzer: &'a dyn Analyzer, query_words: &[&str]) -> Self {
        Self::with_config(analyzer, query_words, SnippetConfig::default())
    }

    /// Create a generator with explicit window/length configuration.
    pub fn with_config(
        analyzer: &'a dyn Analyzer,
        query_words: &[&str],
        config: SnippetConfig,
    ) -> Self {
        let mut slots = FxHashMap::default();
        for w in query_words {
            for tok in analyzer.analyze(w) {
                let next = slots.len() as u32;
                slots.entry(tok.term).or_insert(next);
            }
        }
        SnippetGenerator {
            analyzer,
            slots,
            config,
        }
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
        let mut scratch = TokenScratch::default();
        self.analyzer
            .analyze_with(text, &mut scratch, &mut |term, _, start, end| {
                let slot = self.slots.get(term).copied().unwrap_or(NO_SLOT);
                tokens.push(Kept { slot, start, end });
            });
        if tokens.is_empty() {
            return truncate_escape(text, self.config.max_chars);
        }

        // Slide the window by its right edge; the earliest window with
        // the most distinct matched terms wins (strict '>' keeps the
        // earliest on ties). While the first window is still filling,
        // `distinct` counts a prefix of it, which can only claim
        // start 0 — the start it ends up with anyway.
        let w = self.config.window.max(1).min(tokens.len());
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
        clamp_chars(&mut out, self.config.max_chars);
        out
    }
}

/// Escape `&`, `<`, `>`, `"` for safe HTML embedding.
pub fn escape_html(text: &str) -> String {
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

fn truncate_escape(text: &str, max_chars: usize) -> String {
    let mut s = escape_html(text);
    clamp_chars(&mut s, max_chars);
    s
}

fn clamp_chars(s: &mut String, max_chars: usize) {
    if s.chars().count() > max_chars {
        let cut = s
            .char_indices()
            .nth(max_chars.saturating_sub(1))
            .map(|(i, _)| i)
            .unwrap_or(s.len());
        s.truncate(cut);
        s.push('…');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::StandardAnalyzer;

    use crate::fx::FxHashSet;
    use proptest::prelude::*;

    fn gen<'a>(an: &'a StandardAnalyzer, words: &[&str]) -> SnippetGenerator<'a> {
        SnippetGenerator::new(an, words)
    }

    /// The snippeter this module shipped before the linear pass, kept
    /// as the oracle: owned tokens, and a hash set of matched terms
    /// rebuilt for every window start.
    fn snippet_reference(
        analyzer: &dyn Analyzer,
        query_words: &[&str],
        config: &SnippetConfig,
        text: &str,
    ) -> String {
        let mut terms = FxHashSet::default();
        for w in query_words {
            for tok in analyzer.analyze(w) {
                terms.insert(tok.term);
            }
        }
        let tokens = analyzer.analyze(text);
        if tokens.is_empty() {
            return truncate_escape(text, config.max_chars);
        }
        let matched: Vec<bool> = tokens.iter().map(|t| terms.contains(&t.term)).collect();

        let w = config.window.max(1).min(tokens.len());
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
        clamp_chars(&mut out, config.max_chars);
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

    fn text() -> impl Strategy<Value = String> {
        (
            proptest::collection::vec((word(), "( |  |, |\\. |\n|-|)"), 0..70),
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
        /// it replaced, for every analyzer configuration: texts from
        /// empty through shorter-than-the-window to several windows
        /// long, query words present / absent / repeated / stop words.
        #[test]
        fn snippet_linear_equals_reference(
            text in text(),
            query in proptest::collection::vec(word(), 0..5),
            shape in (0usize..40, 0usize..260, 0u8..3),
        ) {
            let (window, max_chars, flavour) = shape;
            let an = match flavour {
                0 => StandardAnalyzer::new(),
                1 => StandardAnalyzer::new().without_stemming(),
                _ => StandardAnalyzer::new().with_stopwords(),
            };
            let words: Vec<&str> = query.iter().map(String::as_str).collect();
            let config = SnippetConfig { window, max_chars };
            let want = snippet_reference(&an, &words, &config, &text);
            let got = SnippetGenerator::with_config(&an, &words, config).snippet(&text);
            prop_assert_eq!(got, want, "text {:?} query {:?}", text, words);
        }
    }

    #[test]
    fn highlights_matched_terms() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["space", "shooter"]);
        let s = g.snippet("A thrilling space shooter for everyone");
        assert!(s.contains("<b>space</b>"), "got: {s}");
        assert!(s.contains("<b>shooter</b>"), "got: {s}");
    }

    #[test]
    fn stemmed_forms_highlight() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["laser"]);
        let s = g.snippet("many lasers everywhere");
        assert!(s.contains("<b>lasers</b>"), "got: {s}");
    }

    #[test]
    fn picks_window_with_most_distinct_terms() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 5,
            max_chars: 500,
        };
        let g = SnippetGenerator::with_config(&an, &["wine", "bordeaux"], cfg);
        let text = "filler filler filler filler filler filler filler filler \
                    great wine from bordeaux chateau filler filler";
        let s = g.snippet(text);
        assert!(
            s.contains("<b>wine</b>") && s.contains("<b>bordeaux</b>"),
            "got: {s}"
        );
        assert!(s.starts_with("… "), "leading ellipsis expected: {s}");
    }

    #[test]
    fn no_match_returns_leading_window() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["absent"]);
        let s = g.snippet("Just a plain description of a product");
        assert!(!s.contains("<b>"));
        assert!(s.contains("plain"));
    }

    #[test]
    fn escapes_html() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["bold"]);
        let s = g.snippet("<script> bold & dangerous \"stuff\"");
        assert!(s.contains("&lt;script&gt;"), "got: {s}");
        assert!(s.contains("&amp;"), "got: {s}");
        assert!(s.contains("&quot;stuff&quot;"), "got: {s}");
        assert!(s.contains("<b>bold</b>"), "got: {s}");
    }

    #[test]
    fn empty_text() {
        let an = StandardAnalyzer::new();
        let g = gen(&an, &["x"]);
        assert_eq!(g.snippet(""), "");
    }

    #[test]
    fn clamps_to_max_chars() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 50,
            max_chars: 20,
        };
        let g = SnippetGenerator::with_config(&an, &["word"], cfg);
        let s = g.snippet("word ".repeat(50).as_str());
        assert!(s.chars().count() <= 21, "got len {}", s.chars().count());
        assert!(s.ends_with('…'));
    }

    #[test]
    fn escape_html_standalone() {
        assert_eq!(escape_html("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }

    #[test]
    fn trailing_ellipsis_when_text_continues() {
        let an = StandardAnalyzer::new();
        let cfg = SnippetConfig {
            window: 3,
            max_chars: 500,
        };
        let g = SnippetGenerator::with_config(&an, &["alpha"], cfg);
        let s = g.snippet("alpha beta gamma delta epsilon");
        assert!(s.ends_with(" …"), "got: {s}");
    }
}
