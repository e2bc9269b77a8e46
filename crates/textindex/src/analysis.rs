//! Text analysis: tokenization, stopword removal, and light stemming.
//!
//! Index time and query time must analyse text identically or terms
//! will not line up, so there is exactly one pipeline and no analyzer
//! object to choose: [`analyze_with`] is the lexer, and indexing,
//! query parsing, snippets and spelling suggestions all call it (or
//! [`analyze`], which collects from it).

/// A single token produced by [`analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Normalized term text (lowercased, stemmed).
    pub term: String,
    /// Token position within the field (counting kept tokens only is
    /// NOT what we do: positions count every emitted word so that
    /// phrase queries spanning a removed stopword still behave
    /// predictably).
    pub position: u32,
    /// Byte offset of the token start in the original text.
    pub start: usize,
    /// Byte offset one past the token end in the original text.
    pub end: usize,
}

/// Reusable per-builder scratch buffers for the allocation-lean
/// [`analyze_with`] path.
///
/// Holds the lowercase and stem staging buffers so that, across a
/// whole document stream, normalization performs zero steady-state
/// heap allocations: terms that are already normalized are borrowed
/// straight from the input text, and terms that change bytes are
/// staged in these buffers (which only ever grow to the longest token
/// seen).
#[derive(Debug, Default, Clone)]
pub struct TokenScratch {
    /// Lowercasing staging buffer.
    lower: String,
    /// Stemming staging buffer (only the rare suffix rewrites that are
    /// not prefix slices need it, e.g. `stories` -> `story`).
    stemmed: String,
}

/// English stopwords: dropped from every token stream, though each
/// still takes a position.
///
/// Deliberately short: a search-driven application mixes product names
/// and natural language, and aggressive stopping hurts product queries
/// like "the last of us".
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "in", "is", "it", "of", "on",
    "or", "that", "the", "to", "was", "with",
];

/// Analyze `text` into owned tokens (the query-time and test path;
/// indexing streams through [`analyze_with`] instead).
pub fn analyze(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    analyze_with(
        text,
        &mut TokenScratch::default(),
        |term, position, start, end| {
            out.push(Token {
                term: term.to_string(),
                position,
                start,
                end,
            });
        },
    );
    out
}

/// Streaming, allocation-lean analysis: Unicode-alphanumeric word
/// splitting, lowercasing, stopword removal and light suffix stemming.
/// Invokes `sink(term, position, start, end)` for every kept token, with
/// `term` borrowed from `text` or from `scratch` — no owned `String` is
/// ever materialized. This is the indexing hot path, and the one
/// implementation every other caller goes through.
pub fn analyze_with(
    text: &str,
    scratch: &mut TokenScratch,
    mut sink: impl FnMut(&str, u32, usize, usize),
) {
    // Split-borrow the two staging buffers once so a term borrowed
    // from `lower` can coexist with a stem written into `stemmed`.
    let TokenScratch { lower, stemmed } = scratch;
    let mut position = 0u32;
    let mut start = None;
    // Iterate char boundaries manually so byte offsets are exact.
    for (idx, ch) in text.char_indices() {
        if ch.is_alphanumeric() {
            if start.is_none() {
                start = Some(idx);
            }
        } else if let Some(s) = start.take() {
            emit(text, s, idx, &mut position, lower, stemmed, &mut sink);
        }
    }
    if let Some(s) = start {
        emit(
            text,
            s,
            text.len(),
            &mut position,
            lower,
            stemmed,
            &mut sink,
        );
    }
}

/// Normalize one raw word and hand it to `sink` unless it is a
/// stopword. Lowercasing borrows the input when no byte changes (the
/// common case for generated corpora), byte-lowercases ASCII into the
/// scratch buffer otherwise, and only falls back to the allocating
/// Unicode `to_lowercase` for non-ASCII words that really contain
/// uppercase letters. The stopword set is consulted on the borrowed
/// lowercase form, so filtered words never materialize an owned term.
fn emit(
    text: &str,
    start: usize,
    end: usize,
    position: &mut u32,
    lower: &mut String,
    stemmed: &mut String,
    sink: &mut impl FnMut(&str, u32, usize, usize),
) {
    let raw = &text[start..end];
    let pos = *position;
    *position += 1;
    let term: &str = if raw.is_ascii() {
        if raw.bytes().any(|b| b.is_ascii_uppercase()) {
            lower.clear();
            lower.push_str(raw);
            lower.as_mut_str().make_ascii_lowercase();
            lower
        } else {
            raw
        }
    } else if raw.chars().all(|c| {
        // Borrow when every char already maps to itself under
        // lowercasing (str::to_lowercase's final-sigma special
        // case only rewrites uppercase sigma, so char-by-char
        // identity implies string identity).
        let mut it = c.to_lowercase();
        it.next() == Some(c) && it.next().is_none()
    }) {
        raw
    } else {
        lower.clear();
        lower.push_str(&raw.to_lowercase());
        lower
    };
    if STOPWORDS.contains(&term) {
        return;
    }
    sink(stem_into(term, stemmed), pos, start, end);
}

/// A light English suffix stripper (a deliberately small subset of
/// Porter). It only removes plural/participle suffixes when the stem
/// that remains is long enough to stay recognizable, which keeps it
/// safe for product catalogs ("rings" -> "ring" but "les" stays "les").
/// The rules apply until none matches, so a stem is its own stem:
/// "lapsed" -> "laps" -> "lap", and "breeds" -> "breed" -> "bre" like
/// "breed" itself.
///
/// Allocation-lean: every rewrite except `ies` -> `y` leaves a prefix
/// of the input, which is returned as a borrowed slice; the one suffix
/// substitution stages its result in `buf`, and ends the stripping (no
/// rule matches a word ending in `y`). The returned `&str` borrows
/// from `term` or from `buf`.
fn stem_into<'a>(term: &'a str, buf: &'a mut String) -> &'a str {
    // Never stem tokens with digits.
    if term.bytes().any(|b| b.is_ascii_digit()) {
        return term;
    }
    let mut t = term;
    // Never stem very short tokens.
    while t.len() > 3 {
        if let Some(base) = t.strip_suffix("ies").filter(|base| base.len() >= 2) {
            buf.clear();
            buf.push_str(base);
            buf.push('y');
            return buf;
        }
        match strip_suffix_rule(t) {
            Some(stem) => t = stem,
            None => break,
        }
    }
    t
}

/// The first suffix rule other than `ies` -> `y` that matches `t`, as
/// the prefix of `t` it leaves.
fn strip_suffix_rule(t: &str) -> Option<&str> {
    let n = t.len();
    if t.ends_with("sses") {
        // Strip "sses", re-append "ss": a prefix of the original.
        return Some(&t[..n - 2]);
    }
    if let Some(base) = t.strip_suffix("ing") {
        if base.len() >= 3 {
            return Some(undouble(base));
        }
    }
    if let Some(base) = t.strip_suffix("ed") {
        if base.len() >= 3 {
            return Some(undouble(base));
        }
    }
    if let Some(base) = t.strip_suffix("es") {
        if base.len() >= 3 && (base.ends_with('x') || base.ends_with("sh") || base.ends_with("ch"))
        {
            return Some(base);
        }
    }
    if t.ends_with('s') && !t.ends_with("ss") && !t.ends_with("us") && n >= 4 {
        return Some(&t[..n - 1]);
    }
    None
}

/// Collapse a doubled final consonant left behind by suffix stripping
/// ("stopp" -> "stop"), except for letters where doubling is natural.
fn undouble(base: &str) -> &str {
    let bytes = base.as_bytes();
    let n = bytes.len();
    if n >= 2 && bytes[n - 1] == bytes[n - 2] {
        let c = bytes[n - 1] as char;
        if c.is_ascii_alphabetic() && !matches!(c, 'l' | 's' | 'z' | 'e' | 'o') {
            return &base[..n - 1];
        }
    }
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    fn terms(text: &str) -> Vec<String> {
        analyze(text).into_iter().map(|t| t.term).collect()
    }

    fn stem(term: &str) -> String {
        stem_into(term, &mut String::new()).to_string()
    }

    #[test]
    fn splits_on_punctuation_and_lowercases() {
        assert_eq!(terms("Hello, World!"), vec!["hello", "world"]);
    }

    #[test]
    fn removes_stopwords_but_keeps_positions() {
        let toks = analyze("the space shooter");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].term, "space");
        // "the" occupied position 0.
        assert_eq!(toks[0].position, 1);
        assert_eq!(toks[1].position, 2);
    }

    #[test]
    fn byte_offsets_are_exact() {
        let text = "wine: Margaux";
        let toks = analyze(text);
        assert_eq!(&text[toks[0].start..toks[0].end], "wine");
        assert_eq!(&text[toks[1].start..toks[1].end], "Margaux");
    }

    #[test]
    fn unicode_words_survive() {
        assert_eq!(terms("Café Münch 2024"), vec!["café", "münch", "2024"]);
    }

    #[test]
    fn stemming_examples() {
        assert_eq!(stem("games"), "game");
        assert_eq!(stem("stories"), "story");
        assert_eq!(stem("running"), "run");
        assert_eq!(stem("played"), "play");
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("glass"), "glass");
        assert_eq!(stem("les"), "les");
        assert_eq!(stem("us"), "us");
        assert_eq!(stem("2024s"), "2024s");
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(
            terms("top 10 games of 2009"),
            vec!["top", "10", "game", "2009"]
        );
    }

    #[test]
    fn empty_and_whitespace_only() {
        assert!(terms("").is_empty());
        assert!(terms("   \t\n ").is_empty());
    }

    #[test]
    fn final_sigma_lowercasing_matches_std() {
        // str::to_lowercase's word-final sigma rule must survive the
        // allocation-lean path (uppercase Greek goes down the Unicode
        // fallback, already-lowercase Greek is borrowed unchanged).
        // Four-letter words ending in `ς` are left alone by the stemmer.
        assert_eq!(terms("ΟΔΟΣ"), vec!["ΟΔΟΣ".to_lowercase()]);
        assert_eq!(terms("οδος"), vec!["οδος"]);
    }

    #[test]
    fn stem_into_stages_only_suffix_substitutions() {
        let mut buf = String::new();
        assert_eq!(stem_into("games", &mut buf), "game");
        assert!(buf.is_empty(), "prefix rewrites never touch the buffer");
        assert_eq!(stem_into("classes", &mut buf), "class");
        assert_eq!(stem_into("running", &mut buf), "run");
        assert!(buf.is_empty());
        assert_eq!(stem_into("stories", &mut buf), "story");
        assert_eq!(buf, "story", "ies -> y is the one staged rewrite");
    }

    #[test]
    fn a_stem_is_its_own_stem() {
        for (word, stemmed) in [
            ("lapsed", "lap"),
            ("laps", "lap"),
            ("breeds", "bre"),
            ("breed", "bre"),
        ] {
            assert_eq!(stem(word), stemmed, "{word}");
            assert_eq!(stem(stemmed), stemmed, "{word}");
        }
    }
}
