//! The public surface of the product crates, pinned.
//!
//! A line-level scanner lists every `pub` declaration outside
//! `#[cfg(test)]` under `crates/*/src` (every crate but `crates/bench`,
//! which is a set of report binaries): functions and methods (a method
//! is qualified by its `impl` type), types, traits, consts, statics,
//! `pub mod`s and each name a `pub use` re-exports. `pub(crate)`,
//! `pub(super)` and struct fields are not listed. The sorted list must
//! equal the committed `PUBLIC_API.txt` at the repository root, so a
//! change that grows or shrinks the surface shows it as a diff of that
//! file in the same commit.
//!
//! Regenerate the file after an intended change with
//! `UPDATE_PUBLIC_API=1 cargo test -p symphony-tests --test public_api`.

use std::fs;
use std::path::{Path, PathBuf};
use symphony_tests::repo_root;

const KINDS: &[&str] = &[
    "fn", "struct", "enum", "trait", "const", "static", "type", "mod", "union",
];

/// Every `.rs` file under `dir`, sorted so the scan is deterministic.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `symphony_text::search::exhaustive` for
/// `crates/textindex/src/search/exhaustive.rs`.
fn module_path(lib: &str, src: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(src).expect("file under src");
    let mut parts = vec![lib.to_string()];
    for c in rel.with_extension("").components() {
        let c = c.as_os_str().to_string_lossy();
        if c != "lib" && c != "mod" {
            parts.push(c.into_owned());
        }
    }
    parts.join("::")
}

/// The code of each line with comments, string and char literals
/// blanked out, so braces and keywords inside them are not counted.
/// Block comments and (raw) strings may span lines.
fn code_lines(text: &str) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        Block(usize),
        Str,
        Raw(usize),
    }
    let mut state = State::Code;
    let mut out = Vec::new();
    for line in text.lines() {
        let c: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut i = 0;
        while i < c.len() {
            match state {
                State::Block(depth) => {
                    if c[i] == '*' && c.get(i + 1) == Some(&'/') {
                        state = if depth == 1 {
                            State::Code
                        } else {
                            State::Block(depth - 1)
                        };
                        i += 2;
                    } else if c[i] == '/' && c.get(i + 1) == Some(&'*') {
                        state = State::Block(depth + 1);
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                State::Str => {
                    if c[i] == '\\' {
                        i += 2;
                    } else {
                        if c[i] == '"' {
                            state = State::Code;
                            code.push('"');
                        }
                        i += 1;
                    }
                }
                State::Raw(hashes) => {
                    if c[i] == '"'
                        && c[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == '#')
                            .count()
                            == hashes
                    {
                        state = State::Code;
                        code.push('"');
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                State::Code => {
                    let ch = c[i];
                    let next = c.get(i + 1).copied();
                    if ch == '/' && next == Some('/') {
                        break;
                    } else if ch == '/' && next == Some('*') {
                        state = State::Block(1);
                        i += 2;
                    } else if ch == '"' {
                        state = State::Str;
                        code.push('"');
                        i += 1;
                    } else if ch == 'r'
                        && matches!(next, Some('"') | Some('#'))
                        && !ident_before(&c, i)
                    {
                        let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
                        if c.get(i + 1 + hashes) == Some(&'"') {
                            state = State::Raw(hashes);
                            code.push('"');
                            i += 2 + hashes;
                        } else {
                            code.push(ch);
                            i += 1;
                        }
                    } else if ch == '\'' {
                        // A char literal ('x', '\n', '\u{..}'); anything
                        // else is a lifetime or a label.
                        if next == Some('\\') {
                            let close = c[i + 3..].iter().position(|&q| q == '\'');
                            i += close.map_or(1, |p| p + 4);
                            code.push_str("' '");
                        } else if c.get(i + 2) == Some(&'\'') {
                            i += 3;
                            code.push_str("' '");
                        } else {
                            code.push(ch);
                            i += 1;
                        }
                    } else {
                        code.push(ch);
                        i += 1;
                    }
                }
            }
        }
        out.push(code);
    }
    out
}

/// Whether the `r` at `c[i]` continues an identifier (`br"` does not).
fn ident_before(c: &[char], i: usize) -> bool {
    let word = |k: usize| c[k].is_alphanumeric() || c[k] == '_';
    match i {
        0 => false,
        1 => c[0] != 'b' && word(0),
        _ => word(i - 1) && (c[i - 1] != 'b' || word(i - 2)),
    }
}

/// The type an `impl` header implements methods for, or `None` for a
/// trait impl (its methods take the trait's visibility, never `pub`).
fn impl_type(header: &str) -> Option<String> {
    let rest = header.trim_start().strip_prefix("impl")?;
    let rest = skip_generics(rest.trim_start());
    if has_top_level_for(rest) {
        return None;
    }
    let ty = rest.split(" where").next().unwrap_or(rest);
    let ty = ty.trim().trim_end_matches('{').trim();
    let base: String = ty.chars().take_while(|&ch| ch != '<').collect();
    Some(base.rsplit("::").next().unwrap_or(&base).trim().to_string())
}

/// Strips a leading `<...>` (generic parameters) from `s`.
fn skip_generics(s: &str) -> &str {
    if !s.starts_with('<') {
        return s;
    }
    let mut depth = 0;
    for (i, ch) in s.char_indices() {
        match ch {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    return s[i + 1..].trim_start();
                }
            }
            _ => {}
        }
    }
    s
}

fn has_top_level_for(s: &str) -> bool {
    let mut depth = 0;
    for (i, ch) in s.char_indices() {
        match ch {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth -= 1,
            _ if depth == 0 && s[i..].starts_with(" for ") => return true,
            _ => {}
        }
    }
    false
}

fn ident(s: &str) -> String {
    s.chars()
        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
        .collect()
}

/// The names a `pub use` tree brings in: `a::{B, c::D as E, F::*}`
/// gives `B`, `E` and `F::*`.
fn use_names(tree: &str) -> Vec<String> {
    let tree = tree.trim().trim_end_matches(';').trim();
    let Some(open) = tree.find('{') else {
        let leaf = tree.rsplit("::").next().unwrap_or(tree);
        return vec![match leaf.split_once(" as ") {
            Some((_, alias)) => alias.trim().to_string(),
            None if leaf == "*" => tree.to_string(),
            None => leaf.trim().to_string(),
        }];
    };
    let inner = &tree[open + 1..tree.rfind('}').expect("balanced use tree")];
    let mut names = Vec::new();
    let (mut depth, mut start) = (0, 0);
    for (i, ch) in inner.char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => depth -= 1,
            ',' if depth == 0 => {
                names.extend(use_names(&inner[start..i]));
                start = i + 1;
            }
            _ => {}
        }
    }
    if !inner[start..].trim().is_empty() {
        names.extend(use_names(&inner[start..]));
    }
    names
}

/// Records the declaration `rest` (a line after its `pub `) of a method
/// of `owner`, or of a free item; `more` are the lines after it, for a
/// `pub use` that spans several.
fn declared(module: &str, rest: &str, more: &[String], owner: Option<&str>, out: &mut Vec<String>) {
    let words: Vec<&str> = rest.split_whitespace().collect();
    if words.first() == Some(&"use") {
        let mut stmt = rest["use".len()..].to_string();
        let mut more = more.iter();
        while !stmt.contains(';') {
            stmt.push(' ');
            stmt.push_str(more.next().expect("a `pub use` ends with `;`").trim());
        }
        for name in use_names(&stmt) {
            out.push(format!("{module} use {name}"));
        }
        return;
    }
    // Qualifiers: `pub unsafe fn`, `pub const fn`, `pub extern "C" fn`.
    let mut k = 0;
    while k + 1 < words.len()
        && (matches!(words[k], "unsafe" | "async" | "extern" | "\"C\"")
            || (words[k] == "const" && words[k + 1] == "fn"))
    {
        k += 1;
    }
    let (Some(kind), Some(name)) = (words.get(k), words.get(k + 1)) else {
        return;
    };
    if !KINDS.contains(kind) {
        return;
    }
    let name = ident(name);
    match (*kind, owner) {
        ("fn" | "const" | "type", Some(ty)) => out.push(format!("{module} {kind} {ty}::{name}")),
        _ => out.push(format!("{module} {kind} {name}")),
    }
}

/// One `pub` declaration per line: `<module> <kind> <name>`.
fn scan_file(module: &str, text: &str, out: &mut Vec<String>) {
    let lines = code_lines(text);
    let mut depth: i64 = 0;
    // Brace depth at which a skipped `#[cfg(test)]` item or an open
    // `impl` block ends.
    let mut skip_until: Option<i64> = None;
    let mut impls: Vec<(i64, Option<String>)> = Vec::new();
    let mut cfg_test = false;
    let mut pending_impl: Option<String> = None;
    let mut i = 0;
    while i < lines.len() {
        let line = &lines[i];
        let trimmed = line.trim();
        let opens = line.matches('{').count() as i64;
        let closes = line.matches('}').count() as i64;
        if skip_until.is_none() {
            if trimmed.starts_with("#[cfg(test)]") {
                cfg_test = true;
            } else if cfg_test && !trimmed.is_empty() && !trimmed.starts_with("#[") {
                cfg_test = false;
                if opens > closes {
                    skip_until = Some(depth);
                } else if opens == 0 && !trimmed.ends_with(';') {
                    // The item goes on past this line: skip to its end, a
                    // `;` or the line that opens its body.
                    let mut j = i;
                    while !lines[j].contains('{') && !lines[j].trim_end().ends_with(';') {
                        j += 1;
                    }
                    if lines[j].contains('{') {
                        skip_until = Some(depth);
                        i = j;
                        continue;
                    }
                    i = j + 1;
                    continue;
                }
            } else if let Some(rest) = trimmed.strip_prefix("pub ") {
                let owner = impls.last().and_then(|(_, ty)| ty.as_deref());
                declared(module, rest, &lines[i + 1..], owner, out);
            }
            if trimmed.starts_with("impl")
                && (trimmed.starts_with("impl ") || trimmed.starts_with("impl<"))
            {
                pending_impl = Some(String::new());
            }
            if let Some(header) = pending_impl.as_mut() {
                header.push_str(trimmed);
                header.push(' ');
                if let Some(brace) = header.find('{') {
                    let ty = impl_type(&header[..brace]);
                    impls.push((depth, ty));
                    pending_impl = None;
                }
            }
        }
        depth += opens - closes;
        if skip_until.is_some_and(|d| depth <= d) && closes > 0 {
            skip_until = None;
        }
        while impls.last().is_some_and(|(d, _)| depth <= *d) && closes > 0 {
            impls.pop();
        }
        i += 1;
    }
}

fn public_api() -> Vec<String> {
    let root = repo_root();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.file_name().is_some_and(|n| n != "bench"))
        .collect();
    crates.sort();
    let mut out = Vec::new();
    for dir in crates {
        let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("crate manifest");
        let package = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = "))
            .expect("package name")
            .trim_matches('"');
        let lib = package.replace('-', "_");
        let src = dir.join("src");
        let mut files = Vec::new();
        rust_files(&src, &mut files);
        for file in files {
            let text = fs::read_to_string(&file).expect("source file");
            scan_file(&module_path(&lib, &src, &file), &text, &mut out);
        }
    }
    out.sort();
    out
}

#[test]
fn public_api_matches_the_committed_list() {
    let path = repo_root().join("PUBLIC_API.txt");
    let now = public_api();
    let mut text = now.join("\n");
    text.push('\n');
    if std::env::var_os("UPDATE_PUBLIC_API").is_some_and(|v| v == "1") {
        fs::write(&path, text).expect("write PUBLIC_API.txt");
        return;
    }
    let pinned = fs::read_to_string(&path).unwrap_or_default();
    let pinned: Vec<&str> = pinned.lines().filter(|l| !l.is_empty()).collect();
    // A sorted multiset difference, printed as a diff.
    let (mut a, mut b) = (0, 0);
    let mut diff = Vec::new();
    while a < pinned.len() || b < now.len() {
        match (pinned.get(a), now.get(b)) {
            (Some(p), Some(n)) if *p == n.as_str() => {
                a += 1;
                b += 1;
            }
            (Some(p), Some(n)) if *p < n.as_str() => {
                diff.push(format!("- {p}"));
                a += 1;
            }
            (Some(p), None) => {
                diff.push(format!("- {p}"));
                a += 1;
            }
            (_, Some(n)) => {
                diff.push(format!("+ {n}"));
                b += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    assert!(
        diff.is_empty(),
        "the public API differs from PUBLIC_API.txt (- pinned, + now):\n{}\n\
         If the change is intended, rerun with UPDATE_PUBLIC_API=1 and commit the file.",
        diff.join("\n")
    );
}

#[test]
fn scanner_reads_declarations_the_way_they_are_written() {
    let src = r#"
pub use a::{B, c::D as E};
pub mod m;
pub(crate) fn hidden() {}
/// A doc comment with pub fn fake() and a brace {
pub struct S { pub field: u32 }
impl<T: Clone> Wrapper<T> where T: Send {
    pub fn method(&self) -> char { '{' }
    pub const LIMIT: usize = 1;
    fn private() {}
}
impl Trait for S {
    fn required() {}
}
pub const fn konst() -> u8 { 0 }
#[cfg(test)]
mod tests {
    pub fn helper() { let _ = "}"; }
}
pub fn after() {}
"#;
    let mut out = Vec::new();
    scan_file("k", src, &mut out);
    out.sort();
    assert_eq!(
        out,
        [
            "k const Wrapper::LIMIT",
            "k fn Wrapper::method",
            "k fn after",
            "k fn konst",
            "k mod m",
            "k struct S",
            "k use B",
            "k use E",
        ]
    );
}
