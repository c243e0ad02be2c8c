//! How `spg-lint` reads a Rust source file: which characters are code,
//! which lines belong to test items, and which declarations are the
//! public surface. `tests/api_surface.rs` includes this file by path, so
//! the snapshot test and the linter agree on all three.
//!
//! A lexer over characters, not a parser: comments and the contents of
//! string and character literals are blanked (newlines kept), so a brace
//! count or a name search on the result sees code only.

use std::path::{Path, PathBuf};

/// The attribute that gates a test item.
const CFG_TEST: &str = "#[cfg(test)]";

/// Declaration prefixes that make up the public surface. `pub(` scoped
/// visibility is not public API.
pub const PUB_PREFIXES: &[&str] = &[
    "pub fn ",
    "pub unsafe fn ",
    "pub const fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub mod ",
    "pub use ",
];

/// Each line of `text` with its comments, and the contents of its string
/// and character literals, replaced by spaces. Literal delimiters stay.
pub fn code_lines(text: &str) -> Vec<String> {
    let chars: Vec<char> = text.chars().collect();
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let ident = |i: usize| i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    let mut out = String::with_capacity(text.len());
    let mut i = 0;
    while i < chars.len() {
        let (c, next) = (chars[i], chars.get(i + 1).copied());
        if c == '/' && next == Some('/') {
            while i < chars.len() && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 0;
            while i < chars.len() {
                let pair = (chars[i], chars.get(i + 1).copied());
                if pair == ('/', Some('*')) || pair == ('*', Some('/')) {
                    depth += if pair.0 == '/' { 1 } else { -1 };
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    out.push(blank(chars[i]));
                    i += 1;
                }
            }
        } else if c == 'r'
            && (!ident(i) || (chars[i - 1] == 'b' && !ident(i - 1)))
            && matches!(next, Some('"' | '#'))
        {
            // A raw string: `r"…"` or `r#"…"#`; a lone `r#` is a raw identifier.
            let hashes = chars[i + 1..].iter().take_while(|&&h| h == '#').count();
            if chars.get(i + 1 + hashes) != Some(&'"') {
                out.push(c);
                i += 1;
                continue;
            }
            out.extend(&chars[i..i + 2 + hashes]);
            let close: String = std::iter::once('"').chain("#".repeat(hashes).chars()).collect();
            i = literal(&chars, i + 2 + hashes, &close, false, &mut out);
        } else if c == '"' {
            out.push('"');
            i = literal(&chars, i + 1, "\"", true, &mut out);
        } else if c == '\'' && (next == Some('\\') || chars.get(i + 2) == Some(&'\'')) {
            // A character literal (`'x'`, `'\n'`, `'\u{7f}'`); any other
            // quote opens a lifetime or a label.
            out.push('\'');
            i += if next == Some('\\') { 3 } else { 2 };
            out.push_str(if next == Some('\\') { "  " } else { " " });
            while i < chars.len() && chars[i] != '\'' {
                out.push(' ');
                i += 1;
            }
            if i < chars.len() {
                out.push('\'');
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out.lines().map(String::from).collect()
}

/// Blanks the body of a string literal from `chars[i]` up to and
/// including its `close` delimiter, which it keeps; returns the index
/// after it. The names a format string captures (`{name}`, `{name:?}`)
/// stay, since they are code. `escapes`: a backslash hides the next
/// character.
fn literal(chars: &[char], mut i: usize, close: &str, escapes: bool, out: &mut String) -> usize {
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let is_name = |c: &char| c.is_alphanumeric() || *c == '_';
    while i < chars.len() {
        if chars[i..].iter().take(close.len()).copied().eq(close.chars()) {
            out.push_str(close);
            return i + close.len();
        }
        let width = match (chars[i], chars.get(i + 1)) {
            ('\\', Some(_)) if escapes => 2,
            ('{', Some('{')) => 2,
            ('{', Some(&n)) if n.is_alphabetic() || n == '_' => {
                out.push(' ');
                let name = chars[i + 1..].iter().take_while(|c| is_name(c)).count();
                out.extend(&chars[i + 1..=i + name]);
                i += 1 + name;
                continue;
            }
            _ => 1,
        };
        chars[i..(i + width).min(chars.len())].iter().for_each(|&c| out.push(blank(c)));
        i += width;
    }
    i
}

/// The last line of the item or statement that starts at `code[start]`
/// from column `col`: the line whose `}` closes its outermost brace, or
/// the line of a `;` outside every bracket when it has none.
pub fn item_end(code: &[String], start: usize, col: usize) -> usize {
    let mut nest = 0i32;
    for (j, line) in code.iter().enumerate().skip(start) {
        let from = if j == start { col } else { 0 };
        for ch in line.chars().skip(from) {
            match ch {
                '(' | '[' | '{' => nest += 1,
                ')' | ']' => nest -= 1,
                '}' => {
                    nest -= 1;
                    if nest == 0 {
                        return j;
                    }
                }
                ';' if nest == 0 => return j,
                _ => {}
            }
        }
    }
    code.len().saturating_sub(1)
}

/// Which lines of a file are test code: each `#[cfg(test)]` attribute
/// through the end of the item or statement it gates. The rule is scoped
/// to that item, so production code after a test helper stays production
/// code.
pub fn test_lines(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    let mut i = 0;
    while i < code.len() {
        match code[i].find(CFG_TEST) {
            Some(at) => {
                let end = item_end(code, i, code[i][..at].chars().count() + CFG_TEST.len());
                test[i..=end].iter_mut().for_each(|t| *t = true);
                i = end + 1;
            }
            None => i += 1,
        }
    }
    test
}

/// The public declarations of `text` outside its test items: the line
/// index of each and the declaration as the API snapshot spells it,
/// indented by nesting depth.
pub fn surface(text: &str) -> Vec<(usize, String)> {
    let code = code_lines(text);
    let test = test_lines(&code);
    text.lines()
        .zip(&code)
        .enumerate()
        .filter(|&(i, (_, code))| {
            !test[i] && PUB_PREFIXES.iter().any(|p| code.trim_start().starts_with(p))
        })
        .map(|(i, (line, _))| {
            let trimmed = line.trim_start();
            let sig = trimmed.trim_end().trim_end_matches('{').trim_end();
            let depth = (line.len() - trimmed.len()) / 4;
            (i, format!("{}{sig}", "  ".repeat(depth)))
        })
        .collect()
}

/// The files whose public declarations `api-surface.txt` lists: the
/// facade's library and binary, then every crate's `src/`, in path order.
pub fn surface_files(root: &Path) -> Vec<PathBuf> {
    let mut files = vec![root.join("src/lib.rs"), root.join("src/bin/spgcnn.rs")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|entries| entries.flatten().map(|e| e.path().join("src")).collect())
        .unwrap_or_default();
    crates.sort();
    for src in crates {
        collect(&src, &mut files);
    }
    files
}

/// Appends the `.rs` files under `dir` to `files`, recursively, in path order.
fn collect(dir: &Path, files: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|entries| entries.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}
