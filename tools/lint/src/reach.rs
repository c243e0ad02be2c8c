//! Reach passes: what the public surface and the error enums are for.
//!
//! **Test-only pass.** Every item `api-surface.txt` lists (the
//! [`source::surface`] of the crates and the facade) needs a caller in
//! production. For a public function the linker decides: it is reached
//! when a production binary (the workspace's bins and examples and the
//! `benchmark/` harness, built at opt-level 0 so no call is inlined away)
//! defines its symbol, matched by crate, self type and name ([`Linked`]).
//! An `is_empty` is reached with its type's linked `len`, which clippy's
//! `len_without_is_empty` makes it keep. Types, traits, consts and statics
//! stay lexical: a reference in non-test code of `crates/*/src`, `src/`,
//! the `examples/` or `benchmark/src` reaches them, by path where the text
//! allows (`Type::NAME` and `Self::NAME` only that type's items,
//! `module::name` and a bare `name` only free items, a qualifier the pass
//! cannot place every item of the name). Inside a public function a
//! reference counts only when the linker reached that function; inside
//! another public item, once that item is reached. So what only dead code
//! names is reported with it. Tests, test items and doc examples do not
//! count. A test seam says so on its definition with `// lint:
//! allow(test-only) <reason>`; seams are printed, not failed, and the
//! types they name count as reached. The linker cannot treat a seam as a
//! root, so a function only a seam calls is reported.
//!
//! **Untested-variant pass.** Every variant of every `*Error` / `*Fault`
//! enum in production code needs a test that constructs or matches it by
//! name (`Enum::Variant`, or the bare variant where the test imports the
//! enum's variants): in `tests/`, `crates/*/tests`, a test item, or a doc
//! example.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::process::Command;

use crate::source;

/// The marker that excuses a test seam from the test-only pass.
pub const TEST_ONLY: &str = "lint: allow(test-only)";

/// One source file as the reach passes read it.
pub struct File {
    /// Path relative to the workspace root.
    pub rel: String,
    /// The crate it compiles into, as symbols spell it (`spg_core`).
    krate: String,
    raw: Vec<String>,
    code: Vec<String>,
    test: Vec<bool>,
}

impl File {
    /// Reads and lexes `path`; `None` if it cannot be read.
    pub fn read(root: &Path, path: &Path) -> Option<File> {
        let text = std::fs::read_to_string(path).ok()?;
        let rel = path.strip_prefix(root).unwrap_or(path).display().to_string();
        Some(File::parse(&rel, &crate_of(path), &text))
    }

    /// Lexes `text`, which lives at `rel` in crate `krate`.
    pub fn parse(rel: &str, krate: &str, text: &str) -> File {
        let code = source::code_lines(text);
        let test = source::test_lines(&code);
        let raw = text.lines().map(String::from).collect();
        File { rel: rel.to_string(), krate: krate.to_string(), raw, code, test }
    }

    /// The code of this file's doc examples (fenced blocks in `///` and
    /// `//!` comments), as a file of its own.
    fn doc_examples(&self) -> File {
        let mut text = String::new();
        let mut fenced = false;
        for line in &self.raw {
            let Some(doc) = line
                .trim_start()
                .strip_prefix("///")
                .or_else(|| line.trim_start().strip_prefix("//!"))
            else {
                continue;
            };
            let doc = doc.strip_prefix(' ').unwrap_or(doc);
            if let Some(info) = doc.trim_start().strip_prefix("```") {
                fenced = !fenced && !matches!(info.trim(), "text" | "ignore" | "console");
            } else if fenced {
                text.push_str(doc.strip_prefix("# ").unwrap_or(doc));
                text.push('\n');
            }
        }
        File::parse(&format!("{} (doc examples)", self.rel), &self.krate, &text)
    }
}

/// The crate the source file at `path` compiles into: `src/bin/<name>.rs`
/// is the binary `<name>`, any other file the library of the nearest
/// package above it.
fn crate_of(path: &Path) -> String {
    let name = if path.parent().is_some_and(|dir| dir.ends_with("src/bin")) {
        path.file_stem().map(|stem| stem.to_string_lossy().into_owned())
    } else {
        path.ancestors().skip(1).find_map(|dir| package_name(&dir.join("Cargo.toml")))
    };
    name.unwrap_or_default().replace('-', "_")
}

/// The `[package]` name of the manifest at `path`, if it has one.
fn package_name(path: &Path) -> Option<String> {
    let manifest = std::fs::read_to_string(path).ok()?;
    let package = manifest.split("[package]").nth(1)?;
    package.lines().find_map(|line| {
        let value = line.trim().strip_prefix("name")?.trim_start().strip_prefix('=')?;
        Some(value.trim().trim_matches('"').to_string())
    })
}

/// The functions the production binaries define, by crate, self type
/// (`None` for a free function) and name, as `nm -C` prints their symbols.
#[derive(Default)]
pub struct Linked(HashSet<(String, Option<String>, String)>);

impl Linked {
    /// Reads the output of `nm -C --defined-only`: one `address kind name`
    /// line per symbol. Data symbols and trait impls' methods are read too;
    /// they name no item the pass judges.
    pub fn parse(nm: &str) -> Linked {
        let mut linked = Linked::default();
        linked.read_nm(nm);
        linked
    }

    fn read_nm(&mut self, nm: &str) {
        let symbols = nm.lines().filter_map(|line| line.splitn(3, ' ').nth(2));
        self.0.extend(symbols.filter_map(function_key));
    }

    /// Builds the production binaries in the `reach` profile ([`REACH_BUILDS`])
    /// and reads their symbol tables.
    pub fn build(root: &Path) -> Result<Linked, String> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let mut linked = Linked::default();
        for (targets, config) in REACH_BUILDS {
            let mut build = Command::new(&cargo);
            build.current_dir(root).args(["build", "--locked", "--offline", "--profile", "reach"]);
            build.arg("--message-format=json-render-diagnostics").args(*targets);
            for setting in REACH_PROFILE.iter().chain(*config) {
                build.args(["--config", setting]);
            }
            let out = build.output().map_err(|e| format!("cannot run cargo: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                let stderr = String::from_utf8_lossy(&out.stderr);
                return Err(format!("`cargo build {}` failed:\n{stderr}", targets.join(" ")));
            }
            for exe in stdout.lines().filter_map(|line| json_string(line, "executable")) {
                let nm = Command::new("nm").args(["-C", "--defined-only", exe]).output();
                let nm = nm.map_err(|e| format!("cannot run nm on {exe}: {e}"))?;
                if !nm.status.success() {
                    return Err(format!("nm failed on {exe}"));
                }
                linked.read_nm(&String::from_utf8_lossy(&nm.stdout));
            }
        }
        Ok(linked)
    }

    /// Whether a production binary defines `krate`'s function `name`
    /// (of self type `owner`).
    fn contains(&self, krate: &str, owner: Option<&str>, name: &str) -> bool {
        let key = (krate.to_string(), owner.map(String::from), name.to_string());
        self.0.contains(&key)
    }
}

/// The `reach` profile: `dev` at opt-level 0, so every call a production
/// binary makes into the crates leaves a symbol. It lives in `target/reach`
/// and the manifests never name it.
const REACH_PROFILE: &[&str] = &["profile.reach.inherits=\"dev\"", "profile.reach.debug=false"];

/// What the test-only pass builds: the workspace's binaries and examples,
/// with `spg-race` unoptimized too (`dev` optimizes it), then the
/// benchmark harness, its own workspace.
const REACH_BUILDS: &[(&[&str], &[&str])] = &[
    (
        &["--workspace", "--exclude", "spg-lint", "--bins", "--examples"],
        &["profile.reach.package.\"spg-race\".opt-level=0"],
    ),
    (&["--manifest-path", "benchmark/Cargo.toml", "--bins"], &[]),
];

/// The string value of `"key":"…"` in a line of cargo's JSON messages.
fn json_string<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    line[start..].split('"').next()
}

/// A demangled function symbol as `(crate, self type, name)`:
/// `spg_serve::queue::BoundedQueue<T>::pop` is `spg_serve`'s
/// `BoundedQueue::pop`. A closure counts as the function that holds it.
/// `None` for a trait impl's method (`<A as B>::f`).
fn function_key(symbol: &str) -> Option<(String, Option<String>, String)> {
    let mut path = Vec::new();
    for segment in path_segments(symbol) {
        // The v0 scheme wraps an inherent impl's self type: `<a::T<_>>::f`.
        match segment.strip_prefix('<').and_then(|s| s.strip_suffix('>')) {
            Some(ty) if path.is_empty() && !ty.contains(" as ") => path.extend(path_segments(ty)),
            Some(_) if path.is_empty() => return None,
            _ => path.push(segment),
        }
    }
    // A legacy symbol may end in its hash; closures and shims are `{…}`.
    let is_hash = |s: &&str| {
        s.len() == 17 && s.starts_with('h') && s[1..].chars().all(|c| c.is_ascii_hexdigit())
    };
    while path.last().is_some_and(|s| s.starts_with('{') || is_hash(s)) {
        path.pop();
    }
    // Generic arguments and v0 crate disambiguators are not part of a name.
    let bare = |s: &str| s[..s.find(['<', '[']).unwrap_or(s.len())].to_string();
    let (name, parents) = path.split_last()?;
    let krate = bare(parents.first()?);
    let owner = parents[1..].last().map(|s| bare(s)).filter(|s| s.starts_with(char::is_uppercase));
    Some((krate, owner, bare(name)))
}

/// The `::`-separated segments of a symbol path, outside angle brackets.
fn path_segments(path: &str) -> Vec<&str> {
    let mut segments = Vec::new();
    let (mut nest, mut start) = (0, 0);
    let bytes = path.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => nest += 1,
            b'>' if i > 0 && bytes[i - 1] != b'-' => nest -= 1,
            b':' if nest == 0 && bytes.get(i + 1) == Some(&b':') => {
                segments.push(&path[start..i]);
                start = i + 2;
                i += 1;
            }
            _ => {}
        }
        i += 1;
    }
    segments.push(&path[start..]);
    segments
}

/// A word of code and the line it sits on. Identifiers and `::` are one
/// token each; every other non-blank character is its own token.
struct Token<'a> {
    line: usize,
    text: &'a str,
}

fn tokens(code: &[String]) -> Vec<Token<'_>> {
    let mut out = Vec::new();
    for (line, text) in code.iter().enumerate() {
        let mut rest = text.as_str();
        while let Some(c) = rest.chars().next() {
            let len = if c.is_alphanumeric() || c == '_' {
                rest.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(rest.len())
            } else if rest.starts_with("::") {
                2
            } else {
                c.len_utf8()
            };
            if !c.is_whitespace() {
                out.push(Token { line, text: &rest[..len] });
            }
            rest = &rest[len..];
        }
    }
    out
}

fn is_ident(text: &str) -> bool {
    text.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// The self type of an `impl` header line: `impl<T> Foo<T> {` and
/// `impl fmt::Display for Foo {` both name `Foo`.
fn impl_type(code: &str) -> Option<&str> {
    let t = code.trim_start();
    let t = t.strip_prefix("unsafe ").unwrap_or(t);
    let mut rest = t.strip_prefix("impl")?;
    if rest.starts_with('<') {
        let mut nest = 0;
        let end = rest.char_indices().find_map(|(i, c)| {
            nest += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            (nest == 0).then_some(i + 1)
        })?;
        rest = &rest[end..];
    } else if !rest.starts_with(' ') {
        return None;
    }
    let ty = rest.split_once(" for ").map_or(rest, |(_, ty)| ty).trim_start();
    let path = &ty[..ty.find(['<', ' ', '{']).unwrap_or(ty.len())];
    path.rsplit("::").next().filter(|name| is_ident(name))
}

/// The innermost `impl` self type around each line.
fn impl_owners(code: &[String]) -> Vec<Option<&str>> {
    let mut owners = Vec::with_capacity(code.len());
    let mut stack: Vec<(i32, &str)> = Vec::new();
    let mut depth = 0;
    let mut pending = None;
    for line in code {
        owners.push(stack.last().map(|&(_, ty)| ty));
        pending = impl_type(line).or(pending);
        for c in line.chars() {
            if c == '{' {
                depth += 1;
                if let Some(ty) = pending.take() {
                    stack.push((depth, ty));
                }
            } else if c == '}' {
                if stack.last().is_some_and(|&(d, _)| d == depth) {
                    stack.pop();
                }
                depth -= 1;
            }
        }
    }
    owners
}

/// A declaration on the public surface.
struct Item<'a> {
    file: &'a File,
    line: usize,
    /// The last line of its definition.
    end: usize,
    /// `fn`, `struct`, `const`, ...
    kind: &'a str,
    name: &'a str,
    /// The `impl` it sits in, for methods and associated items.
    owner: Option<&'a str>,
}

/// The public items of `file` the test-only pass judges: everything on
/// its surface except modules and re-exports.
fn items(file: &File) -> Vec<Item<'_>> {
    let owners = impl_owners(&file.code);
    let mut out = Vec::new();
    for (line, _) in source::surface(&file.raw.join("\n")) {
        // `pub [unsafe] kind name` or `pub const fn name`.
        let words = file.code[line].split(|c: char| !(c.is_alphanumeric() || c == '_'));
        let mut words = words.filter(|w| !w.is_empty()).skip(1).skip_while(|&w| w == "unsafe");
        let (kind, name) = match (words.next(), words.next()) {
            (Some("const"), Some("fn")) => ("fn", words.next()),
            (Some(kind), name) => (kind, name),
            (None, _) => continue,
        };
        let judged =
            matches!(kind, "fn" | "struct" | "enum" | "trait" | "type" | "static" | "const");
        if let Some(name) = name.filter(|_| judged) {
            let end = source::item_end(&file.code, line, 0);
            out.push(Item { file, line, end, kind, name, owner: owners[line] });
        }
    }
    out
}

/// Which lines of `code` belong to a `use` declaration.
fn use_lines(code: &[String]) -> Vec<bool> {
    let mut imports = vec![false; code.len()];
    let mut line = 0;
    while line < code.len() {
        let t = code[line].trim_start();
        let t = t.strip_prefix("pub").map_or(t, |t| {
            let t = t.strip_prefix("(crate)").or_else(|| t.strip_prefix("(super)")).unwrap_or(t);
            t.trim_start()
        });
        if t.starts_with("use ") {
            let end = source::item_end(code, line, 0);
            imports[line..=end].iter_mut().for_each(|i| *i = true);
            line = end;
        }
        line += 1;
    }
    imports
}

/// How a reference names an item.
enum Reach<'a> {
    /// A bare name or `module::name`: free items.
    Free,
    /// `Type::name`: that type's items.
    Of(&'a str),
    /// `Self::name` outside an `impl`, or a qualifier the pass cannot
    /// place: every item of the name.
    Any,
    /// A `use` import: traits only.
    Import,
}

/// Test-only pass: appends a finding per surface item of `surface` that
/// production does not reach (functions: `linked` lacks them; other
/// items: no line of `production` names them) and that carries no
/// reasoned [`TEST_ONLY`] marker; returns the excused items
/// (`file:line: reason`).
pub fn scan_test_only(
    surface: &[File],
    production: &[File],
    linked: &Linked,
    findings: &mut Vec<String>,
) -> Vec<String> {
    let items: Vec<Item> = surface.iter().flat_map(items).collect();
    let owners: HashSet<&str> = items.iter().filter_map(|item| item.owner).collect();
    // Functions are the linker's; only the other items are named.
    let mut by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (k, item) in items.iter().enumerate().filter(|(_, item)| item.kind != "fn") {
        by_name.entry(item.name).or_default().push(k);
    }
    // Each reference: the surface item whose body holds it, if any, and
    // the items it may name.
    let mut refs: Vec<(Option<usize>, Vec<usize>)> = Vec::new();
    for file in production {
        let mut enclosing = vec![None; file.code.len()];
        for (k, item) in items.iter().enumerate().filter(|(_, item)| item.file.rel == file.rel) {
            enclosing[item.line..=item.end].iter_mut().for_each(|e| *e = Some(k));
        }
        let line_owners = impl_owners(&file.code);
        let imports = use_lines(&file.code);
        let toks = tokens(&file.code);
        for (t, tok) in toks.iter().enumerate() {
            let Some(candidates) = by_name.get(tok.text) else { continue };
            // An `impl` header names its self type without using it.
            if file.test[tok.line] || impl_type(&file.code[tok.line]) == Some(tok.text) {
                continue;
            }
            let prev = |back: usize| t.checked_sub(back).map(|p| toks[p].text);
            let reach = if imports[tok.line] {
                // An import is not a use, but `use a::b as c` hides the
                // uses of `b` behind `c`, and a trait import is what lets
                // its methods be called.
                match toks.get(t + 1) {
                    Some(next) if next.text == "as" => Reach::Any,
                    _ => Reach::Import,
                }
            } else if prev(1) == Some(".") {
                // A method call or a field read: no item the pass names.
                continue;
            } else if prev(1) == Some("::") {
                match prev(2) {
                    Some("Self") => line_owners[tok.line].map_or(Reach::Any, Reach::Of),
                    Some(q) if owners.contains(q) => Reach::Of(q),
                    Some(q) if q.starts_with(char::is_lowercase) => Reach::Free,
                    _ => Reach::Any,
                }
            } else if matches!(
                prev(1),
                Some("fn" | "struct" | "enum" | "trait" | "type" | "mod" | "static" | "const")
            ) {
                continue;
            } else {
                Reach::Free
            };
            let named = candidates.iter().copied().filter(|&k| match reach {
                Reach::Free => items[k].owner.is_none(),
                Reach::Of(ty) => items[k].owner == Some(ty),
                Reach::Any => true,
                Reach::Import => items[k].kind == "trait",
            });
            let from = enclosing[tok.line];
            refs.push((from, named.filter(|&k| from != Some(k)).collect()));
        }
    }
    let reasons: Vec<Option<&str>> =
        items.iter().map(|item| marker_reason(&item.file.raw, item.line)).collect();
    // A function is reached when a production binary links it — or, for
    // an `is_empty`, its type's `len`.
    let is_linked = |item: &Item| {
        let krate = &item.file.krate;
        item.kind == "fn"
            && (linked.contains(krate, item.owner, item.name)
                || item.name == "is_empty" && linked.contains(krate, item.owner, "len"))
    };
    let roots: Vec<bool> = items.iter().map(is_linked).collect();
    let by_production = reach_from(roots.clone(), &refs);
    // A seam is reached by definition, and so are the items it names.
    let seams = roots.iter().zip(&reasons).map(|(&root, reason)| root || reason.is_some());
    let by_seams = reach_from(seams.collect(), &refs);
    let mut excused = Vec::new();
    for (k, item) in items.iter().enumerate() {
        let site = format!("{}:{}", item.file.rel, item.line + 1);
        let path = item.owner.map_or(item.name.to_string(), |ty| format!("{ty}::{}", item.name));
        let why = match item.kind {
            "fn" => "no production binary links it",
            _ => "nothing outside tests names it",
        };
        match reasons[k] {
            Some(_) if by_production[k] => findings.push(format!(
                "{site}: `{path}` carries `{TEST_ONLY}` but production reaches it — drop the \
                 marker"
            )),
            Some("") => findings.push(format!("{site}: `{path}`: `{TEST_ONLY}` gives no reason")),
            Some(reason) => excused.push(format!("{site}: {path}: {reason}")),
            None if !by_seams[k] => findings.push(format!(
                "{site}: `pub {} {path}`: {why} — delete it, or mark a test seam with \
                 `// {TEST_ONLY} <reason>` on its definition",
                item.kind
            )),
            None => {}
        }
    }
    excused
}

/// Which items `refs` reach from `roots`: a reference from inside a
/// public item counts once that item is reached, so code only dead items
/// call is dead too.
fn reach_from(mut reached: Vec<bool>, refs: &[(Option<usize>, Vec<usize>)]) -> Vec<bool> {
    let mut grew = true;
    while grew {
        grew = false;
        for (from, named) in refs {
            if from.is_none_or(|f| reached[f]) {
                for &k in named {
                    grew |= !reached[k];
                    reached[k] = true;
                }
            }
        }
    }
    reached
}

/// The reason of a [`TEST_ONLY`] marker on the definition at `line`:
/// trailing on it, or in the comment and attribute run just above it.
fn marker_reason(raw: &[String], line: usize) -> Option<&str> {
    let above = raw[..line].iter().rev().take_while(|l| {
        let t = l.trim_start();
        t.starts_with("//") || t.starts_with("#[")
    });
    std::iter::once(&raw[line])
        .chain(above)
        .find_map(|l| l.split_once(TEST_ONLY))
        .map(|(_, reason)| reason.trim())
}

/// Untested-variant pass: appends a finding per variant of a `*Error` /
/// `*Fault` enum in `production` that no line of `tests`, no test item
/// and no doc example names.
pub fn scan_untested_variants(production: &[File], tests: &[File], findings: &mut Vec<String>) {
    let docs: Vec<File> = production.iter().map(File::doc_examples).collect();
    let mut named: HashSet<(&str, &str)> = HashSet::new();
    let mut imported: HashSet<(&str, &str)> = HashSet::new();
    for (file, test_only) in
        tests.iter().map(|f| (f, false)).chain(production.iter().chain(&docs).map(|f| (f, true)))
    {
        let all = tokens(&file.code);
        let toks: Vec<&Token> =
            all.iter().filter(|tok| !test_only || file.test[tok.line]).collect();
        let mut globbed = Vec::new();
        for w in toks.windows(3) {
            if w[1].text == "::" {
                named.insert((w[0].text, w[2].text));
                if matches!(w[2].text, "*" | "{") {
                    globbed.push(w[0].text);
                }
            }
        }
        for tok in &toks {
            for &enum_name in &globbed {
                imported.insert((enum_name, tok.text));
            }
        }
    }
    for file in production {
        for (enum_name, line, variant) in error_variants(file) {
            let key = (enum_name, variant);
            if !named.contains(&key) && !imported.contains(&key) {
                findings.push(format!(
                    "{}:{}: `{enum_name}::{variant}` is neither constructed nor matched by any \
                     test — provoke it in a test, or delete it if nothing raises it",
                    file.rel,
                    line + 1
                ));
            }
        }
    }
}

/// The variants of the `*Error` / `*Fault` enums of `file`'s production
/// code: the enum's name, and the variant's line and name.
fn error_variants(file: &File) -> Vec<(&str, usize, &str)> {
    let mut out = Vec::new();
    for (line, code) in file.code.iter().enumerate() {
        let words: Vec<&str> = code.split(|c: char| !(c.is_alphanumeric() || c == '_')).collect();
        let Some(at) = words.iter().position(|&w| w == "enum") else { continue };
        let Some(name) = words[at + 1..].iter().find(|w| !w.is_empty()) else { continue };
        if file.test[line] || !(name.ends_with("Error") || name.ends_with("Fault")) {
            continue;
        }
        let end = source::item_end(&file.code, line, 0);
        let mut nest = 0;
        for (l, text) in file.code.iter().enumerate().take(end + 1).skip(line) {
            let first = text.trim_start();
            if nest == 1 && first.starts_with(char::is_uppercase) {
                let len = first.find(|c: char| !(c.is_alphanumeric() || c == '_'));
                out.push((*name, l, &first[..len.unwrap_or(first.len())]));
            }
            for c in text.chars() {
                nest += match c {
                    '{' | '(' | '[' => 1,
                    '}' | ')' | ']' => -1,
                    _ => 0,
                };
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::function_key;

    fn key(symbol: &str) -> Option<(String, Option<String>, String)> {
        function_key(symbol)
    }

    fn method(krate: &str, owner: &str, name: &str) -> Option<(String, Option<String>, String)> {
        Some((krate.into(), Some(owner.into()), name.into()))
    }

    #[test]
    fn symbols_name_crate_self_type_and_function() {
        let free = Some(("k".into(), None, "f".into()));
        assert_eq!(key("k::m::f"), free);
        assert_eq!(key("k::m::f::h0123456789abcdef"), free, "legacy hash");
        assert_eq!(key("k::m::f::{{closure}}::{{closure}}"), free);
        assert_eq!(key("k::q::Queue<T>::pop"), method("k", "Queue", "pop"));
        assert_eq!(key("<k[5a1b]::q::Queue<_>>::pop"), method("k", "Queue", "pop"), "v0");
        assert_eq!(key("k::S<fn() -> u8>::call"), method("k", "S", "call"));
        assert_eq!(key("<k::S as core::fmt::Debug>::fmt"), None, "trait impl");
        assert_eq!(key("main"), None);
    }
}
