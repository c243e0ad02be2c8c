//! Workspace hygiene lint, run by CI.
//!
//! Eight passes over the workspace sources (no external parser — the build
//! environment is offline, so this is a deliberately conservative line
//! scanner over [`source`]'s lexed lines rather than a `syn` AST walk):
//!
//! 1. **SAFETY comments** — every `unsafe` block in `crates/*/src` and
//!    `src/` must be preceded by a `// SAFETY:` comment, and every
//!    `unsafe fn` by a doc comment with a `# Safety` section, stating the
//!    invariant (now proved at plan time by `spg-check`) that makes it sound.
//! 2. **No raw `.unwrap()` / `.expect(`** in non-test code of the kernel
//!    crates (`spg-core`, `spg-gemm`, `spg-codegen`): plan problems must
//!    surface as typed errors through the verifier, not as panics inside
//!    a worker.
//! 3. **Lock-order cycles** (see [`concurrency`]) — acquiring `spg_sync`
//!    locks in inconsistent order across a file is the ABBA deadlock
//!    shape; reported with both acquisition sites.
//! 4. **Blocking under a lock** (see [`concurrency`]) — channel
//!    `recv`/`send`, `join` or `sleep` while a lock guard is live.
//! 5. **Thread spawn** (see [`concurrency`]) — `thread::scope` /
//!    `thread::spawn` / `thread::Builder` outside `spg-sync` (the worker
//!    runtime) and `spg-race` needs a reasoned
//!    `// lint: allow(thread-spawn)` marker; the excused sites are
//!    printed, so the tree's thread-creation idioms are a CI line.
//! 6. **Intrinsics** — `std::arch` / `core::arch` and the `_mm256_` /
//!    `_mm512_` intrinsics belong to `spg-gemm`'s `simd` module, the one
//!    SIMD vocabulary every kernel is written in; a use anywhere else is a
//!    finding, with no escape marker.
//! 7. **Test-only public items** (see [`reach`]) — every item on the
//!    public surface (`api-surface.txt`) needs production to reach it — a
//!    function by being linked into a production binary, which the pass
//!    builds at opt-level 0 and reads with `nm -C`; any other item by a
//!    reference outside tests — or a reasoned `// lint: allow(test-only)`
//!    marker naming it a test seam; the excused seams are printed.
//! 8. **Untested error variants** (see [`reach`]) — every variant of every
//!    `*Error` / `*Fault` enum needs a test that constructs or matches it
//!    by name.
//!
//! Test code is exempt: files under `tests/`, and every item or statement
//! a `#[cfg(test)]` attribute gates, from the attribute to the item's end
//! (see [`source::test_lines`]).
//!
//! `spg-lint --self-test` runs the concurrency, intrinsics and reach
//! passes over the seeded fixtures in `tools/lint/fixtures/` and fails
//! unless each planted bug is found and the clean fixture stays clean — a
//! liveness check for the linter itself, run by CI next to the real pass.
//! The test-only pass reads the canned symbol table `test_only.nm` there
//! instead of building anything.
//!
//! `spg-lint --loc` prints the non-test source size — per crate and in
//! total, the non-blank non-comment lines of `crates/*/src` and `src/`
//! outside the test items above — so "this PR removed N lines" is one
//! method, not one per author. It reports; it gates nothing.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod concurrency;
mod reach;
mod source;

/// Crates whose non-test code must be free of raw `.unwrap()` / `.expect(`.
const KERNEL_CRATES: &[&str] = &["crates/codegen/src", "crates/core/src", "crates/gemm/src"];

/// Source roots scanned for undocumented `unsafe`.
const UNSAFE_ROOTS: &[&str] = &["crates", "src"];

/// Source roots whose non-test code counts as a production caller of the
/// public surface: the crates, the facade, the examples, and the
/// benchmark harness, which builds against the crates by path.
const PRODUCTION_ROOTS: &[&str] = &["crates", "src", "examples", "benchmark/src"];

/// The one file that may name SIMD intrinsics.
const SIMD_MODULE: &str = "crates/gemm/src/simd.rs";

/// What names an instruction set's intrinsics.
const INTRINSICS: &[&str] = &["std::arch", "core::arch", "_mm256_", "_mm512_"];

/// How many preceding comment lines may separate a `// SAFETY:` comment
/// from its `unsafe` block, and a `# Safety` doc section from its `unsafe fn`.
const LOOKBACK: usize = 25;

fn main() -> ExitCode {
    let root = workspace_root();
    if std::env::args().any(|a| a == "--self-test") {
        return self_test(&root);
    }
    if std::env::args().any(|a| a == "--loc") {
        return report_loc(&root);
    }
    let mut findings = Vec::new();
    for rel in UNSAFE_ROOTS {
        for file in rust_files(&root.join(rel)) {
            scan_unsafe(&root, &file, &mut findings);
        }
    }
    for rel in KERNEL_CRATES {
        for file in rust_files(&root.join(rel)) {
            scan_unwrap(&root, &file, &mut findings);
        }
    }
    let mut spawn_sites = Vec::new();
    for rel in UNSAFE_ROOTS {
        let files = rust_files(&root.join(rel));
        scan_intrinsics(&root, &files, &mut findings);
        concurrency::scan(&root, &files, &mut findings);
        spawn_sites.extend(concurrency::scan_thread_spawn(&root, &files, &mut findings));
    }
    let read = |paths: Vec<PathBuf>| -> Vec<reach::File> {
        paths.iter().filter_map(|path| reach::File::read(&root, path)).collect()
    };
    let surface = read(source::surface_files(&root));
    let production =
        read(PRODUCTION_ROOTS.iter().flat_map(|rel| rust_files(&root.join(rel))).collect());
    let tests = read(test_files(&root));
    println!("spg-lint: building the production binaries (profile `reach`) to read their symbols");
    let linked = match reach::Linked::build(&root) {
        Ok(linked) => linked,
        Err(e) => {
            eprintln!("spg-lint: cannot read what production links: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seams = reach::scan_test_only(&surface, &production, &linked, &mut findings);
    reach::scan_untested_variants(&surface, &tests, &mut findings);
    println!(
        "spg-lint: {} thread-creation site(s) outside spg-sync, each excused:",
        spawn_sites.len()
    );
    for site in &spawn_sites {
        println!("    {site}");
    }
    println!("spg-lint: {} public item(s) only tests reach, each a marked seam:", seams.len());
    for seam in &seams {
        println!("    {seam}");
    }
    if findings.is_empty() {
        println!("spg-lint: ok");
        return ExitCode::SUCCESS;
    }
    for f in &findings {
        eprintln!("{f}");
    }
    eprintln!("spg-lint: {} finding(s)", findings.len());
    ExitCode::FAILURE
}

/// Prove the concurrency, intrinsics and reach passes still catch their
/// seeded fixture bugs.
fn self_test(root: &Path) -> ExitCode {
    let fixtures = root.join("tools/lint/fixtures");
    let files = rust_files(&fixtures);
    if files.is_empty() {
        eprintln!("spg-lint --self-test: no fixtures under {}", fixtures.display());
        return ExitCode::FAILURE;
    }
    let mut findings = Vec::new();
    scan_intrinsics(root, &files, &mut findings);
    concurrency::scan(root, &files, &mut findings);
    let excused = concurrency::scan_thread_spawn(root, &files, &mut findings);
    let parsed: Vec<reach::File> =
        files.iter().filter_map(|path| reach::File::read(root, path)).collect();
    let surface: Vec<reach::File> = files
        .iter()
        .filter(|path| path.ends_with("test_only.rs"))
        .filter_map(|path| reach::File::read(root, path))
        .collect();
    // What a build of the fixture's caller would link, so no build runs.
    let nm = std::fs::read_to_string(fixtures.join("test_only.nm")).unwrap_or_default();
    let linked = reach::Linked::parse(&nm);
    let seams = reach::scan_test_only(&surface, &parsed, &linked, &mut findings);
    reach::scan_untested_variants(&parsed, &[], &mut findings);
    let mut failures = Vec::new();
    if !excused.iter().any(|site| site.contains("thread_spawn.rs")) {
        failures.push("reasoned allow(thread-spawn) marker in thread_spawn.rs not honored".into());
    }
    if !seams.iter().any(|seam| seam.contains("test_only.rs") && seam.contains("Counter::count")) {
        failures.push("reasoned allow(test-only) marker in test_only.rs not honored".into());
    }
    for (fixture, needle) in [
        ("lock_cycle.rs", "lock-order cycle"),
        ("blocking_under_lock.rs", "blocking on another thread"),
        ("thread_spawn.rs", "outside spg-sync"),
        ("intrinsics.rs", "outside spg-gemm's simd module"),
        ("test_only.rs", "Counter::reset`: no production binary links it"),
        ("test_only.rs", "Counter::hits`: no production binary links it"),
        ("test_only.rs", "Queue::peek`: no production binary links it"),
        ("untested_variant.rs", "`FixtureError::TooLong` is neither constructed"),
    ] {
        if !findings.iter().any(|f| f.contains(fixture) && f.contains(needle)) {
            failures.push(format!("seeded bug in {fixture} not caught (wanted: {needle})"));
        }
    }
    // What the fixtures hold that no pass may report: the clean file, the
    // linked methods, `len`'s pair, a used type, a tested variant.
    let clean = [
        "clean.rs",
        "Counter::hit`",
        "Counter::len`",
        "Counter::is_empty`",
        "Gauge::reset`",
        "Queue::pop`",
        "struct Counter",
        "FixtureError::Empty",
    ];
    for f in findings.iter().filter(|f| clean.iter().any(|needle| f.contains(needle))) {
        failures.push(format!("false positive on a fixture: {f}"));
    }
    if failures.is_empty() {
        println!("spg-lint --self-test: ok ({} fixture finding(s) as expected)", findings.len());
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("spg-lint --self-test: {f}");
    }
    ExitCode::FAILURE
}

/// Prints non-test source lines per crate (`crates/*/src`, then the facade's
/// `src/`) and in total.
fn report_loc(root: &Path) -> ExitCode {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|entries| entries.flatten().map(|e| e.path().join("src")).collect())
        .unwrap_or_default();
    crates.sort();
    crates.push(root.join("src"));
    let mut total = 0;
    for src in crates {
        let lines: usize = rust_files(&src)
            .iter()
            .filter_map(|file| std::fs::read_to_string(file).ok())
            .map(|text| source_lines(&text))
            .sum();
        println!("{lines:>7}  {}", src.strip_prefix(root).unwrap_or(&src).display());
        total += lines;
    }
    println!("{total:>7}  total (non-blank, non-comment, outside test items)");
    ExitCode::SUCCESS
}

/// Lines of `text` outside its test items that carry code: not blank and
/// not a whole-line `//` comment (doc comments included).
fn source_lines(text: &str) -> usize {
    let (lines, _, test) = lexed(text);
    let code = |line: &&str| !line.trim().is_empty() && !line.trim_start().starts_with("//");
    lines.iter().zip(test).filter(|(line, test)| !test && code(line)).count()
}

/// The workspace root: the directory holding the top-level Cargo.toml, found
/// by walking up from this binary's manifest directory.
fn workspace_root() -> PathBuf {
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("Cargo.lock").exists() {
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
    dir
}

/// All `.rs` files under `dir`, recursively, excluding test-only trees.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "tests" || name == "target" {
                continue;
            }
            out.extend(rust_files(&path));
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// Every `.rs` file of the root `tests/` and of each crate's `tests/`.
fn test_files(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .map(|entries| entries.flatten().map(|e| e.path().join("tests")).collect())
        .unwrap_or_default();
    dirs.sort();
    dirs.insert(0, root.join("tests"));
    dirs.iter().flat_map(|dir| rust_files(dir)).collect()
}

/// A file's lines as written and as code (see [`source::code_lines`]),
/// and whether each is test code.
fn lexed(text: &str) -> (Vec<&str>, Vec<String>, Vec<bool>) {
    let code = source::code_lines(text);
    let test = source::test_lines(&code);
    (text.lines().collect(), code, test)
}

/// Whether any of the `LOOKBACK` lines before `idx` carries the marker,
/// stopping at the first blank line outside a comment/attribute run.
fn lookback_contains(lines: &[&str], idx: usize, markers: &[&str]) -> bool {
    lines[..idx].iter().rev().take(LOOKBACK).any(|l| markers.iter().any(|m| l.contains(m)))
}

fn scan_unsafe(root: &Path, file: &Path, findings: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(file) else {
        return;
    };
    let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
    let (lines, code, test) = lexed(&text);
    for (i, line) in lines.iter().enumerate() {
        let code = &code[i];
        if test[i] {
            continue;
        }
        // `unsafe fn` declarations need a `# Safety` doc section.
        if code.contains("unsafe fn") {
            if !lookback_contains(&lines, i, &["# Safety", "// SAFETY:"]) {
                findings
                    .push(format!("{rel}:{}: `unsafe fn` without a `# Safety` doc section", i + 1));
            }
            continue;
        }
        // `unsafe` block openers need a `// SAFETY:` comment just above
        // (or trailing on the same line).
        if code.contains("unsafe {") || code.trim_end().ends_with("unsafe") {
            let same_line = line.contains("// SAFETY:");
            if !same_line && !lookback_contains(&lines, i, &["// SAFETY:"]) {
                findings.push(format!(
                    "{rel}:{}: `unsafe` block without a `// SAFETY:` comment",
                    i + 1
                ));
            }
        }
    }
}

fn scan_unwrap(root: &Path, file: &Path, findings: &mut Vec<String>) {
    let Ok(text) = std::fs::read_to_string(file) else {
        return;
    };
    let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
    let (_, code, test) = lexed(&text);
    for (i, code) in code.iter().enumerate().filter(|&(i, _)| !test[i]) {
        for needle in [".unwrap()", ".expect("] {
            if code.contains(needle) {
                findings.push(format!(
                    "{rel}:{}: raw `{needle}` in kernel crate non-test code \
                     (return a typed error or use an infallible construction)",
                    i + 1
                ));
            }
        }
    }
}

/// Intrinsics pass over `files`: appends a finding per line outside
/// [`SIMD_MODULE`] and its test region whose code names one of
/// [`INTRINSICS`].
fn scan_intrinsics(root: &Path, files: &[PathBuf], findings: &mut Vec<String>) {
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
        if rel == SIMD_MODULE {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        findings.extend(intrinsic_uses(&rel, &text));
    }
}

/// The intrinsics findings of one file's `text`.
fn intrinsic_uses(rel: &str, text: &str) -> Vec<String> {
    let (_, code, test) = lexed(text);
    code.iter()
        .enumerate()
        .filter(|&(i, _)| !test[i])
        .filter_map(|(i, code)| {
            let name = INTRINSICS.iter().find(|name| code.contains(*name))?;
            Some(format!(
                "{rel}:{}: `{name}` outside spg-gemm's simd module — spell the kernel \
                 over `spg_gemm::simd::Vector` and add what it lacks to the vocabulary",
                i + 1
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_lines_blank_comments_and_literals() {
        let code = source::code_lines(
            "let x = 1; // .unwrap()\n/* a { */ let s = \"{ // }\";\nlet c = '{'; let r = r#\"}\"#;",
        );
        assert_eq!(code[0], "let x = 1;             ");
        assert_eq!(code[1], "          let s = \"      \";");
        assert_eq!(code[2], "let c = ' '; let r = r#\" \"#;");
    }

    #[test]
    fn test_items_end_where_their_braces_close() {
        let text = "fn a() {}\n#[cfg(test)]\nfn helper() {\n}\nfn b() {\n    #[cfg(test)]\n    \
                    COUNT.with(|n| n.set(1));\n    work();\n}\n#[cfg(test)]\nmod tests {}\n";
        let test = source::test_lines(&source::code_lines(text));
        let expected = [false, true, true, true, false, true, true, false, false, true, true];
        assert_eq!(test, expected);
    }

    #[test]
    fn source_lines_skip_blanks_comments_and_test_items() {
        let text =
            "//! docs\n\nuse a::b; // trailing\n/// doc\nfn f() {}\n#[cfg(test)]\nfn t() {}\n\
                    fn g() {}\n\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(source_lines(text), 3);
    }

    #[test]
    fn intrinsics_are_found_in_code_only() {
        let text = [
            "//! Docs may say std::arch.",
            "use std::arch::x86_64::__m256;",
            "let v = _mm512_setzero_ps(); // and _mm256_ in a comment",
            "let ok = 1; // _mm256_add_ps",
            "#[cfg(test)]",
            "fn t() { core::arch::x86_64::_mm256_setzero_ps(); }",
        ]
        .join("\n");
        let found = intrinsic_uses("k.rs", &text);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("k.rs:2: `std::arch`"), "{found:?}");
        assert!(found[1].starts_with("k.rs:3: `_mm512_`"), "{found:?}");
    }

    #[test]
    fn test_only_functions_are_judged_by_the_linker() {
        let lib = || {
            reach::File::parse(
                "lib.rs",
                "k",
                "pub struct A;\nimpl A {\n    pub fn used(&self) {}\n    pub fn dead() {}\n    \
             pub fn seam() {} // lint: allow(test-only) drives the check\n    \
             pub fn len(&self) -> usize { 0 }\n    pub fn is_empty(&self) -> bool { true }\n}\n\
             pub struct B;\nimpl B {\n    pub fn used() {}\n    \
             pub fn is_empty(&self) -> bool { true }\n}\n\
             pub fn free() {}\n",
            )
        };
        let main = reach::File::parse("main.rs", "main", "fn main() { A.used(); B::used(); }\n");
        // `B::used` is linked; `A::used` only by name on another type.
        let nm = "1 T k::A::len\n2 t k::B::used\n3 t other::A::used\n4 t k::m::free::{{closure}}\n";
        let mut findings = Vec::new();
        let seams = reach::scan_test_only(
            &[lib()],
            &[lib(), main],
            &reach::Linked::parse(nm),
            &mut findings,
        );
        assert_eq!(seams, ["lib.rs:5: A::seam: drives the check"]);
        assert_eq!(findings.len(), 3, "{findings:?}");
        assert!(findings[0].starts_with("lib.rs:3: `pub fn A::used`"), "{findings:?}");
        assert!(findings[1].starts_with("lib.rs:4: `pub fn A::dead`"), "{findings:?}");
        assert!(findings[2].starts_with("lib.rs:12: `pub fn B::is_empty`"), "{findings:?}");
    }

    #[test]
    fn types_count_from_linked_bodies_only() {
        let lib = || {
            reach::File::parse(
                "lib.rs",
                "k",
                "pub struct Used;\npub struct Dead;\npub const LIMIT: u8 = 1;\n\
                 pub fn live() -> u8 { LIMIT }\npub fn dead() -> Dead { Dead }\n",
            )
        };
        let main = reach::File::parse("main.rs", "main", "fn main(u: Used) { live(); }\n");
        let mut findings = Vec::new();
        let linked = reach::Linked::parse("1 t k::live\n");
        reach::scan_test_only(&[lib()], &[lib(), main], &linked, &mut findings);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].starts_with("lib.rs:2: `pub struct Dead`"), "{findings:?}");
        assert!(findings[1].starts_with("lib.rs:5: `pub fn dead`"), "{findings:?}");
    }

    #[test]
    fn untested_variants_are_found_by_name() {
        let lib = reach::File::parse(
            "lib.rs",
            "k",
            "pub enum KError {\n    Tested,\n    Imported { at: usize },\n    Untested(u8),\n}\n\
             pub enum Kind {\n    Other,\n}\n",
        );
        let test = reach::File::parse(
            "tests/t.rs",
            "t",
            "use lib::KError::*;\nfn t() { let _ = KError::Tested; let _ = Imported { at: 1 }; }\n",
        );
        let mut findings = Vec::new();
        reach::scan_untested_variants(&[lib], &[test], &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].starts_with("lib.rs:4: `KError::Untested`"), "{findings:?}");
    }

    #[test]
    fn lookback_finds_marker() {
        let lines = vec!["// SAFETY: fine", "unsafe {"];
        assert!(lookback_contains(&lines, 1, &["// SAFETY:"]));
        assert!(!lookback_contains(&lines, 0, &["// SAFETY:"]));
    }
}
