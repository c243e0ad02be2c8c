//! Workspace hygiene lint, run by CI.
//!
//! Six passes over the workspace sources (no external parser — the build
//! environment is offline, so this is a deliberately conservative line
//! scanner rather than a `syn` AST walk):
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
//!
//! Test code is exempt: files under `tests/`, and everything
//! from a line containing `#[cfg(test)]` to the end of the file (the
//! workspace convention keeps test modules trailing).
//!
//! `spg-lint --self-test` runs the concurrency and intrinsics passes over
//! the seeded fixtures in `tools/lint/fixtures/` and fails unless each
//! planted bug is found and the clean fixture stays clean — a liveness check for
//! the linter itself, run by CI next to the real pass.
//!
//! `spg-lint --loc` prints the non-test source size — per crate and in
//! total, the non-blank non-comment lines of `crates/*/src` and `src/`
//! outside the test regions above — so "this PR removed N lines" is one
//! method, not one per author. It reports; it gates nothing.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod concurrency;

/// Crates whose non-test code must be free of raw `.unwrap()` / `.expect(`.
const KERNEL_CRATES: &[&str] = &["crates/codegen/src", "crates/core/src", "crates/gemm/src"];

/// Source roots scanned for undocumented `unsafe`.
const UNSAFE_ROOTS: &[&str] = &["crates", "src"];

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
    println!(
        "spg-lint: {} thread-creation site(s) outside spg-sync, each excused:",
        spawn_sites.len()
    );
    for site in &spawn_sites {
        println!("    {site}");
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

/// Prove the concurrency and intrinsics passes still catch their seeded
/// fixture bugs.
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
    let mut failures = Vec::new();
    if !excused.iter().any(|site| site.contains("thread_spawn.rs")) {
        failures.push("reasoned allow(thread-spawn) marker in thread_spawn.rs not honored".into());
    }
    for (fixture, needle) in [
        ("lock_cycle.rs", "lock-order cycle"),
        ("blocking_under_lock.rs", "blocking on another thread"),
        ("thread_spawn.rs", "outside spg-sync"),
        ("intrinsics.rs", "outside spg-gemm's simd module"),
    ] {
        if !findings.iter().any(|f| f.contains(fixture) && f.contains(needle)) {
            failures.push(format!("seeded bug in {fixture} not caught (wanted: {needle})"));
        }
    }
    for f in findings.iter().filter(|f| f.contains("clean.rs")) {
        failures.push(format!("false positive on the clean fixture: {f}"));
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
    println!("{total:>7}  total (non-blank, non-comment, outside test regions)");
    ExitCode::SUCCESS
}

/// Lines of `text` before its test region that carry code: not blank and
/// not a whole-line `//` comment (doc comments included).
fn source_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !opens_test_region(line))
        .filter(|line| !code_part(line).trim().is_empty())
        .count()
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

/// The code portion of a line: strips `//` comments (except inside strings,
/// approximated by requiring the `//` not be preceded by `"` on the line —
/// good enough for this workspace, which is rustfmt-formatted).
fn code_part(line: &str) -> &str {
    match line.find("//") {
        Some(idx) if !line[..idx].contains('"') => &line[..idx],
        _ => line,
    }
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
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let code = code_part(line);
        if in_test_region(&lines, i) {
            break;
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
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if in_test_region(&lines, i) {
            break;
        }
        let code = code_part(line);
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
        let lines: Vec<&str> = text.lines().collect();
        findings.extend(intrinsic_uses(&rel, &lines));
    }
}

/// The intrinsics findings of one file's `lines`.
fn intrinsic_uses(rel: &str, lines: &[&str]) -> Vec<String> {
    let code = lines.iter().map(|l| code_part(l)).take_while(|l| !opens_test_region(l));
    code.enumerate()
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

/// Whether `line` opens the file's trailing `#[cfg(test)]` module.
fn opens_test_region(line: &str) -> bool {
    line.trim_start().starts_with("#[cfg(test)]")
}

/// Whether line `idx` is at or past the file's trailing `#[cfg(test)]` module.
fn in_test_region(lines: &[&str], idx: usize) -> bool {
    lines[..=idx].iter().any(|l| opens_test_region(l))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_part_strips_comments() {
        assert_eq!(code_part("let x = 1; // .unwrap()"), "let x = 1; ");
        assert_eq!(code_part("// all comment"), "");
    }

    #[test]
    fn source_lines_skip_blanks_comments_and_the_test_region() {
        let text =
            "//! docs\n\nuse a::b; // trailing\n/// doc\nfn f() {}\n\n#[cfg(test)]\nmod tests {}\n";
        assert_eq!(source_lines(text), 2);
    }

    #[test]
    fn intrinsics_are_found_in_code_only() {
        let lines = vec![
            "//! Docs may say std::arch.",
            "use std::arch::x86_64::__m256;",
            "let v = _mm512_setzero_ps(); // and _mm256_ in a comment",
            "let ok = 1; // _mm256_add_ps",
            "#[cfg(test)]",
            "fn t() { core::arch::x86_64::_mm256_setzero_ps(); }",
        ];
        let found = intrinsic_uses("k.rs", &lines);
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found[0].starts_with("k.rs:2: `std::arch`"), "{found:?}");
        assert!(found[1].starts_with("k.rs:3: `_mm512_`"), "{found:?}");
    }

    #[test]
    fn lookback_finds_marker() {
        let lines = vec!["// SAFETY: fine", "unsafe {"];
        assert!(lookback_contains(&lines, 1, &["// SAFETY:"]));
        assert!(!lookback_contains(&lines, 0, &["// SAFETY:"]));
    }
}
