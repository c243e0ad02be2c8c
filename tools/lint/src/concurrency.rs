//! Concurrency lints: lock-order cycles, blocking-under-lock, thread-spawn.
//!
//! Like the rest of `spg-lint` this is a conservative line scanner
//! (offline build, no `syn`), tuned to the workspace's conventions:
//! every lock acquisition goes through the `spg_sync` helpers (`lock`,
//! `read`, `write`) or the serve crate's `sync_prims` re-exports, so a
//! call site is textually recognizable, and the lock's *identity* is
//! the normalized argument expression (`lock(&self.state)` →
//! `self.state`).
//!
//! **Lock-order pass.** Tracks `let`-bound guards with a brace-depth
//! scanner; while a guard is live, acquiring a second lock adds a
//! directed edge `first → second` to a per-file acquisition graph. A
//! cycle in that graph — including a self-edge, re-locking a lock the
//! scope already holds — is the classic ABBA deadlock shape and is
//! reported with both acquisition sites. Graphs are per-file because
//! lock identities are textual: the same field path in two files names
//! two different locks.
//!
//! **Blocking-under-lock pass.** While a guard is live, calls that can
//! block indefinitely on *another* thread's progress — channel
//! `recv`/`send`, `join`, `sleep` — are flagged: they hold the lock
//! across a dependency on someone who may need that very lock.
//! Condvar `wait`/`wait_timeout` are exempt (they release the guard),
//! and a rebinding through them keeps the guard tracked.
//!
//! **Thread-spawn pass.** Thread creation belongs to `spg-sync`:
//! `fork_join` for fan-outs, `supervise` inside the few long-lived
//! service threads. Any `thread::scope`, `thread::spawn` or
//! `thread::Builder` elsewhere (outside `spg-race`, which models
//! threads, and test code) is a finding unless it carries a
//! `// lint: allow(thread-spawn) <reason>` marker with the reason
//! spelled out — so the count of thread-creation idioms in the tree is
//! a number this tool prints, not a grep someone has to remember.
//!
//! All passes honor a trailing or preceding
//! `// lint: allow(lock-order)` / `// lint: allow(blocking-under-lock)` /
//! `// lint: allow(thread-spawn)` marker for the rare justified
//! exception.

use std::collections::HashMap;
use std::path::Path;

/// A lock guard currently live in the scanned scope.
struct LiveGuard {
    var: String,
    lock: String,
    depth: i32,
    line: usize,
}

/// One `first-held → then-acquired` observation.
#[derive(Clone)]
struct Edge {
    from: String,
    to: String,
    site: String,
}

/// Calls that block on another thread's progress. `.send(` is included
/// because the workspace's channels are bounded (`BoundedQueue`,
/// `mpsc::sync_channel`): a send can park until a consumer runs.
const BLOCKING: &[&str] =
    &[".recv()", ".recv_timeout(", ".recv_deadline(", ".join()", ".send(", "thread::sleep("];

/// Scan one file: emit blocking-under-lock findings into `findings`
/// and return the file's lock acquisition edges for cycle detection.
fn scan_file(rel: &str, text: &str) -> (Vec<Edge>, Vec<String>) {
    let mut edges = Vec::new();
    let mut findings = Vec::new();
    let mut live: Vec<LiveGuard> = Vec::new();
    let mut depth: i32 = 0;
    // Lexed from the text itself: both sides split it into the same lines,
    // a trailing blank one included.
    let lines: Vec<&str> = text.lines().collect();
    let code_lines = crate::source::code_lines(text);
    let test = crate::source::test_lines(&code_lines);
    for (i, raw) in lines.iter().enumerate() {
        if test[i] {
            continue;
        }
        let code = code_lines[i].as_str();
        let allowed = |pass: &str| {
            let marker = format!("lint: allow({pass})");
            raw.contains(&marker) || (i > 0 && lines[i - 1].contains(&marker))
        };

        // Guard deaths before this line's acquisitions: explicit drop.
        if let Some(var) = call_arg(code, "drop(") {
            live.retain(|g| g.var != var);
        }

        if let Some(acq) = acquisition(code) {
            if let Some(bound) = let_binding(code) {
                for g in &live {
                    let edge = Edge {
                        from: g.lock.clone(),
                        to: acq.clone(),
                        site: format!(
                            "{rel}:{}: `{}` acquired while `{}` held (since line {})",
                            i + 1,
                            acq,
                            g.lock,
                            g.line
                        ),
                    };
                    if edge.from == edge.to && !edge.from.contains('[') && !allowed("lock-order") {
                        findings.push(format!(
                            "{rel}:{}: relocking `{}` while its guard `{}` (line {}) is still \
                             live — self-deadlock",
                            i + 1,
                            acq,
                            g.var,
                            g.line
                        ));
                    }
                    edges.push(edge);
                }
                live.push(LiveGuard { var: bound, lock: acq, depth, line: i + 1 });
            } else {
                // Temporary guard (`lock(&x).field`): dies at end of
                // statement; still ordered against live guards.
                for g in &live {
                    edges.push(Edge {
                        from: g.lock.clone(),
                        to: acq.clone(),
                        site: format!(
                            "{rel}:{}: `{}` acquired while `{}` held (since line {})",
                            i + 1,
                            acq,
                            g.lock,
                            g.line
                        ),
                    });
                }
            }
        } else if !live.is_empty() && !code.contains("wait(") && !code.contains("wait_timeout(") {
            for needle in BLOCKING {
                if code.contains(needle) && !allowed("blocking-under-lock") {
                    let held: Vec<&str> = live.iter().map(|g| g.lock.as_str()).collect();
                    findings.push(format!(
                        "{rel}:{}: `{}` while holding {:?} — blocking on another thread's \
                         progress under a lock invites deadlock; drop the guard first \
                         (condvar `wait` is the sanctioned way to sleep holding one)",
                        i + 1,
                        needle.trim_start_matches('.'),
                        held
                    ));
                }
            }
        }

        // Brace tracking: apply the line's net depth change, then kill
        // guards whose declaring scope has closed.
        let (opens, closes) = brace_delta(code);
        depth += opens - closes;
        live.retain(|g| g.depth <= depth);
    }
    (edges, findings)
}

/// Run both passes over `files`, appending findings.
pub fn scan(root: &Path, files: &[std::path::PathBuf], findings: &mut Vec<String>) {
    for file in files {
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
        let (edges, file_findings) = scan_file(&rel, &text);
        findings.extend(file_findings);
        findings.extend(find_cycles(&edges));
    }
}

/// Source trees that own thread creation: the worker runtime itself and
/// the model checker's thread model.
const THREAD_OWNERS: &[&str] = &["crates/sync/src", "crates/race/src"];

/// The thread-creation idioms of `std`.
const THREAD_CREATION: &[&str] = &["thread::scope", "thread::spawn", "thread::Builder"];

/// Thread-spawn pass over `files`: appends a finding per unexcused
/// thread-creation site outside [`THREAD_OWNERS`] and returns the
/// excused sites (`file:line: reason`).
pub fn scan_thread_spawn(
    root: &Path,
    files: &[std::path::PathBuf],
    findings: &mut Vec<String>,
) -> Vec<String> {
    const MARKER: &str = "lint: allow(thread-spawn)";
    let mut allowed = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(file).display().to_string();
        if THREAD_OWNERS.iter().any(|owner| rel.starts_with(owner)) {
            continue;
        }
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        let (lines, code, test) = super::lexed(&text);
        for (i, raw) in lines.iter().enumerate() {
            if test[i] {
                continue;
            }
            let code = code[i].as_str();
            let Some(idiom) = THREAD_CREATION.iter().find(|idiom| code.contains(*idiom)) else {
                continue;
            };
            let reason = [*raw, if i > 0 { lines[i - 1] } else { "" }]
                .iter()
                .find_map(|l| l.split_once(MARKER))
                .map(|(_, reason)| reason.trim());
            match reason {
                Some(reason) if !reason.is_empty() => {
                    allowed.push(format!("{rel}:{}: {reason}", i + 1));
                }
                _ => findings.push(format!(
                    "{rel}:{}: `{idiom}` outside spg-sync — fan out through \
                     `spg_sync::fork_join`, or mark a long-lived service thread with \
                     `// {MARKER} <reason>`",
                    i + 1
                )),
            }
        }
    }
    allowed
}

/// Detect cycles in one file's acquisition graph and describe them.
fn find_cycles(edges: &[Edge]) -> Vec<String> {
    let mut adj: HashMap<&str, Vec<&Edge>> = HashMap::new();
    for e in edges {
        if e.from != e.to {
            adj.entry(&e.from).or_default().push(e);
        }
    }
    let mut out = Vec::new();
    let mut nodes: Vec<&str> = adj.keys().copied().collect();
    nodes.sort_unstable();
    // DFS from every node; a back edge to the start node is a cycle.
    // Graphs here are tiny (a handful of locks per file), so the
    // repeated walks cost nothing.
    for start in nodes {
        let mut stack: Vec<(&str, Vec<&Edge>)> = vec![(start, Vec::new())];
        let mut seen = vec![start.to_string()];
        while let Some((node, path)) = stack.pop() {
            for e in adj.get(node).into_iter().flatten() {
                let mut path = path.clone();
                path.push(e);
                if e.to == start {
                    // Report each cycle once, from its lexicographically
                    // smallest node.
                    if path.iter().all(|e| e.from.as_str() >= start) {
                        let sites: Vec<&str> = path.iter().map(|e| e.site.as_str()).collect();
                        out.push(format!(
                            "lock-order cycle through `{start}`:\n    {}",
                            sites.join("\n    ")
                        ));
                    }
                } else if !seen.contains(&e.to) {
                    seen.push(e.to.clone());
                    stack.push((e.to.as_str(), path));
                }
            }
        }
    }
    out
}

/// If this line acquires a lock through a recognized helper, return the
/// normalized lock expression.
fn acquisition(code: &str) -> Option<String> {
    for helper in ["lock(", "read(", "write("] {
        let mut from = 0;
        while let Some(pos) = code[from..].find(helper) {
            let at = from + pos;
            if word_boundary(code, at) {
                let arg = first_arg(&code[at + helper.len()..])?;
                return Some(normalize(arg));
            }
            from = at + helper.len();
        }
    }
    None
}

/// A call site only counts when the helper name stands alone: not a
/// method call (`.lock(`), not a suffix of another identifier, and not
/// a generic definition (`lock::<`).
fn word_boundary(code: &str, at: usize) -> bool {
    match code[..at].chars().next_back() {
        None => true,
        Some(c) => !(c.is_alphanumeric() || c == '_' || c == '.'),
    }
}

/// The first top-level argument of a call, given the text after `(`.
fn first_arg(rest: &str) -> Option<&str> {
    let mut paren = 0i32;
    let mut bracket = 0i32;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => paren += 1,
            '[' => bracket += 1,
            ']' => bracket -= 1,
            ')' if paren == 0 => return Some(&rest[..i]),
            ')' => paren -= 1,
            ',' if paren == 0 && bracket == 0 => return Some(&rest[..i]),
            _ => {}
        }
    }
    None
}

/// Normalize a lock expression into an identity: strip borrows and
/// whitespace so `&net_lock` and `net_lock` are the same lock.
fn normalize(expr: &str) -> String {
    expr.trim().trim_start_matches('&').trim_start_matches("mut ").trim().to_string()
}

/// If the line `let`-binds the acquisition *itself*, the bound variable
/// name. The right-hand side must start with the helper call (modulo a
/// path prefix): `let exited = match lock(&x).as_mut() { … }` binds the
/// match result, not a guard — the guard there is a temporary that dies
/// at the end of the statement.
fn let_binding(code: &str) -> Option<String> {
    let t = code.trim_start();
    let rest = t.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    if name.is_empty() {
        return None;
    }
    let rhs = rest[name.len()..].trim_start().strip_prefix('=')?.trim_start();
    let is_acquisition = ["lock(", "read(", "write(", "spg_sync::", "sync_prims::"]
        .iter()
        .any(|p| rhs.starts_with(p));
    if is_acquisition {
        Some(name)
    } else {
        None
    }
}

/// `drop(x)`: the dropped variable, if the line is a plain drop call.
fn call_arg(code: &str, call: &str) -> Option<String> {
    let at = code.find(call)?;
    if !word_boundary(code, at) {
        return None;
    }
    let rest = &code[at + call.len()..];
    let end = rest.find(')')?;
    let arg = rest[..end].trim();
    if arg.chars().all(|c| c.is_alphanumeric() || c == '_') && !arg.is_empty() {
        Some(arg.to_string())
    } else {
        None
    }
}

/// Net `{` and `}` counts of a line of code (literals already blanked).
fn brace_delta(code: &str) -> (i32, i32) {
    let opens = i32::try_from(code.matches('{').count()).unwrap_or(0);
    let closes = i32::try_from(code.matches('}').count()).unwrap_or(0);
    (opens, closes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquisition_recognizes_helpers_not_methods() {
        assert_eq!(acquisition("let g = lock(&self.state);"), Some("self.state".into()));
        assert_eq!(acquisition("let n = spg_sync::read(net_lock);"), Some("net_lock".into()));
        assert_eq!(acquisition("let g = m.lock().unwrap();"), None);
        assert_eq!(acquisition("file.read(&mut buf);"), None);
    }

    #[test]
    fn let_binding_extracts_variable() {
        assert_eq!(let_binding("let mut st = lock(&x);"), Some("st".into()));
        assert_eq!(let_binding("let st = lock(&x);"), Some("st".into()));
        assert_eq!(let_binding("let n = spg_sync::read(net_lock);"), Some("n".into()));
        assert_eq!(let_binding("st = wait(&cv, st);"), None);
        // Binds the match result, not the guard: the guard is a
        // temporary that dies with the statement.
        assert_eq!(let_binding("let exited = match lock(&x).as_mut() {"), None);
    }

    #[test]
    fn abba_cycle_is_found() {
        let lines: Vec<&str> = vec![
            "fn a(x: &M, y: &M) {",
            "    let gx = lock(x);",
            "    let gy = lock(y);",
            "}",
            "fn b(x: &M, y: &M) {",
            "    let gy = lock(y);",
            "    let gx = lock(x);",
            "}",
        ];
        let (edges, findings) = scan_file("f.rs", &lines.join("\n"));
        assert!(findings.is_empty(), "{findings:?}");
        let cycles = find_cycles(&edges);
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].contains("lock-order cycle"), "{cycles:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let lines: Vec<&str> = vec![
            "fn a(x: &M, y: &M) {",
            "    let gx = lock(x);",
            "    let gy = lock(y);",
            "}",
            "fn b(x: &M, y: &M) {",
            "    let gx = lock(x);",
            "    let gy = lock(y);",
            "}",
        ];
        let (edges, findings) = scan_file("f.rs", &lines.join("\n"));
        assert!(findings.is_empty());
        assert!(find_cycles(&edges).is_empty());
    }

    #[test]
    fn blocking_under_live_guard_is_flagged() {
        let lines: Vec<&str> = vec![
            "fn a(x: &M, rx: &Receiver<u32>) {",
            "    let g = lock(x);",
            "    let v = rx.recv();",
            "}",
        ];
        let (_, findings) = scan_file("f.rs", &lines.join("\n"));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("recv()"), "{findings:?}");
    }

    #[test]
    fn wait_and_dropped_guard_are_exempt() {
        let lines: Vec<&str> = vec![
            "fn a(x: &M, cv: &Condvar, rx: &Receiver<u32>) {",
            "    let mut g = lock(x);",
            "    g = wait(cv, g);",
            "    drop(g);",
            "    let v = rx.recv();",
            "}",
        ];
        let (_, findings) = scan_file("f.rs", &lines.join("\n"));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn scope_close_ends_guard() {
        let lines: Vec<&str> = vec![
            "fn a(x: &M, rx: &Receiver<u32>) {",
            "    {",
            "        let g = lock(x);",
            "    }",
            "    let v = rx.recv();",
            "}",
        ];
        let (_, findings) = scan_file("f.rs", &lines.join("\n"));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn allow_marker_suppresses() {
        let lines: Vec<&str> = vec![
            "fn a(x: &M, rx: &Receiver<u32>) {",
            "    let g = lock(x);",
            "    // lint: allow(blocking-under-lock)",
            "    let v = rx.recv();",
            "}",
        ];
        let (_, findings) = scan_file("f.rs", &lines.join("\n"));
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn thread_creation_needs_a_reasoned_marker() {
        let dir = std::env::temp_dir().join(format!("spg-lint-spawn-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("crates/sync/src")).unwrap();
        let write = |rel: &str, text: &str| {
            let path = dir.join(rel);
            std::fs::write(&path, text).unwrap();
            path
        };
        let files = [
            write("a.rs", "fn f() {\n    std::thread::spawn(|| ());\n}\n"),
            write("b.rs", "// lint: allow(thread-spawn)\nstd::thread::scope(|s| ());\n"),
            write("c.rs", "// lint: allow(thread-spawn) service thread\nthread::Builder::new();\n"),
            write("d.rs", "#[cfg(test)]\nmod tests { fn t() { std::thread::spawn(|| ()); } }\n"),
            write("crates/sync/src/e.rs", "fn f() { std::thread::scope(|s| ()); }\n"),
        ];
        let mut findings = Vec::new();
        let allowed = scan_thread_spawn(&dir, &files, &mut findings);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].starts_with("a.rs:2:"), "{findings:?}");
        assert!(findings[1].starts_with("b.rs:2:"), "a bare marker gives no reason: {findings:?}");
        assert_eq!(allowed, ["c.rs:2: service thread"]);
    }

    #[test]
    fn a_file_ending_in_a_blank_line_scans() {
        let (edges, findings) = scan_file("f.rs", "fn a(x: &M) {\n    let g = lock(x);\n}\n\n");
        assert!(edges.is_empty() && findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn relock_is_a_self_deadlock() {
        let lines: Vec<&str> =
            vec!["fn a(x: &M) {", "    let g = lock(x);", "    let h = lock(x);", "}"];
        let (_, findings) = scan_file("f.rs", &lines.join("\n"));
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("self-deadlock"), "{findings:?}");
    }
}
