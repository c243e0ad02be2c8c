//! Public-API snapshot test: the textual API surface of every workspace
//! crate is checked into `api-surface.txt` and diffed here, so any change
//! to the public surface (a new item, a removed item, a changed
//! signature) shows up as an explicit, reviewable diff in the PR.
//!
//! Regenerate the snapshot after an intentional API change with
//! `tools/api_surface.sh` (or `BLESS=1 cargo test --test api_surface`).

use std::fmt::Write as _;
use std::path::Path;

/// The linter's reading of a source file: what is code, what is test code
/// and what is public. Shared so that `spg-lint`'s test-only pass judges
/// exactly the items this snapshot lists.
#[path = "../tools/lint/src/source.rs"]
mod source;

#[test]
fn public_api_surface_matches_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = source::surface_files(root);

    let mut out = String::new();
    writeln!(out, "# Public API surface of the spg-cnn workspace.").unwrap();
    writeln!(out, "# Generated by tests/api_surface.rs; regenerate with tools/api_surface.sh")
        .unwrap();
    writeln!(out, "# after an intentional API change.").unwrap();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .expect("file under workspace root")
            .display()
            .to_string()
            .replace('\\', "/");
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let surface = source::surface(&text);
        if surface.is_empty() {
            continue;
        }
        writeln!(out, "\n[{rel}]").unwrap();
        for (_, line) in surface {
            writeln!(out, "{line}").unwrap();
        }
    }

    // The benchmark harness (`benchmark/src`, a separate workspace this
    // suite does not build) spells these names; removing one breaks it.
    // Checked against the *generated* surface, so even a BLESS run cannot
    // silently drop them.
    for anchor in [
        "pub trait Backend",
        "pub struct ConvDescriptor",
        "pub struct CpuBackend",
        "pub fn algo_for",
        "pub struct SimBackend",
        "pub struct AlgoChoice",
        "pub fn train_in_proc(",
        "pub struct InProcTrainOptions",
        "pub enum AllReduce",
        "pub fn ring_allreduce(",
        "pub struct RingLink",
        "pub struct SampleGrad",
        "pub fn crc32(",
        "pub fn encode_frame(",
        "pub fn decode_frame(",
    ] {
        assert!(
            out.contains(anchor),
            "an item the benchmark harness spells vanished from the public surface: {anchor}"
        );
    }

    // Cluster failures unify into `spg_error::Error` through this typed
    // error, so it stays public.
    assert!(
        out.contains("pub enum ClusterError"),
        "cluster API item vanished from the public surface: pub enum ClusterError"
    );

    let snapshot_path = root.join("api-surface.txt");
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&snapshot_path, &out).expect("write api-surface.txt");
        return;
    }
    let expected = std::fs::read_to_string(&snapshot_path)
        .expect("api-surface.txt is checked in; run tools/api_surface.sh (BLESS=1) to create it");
    if expected != out {
        let mut diff = String::new();
        for (i, (e, g)) in expected.lines().zip(out.lines()).enumerate() {
            if e != g {
                writeln!(diff, "line {}:\n  snapshot: {e}\n  current : {g}", i + 1).unwrap();
                break;
            }
        }
        let (el, gl) = (expected.lines().count(), out.lines().count());
        if el != gl {
            writeln!(diff, "snapshot has {el} lines, current surface has {gl}").unwrap();
        }
        panic!(
            "public API surface changed — if intentional, regenerate the snapshot with \
             tools/api_surface.sh and commit it.\nfirst difference:\n{diff}"
        );
    }
}
