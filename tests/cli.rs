//! Integration tests driving the `spgcnn` command-line binary end to end.

use std::process::Command;

fn spgcnn(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_spgcnn"))
        .args(args)
        .output()
        .expect("binary exists and runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

fn write_net(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(
        &path,
        r#"
        name: "cli-test"
        input { channels: 1 height: 12 width: 12 }
        conv  { features: 6 kernel: 3 }
        relu  { }
        pool  { window: 2 }
        fc    { outputs: 3 }
        "#,
    )
    .expect("temp dir is writable");
    path
}

#[test]
fn characterize_prints_ait_and_plan() {
    let (stdout, _, ok) = spgcnn(&["characterize", "3", "36", "64", "5", "1"]);
    assert!(ok);
    assert!(stdout.contains("intrinsic AIT"));
    assert!(stdout.contains("Stencil-Kernel"));
    assert!(stdout.contains("Region 5"));
}

#[test]
fn plan_reads_network_file() {
    let path = write_net("spgcnn_plan_test.cfg");
    let (stdout, _, ok) = spgcnn(&["plan", path.to_str().expect("utf-8 path")]);
    assert!(ok);
    assert!(stdout.contains("cli-test"));
    assert!(stdout.contains("layer 0"));
    assert!(stdout.contains("FP:"));
}

#[test]
fn render_emits_generated_kernels() {
    let path = write_net("spgcnn_render_test.cfg");
    let (stdout, _, ok) =
        spgcnn(&["render", path.to_str().expect("utf-8 path"), "--sparsity", "0.9"]);
    assert!(ok);
    assert!(stdout.contains("compiled conv"));
    assert!(stdout.contains("CT-CSR"));
}

/// The listing is the tile the bound kernel executes — six rows of the
/// plan's x-tiles — whether the stencil lowered sequential (`--cores 1`)
/// or banded (`--cores 2`, where the listing used to vanish), with the
/// Sec. 4.3 search's tile kept as one labelled line.
#[test]
fn render_lists_the_executed_tile_for_tiled_and_banded_plans() {
    let path = write_net("spgcnn_render_tile_test.cfg");
    for cores in ["1", "2"] {
        let (stdout, _, ok) = spgcnn(&[
            "render",
            path.to_str().expect("utf-8 path"),
            "--cores",
            cores,
            "--sparsity",
            "0.9",
        ]);
        assert!(ok, "cores {cores}: {stdout}");
        assert!(stdout.contains("Stencil-Kernel (FP)"), "cores {cores}: {stdout}");
        // 10-wide output rows: one 8-lane vector, six rows per block.
        assert!(
            stdout.contains("3x3 kernel, 1x6 register tile of 8-lane vectors, y stride 1"),
            "cores {cores}: {stdout}"
        );
        assert_eq!(stdout.matches("_mm256_storeu_ps").count(), 6, "cores {cores}");
        assert_eq!(stdout.matches("model optimum (Sec. 4.3): 1x10 tile").count(), 1);
    }
}

#[test]
fn train_reports_epochs() {
    let path = write_net("spgcnn_train_test.cfg");
    let (stdout, _, ok) =
        spgcnn(&["train", path.to_str().expect("utf-8 path"), "--epochs", "2", "--samples", "12"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("epoch"));
    assert_eq!(stdout.lines().filter(|l| l.trim_start().starts_with(['1', '2'])).count(), 2);
}

#[test]
fn train_save_eval_round_trip() {
    let net = write_net("spgcnn_save_test.cfg");
    let weights = std::env::temp_dir().join("spgcnn_save_test.spgw");
    let (stdout, _, ok) = spgcnn(&[
        "train",
        net.to_str().expect("utf-8 path"),
        "--epochs",
        "4",
        "--samples",
        "24",
        "--save",
        weights.to_str().expect("utf-8 path"),
    ]);
    assert!(ok, "train failed: {stdout}");
    assert!(stdout.contains("weights saved"));
    let (stdout, _, ok) = spgcnn(&[
        "eval",
        net.to_str().expect("utf-8 path"),
        weights.to_str().expect("utf-8 path"),
        "--samples",
        "24",
    ]);
    assert!(ok, "eval failed: {stdout}");
    assert!(stdout.contains("accuracy"));
}

#[test]
fn bad_usage_fails_with_help() {
    let (_, stderr, ok) = spgcnn(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn missing_file_is_a_clean_error() {
    let (_, stderr, ok) = spgcnn(&["plan", "/nonexistent/net.cfg"]);
    assert!(!ok);
    assert!(stderr.contains("error"));
}

/// Without the `fault-injection` feature, `--inject-fault` must refuse
/// loudly instead of running an inert drill that proves nothing.
#[cfg(not(feature = "fault-injection"))]
#[test]
fn inject_fault_flag_requires_the_feature() {
    let (_, stderr, ok) = spgcnn(&["serve", "--smoke", "--inject-fault", "any:2"]);
    assert!(!ok);
    assert!(stderr.contains("fault-injection"), "stderr: {stderr}");
}

/// The CI smoke drill: a 4-worker serve run with an injected panic must
/// finish, report the fault and the respawn, and exit zero.
#[cfg(feature = "fault-injection")]
#[test]
fn serve_smoke_survives_injected_fault() {
    let (stdout, stderr, ok) = spgcnn(&[
        "serve",
        "--smoke",
        "--workers",
        "4",
        "--requests",
        "32",
        "--max-batch",
        "1",
        "--inject-fault",
        "any:2",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("fault drill passed"), "stdout: {stdout}");
    assert!(stdout.contains("1 worker restart(s)"), "stdout: {stdout}");
}

/// The training pool drill through the CLI: an injected panic inside the
/// SGD pool is absorbed by the supervisor and training still completes.
#[cfg(feature = "fault-injection")]
#[test]
fn train_survives_injected_fault() {
    let path = write_net("spgcnn_train_fault_test.cfg");
    let (stdout, stderr, ok) = spgcnn(&[
        "train",
        path.to_str().expect("utf-8 path"),
        "--epochs",
        "2",
        "--samples",
        "12",
        "--threads",
        "2",
        "--inject-fault",
        "0:2",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("fault drill passed"), "stdout: {stdout}");
}

/// Every `spgcnn <word>` / `spgcnn -- <word>` / `$B <word>` a document or
/// the CI workflow tells a reader to run must be a subcommand the binary's
/// usage text lists, so deleting a command cannot leave a dangling
/// instruction behind.
#[test]
fn every_documented_subcommand_exists() {
    let (_, usage, ok) = spgcnn(&[]);
    assert!(!ok, "no arguments prints the usage text and fails");
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect(doc);
        for prefix in ["spgcnn -- ", "spgcnn ", "$B "] {
            for (at, _) in text.match_indices(prefix) {
                let rest = &text[at + prefix.len()..];
                let word: &str = rest
                    .split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
                    .next()
                    .unwrap_or_default();
                if word.is_empty() || word.starts_with('-') {
                    continue;
                }
                assert!(
                    usage.contains(&format!("\n  spgcnn {word} ")),
                    "{doc} names `{prefix}{word}`, which the usage text does not list"
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 20, "the documents name the CLI's subcommands ({checked} found)");
}

/// Training with more workers than samples per batch must clamp the pool
/// instead of starving: batch = 1 on 8 threads still trains and reports.
#[test]
fn train_with_batch_below_threads_clamps_and_completes() {
    let path = write_net("spgcnn_starved_train_test.cfg");
    let (stdout, stderr, ok) = spgcnn(&[
        "train",
        path.to_str().expect("utf-8 path"),
        "--epochs",
        "2",
        "--samples",
        "12",
        "--threads",
        "8",
        "--batch",
        "1",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("epoch"));
}

#[test]
fn tune_measures_all_techniques() {
    let path = write_net("spgcnn_tune_test.cfg");
    let (stdout, _, ok) = spgcnn(&["tune", path.to_str().expect("utf-8 path"), "--reps", "1"]);
    assert!(ok, "stdout: {stdout}");
    assert!(stdout.contains("fastest"));
    assert!(stdout.contains("Stencil-Kernel"));
    assert!(stdout.contains("Sparse-Kernel"));

    // The table is the decision log `--json` emits, so its `<- fastest`
    // rows are the JSON's `chosen` — compared on a layer with an outright
    // winner per phase (a 1x1 kernel and a dense gradient: GEMM by 4x and
    // more).
    let path = std::env::temp_dir().join("spgcnn_tune_decisive_test.cfg");
    let net = r#"
        name: "decisive"
        input { channels: 64 height: 12 width: 12 }
        conv  { features: 256 kernel: 1 }
        fc    { outputs: 3 }
        "#;
    std::fs::write(&path, net).expect("temp dir is writable");
    let args = ["tune", path.to_str().expect("utf-8 path"), "--reps", "8", "--sparsity", "0"];
    let (table, _, ok) = spgcnn(&args);
    assert!(ok, "stdout: {table}");
    let fastest: Vec<&str> = table.lines().filter(|l| l.ends_with("<- fastest")).collect();
    let (json, _, ok) = spgcnn(&[&args[..], &["--json"]].concat());
    assert!(ok, "stdout: {json}");
    let doc = spg_cnn::telemetry::json::parse(&json).expect("tune --json emits JSON");
    let decisions = doc.get("decisions").and_then(|d| d.as_array()).expect("decision log");
    assert_eq!((fastest.len(), decisions.len()), (2, 2), "one winner per phase:\n{table}");
    for (row, decision) in fastest.iter().zip(decisions) {
        assert_eq!(decision.get("chosen").and_then(|c| c.as_str()), Some("gemm-in-parallel"));
        assert!(row.contains(" GEMM-in-Parallel "), "{row}");
    }
}

/// The smoke network's 6x6 output is too narrow to band: its stencil
/// lowers to the narrow kernel with no split, nothing is a verifier
/// rejection, and the command succeeds (CI runs it as a gate).
#[test]
fn check_smoke_verifies_every_candidate() {
    let (stdout, stderr, ok) = spgcnn(&["check", "--smoke"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("all candidate plans verified safe"));
    assert!(!stdout.contains("REJECTED"));
}
