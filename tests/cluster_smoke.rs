//! Multi-process cluster smoke tests driving the `spgcnn` binary.
//!
//! These are the CI acceptance drills for `spg-cluster`: the shard router
//! serving across real shard processes over Unix sockets, the shard-kill
//! recovery drill, and synchronous data-parallel SGD whose ring all-reduce
//! must be bit-identical to the single-process SGD pool.

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

/// The router spreads keys across >=2 shard processes over Unix sockets
/// and every response matches the single-sample forward path bit for bit.
#[test]
fn serve_cluster_routes_across_shard_processes() {
    let (stdout, stderr, ok) = spgcnn(&["serve-cluster", "--smoke", "--requests", "16"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(
        stdout.contains("all completed responses bit-identical to the single-sample forward path"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("2 shard(s) answered"), "stdout: {stdout}");
}

/// The in-process transport exercises the same router against thread
/// shards — no sockets, same bit-identity contract.
#[test]
fn serve_cluster_inproc_transport() {
    let (stdout, stderr, ok) =
        spgcnn(&["serve-cluster", "--smoke", "--transport", "inproc", "--requests", "12"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("bit-identical"), "stdout: {stdout}");
}

/// Killing one shard mid-load must surface exactly one typed fault for the
/// in-flight request, evict and respawn the shard, and leave every other
/// key's response bit-identical.
#[test]
fn serve_cluster_shard_kill_drill_recovers() {
    let (stdout, stderr, ok) =
        spgcnn(&["serve-cluster", "--smoke", "--requests", "48", "--inject-fault", "0:5"]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("shard-kill drill passed"), "stdout: {stdout}");
}

/// Ring all-reduce across real rank processes rendezvousing over Unix
/// sockets reproduces the single-process pool's epoch losses bit for bit
/// — at world 2, and at world 3, where a middle rank receives, folds and
/// forwards through its buffered links (and the batch splits unevenly).
#[test]
fn train_cluster_ring_matches_pool_across_processes() {
    for world in ["2", "3"] {
        let (stdout, stderr, ok) = spgcnn(&[
            "train-cluster",
            "--smoke",
            "--world",
            world,
            "--epochs",
            "2",
            "--samples",
            "16",
            "--batch",
            "8",
        ]);
        assert!(ok, "world {world}\nstdout: {stdout}\nstderr: {stderr}");
        assert!(
            stdout.contains("bit-identical to the single-process pool"),
            "world {world}\nstdout: {stdout}"
        );
    }
}

/// An injected rank fault mid-all-reduce is replayed from committed rank
/// state; the recovered run still matches the pool bit for bit.
#[test]
fn train_cluster_ring_fault_drill_replays() {
    let (stdout, stderr, ok) = spgcnn(&[
        "train-cluster",
        "--smoke",
        "--in-proc",
        "--world",
        "2",
        "--epochs",
        "2",
        "--samples",
        "12",
        "--batch",
        "6",
        "--inject-fault",
        "1:1:0",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("ring fault drill passed"), "stdout: {stdout}");
}

/// `bench-cluster` writes the analytical 8/16/64-node scaling curves in
/// the committed `BENCH_cluster.json` schema.
#[test]
fn bench_cluster_emits_scaling_curves() {
    let path = std::env::temp_dir().join("spgcnn_bench_cluster_test.json");
    let (stdout, stderr, ok) =
        spgcnn(&["bench-cluster", "--json", path.to_str().expect("utf-8 path")]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    let json = std::fs::read_to_string(&path).expect("bench json written");
    assert!(json.contains("\"schema\": \"spgcnn-bench-cluster\""), "json: {json}");
    assert!(json.contains("\"nodes\": 64"), "json: {json}");
    assert!(json.contains("\"ring_efficiency\""), "json: {json}");
    let _ = std::fs::remove_file(&path);
}
