//! `spgcnn` — command-line front end for the spg-CNN framework.
//!
//! ```text
//! spgcnn characterize <Nc> <N> <Nf> <K> <S>   # Sec. 3 characterization of one convolution
//! spgcnn plan <net.cfg> [--cores N] [--sparsity S]
//! spgcnn render <net.cfg> [--cores N] [--sparsity S]
//! spgcnn train <net.cfg> [--epochs N] [--classes N] [--samples N] [--threads N]
//! spgcnn serve <net.cfg>|--smoke [--workers N] [--requests N]
//! ```
//!
//! Network files use the protobuf-text-like format of
//! `spg_core::config` (see `examples/` and the README quickstart).
//! Training, evaluation, and serving are all routed through the unified
//! [`Engine`] facade rather than hand-built workspace plumbing.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, ExitCode, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use spg_cnn::cluster::{
    run_rank, serve_connection, train_in_proc, ClusterError, ConnectionEnd, InProcShard,
    InProcTrainOptions, KillDrill, RankOptions, RemoteShard, RouteReply, Router, RouterConfig,
    ShardBackend, ShardError, ShardSpawner, TrainFault, DEFAULT_CHUNK_FLOATS,
};
use spg_cnn::convnet::data::Dataset;
use spg_cnn::convnet::sgd::{stats_bits, Progress};
use spg_cnn::convnet::{io, ConvSpec, Engine, Trainer, TrainerConfig};
use spg_cnn::core::autotune::{Framework, TuningMode};
use spg_cnn::core::compiled::CompiledConv;
use spg_cnn::core::config::NetworkDescription;
use spg_cnn::core::region::classify;
use spg_cnn::core::schedule::recommended_plan;
use spg_cnn::serve::{FaultPlan, ServeConfig, ServeError, Server};
use spg_cnn::simcpu::{cluster_scaling, Interconnect, Machine};
use spg_cnn::tensor::{Shape3, Tensor};

const USAGE: &str = "\
usage:
  spgcnn characterize <Nc> <N> <Nf> <K> <S>
      Sec. 3 characterization of one square convolution
      (channels, input size, features, kernel, stride).
  spgcnn plan <net.cfg> [--cores N] [--sparsity S]
      Parse a network description and print the per-layer technique plan.
  spgcnn render <net.cfg> [--cores N] [--sparsity S]
      Print the generated kernel listings for every conv layer.
  spgcnn train <net.cfg> [--epochs N] [--classes N] [--samples N] [--threads N]
               [--batch N] [--save weights.spgw] [--metrics-json FILE]
               [--inject-fault SPEC]
      Train the network on a seeded synthetic dataset and report per-epoch
      loss, accuracy, and gradient sparsity; optionally save the weights
      and/or write goodput telemetry as spgcnn-metrics JSON. When --batch
      is smaller than --threads the trainer runs only as many sample
      threads as the batch feeds and counts the idled ones in
      train.starved_workers. --inject-fault panics one sample slot on
      purpose (SPEC as for serve; the unit is a sample the slot starts)
      and checks the slot's supervisor resumes training.
  spgcnn eval <net.cfg> <weights.spgw> [--samples N]
      Load trained weights and report accuracy on a fresh synthetic set
      (for a single sample, also its class), planned for and run on every
      core the process may use; the classes do not depend on how many.
  spgcnn tune <net.cfg> [--cores N] [--sparsity S] [--reps N] [--json]
      Measure every technique on every conv layer of this machine and
      report the timings and winners (the paper's measure-and-pick step).
      With --json, emit the decisions as spgcnn-metrics JSON on stdout.
  spgcnn check <net.cfg>|--smoke [--cores N]
      Statically verify every candidate execution plan for every conv
      layer: prove all kernel access ranges in-bounds, parallel worker
      regions disjoint, and scratch capacities sufficient — without
      running anything. Each verified forward candidate also shows the
      kernel lowering binds (generic, avx2, avx512) and the Sec. 3
      model's predicted GFlops/core on the 16-core Xeon E5-2650. Exits
      non-zero if any plan is rejected.
  spgcnn serve <net.cfg>|--smoke [--workers N] [--requests N] [--max-batch N]
               [--max-delay-ms MS] [--metrics-json FILE] [--inject-fault SPEC]
      Run the batched serving engine over a synthetic request stream,
      check every response is bit-identical to the single-sample forward
      pass, and report throughput plus request-latency percentiles.
      With --smoke a tiny built-in network is served and the collected
      telemetry is emitted as spgcnn-metrics JSON. --inject-fault panics
      one worker on purpose (SPEC is `worker:batch` or `any:batch`,
      1-based batch) and checks the pool supervisor isolates the fault.
  spgcnn bench-kernels [--json FILE] [--reps N]
      Race the generic stencil forward loops against the specialized
      codegen registry instance on every Table 2 layer, single-core,
      median-of-N with pinned iteration counts. With --json, write the
      spgcnn-bench-kernels document CI's bench gate diffs against the
      committed BENCH_kernels.json baseline.
  spgcnn serve-cluster <net.cfg>|--smoke [--shards N] [--workers N] [--requests N]
               [--transport uds|tcp|inproc] [--base-port P]
               [--inject-fault SHARD:AFTER_N] [--metrics-json FILE]
      Serve through the consistent-hash shard router over N model
      replicas. The uds/tcp transports run one shard process per
      replica (tcp: shard i listens on port P+i) and exercise the
      framed wire protocol end to end; the router starts each process,
      restarts it under its restart budget when it dies, and reaps it
      at shutdown. Every response is checked bit-identical to the
      single-sample forward path. --inject-fault kills shard SHARD
      after it served AFTER_N requests and checks exactly one in-flight
      request fails with a typed ShardFault while the router evicts the
      shard and respawns its process.
  spgcnn train-cluster <net.cfg>|--smoke [--world N] [--epochs N] [--samples N]
               [--batch N] [--in-proc] [--inject-fault RANK:EPOCH:BATCH]
               [--metrics-json FILE]
      Synchronous data-parallel SGD over N rank processes connected in
      a Unix-socket ring (or in-process ranks with --in-proc), running
      the from-scratch chunked gradient all-reduce; asserts every
      rank's epoch statistics (loss, accuracy, conv gradient sparsity)
      are bit-identical to the single-process SGD pool on the same seed.
      --inject-fault (in-proc ring only) drops a rank mid-all-reduce and
      checks the replay still matches the pool; a drill the run never
      reaches (rank >= N, epoch 0 or past --epochs, batch past the
      epoch) is an error before the ring trains.
  spgcnn bench-cluster [--json FILE] [--gradient-mb MB] [--step-ms MS]
      Print the analytical multi-node scaling curves (1..64 nodes) of
      the ring all-reduce on loopback and 10 GbE fabrics; with --json, write the spgcnn-bench-cluster document
      (the committed BENCH_cluster.json scaling baseline).
  spgcnn race [--smoke]
      Run the spg-race deterministic-interleaving model checker over the
      concurrency proof scenarios (the shipped bounded queue and the
      serve supervisor around it), exploring every schedule up to the
      preemption bound and printing one line per scenario. --smoke runs
      the small configs only; without it the larger full-proof configs
      run too. Exits non-zero on any finding (deadlock, lost wakeup,
      invariant violation).
  spgcnn smoke [--metrics-json FILE]
      Train a tiny built-in network for two epochs with telemetry enabled
      and emit spgcnn-metrics JSON (to stdout, or FILE if given). Exits
      non-zero if the collected metrics fail schema validation.
  spgcnn validate-metrics <metrics.json>
      Check that a JSON file conforms to the spgcnn-metrics schema.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("characterize") => characterize(&args[1..]),
        Some("plan") => plan(&args[1..], false),
        Some("render") => plan(&args[1..], true),
        Some("train") => train(&args[1..]),
        Some("eval") => eval(&args[1..]),
        Some("tune") => tune(&args[1..]),
        Some("check") => check(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("bench-kernels") => bench_kernels(&args[1..]),
        Some("serve-cluster") => serve_cluster(&args[1..]),
        Some("train-cluster") => train_cluster(&args[1..]),
        Some("bench-cluster") => bench_cluster(&args[1..]),
        // Internal child entry points re-exec'd by serve-cluster /
        // train-cluster; not part of the documented surface.
        Some("cluster-shard") => cluster_shard(&args[1..]),
        Some("cluster-rank") => cluster_rank(&args[1..]),
        Some("race") => race(&args[1..]),
        Some("smoke") => smoke(&args[1..]),
        Some("validate-metrics") => validate_metrics(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `--key value` flags after the positional arguments.
fn flag<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> Result<T, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(default),
        Some(i) => args
            .get(i + 1)
            .ok_or_else(|| format!("missing value after {key}"))?
            .parse()
            .map_err(|_| format!("invalid value for {key}")),
    }
}

/// Parses an optional `--key value` flag, distinguishing absent from given.
fn opt_flag(args: &[String], key: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == key) {
        None => Ok(None),
        Some(i) => {
            args.get(i + 1).cloned().map(Some).ok_or_else(|| format!("missing value after {key}"))
        }
    }
}

/// Parses `--inject-fault SPEC` into a [`FaultPlan`].
fn fault_flag(args: &[String]) -> Result<Option<FaultPlan>, String> {
    let Some(spec) = opt_flag(args, "--inject-fault")? else { return Ok(None) };
    FaultPlan::parse(&spec).map(Some)
}

/// Serializes the collected telemetry as spgcnn-metrics JSON, validates it
/// against the schema, and writes it to `path` (or stdout when `None`).
fn emit_metrics(path: Option<&str>, meta: &[(&str, String)]) -> Result<(), String> {
    let text = spg_cnn::telemetry::snapshot().to_json(meta);
    spg_cnn::telemetry::json::validate_metrics(&text)
        .map_err(|e| format!("internal error: emitted metrics violate the schema: {e}"))?;
    match path {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("metrics written to {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn characterize(args: &[String]) -> Result<(), String> {
    if args.len() < 5 {
        return Err("characterize needs <Nc> <N> <Nf> <K> <S>".into());
    }
    let nums: Vec<usize> = args[..5]
        .iter()
        .map(|a| a.parse().map_err(|_| format!("`{a}` is not a number")))
        .collect::<Result<_, _>>()?;
    let spec =
        ConvSpec::new(nums[0], nums[1], nums[1], nums[2], nums[3], nums[3], nums[4], nums[4])
            .map_err(|e| e.to_string())?;
    println!("convolution      : {spec}");
    println!("arithmetic ops   : {}", spec.arithmetic_ops());
    println!("intrinsic AIT    : {:.1}", spec.intrinsic_ait());
    println!("Unfold+GEMM AIT  : {:.1}", spec.unfold_ait());
    println!("unfold blow-up   : {:.1}x", spec.unfold_blowup());
    for sparsity in [0.0, 0.85] {
        println!(
            "at sparsity {sparsity:.2} : {} -> {}",
            classify(&spec, sparsity),
            recommended_plan(&spec, sparsity)
        );
    }
    Ok(())
}

fn load(args: &[String]) -> Result<NetworkDescription, String> {
    let path = args.first().ok_or("missing network file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    NetworkDescription::parse(&text).map_err(|e| e.to_string())
}

fn plan(args: &[String], render: bool) -> Result<(), String> {
    let desc = load(args)?;
    let cores = flag(args, "--cores", 16usize)?;
    let sparsity = flag(args, "--sparsity", 0.85f64)?;
    let mut net = desc.build(42).map_err(|e| e.to_string())?;
    println!("network `{}`: {net:?}", desc.name);
    let framework = Framework::new(cores, TuningMode::Heuristic, 2);
    for (i, layer_plan) in
        framework.try_plan_network(&mut net, sparsity).map_err(|e| e.to_string())?
    {
        let spec = *net.layers()[i].conv_spec().expect("planned layers are conv");
        println!("\nlayer {i}: {spec}");
        println!("  {} | {layer_plan}", classify(&spec, sparsity));
        if render {
            let weights = vec![0.0f32; spec.weight_shape().len()];
            let compiled = CompiledConv::compile(spec, layer_plan, &weights, cores)
                .map_err(|e| e.to_string())?;
            for line in compiled.render().lines() {
                println!("  {line}");
            }
        }
    }
    Ok(())
}

fn train(args: &[String]) -> Result<(), String> {
    let desc = load(args)?;
    let epochs = flag(args, "--epochs", 5usize)?;
    let classes = flag(args, "--classes", 0usize)?;
    let samples = flag(args, "--samples", 64usize)?;
    let threads = flag(args, "--threads", 1usize)?.max(1);
    let batch = flag(args, "--batch", TrainerConfig::default().batch_size)?.max(1);
    let metrics_path = opt_flag(args, "--metrics-json")?;
    let fault_plan = fault_flag(args)?;
    if metrics_path.is_some() {
        spg_cnn::telemetry::reset();
        spg_cnn::telemetry::set_enabled(true);
    }

    let net = desc.build(42).map_err(|e| e.to_string())?;
    let classes = if classes == 0 { net.output_len() } else { classes };
    if classes > net.output_len() {
        return Err(format!(
            "{classes} classes but the network only has {} outputs",
            net.output_len()
        ));
    }
    let planner = Arc::new(Framework::new(threads, TuningMode::Heuristic, 2));
    let mut engine = Engine::builder()
        .network(net)
        .planner(planner)
        .workers(threads)
        .trainer(TrainerConfig {
            epochs,
            batch_size: batch,
            sample_threads: threads,
            fault_plan,
            ..TrainerConfig::default()
        })
        .build()
        .map_err(|e| e.to_string())?;

    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let mut data = Dataset::synthetic(shape, classes, samples, 0.15, 7);
    println!("training `{}` on {} synthetic samples, {} classes", desc.name, samples, classes);
    println!("epoch  loss     accuracy  grad-sparsity  images/s");
    let stats = engine.try_train(&mut data).map_err(|e| e.to_string())?;
    if fault_plan.is_some() {
        println!("fault drill passed: the trainer survived the injected panic");
    }
    for s in &stats {
        let sparsity = s.conv_grad_sparsity.first().copied().unwrap_or(0.0);
        println!(
            "{:>5}  {:<7.4}  {:<8.3}  {:<13.3}  {:.0}",
            s.epoch, s.mean_loss, s.accuracy, sparsity, s.images_per_sec
        );
    }
    if let Some(i) = args.iter().position(|a| a == "--save") {
        let path = args.get(i + 1).ok_or("missing value after --save")?;
        let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
        io::save_weights(engine.network(), std::io::BufWriter::new(file))
            .map_err(|e| e.to_string())?;
        println!("weights saved to {path}");
    }
    if let Some(path) = metrics_path {
        spg_cnn::telemetry::set_enabled(false);
        let meta = [
            ("command", "train".to_string()),
            ("network", desc.name.clone()),
            ("epochs", epochs.to_string()),
            ("samples", samples.to_string()),
            ("classes", classes.to_string()),
            ("threads", threads.to_string()),
        ];
        emit_metrics(Some(&path), &meta)?;
    }
    Ok(())
}

fn tune(args: &[String]) -> Result<(), String> {
    use spg_cnn::convnet::scope_label;
    use spg_cnn::core::autotune::tune_layer;
    use spg_cnn::core::schedule::Technique;

    let desc = load(args)?;
    let cores = flag(args, "--cores", 1usize)?;
    let sparsity = flag(args, "--sparsity", 0.85f64)?;
    let reps = flag(args, "--reps", 3usize)?;
    let json = args.iter().any(|a| a == "--json");
    let net = desc.build(42).map_err(|e| e.to_string())?;
    // One contest, both outputs: run the measure-and-pick primitive under
    // per-layer Tune scopes so every decision is captured with the
    // candidate timings, rejections and deploy gate that justified it.
    spg_cnn::telemetry::reset();
    spg_cnn::telemetry::set_enabled(true);
    for (i, layer) in net.layers().iter().enumerate() {
        let Some(spec) = layer.conv_spec() else { continue };
        let _tune = spg_cnn::telemetry::scope(
            &scope_label(i, layer.name()),
            spg_cnn::telemetry::Phase::Tune,
        );
        tune_layer(spec, sparsity, cores, cores, reps);
    }
    spg_cnn::telemetry::set_enabled(false);
    if json {
        // Machine-readable mode: the spgcnn-metrics document on stdout.
        let meta = [
            ("command", "tune".to_string()),
            ("network", desc.name.clone()),
            ("cores", cores.to_string()),
            ("sparsity", sparsity.to_string()),
            ("reps", reps.to_string()),
        ];
        return emit_metrics(None, &meta);
    }
    println!(
        "measuring `{}` on this machine ({cores} core(s), sparsity {sparsity:.2}, {reps} reps)",
        desc.name
    );
    // The same decisions as a table: the row marked fastest is `chosen`.
    let name = |id: &str| {
        let mut all =
            Technique::forward_candidates().iter().chain(Technique::backward_candidates());
        all.find(|t| t.id() == id).map_or_else(|| id.to_string(), |t| t.to_string())
    };
    let decisions = spg_cnn::telemetry::snapshot().decisions;
    for (i, layer) in net.layers().iter().enumerate() {
        let Some(spec) = layer.conv_spec() else { continue };
        println!("\nlayer {i}: {spec}");
        let label = scope_label(i, layer.name());
        for decision in decisions.iter().filter(|d| d.label == label) {
            let phase = match decision.phase {
                spg_cnn::telemetry::Phase::Forward => "FP",
                _ => "BP",
            };
            // A rejected plan never runs, not even to be measured.
            for r in &decision.rejected {
                println!("  {phase} {:<32} rejected: {}", name(&r.technique), r.reason);
            }
            let mut timings: Vec<_> = decision.candidates.iter().collect();
            timings.sort_by_key(|c| c.wall_ns);
            for c in timings {
                let marker = if c.technique == decision.chosen { "  <- fastest" } else { "" };
                let ms = std::time::Duration::from_nanos(c.wall_ns).as_secs_f64() * 1e3;
                println!("  {phase} {:<32} {ms:>10.3} ms{marker}", name(&c.technique));
            }
        }
    }
    Ok(())
}

/// Audits a whole network config with the plan-time verifier: every
/// candidate the contest measures for every conv layer, both phases, each
/// lowered once as the contest lowers it — proving all access ranges safe
/// without running any kernel. A candidate's line reports the proof of the
/// program it lowers to (its phase plus the GEMM baseline in the other); a
/// forward candidate also shows the kernel that program binds and the
/// Sec. 3 model's predicted GFlops/core on the paper's Xeon. The
/// serving/training paths run the same lowering inside
/// `CompiledConv::compile` and the autotuner; this command surfaces it.
fn check(args: &[String]) -> Result<(), String> {
    use spg_cnn::codegen::KernelChoice;
    use spg_cnn::core::autotune::Phase;
    use spg_cnn::core::backend::AlgoChoice;
    use spg_cnn::core::schedule::Technique;
    use spg_cnn::core::verify::lower_phase;
    use spg_cnn::simcpu::forward_gflops_per_core;

    let desc = if args.iter().any(|a| a == "--smoke") {
        NetworkDescription::parse(SMOKE_NETWORK).map_err(|e| e.to_string())?
    } else {
        load(args)?
    };
    let cores = flag(args, "--cores", 16usize)?.max(1);
    let net = desc.build(42).map_err(|e| e.to_string())?;
    let machine = Machine::xeon_e5_2650();
    println!(
        "checking `{}` ({cores} core(s)): plan-time verification of every candidate",
        desc.name
    );
    let mut rejections = 0usize;
    let mut proved = 0usize;
    let mut regions = 0usize;
    for (i, layer) in net.layers().iter().enumerate() {
        let Some(spec) = layer.conv_spec() else { continue };
        println!("\nlayer {i}: {spec}");
        for (phase, label, candidates) in [
            (Phase::Forward, "FP", Technique::forward_candidates()),
            (Phase::Backward, "BP", Technique::backward_candidates()),
        ] {
            for &t in candidates {
                match lower_phase(spec, t, phase, cores, KernelChoice::Auto) {
                    Ok(program) => {
                        let report = program.report();
                        proved += report.accesses_proved;
                        regions += report.worker_regions;
                        let mut line = format!(
                            "  {label} {:<24} ok: {} access range(s), {} worker region(s)",
                            t.to_string(),
                            report.accesses_proved,
                            report.worker_regions
                        );
                        if phase == Phase::Forward {
                            let kernel = AlgoChoice::of(&program).kernel.id();
                            let model = forward_gflops_per_core(&machine, spec, t, cores);
                            line += &format!(", kernel {kernel}, model {model:.1} GFlops/core");
                        }
                        println!("{line}");
                    }
                    Err(e) => {
                        rejections += 1;
                        println!("  {label} {:<24} REJECTED: {e}", t.to_string());
                    }
                }
            }
        }
    }
    println!(
        "\n{proved} access range(s) proved in-bounds, {regions} worker region(s) proved disjoint"
    );
    if rejections > 0 {
        return Err(format!("{rejections} candidate plan(s) rejected by the static verifier"));
    }
    println!("all candidate plans verified safe");
    Ok(())
}

/// The built-in smoke-test network: small enough to train in well under a
/// second on one core, yet it exercises every instrumented code path
/// (conv forward/backward through the executor seam, ReLU, pooling, FC).
const SMOKE_NETWORK: &str = r#"
name: "smoke"
input { channels: 1 height: 8 width: 8 }
conv { features: 4 kernel: 3 stride: 1 }
relu { }
pool { window: 2 }
fc { outputs: 3 }
"#;

fn serve(args: &[String]) -> Result<(), String> {
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let desc = if smoke_mode {
        NetworkDescription::parse(SMOKE_NETWORK).map_err(|e| e.to_string())?
    } else {
        load(args)?
    };
    let workers = flag(args, "--workers", 2usize)?.max(1);
    let requests = flag(args, "--requests", 32usize)?.max(1);
    let max_batch = flag(args, "--max-batch", 8usize)?.max(1);
    let max_delay_ms = flag(args, "--max-delay-ms", 2u64)?;
    let metrics_path = opt_flag(args, "--metrics-json")?;
    let fault_plan = fault_flag(args)?;

    spg_cnn::telemetry::reset();
    spg_cnn::telemetry::set_enabled(true);

    let mut net = desc.build(42).map_err(|e| e.to_string())?;
    // Forward-only planning at cores = 1: every serving worker runs a
    // single-threaded kernel, GEMM-in-Parallel across the pool (Sec. 4.1
    // applied to inference).
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.try_plan_network_forward(&mut net).map_err(|e| e.to_string())?;
    let engine =
        Engine::builder().network(net).workers(workers).build().map_err(|e| e.to_string())?;

    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let data = Dataset::synthetic(shape, engine.network().output_len(), requests, 0.15, 11);
    let inputs: Vec<Vec<f32>> =
        (0..data.len()).map(|i| data.image(i).as_slice().to_vec()).collect();
    // Reference logits from the unbatched Engine forward path; the server
    // must reproduce them bit for bit.
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| engine.forward(x).map(|t| t.as_slice().to_vec()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;

    let config = ServeConfig {
        workers,
        max_batch,
        max_delay: Duration::from_millis(max_delay_ms),
        queue_capacity: requests.max(8),
        fault_plan,
        ..ServeConfig::default()
    };
    let server = Server::start(engine.into_shared(), &plans, config).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let pending: Vec<_> = inputs
        .iter()
        .map(|x| server.submit_timeout(x.clone(), Duration::from_secs(30)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut divergent = 0usize;
    let mut batch_total = 0usize;
    let mut answered = 0usize;
    let mut faulted = 0usize;
    for (i, p) in pending.into_iter().enumerate() {
        match p.wait() {
            Ok(r) => {
                answered += 1;
                batch_total += r.batch_size;
                if r.logits != expected[i] {
                    divergent += 1;
                }
            }
            // A WorkerFault fails only the in-flight micro-batch; the
            // supervisor respawns the worker and the stream continues.
            Err(ServeError::WorkerFault { .. }) if fault_plan.is_some() => faulted += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    let elapsed = started.elapsed();
    if fault_plan.is_some() && faulted > 0 {
        // The supervisor bumps the restart counter just after failing the
        // batch, so the replies can race a step ahead of it: block on the
        // respawn event itself rather than sleep-polling the counter.
        let _ = server.wait_restarts(1, Duration::from_secs(5));
    }
    let restarts = server.restarts();
    let faulted_batches = server.faulted_batches();
    server.shutdown();
    spg_cnn::telemetry::set_enabled(false);

    println!(
        "served {requests} request(s) on {workers} worker(s): {:.0} requests/s, mean batch {:.2}",
        requests as f64 / elapsed.as_secs_f64(),
        batch_total as f64 / answered.max(1) as f64
    );
    if fault_plan.is_some() || restarts > 0 {
        println!(
            "supervision: {faulted} request(s) failed as WorkerFault across \
             {faulted_batches} faulted micro-batch(es), {restarts} worker restart(s)"
        );
    }
    let snap = spg_cnn::telemetry::snapshot();
    if let Some(lat) = snap.latency("serve.request") {
        println!(
            "request latency: p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms",
            lat.quantile_ns(0.50).unwrap_or(0) as f64 / 1e6,
            lat.quantile_ns(0.95).unwrap_or(0) as f64 / 1e6,
            lat.quantile_ns(0.99).unwrap_or(0) as f64 / 1e6
        );
    }
    if divergent > 0 {
        return Err(format!(
            "{divergent}/{requests} responses diverged from the single-sample forward path"
        ));
    }
    println!("all completed responses bit-identical to the single-sample forward path");
    if fault_plan.is_some() {
        // The drill only proves isolation if the fault actually fired and
        // the supervisor actually recovered the worker.
        if faulted == 0 || restarts == 0 {
            return Err(format!(
                "fault injection requested but the pool reported {faulted} faulted \
                 request(s) and {restarts} restart(s); the drill did not exercise recovery"
            ));
        }
        println!("fault drill passed: the pool survived the injected panic");
    }
    if smoke_mode || metrics_path.is_some() {
        let meta = [
            ("command", "serve".to_string()),
            ("network", desc.name.clone()),
            ("workers", workers.to_string()),
            ("requests", requests.to_string()),
            ("max_batch", max_batch.to_string()),
        ];
        emit_metrics(metrics_path.as_deref(), &meta)?;
    }
    Ok(())
}

fn bench_kernels(args: &[String]) -> Result<(), String> {
    let reps = flag(args, "--reps", spg_cnn::bench_kernels::DEFAULT_REPS)?.max(1);
    let json_path = opt_flag(args, "--json")?;
    let report = spg_cnn::bench_kernels::run(reps);
    print!("{}", report.render_table());
    let specialized: Vec<_> = report.layers.iter().filter(|l| l.kernel == "specialized").collect();
    if specialized.is_empty() {
        println!("\nno specialized instances runnable on this host (simd {})", report.simd_level);
    } else {
        let hot_wins =
            specialized.iter().filter(|l| l.hot && l.speedup.is_some_and(|s| s >= 1.15)).count();
        println!("\nhot layers at >= 1.15x specialized speedup: {hot_wins}");
    }
    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("report written to {path}");
    }
    Ok(())
}

fn race(args: &[String]) -> Result<(), String> {
    let smoke_only = args.iter().any(|a| a == "--smoke");
    for a in args {
        if a != "--smoke" {
            return Err(format!("race: unknown argument `{a}`"));
        }
    }
    let start = Instant::now();
    let reports = if smoke_only {
        spg_cnn::race::scenarios::run_smoke()
    } else {
        spg_cnn::race::scenarios::run_full()
    }
    .map_err(|e| e.to_string())?;
    for r in &reports {
        println!("{r}");
    }
    eprintln!("race: {} scenarios clean in {:.1}s", reports.len(), start.elapsed().as_secs_f64());
    Ok(())
}

fn smoke(args: &[String]) -> Result<(), String> {
    let metrics_path = opt_flag(args, "--metrics-json")?;
    let desc = NetworkDescription::parse(SMOKE_NETWORK).map_err(|e| e.to_string())?;
    let net = desc.build(42).map_err(|e| e.to_string())?;

    spg_cnn::telemetry::reset();
    spg_cnn::telemetry::set_enabled(true);
    let planner = Arc::new(Framework::new(1, TuningMode::Heuristic, 1));
    let mut engine = Engine::builder()
        .network(net)
        .planner(planner)
        .trainer(TrainerConfig { epochs: 2, ..TrainerConfig::default() })
        .build()
        .map_err(|e| e.to_string())?;
    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let mut data = Dataset::synthetic(shape, 3, 16, 0.15, 7);
    let stats = engine.train(&mut data);
    spg_cnn::telemetry::set_enabled(false);

    let last = stats.last().ok_or("training produced no epochs")?;
    eprintln!(
        "smoke: trained `{}` for {} epochs (final loss {:.4}, accuracy {:.3})",
        desc.name,
        stats.len(),
        last.mean_loss,
        last.accuracy
    );
    let meta = [
        ("command", "smoke".to_string()),
        ("network", desc.name.clone()),
        ("epochs", stats.len().to_string()),
        ("samples", "16".to_string()),
    ];
    emit_metrics(metrics_path.as_deref(), &meta)
}

fn validate_metrics(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing metrics file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    spg_cnn::telemetry::json::validate_metrics(&text).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "{path}: valid {} v{} document",
        spg_cnn::telemetry::SCHEMA_NAME,
        spg_cnn::telemetry::SCHEMA_VERSION
    );
    Ok(())
}

fn eval(args: &[String]) -> Result<(), String> {
    let desc = load(args)?;
    let weights_path = args.get(1).ok_or("missing weights file")?;
    let samples = flag(args, "--samples", 64usize)?;
    let net = desc.build(42).map_err(|e| e.to_string())?;
    let bytes = std::fs::read(weights_path).map_err(|e| format!("{weights_path}: {e}"))?;
    // Forward plans for the cores this process may run on. Neither the
    // plans nor the core count can change a class: whole samples go to
    // workers while there are enough, and fewer samples than workers
    // spend the spare cores inside each sample.
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut engine = Engine::builder()
        .network(net)
        .weights_bytes(bytes)
        .workers(workers)
        .planner(Arc::new(Framework::new(workers, TuningMode::Heuristic, 1)))
        .build()
        .map_err(|e| e.to_string())?;
    engine.try_tune_forward().map_err(|e| e.to_string())?;

    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let data = Dataset::synthetic(shape, engine.network().output_len(), samples, 0.15, 7);
    let images: Vec<Tensor> = (0..data.len()).map(|i| data.image(i).clone()).collect();
    let classes = engine.infer(&images);
    let correct = classes.iter().enumerate().filter(|&(i, &c)| c == data.label(i)).count();
    println!(
        "`{}` with weights {}: accuracy {:.3} ({correct}/{samples})",
        desc.name,
        weights_path,
        correct as f64 / samples as f64
    );
    if let [class] = classes[..] {
        println!("class {class}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Cluster commands: sharded serving, ring-SGD training, and the analytical
// multi-node scaling curves. The multi-process modes re-exec this binary as
// `cluster-shard` / `cluster-rank` children.
// ---------------------------------------------------------------------------

/// Network description for a cluster child process: `--net <file>` or the
/// built-in smoke network.
fn child_desc(args: &[String]) -> Result<NetworkDescription, String> {
    match opt_flag(args, "--net")? {
        Some(path) => {
            let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
            NetworkDescription::parse(&text).map_err(|e| e.to_string())
        }
        None => NetworkDescription::parse(SMOKE_NETWORK).map_err(|e| e.to_string()),
    }
}

/// Retries `connect` until the peer's listener is up (a child process
/// takes a moment to bind); gives up with the last error after 10 s.
fn connect_retry<S>(mut connect: impl FnMut() -> std::io::Result<S>) -> std::io::Result<S> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match connect() {
            Ok(s) => return Ok(s),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Kills a child process (if it still runs) and reaps it.
fn reap(child: &mut Child) {
    let _ = child.kill();
    let _ = child.wait();
}

/// A uds/tcp shard's backend: a `cluster-shard` process and the framed
/// stream to it. Dropping it kills and reaps the process, so the router's
/// restart loop — which drops a dead backend before it respawns, and a
/// retired one for good — is the only thing that restarts a shard.
struct ShardChild<S: Read + Write + Send> {
    remote: RemoteShard<S>,
    child: Child,
}

impl<S: Read + Write + Send> ShardBackend for ShardChild<S> {
    fn infer(
        &mut self,
        shard: usize,
        key: &[u8],
        input: Vec<f32>,
    ) -> Result<RouteReply, ShardError> {
        self.remote.infer(shard, key, input)
    }
}

impl<S: Read + Write + Send> Drop for ShardChild<S> {
    fn drop(&mut self) {
        reap(&mut self.child);
    }
}

/// Starts shard processes for the router's spawner: this binary re-exec'd
/// as `cluster-shard`.
struct ShardLauncher {
    exe: PathBuf,
    /// Arguments every shard gets (`--workers`, and `--net` if given).
    common: Vec<String>,
    /// `(shard, after)`: `--die-after` rides only that shard's first
    /// spawn, so a killed shard comes back healthy.
    drill: Mutex<Option<(usize, u64)>>,
}

impl ShardLauncher {
    /// Starts `shard` listening at `listen` (`--socket PATH` or
    /// `--tcp-port PORT`) and dials it; a child that cannot be reached is
    /// reaped before the error returns.
    fn launch<S: Read + Write + Send + 'static>(
        &self,
        shard: usize,
        listen: [&str; 2],
        connect: impl FnMut() -> std::io::Result<S>,
    ) -> Result<Box<dyn ShardBackend>, ClusterError> {
        let fault = |message: String| ClusterError::ShardFault { shard, message };
        let mut cmd = Command::new(&self.exe);
        cmd.arg("cluster-shard").args(listen).args(&self.common).stdout(Stdio::null());
        let drill = spg_sync::lock(&self.drill).take_if(|(s, _)| *s == shard);
        if let Some((_, after)) = drill {
            cmd.args(["--die-after", &after.to_string()]);
        }
        let mut child = cmd.spawn().map_err(|e| fault(format!("starting cluster-shard: {e}")))?;
        match connect_retry(connect) {
            Ok(stream) => Ok(Box::new(ShardChild { remote: RemoteShard::new(stream), child })),
            Err(e) => {
                reap(&mut child);
                Err(fault(format!("connecting to {}: {e}", listen[1])))
            }
        }
    }
}

/// What the sequential request drive observed.
struct DriveOutcome {
    answered: usize,
    divergent: usize,
    faulted: usize,
    shards_seen: HashSet<usize>,
    elapsed: Duration,
    evictions: u64,
    respawns: u64,
}

/// Starts the router over `spawner`, submits every input through it
/// (sequentially, so at most one request is in flight when a kill drill
/// fires), checks each reply against the single-sample forward path, and
/// shuts the router down, which drops every shard backend.
fn drive_requests(
    spawner: Arc<dyn ShardSpawner>,
    config: &RouterConfig,
    inputs: &[Vec<f32>],
    expected: &[Vec<f32>],
    drill_armed: bool,
) -> Result<DriveOutcome, String> {
    let router = Router::start(spawner, config).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let mut out = DriveOutcome {
        answered: 0,
        divergent: 0,
        faulted: 0,
        shards_seen: HashSet::new(),
        elapsed: Duration::ZERO,
        evictions: 0,
        respawns: 0,
    };
    for (i, x) in inputs.iter().enumerate() {
        let key = format!("request-{i}");
        let pending = router
            .submit_timeout(key.as_bytes(), x.clone(), Duration::from_secs(30))
            .map_err(|e| e.to_string())?;
        match pending.wait() {
            Ok(r) => {
                out.answered += 1;
                out.shards_seen.insert(r.shard);
                if r.logits != expected[i] {
                    out.divergent += 1;
                }
            }
            // The kill drill fails exactly the request in flight on the
            // dying shard; the router evicts, reroutes, and respawns.
            Err(ClusterError::ShardFault { .. }) if drill_armed => out.faulted += 1,
            Err(e) => return Err(e.to_string()),
        }
    }
    out.elapsed = started.elapsed();
    if out.faulted > 0 {
        // The forwarder evicts before it fails the request, but the
        // respawn (process restart + reconnect) completes asynchronously:
        // block on the respawn event instead of sleep-polling.
        let _ = router.wait_respawns(1, Duration::from_secs(10));
    }
    out.evictions = router.evictions();
    out.respawns = router.respawns();
    router.shutdown();
    Ok(out)
}

fn serve_cluster(args: &[String]) -> Result<(), String> {
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let net_path = if smoke_mode {
        None
    } else {
        Some(args.first().ok_or("missing network file (or --smoke)")?.clone())
    };
    let desc = if smoke_mode {
        NetworkDescription::parse(SMOKE_NETWORK).map_err(|e| e.to_string())?
    } else {
        load(args)?
    };
    let shards = flag(args, "--shards", 2usize)?.max(1);
    let workers = flag(args, "--workers", 1usize)?.max(1);
    let requests = flag(args, "--requests", 32usize)?.max(1);
    let transport_name = opt_flag(args, "--transport")?.unwrap_or_else(|| "uds".to_string());
    let metrics_path = opt_flag(args, "--metrics-json")?;
    let drill: Option<(usize, u64)> = match opt_flag(args, "--inject-fault")? {
        None => None,
        Some(spec) => {
            let parsed = spec
                .split_once(':')
                .and_then(|(s, n)| Some((s.parse::<usize>().ok()?, n.parse::<u64>().ok()?)));
            let (shard, after) = parsed.ok_or("--inject-fault wants SHARD:AFTER_N")?;
            if shard >= shards {
                return Err(format!("--inject-fault shard {shard} out of range (0..{shards})"));
            }
            Some((shard, after))
        }
    };

    spg_cnn::telemetry::reset();
    spg_cnn::telemetry::set_enabled(true);

    // Reference replica: planned exactly like the single-process serve
    // path (heuristic cores = 1 forward plans), which every shard replica
    // mirrors — responses must be bit-identical to this engine's forward.
    let mut net = desc.build(42).map_err(|e| e.to_string())?;
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.try_plan_network_forward(&mut net).map_err(|e| e.to_string())?;
    let engine = Engine::builder().network(net).build().map_err(|e| e.to_string())?;
    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let data = Dataset::synthetic(shape, engine.network().output_len(), requests, 0.15, 11);
    let inputs: Vec<Vec<f32>> =
        (0..data.len()).map(|i| data.image(i).as_slice().to_vec()).collect();
    let expected: Vec<Vec<f32>> = inputs
        .iter()
        .map(|x| engine.forward(x).map(|t| t.as_slice().to_vec()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let net = engine.into_shared();
    let config =
        RouterConfig { shards, queue_capacity: requests.max(8), ..RouterConfig::default() };

    let mut common = vec!["--workers".to_string(), workers.to_string()];
    if let Some(p) = &net_path {
        common.extend(["--net".to_string(), p.clone()]);
    }
    let launcher = ShardLauncher {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        common,
        drill: Mutex::new(drill),
    };
    let mut tmp_dir: Option<PathBuf> = None;
    let spawner: Arc<dyn ShardSpawner> = match transport_name.as_str() {
        "inproc" => {
            if drill.is_some() {
                return Err(
                    "--inject-fault kills a shard process; use --transport uds or tcp".into()
                );
            }
            let serve_config = ServeConfig {
                workers,
                queue_capacity: config.queue_capacity,
                ..ServeConfig::default()
            };
            Arc::new(move |_shard: usize| {
                let server = Server::start(Arc::clone(&net), &plans, serve_config.clone())
                    .map_err(|e| ClusterError::Config { detail: e.to_string() })?;
                Ok(Box::new(InProcShard::new(server)) as Box<dyn ShardBackend>)
            })
        }
        "uds" => {
            let dir = std::env::temp_dir().join(format!("spgcnn-cluster-{}", std::process::id()));
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            tmp_dir = Some(dir.clone());
            Arc::new(move |shard: usize| {
                let socket = dir.join(format!("shard_{shard}.sock"));
                launcher.launch(shard, ["--socket", &socket.display().to_string()], || {
                    std::os::unix::net::UnixStream::connect(&socket)
                })
            })
        }
        "tcp" => {
            let base_port = flag(args, "--base-port", 17870u16)?;
            let ports = (0..shards)
                .map(|s| u16::try_from(s).ok().and_then(|s| base_port.checked_add(s)))
                .collect::<Option<Vec<u16>>>()
                .ok_or("--base-port too high for the shard count")?;
            Arc::new(move |shard: usize| {
                let port = ports[shard];
                launcher.launch(shard, ["--tcp-port", &port.to_string()], || {
                    let stream = std::net::TcpStream::connect(("127.0.0.1", port))?;
                    stream.set_nodelay(true).ok();
                    Ok(stream)
                })
            })
        }
        other => return Err(format!("unknown transport `{other}` (expected uds, tcp, or inproc)")),
    };

    let outcome = drive_requests(spawner, &config, &inputs, &expected, drill.is_some());
    if let Some(dir) = tmp_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    spg_cnn::telemetry::set_enabled(false);
    let outcome = outcome?;

    println!(
        "routed {requests} request(s) across {shards} shard(s) over {transport_name}: \
         {:.0} requests/s, {} shard(s) answered",
        outcome.answered as f64 / outcome.elapsed.as_secs_f64().max(1e-9),
        outcome.shards_seen.len()
    );
    if outcome.divergent > 0 {
        return Err(format!(
            "{}/{requests} responses diverged from the single-sample forward path",
            outcome.divergent
        ));
    }
    println!("all completed responses bit-identical to the single-sample forward path");
    if shards >= 2 && outcome.answered >= 8 && outcome.shards_seen.len() < 2 {
        return Err("consistent hashing sent every key to one shard".into());
    }
    if drill.is_some() {
        if outcome.faulted != 1 || outcome.evictions == 0 || outcome.respawns == 0 {
            return Err(format!(
                "shard-kill drill expected exactly one typed ShardFault plus an eviction \
                 and a respawn; saw {} fault(s), {} eviction(s), {} respawn(s)",
                outcome.faulted, outcome.evictions, outcome.respawns
            ));
        }
        println!(
            "shard-kill drill passed: one in-flight request failed typed, the shard was \
             evicted and respawned, every other key was unaffected"
        );
    }
    if smoke_mode || metrics_path.is_some() {
        let meta = [
            ("command", "serve-cluster".to_string()),
            ("network", desc.name.clone()),
            ("shards", shards.to_string()),
            ("workers_per_shard", workers.to_string()),
            ("requests", requests.to_string()),
            ("transport", transport_name.clone()),
        ];
        emit_metrics(metrics_path.as_deref(), &meta)?;
    }
    Ok(())
}

/// Child entry point: one shard process serving framed inference requests
/// on a Unix or TCP socket until killed (or until its `--die-after` drill
/// fires and it aborts mid-request).
fn cluster_shard(args: &[String]) -> Result<(), String> {
    let workers = flag(args, "--workers", 1usize)?.max(1);
    let die_after = match opt_flag(args, "--die-after")? {
        None => None,
        Some(v) => Some(v.parse::<u64>().map_err(|_| "invalid --die-after".to_string())?),
    };
    let desc = child_desc(args)?;
    let mut net = desc.build(42).map_err(|e| e.to_string())?;
    // Same deterministic seed and forward planning as the parent's
    // reference engine, so this replica's replies are bit-identical to it.
    let framework = Framework::new(1, TuningMode::Heuristic, 1);
    let plans = framework.try_plan_network_forward(&mut net).map_err(|e| e.to_string())?;
    let server = Server::start(
        Arc::new(net),
        &plans,
        ServeConfig { workers, queue_capacity: 64, ..ServeConfig::default() },
    )
    .map_err(|e| e.to_string())?;
    let drill = die_after.map(|after| KillDrill { after });

    if let Some(path) = opt_flag(args, "--socket")? {
        let path = PathBuf::from(path);
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        loop {
            let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
            match serve_connection(&server, &mut stream, drill) {
                Ok(ConnectionEnd::Killed) => std::process::abort(),
                Ok(ConnectionEnd::Closed) | Err(_) => {}
            }
        }
    } else if let Some(port) = opt_flag(args, "--tcp-port")? {
        let port: u16 = port.parse().map_err(|_| "invalid --tcp-port".to_string())?;
        let listener =
            std::net::TcpListener::bind(("127.0.0.1", port)).map_err(|e| e.to_string())?;
        loop {
            let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
            stream.set_nodelay(true).ok();
            match serve_connection(&server, &mut stream, drill) {
                Ok(ConnectionEnd::Killed) => std::process::abort(),
                Ok(ConnectionEnd::Closed) | Err(_) => {}
            }
        }
    } else {
        Err("cluster-shard needs --socket PATH or --tcp-port PORT".into())
    }
}

/// Extracts the `stats_bits:` line a `cluster-rank` child prints.
fn parse_stats_bits(stdout: &str) -> Option<Vec<u64>> {
    let line = stdout.lines().find_map(|l| l.strip_prefix("stats_bits:"))?;
    line.split_whitespace().map(|t| t.parse().ok()).collect()
}

fn train_cluster(args: &[String]) -> Result<(), String> {
    let smoke_mode = args.iter().any(|a| a == "--smoke");
    let net_path = if smoke_mode {
        None
    } else {
        Some(args.first().ok_or("missing network file (or --smoke)")?.clone())
    };
    let desc = if smoke_mode {
        NetworkDescription::parse(SMOKE_NETWORK).map_err(|e| e.to_string())?
    } else {
        load(args)?
    };
    let world = flag(args, "--world", 2usize)?.max(1);
    let epochs = flag(args, "--epochs", 2usize)?.max(1);
    let samples = flag(args, "--samples", 24usize)?.max(world);
    let batch = flag(args, "--batch", 8usize)?.max(1);
    let in_proc = args.iter().any(|a| a == "--in-proc");
    let metrics_path = opt_flag(args, "--metrics-json")?;
    let fault = match opt_flag(args, "--inject-fault")? {
        None => None,
        Some(spec) => {
            Some(TrainFault::parse(&spec).ok_or("--inject-fault wants RANK:EPOCH:BATCH")?)
        }
    };
    if fault.is_some() && !in_proc {
        return Err("--inject-fault drills the in-proc ring; add --in-proc".into());
    }

    spg_cnn::telemetry::reset();
    spg_cnn::telemetry::set_enabled(true);

    let trainer =
        TrainerConfig { epochs, batch_size: batch, momentum: 0.9, ..TrainerConfig::default() };
    // The bit-identity oracle: the unmodified single-process SGD pool on
    // the same seed, data, and schedule.
    let mut ref_net = desc.build(42).map_err(|e| e.to_string())?;
    let classes = ref_net.output_len();
    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let mut ref_data = Dataset::synthetic(shape, classes, samples, 0.15, 77);
    let reference = Trainer::new(trainer.clone()).train(&mut ref_net, &mut ref_data);
    let ref_bits = stats_bits(&reference);

    println!("single-process pool reference ({samples} samples, batch {batch}):");
    println!("epoch  loss     accuracy");
    for s in &reference {
        println!("{:>5}  {:<7.4}  {:.3}", s.epoch, s.mean_loss, s.accuracy);
    }

    if in_proc {
        let text = match &net_path {
            None => SMOKE_NETWORK.to_string(),
            Some(p) => std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
        };
        let factory = move || {
            let bad = |m: String| spg_error::Error::new(spg_error::ErrorKind::InvalidNetwork, m);
            let d = NetworkDescription::parse(&text).map_err(|e| bad(e.to_string()))?;
            d.build(42).map_err(|e| bad(e.to_string()))
        };
        let data = Dataset::synthetic(shape, classes, samples, 0.15, 77);
        let opts = InProcTrainOptions { world, fault, ..InProcTrainOptions::default() };
        let stats = train_in_proc(&factory, &data, &trainer, &opts).map_err(|e| e.to_string())?;
        if stats_bits(&stats) != ref_bits {
            return Err("cluster epoch statistics diverged from the single-process pool".into());
        }
        println!(
            "in-proc ring over {world} rank(s): epoch statistics bit-identical to the \
             single-process pool"
        );
        if fault.is_some() {
            let snap = spg_cnn::telemetry::snapshot();
            if snap.counter("cluster.train.faults") == 0 {
                return Err("fault injection requested but no ring fault was recorded".into());
            }
            println!(
                "ring fault drill passed: the cluster replayed from committed rank state \
                 and still matches the pool bit for bit"
            );
        }
    } else {
        let dir = std::env::temp_dir().join(format!("spgcnn-ring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut children = Vec::new();
        for rank in 0..world {
            let mut cmd = Command::new(&exe);
            cmd.arg("cluster-rank")
                .args(["--rank", &rank.to_string()])
                .args(["--world", &world.to_string()])
                .args(["--epochs", &epochs.to_string()])
                .args(["--samples", &samples.to_string()])
                .args(["--batch", &batch.to_string()])
                .arg("--dir")
                .arg(&dir)
                .stdout(Stdio::piped());
            if let Some(p) = &net_path {
                cmd.args(["--net", p]);
            }
            children.push(cmd.spawn().map_err(|e| e.to_string())?);
        }
        let mut failure = None;
        for (rank, child) in children.into_iter().enumerate() {
            let out = child.wait_with_output().map_err(|e| e.to_string())?;
            if failure.is_some() {
                continue; // keep reaping the remaining children
            }
            if !out.status.success() {
                failure = Some(format!("rank {rank} exited with {}", out.status));
                continue;
            }
            let stdout = String::from_utf8_lossy(&out.stdout);
            match parse_stats_bits(&stdout) {
                None => failure = Some(format!("rank {rank} printed no stats_bits line")),
                Some(bits) if bits != ref_bits => {
                    failure = Some(format!(
                        "rank {rank} epoch statistics diverged from the single-process pool"
                    ));
                }
                Some(_) => {}
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        if let Some(e) = failure {
            return Err(e);
        }
        println!(
            "ring all-reduce over {world} rank process(es) (Unix sockets): every rank's \
             epoch statistics bit-identical to the single-process pool"
        );
    }
    spg_cnn::telemetry::set_enabled(false);
    if smoke_mode || metrics_path.is_some() {
        let meta = [
            ("command", "train-cluster".to_string()),
            ("network", desc.name.clone()),
            ("world", world.to_string()),
            ("epochs", epochs.to_string()),
            ("samples", samples.to_string()),
            ("mode", if in_proc { "in-proc".to_string() } else { "uds-ring".to_string() }),
        ];
        emit_metrics(metrics_path.as_deref(), &meta)?;
    }
    Ok(())
}

/// Child entry point: one training rank in the multi-process Unix-socket
/// ring. Binds its own listener, dials the next rank, accepts the previous
/// one, runs the synchronized epochs, and prints its epoch statistics'
/// bits for the parent to compare against the single-process pool.
fn cluster_rank(args: &[String]) -> Result<(), String> {
    let rank = flag(args, "--rank", 0usize)?;
    let world = flag(args, "--world", 1usize)?.max(1);
    let dir = PathBuf::from(opt_flag(args, "--dir")?.ok_or("cluster-rank needs --dir")?);
    let epochs = flag(args, "--epochs", 2usize)?.max(1);
    let samples = flag(args, "--samples", 24usize)?.max(1);
    let batch = flag(args, "--batch", 8usize)?.max(1);
    let desc = child_desc(args)?;
    let mut net = desc.build(42).map_err(|e| e.to_string())?;
    let shape = Shape3::new(desc.input.c, desc.input.h, desc.input.w);
    let mut data = Dataset::synthetic(shape, net.output_len(), samples, 0.15, 77);
    let trainer =
        TrainerConfig { epochs, batch_size: batch, momentum: 0.9, ..TrainerConfig::default() };

    let opts = RankOptions { rank, world, chunk_floats: DEFAULT_CHUNK_FLOATS, fault: None };
    let mut progress = Progress::fresh(&net);
    let stats = if world == 1 {
        // One rank is its ring's first and last rank at once: the chain
        // reads and writes nothing.
        let (rx, tx) = (&mut std::io::empty(), &mut std::io::sink());
        run_rank(&mut net, &mut data, &trainer, &opts, rx, tx, &mut progress)
    } else {
        // Ring rendezvous: every rank binds before dialing, so the dial
        // to the next rank only needs to wait for its bind (the listen
        // backlog holds the connection until it accepts).
        let my_sock = dir.join(format!("rank_{rank}.sock"));
        let _ = std::fs::remove_file(&my_sock);
        let listener = std::os::unix::net::UnixListener::bind(&my_sock)
            .map_err(|e| format!("{}: {e}", my_sock.display()))?;
        let next = dir.join(format!("rank_{}.sock", (rank + 1) % world));
        let mut tx = connect_retry(|| std::os::unix::net::UnixStream::connect(&next))
            .map_err(|e| format!("{}: {e}", next.display()))?;
        let (mut rx, _) = listener.accept().map_err(|e| e.to_string())?;
        run_rank(&mut net, &mut data, &trainer, &opts, &mut rx, &mut tx, &mut progress)
    }
    .map_err(|e| e.to_string())?;
    let bits: Vec<String> = stats_bits(&stats).iter().map(u64::to_string).collect();
    println!("stats_bits: {}", bits.join(" "));
    Ok(())
}

fn bench_cluster(args: &[String]) -> Result<(), String> {
    let json_path = opt_flag(args, "--json")?;
    let gradient_mb = flag(args, "--gradient-mb", 16usize)?.max(1);
    let step_ms = flag(args, "--step-ms", 500u64)?.max(1);
    let gradient_bytes = gradient_mb << 20;
    let step_seconds = step_ms as f64 / 1e3;
    let nodes = [1usize, 2, 4, 8, 16, 64];
    let fabrics = [("loopback", Interconnect::loopback()), ("10gbe", Interconnect::ten_gbe())];

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"spgcnn-bench-cluster\",\n");
    out.push_str("  \"schema_version\": 2,\n");
    out.push_str(&format!("  \"gradient_bytes\": {gradient_bytes},\n"));
    out.push_str(&format!("  \"single_node_step_seconds\": {step_seconds:.6},\n"));
    out.push_str("  \"fabrics\": [\n");
    for (fi, (name, ic)) in fabrics.iter().enumerate() {
        println!(
            "fabric {name}: {:.2} GB/s links, {:.0} us latency; gradient {gradient_mb} MiB, \
             single-node step {step_ms} ms",
            ic.link_bandwidth_gbs, ic.link_latency_us
        );
        println!("nodes  compute-ms  ring-ms   ring-eff");
        let points = cluster_scaling(ic, step_seconds, gradient_bytes, &nodes);
        for p in &points {
            println!(
                "{:>5}  {:>10.3}  {:>8.3}  {:>8.3}",
                p.nodes,
                p.compute_seconds * 1e3,
                p.ring_seconds * 1e3,
                p.ring_efficiency
            );
        }
        println!();
        out.push_str("    {\n");
        out.push_str(&format!("      \"fabric\": \"{name}\",\n"));
        out.push_str(&format!("      \"link_bandwidth_gbs\": {:.3},\n", ic.link_bandwidth_gbs));
        out.push_str(&format!("      \"link_latency_us\": {:.1},\n", ic.link_latency_us));
        out.push_str("      \"points\": [\n");
        for (pi, p) in points.iter().enumerate() {
            out.push_str(&format!(
                "        {{\"nodes\": {}, \"compute_seconds\": {:.9}, \
                 \"ring_seconds\": {:.9}, \"ring_efficiency\": {:.6}}}{}\n",
                p.nodes,
                p.compute_seconds,
                p.ring_seconds,
                p.ring_efficiency,
                if pi + 1 < points.len() { "," } else { "" }
            ));
        }
        out.push_str("      ]\n");
        out.push_str(if fi + 1 < fabrics.len() { "    },\n" } else { "    }\n" });
    }
    out.push_str("  ]\n}\n");
    match json_path {
        Some(path) => {
            std::fs::write(&path, &out).map_err(|e| format!("{path}: {e}"))?;
            println!("scaling curves written to {path}");
        }
        None => print!("{out}"),
    }
    Ok(())
}
