//! SGD pool merge order: f32 association must not depend on the
//! schedule.
//!
//! Distills the merge protocol of `spg_convnet::sgd`'s pool fold (the
//! worker-pool implementation of `BatchFold`): sample `j` goes
//! to worker `j % W` over a per-worker job channel, workers push
//! per-sample gradient records back on per-worker result channels, and
//! the merger receives **in sample order** — `recv` from
//! `result_rx[j % W]` for `j = 0, 1, 2, …` — then folds the batch once,
//! every parameter adding its samples in that order (the model folds as
//! it receives, which is the same sequence of additions), so the f32
//! accumulation order (and hence the bit pattern of every weight) is a
//! function of the batch alone, not of worker timing. Supervision does not enter this protocol: a faulted
//! worker retries its sample in place (under `spg_sync::supervise`, which
//! [`super::serve_pool`] proves) on the same two channels, so the merger
//! sees one result per job, in job order, fault or no fault — the merge
//! modelled here is the whole of the production merge.
//!
//! The gradient values are chosen so that a changed association is a
//! changed bit pattern (`1e8 + 1 - 1e8 ≠ 1e8 - 1e8 + 1` in f32). The
//! `MergeArrivalOrder` mutation merges from one shared channel in
//! arrival order instead — bit-identical only on lucky schedules, which
//! is exactly the flakiness the in-order protocol exists to kill, and the
//! checker must find a schedule that differs.

use crate::sync::{channel, Receiver, Sender};
use crate::{explore, invariant, thread, Config, RaceError, Report};

/// Seeded bug classes for the merge scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Merge gradients in arrival order off a single shared channel,
    /// the way a naive pool would.
    MergeArrivalOrder,
}

const WORKERS: usize = 2;
const BATCH: usize = 4;

/// Association-sensitive per-sample gradients: mixing large and small
/// magnitudes makes every reordering visible in the accumulated bits.
fn grad(sample: usize) -> f32 {
    match sample % 4 {
        0 => 1.0e8,
        1 => 1.0,
        2 => -1.0e8,
        _ => 1.0,
    }
}

/// The canonical accumulation: samples folded in batch order.
fn canonical() -> f32 {
    let mut acc = 0.0f32;
    for j in 0..BATCH {
        acc += grad(j);
    }
    acc
}

/// Workers compute out of order (the scheduler sees to that); the
/// merger must still accumulate bit-identically to `canonical` on
/// every interleaving.
pub fn merge_order(mutation: Option<Mutation>) -> Result<Report, RaceError> {
    let name = match mutation {
        None => "sgd.merge_order[in-order]",
        Some(Mutation::MergeArrivalOrder) => "sgd.merge_order[arrival-order]",
    };
    let cfg = Config::new(name);
    let arrival_order = mutation == Some(Mutation::MergeArrivalOrder);
    explore(&cfg, move || {
        // Per-worker job and result channels, as in the pool fold; the
        // mutation collapses results onto one shared channel.
        let mut job_txs: Vec<Sender<usize>> = Vec::new();
        let mut handles = Vec::new();
        let mut result_rxs: Vec<Receiver<(usize, f32)>> = Vec::new();
        let (shared_tx, shared_rx) = channel::<(usize, f32)>();
        for w in 0..WORKERS {
            let (jtx, jrx) = channel::<usize>();
            let (rtx, rrx) = channel::<(usize, f32)>();
            job_txs.push(jtx);
            result_rxs.push(rrx);
            let shared = shared_tx.clone();
            handles.push(thread::spawn_named(format!("sgd-worker-{w}"), move || {
                while let Ok(j) = jrx.recv() {
                    let g = grad(j);
                    if arrival_order {
                        let _ = shared.send((j, g));
                    } else {
                        let _ = rtx.send((j, g));
                    }
                }
            }));
        }
        drop(shared_tx);

        // Dispatch: sample j -> worker j % W, in sample order.
        for j in 0..BATCH {
            job_txs[j % WORKERS]
                .send(j)
                .unwrap_or_else(|_| panic!("worker {} hung up early", j % WORKERS));
        }
        drop(job_txs);

        // Merge.
        let mut acc = 0.0f32;
        if arrival_order {
            for _ in 0..BATCH {
                let (_j, g) = shared_rx.recv().expect("worker dropped mid-batch");
                acc += g;
            }
        } else {
            for j in 0..BATCH {
                let (jj, g) = result_rxs[j % WORKERS].recv().expect("worker dropped mid-batch");
                invariant(jj == j, "sgd.results-in-sample-order", || {
                    format!("worker {} returned sample {jj} when {j} was due", j % WORKERS)
                });
                acc += g;
            }
        }
        for h in handles {
            h.join();
        }
        let want = canonical();
        invariant(acc.to_bits() == want.to_bits(), "sgd.merge-order-bit-identical", || {
            format!(
                "accumulated {acc:?} (bits {:#010x}) != canonical {want:?} (bits {:#010x})",
                acc.to_bits(),
                want.to_bits()
            )
        });
    })
}
