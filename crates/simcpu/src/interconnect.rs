//! Interconnect bandwidth/latency term for multi-node all-reduce
//! scaling curves.
//!
//! The paper's Sec. 3 model explains single-machine scaling through
//! per-core arithmetic intensity; extending the same style of analysis
//! across machines needs one more term: the synchronous gradient
//! all-reduce on the interconnect. `spg-cluster` implements the real
//! chain-ring all-reduce over a wire protocol; this module is its
//! analytical cost model, in the α–β tradition: each node sends and
//! receives `2 (N-1)/N · G` bytes over its two links in `2 (N-1)`
//! pipelined steps — `t = 2 (N-1)/N · G / BW + 2 (N-1) · α`.
//! Bandwidth-optimal: the per-node traffic approaches `2G` regardless of
//! `N`, so the bandwidth term is flat in node count and only the latency
//! term grows (linearly) — the curves the emitted `BENCH_cluster.json`
//! exhibits.

/// Point-to-point link parameters of the cluster interconnect.
#[derive(Debug, Clone, PartialEq)]
pub struct Interconnect {
    /// Sustained per-link bandwidth in GB/s.
    pub link_bandwidth_gbs: f64,
    /// Per-message link latency (the α term) in microseconds.
    pub link_latency_us: f64,
}

impl Interconnect {
    /// Loopback transport (UDS / localhost TCP) as used by the
    /// multi-process smoke: high bandwidth, sub-10 µs latency.
    pub fn loopback() -> Self {
        Interconnect { link_bandwidth_gbs: 8.0, link_latency_us: 8.0 }
    }

    /// A 10 GbE cluster fabric: 1.25 GB/s per link, tens of
    /// microseconds of latency.
    pub fn ten_gbe() -> Self {
        Interconnect { link_bandwidth_gbs: 1.25, link_latency_us: 40.0 }
    }

    /// Seconds for a chain-ring all-reduce of `gradient_bytes` across
    /// `nodes` (reduce leg plus broadcast leg, `2 (N-1)` pipelined
    /// chunk steps).
    pub fn ring_allreduce_seconds(&self, gradient_bytes: usize, nodes: usize) -> f64 {
        if nodes <= 1 {
            return 0.0;
        }
        let n = nodes as f64;
        let bytes = gradient_bytes as f64;
        let bw = self.link_bandwidth_gbs * 1e9;
        2.0 * (n - 1.0) / n * bytes / bw + 2.0 * (n - 1.0) * self.link_latency_us * 1e-6
    }
}

/// One node count on a cluster scaling curve.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterPoint {
    /// Cluster size.
    pub nodes: usize,
    /// Per-node compute seconds per step (strong scaling: the global
    /// batch splits evenly, so compute shrinks as `1/N`).
    pub compute_seconds: f64,
    /// Ring all-reduce seconds per step.
    pub ring_seconds: f64,
    /// Ring parallel efficiency: speedup over one node divided by `N`.
    pub ring_efficiency: f64,
}

/// Strong-scaling curve for synchronous data-parallel SGD: one global
/// batch whose compute (`single_node_step_seconds` on one node) splits
/// evenly across nodes, followed by an all-reduce of `gradient_bytes`.
///
/// Efficiency is `speedup / N` with
/// `speedup = t(1) / (t_compute(N) + t_allreduce(N))`; 1.0 is ideal.
pub fn cluster_scaling(
    interconnect: &Interconnect,
    single_node_step_seconds: f64,
    gradient_bytes: usize,
    node_counts: &[usize],
) -> Vec<ClusterPoint> {
    node_counts
        .iter()
        .map(|&nodes| {
            let n = nodes.max(1);
            let compute = single_node_step_seconds / n as f64;
            let ring = interconnect.ring_allreduce_seconds(gradient_bytes, n);
            ClusterPoint {
                nodes: n,
                compute_seconds: compute,
                ring_seconds: ring,
                ring_efficiency: (single_node_step_seconds / (compute + ring)) / n as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: usize = 1 << 20;

    #[test]
    fn single_node_needs_no_communication() {
        let ic = Interconnect::loopback();
        assert_eq!(ic.ring_allreduce_seconds(64 * MB, 1), 0.0);
    }

    #[test]
    fn ring_bandwidth_term_is_flat_in_node_count() {
        // The ring's defining property: per-node bytes approach 2G, so
        // on a latency-free link the time saturates instead of growing.
        let ic = Interconnect { link_bandwidth_gbs: 1.0, link_latency_us: 0.0 };
        let t8 = ic.ring_allreduce_seconds(64 * MB, 8);
        let t64 = ic.ring_allreduce_seconds(64 * MB, 64);
        assert!(t64 < t8 * 1.15, "ring time grew with nodes: {t8} -> {t64}");
    }

    #[test]
    fn efficiency_degrades_monotonically_with_scale() {
        let ic = Interconnect::ten_gbe();
        let points = cluster_scaling(&ic, 0.5, 16 * MB, &[1, 8, 16, 64]);
        assert_eq!(points.len(), 4);
        assert!((points[0].ring_efficiency - 1.0).abs() < 1e-9, "1 node is ideal");
        for pair in points.windows(2) {
            assert!(
                pair[1].ring_efficiency < pair[0].ring_efficiency,
                "efficiency must fall with node count: {points:?}"
            );
            assert!(pair[1].ring_efficiency > 0.0);
        }
    }

    #[test]
    fn faster_links_shrink_the_allreduce() {
        let slow = Interconnect::ten_gbe();
        let fast = Interconnect::loopback();
        assert!(
            fast.ring_allreduce_seconds(64 * MB, 16) < slow.ring_allreduce_seconds(64 * MB, 16)
        );
    }
}
