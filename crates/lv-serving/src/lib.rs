//! # lv-serving — one serving node and its parts
//!
//! The paper's motivating deployment scenario (Paper II §1): a serving
//! framework (Triton/BentoML-style) runs co-located replicas of a CNN on a
//! multicore long-vector chip, load-balancing incoming requests. Co-running
//! replicas compete for the shared L2, which the paper sidesteps with
//! static, CAT-like cache partitioning — each replica sees an isolated
//! slice. This crate models one such chip:
//!
//! * [`partition_l2`] — the per-replica cache share,
//! * [`colocated_throughput`] — the steady-state images/cycle model behind
//!   Fig. 12's throughput-area Pareto analysis,
//! * [`contention`] — what the CAT assumption is worth, by L2 trace replay,
//! * [`node::EngineNode`] — one chip's serving node, stepped through time
//!   by a caller.
//!
//! ## Node architecture
//!
//! The node is assembled from three submodules:
//!
//! * [`queue`] — a **bounded admission queue**. Arrivals beyond the
//!   configured capacity are rejected immediately (backpressure), and
//!   queued requests whose deadline passes before service starts are shed
//!   at dispatch time. Both paths are tallied per
//!   [`metrics::DropReason`] instead of disappearing.
//! * [`batch`] — **dynamic batching**. A batch launches when `max_batch`
//!   requests are waiting (size trigger) or the oldest has waited
//!   `max_wait_s` (time trigger). Batch cost is `setup + per-item`:
//!   `setup_frac · max(unit) + (1 − setup_frac) · Σ unit`, so a batch of
//!   one costs exactly its measured unit time and large batches approach a
//!   `1/(1 − setup_frac)` throughput gain.
//! * [`metrics`] — **observability**: exact nearest-rank latency
//!   percentiles (rank `ceil(n·p)`, never biased low), per-replica
//!   counters and drop statistics. Latencies are recorded per replica and
//!   folded together with [`metrics::LatencyHistogram::merge`], which is
//!   exact (raw samples), so the same merge aggregates replicas into a
//!   node total or whole nodes into fleet-level percentiles.
//!
//! [`node`] puts them behind an `advance(t)` / `offer(request)`
//! interface. The node owns no clock and no arrival process: the event
//! loop lives in `lv-fleet`, whose `FleetSim` drives one node per chip
//! against one shared clock. The single-chip `serve` artifact in
//! `lv-bench` is a one-node fleet, with request classes whose unit costs
//! come from the simulated per-layer grid plus the paper's per-layer
//! algorithm selector.

#![warn(missing_docs)]

pub mod batch;
pub mod contention;
pub mod metrics;
pub mod node;
pub mod queue;

pub use batch::BatchPolicy;
pub use metrics::{DropStats, LatencyHistogram, LatencySummary};
pub use node::{EngineNode, NodeConfig, NodeEvent};
pub use queue::QueuedRequest;

/// Why a serving node could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServingError {
    /// `replicas == 0`: no server to dispatch to.
    NoReplicas,
    /// Queue capacity of zero would reject every request.
    ZeroQueueCapacity,
    /// `max_batch == 0` can never launch a batch.
    ZeroBatch,
    /// `batch_setup_frac` outside `[0, 1)`.
    InvalidSetupFrac(f64),
    /// Non-positive or non-finite relative deadline.
    InvalidDeadline(f64),
    /// `strict_deadline` requires a deadline to enforce.
    StrictWithoutDeadline,
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoReplicas => write!(f, "replicas must be > 0"),
            Self::ZeroQueueCapacity => write!(f, "queue capacity must be > 0"),
            Self::ZeroBatch => write!(f, "max_batch must be >= 1"),
            Self::InvalidSetupFrac(v) => write!(f, "batch_setup_frac must be in [0,1), got {v}"),
            Self::InvalidDeadline(v) => write!(f, "deadline must be positive, got {v}"),
            Self::StrictWithoutDeadline => {
                write!(f, "strict_deadline requires deadline_s to be set")
            }
        }
    }
}

impl std::error::Error for ServingError {}

/// Split a shared L2 of `total_mib` across `replicas` equal, isolated
/// partitions (Intel-CAT-like way partitioning). Returns the per-replica
/// share in MiB, snapped *down* to one of `measured_sizes` (the cache sizes
/// the per-layer grid was simulated at). Returns `None` when the share is
/// smaller than the smallest measured size.
pub fn partition_l2(total_mib: usize, replicas: usize, measured_sizes: &[usize]) -> Option<usize> {
    assert!(replicas > 0);
    let share = total_mib / replicas;
    measured_sizes.iter().copied().filter(|&s| s <= share).max()
}

/// Steady-state throughput (images per cycle) of `replicas` co-located
/// model instances, each pinned to its own core and running one inference
/// at a time in `cycles_per_image` cycles (measured at the partitioned
/// cache size). This is the model behind the paper's Fig. 12.
pub fn colocated_throughput(replicas: usize, cycles_per_image: u64) -> f64 {
    assert!(cycles_per_image > 0);
    replicas as f64 / cycles_per_image as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_snaps_down() {
        let sizes = [1, 4, 16, 64];
        assert_eq!(partition_l2(64, 4, &sizes), Some(16));
        assert_eq!(partition_l2(64, 2, &sizes), Some(16)); // 32 -> 16
        assert_eq!(partition_l2(64, 1, &sizes), Some(64));
        assert_eq!(partition_l2(16, 5, &sizes), Some(1)); // 3 -> 1
        assert_eq!(partition_l2(4, 8, &sizes), None);
    }

    #[test]
    fn throughput_scales_with_replicas() {
        let t1 = colocated_throughput(1, 1_000_000);
        let t4 = colocated_throughput(4, 1_000_000);
        assert!((t4 / t1 - 4.0).abs() < 1e-12);
    }
}
