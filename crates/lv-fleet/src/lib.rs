//! # lv-fleet — cluster-level serving over heterogeneous chips
//!
//! The paper's throughput/area Pareto frontier (Paper II Figs. 9/10/12)
//! ends with a menu of single-chip design points; the serving question it
//! stops short of is *composition*: given that menu, how do you build a
//! fleet that serves a mixed CNN workload within an SLO at the best
//! throughput-per-mm²? This crate answers it in simulation:
//!
//! * [`chip::ChipSpec`] — one chip on the frontier: a vector length and
//!   shared L2 (the `MachineConfig` design point), co-located replicas,
//!   and per-class service times measured on that silicon; its area comes
//!   from `lv-area`'s 7 nm model.
//! * [`workload`] — trace-driven open-loop arrivals: a Poisson base
//!   process modulated by a mean-one diurnal curve and flash-burst
//!   windows, mixing request classes (VGG-16 / YOLOv3) by weight.
//!   Generation is by thinning, so traces are deterministic per seed.
//! * [`router`] — pluggable load balancing over the per-chip
//!   [`lv_serving::EngineNode`]s: round-robin, join-shortest-queue,
//!   power-of-two-choices, and model-affinity (send a class where it runs
//!   fastest, spill by expected delay).
//! * [`sim::FleetSim`] — the cluster event loop: advance every node to
//!   each arrival, route, optionally reject at admission when the
//!   expected delay already busts the SLO, and let a reactive
//!   [`autoscale::Autoscaler`] add replicas on sustained queue-depth
//!   breach (and, opt-in, retire them when idle). Fleet percentiles are
//!   the exact [`lv_serving::LatencyHistogram::merge`] of every node's
//!   per-replica histograms.
//! * [`fault::FaultPlan`] — deterministic seeded fault injection:
//!   crash/restart windows, straggler slowdowns, and a correlated rack
//!   outage, expanded up front into a timestamped event list so every
//!   chaos run is a pure function of its seed.
//! * [`health`] / [`tolerance`] — envoy-style outlier ejection plus
//!   deadline-budgeted retries, tail hedging, and graceful degradation;
//!   all off by default so the fault-oblivious baseline is preserved
//!   bit-for-bit.
//!
//! Everything is single-threaded and seeded: a fleet run is a pure
//! function of (chips, policy, workload trace, fault plan), independent
//! of host parallelism.

#![warn(missing_docs)]

pub mod autoscale;
pub mod chip;
#[cfg(test)]
mod engine;
pub mod fault;
pub mod health;
pub mod router;
pub mod sim;
pub mod tolerance;
pub mod workload;

pub use autoscale::{AutoscalePolicy, Autoscaler, ScaleDown, ScaleEvent};
pub use chip::ChipSpec;
pub use fault::{FaultAction, FaultEvent, FaultPlan, FaultScenario, FaultSpec, ALL_SCENARIOS};
pub use health::{HealthPolicy, HealthTracker};
pub use router::{Policy, Router, ALL_POLICIES};
pub use sim::{
    AttainSlice, FleetConfig, FleetDrops, FleetNode, FleetReport, FleetSim, NodeSummary,
    ResilienceStats,
};
pub use tolerance::{DegradePolicy, FaultTolerance, HedgePolicy, RetryPolicy};
pub use workload::{Arrival, Bursts, Diurnal, WorkloadSpec};

/// Why a fleet simulation could not be constructed.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A fleet needs at least one chip.
    NoChips,
    /// A workload needs at least one request class with positive weight.
    NoClasses,
    /// A chip's per-class service table disagrees with the class count.
    ClassMismatch {
        /// Offending chip name.
        chip: String,
        /// Service-table length.
        got: usize,
        /// Expected class count.
        want: usize,
    },
    /// Non-positive or non-finite service time on a chip.
    InvalidServiceTime(f64),
    /// Non-positive or non-finite arrival rate.
    InvalidRate(f64),
    /// `requests == 0`: reports would divide by zero.
    NoRequests,
    /// Diurnal amplitude outside `[0, 1)` or non-positive period.
    InvalidDiurnal,
    /// Burst factor < 1, or non-positive interval/duration.
    InvalidBursts,
    /// Non-positive or non-finite SLO.
    InvalidSlo(f64),
    /// A fault-injection spec with degenerate parameters.
    InvalidFaults(&'static str),
    /// A fault-tolerance policy with degenerate parameters.
    InvalidTolerance(&'static str),
    /// A per-chip server config was rejected by `lv-serving`.
    Serving(lv_serving::ServingError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoChips => write!(f, "fleet needs at least one chip"),
            Self::NoClasses => write!(f, "need at least one request class with positive weight"),
            Self::ClassMismatch { chip, got, want } => {
                write!(f, "chip {chip}: {got} service times for {want} classes")
            }
            Self::InvalidServiceTime(v) => write!(f, "service time must be positive, got {v}"),
            Self::InvalidRate(v) => write!(f, "arrival rate must be positive, got {v}"),
            Self::NoRequests => write!(f, "requests must be > 0"),
            Self::InvalidDiurnal => write!(f, "diurnal amplitude must be in [0,1) with period > 0"),
            Self::InvalidBursts => {
                write!(f, "burst factor must be >= 1 with positive interval and duration")
            }
            Self::InvalidSlo(v) => write!(f, "SLO must be positive, got {v}"),
            Self::InvalidFaults(m) => write!(f, "fault spec: {m}"),
            Self::InvalidTolerance(m) => write!(f, "fault tolerance: {m}"),
            Self::Serving(e) => write!(f, "per-chip server config: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<lv_serving::ServingError> for FleetError {
    fn from(e: lv_serving::ServingError) -> Self {
        Self::Serving(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::one_node;

    /// The single-chip `serve` shape at `rate`: 4 replicas of 10 ms
    /// requests, unbounded queue.
    fn base(rate: f64) -> FleetConfig {
        one_node(4, rate, usize::MAX)
    }

    #[test]
    fn zero_requests_is_a_typed_error() {
        let err = |cfg: FleetConfig| FleetSim::new(cfg).unwrap_err();
        let mut cfg = base(100.0);
        cfg.workload.requests = 0;
        assert_eq!(err(cfg), FleetError::NoRequests);
        let mut cfg = base(100.0);
        cfg.chips[0].replicas = 0;
        assert_eq!(err(cfg), FleetError::Serving(lv_serving::ServingError::NoReplicas));
        let mut cfg = base(100.0);
        cfg.chips[0].service_s = vec![0.0];
        assert!(matches!(err(cfg), FleetError::InvalidServiceTime(_)));
        assert!(matches!(err(base(-1.0)), FleetError::InvalidRate(_)));
    }

    #[test]
    fn underloaded_system_has_low_latency() {
        // 4 replicas x 100 img/s capacity each = 400 rps capacity; offer 100.
        let rep = FleetSim::new(base(100.0)).unwrap().run();
        assert!(rep.nodes[0].utilization < 0.5, "util {}", rep.nodes[0].utilization);
        // Latency close to pure service time.
        assert!(rep.latency.p50_s < 0.015);
        assert!((rep.achieved_rps - 100.0).abs() / 100.0 < 0.05);
    }

    #[test]
    fn saturated_system_caps_at_capacity() {
        // Offer 10x capacity: achieved rps ~ 400, latency blows up.
        let rep = FleetSim::new(base(4000.0)).unwrap().run();
        let capacity = 4.0 / 0.010;
        assert!((rep.achieved_rps - capacity).abs() / capacity < 0.05, "rps {}", rep.achieved_rps);
        assert!(rep.nodes[0].utilization > 0.95);
        assert!(rep.latency.p99_s > rep.latency.p50_s * 0.9);
        assert!(rep.latency.mean_s > 0.010);
    }

    #[test]
    fn more_replicas_cut_queueing_latency() {
        let slow = FleetSim::new(base(350.0)).unwrap().run();
        let fast = FleetSim::new(one_node(8, 350.0, usize::MAX)).unwrap().run();
        assert!(fast.latency.p99_s < slow.latency.p99_s);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FleetSim::new(base(100.0)).unwrap().run();
        let b = FleetSim::new(base(100.0)).unwrap().run();
        assert_eq!(a.latency.p99_s, b.latency.p99_s);
    }
}
