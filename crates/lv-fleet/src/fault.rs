//! Deterministic fault injection: a seeded [`FaultSpec`] expands into a
//! [`FaultPlan`] — a time-sorted schedule of node crashes/restarts,
//! transient straggler slowdowns, and a correlated "rack" outage hitting
//! a contiguous run of nodes at once. The plan is a pure function of
//! (spec, node count), so every fault schedule is reproducible from one
//! seed and composable with any workload trace: `FleetSim` merges the
//! plan's events into the same global clock as the arrivals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::FleetError;

/// Sub-stream salts so crash/straggler/rack schedules are independent
/// draws from one user-facing seed (same idiom as the router/burst salts).
const CRASH_SEED_SALT: u64 = 0x517C_C1B7_2722_0A95;
const STRAGGLER_SEED_SALT: u64 = 0x2545_F491_4F6C_DD1D;
const RACK_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Which fault family a run injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// No faults (the control run).
    None,
    /// Independent node crash/restart cycles.
    Crash,
    /// Transient service-time slowdowns on individual nodes.
    Straggler,
    /// One correlated outage taking down a contiguous group of nodes.
    Rack,
    /// Crash + straggler + rack together.
    All,
}

/// Every scenario, in report order.
pub const ALL_SCENARIOS: [FaultScenario; 5] = [
    FaultScenario::None,
    FaultScenario::Crash,
    FaultScenario::Straggler,
    FaultScenario::Rack,
    FaultScenario::All,
];

impl FaultScenario {
    /// Short display name used in reports, CSV rows and `--faults`.
    pub fn name(self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Crash => "crash",
            Self::Straggler => "straggler",
            Self::Rack => "rack",
            Self::All => "all",
        }
    }

    /// Parse a `--faults` value.
    pub fn parse(s: &str) -> Option<Self> {
        ALL_SCENARIOS.into_iter().find(|sc| sc.name() == s)
    }
}

/// What happens to a node at a fault instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Node crashes: queue and in-flight work lost, offers refused.
    Down,
    /// Node restarts cold (idle replicas).
    Up,
    /// Service times multiply by the factor until [`FaultAction::SlowEnd`].
    SlowStart(f64),
    /// Straggler window ends; nominal speed restored.
    SlowEnd,
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// Simulated time of the fault.
    pub at_s: f64,
    /// Fleet node index it hits.
    pub node: usize,
    /// What happens.
    pub action: FaultAction,
}

/// A seeded fault schedule generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Fault family to inject.
    pub scenario: FaultScenario,
    /// Seed for every fault draw (independent of the workload seed).
    pub seed: u64,
    /// Faults are generated inside `[0, horizon_s)`; restarts may land
    /// after it so every crash eventually heals.
    pub horizon_s: f64,
    /// Mean time between crashes per node, seconds (exponential).
    pub crash_mtbf_s: f64,
    /// Mean node repair time, seconds (exponential).
    pub crash_repair_s: f64,
    /// Mean time between straggler episodes per node, seconds.
    pub straggler_mtbf_s: f64,
    /// Fixed straggler episode length, seconds.
    pub straggler_duration_s: f64,
    /// Service-time multiplier during an episode (> 1).
    pub straggler_slowdown: f64,
    /// When the rack outage hits, as a fraction of the horizon.
    pub rack_at_frac: f64,
    /// Fraction of the fleet the rack outage takes down (rounded up).
    pub rack_width_frac: f64,
    /// Fixed rack repair time, seconds.
    pub rack_repair_s: f64,
}

impl FaultSpec {
    /// Defaults sized so a `horizon_s`-long run sees roughly two crash
    /// cycles and a handful of straggler episodes per affected node.
    pub fn scenario(scenario: FaultScenario, seed: u64, horizon_s: f64) -> Self {
        Self {
            scenario,
            seed,
            horizon_s,
            crash_mtbf_s: horizon_s / 2.0,
            crash_repair_s: horizon_s / 8.0,
            straggler_mtbf_s: horizon_s / 3.0,
            straggler_duration_s: horizon_s / 10.0,
            straggler_slowdown: 4.0,
            rack_at_frac: 0.35,
            rack_width_frac: 0.34,
            rack_repair_s: horizon_s / 6.0,
        }
    }

    /// Reject degenerate fault specs with a typed error.
    pub fn validate(&self) -> Result<(), FleetError> {
        let pos = |v: f64| v.is_finite() && v > 0.0;
        if !pos(self.horizon_s)
            || !pos(self.crash_mtbf_s)
            || !pos(self.crash_repair_s)
            || !pos(self.straggler_mtbf_s)
            || !pos(self.straggler_duration_s)
            || !pos(self.rack_repair_s)
        {
            return Err(FleetError::InvalidFaults("fault times must be positive and finite"));
        }
        if !self.straggler_slowdown.is_finite() || self.straggler_slowdown <= 1.0 {
            return Err(FleetError::InvalidFaults("straggler slowdown must be > 1"));
        }
        if !(0.0..=1.0).contains(&self.rack_at_frac)
            || !(0.0..=1.0).contains(&self.rack_width_frac)
            || self.rack_width_frac == 0.0
        {
            return Err(FleetError::InvalidFaults("rack fractions must be in (0, 1]"));
        }
        Ok(())
    }

    /// Expand into a time-sorted plan for a fleet of `nodes` nodes. Pure
    /// function of (self, nodes); re-planning is bit-identical.
    pub fn plan(&self, nodes: usize) -> FaultPlan {
        let mut events = Vec::new();
        let crash = matches!(self.scenario, FaultScenario::Crash | FaultScenario::All);
        let straggler = matches!(self.scenario, FaultScenario::Straggler | FaultScenario::All);
        let rack = matches!(self.scenario, FaultScenario::Rack | FaultScenario::All);

        if crash {
            for node in 0..nodes {
                let mut rng = node_rng(self.seed, CRASH_SEED_SALT, node);
                let mut t = exp_sample(&mut rng, self.crash_mtbf_s);
                while t < self.horizon_s {
                    let up_at = t + exp_sample(&mut rng, self.crash_repair_s);
                    events.push(FaultEvent { at_s: t, node, action: FaultAction::Down });
                    events.push(FaultEvent { at_s: up_at, node, action: FaultAction::Up });
                    t = up_at + exp_sample(&mut rng, self.crash_mtbf_s);
                }
            }
        }
        if straggler {
            for node in 0..nodes {
                let mut rng = node_rng(self.seed, STRAGGLER_SEED_SALT, node);
                let mut t = exp_sample(&mut rng, self.straggler_mtbf_s);
                while t < self.horizon_s {
                    let end = t + self.straggler_duration_s;
                    events.push(FaultEvent {
                        at_s: t,
                        node,
                        action: FaultAction::SlowStart(self.straggler_slowdown),
                    });
                    events.push(FaultEvent { at_s: end, node, action: FaultAction::SlowEnd });
                    t = end + exp_sample(&mut rng, self.straggler_mtbf_s);
                }
            }
        }
        if rack && nodes > 0 {
            let mut rng = node_rng(self.seed, RACK_SEED_SALT, 0);
            let width = ((nodes as f64 * self.rack_width_frac).ceil() as usize).clamp(1, nodes);
            let start = rng.gen_range(0..nodes - width + 1);
            let at_s = self.rack_at_frac * self.horizon_s;
            for node in start..start + width {
                events.push(FaultEvent { at_s, node, action: FaultAction::Down });
                events.push(FaultEvent {
                    at_s: at_s + self.rack_repair_s,
                    node,
                    action: FaultAction::Up,
                });
            }
        }

        events.sort_by(|a, b| a.at_s.total_cmp(&b.at_s).then(a.node.cmp(&b.node)));
        FaultPlan { events }
    }
}

/// A concrete, time-sorted fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Scheduled faults, ascending by time (ties by node index).
    pub events: Vec<FaultEvent>,
}

fn node_rng(seed: u64, salt: u64, node: usize) -> StdRng {
    // Golden-ratio stride keeps per-node streams distinct even for
    // adjacent node indices.
    StdRng::seed_from_u64(seed ^ salt ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn exp_sample(rng: &mut StdRng, mean_s: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean_s * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_every_scenario() {
        for sc in ALL_SCENARIOS {
            assert_eq!(FaultScenario::parse(sc.name()), Some(sc));
        }
        assert_eq!(FaultScenario::parse("nope"), None);
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let spec = FaultSpec::scenario(FaultScenario::All, 7, 40.0);
        assert_eq!(spec.plan(6), spec.plan(6));
        let other = FaultSpec { seed: 8, ..spec };
        assert_ne!(spec.plan(6), other.plan(6), "seed must move the schedule");
    }

    #[test]
    fn crash_plan_pairs_every_down_with_a_later_up() {
        let spec = FaultSpec::scenario(FaultScenario::Crash, 3, 60.0);
        let plan = spec.plan(4);
        assert!(!plan.events.is_empty());
        for node in 0..4 {
            let mut depth = 0i64;
            let mut last_t = f64::NEG_INFINITY;
            for e in plan.events.iter().filter(|e| e.node == node) {
                assert!(e.at_s >= last_t, "per-node events are time-sorted");
                last_t = e.at_s;
                match e.action {
                    FaultAction::Down => depth += 1,
                    FaultAction::Up => depth -= 1,
                    other => panic!("crash plan has {other:?}"),
                }
                assert!((0..=1).contains(&depth), "crash windows never overlap per node");
            }
            assert_eq!(depth, 0, "every crash heals");
        }
    }

    #[test]
    fn rack_hits_a_contiguous_block_at_once() {
        let spec = FaultSpec::scenario(FaultScenario::Rack, 11, 30.0);
        let plan = spec.plan(6);
        let downs: Vec<&FaultEvent> =
            plan.events.iter().filter(|e| e.action == FaultAction::Down).collect();
        // 34% of 6 nodes, rounded up = 3 nodes, all at the same instant.
        assert_eq!(downs.len(), 3);
        assert!(downs.windows(2).all(|w| w[0].at_s == w[1].at_s && w[1].node == w[0].node + 1));
        assert!((downs[0].at_s - 0.35 * 30.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let good = FaultSpec::scenario(FaultScenario::All, 1, 10.0);
        assert!(good.validate().is_ok());
        assert!(FaultSpec { straggler_slowdown: 1.0, ..good }.validate().is_err());
        assert!(FaultSpec { horizon_s: 0.0, ..good }.validate().is_err());
        assert!(FaultSpec { rack_width_frac: 0.0, ..good }.validate().is_err());
    }
}
