//! Conformance tests for the single-chip serving engine, run as a
//! one-node fleet: deterministic replay under a fixed seed, FIFO dispatch
//! (batching never reorders admitted requests), arrival conservation
//! under backpressure, and trace transparency (`run_traced` reports
//! byte-identically to `run`).

use lv_fleet::{ChipSpec, FleetConfig, FleetSim, Policy, WorkloadSpec};
use lv_serving::BatchPolicy;
use lv_trace::{PointEvent, Tracer};

fn one_node(replicas: usize, service_s: &[f64], workload: WorkloadSpec) -> FleetConfig {
    let chip = ChipSpec {
        name: "one".into(),
        vlen_bits: 2048,
        l2_mib: 64,
        replicas,
        service_s: service_s.to_vec(),
        degraded_service_s: None,
    };
    FleetConfig::basic(vec![chip], Policy::RoundRobin, workload, 0.2)
}

/// A moderately loaded two-class node exercising batching, a finite
/// queue and deadline shedding all at once.
fn stress_config(seed: u64) -> FleetConfig {
    let workload =
        WorkloadSpec { class_weights: vec![1.0, 2.0], ..WorkloadSpec::basic(150.0, 600, 2, seed) };
    FleetConfig {
        queue_capacity: 24,
        deadline_s: Some(0.12),
        batch: BatchPolicy::new(4, 0.004),
        batch_setup_frac: 0.3,
        ..one_node(3, &[0.020, 0.045], workload)
    }
}

#[test]
fn identical_seed_replays_byte_identically() {
    let a = FleetSim::new(stress_config(11)).unwrap().run();
    let b = FleetSim::new(stress_config(11)).unwrap().run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed must replay exactly");

    let c = FleetSim::new(stress_config(12)).unwrap().run();
    assert_ne!(
        format!("{a:?}"),
        format!("{c:?}"),
        "a different seed must draw a different arrival process"
    );
}

#[test]
fn traced_run_reports_identically_to_untraced() {
    let sim = FleetSim::new(stress_config(7)).unwrap();
    let plain = sim.run();
    let tracer = Tracer::enabled();
    let traced = sim.run_traced(&tracer, 3);
    assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "tracing must not perturb the run");
    assert!(
        !tracer.snapshot_points().is_empty(),
        "an enabled tracer must have observed request lifecycle events"
    );
}

#[test]
fn batching_never_reorders_admitted_requests() {
    // The admission queue is FIFO and batches pop from its head, so the
    // order in which requests *leave* the queue (whether dispatched into a
    // batch or shed at a deadline) must follow arrival order exactly. The
    // tracer's `queue` async phases are correlated by arrival sequence
    // number, and the loop emits events in simulated-time order, so the
    // stream of `queue`-phase ends must carry strictly increasing ids.
    let tracer = Tracer::enabled();
    let report = FleetSim::new(stress_config(21)).unwrap().run_traced(&tracer, 0);
    assert!(report.completed > 0);

    let mut last_id: Option<u64> = None;
    let mut ends = 0usize;
    for ev in tracer.snapshot_points() {
        if let PointEvent::AsyncEnd { id, name, .. } = ev {
            if name == "queue" {
                if let Some(prev) = last_id {
                    assert!(
                        id > prev,
                        "request {id} left the queue after request {prev}: dispatch reordered"
                    );
                }
                last_id = Some(id);
                ends += 1;
            }
        }
    }
    // Every admitted request leaves the queue exactly once (completion or
    // deadline shed); only queue-full rejections never enter it.
    let admitted = 600 - report.drops.queue_full as usize;
    assert_eq!(ends, admitted, "every admitted request must leave the queue exactly once");
}

#[test]
fn every_arrival_is_served_or_counted_dropped() {
    let report = FleetSim::new(stress_config(33)).unwrap().run();
    assert_eq!(
        report.completed + report.drops.total() as usize,
        600,
        "arrivals must be conserved: completed + dropped == issued"
    );
    assert!(report.drops.queue_full > 0, "the stress config must exercise backpressure");
    assert!(report.drops.deadline > 0, "the stress config must exercise shedding");
    assert!(report.latency.count == report.completed);
    let node = &report.nodes[0];
    assert!(node.mean_batch_size >= 1.0, "batches hold at least one request");
    assert!(node.utilization > 0.0 && node.utilization <= 1.0);
}

#[test]
fn unloaded_engine_batches_singly_and_drops_nothing() {
    // Arrivals far apart relative to service time: every batch should be a
    // singleton (time trigger with an empty tail), nothing dropped, and
    // latency ~ unit cost + max_wait.
    let cfg = FleetConfig {
        batch: BatchPolicy::new(8, 0.001),
        batch_setup_frac: 0.2,
        ..one_node(2, &[0.002], WorkloadSpec::basic(20.0, 200, 1, 5))
    };
    let report = FleetSim::new(cfg).unwrap().run();
    assert_eq!(report.completed, 200);
    assert_eq!(report.drops.total(), 0);
    assert!(
        report.nodes[0].mean_batch_size < 1.5,
        "an unloaded engine must not accumulate batches (got {})",
        report.nodes[0].mean_batch_size
    );
    assert!(report.latency.max_s >= 0.002 + 0.001 - 1e-12);
}
