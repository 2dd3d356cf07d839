//! Single-chip serving engine checks. One chip behind round-robin with
//! unmodulated Poisson arrivals is the `serve` artifact's serving engine;
//! it runs as a one-node [`FleetSim`], so these tests pin the engine's
//! queueing, shedding and batching behavior on that shape.

use crate::{ChipSpec, FleetConfig, Policy, WorkloadSpec};

/// A chip with no degraded service table.
pub(crate) fn chip(name: &str, vlen: usize, replicas: usize, svc: &[f64]) -> ChipSpec {
    ChipSpec {
        name: name.into(),
        vlen_bits: vlen,
        l2_mib: 4,
        replicas,
        service_s: svc.to_vec(),
        degraded_service_s: None,
    }
}

/// The single-chip `serve` shape: one node of `replicas` 10 ms
/// replicas behind round-robin, one class, 20k Poisson arrivals.
pub(crate) fn one_node(replicas: usize, rate: f64, queue_capacity: usize) -> FleetConfig {
    let wl = WorkloadSpec::basic(rate, 20_000, 1, 9);
    FleetConfig {
        queue_capacity,
        ..FleetConfig::basic(
            vec![chip("one", 2048, replicas, &[0.010])],
            Policy::RoundRobin,
            wl,
            0.08,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetError, FleetSim};
    use lv_serving::{BatchPolicy, ServingError};
    use lv_trace::Tracer;

    fn base(rate: f64) -> FleetConfig {
        one_node(4, rate, usize::MAX)
    }

    #[test]
    fn rejects_degenerate_configs() {
        let err = |cfg: FleetConfig| FleetSim::new(cfg).unwrap_err();
        let wl = base(100.0).workload;
        assert_eq!(
            err(FleetConfig {
                workload: WorkloadSpec { requests: 0, ..wl.clone() },
                ..base(100.0)
            }),
            FleetError::NoRequests
        );
        let mut no_replicas = base(100.0);
        no_replicas.chips[0].replicas = 0;
        assert_eq!(err(no_replicas), FleetError::Serving(ServingError::NoReplicas));
        assert_eq!(
            err(FleetConfig { queue_capacity: 0, ..base(100.0) }),
            FleetError::Serving(ServingError::ZeroQueueCapacity)
        );
        assert_eq!(
            err(FleetConfig {
                workload: WorkloadSpec { class_weights: vec![], ..wl.clone() },
                ..base(100.0)
            }),
            FleetError::NoClasses
        );
        assert!(matches!(
            err(FleetConfig { workload: WorkloadSpec { rate_rps: 0.0, ..wl }, ..base(100.0) }),
            FleetError::InvalidRate(_)
        ));
    }

    #[test]
    fn non_positive_deadline_is_a_typed_error() {
        for d in [0.0, -0.5] {
            assert!(matches!(
                FleetSim::new(FleetConfig { deadline_s: Some(d), ..base(100.0) }).unwrap_err(),
                FleetError::Serving(ServingError::InvalidDeadline(_))
            ));
        }
        assert_eq!(
            FleetSim::new(FleetConfig {
                batch: BatchPolicy { max_batch: 0, max_wait_s: 0.0 },
                ..base(100.0)
            })
            .unwrap_err(),
            FleetError::Serving(ServingError::ZeroBatch)
        );
    }

    /// The node's latency summary is the merge of its per-replica
    /// histograms; on one node without retries it must equal the fleet's
    /// per-request summary exactly.
    #[test]
    fn replica_latency_shards_sum_to_global() {
        let rep = FleetSim::new(base(300.0)).unwrap().run();
        assert_eq!(rep.latency.count, rep.completed);
        assert_eq!(rep.nodes[0].completed, rep.completed);
        assert_eq!(rep.nodes[0].p99_s, rep.latency.p99_s);
        assert!(rep.nodes[0].p99_s <= rep.latency.max_s);
    }

    #[test]
    fn underloaded_engine_matches_service_time() {
        let rep = FleetSim::new(base(100.0)).unwrap().run();
        assert_eq!(rep.drops.total(), 0);
        assert!(rep.latency.p50_s < 0.015, "p50 {}", rep.latency.p50_s);
        assert!((rep.achieved_rps - 100.0).abs() / 100.0 < 0.05);
        assert!(rep.nodes[0].utilization < 0.5);
        assert_eq!(rep.nodes[0].mean_batch_size, 1.0);
    }

    #[test]
    fn bounded_queue_sheds_past_capacity() {
        // 10x overload with a small queue: most arrivals are rejected, but
        // completed requests see bounded waiting (<= capacity ahead of them).
        let rep = FleetSim::new(FleetConfig { queue_capacity: 32, ..base(4000.0) }).unwrap().run();
        assert!(rep.drops.queue_full > 0, "must shed under overload");
        assert!(rep.drop_rate > 0.5, "drop rate {}", rep.drop_rate);
        // Worst case wait: 32 queued ahead / 4 replicas * 10ms + own 10ms.
        let bound = (32.0 / 4.0 + 2.0) * 0.010;
        assert!(rep.latency.p99_s <= bound, "p99 {} vs bound {bound}", rep.latency.p99_s);
        assert!(rep.nodes[0].utilization > 0.95);
        // Achieved throughput still saturates capacity (400 rps).
        assert!((rep.achieved_rps - 400.0).abs() / 400.0 < 0.05, "rps {}", rep.achieved_rps);
    }

    #[test]
    fn unbounded_queue_latency_grows_with_overload() {
        let bounded =
            FleetSim::new(FleetConfig { queue_capacity: 32, ..base(4000.0) }).unwrap().run();
        let unbounded = FleetSim::new(base(4000.0)).unwrap().run();
        assert_eq!(unbounded.drops.total(), 0);
        assert!(
            unbounded.latency.p99_s > 10.0 * bounded.latency.p99_s,
            "unbounded p99 {} should dwarf bounded {}",
            unbounded.latency.p99_s,
            bounded.latency.p99_s
        );
    }

    #[test]
    fn deadlines_shed_stale_work() {
        let cfg = FleetConfig { deadline_s: Some(0.050), ..base(1000.0) }; // 2.5x overload
        let rep = FleetSim::new(cfg).unwrap().run();
        assert!(rep.drops.deadline > 0);
        // Every completed request started within its deadline, so latency
        // is bounded by deadline + service time.
        assert!(rep.latency.max_s <= 0.050 + 0.010 + 1e-9, "max {}", rep.latency.max_s);
    }

    #[test]
    fn batching_raises_capacity_under_overload() {
        let solo = FleetSim::new(FleetConfig { queue_capacity: 64, ..base(4000.0) }).unwrap().run();
        let batched = FleetSim::new(FleetConfig {
            queue_capacity: 64,
            batch: BatchPolicy::new(8, 0.002),
            batch_setup_frac: 0.5,
            ..base(4000.0)
        })
        .unwrap()
        .run();
        assert!(
            batched.nodes[0].mean_batch_size > 2.0,
            "batches form under load: {}",
            batched.nodes[0].mean_batch_size
        );
        assert!(
            batched.achieved_rps > 1.5 * solo.achieved_rps,
            "batched {} vs solo {}",
            batched.achieved_rps,
            solo.achieved_rps
        );
    }

    #[test]
    fn batching_under_light_load_times_out_quickly() {
        // Light traffic never fills a batch of 8; the time trigger must
        // cap the added latency at ~max_wait.
        let cfg =
            FleetConfig { batch: BatchPolicy::new(8, 0.005), batch_setup_frac: 0.5, ..base(50.0) };
        let rep = FleetSim::new(cfg).unwrap().run();
        assert_eq!(rep.drops.total(), 0);
        assert!(rep.nodes[0].mean_batch_size < 1.5, "light load batches almost singly");
        assert!(rep.latency.p50_s >= 0.005, "waits for the batch window");
        assert!(rep.latency.p99_s < 0.005 + 0.010 * 3.0, "p99 {}", rep.latency.p99_s);
    }

    #[test]
    fn heterogeneous_classes_mix_costs() {
        let mut cfg = base(100.0);
        cfg.chips[0].service_s = vec![0.005, 0.020];
        cfg.workload.class_weights = vec![0.5, 0.5];
        let rep = FleetSim::new(cfg).unwrap().run();
        assert_eq!(rep.drops.total(), 0);
        // Mean latency sits between the two unit costs (low load).
        assert!(
            rep.latency.mean_s > 0.005 && rep.latency.mean_s < 0.030,
            "mean {}",
            rep.latency.mean_s
        );
    }

    #[test]
    fn series_and_counters_are_consistent() {
        let rep = FleetSim::new(base(300.0)).unwrap().run();
        assert_eq!(rep.nodes[0].completed, rep.completed);
        assert!((0.0..=1.0).contains(&rep.nodes[0].utilization));
        assert!(!rep.attain_series.is_empty());
        let offered: u64 = rep.attain_series.iter().map(|s| s.offered).sum();
        let within: u64 = rep.attain_series.iter().map(|s| s.within_slo).sum();
        assert_eq!(offered, rep.requests as u64);
        assert!(within <= rep.completed as u64);
        for s in &rep.attain_series {
            assert!(s.within_slo <= s.offered, "slice at {}s", s.t_s);
        }
    }

    /// The event loop is a pure discrete-event simulation, so a traced run
    /// must reproduce the untraced report exactly, and the emitted
    /// lifecycle events must account for every arrival.
    #[test]
    fn traced_run_matches_untraced_and_events_balance() {
        use lv_trace::PointEvent;
        let cfg = FleetConfig {
            queue_capacity: 32,
            deadline_s: Some(0.015),
            batch: BatchPolicy::new(4, 0.002),
            batch_setup_frac: 0.5,
            ..base(1500.0)
        };
        let plain = FleetSim::new(cfg.clone()).unwrap().run();
        let tracer = Tracer::enabled();
        let traced = FleetSim::new(cfg).unwrap().run_traced(&tracer, 7);

        assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "tracing must not perturb");
        assert!(plain.drops.queue_full > 0, "config must exercise backpressure");
        assert!(plain.drops.deadline > 0, "config must exercise shedding");

        // Every admitted request's phases balance; drops match the report.
        let mut begins = std::collections::HashMap::<(u64, String), u64>::new();
        let mut ends = std::collections::HashMap::<(u64, String), u64>::new();
        let (mut queue_full, mut deadline) = (0u64, 0u64);
        for p in tracer.snapshot_points() {
            match p {
                PointEvent::AsyncBegin { id, name, .. } => {
                    *begins.entry((id, name)).or_default() += 1;
                }
                PointEvent::AsyncEnd { id, name, .. } => {
                    *ends.entry((id, name)).or_default() += 1;
                }
                PointEvent::Instant { name, .. } if name == "drop:queue_full" => queue_full += 1,
                PointEvent::Instant { name, .. } if name == "drop:deadline" => deadline += 1,
                _ => {}
            }
        }
        assert_eq!(begins, ends, "every async phase must be closed");
        assert_eq!(queue_full, plain.drops.queue_full);
        assert_eq!(deadline, plain.drops.deadline);
        let opened = |phase: &str| -> u64 {
            begins.iter().filter(|((_, n), _)| n == phase).map(|(_, c)| c).sum()
        };
        assert_eq!(opened("request"), plain.completed as u64 + deadline);
        assert_eq!(opened("execute"), plain.completed as u64);

        // Batch spans on the node track account for every completion.
        let batches: Vec<_> =
            tracer.snapshot_spans().into_iter().filter(|s| s.name.starts_with("batch x")).collect();
        let total_batched: f64 = batches
            .iter()
            .map(|s| s.arg("batch_size").and_then(|v| v.as_f64()).expect("batch_size arg"))
            .sum();
        assert_eq!(total_batched as usize, plain.completed);
        for s in &batches {
            assert!(s.track.pid == 7 && s.track.tid == 2, "batch spans live on the node track");
            assert!(s.dur_us() > 0.0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FleetSim::new(base(350.0)).unwrap().run();
        let b = FleetSim::new(base(350.0)).unwrap().run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
