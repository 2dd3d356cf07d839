//! The `serve` artifact: a saturation sweep of one serving chip with
//! selector-driven service times.
//!
//! This closes the loop the paper motivates but never simulates end to
//! end: per-layer cycle measurements (the grid) feed the random-forest
//! algorithm selector, whose per-layer picks determine each model's
//! network forward-pass time on a concrete chip configuration; those
//! times become the per-class service times of a multi-replica chip with
//! a bounded admission queue and dynamic batching, run as a one-node
//! `lv-fleet` simulation (round-robin, no faults, no admission control,
//! unmodulated Poisson arrivals). Sweeping offered load from well below
//! to well past saturation shows
//!
//! * below capacity: drop rate ≈ 0 and p50 ≈ the forward-pass time,
//! * past capacity: the bounded queue sheds load and p99 stays finite,
//! * Optimal and Predicted (selector) policies sustain measurably higher
//!   capacity than always-Direct on identical hardware — the serving-side
//!   consequence of Paper II Figs. 9/10.

use std::fmt::Write as _;

use lv_conv::Algo;
use lv_fleet::{ChipSpec, FleetConfig, FleetReport, FleetSim, Policy, WorkloadSpec};
use lv_serving::{partition_l2, BatchPolicy};

use crate::chart::table;
use crate::grid::{policy_cycles, results_dir, table1_layers, GridRow, P2_L2S};
use crate::selector::{evaluate_selector, predicted_cycles, tuned_params, SelectorEval};
use crate::trace::{TraceCtx, PID_SERVING};

/// Simulated clock of the grid measurements (2 GHz).
const CLOCK_HZ: f64 = 2e9;
/// Model replicas co-located on the chip (one per core, as in Fig. 12).
const REPLICAS: usize = 4;
/// Shared L2 capacity of the serving chip, MiB.
const SHARED_L2_MIB: usize = 64;
/// Vector length of the serving cores (the Paper II sweet spot).
const VLEN_BITS: usize = 2048;
/// Admission-queue capacity for the sweep.
const QUEUE_CAP: usize = 64;
/// Arrivals simulated per sweep point.
const REQUESTS: usize = 20_000;

/// Per-model network forward-pass times (seconds) under each policy.
#[derive(Debug, Clone)]
pub struct ModelService {
    /// Model name ("vgg16", "yolov3-20").
    pub model: String,
    /// Always-Direct: every layer runs the direct algorithm.
    pub direct_s: f64,
    /// Optimal: every layer runs its measured-best algorithm.
    pub optimal_s: f64,
    /// Predicted: the cross-validated random-forest selector's picks.
    pub predicted_s: f64,
}

/// Sum the conv-stack cycles of `model` under a fixed policy (or the
/// selector's predictions) at the serving chip's (vlen, per-replica L2).
fn stack_seconds(
    rows: &[GridRow],
    eval: &SelectorEval,
    model: &str,
    l2_mib: usize,
    policy: Option<Option<Algo>>,
) -> f64 {
    let cycles: u64 = table1_layers(1.0)
        .iter()
        .filter(|(m, _, _)| m == model)
        .map(|(_, l, _)| match policy {
            Some(pol) => policy_cycles(rows, model, *l, VLEN_BITS, l2_mib, pol).unwrap_or(0),
            None => predicted_cycles(rows, &eval.predictions, model, *l, VLEN_BITS, l2_mib)
                .or_else(|| policy_cycles(rows, model, *l, VLEN_BITS, l2_mib, None))
                .unwrap_or(0),
        })
        .sum();
    cycles as f64 / CLOCK_HZ
}

/// Network service times for every model in the grid's Table 1 set.
pub fn model_services(rows: &[GridRow], eval: &SelectorEval, l2_mib: usize) -> Vec<ModelService> {
    let mut models: Vec<String> = table1_layers(1.0).iter().map(|(m, _, _)| m.clone()).collect();
    models.dedup();
    models
        .into_iter()
        .map(|model| ModelService {
            direct_s: stack_seconds(rows, eval, &model, l2_mib, Some(Some(Algo::Direct))),
            optimal_s: stack_seconds(rows, eval, &model, l2_mib, Some(None)),
            predicted_s: stack_seconds(rows, eval, &model, l2_mib, None),
            model,
        })
        .collect()
}

/// One sweep point of one policy.
struct SweepPoint {
    offered_rps: f64,
    achieved_rps: f64,
    p50_ms: f64,
    p99_ms: f64,
    drop_rate: f64,
    utilization: f64,
    max_depth: usize,
}

/// How a selection policy reads its per-model service time.
type Pick = fn(&ModelService) -> f64;

/// The serving chip as a one-node fleet: `pick`'s service time per model
/// class, round-robin routing, a uniform class mix of unmodulated Poisson
/// arrivals, and the fleet's usual SLO of 8x the mean service time.
fn one_node(
    services: &[ModelService],
    pick: Pick,
    offered_rps: f64,
    requests: usize,
    seed: u64,
) -> FleetConfig {
    let service_s: Vec<f64> = services.iter().map(pick).collect();
    let classes = service_s.len();
    let slo_s = 8.0 * service_s.iter().sum::<f64>() / classes as f64;
    let chip = ChipSpec {
        name: "serve".into(),
        vlen_bits: VLEN_BITS,
        l2_mib: SHARED_L2_MIB,
        replicas: REPLICAS,
        service_s,
        degraded_service_s: None,
    };
    FleetConfig {
        queue_capacity: QUEUE_CAP,
        ..FleetConfig::basic(
            vec![chip],
            Policy::RoundRobin,
            WorkloadSpec::basic(offered_rps, requests, classes, seed),
            slo_s,
        )
    }
}

fn run(cfg: FleetConfig) -> FleetReport {
    FleetSim::new(cfg).expect("serve config is valid").run()
}

/// Build the `serve` report (and `results/serve.csv`) from grid rows.
/// When `ctx` is recording, one extra short run (Optimal mix at
/// 1.3x capacity, dynamic batching, deadline shedding) emits its request
/// lifecycle into the trace; the sweep itself stays untraced so the
/// reported numbers are identical with and without `--trace`. `seed`
/// (default 42 = the historical hardcoded base) offsets every run's
/// arrival stream, so `repro serve --seed N` resamples the whole
/// sweep.
pub fn serve_report(rows: &[GridRow], ctx: &TraceCtx, seed: u64) -> String {
    let eval = evaluate_selector(rows, tuned_params());
    let l2_mib = partition_l2(SHARED_L2_MIB, REPLICAS, &P2_L2S)
        .expect("64 MiB / 4 replicas lands on a measured L2 size");
    let services = model_services(rows, &eval, l2_mib);

    let mut out = format!(
        "serve: saturation sweep of one multi-replica serving chip\n\
         chip: {REPLICAS} replicas x {VLEN_BITS}b vectors, {SHARED_L2_MIB} MiB shared L2 \
         -> {l2_mib} MiB per replica (CAT partitioning)\n\
         queue capacity {QUEUE_CAP}, open-loop Poisson arrivals, {REQUESTS} requests per point\n\n\
         network forward-pass time per selection policy (conv stack, seconds):\n"
    );
    let svc_rows: Vec<Vec<String>> = services
        .iter()
        .map(|s| {
            vec![
                s.model.clone(),
                format!("{:.4}", s.direct_s),
                format!("{:.4}", s.optimal_s),
                format!("{:.4}", s.predicted_s),
                format!("{:.2}x", s.direct_s / s.optimal_s),
            ]
        })
        .collect();
    out.push_str(&table(&["model", "Direct", "Optimal", "Predicted", "Direct/Optimal"], &svc_rows));

    // Capacity anchor: the always-Direct mix. Sweeping everyone over the
    // same absolute rates makes per-policy capacity differences visible.
    let mean =
        |pick: Pick| -> f64 { services.iter().map(pick).sum::<f64>() / services.len() as f64 };
    let direct_cap = REPLICAS as f64 / mean(|s| s.direct_s);
    let policies: [(&str, Pick); 3] = [
        ("Direct", |s| s.direct_s),
        ("Optimal", |s| s.optimal_s),
        ("Predicted", |s| s.predicted_s),
    ];
    let fracs = [0.3, 0.5, 0.7, 0.85, 1.0, 1.15, 1.3, 1.6, 2.0, 2.5];

    let mut csv = String::from(
        "policy,offered_rps,achieved_rps,p50_ms,p99_ms,drop_rate,utilization,max_queue_depth\n",
    );
    let mut capacities = Vec::new();
    for (pi, &(name, pick)) in policies.iter().enumerate() {
        let mut points = Vec::new();
        for (fi, frac) in fracs.iter().enumerate() {
            let seed = seed + (pi * fracs.len() + fi) as u64;
            let rep = run(one_node(&services, pick, frac * direct_cap, REQUESTS, seed));
            points.push(SweepPoint {
                offered_rps: rep.offered_rps,
                achieved_rps: rep.achieved_rps,
                p50_ms: rep.latency.p50_s * 1e3,
                p99_ms: rep.latency.p99_s * 1e3,
                drop_rate: rep.drop_rate,
                utilization: rep.nodes[0].utilization,
                max_depth: rep.nodes[0].max_queue_depth,
            });
        }
        let _ = writeln!(
            out,
            "\n{name} policy (offered load in x of Direct capacity {direct_cap:.1} rps):"
        );
        let tbl: Vec<Vec<String>> = points
            .iter()
            .zip(&fracs)
            .map(|(p, frac)| {
                vec![
                    format!("{frac:.2}x"),
                    format!("{:.1}", p.offered_rps),
                    format!("{:.1}", p.achieved_rps),
                    format!("{:.1}", p.p50_ms),
                    format!("{:.1}", p.p99_ms),
                    format!("{:.1}%", 100.0 * p.drop_rate),
                    format!("{:.0}%", 100.0 * p.utilization),
                    format!("{}", p.max_depth),
                ]
            })
            .collect();
        out.push_str(&table(
            &["load", "offered", "achieved", "p50 ms", "p99 ms", "drops", "util", "maxQ"],
            &tbl,
        ));
        for p in &points {
            let _ = writeln!(
                csv,
                "{name},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{}",
                p.offered_rps,
                p.achieved_rps,
                p.p50_ms,
                p.p99_ms,
                p.drop_rate,
                p.utilization,
                p.max_depth
            );
        }
        let cap = points.iter().map(|p| p.achieved_rps).fold(f64::MIN, f64::max);
        capacities.push((name, cap));
    }

    let dir_cap = capacities[0].1;
    let _ = writeln!(
        out,
        "\nsustained capacity (max achieved rps over the sweep):\n  {}\n\
         Optimal serves {:.2}x and Predicted {:.2}x the always-Direct capacity on the same silicon\n\
         (paper Figs. 9/10: optimal selection beats always-Direct by up to 1.85x on VGG-16, 1.33x on YOLOv3)",
        capacities
            .iter()
            .map(|(n, c)| format!("{n}: {c:.1} rps"))
            .collect::<Vec<_>>()
            .join("   "),
        capacities[1].1 / dir_cap,
        capacities[2].1 / dir_cap,
    );

    // Batching ablation at 1.5x the Optimal capacity: a per-launch setup
    // cost amortises across the batch, raising sustained throughput.
    let opt_cap = REPLICAS as f64 / mean(|s| s.optimal_s);
    let setup_frac = 0.4;
    let _ = writeln!(
        out,
        "\nbatching ablation (Optimal policy, offered {:.1} rps = 1.5x capacity, setup_frac {setup_frac}):",
        1.5 * opt_cap
    );
    let mut brows = Vec::new();
    for (bi, &b) in [1usize, 2, 4, 8].iter().enumerate() {
        let wait = if b == 1 { 0.0 } else { mean(|s| s.optimal_s) };
        let rep = run(FleetConfig {
            batch: BatchPolicy::new(b, wait),
            batch_setup_frac: setup_frac,
            ..one_node(&services, |s| s.optimal_s, 1.5 * opt_cap, REQUESTS, seed + 1000 + bi as u64)
        });
        let node = &rep.nodes[0];
        brows.push(vec![
            format!("{b}"),
            format!("{:.2}", node.mean_batch_size),
            format!("{:.1}", rep.achieved_rps),
            format!("{:.1}", rep.latency.p99_s * 1e3),
            format!("{:.1}%", 100.0 * rep.drop_rate),
        ]);
        let _ = writeln!(
            csv,
            "Optimal-batch{b},{:.3},{:.3},{:.3},{:.3},{:.4},{:.4},{}",
            rep.offered_rps,
            rep.achieved_rps,
            rep.latency.p50_s * 1e3,
            rep.latency.p99_s * 1e3,
            rep.drop_rate,
            node.utilization,
            node.max_queue_depth
        );
    }
    out.push_str(&table(&["max batch", "mean batch", "achieved", "p99 ms", "drops"], &brows));

    std::fs::write(results_dir().join("serve.csv"), csv).ok();

    // Traced showcase run: small enough to keep the trace readable, loaded
    // enough (1.3x capacity, tight deadline) to exercise every lifecycle
    // event — admit, queue, batch, execute, and both drop reasons.
    if ctx.tracer.is_enabled() {
        let cfg = FleetConfig {
            deadline_s: Some(8.0 * mean(|s| s.optimal_s)),
            batch: BatchPolicy::new(4, mean(|s| s.optimal_s)),
            batch_setup_frac: setup_frac,
            ..one_node(&services, |s| s.optimal_s, 1.3 * opt_cap, 300, seed.wrapping_add(7))
        };
        FleetSim::new(cfg).expect("traced config is valid").run_traced(&ctx.tracer, PID_SERVING);
    }
    out
}
