//! `fleet-chaos`: the `fleet` and `chaos` artifacts at the benchmark
//! seed. Set-up warms the chip menu's cells, so the timed phase is
//! `lv-fleet`'s event loop over `lv-serving::EngineNode`s.

use std::path::PathBuf;
use std::time::Instant;

use lv_bench::chaos::chaos_report;
use lv_bench::fleet::fleet_report;
use lv_bench::grid::{policy_cycles, results_dir, table1_layers, GridRow, P2_L2S};
use lv_bench::plan::{Executor, Model, SweepPlan};
use lv_bench::trace::TraceCtx;
use lv_conv::ALL_ALGOS;
use lv_fleet::{
    Bursts, ChipSpec, DegradePolicy, Diurnal, FaultScenario, FaultSpec, FaultTolerance,
    FleetConfig, FleetSim, HedgePolicy, Policy, WorkloadSpec, ALL_POLICIES,
};
use lv_models::BackendKind;
use lv_serving::partition_l2;

use crate::util::{
    exec_opts, median, quantile, repeat_for, repeat_setup, secs, timed, traced_pairs, Checks,
    Metrics, Timed, WorkDir,
};
use crate::{layers, Outcome, Res, Run};

/// The artifacts' chip menu: (name, vlen bits, shared L2 MiB, replicas).
const MENU: [(&str, usize, usize, usize); 3] =
    [("small", 1024, 2, 2), ("knee", 2048, 2, 2), ("big", 4096, 32, 2)];
/// Request classes and their mix, as in the artifacts.
const CLASSES: [&str; 2] = ["vgg16", "yolov3-20"];
const WEIGHTS: [f64; 2] = [0.6, 0.4];
/// The seed the committed `results/fleet.csv` and `chaos.csv` were made at.
const GOLDEN_SEED: u64 = 42;

/// The chip menu's cells on the fast tier, full and half resolution (the
/// chaos artifact's degraded service tables).
fn menu_plans() -> Vec<SweepPlan> {
    let mut plans = Vec::new();
    for (name, vlen, l2, reps) in MENU {
        let part = partition_l2(l2, reps, &P2_L2S).expect("menu L2 lands on a measured partition");
        for scale in [1.0, 0.5] {
            plans.push(
                SweepPlan::new(&format!("bench-menu-{name}-{scale}"))
                    .layers(Model::Vgg16)
                    .layers(Model::Yolo20)
                    .scale(scale)
                    .vlens(&[vlen])
                    .l2s(&[part])
                    .algos(&ALL_ALGOS)
                    .backend(BackendKind::Fast),
            );
        }
    }
    plans
}

/// Optimal-policy conv-stack seconds of `model` at (vlen, L2) on a 2 GHz
/// clock, as the artifacts derive service times.
fn stack_seconds(rows: &[GridRow], model: &str, vlen: usize, l2: usize) -> f64 {
    let cycles: u64 = table1_layers(1.0)
        .iter()
        .filter(|(m, _, _)| m == model)
        .map(|(_, l, _)| policy_cycles(rows, model, *l, vlen, l2, None).unwrap_or(0))
        .sum();
    cycles as f64 / 2e9
}

struct Setup {
    cache_dir: PathBuf,
    /// Chip-menu cells warmed into the cache.
    cells: usize,
    /// small, knee, big — with degraded service tables.
    chips: Vec<ChipSpec>,
}

fn setup(work: &WorkDir) -> Res<Setup> {
    let cache_dir = work.fresh("fleet-cache")?;
    let exec = Executor::new(exec_opts(cache_dir.clone()));
    let off = TraceCtx::disabled();
    let outs = menu_plans().iter().map(|p| exec.run(p, &off)).collect::<Result<Vec<_>, _>>()?;
    let cells = outs.iter().map(|o| o.report.simulated).sum();
    let outs: Vec<Vec<GridRow>> = outs.into_iter().map(|o| o.rows).collect();
    let chips = MENU
        .iter()
        .zip(outs.chunks(2))
        .map(|(&(name, vlen, l2, reps), rows)| {
            let part = partition_l2(l2, reps, &P2_L2S).expect("menu L2 partition");
            let service_s: Vec<f64> =
                CLASSES.iter().map(|m| stack_seconds(&rows[0], m, vlen, part)).collect();
            let degraded = CLASSES
                .iter()
                .zip(&service_s)
                .map(|(m, &s)| stack_seconds(&rows[1], m, vlen, part).min(s))
                .collect();
            ChipSpec {
                name: name.into(),
                vlen_bits: vlen,
                l2_mib: l2,
                replicas: reps,
                service_s,
                degraded_service_s: Some(degraded),
            }
        })
        .collect();
    Ok(Setup { cache_dir, cells, chips })
}

/// What one pass of both artifacts wrote, and how much it simulated.
struct FleetPass {
    fleet_csv: String,
    chaos_csv: String,
    requests: usize,
    wall: f64,
}

/// Requests per point, from a report header's "(N requests/point".
fn requests_per_point(report: &str) -> Res<usize> {
    let head = report.split(" requests/point").next().unwrap_or("");
    let n = head.rsplit('(').next().unwrap_or("");
    n.trim().parse().map_err(|_| format!("no requests/point in report header: {head}").into())
}

fn data_rows(csv: &str) -> usize {
    csv.lines().count().saturating_sub(1)
}

/// One pass: a fresh executor over the warmed cache, then both artifacts.
fn pass(s: &Setup, seed: u64, ctx: &TraceCtx) -> Res<FleetPass> {
    let t = Instant::now();
    let exec = timed(ctx, "plan.Executor::new", || Executor::new(exec_opts(s.cache_dir.clone())));
    let fleet = timed(ctx, "lv-bench.fleet_report", || fleet_report(1.0, &exec, ctx, seed))?;
    let chaos = timed(ctx, "lv-bench.chaos_report", || chaos_report(1.0, &exec, ctx, seed, None))?;
    let wall = secs(t);
    let fleet_csv = std::fs::read_to_string(results_dir().join("fleet.csv"))?;
    let chaos_csv = std::fs::read_to_string(results_dir().join("chaos.csv"))?;
    // Every csv row is one simulated point; the fleet artifact adds its
    // two-run autoscale ablation on top.
    let requests = requests_per_point(&fleet)? * (data_rows(&fleet_csv) + 2)
        + requests_per_point(&chaos)? * data_rows(&chaos_csv);
    Ok(FleetPass { fleet_csv, chaos_csv, requests, wall })
}

fn workload(rate: f64, requests: usize, seed: u64) -> WorkloadSpec {
    let duration = requests as f64 / rate;
    WorkloadSpec {
        rate_rps: rate,
        requests,
        class_weights: WEIGHTS.to_vec(),
        diurnal: Some(Diurnal { amplitude: 0.3, period_s: duration / 3.0 }),
        bursts: Some(Bursts {
            factor: 2.0,
            mean_interval_s: duration / 2.0,
            duration_s: duration / 15.0,
        }),
        seed,
    }
}

/// Fleet points replayed through `FleetSim::run` with public configs:
/// `(faulted, config)`. The owning workload replays every composition x
/// policy fault-free and every fleet x scenario x tolerance under faults;
/// the reference probe a few of each.
fn replay_points(chips: &[ChipSpec], seed: u64, full: bool) -> Vec<(bool, FleetConfig)> {
    let (small, knee, big) = (&chips[0], &chips[1], &chips[2]);
    let het =
        vec![small.clone(), small.clone(), knee.clone(), knee.clone(), big.clone(), big.clone()];
    let mean_svc = knee.service_s.iter().zip(WEIGHTS).map(|(s, w)| s * w).sum::<f64>();
    let slo_s = 8.0 * mean_svc / WEIGHTS.iter().sum::<f64>();
    let capacity = |c: &[ChipSpec]| c.iter().map(|c| c.capacity_rps(&WEIGHTS)).sum::<f64>();
    let mut comps = vec![vec![knee.clone(); 6], het];
    if full {
        comps.push(vec![small.clone(); 6]);
        comps.push(vec![big.clone(); 6]);
    }
    let policies: Vec<Policy> =
        if full { ALL_POLICIES.to_vec() } else { vec![Policy::RoundRobin, Policy::ModelAffinity] };
    let scenarios: Vec<FaultScenario> = if full {
        vec![
            FaultScenario::Crash,
            FaultScenario::Straggler,
            FaultScenario::Rack,
            FaultScenario::All,
        ]
    } else {
        vec![FaultScenario::All]
    };
    let full_stack = FaultTolerance {
        hedge: Some(HedgePolicy::basic()),
        degrade: Some(DegradePolicy::basic()),
        ..FaultTolerance::recovering()
    };
    let tolerances = if full {
        vec![FaultTolerance::none(), FaultTolerance::recovering(), full_stack]
    } else {
        vec![FaultTolerance::recovering(), full_stack]
    };

    let mut points = Vec::new();
    for (ci, chips) in comps.iter().enumerate() {
        for &policy in &policies {
            let wl = workload(0.85 * capacity(chips), 6_000, seed + ci as u64);
            let cfg = FleetConfig {
                admission_control: true,
                ..FleetConfig::basic(chips.clone(), policy, wl, slo_s)
            };
            points.push((false, cfg));
        }
    }
    for (ci, chips) in comps.iter().take(2).enumerate() {
        let rate = 0.6 * capacity(chips);
        for &scenario in &scenarios {
            for &tolerance in &tolerances {
                let cfg = FleetConfig {
                    admission_control: true,
                    faults: Some(FaultSpec::scenario(scenario, seed + 7_000, 3_000.0 / rate)),
                    tolerance,
                    ..FleetConfig::basic(
                        chips.clone(),
                        Policy::ModelAffinity,
                        workload(rate, 3_000, seed + ci as u64),
                        slo_s,
                    )
                };
                points.push((true, cfg));
            }
        }
    }
    points
}

/// `lv-fleet` per-layer metrics over replayed points;
/// every replayed report must conserve requests.
pub fn layer_metrics(
    run: &Run,
    ctx: &TraceCtx,
    m: &mut Metrics,
    checks: &mut Checks,
    full: bool,
) -> Res<()> {
    let s = setup(&run.work)?;
    let (mut gen_ms, mut nofault_ms, mut fault_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut requests, mut retries, mut hedges, mut run_s) = (0u64, 0u64, 0u64, 0.0);
    for (faulted, cfg) in replay_points(&s.chips, run.seed, full) {
        let t = Instant::now();
        let arrivals = timed(ctx, "lv-fleet.WorkloadSpec::generate", || cfg.workload.generate())?;
        gen_ms.push(secs(t) * 1e3);
        let sim = FleetSim::new(cfg)?;
        let t = Instant::now();
        let rep = timed(ctx, "lv-fleet.FleetSim::run", || sim.run());
        let dt = secs(t);
        run_s += dt;
        if faulted { &mut fault_ms } else { &mut nofault_ms }.push(dt * 1e3);
        checks.check(
            rep.completed as u64 + rep.drops.total() == rep.requests as u64
                && rep.requests == arrivals.len(),
            || {
                format!(
                    "{}: completed {} + drops {} != requests {}",
                    rep.policy,
                    rep.completed,
                    rep.drops.total(),
                    rep.requests
                )
            },
        );
        requests += rep.requests as u64;
        retries += rep.resilience.retries;
        hedges += rep.resilience.hedges;
    }
    m.put("lv-fleet.generate_ms", median(&gen_ms), "ms");
    m.put("lv-fleet.run_ms.nofault.p50", median(&nofault_ms), "ms");
    m.put("lv-fleet.run_ms.nofault.p90", quantile(&nofault_ms, 0.9), "ms");
    m.put("lv-fleet.run_ms.faults.p50", median(&fault_ms), "ms");
    m.put("lv-fleet.run_ms.faults.p90", quantile(&fault_ms, 0.9), "ms");
    m.put("lv-fleet.ns_per_request", run_s * 1e9 / requests.max(1) as f64, "ns");
    m.put("lv-fleet.requests", requests as f64, "count");
    m.put("lv-fleet.retries", retries as f64, "count");
    m.put("lv-fleet.hedges", hedges as f64, "count");
    Ok(())
}

fn check_golden(s: &Setup, seed: u64, first: &FleetPass, checks: &mut Checks) -> Res<()> {
    let golden = if seed == GOLDEN_SEED {
        (first.fleet_csv.clone(), first.chaos_csv.clone())
    } else {
        let p = pass(s, GOLDEN_SEED, &TraceCtx::disabled())?;
        (p.fleet_csv, p.chaos_csv)
    };
    for (name, got) in [("fleet.csv", &golden.0), ("chaos.csv", &golden.1)] {
        let committed = std::fs::read_to_string(PathBuf::from("results").join(name))?;
        checks.check(*got == committed, || {
            format!("results/{name} at seed {GOLDEN_SEED} differs from the committed file")
        });
    }
    Ok(())
}

pub fn run(run: &Run, checks: &mut Checks) -> Res<Outcome> {
    let mut o = Outcome::default();
    let (s, setup_s) = repeat_setup(|| setup(&run.work))?;
    o.cells = s.cells;
    let cache_len = std::fs::metadata(s.cache_dir.join("cells.jsonl"))?.len();
    let off = TraceCtx::disabled();
    let passes = if run.trace {
        let ctx = TraceCtx::enabled();
        let (passes, overhead) =
            traced_pairs(run.seconds, &ctx, |c| pass(&s, run.seed, c), |p| p.wall)?;
        o.layers.put("lv-trace.overhead_pct", overhead, "%");
        layers::all(run, &ctx, &mut o.layers, checks, None, None, true)?;
        layers::print_self_time(&ctx);
        passes
    } else {
        let passes = repeat_for(run.seconds, || pass(&s, run.seed, &off), |p| p.wall)?;
        let rate = |t: &Timed<FleetPass>| t.pass.requests as f64 / t.wall;
        o.put_e2e(setup_s, &passes, rate, "sim_requests_per_s", "req/s");
        // The reference replay keeps the conservation check on every seed.
        layer_metrics(run, &off, &mut Metrics::default(), checks, false)?;
        passes.into_iter().map(|t| t.pass).collect()
    };
    o.requests = passes[0].requests;
    for p in &passes {
        checks.check(
            p.fleet_csv == passes[0].fleet_csv && p.chaos_csv == passes[0].chaos_csv,
            || format!("fleet/chaos csv changed between passes at seed {}", run.seed),
        );
        checks.check(p.requests == passes[0].requests, || {
            "request count changed between passes".into()
        });
    }
    checks.check(std::fs::metadata(s.cache_dir.join("cells.jsonl"))?.len() == cache_len, || {
        "set-up did not warm every chip-menu cell the artifacts read".into()
    });
    check_golden(&s, run.seed, &passes[0], checks)?;
    Ok(o)
}
