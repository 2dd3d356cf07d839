//! `cycle-sweep`: a fixed cycle-tier `SweepPlan` run cold into an empty
//! cell cache, so `lv-sim` and the `lv-conv` kernels take the host time.

use std::time::Instant;

use lv_bench::grid::{table1_layers, GridRow};
use lv_bench::plan::{Cell, Executor, SweepOutcome, SweepPlan};
use lv_bench::trace::TraceCtx;
use lv_conv::{Algo, ALL_ALGOS};
use lv_sim::MachineConfig;
use lv_tensor::ConvShape;

use crate::util::{
    exec_opts, repeat_for, repeat_setup, secs, timed, traced_pairs, Checks, Rng, WorkDir,
};
use crate::{layers, Outcome, Res, Run};

/// Paper II grid layers (model, 1-based conv ordinal) at scale 1.0: the
/// cheapest 3x3 layer of VGG-16 and the cheapest 1x1 layer of YOLOv3-20,
/// so every algorithm runs and Winograd is both applicable and not. One
/// cold batch (28 cells) takes about 7 s on one core.
pub const LAYERS: [(&str, usize); 2] = [("vgg16", 1), ("yolov3-20", 6)];
/// Vector lengths (bits) and L2 sizes (MiB): the Paper II grid corners.
pub const VLENS: [usize; 2] = [512, 4096];
pub const L2S: [usize; 2] = [1, 64];

/// The committed cell cache the drift report compares against.
const COMMITTED_CACHE: &str = "results/cache/cells.jsonl";

/// A Table-1 layer's shape at scale 1.0.
pub fn layer_shape(model: &str, ordinal: usize) -> ConvShape {
    table1_layers(1.0)
        .into_iter()
        .find(|(m, l, _)| m == model && *l == ordinal)
        .map(|(_, _, s)| s)
        .expect("the benchmark names Table-1 layers only")
}

/// The sweep, with the seed choosing the order cells are submitted in.
pub fn plan(seed: u64) -> SweepPlan {
    let mut rng = Rng::new(seed);
    let mut plan = SweepPlan::new("bench-cycle");
    for (model, ordinal) in rng.shuffled(&LAYERS) {
        plan = plan.layer(model, ordinal, layer_shape(model, ordinal));
    }
    plan.vlens(&rng.shuffled(&VLENS)).l2s(&rng.shuffled(&L2S)).algos(&rng.shuffled(&ALL_ALGOS))
}

/// The applicable cells of `plan`, in row order.
pub fn cells(plan: &SweepPlan) -> Vec<Cell> {
    plan.expand().into_iter().filter(Cell::applicable).collect()
}

/// The committed cycle-tier values of `plan`'s cells, read through an
/// executor over a private copy of the committed cell cache. `None` when
/// the committed cache does not cover every cell (nothing is simulated).
pub fn committed_rows(plan: &SweepPlan, work: &WorkDir) -> Res<Option<Vec<GridRow>>> {
    let dir = work.fresh("committed")?;
    std::fs::copy(COMMITTED_CACHE, dir.join("cells.jsonl"))
        .map_err(|e| format!("read {COMMITTED_CACHE}: {e}"))?;
    let exec = Executor::new(exec_opts(dir.clone()));
    let (cached, unique) = exec.coverage(plan);
    let rows =
        if cached == unique { Some(exec.run(plan, &TraceCtx::disabled())?.rows) } else { None };
    std::fs::remove_dir_all(&dir)?;
    Ok(rows)
}

/// Cycle drift of `rows` against the committed values: the largest
/// relative difference in percent and the number of cells beyond 1%.
pub fn drift(cycles: &[u64], committed: &[GridRow]) -> (f64, usize) {
    let pct: Vec<f64> = cycles
        .iter()
        .zip(committed)
        .map(|(&r, c)| 100.0 * (r as f64 - c.cycles as f64).abs() / c.cycles.max(1) as f64)
        .collect();
    (pct.iter().copied().fold(0.0, f64::max), pct.iter().filter(|&&p| p > 1.0).count())
}

struct Setup {
    plan: SweepPlan,
    expected: usize,
    committed: Option<Vec<GridRow>>,
}

fn setup(run: &Run) -> Res<Setup> {
    let plan = plan(run.seed);
    let expected = cells(&plan).len();
    let committed = committed_rows(&plan, &run.work)?;
    Ok(Setup { plan, expected, committed })
}

/// One cold batch: a fresh cache dir, a fresh executor, the whole plan.
fn pass(run: &Run, s: &Setup, ctx: &TraceCtx) -> Res<(SweepOutcome, f64)> {
    let dir = run.work.fresh("cycle")?;
    let t = Instant::now();
    let exec = timed(ctx, "plan.Executor::new", || Executor::new(exec_opts(dir.clone())));
    let out = timed(ctx, "plan.Executor::run", || exec.run(&s.plan, ctx))?;
    let wall = secs(t);
    std::fs::remove_dir_all(&dir)?;
    Ok((out, wall))
}

fn check_pass(s: &Setup, out: &SweepOutcome, checks: &mut Checks) {
    let r = out.report;
    checks.check(r.simulated == r.unique && r.hit == 0, || {
        format!("cold run must simulate every unique cell: {r:?}")
    });
    checks.check(r.total == s.expected && out.rows.len() == s.expected, || {
        format!("expected {} rows, report {r:?}, {} rows", s.expected, out.rows.len())
    });
    for row in &out.rows {
        let mvl = (row.vlen_bits / 32) as f64;
        checks.check(
            row.cycles > 0
                && row.avg_vl > 0.0
                && row.avg_vl <= mvl
                && (0.0..=1.0).contains(&row.l2_miss_rate),
            || format!("insane row {row:?}"),
        );
    }
}

/// Every algorithm of the plan against lv-check's f64 oracle under its
/// derived tolerances, on cheap shapes and the plan's design points.
fn check_oracle(checks: &mut Checks) {
    let machines: Vec<(String, MachineConfig)> = VLENS
        .iter()
        .flat_map(|&v| L2S.iter().map(move |&l2| (v, l2)))
        .map(|(v, l2)| {
            let cfg = MachineConfig::builder().vlen_bits(v).l2_mib(l2).build();
            (format!("int{v}/{l2}M"), cfg.expect("grid design points are valid"))
        })
        .collect();
    let shapes = [
        ConvShape::same_pad(3, 8, 10, 3, 1),
        ConvShape::same_pad(4, 6, 9, 3, 2),
        ConvShape::same_pad(8, 16, 6, 1, 1),
    ];
    let mut lint = 0u64;
    let mut kernels: Vec<String> = Vec::new();
    for (i, shape) in shapes.iter().enumerate() {
        for c in lv_check::check_conv_shape(shape, &machines, i as u64 + 1, &mut lint) {
            checks.check(c.pass(), || {
                format!("{} on {} / {}: {}", c.kernel, c.shape, c.machine, c.detail)
            });
            kernels.push(c.kernel);
        }
    }
    for algo in ALL_ALGOS {
        let prefix = match algo {
            Algo::Direct => "direct/",
            Algo::Gemm3 => "gemm3",
            Algo::Gemm6 => "gemm6/",
            Algo::Winograd => "wino/f6",
        };
        checks.check(kernels.iter().any(|k| k.starts_with(prefix)), || {
            format!("no oracle check ran for {}", algo.name())
        });
    }
}

pub fn run(run: &Run, checks: &mut Checks) -> Res<Outcome> {
    let mut o = Outcome::default();
    let (s, setup_s) = repeat_setup(|| setup(run))?;
    o.cells = s.expected;
    let outs: Vec<SweepOutcome> = if run.trace {
        let ctx = TraceCtx::enabled();
        let (outs, overhead) = traced_pairs(run.seconds, &ctx, |c| pass(run, &s, c), |p| p.1)?;
        o.layers.put("lv-trace.overhead_pct", overhead, "%");
        let cells = cells(&s.plan);
        layers::all(run, &ctx, &mut o.layers, checks, Some((&cells, &s.committed)), None, false)?;
        layers::print_self_time(&ctx);
        outs.into_iter().map(|p| p.0).collect()
    } else {
        let outs = repeat_for(run.seconds, || pass(run, &s, &TraceCtx::disabled()), |p| p.1)?;
        let cells = s.expected as f64;
        o.put_e2e(setup_s, &outs, |t| cells / t.wall, "cells_per_s", "cells/s");
        outs.into_iter().map(|t| t.pass.0).collect()
    };

    for out in &outs {
        check_pass(&s, out, checks);
    }
    check_oracle(checks);
    checks.check(s.committed.is_some(), || {
        format!("{COMMITTED_CACHE} does not cover every cell of the sweep")
    });
    if let (false, Some(committed), Some(last)) = (run.trace, &s.committed, outs.last()) {
        // Reported, not gated: host heap addresses still move cycle
        // counts, and the committed values predate this run.
        let cycles: Vec<u64> = last.rows.iter().map(|r| r.cycles).collect();
        let (max_pct, beyond) = drift(&cycles, committed);
        o.info.put("lv-models.cycle_drift_max_pct", max_pct, "%");
        o.info.put("lv-models.cells_beyond_1pct", beyond as f64, "count");
    }
    Ok(o)
}
