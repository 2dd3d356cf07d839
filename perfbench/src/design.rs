//! `design-loop`: the fast-tier co-design loop. A dense analytical plan
//! runs cold into an empty cell cache, a fresh executor resolves the same
//! plans from the reloaded cache, and the forest selector is evaluated on
//! the Paper II rows. No `Machine` is built: the executor's write and
//! read paths and `lv-forest` take the host time.

use std::collections::HashSet;
use std::time::Instant;

use lv_bench::grid::{table1_layers, GridRow, P1_VLENS};
use lv_bench::plan::{default_salt, paper2_plan, Cell, Executor, SweepOutcome, SweepPlan};
use lv_bench::selector::{dataset_from_grid, evaluate_selector, tuned_params, SelectorEval};
use lv_bench::trace::TraceCtx;
use lv_conv::ALL_ALGOS;
use lv_forest::{cross_validate, RandomForest};
use lv_models::{BackendKind, FastBackend, SimBackend};

use crate::util::{
    exec_opts, median, median_of, quantile, repeat_for, repeat_setup, secs, timed, traced_pairs,
    Checks, Metrics, Rng, WorkDir,
};
use crate::{layers, Outcome, Res, Run};

/// The dense design space on top of the Paper II grid: Paper I's vector
/// lengths, every power-of-two L2 from 1 to 256 MiB and 1 to 8 lanes,
/// over all Table-1 layers and algorithms.
const DENSE_L2S: [usize; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];
const DENSE_LANES: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
/// Cells compared against direct `FastBackend::measure` calls per pass.
const SAMPLED: usize = 64;
/// `verify`'s `selector.cv-accuracy` band.
const CV_BAND: (f64, f64) = (0.88, 0.98);

/// The Paper II grid on the fast tier (first, so the selector reads its
/// rows), then the dense plan in seed-chosen submission order.
pub fn plans(seed: u64) -> Vec<SweepPlan> {
    let mut rng = Rng::new(seed);
    let mut dense = SweepPlan::new("bench-dense");
    for (model, ordinal, shape) in rng.shuffled(&table1_layers(1.0)) {
        dense = dense.layer(&model, ordinal, shape);
    }
    let dense = dense
        .vlens(&rng.shuffled(&P1_VLENS))
        .l2s(&rng.shuffled(&DENSE_L2S))
        .lanes_tagged(&rng.shuffled(&DENSE_LANES))
        .algos(&rng.shuffled(&ALL_ALGOS))
        .backend(BackendKind::Fast);
    vec![paper2_plan(1.0).backend(BackendKind::Fast), dense]
}

fn applicable(plan: &SweepPlan) -> Vec<Cell> {
    plan.expand().into_iter().filter(Cell::applicable).collect()
}

/// Expected cold counters per plan, from the content addresses:
/// `(unique, hit)` where hits are cells an earlier plan already cached.
fn expected_counts(cells: &[Vec<Cell>]) -> Vec<(usize, usize)> {
    let salt = default_salt();
    let mut seen: HashSet<u64> = HashSet::new();
    cells
        .iter()
        .map(|cells| {
            let keys: HashSet<u64> =
                cells.iter().map(|c| c.key_tiered(&salt, BackendKind::Fast)).collect();
            let hit = keys.iter().filter(|k| seen.contains(k)).count();
            let unique = keys.len();
            seen.extend(keys);
            (unique, hit)
        })
        .collect()
}

/// One cold + warm + selector batch and its phase times (seconds).
pub struct DesignPass {
    pub cold: Vec<SweepOutcome>,
    pub warm: Vec<SweepOutcome>,
    pub eval: SelectorEval,
    pub cold_s: f64,
    pub warm_new_s: f64,
    pub warm_run_s: f64,
    pub selector_s: f64,
    pub cache_bytes: u64,
    pub cache_lines: usize,
}

impl DesignPass {
    pub fn wall(&self) -> f64 {
        self.cold_s + self.warm_new_s + self.warm_run_s + self.selector_s
    }

    fn simulated(&self) -> usize {
        self.cold.iter().map(|o| o.report.simulated).sum()
    }

    fn warm_cells(&self) -> usize {
        self.warm.iter().map(|o| o.report.total).sum()
    }
}

pub fn pass(work: &WorkDir, plans: &[SweepPlan], ctx: &TraceCtx) -> Res<DesignPass> {
    let dir = work.fresh("design")?;
    let t = Instant::now();
    let exec = timed(ctx, "plan.Executor::new(cold)", || Executor::new(exec_opts(dir.clone())));
    let cold = plans
        .iter()
        .map(|p| timed(ctx, "plan.Executor::run(cold)", || exec.run(p, ctx)))
        .collect::<Result<Vec<_>, _>>()?;
    let cold_s = secs(t);
    let t = Instant::now();
    let exec = timed(ctx, "plan.Executor::new(warm)", || Executor::new(exec_opts(dir.clone())));
    let warm_new_s = secs(t);
    let t = Instant::now();
    let warm = plans
        .iter()
        .map(|p| timed(ctx, "plan.Executor::run(warm)", || exec.run(p, ctx)))
        .collect::<Result<Vec<_>, _>>()?;
    let warm_run_s = secs(t);
    let t = Instant::now();
    let eval = timed(ctx, "selector.evaluate_selector", || {
        evaluate_selector(&warm[0].rows, tuned_params())
    });
    let selector_s = secs(t);
    let cache = std::fs::read(dir.join("cells.jsonl"))?;
    std::fs::remove_dir_all(&dir)?;
    Ok(DesignPass {
        cold,
        warm,
        eval,
        cold_s,
        warm_new_s,
        warm_run_s,
        selector_s,
        cache_bytes: cache.len() as u64,
        cache_lines: cache.iter().filter(|&&b| b == b'\n').count(),
    })
}

fn same_row(a: &GridRow, b: &GridRow) -> bool {
    a.model == b.model
        && a.layer == b.layer
        && a.vlen_bits == b.vlen_bits
        && a.l2_mib == b.l2_mib
        && a.lanes == b.lanes
        && a.algo == b.algo
        && a.cycles == b.cycles
        && a.avg_vl.to_bits() == b.avg_vl.to_bits()
        && a.l2_miss_rate.to_bits() == b.l2_miss_rate.to_bits()
}

struct Setup {
    plans: Vec<SweepPlan>,
    expected: Vec<(usize, usize)>,
    /// `(plan index, row index, cell)` checked against the backend.
    sampled: Vec<(usize, usize, Cell)>,
}

fn setup(run: &Run) -> Setup {
    let plans = plans(run.seed);
    let cells: Vec<Vec<Cell>> = plans.iter().map(applicable).collect();
    let expected = expected_counts(&cells);
    let mut rng = Rng::new(run.seed ^ 0x5A);
    let sampled = (0..SAMPLED)
        .map(|_| {
            let pi = rng.below(cells.len());
            let ri = rng.below(cells[pi].len());
            (pi, ri, cells[pi][ri].clone())
        })
        .collect();
    Setup { plans, expected, sampled }
}

fn check_pass(s: &Setup, p: &DesignPass, cv_ref: f64, checks: &mut Checks) {
    for (i, ((cold, warm), &(unique, hit))) in
        p.cold.iter().zip(&p.warm).zip(&s.expected).enumerate()
    {
        let (c, w) = (cold.report, warm.report);
        checks.check(c.unique == unique && c.hit == hit && c.simulated == unique - hit, || {
            format!("plan {i} cold counters {c:?}, expected unique={unique} hit={hit}")
        });
        checks.check(w.hit == w.unique && w.simulated == 0 && w.total == c.total, || {
            format!("plan {i} warm run must be all hits: {w:?}")
        });
        checks.check(
            cold.rows.len() == c.total
                && cold.rows.len() == warm.rows.len()
                && cold.rows.iter().zip(&warm.rows).all(|(a, b)| same_row(a, b)),
            || format!("plan {i}: warm rows differ from cold rows"),
        );
    }
    for (pi, ri, cell) in &s.sampled {
        let row = &p.cold[*pi].rows[*ri];
        let direct = FastBackend.measure(&cell.cfg, &cell.shape, cell.algo);
        checks.check(
            direct.is_some_and(|m| {
                m.cycles == row.cycles
                    && m.avg_vl.to_bits() == row.avg_vl.to_bits()
                    && m.l2_miss_rate.to_bits() == row.l2_miss_rate.to_bits()
            }),
            || format!("cell {cell:?}: executor row {row:?} differs from FastBackend {direct:?}"),
        );
    }
    let acc = p.eval.cv.mean_accuracy;
    checks.check(acc == cv_ref && (CV_BAND.0..=CV_BAND.1).contains(&acc), || {
        format!("CV accuracy {acc} (first pass {cv_ref}, band {CV_BAND:?})")
    });
}

/// Plan, fast-tier and forest per-layer metrics. `pass_in` is a traced
/// design pass of the owning workload and its plans; without one, a
/// Paper II-only pass runs here as the reference probe.
pub fn layer_metrics(
    run: &Run,
    ctx: &TraceCtx,
    m: &mut Metrics,
    checks: &mut Checks,
    pass_in: Option<(&DesignPass, &[SweepPlan])>,
) -> Res<()> {
    let reference;
    let (p, plans) = match pass_in {
        Some(x) => x,
        None => {
            let plans = vec![paper2_plan(1.0).backend(BackendKind::Fast)];
            reference = (pass(&run.work, &plans, ctx)?, plans);
            (&reference.0, &reference.1[..])
        }
    };

    // Fast tier, one cell at a time: the analytical workload build, its
    // closed-form evaluation, and the backend call that does both.
    let (mut build, mut eval, mut cell) = (Vec::new(), Vec::new(), Vec::new());
    timed(ctx, "lv-models.FastBackend::measure", || {
        for c in plans.iter().flat_map(applicable) {
            let t0 = Instant::now();
            let w = lv_conv::model::workload(c.algo, &c.shape, &c.cfg);
            let t1 = Instant::now();
            let pred = w.map(|w| {
                let scale = lv_models::calib::stored_for(c.algo, c.cfg.vpu).scale;
                lv_sim::fastmodel::evaluate(&c.cfg, &w, scale)
            });
            let t2 = Instant::now();
            let got = FastBackend.measure(&c.cfg, &c.shape, c.algo);
            let t3 = Instant::now();
            build.push((t1 - t0).as_secs_f64() * 1e6);
            eval.push((t2 - t1).as_secs_f64() * 1e6);
            cell.push((t3 - t2).as_secs_f64() * 1e6);
            checks.check(pred.map(|p| p.cycles) == got.map(|g| g.cycles), || {
                format!("{c:?}: workload+evaluate disagrees with FastBackend::measure")
            });
        }
    });
    let mean_cell_us = cell.iter().sum::<f64>() / cell.len().max(1) as f64;
    m.put("lv-sim.fastmodel_eval_us", median(&eval), "us");
    m.put("lv-conv.model_workload_us", median(&build), "us");
    m.put("lv-models.fast_cell_us.p50", median(&cell), "us");
    m.put("lv-models.fast_cell_us.p90", quantile(&cell, 0.9), "us");

    let simulated = p.simulated();
    m.put("plan.exec_new_ms", p.warm_new_s * 1e3, "ms");
    m.put("plan.load_us_per_line", p.warm_new_s * 1e6 / p.cache_lines.max(1) as f64, "us");
    m.put("plan.warm_us_per_cell", p.warm_run_s * 1e6 / p.warm_cells().max(1) as f64, "us");
    m.put(
        "plan.cold_overhead_us_per_cell",
        p.cold_s * 1e6 / simulated.max(1) as f64 - mean_cell_us,
        "us",
    );
    m.put("plan.cells_total", p.cold.iter().map(|o| o.report.total).sum::<usize>() as f64, "count");
    m.put("plan.cells_hit", p.cold.iter().map(|o| o.report.hit).sum::<usize>() as f64, "count");
    m.put("plan.cells_simulated", simulated as f64, "count");
    m.put("plan.cache_bytes", p.cache_bytes as f64, "bytes");

    // The selector's parts on the same Paper II rows.
    let rows = &p.warm[0].rows;
    let params = tuned_params();
    let t = Instant::now();
    let (ds, _) = timed(ctx, "selector.dataset_from_grid", || dataset_from_grid(rows));
    m.put("selector.dataset_ms", secs(t) * 1e3, "ms");
    let t = Instant::now();
    let cv = timed(ctx, "lv-forest.cross_validate", || cross_validate(&ds, params, 5));
    m.put("lv-forest.cv_ms", secs(t) * 1e3, "ms");
    let t = Instant::now();
    let forest = timed(ctx, "lv-forest.RandomForest::fit", || RandomForest::fit(&ds, params));
    m.put("lv-forest.fit_ms", secs(t) * 1e3, "ms");
    let t = Instant::now();
    let preds = timed(ctx, "lv-forest.predict_batch", || forest.predict_batch(&ds.features));
    m.put("lv-forest.predict_us_per_row", secs(t) * 1e6 / ds.len().max(1) as f64, "us");
    m.put("lv-forest.dataset_rows", ds.len() as f64, "count");
    checks.check(cv.mean_accuracy == p.eval.cv.mean_accuracy && preds.len() == ds.len(), || {
        format!(
            "forest parts disagree with evaluate_selector: {} vs {}",
            cv.mean_accuracy, p.eval.cv.mean_accuracy
        )
    });
    Ok(())
}

/// What the end-to-end metrics need from a pass once its rows are
/// checked and dropped (keeping rows would inflate the heap peak).
struct Times {
    wall: f64,
    cold_rate: f64,
    warm_rate: f64,
    selector_s: f64,
}

fn check_and_time(
    s: &Setup,
    p: &DesignPass,
    cv_ref: &mut Option<f64>,
    checks: &mut Checks,
) -> Times {
    let cv = *cv_ref.get_or_insert(p.eval.cv.mean_accuracy);
    check_pass(s, p, cv, checks);
    Times {
        wall: p.wall(),
        cold_rate: p.simulated() as f64 / p.cold_s,
        warm_rate: p.warm_cells() as f64 / (p.warm_new_s + p.warm_run_s),
        selector_s: p.selector_s,
    }
}

pub fn run(run: &Run, checks: &mut Checks) -> Res<Outcome> {
    let mut o = Outcome::default();
    let (s, setup_s) = repeat_setup(|| Ok(setup(run)))?;
    o.cells = s.expected.iter().map(|&(unique, _)| unique).sum();
    let mut cv_ref = None;
    if run.trace {
        let ctx = TraceCtx::enabled();
        let mut traced = None;
        let (_, overhead) = traced_pairs(
            run.seconds,
            &ctx,
            |c| {
                let p = pass(&run.work, &s.plans, c)?;
                let t = check_and_time(&s, &p, &mut cv_ref, checks);
                if c.tracer.is_enabled() {
                    traced = Some(p);
                }
                Ok(t)
            },
            |t| t.wall,
        )?;
        o.layers.put("lv-trace.overhead_pct", overhead, "%");
        let traced = traced.expect("at least one traced pass");
        layers::all(run, &ctx, &mut o.layers, checks, None, Some((&traced, &s.plans)), false)?;
        layers::print_self_time(&ctx);
    } else {
        let off = TraceCtx::disabled();
        let times = repeat_for(
            run.seconds,
            || {
                let p = pass(&run.work, &s.plans, &off)?;
                Ok(check_and_time(&s, &p, &mut cv_ref, checks))
            },
            |t| t.wall,
        )?;
        o.put_e2e(setup_s, &times, |t| t.pass.cold_rate, "cells_per_s", "cells/s");
        o.info.put("warm_cells_per_s", median_of(&times, |t| t.pass.warm_rate), "cells/s");
        o.info.put("selector_s", median_of(&times, |t| t.pass.selector_s), "s");
    }
    Ok(o)
}
