//! Per-layer probes of a traced run. Each probe calls one crate's public
//! functions inside `lv-trace` spans on the harness track. A workload
//! measures the layers it owns on its own inputs; the other layers run a
//! small fixed reference input, so every traced run reports every layer.

use std::hint::black_box;
use std::time::Instant;

use lv_bench::grid::GridRow;
use lv_bench::plan::{Cell, SweepPlan};
use lv_bench::trace::{TraceCtx, PID_HARNESS};
use lv_conv::{prepare_weights, run_conv, Algo, ALL_ALGOS};
use lv_serving::{EngineNode, NodeConfig, QueuedRequest};
use lv_sim::{Cache, Machine, MachineConfig, TrackId, VReg};
use lv_tensor::{pseudo_buf, pseudo_weights};

use crate::cycle;
use crate::design::{self, DesignPass};
use crate::fleet;
use crate::util::{median, quantile, secs, timed, Checks, Metrics};
use crate::{Res, Run};

/// Every per-layer metric, in a fixed order. `cycle_cells` and `design`
/// carry the owning workload's inputs; `None` runs the reference probe.
pub fn all(
    run: &Run,
    ctx: &TraceCtx,
    m: &mut Metrics,
    checks: &mut Checks,
    cycle_cells: Option<(&[Cell], &Option<Vec<GridRow>>)>,
    design: Option<(&DesignPass, &[SweepPlan])>,
    fleet_full: bool,
) -> Res<()> {
    timed(ctx, "probe.lv-sim.ops", || sim_ops(m, checks))?;
    match cycle_cells {
        Some((cells, committed)) => cycle_layers(ctx, cells, committed, m, checks),
        None => {
            // Reference: every algorithm on VGG-16 conv 1 at the Paper II
            // baseline (512-bit vectors, 1 MiB L2).
            let plan = SweepPlan::new("bench-cycle-probe")
                .layer("vgg16", 1, cycle::layer_shape("vgg16", 1))
                .algos(&ALL_ALGOS);
            let committed = cycle::committed_rows(&plan, &run.work)?;
            cycle_layers(ctx, &cycle::cells(&plan), &committed, m, checks)
        }
    }
    design::layer_metrics(run, ctx, m, checks, design)?;
    fleet::layer_metrics(run, ctx, m, checks, fleet_full)?;
    timed(ctx, "probe.lv-serving.EngineNode", || serving_probe(m, checks))
}

/// Host self time per span name on the harness track, largest first, to
/// stderr (simulated-clock spans of the program are left out).
pub fn print_self_time(ctx: &TraceCtx) {
    let mut by_name: Vec<(String, usize, f64)> = Vec::new();
    for s in ctx.tracer.snapshot_spans().iter().filter(|s| s.track.pid == PID_HARNESS) {
        match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += 1;
                e.2 += s.self_us();
            }
            None => by_name.push((s.name.clone(), 1, s.self_us())),
        }
    }
    by_name.sort_by(|a, b| b.2.total_cmp(&a.2));
    eprintln!("host self time by span (harness track):");
    for (name, count, us) in by_name.iter().take(16) {
        eprintln!("  {name:<36} x{count:<6} {:>12.1} ms", us / 1e3);
    }
}

fn algo_key(a: Algo) -> &'static str {
    match a {
        Algo::Direct => "direct",
        Algo::Gemm3 => "gemm3",
        Algo::Gemm6 => "gemm6",
        Algo::Winograd => "winograd",
    }
}

/// Cycle-tier cells driven layer by layer: the calls `measure_layer`
/// makes (inputs, `prepare_weights`, a fresh `Machine`, `run_conv`), each
/// timed, with the simulator's counters read back per cell.
fn cycle_layers(
    ctx: &TraceCtx,
    cells: &[Cell],
    committed: &Option<Vec<GridRow>>,
    m: &mut Metrics,
    checks: &mut Checks,
) {
    let track = TrackId::new(PID_HARNESS, 0);
    let (mut cell_ms, mut prep_ms) = (Vec::new(), Vec::new());
    let mut conv_ms: Vec<(Algo, f64)> = Vec::new();
    let (mut conv_ns, mut vinstrs, mut velems, mut l2, mut lines, mut cycles) =
        (0.0, 0u64, 0u64, 0u64, 0u64, Vec::new());
    for c in cells {
        let s = &c.shape;
        let span = ctx.tracer.begin(track, "lv-models.cycle_cell", ctx.now_us());
        let t_cell = Instant::now();
        let input = pseudo_buf(s.input_len(), 101);
        let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 102);
        let t = Instant::now();
        let prepared = timed(ctx, "lv-conv.prepare_weights", || prepare_weights(c.algo, s, &w));
        prep_ms.push(secs(t) * 1e3);
        let mut out = vec![0.0f32; s.output_len()];
        let mut mach = Machine::new(c.cfg);
        let t = Instant::now();
        timed(ctx, "lv-conv.run_conv", || {
            run_conv(&mut mach, c.algo, s, &input, &prepared, &mut out)
        });
        let dt = secs(t);
        let st = mach.stats();
        cell_ms.push(secs(t_cell) * 1e3);
        conv_ms.push((c.algo, dt * 1e3));
        conv_ns += dt * 1e9;
        vinstrs += st.vector_instrs;
        velems += st.vector_elems;
        l2 += st.l2_accesses;
        lines += st.mem_lines;
        cycles.push(st.cycles);
        let now = ctx.now_us();
        ctx.tracer.counter(track, "lv-sim.vector_instrs", now, vinstrs as f64);
        ctx.tracer.end_args(
            span,
            now,
            vec![
                ("algo".to_string(), c.algo.name().into()),
                ("vlen".to_string(), c.cfg.vlen_bits.into()),
                ("cycles".to_string(), (st.cycles as f64).into()),
            ],
        );
        checks.check(
            st.cycles > 0 && st.avg_vl() <= c.cfg.vlen_elems() as f64 && st.l2_miss_rate() <= 1.0,
            || format!("{c:?}: insane stats {st:?}"),
        );
    }
    m.put("lv-sim.ns_per_vinstr", conv_ns / vinstrs.max(1) as f64, "ns");
    m.put("lv-sim.ns_per_velem", conv_ns / velems.max(1) as f64, "ns");
    m.put("lv-sim.vector_instrs", vinstrs as f64, "count");
    m.put("lv-sim.l2_accesses", l2 as f64, "count");
    m.put("lv-sim.mem_lines", lines as f64, "count");
    m.put("lv-sim.sim_cycles", cycles.iter().sum::<u64>() as f64, "count");
    for a in ALL_ALGOS {
        let v: Vec<f64> = conv_ms.iter().filter(|(x, _)| *x == a).map(|(_, t)| *t).collect();
        m.put(format!("lv-conv.run_conv_ms.{}", algo_key(a)), median(&v), "ms");
    }
    m.put("lv-conv.prepare_weights_ms", median(&prep_ms), "ms");
    m.put("lv-models.cycle_cell_ms.p50", median(&cell_ms), "ms");
    m.put("lv-models.cycle_cell_ms.p90", quantile(&cell_ms, 0.9), "ms");
    // Drift against the committed cache is reported, never gated: host
    // heap addresses still move cycle counts.
    let (max_pct, beyond) = committed.as_ref().map_or((0.0, 0), |c| cycle::drift(&cycles, c));
    checks.check(committed.is_some(), || "committed cache lacks the probed cells".into());
    m.put("lv-models.cycle_drift_max_pct", max_pct, "%");
    m.put("lv-models.cells_beyond_1pct", beyond as f64, "count");
}

/// Host nanoseconds per call of `op` over `n` calls, median of 3.
fn per_call_ns(n: usize, mut op: impl FnMut(usize)) -> f64 {
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                op(i);
            }
            secs(t) * 1e9 / n as f64
        })
        .collect();
    median(&reps)
}

/// `lv-sim` instruction and cache probes: unit-stride and strided loads
/// and the FMA workhorse at three vector lengths over a 256 KiB buffer
/// (past L1, inside L2), and `Cache::access_line` on all-hit and
/// all-miss line streams.
fn sim_ops(m: &mut Metrics, checks: &mut Checks) -> Res<()> {
    const STRIDE: usize = 16; // one 64-byte line per element
    let buf = vec![1.0f32; 1 << 16];
    for vlen in [512usize, 4096, 16384] {
        let cfg = MachineConfig::builder().vlen_bits(vlen).l2_mib(1).build()?;
        let mut mach = Machine::new(cfg);
        let mvl = mach.mvl();
        mach.vsetvl(mvl);
        let n = (1 << 21) / mvl;
        let unit_span = buf.len() - mvl;
        let strided_span = buf.len() - (mvl - 1) * STRIDE;
        let vle =
            per_call_ns(n, |i| mach.vle32(VReg((i % 8) as u8), &buf[(i * mvl) % unit_span..]));
        let vlse = per_call_ns(n, |i| {
            mach.vlse32(VReg((i % 8) as u8), &buf[(i * 7) % strided_span..], STRIDE)
        });
        let fma = per_call_ns(n, |i| mach.vfmacc_vf(VReg((i % 8) as u8), 0.5, VReg(8)));
        black_box(mach.stats());
        m.put(format!("lv-sim.vle32_ns.vl{vlen}"), vle, "ns");
        m.put(format!("lv-sim.vlse32_ns.vl{vlen}"), vlse, "ns");
        m.put(format!("lv-sim.vfmacc_vf_ns.vl{vlen}"), fma, "ns");
    }

    let geo = MachineConfig::rvv_integrated(512, 1).l2;
    let mut cache = Cache::new(geo);
    let resident = (geo.sets() * geo.ways / 2) as u64;
    for line in 1..=resident {
        cache.access_line(line);
    }
    let n = 1 << 22;
    let before = cache.misses();
    let hit = per_call_ns(n, |i| {
        black_box(cache.access_line(1 + i as u64 % resident));
    });
    checks.check(cache.misses() == before, || "access_line hit stream missed".into());
    let mut next = 1u64 << 40;
    let before = cache.misses();
    let miss = per_call_ns(n, |_| {
        next += 1;
        black_box(cache.access_line(next));
    });
    checks.check(cache.misses() - before == 3 * n as u64, || "access_line miss stream hit".into());
    m.put("lv-sim.access_line_ns.hit", hit, "ns");
    m.put("lv-sim.access_line_ns.miss", miss, "ns");
    Ok(())
}

/// One `EngineNode` driven through `advance` + `offer` per request at 90%
/// load on two replicas, then `drain`; every request must complete or be
/// counted as a drop.
fn serving_probe(m: &mut Metrics, checks: &mut Checks) -> Res<()> {
    const N: u64 = 200_000;
    let mut ns = Vec::new();
    for _ in 0..3 {
        let mut node = EngineNode::new(NodeConfig::basic(2, 64))?;
        let t = Instant::now();
        for id in 0..N {
            let at = id as f64 * 5e-4;
            black_box(node.advance(at));
            node.offer(QueuedRequest { id, arrival_s: at, class: 0, unit_cost_s: 9e-4 });
        }
        black_box(node.drain());
        ns.push(secs(t) * 1e9 / N as f64);
        checks.check(node.completed() as u64 + node.drops().total() == N, || {
            format!(
                "EngineNode lost requests: {} + {} != {N}",
                node.completed(),
                node.drops().total()
            )
        });
    }
    m.put("lv-serving.offer_advance_ns", median(&ns), "ns");
    Ok(())
}
