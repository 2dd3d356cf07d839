//! Trace plumbing for the `repro` harness: a shared [`TraceCtx`] carrying
//! one tracer plus one wall clock across nested artifact runs, traced
//! network inferences that derive `results/roofline-<model>.csv`, and the
//! Chrome-trace writer behind `repro <artifact> --trace <path>`.
//!
//! Clock domains get distinct Chrome-trace process ids so Perfetto never
//! mixes them on one timeline:
//!
//! * pid 0 — the harness itself, wall-clock microseconds;
//! * pid 1 — simulated machines, 1 trace-µs ≡ 1 cycle (exact);
//! * pid 2 — the `serve` artifact's one-node fleet, simulated seconds × 1e6;
//! * pid 3 — the fleet simulator, simulated seconds × 1e6.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use lv_conv::{Algo, ALL_ALGOS};
use lv_models::{generate_weights, run_network, zoo, NetworkReport};
use lv_sim::{Machine, MachineConfig, Tracer, TrackId};
use lv_trace::WallClock;

use crate::grid::{self, results_dir, GridRow};

/// Chrome-trace process id of the harness (wall-clock spans).
pub const PID_HARNESS: u64 = 0;
/// Chrome-trace process id of simulated machines (cycle-clock spans).
pub const PID_MACHINE: u64 = 1;
/// Chrome-trace process id of the `serve` one-node fleet (second-clock events).
pub const PID_SERVING: u64 = 2;
/// Chrome-trace process id of the fleet simulator (second-clock events).
pub const PID_FLEET: u64 = 3;

/// One tracer + one wall-clock epoch, threaded through every artifact in a
/// `repro` invocation so nested runs (e.g. `all`) share a timeline.
pub struct TraceCtx {
    /// The shared tracer; disabled outside `--trace` runs.
    pub tracer: Tracer,
    clock: WallClock,
    machine_tids: AtomicU64,
}

impl TraceCtx {
    /// A no-op context: every emission is skipped, nothing is allocated by
    /// the tracer, so figure numbers are bit-identical to untraced runs.
    pub fn disabled() -> Self {
        Self {
            tracer: Tracer::disabled(),
            clock: WallClock::start(),
            machine_tids: AtomicU64::new(0),
        }
    }

    /// A recording context with the harness process named.
    pub fn enabled() -> Self {
        let tracer = Tracer::enabled();
        tracer.name_process(PID_HARNESS, "repro-harness");
        tracer.name_track(TrackId::new(PID_HARNESS, 0), "artifacts");
        Self { tracer, clock: WallClock::start(), machine_tids: AtomicU64::new(0) }
    }

    /// Wall-clock microseconds since this context was created.
    pub fn now_us(&self) -> f64 {
        self.clock.now_us()
    }

    /// Open a wall-clock span for one artifact on the harness track.
    pub fn artifact_begin(&self, id: &str) -> lv_trace::SpanId {
        self.tracer.begin(TrackId::new(PID_HARNESS, 0), id, self.now_us())
    }

    /// Close an artifact span at the current wall time.
    pub fn artifact_end(&self, span: lv_trace::SpanId) {
        self.tracer.end(span, self.now_us());
    }

    /// Allocate a fresh machine track (pid [`PID_MACHINE`]) named `name`.
    pub fn machine_track(&self, name: &str) -> TrackId {
        let tid = self.machine_tids.fetch_add(1, Ordering::Relaxed);
        let track = TrackId::new(PID_MACHINE, tid);
        if tid == 0 {
            self.tracer.name_process(PID_MACHINE, "simulated-machine");
        }
        self.tracer.name_track(track, name);
        track
    }

    /// Write the Chrome trace-event JSON to `path` and print a short
    /// self-time summary of the recorded spans.
    pub fn finish(&self, path: &Path) {
        if let Err(e) = self.tracer.write_chrome(path) {
            eprintln!("failed to write trace {}: {e}", path.display());
            std::process::exit(1);
        }
        println!("[trace written to {}]", path.display());
        print!("{}", lv_trace::report::self_time(&self.tracer, 12));
    }
}

/// Best grid algorithm per conv ordinal of `model` at the fig1/fig2
/// hardware point (512-bit vectors, 1 MiB L2); 6-loop GEMM where the grid
/// has no measurement (it always does for Table 1 layers).
fn best_assignment(rows: &[GridRow], model: &str, conv_count: usize) -> Vec<Algo> {
    (0..conv_count)
        .map(|ordinal| {
            ALL_ALGOS
                .iter()
                .filter_map(|&a| {
                    grid::find(rows, model, ordinal + 1, 512, 1, a).map(|r| (a, r.cycles))
                })
                .min_by_key(|&(_, c)| c)
                .map_or(Algo::Gemm6, |(a, _)| a)
        })
        .collect()
}

/// Run one traced inference of `model_name` at the fig1/fig2 hardware
/// point with the per-layer grid-best algorithms, emitting network → layer
/// → kernel spans on a fresh machine track and deriving
/// `results/roofline-<model>.csv` from the layer spans. No-op without an
/// enabled tracer: the figure path stays untouched by tracing.
pub fn traced_fig_run(
    ctx: &TraceCtx,
    rows: &[GridRow],
    model_name: &str,
    scale: f64,
) -> Option<NetworkReport> {
    if !ctx.tracer.is_enabled() {
        return None;
    }
    let model = match model_name {
        "vgg16" => zoo::vgg16(),
        "yolov3-20" => zoo::yolov3_first20(),
        _ => return None,
    }
    .scaled(scale);
    let assign = best_assignment(rows, model_name, model.conv_count());
    let track = ctx.machine_track(model_name);
    let mut m = Machine::new(MachineConfig::rvv_integrated(512, 1));
    m.set_tracer(ctx.tracer.clone(), track);
    let weights = generate_weights(&model);
    let report = run_network(&mut m, &model, &assign, &weights);

    let roofline = lv_trace::roofline::rows_on(&ctx.tracer, track);
    let path = results_dir().join(format!("roofline-{model_name}.csv"));
    std::fs::create_dir_all(results_dir()).ok();
    std::fs::write(&path, lv_trace::roofline::to_csv(&roofline)).ok();
    println!("[roofline written to {}]", path.display());
    Some(report)
}
