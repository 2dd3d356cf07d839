//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cycle-sweep|design-loop|fleet-chaos> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is a closed batch of fixed size, run to completion as
//! many times as fits in `--seconds`, through the public functions of the
//! workspace crates (see `BENCHMARK.json` for why each was chosen):
//!
//! * `cycle-sweep` — a cold cycle-tier `SweepPlan` (lv-bench::plan →
//!   lv-models → lv-conv → lv-sim);
//! * `design-loop` — a dense fast-tier plan cold, then warm from the
//!   reloaded cell cache, then the forest selector (plan, lv-forest);
//! * `fleet-chaos` — the `fleet` and `chaos` artifacts (lv-fleet,
//!   lv-serving).
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics:
//! host time, each pass scaled to a reference host speed by a fixed probe
//! kernel timed around it (the raw host figures are printed above it).
//! Simulated cycles are checked, never ranked. With `--trace 1` the run
//! alternates untraced and traced passes (the difference is the tracing
//! overhead), probes every layer inside lv-trace spans, and reports the
//! per-layer metrics. Every run works below `.bench_work/` and removes
//! it on exit.

mod alloc;
mod cycle;
mod design;
mod fleet;
mod layers;
mod util;

use std::error::Error;

use util::{Checks, Metrics, WorkDir};

/// Worker threads handed to every executor. The benchmark host has two
/// cores; one worker leaves the second to the OS, and a cold cycle-tier
/// batch on two workers was measured far less steady.
pub const WORKERS: usize = 1;

/// Set-up repetitions per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 7;

pub type Res<T> = Result<T, Box<dyn Error>>;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CycleSweep,
    DesignLoop,
    FleetChaos,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "cycle-sweep" => Some(Self::CycleSweep),
            "design-loop" => Some(Self::DesignLoop),
            "fleet-chaos" => Some(Self::FleetChaos),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::CycleSweep => "cycle-sweep",
            Self::DesignLoop => "design-loop",
            Self::FleetChaos => "fleet-chaos",
        }
    }
}

/// Everything one run is parameterised by.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: WorkDir,
}

/// What a workload hands back: the gated end-to-end metrics, extra
/// figures printed for people, the per-layer metrics of a traced run,
/// and its provenance counts.
#[derive(Default)]
pub struct Outcome {
    pub e2e: Metrics,
    pub info: Metrics,
    pub layers: Metrics,
    pub cells: usize,
    pub requests: usize,
}

impl Outcome {
    /// The gated end-to-end metrics of an untraced run, each pass brought
    /// to the reference host speed by the probe around it, plus the raw
    /// host figures for people. `rate` is the workload's own throughput
    /// of one pass in host time, printed as `rate_name`.
    fn put_e2e<P>(
        &mut self,
        setup_s: f64,
        passes: &[util::Timed<P>],
        rate: impl Fn(&util::Timed<P>) -> f64,
        rate_name: &str,
        rate_unit: &'static str,
    ) {
        let wall = util::median_of(passes, |t| t.wall);
        let work = util::median_of(passes, &rate);
        let scale = util::median_of(passes, |t| t.scale);
        self.e2e.put("setup_s", setup_s, "s");
        self.e2e.put("wall_s", util::median_of(passes, |t| t.wall * t.scale), "s");
        self.e2e.put("work_per_s", util::median_of(passes, |t| rate(t) / t.scale), "1/s");
        self.e2e.put("peak_heap_mb", passes.iter().map(|t| t.peak_mb).fold(0.0, f64::max), "MB");
        self.info.put("wall_raw_s", wall, "s");
        self.info.put(rate_name, work, rate_unit);
        self.info.put("host_speed", scale, "ratio");
        self.info.put("peak_rss_mb", util::peak_rss_mb(), "MB");
        self.info.put("batches", passes.len() as f64, "count");
    }
}

const USAGE: &str = "usage: perfbench --workload <cycle-sweep|design-loop|fleet-chaos> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(Workload, u64, f64, bool), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {val}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        seed.unwrap_or(42),
        seconds.unwrap_or(10.0),
        trace.unwrap_or(false),
    ))
}

fn main() {
    let (workload, seed, seconds, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create(workload.name()) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the work dir: {e}");
            std::process::exit(1);
        }
    };
    // Every artifact the workspace writes goes to a fresh results dir of
    // this run (single-threaded here, before any worker starts).
    let results = work.path().join("results");
    if let Err(e) = std::fs::create_dir_all(&results) {
        eprintln!("perfbench: cannot create {}: {e}", results.display());
        std::process::exit(1);
    }
    std::env::set_var("LVCONV_RESULTS", &results);

    let run = Run { workload, seed, seconds, trace, work };
    let mut checks = Checks::default();
    let outcome = match workload {
        Workload::CycleSweep => cycle::run(&run, &mut checks),
        Workload::DesignLoop => design::run(&run, &mut checks),
        Workload::FleetChaos => fleet::run(&run, &mut checks),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", workload.name());
            drop(run);
            std::process::exit(1);
        }
    };
    drop(run);
    report(workload, seed, trace, &checks, &outcome);
}

/// Print the provenance block, every metric by name and unit, and the
/// closing JSON line.
fn report(workload: Workload, seed: u64, trace: bool, checks: &Checks, o: &Outcome) {
    println!(
        "provenance: git={} kernel_rev={} timing_rev={} fast_model_rev={} nproc={} workers={} \
         seed={seed} workload={} cells={} requests={}",
        util::git_rev(),
        lv_conv::KERNEL_REV,
        lv_sim::TIMING_REV,
        lv_sim::FAST_MODEL_REV,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        WORKERS,
        workload.name(),
        o.cells,
        o.requests,
    );
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    let shown = if trace { &o.layers } else { &o.e2e };
    for (name, value, unit) in shown.0.iter().chain(&o.info.0) {
        println!("  {name:<40} {value:>16.6} {unit}");
    }
    println!(
        "  {:<40} {:>16.6} ratio ({} of {} checks failed)",
        "fail_ratio", fail_ratio, checks.failed, checks.attempted
    );
    let metrics: Vec<String> = shown
        .0
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        metrics.join(", ")
    );
}
