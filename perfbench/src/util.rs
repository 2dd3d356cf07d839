//! Small helpers shared by the workloads: order statistics, a seeded
//! shuffle, the per-run work directory, peak RSS, the correctness tally
//! and the metric list printed at the end of a run.

use std::path::{Path, PathBuf};
use std::time::Instant;

use lv_bench::plan::ExecOptions;
use lv_bench::trace::{TraceCtx, PID_HARNESS};
use lv_sim::TrackId;

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v` (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle of a copy of `items`.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut v = items.to_vec();
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// The run's scratch space: `.bench_work/<workload>-<pid>` under the
/// current directory, removed when dropped. Every results dir and cell
/// cache of the run lives below it, so the repository's `results/` is
/// never written.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<usize>,
}

impl WorkDir {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let root = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: std::cell::Cell::new(0) })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A new, empty directory below the root (a fresh cell cache).
    pub fn fresh(&self, tag: &str) -> std::io::Result<PathBuf> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Leave no empty `.bench_work` behind either (fails harmlessly
        // while another run still uses it).
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tally of correctness checks: every check counts as attempted, each
/// failure is printed to stderr and counted.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[check failed] {}", what());
        }
    }
}

/// Ordered `(name, value, unit)` metric list.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// The git revision of the checkout, read from `.git` in the current
/// directory without running `git` ("unknown" outside a clone).
pub fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".into(),
        r => r.chars().take(12).collect(),
    }
}

/// Executor options for one fresh cell-cache directory.
pub fn exec_opts(cache_dir: PathBuf) -> ExecOptions {
    ExecOptions { jobs: Some(crate::WORKERS), cache_dir: Some(cache_dir), ..ExecOptions::default() }
}

/// Run `f` inside a span named `name` on the harness track of `ctx`
/// (free when `ctx` is disabled).
pub fn timed<T>(ctx: &TraceCtx, name: &str, f: impl FnOnce() -> T) -> T {
    let span = ctx.tracer.begin(TrackId::new(PID_HARNESS, 0), name, ctx.now_us());
    let out = f();
    ctx.tracer.end(span, ctx.now_us());
    out
}

/// Seconds [`reference_s`] takes on an unloaded host of the kind the
/// benchmark was written on (2-vCPU x86-64 VM). Only a scale: it makes a
/// normalised time read as seconds at that host speed.
pub const REFERENCE_NOMINAL_S: f64 = 0.04;

/// The host-speed probe: a fixed kernel of this file, never of the
/// program under test, that mixes what the workloads do on the host
/// (tag-compare cache probes with LRU rotation over a 512 KiB table, and
/// an FMA sweep over 1 MiB). The benchmark shares its host with other
/// tenants, whose load moves host speed by tens of percent over minutes;
/// scaling each timed pass by this probe's time around it cancels much
/// of that.
pub fn reference_s() -> f64 {
    const WAYS: usize = 16;
    const SETS: usize = 4096;
    let t = Instant::now();
    let mut tags = vec![0u64; SETS * WAYS];
    let (mut x, mut hits) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    for _ in 0..1_500_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let line = 1 + x % (SETS as u64 * 24);
        let set = line as usize % SETS;
        let ways = &mut tags[set * WAYS..(set + 1) * WAYS];
        if let Some(p) = ways.iter().position(|&t| t == line) {
            ways[..=p].rotate_right(1);
            hits += 1;
        } else {
            ways.rotate_right(1);
            ways[0] = line;
        }
    }
    let mut buf = vec![1.0f32; 1 << 18];
    for r in 0..20 {
        let f = 1.0 + r as f32 * 1e-6;
        for v in buf.iter_mut() {
            *v = *v * f + 1e-7;
        }
    }
    std::hint::black_box((hits, buf[7]));
    secs(t)
}

/// A timed pass: its host wall time and the host-speed scale around it
/// (`REFERENCE_NOMINAL_S` over the mean probe time before and after).
pub struct Timed<P> {
    pub pass: P,
    pub wall: f64,
    pub scale: f64,
    /// Peak live heap during the pass, MiB.
    pub peak_mb: f64,
}

/// Median over timed passes of `f`.
pub fn median_of<P>(v: &[Timed<P>], f: impl Fn(&Timed<P>) -> f64) -> f64 {
    median(&v.iter().map(f).collect::<Vec<_>>())
}

/// Run `setup` [`crate::SETUP_REPS`] times; the last result and the
/// median time at the reference host speed.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> crate::Res<S>) -> crate::Res<(S, f64)> {
    let mut times = Vec::new();
    let mut last = None;
    let before = reference_s();
    for _ in 0..crate::SETUP_REPS {
        let t = Instant::now();
        last = Some(setup()?);
        times.push(secs(t));
    }
    let scale = REFERENCE_NOMINAL_S / ((before + reference_s()) / 2.0);
    Ok((last.expect("SETUP_REPS > 0"), median(&times) * scale))
}

/// Run `pass` back to back while another pass of the last one's wall
/// time (`wall`) still fits in `seconds`; at least once. The host-speed
/// probe runs before the first pass and after each; each pass records
/// its own heap peak, which leaves the probe out.
pub fn repeat_for<P>(
    seconds: f64,
    mut pass: impl FnMut() -> crate::Res<P>,
    wall: impl Fn(&P) -> f64,
) -> crate::Res<Vec<Timed<P>>> {
    let mut probe = reference_s();
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        crate::alloc::reset_peak();
        let p = pass()?;
        let peak_mb = crate::alloc::peak_mb();
        let w = wall(&p);
        let after = reference_s();
        let scale = REFERENCE_NOMINAL_S / ((probe + after) / 2.0);
        probe = after;
        eprintln!("[batch {}] {w:.4} s, host speed {scale:.3}", out.len());
        out.push(Timed { pass: p, wall: w, scale, peak_mb });
        if secs(start) + w > seconds {
            return Ok(out);
        }
    }
}

/// The traced run's overhead measurement: pairs of an untraced and a
/// traced pass for `seconds` (at least one pair), which of the two runs
/// first alternating between pairs. Returns every pass, untraced then
/// traced per pair, and the median per-pair traced over untraced wall as
/// an excess in percent.
pub fn traced_pairs<P>(
    seconds: f64,
    ctx: &TraceCtx,
    mut pass: impl FnMut(&TraceCtx) -> crate::Res<P>,
    wall: impl Fn(&P) -> f64,
) -> crate::Res<(Vec<P>, f64)> {
    let off = TraceCtx::disabled();
    let mut traced_first = false;
    let mut pair = || {
        traced_first = !traced_first;
        Ok(if traced_first {
            let t = pass(ctx)?;
            (pass(&off)?, t)
        } else {
            (pass(&off)?, pass(ctx)?)
        })
    };
    let pairs = repeat_for(seconds, &mut pair, |(u, t)| wall(u) + wall(t))?;
    let ratio = median_of(&pairs, |p| wall(&p.pass.1) / wall(&p.pass.0));
    Ok((pairs.into_iter().flat_map(|p| [p.pass.0, p.pass.1]).collect(), 100.0 * (ratio - 1.0)))
}
