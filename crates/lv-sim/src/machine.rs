//! The simulated long-vector machine.
//!
//! Kernels are written against this type exactly like intrinsics code: they
//! request a vector length with [`Machine::vsetvl`], move data between host
//! slices and the 32-entry vector register file, and issue arithmetic on
//! registers. Every operation
//!
//! 1. **advances the cycle model**: issue + startup + `ceil(vl / elems-per-
//!    cycle)` beats for arithmetic, plus per-cache-line costs for memory
//!    operations routed through a real set-associative L1/L2 hierarchy; and
//! 2. on a machine built with [`Machine::new`], also **computes** the real
//!    f32 result, so kernels are functionally testable against golden
//!    references.
//!
//! A machine built with [`Machine::timing_only`] runs step 1 exactly as
//! above but moves no f32 lanes: register copies, arithmetic loops,
//! strided/segment/gather moves, transposes and stores into host slices
//! are skipped, and destination slices are left untouched. Sweep cells
//! (`lv_models::measure_layer`) use it because they keep only [`Stats`].
//! The result is exact, not approximate: the conv kernels' control flow
//! and addresses never depend on data, every kernel-contract assertion
//! (aliasing, slice bounds, segment shapes) still runs, and both modes
//! allocate the same buffers, so the cache model sees the same address
//! stream and every counter comes out identical.
//!
//! Host slice addresses double as simulated physical addresses, so cache
//! behaviour reflects the kernels' true access patterns and footprints.

use lv_trace::{keys, SpanId, Tracer, TrackId};

use crate::cache::Cache;
use crate::config::{CostModel, MachineConfig, VpuStyle};
use crate::lint::LintState;
use crate::stats::Stats;

/// Handle to one of the 32 architectural vector registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VReg(pub u8);

/// Number of architectural vector registers (RVV and SVE both have 32).
pub const NUM_VREGS: usize = 32;

/// The simulated machine: vector register file, cache hierarchy, cycle model.
pub struct Machine {
    cfg: MachineConfig,
    mvl: usize,
    vl: usize,
    vregs: Box<[f32]>,
    scratch: Box<[f32]>,
    l1: Cache,
    l2: Cache,
    stats: Stats,
    /// Vector elements retired per cycle per instruction.
    epc: u64,
    /// Whether operations move f32 lanes ([`Machine::new`]) or only
    /// advance the timing model ([`Machine::timing_only`]).
    compute: bool,
    /// Lanes the data paths touch: `vl` when computing, 0 when timing-only,
    /// so register views are empty and the lane loops run zero times.
    lanes: usize,
    /// `ceil(vl / epc)`: beats of one arithmetic pass, set with `vl`.
    beats: u64,
    /// `ceil(vl / gather_elems_per_cycle)`: extra beats of one strided,
    /// segment or gather access, set with `vl`.
    gather_beats: u64,
    /// Optional L2 access trace: `(cycle, line)` per L2 access, for the
    /// shared-cache contention replay (`lv-serving`).
    l2_trace: Option<Vec<(u64, u64)>>,
    /// Span tracer; disabled by default so the cycle model's hot path pays
    /// a single branch. Timestamps are simulated cycles (1 trace-µs/cycle).
    tracer: Tracer,
    /// The `(pid, tid)` this machine's regions land on.
    trace_track: TrackId,
    /// Open region spans with the stats snapshot at their begin, so the
    /// delta can be attached at end.
    region_stack: Vec<(SpanId, Stats)>,
    /// Opt-in invariant checker (see [`crate::lint`]); `None` (the
    /// default) costs one predictable branch per operation and leaves
    /// timing and results bit-identical to a lint-free build.
    lint: Option<Box<LintState>>,
}

impl Machine {
    /// Build a machine for a hardware design point, panicking on an
    /// invalid one (see [`Machine::try_new`] for the fallible form).
    pub fn new(cfg: MachineConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid machine config: {e}"))
    }

    /// Build a machine, rejecting design points that fail
    /// [`MachineConfig::validate`] — the same shapes the opt-in invariant
    /// lint would trip over mid-run (zero-set caches, lanes that can never
    /// retire, non-power-of-two vector lengths).
    pub fn try_new(cfg: MachineConfig) -> Result<Self, crate::ConfigError> {
        cfg.validate()?;
        let mvl = cfg.vlen_elems();
        let mut m = Self {
            mvl,
            vl: 0,
            vregs: vec![0.0; NUM_VREGS * mvl].into_boxed_slice(),
            scratch: vec![0.0; 8 * mvl].into_boxed_slice(),
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            stats: Stats::default(),
            epc: cfg.elems_per_cycle() as u64,
            compute: true,
            lanes: 0,
            beats: 0,
            gather_beats: 0,
            l2_trace: None,
            tracer: Tracer::disabled(),
            trace_track: TrackId::new(1, 0),
            region_stack: Vec::new(),
            lint: None,
            cfg,
        };
        m.set_vl(mvl);
        Ok(m)
    }

    /// Build a machine that advances the timing model exactly like
    /// [`Machine::new`] but computes no f32 lanes: loads leave registers
    /// as they were, stores leave destination slices untouched, and
    /// [`Machine::vredsum`] / [`Machine::read_reg`] see empty registers.
    /// For callers that keep only [`Stats`] from kernels whose control
    /// flow and addresses do not depend on data; [`Stats`], lint checks
    /// and traced regions are identical to a computing run, and every
    /// kernel-contract assertion still fires. Panics on an invalid
    /// config like [`Machine::new`].
    pub fn timing_only(cfg: MachineConfig) -> Self {
        let mut m = Self::new(cfg);
        m.compute = false;
        m.set_vl(m.vl);
        m
    }

    // ---------------------------------------------------------------- lint

    /// Arm the machine invariant checker. Every subsequent operation
    /// validates cycle monotonicity, the `vsetvl` grant contract, cache /
    /// DRAM accounting reconciliation and uninitialized-lane reads,
    /// panicking with context on the first violation. The lint never
    /// charges cycles or touches [`Stats`], so cycle counts are identical
    /// with it on or off.
    pub fn enable_lint(&mut self) {
        self.lint = Some(Box::new(LintState::new()));
    }

    /// The armed invariant checker, if any (tests use
    /// [`LintState::checks`] to assert the lint actually ran).
    pub fn lint(&self) -> Option<&LintState> {
        self.lint.as_deref()
    }

    #[inline]
    fn lint_read(&mut self, r: VReg, op: &'static str) {
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_read(r.0, self.vl, op);
        }
    }

    #[inline]
    fn lint_write(&mut self, r: VReg) {
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_write(r.0, self.vl);
        }
    }

    /// Run the post-operation invariant sweep (no-op when disarmed).
    #[inline]
    fn lint_tick(&mut self) {
        if self.lint.is_some() {
            let s = self.stats();
            let vpu = self.cfg.vpu;
            if let Some(l) = self.lint.as_deref_mut() {
                l.on_tick(&s, vpu);
            }
        }
    }

    // ------------------------------------------------------------- tracing

    /// Attach a span tracer; the machine's regions land on `track` with
    /// timestamps in simulated cycles (1 trace-µs ≡ 1 cycle). Tracing never
    /// charges cycles or touches [`Stats`], so counted results are
    /// bit-identical with tracing on or off.
    pub fn set_tracer(&mut self, tracer: Tracer, track: TrackId) {
        self.tracer = tracer;
        self.trace_track = track;
    }

    /// The attached tracer (disabled unless [`Machine::set_tracer`] ran).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Whether an enabled tracer is attached.
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Open a traced region (kernel, layer, network) at the current cycle.
    /// A no-op without an enabled tracer.
    pub fn region_begin(&mut self, name: &str) {
        if !self.tracer.is_enabled() {
            return;
        }
        let before = self.stats();
        let span = self.tracer.begin(self.trace_track, name, self.stats.cycles as f64);
        self.region_stack.push((span, before));
    }

    /// Close the innermost open region, attaching the region's [`Stats`]
    /// delta (cycles, FLOPs, DRAM bytes, avg-VL, miss rates) plus `extra`
    /// arguments to its span. A no-op without an enabled tracer.
    pub fn region_end_with(&mut self, extra: lv_trace::Args) {
        if !self.tracer.is_enabled() {
            return;
        }
        let Some((span, before)) = self.region_stack.pop() else { return };
        let delta = self.stats().delta_since(&before);
        let line_bytes = self.cfg.l2.line_bytes;
        let mut args: lv_trace::Args = vec![
            (keys::CYCLES.to_string(), delta.cycles.into()),
            (keys::FLOPS.to_string(), delta.flops.into()),
            (keys::DRAM_BYTES.to_string(), delta.dram_bytes(line_bytes).into()),
            (keys::AVG_VL.to_string(), delta.avg_vl().into()),
            (keys::L1_MISS_RATE.to_string(), delta.l1_miss_rate().into()),
            (keys::L2_MISS_RATE.to_string(), delta.l2_miss_rate().into()),
            (keys::VECTOR_INSTRS.to_string(), delta.vector_instrs.into()),
            (
                keys::BW_UTIL.to_string(),
                (delta.dram_bytes_per_cycle(line_bytes) / self.cfg.peak_dram_bytes_per_cycle())
                    .into(),
            ),
        ];
        args.extend(extra);
        self.tracer.end_args(span, self.stats.cycles as f64, args);
    }

    /// [`Machine::region_end_with`] without extra arguments.
    pub fn region_end(&mut self) {
        self.region_end_with(Vec::new());
    }

    /// Start recording every L2 access as a `(cycle, line)` pair. Used by
    /// the co-location contention study; costs memory proportional to the
    /// run's L2 traffic, so prefer scaled-down layers.
    pub fn enable_l2_trace(&mut self) {
        self.l2_trace = Some(Vec::new());
    }

    /// Take the recorded L2 trace (empty if tracing was never enabled).
    pub fn take_l2_trace(&mut self) -> Vec<(u64, u64)> {
        self.l2_trace.take().unwrap_or_default()
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Maximum vector length in f32 elements.
    pub fn mvl(&self) -> usize {
        self.mvl
    }

    /// Currently granted vector length in f32 elements.
    pub fn vl(&self) -> usize {
        self.vl
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Snapshot of all counters.
    pub fn stats(&self) -> Stats {
        let mut s = self.stats;
        s.l1_accesses = self.l1.accesses();
        s.l1_misses = self.l1.misses();
        s.l2_accesses = self.l2.accesses();
        s.l2_misses = self.l2.misses();
        s
    }

    /// Clear timing counters and cache contents (cold start).
    pub fn reset(&mut self) {
        self.stats = Stats::default();
        self.l1.reset();
        self.l2.reset();
        self.set_vl(self.mvl);
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_reset();
        }
    }

    // ---------------------------------------------------------------- core

    /// `vsetvl`: request `avl` elements, get `min(avl, MVL)` granted.
    #[inline]
    pub fn vsetvl(&mut self, avl: usize) -> usize {
        debug_assert!(avl > 0, "vsetvl with zero avl");
        self.set_vl(avl.min(self.mvl));
        self.stats.cycles += self.cfg.cost.vsetvl;
        self.stats.vsetvls += 1;
        if let Some(l) = self.lint.as_deref_mut() {
            l.on_vsetvl(avl, self.vl, self.mvl);
        }
        self.lint_tick();
        self.vl
    }

    /// Grant `vl` and derive everything the per-instruction paths read
    /// from it, so no instruction divides.
    #[inline]
    fn set_vl(&mut self, vl: usize) {
        self.vl = vl;
        self.lanes = if self.compute { vl } else { 0 };
        self.beats = (vl as u64).div_ceil(self.epc);
        self.gather_beats = (vl as u64).div_ceil(self.cfg.cost.gather_elems_per_cycle.max(1));
    }

    #[inline]
    fn reg(&self, r: VReg) -> &[f32] {
        let base = r.0 as usize * self.mvl;
        &self.vregs[base..base + self.lanes]
    }

    #[inline]
    fn reg_mut(&mut self, r: VReg) -> &mut [f32] {
        let base = r.0 as usize * self.mvl;
        &mut self.vregs[base..base + self.lanes]
    }

    /// Split the register file into one mutable destination and up to two
    /// shared sources. Panics if the destination aliases a source (RVV
    /// allows it, but our kernels never rely on it and aliasing here would
    /// be a kernel bug).
    #[inline]
    fn reg_dss(&mut self, d: VReg, a: VReg, b: VReg) -> (&mut [f32], &[f32], &[f32]) {
        assert!(d != a && d != b, "destination register aliases a source");
        let lanes = self.lanes;
        let mvl = self.mvl;
        let ptr = self.vregs.as_mut_ptr();
        // SAFETY: d, a, b index disjoint mvl-sized segments of `vregs`
        // (d != a, d != b asserted above; a == b is fine for shared refs),
        // and lanes <= vl <= mvl so the slices stay inside their segments.
        unsafe {
            (
                std::slice::from_raw_parts_mut(ptr.add(d.0 as usize * mvl), lanes),
                std::slice::from_raw_parts(ptr.add(a.0 as usize * mvl), lanes),
                std::slice::from_raw_parts(ptr.add(b.0 as usize * mvl), lanes),
            )
        }
    }

    // ------------------------------------------------------------- timing

    #[inline]
    fn arith_cost(&mut self, n_instr: u64) {
        let c = &self.cfg.cost;
        self.stats.cycles += n_instr * (c.issue + c.arith_startup + self.beats);
        self.stats.vector_instrs += n_instr;
        self.stats.vector_elems += n_instr * self.vl as u64;
    }

    /// Charge the cost of one line moving through the hierarchy, filling
    /// caches on the way. Returns cycles.
    #[inline]
    fn line_cost(&mut self, line: u64, prefetched: bool) -> u64 {
        let c = self.cfg.cost;
        let disc = if prefetched { c.prefetch_discount } else { 1 };
        match self.cfg.vpu {
            VpuStyle::Integrated => {
                if self.l1.access_line(line) {
                    c.l1_line
                } else if self.trace_l2(line) {
                    (c.l2_line / disc).max(1)
                } else {
                    // Prefetched fills are already counted in
                    // `prefetch_lines`; counting them here too would
                    // double-book the DRAM bytes.
                    if !prefetched {
                        self.stats.mem_lines += 1;
                    }
                    (c.mem_line / disc).max(1)
                }
            }
            VpuStyle::Decoupled => {
                // Vector memory bypasses L1 and talks to L2 directly.
                if self.trace_l2(line) {
                    (c.l2_line / disc).max(1)
                } else {
                    if !prefetched {
                        self.stats.mem_lines += 1;
                    }
                    (c.mem_line / disc).max(1)
                }
            }
        }
    }

    /// Access the L2 (recording the trace when enabled).
    #[inline]
    fn trace_l2(&mut self, line: u64) -> bool {
        if let Some(t) = self.l2_trace.as_mut() {
            t.push((self.stats.cycles, line));
        }
        self.l2.access_line(line)
    }

    /// Touch a contiguous byte range; returns cycle cost of the lines.
    #[inline]
    fn touch_range(&mut self, addr: usize, bytes: usize) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let line_bytes = 64usize;
        let first = (addr / line_bytes) as u64;
        let last = ((addr + bytes - 1) / line_bytes) as u64;
        let mut cost = 0;
        for line in first..=last {
            cost += self.line_cost(line, false);
        }
        cost
    }

    #[inline]
    fn mem_instr_base(&mut self) {
        let c = &self.cfg.cost;
        self.stats.cycles += c.issue + c.mem_startup;
        self.stats.vector_instrs += 1;
        self.stats.vector_elems += self.vl as u64;
    }

    // ------------------------------------------------- unit-stride memory

    /// `vle32.v`: unit-stride load of `vl` elements from `src[0..vl]`.
    #[inline]
    pub fn vle32(&mut self, vd: VReg, src: &[f32]) {
        let vl = self.vl;
        assert!(src.len() >= vl, "vle32 source too short: {} < {}", src.len(), vl);
        self.mem_instr_base();
        let cost = self.touch_range(src.as_ptr() as usize, vl * 4);
        self.stats.cycles += cost.max(self.beats);
        let lanes = self.lanes;
        self.reg_mut(vd).copy_from_slice(&src[..lanes]);
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vse32.v`: unit-stride store of `vl` elements to `dst[0..vl]`.
    #[inline]
    pub fn vse32(&mut self, vs: VReg, dst: &mut [f32]) {
        let vl = self.vl;
        assert!(dst.len() >= vl, "vse32 destination too short: {} < {}", dst.len(), vl);
        self.lint_read(vs, "vse32");
        self.mem_instr_base();
        let cost = self.touch_range(dst.as_ptr() as usize, vl * 4);
        self.stats.cycles += cost.max(self.beats);
        let lanes = self.lanes;
        dst[..lanes].copy_from_slice(self.reg(vs));
        self.lint_tick();
    }

    // ------------------------------------------------- strided and gather

    #[inline]
    fn gather_extra(&mut self) {
        self.stats.cycles += self.gather_beats;
    }

    /// `vlse32.v`: strided load, element `i` comes from `src[i * stride]`.
    pub fn vlse32(&mut self, vd: VReg, src: &[f32], stride: usize) {
        let vl = self.vl;
        assert!(stride > 0 && (vl - 1) * stride < src.len(), "vlse32 out of bounds");
        self.mem_instr_base();
        self.gather_extra();
        let base_addr = src.as_ptr() as usize;
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for i in 0..vl {
            let a = base_addr + i * stride * 4;
            let line = (a / 64) as u64;
            if line != last_line {
                cost += self.line_cost(line, false);
                last_line = line;
            }
        }
        self.stats.cycles += cost;
        for (i, r) in self.reg_mut(vd).iter_mut().enumerate() {
            *r = src[i * stride];
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vsse32.v`: strided store, element `i` goes to `dst[i * stride]`.
    pub fn vsse32(&mut self, vs: VReg, dst: &mut [f32], stride: usize) {
        let vl = self.vl;
        assert!(stride > 0 && (vl - 1) * stride < dst.len(), "vsse32 out of bounds");
        self.lint_read(vs, "vsse32");
        self.mem_instr_base();
        self.gather_extra();
        let base_addr = dst.as_ptr() as usize;
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for i in 0..vl {
            let a = base_addr + i * stride * 4;
            let line = (a / 64) as u64;
            if line != last_line {
                cost += self.line_cost(line, false);
                last_line = line;
            }
        }
        self.stats.cycles += cost;
        for (i, &r) in self.reg(vs).iter().enumerate() {
            dst[i * stride] = r;
        }
        self.lint_tick();
    }

    /// Segmented load: fills the register with `nsegs` segments of
    /// `seg_len` contiguous elements, segment `s` starting at
    /// `src[s * seg_stride]`. Requires `vl == nsegs * seg_len`.
    ///
    /// `seg_stride == 0` replicates the same segment `nsegs` times (used by
    /// the Direct kernel to broadcast a weight row across output pixels).
    /// Models an RVV segment/indexed load.
    pub fn vload_seg(
        &mut self,
        vd: VReg,
        src: &[f32],
        seg_len: usize,
        seg_stride: usize,
        nsegs: usize,
    ) {
        let vl = self.vl;
        assert_eq!(vl, nsegs * seg_len, "vload_seg: vl != nsegs * seg_len");
        assert!((nsegs - 1) * seg_stride + seg_len <= src.len(), "vload_seg out of bounds");
        self.mem_instr_base();
        self.gather_extra();
        let base_addr = src.as_ptr() as usize;
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for s in 0..nsegs {
            let a0 = base_addr + s * seg_stride * 4;
            let first = (a0 / 64) as u64;
            let last = ((a0 + seg_len * 4 - 1) / 64) as u64;
            for line in first..=last {
                if line != last_line {
                    cost += self.line_cost(line, false);
                    last_line = line;
                }
            }
        }
        self.stats.cycles += cost;
        for (s, seg) in self.reg_mut(vd).chunks_exact_mut(seg_len).enumerate() {
            let off = s * seg_stride;
            seg.copy_from_slice(&src[off..off + seg_len]);
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// Segmented store: inverse of [`Machine::vload_seg`] (`seg_stride > 0`).
    pub fn vstore_seg(
        &mut self,
        vs: VReg,
        dst: &mut [f32],
        seg_len: usize,
        seg_stride: usize,
        nsegs: usize,
    ) {
        let vl = self.vl;
        assert_eq!(vl, nsegs * seg_len, "vstore_seg: vl != nsegs * seg_len");
        assert!(seg_stride > 0, "vstore_seg with zero stride would overwrite");
        assert!((nsegs - 1) * seg_stride + seg_len <= dst.len(), "vstore_seg out of bounds");
        self.lint_read(vs, "vstore_seg");
        self.mem_instr_base();
        self.gather_extra();
        let base_addr = dst.as_ptr() as usize;
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for s in 0..nsegs {
            let a0 = base_addr + s * seg_stride * 4;
            let first = (a0 / 64) as u64;
            let last = ((a0 + seg_len * 4 - 1) / 64) as u64;
            for line in first..=last {
                if line != last_line {
                    cost += self.line_cost(line, false);
                    last_line = line;
                }
            }
        }
        self.stats.cycles += cost;
        for (s, seg) in self.reg(vs).chunks_exact(seg_len).enumerate() {
            let off = s * seg_stride;
            dst[off..off + seg_len].copy_from_slice(seg);
        }
        self.lint_tick();
    }

    /// Masked segmented store: the register is viewed as `nsegs` blocks of
    /// `seg_block` elements, but only the first `seg_valid` elements of each
    /// block are stored (segment `s` lands at `dst[s * seg_stride ..]`).
    /// Models a predicated segment store; used for clipped Winograd output
    /// tiles. Requires `vl == nsegs * seg_block` and `seg_valid <= seg_block`.
    pub fn vstore_seg_partial(
        &mut self,
        vs: VReg,
        dst: &mut [f32],
        seg_valid: usize,
        seg_block: usize,
        seg_stride: usize,
        nsegs: usize,
    ) {
        let vl = self.vl;
        assert_eq!(vl, nsegs * seg_block, "vstore_seg_partial: vl != nsegs * seg_block");
        assert!(seg_valid <= seg_block && seg_valid > 0);
        assert!(
            (nsegs - 1) * seg_stride + seg_valid <= dst.len(),
            "vstore_seg_partial out of bounds"
        );
        self.lint_read(vs, "vstore_seg_partial");
        self.mem_instr_base();
        self.gather_extra();
        let base_addr = dst.as_ptr() as usize;
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for s in 0..nsegs {
            let a0 = base_addr + s * seg_stride * 4;
            let first = (a0 / 64) as u64;
            let last = ((a0 + seg_valid * 4 - 1) / 64) as u64;
            for line in first..=last {
                if line != last_line {
                    cost += self.line_cost(line, false);
                    last_line = line;
                }
            }
        }
        self.stats.cycles += cost;
        for (s, block) in self.reg(vs).chunks_exact(seg_block).enumerate() {
            let off = s * seg_stride;
            dst[off..off + seg_valid].copy_from_slice(&block[..seg_valid]);
        }
        self.lint_tick();
    }

    /// Indexed load with repetition: element `i` is
    /// `src[(i / repeat) * stride]`, i.e. each gathered element is repeated
    /// `repeat` times. Used by the Direct kernel to pair one input pixel
    /// with a full row of output channels. Requires `repeat` divides `vl`.
    pub fn vgather_repeat(&mut self, vd: VReg, src: &[f32], stride: usize, repeat: usize) {
        let vl = self.vl;
        assert!(repeat > 0 && vl % repeat == 0, "vgather_repeat: repeat must divide vl");
        let npix = vl / repeat;
        assert!(npix == 0 || (npix - 1) * stride < src.len(), "vgather_repeat out of bounds");
        self.mem_instr_base();
        self.gather_extra();
        let base_addr = src.as_ptr() as usize;
        let mut cost = 0u64;
        let mut last_line = u64::MAX;
        for p in 0..npix {
            let a = base_addr + p * stride * 4;
            let line = (a / 64) as u64;
            if line != last_line {
                cost += self.line_cost(line, false);
                last_line = line;
            }
        }
        self.stats.cycles += cost;
        for (p, run) in self.reg_mut(vd).chunks_exact_mut(repeat).enumerate() {
            run.fill(src[p * stride]);
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    // -------------------------------------------------------- arithmetic

    /// `vfmv.v.f`: splat a scalar into a register.
    #[inline]
    pub fn vfmv_v_f(&mut self, vd: VReg, x: f32) {
        self.arith_cost(1);
        self.reg_mut(vd).fill(x);
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vmv.v.v`: register-to-register copy.
    #[inline]
    pub fn vmv(&mut self, vd: VReg, vs: VReg) {
        self.lint_read(vs, "vmv");
        self.arith_cost(1);
        if vd != vs {
            let (d, a, _) = self.reg_dss(vd, vs, vs);
            d.copy_from_slice(a);
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmacc.vf`: `vd[i] += f * vs[i]` (the workhorse of every kernel).
    #[inline]
    pub fn vfmacc_vf(&mut self, vd: VReg, f: f32, vs: VReg) {
        self.lint_read(vd, "vfmacc.vf (accumulator)");
        self.lint_read(vs, "vfmacc.vf");
        self.arith_cost(1);
        self.stats.flops += 2 * self.vl as u64;
        let (d, a, _) = self.reg_dss(vd, vs, vs);
        for (x, &y) in d.iter_mut().zip(a) {
            *x += f * y;
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmacc.vv`: `vd[i] += va[i] * vb[i]`.
    #[inline]
    pub fn vfmacc_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(vd, "vfmacc.vv (accumulator)");
        self.lint_read(va, "vfmacc.vv");
        self.lint_read(vb, "vfmacc.vv");
        self.arith_cost(1);
        self.stats.flops += 2 * self.vl as u64;
        let (d, a, b) = self.reg_dss(vd, va, vb);
        for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
            *x += y * z;
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfnmsac.vv`: `vd[i] -= va[i] * vb[i]`.
    #[inline]
    pub fn vfnmsac_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(vd, "vfnmsac.vv (accumulator)");
        self.lint_read(va, "vfnmsac.vv");
        self.lint_read(vb, "vfnmsac.vv");
        self.arith_cost(1);
        self.stats.flops += 2 * self.vl as u64;
        let (d, a, b) = self.reg_dss(vd, va, vb);
        for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
            *x -= y * z;
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfadd.vv`: `vd[i] = va[i] + vb[i]`.
    #[inline]
    pub fn vfadd_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfadd.vv");
        self.lint_read(vb, "vfadd.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == va {
            let (d, b, _) = self.reg_dss(vd, vb, vb);
            for (x, &z) in d.iter_mut().zip(b) {
                *x += z;
            }
        } else if vd == vb {
            let (d, a, _) = self.reg_dss(vd, va, va);
            for (x, &y) in d.iter_mut().zip(a) {
                *x += y;
            }
        } else {
            let (d, a, b) = self.reg_dss(vd, va, vb);
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x = y + z;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfsub.vv`: `vd[i] = va[i] - vb[i]` (vd must not alias sources).
    #[inline]
    pub fn vfsub_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfsub.vv");
        self.lint_read(vb, "vfsub.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        let (d, a, b) = self.reg_dss(vd, va, vb);
        for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
            *x = y - z;
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmul.vv`: `vd[i] = va[i] * vb[i]` (vd must not alias sources).
    #[inline]
    pub fn vfmul_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfmul.vv");
        self.lint_read(vb, "vfmul.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        let (d, a, b) = self.reg_dss(vd, va, vb);
        for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
            *x = y * z;
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmul.vf`: `vd[i] = f * vs[i]`; `vd == vs` allowed (in-place scale).
    #[inline]
    pub fn vfmul_vf(&mut self, vd: VReg, f: f32, vs: VReg) {
        self.lint_read(vs, "vfmul.vf");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == vs {
            for x in self.reg_mut(vd) {
                *x *= f;
            }
        } else {
            let (d, a, _) = self.reg_dss(vd, vs, vs);
            for (x, &y) in d.iter_mut().zip(a) {
                *x = f * y;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfadd.vf`: `vd[i] = f + vs[i]`; `vd == vs` allowed.
    #[inline]
    pub fn vfadd_vf(&mut self, vd: VReg, f: f32, vs: VReg) {
        self.lint_read(vs, "vfadd.vf");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == vs {
            for x in self.reg_mut(vd) {
                *x += f;
            }
        } else {
            let (d, a, _) = self.reg_dss(vd, vs, vs);
            for (x, &y) in d.iter_mut().zip(a) {
                *x = f + y;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfmax.vv`: elementwise max (for max-pooling); `vd == va` allowed.
    #[inline]
    pub fn vfmax_vv(&mut self, vd: VReg, va: VReg, vb: VReg) {
        self.lint_read(va, "vfmax.vv");
        self.lint_read(vb, "vfmax.vv");
        self.arith_cost(1);
        self.stats.flops += self.vl as u64;
        if vd == va {
            let (d, b, _) = self.reg_dss(vd, vb, vb);
            for (x, &z) in d.iter_mut().zip(b) {
                *x = x.max(z);
            }
        } else {
            let (d, a, b) = self.reg_dss(vd, va, vb);
            for ((x, &y), &z) in d.iter_mut().zip(a).zip(b) {
                *x = y.max(z);
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// Leaky-ReLU on a register: `x = if x < 0 { alpha * x } else { x }`.
    /// Modeled as two vector instructions (compare + predicated multiply).
    #[inline]
    pub fn vleaky(&mut self, vd: VReg, alpha: f32) {
        self.lint_read(vd, "vleaky");
        self.arith_cost(2);
        self.stats.flops += self.vl as u64;
        for x in self.reg_mut(vd) {
            if *x < 0.0 {
                *x *= alpha;
            }
        }
        self.lint_write(vd);
        self.lint_tick();
    }

    /// `vfredsum`: horizontal sum of the register; costs an extra
    /// log-depth reduction tree on top of one pass through the lanes.
    pub fn vredsum(&mut self, vs: VReg) -> f32 {
        self.lint_read(vs, "vfredsum");
        let c = &self.cfg.cost;
        let tree = (self.epc as f64).log2().ceil() as u64;
        self.stats.cycles += c.issue + c.arith_startup + self.beats + tree;
        self.stats.vector_instrs += 1;
        self.stats.vector_elems += self.vl as u64;
        self.stats.flops += self.vl as u64;
        self.lint_tick();
        self.reg(vs).iter().sum()
    }

    /// Transpose each consecutive 8x8 block held across eight registers:
    /// register `regs[r]`, lane block `c` holds row `r` of tile `c`. After
    /// the call, lane blocks hold the transposed tiles. Requires `vl` to be
    /// a multiple of 8. Models the zip/unzip ladder SVE and RVV use
    /// (24 register permutes for 8 registers).
    pub fn vtranspose8(&mut self, regs: [VReg; 8]) {
        self.vtranspose_n(&regs);
    }

    /// Generalized block transpose: `regs.len() == n` registers, each lane
    /// block of `n` elements in register `r` holds row `r` of an `n x n`
    /// tile; after the call lane blocks hold the transposed tiles.
    /// Requires `vl % n == 0`. Cost models the zip/unzip ladder
    /// (`3n` register permutes for `n` registers).
    pub fn vtranspose_n(&mut self, regs: &[VReg]) {
        let n = regs.len();
        let vl = self.vl;
        assert!((2..=8).contains(&n), "vtranspose_n supports 2..=8 registers");
        assert_eq!(vl % n, 0, "vtranspose_n requires vl % n == 0");
        for &r in regs {
            self.lint_read(r, "vtranspose");
        }
        let permutes = (3 * n) as u64;
        let c = &self.cfg.cost;
        self.stats.cycles += permutes * (c.issue + self.beats);
        self.stats.vector_instrs += permutes;
        self.stats.vector_elems += permutes * vl as u64;
        let mvl = self.mvl;
        let nblocks = self.lanes / n;
        // Gather into scratch, transposed, then write back.
        for blk in 0..nblocks {
            for (r, reg) in regs.iter().enumerate() {
                let base = reg.0 as usize * mvl + blk * n;
                for col in 0..n {
                    self.scratch[(blk * n + col) * n + r] = self.vregs[base + col];
                }
            }
        }
        for blk in 0..nblocks {
            for (r, reg) in regs.iter().enumerate() {
                let base = reg.0 as usize * mvl + blk * n;
                let off = (blk * n + r) * n;
                self.vregs[base..base + n].copy_from_slice(&self.scratch[off..off + n]);
            }
        }
        for &r in regs {
            self.lint_write(r);
        }
        self.lint_tick();
    }

    // ------------------------------------------------------------ scalar

    /// Charge `n` scalar ALU operations (loop control, address math that
    /// the vector unit cannot hide).
    #[inline]
    pub fn scalar_ops(&mut self, n: u64) {
        self.stats.cycles += n * self.cfg.cost.scalar_op;
        self.stats.scalar_ops += n;
    }

    /// Scalar load: reads `src[idx]` through the cache hierarchy (always
    /// via L1, even on a decoupled-VPU machine — the scalar core owns L1).
    pub fn scalar_load(&mut self, src: &[f32], idx: usize) -> f32 {
        let c = self.cfg.cost;
        let addr = src.as_ptr() as usize + idx * 4;
        let line = (addr / 64) as u64;
        let cost = if self.l1.access_line(line) {
            c.l1_line
        } else if self.l2.access_line(line) {
            c.l2_line
        } else {
            self.stats.mem_lines += 1;
            c.mem_line
        };
        self.stats.cycles += c.scalar_op + cost;
        self.stats.scalar_ops += 1;
        self.lint_tick();
        src[idx]
    }

    /// Scalar load whose ALU/issue cost is hidden under concurrent vector
    /// work (dual-issue in-order pipelines overlap scalar loads with vector
    /// arithmetic): only cache-miss cycles are charged, but the access still
    /// exercises the hierarchy so footprints are accounted. Used for the
    /// GEMM kernels' A-element broadcasts.
    pub fn scalar_load_hidden(&mut self, src: &[f32], idx: usize) -> f32 {
        let c = self.cfg.cost;
        let addr = src.as_ptr() as usize + idx * 4;
        let line = (addr / 64) as u64;
        if !self.l1.access_line(line) {
            let cost = if self.l2.access_line(line) {
                c.l2_line
            } else {
                self.stats.mem_lines += 1;
                c.mem_line
            };
            self.stats.cycles += cost;
        }
        self.stats.scalar_ops += 1;
        self.lint_tick();
        src[idx]
    }

    /// Scalar store: writes `dst[idx]` through the cache hierarchy.
    pub fn scalar_store(&mut self, dst: &mut [f32], idx: usize, v: f32) {
        let c = self.cfg.cost;
        let addr = dst.as_ptr() as usize + idx * 4;
        let line = (addr / 64) as u64;
        let cost = if self.l1.access_line(line) {
            c.l1_line
        } else if self.l2.access_line(line) {
            c.l2_line
        } else {
            self.stats.mem_lines += 1;
            c.mem_line
        };
        self.stats.cycles += c.scalar_op + cost;
        self.stats.scalar_ops += 1;
        let slot = &mut dst[idx];
        if self.compute {
            *slot = v;
        }
        self.lint_tick();
    }

    /// Scalar fused multiply-add, counted as one scalar op + 2 flops.
    #[inline]
    pub fn scalar_fma(&mut self) {
        self.stats.cycles += self.cfg.cost.scalar_op;
        self.stats.scalar_ops += 1;
        self.stats.flops += 2;
    }

    // ---------------------------------------------------------- prefetch

    /// Software prefetch of `bytes` starting at `&src[offset]`. On machines
    /// without effective software prefetch (`sw_prefetch == false`, as on
    /// the paper's RISC-VV toolchain and gem5 model) this is dropped by the
    /// "compiler" at zero cost. When honoured, lines are pulled into the
    /// hierarchy at a discounted (latency-hidden) cost.
    pub fn prefetch(&mut self, src: &[f32], offset: usize, bytes: usize) {
        if !self.cfg.sw_prefetch || bytes == 0 {
            return;
        }
        let end = (offset * 4 + bytes).min(src.len() * 4);
        let start = offset * 4;
        if start >= end {
            return;
        }
        let base = src.as_ptr() as usize;
        let first = ((base + start) / 64) as u64;
        let last = ((base + end - 1) / 64) as u64;
        let mut cost = 0u64;
        for line in first..=last {
            if !self.probe_resident(line) {
                self.stats.prefetch_lines += 1;
                cost += self.line_cost(line, true);
            }
        }
        self.stats.cycles += cost;
        self.lint_tick();
    }

    #[inline]
    fn probe_resident(&self, line: u64) -> bool {
        match self.cfg.vpu {
            VpuStyle::Integrated => self.l1.probe(line) || self.l2.probe(line),
            VpuStyle::Decoupled => self.l2.probe(line),
        }
    }

    /// Direct read access to a register's live elements (for tests); empty
    /// on a [`Machine::timing_only`] machine.
    pub fn read_reg(&self, r: VReg) -> &[f32] {
        self.reg(r)
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("vlen_bits", &self.cfg.vlen_bits)
            .field("vl", &self.vl)
            .field("cycles", &self.stats.cycles)
            .finish()
    }
}

/// Convenience: cost model access for kernels that want to reason about
/// unroll factors etc.
impl Machine {
    /// Cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cfg.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn mk(vlen: usize) -> Machine {
        Machine::new(MachineConfig::rvv_integrated(vlen, 1))
    }

    #[test]
    fn vsetvl_grants_min() {
        let mut m = mk(512); // 16 elems
        assert_eq!(m.vsetvl(100), 16);
        assert_eq!(m.vsetvl(7), 7);
    }

    /// One vector axpy pass, used by the tracing tests.
    fn axpy(m: &mut Machine) {
        let src: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 256];
        let mut i = 0;
        while i < src.len() {
            let vl = m.vsetvl(src.len() - i);
            m.vle32(VReg(0), &src[i..]);
            m.vfmv_v_f(VReg(1), 0.5);
            m.vfmacc_vf(VReg(1), 2.0, VReg(0));
            m.vse32(VReg(1), &mut dst[i..]);
            i += vl;
        }
    }

    #[test]
    fn tracing_does_not_change_counted_work() {
        let mut plain = mk(512);
        axpy(&mut plain);

        let mut traced = mk(512);
        traced.set_tracer(Tracer::enabled(), TrackId::new(1, 0));
        traced.region_begin("axpy");
        axpy(&mut traced);
        traced.region_end();

        // Compare the address-independent counters: the cache model keys on
        // host heap addresses, so the tracer's own allocations may legally
        // shift hit/miss timing between two in-process runs. A machine with
        // a *disabled* tracer allocates nothing, so whole processes stay
        // bit-identical with tracing off.
        let (p, t) = (plain.stats(), traced.stats());
        assert_eq!(p.flops, t.flops, "tracing must be invisible to counted work");
        assert_eq!(p.vector_instrs, t.vector_instrs);
        assert_eq!(p.vector_elems, t.vector_elems);
        assert_eq!(p.vsetvls, t.vsetvls);
        assert_eq!(p.scalar_ops, t.scalar_ops);
    }

    #[test]
    fn region_spans_carry_stats_deltas() {
        let mut m = mk(512);
        let tracer = Tracer::enabled();
        m.set_tracer(tracer.clone(), TrackId::new(1, 0));
        m.region_begin("outer");
        m.region_begin("axpy");
        axpy(&mut m);
        m.region_end();
        m.region_end_with(vec![(keys::KIND.to_string(), "test".into())]);

        let spans = tracer.snapshot_spans();
        assert_eq!(spans.len(), 2);
        let (outer, inner) = (&spans[0], &spans[1]);
        assert_eq!(outer.name, "outer");
        assert_eq!(inner.name, "axpy");
        // Span duration is exactly the cycles the region charged.
        let cyc = |s: &lv_trace::FinishedSpan| {
            s.arg(keys::CYCLES).and_then(lv_trace::ArgValue::as_f64).unwrap()
        };
        assert_eq!(inner.dur_us(), cyc(inner));
        assert_eq!(outer.dur_us(), cyc(outer));
        assert_eq!(cyc(outer), m.cycles() as f64);
        assert!(inner.arg(keys::FLOPS).is_some());
        assert!(inner.arg(keys::DRAM_BYTES).is_some());
        assert_eq!(outer.arg(keys::KIND).and_then(lv_trace::ArgValue::as_str), Some("test"));
    }

    #[test]
    fn regions_without_tracer_are_noops() {
        let mut m = mk(512);
        m.region_begin("ignored");
        axpy(&mut m);
        m.region_end();
        assert!(!m.trace_enabled());
        assert!(m.tracer().snapshot_spans().is_empty());
    }

    #[test]
    fn load_compute_store_roundtrip() {
        let mut m = mk(512);
        let src: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut dst = vec![0.0f32; 16];
        m.vsetvl(16);
        m.vle32(VReg(1), &src);
        m.vfmul_vf(VReg(2), 2.0, VReg(1));
        m.vse32(VReg(2), &mut dst);
        let want: Vec<f32> = (0..16).map(|i| 2.0 * i as f32).collect();
        assert_eq!(dst, want);
        assert!(m.cycles() > 0);
    }

    #[test]
    fn fmacc_vf_computes() {
        let mut m = mk(512);
        m.vsetvl(4);
        m.vfmv_v_f(VReg(0), 1.0);
        m.vfmv_v_f(VReg(1), 3.0);
        m.vfmacc_vf(VReg(0), 2.0, VReg(1));
        assert_eq!(m.read_reg(VReg(0)), &[7.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn strided_load_gathers() {
        let mut m = mk(512);
        let src: Vec<f32> = (0..64).map(|i| i as f32).collect();
        m.vsetvl(8);
        m.vlse32(VReg(3), &src, 8);
        assert_eq!(m.read_reg(VReg(3)), &[0.0, 8.0, 16.0, 24.0, 32.0, 40.0, 48.0, 56.0]);
    }

    #[test]
    fn seg_load_with_zero_stride_replicates() {
        let mut m = mk(512);
        let src = vec![1.0f32, 2.0, 3.0, 4.0];
        m.vsetvl(8);
        m.vload_seg(VReg(0), &src, 4, 0, 2);
        assert_eq!(m.read_reg(VReg(0)), &[1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn gather_repeat_expands_pixels() {
        let mut m = mk(512);
        let src: Vec<f32> = (0..32).map(|i| i as f32).collect();
        m.vsetvl(8);
        m.vgather_repeat(VReg(0), &src, 10, 4);
        assert_eq!(m.read_reg(VReg(0)), &[0.0, 0.0, 0.0, 0.0, 10.0, 10.0, 10.0, 10.0]);
    }

    #[test]
    fn transpose8_transposes_blocks() {
        let mut m = mk(512); // vl = 16 -> two 8x8 blocks
        m.vsetvl(16);
        let regs: [VReg; 8] = std::array::from_fn(|i| VReg(i as u8));
        // Fill: reg r, block b, col c = r*100 + b*10 + c
        for r in 0..8 {
            let vals: Vec<f32> =
                (0..16).map(|i| (r * 100 + (i / 8) * 10 + (i % 8)) as f32).collect();
            m.vle32(regs[r], &vals);
        }
        m.vtranspose8(regs);
        // After transpose: reg r, block b, col c = c*100 + b*10 + r
        for r in 0..8 {
            let got = m.read_reg(regs[r]).to_vec();
            for (i, &g) in got.iter().enumerate() {
                let (b, c) = (i / 8, i % 8);
                assert_eq!(g, (c * 100 + b * 10 + r) as f32, "reg {r} elem {i}");
            }
        }
    }

    #[test]
    fn repeated_load_hits_cache_and_costs_less() {
        let mut m = mk(512);
        let src = vec![1.0f32; 16];
        m.vsetvl(16);
        let c0 = m.cycles();
        m.vle32(VReg(0), &src);
        let cold = m.cycles() - c0;
        let c1 = m.cycles();
        m.vle32(VReg(0), &src);
        let warm = m.cycles() - c1;
        assert!(warm < cold, "warm {warm} should be cheaper than cold {cold}");
    }

    #[test]
    fn longer_vectors_amortize_startup() {
        // Same total work (4096 elements of FMA), two vector lengths.
        let run = |vlen: usize| {
            let mut m = mk(vlen);
            let mut rem = 4096usize;
            while rem > 0 {
                let vl = m.vsetvl(rem);
                m.vfmacc_vf(VReg(0), 1.5, VReg(1));
                rem -= vl;
            }
            m.cycles()
        };
        assert!(run(4096) < run(512));
    }

    #[test]
    fn decoupled_vpu_skips_l1() {
        let mut m = Machine::new(MachineConfig::rvv_decoupled(512, 1));
        let src = vec![0.0f32; 16];
        m.vsetvl(16);
        m.vle32(VReg(0), &src);
        let s = m.stats();
        assert_eq!(s.l1_accesses, 0);
        assert!(s.l2_accesses > 0);
    }

    #[test]
    fn prefetch_noop_without_support() {
        let mut m = mk(512);
        let src = vec![0.0f32; 1024];
        let c0 = m.cycles();
        m.prefetch(&src, 0, 4096);
        assert_eq!(m.cycles(), c0);
        assert_eq!(m.stats().prefetch_lines, 0);
    }

    #[test]
    fn prefetch_warms_cache_when_supported() {
        let mut m = Machine::new(MachineConfig::a64fx_like());
        let src = vec![1.0f32; 256];
        m.prefetch(&src, 0, 1024);
        assert!(m.stats().prefetch_lines > 0);
        // A subsequent load should be all hits: compare against a cold run.
        let pre_cycles = m.cycles();
        m.vsetvl(16);
        m.vle32(VReg(0), &src);
        let warm_cost = m.cycles() - pre_cycles;

        let mut cold = Machine::new(MachineConfig::a64fx_like());
        cold.vsetvl(16);
        let c0 = cold.cycles();
        cold.vle32(VReg(0), &src);
        let cold_cost = cold.cycles() - c0;
        assert!(warm_cost < cold_cost);
    }

    #[test]
    fn stats_track_avg_vl() {
        let mut m = mk(1024); // 32 elems
        m.vsetvl(32);
        m.vfmv_v_f(VReg(0), 0.0);
        m.vsetvl(16);
        m.vfmv_v_f(VReg(0), 0.0);
        let s = m.stats();
        assert_eq!(s.vector_instrs, 2);
        assert!((s.avg_vl() - 24.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn aliasing_dest_panics() {
        let mut m = mk(512);
        m.vsetvl(4);
        m.vfmacc_vv(VReg(1), VReg(1), VReg(2));
    }

    // ---------------------------------------------------- timing-only

    fn mk_timing(vlen: usize) -> Machine {
        Machine::timing_only(MachineConfig::rvv_integrated(vlen, 1))
    }

    #[test]
    #[should_panic(expected = "aliases")]
    fn timing_only_keeps_aliasing_check() {
        let mut m = mk_timing(512);
        m.vsetvl(4);
        m.vfmacc_vv(VReg(1), VReg(1), VReg(2));
    }

    #[test]
    #[should_panic(expected = "vle32 source too short")]
    fn timing_only_keeps_vle32_length_check() {
        let mut m = mk_timing(512);
        m.vsetvl(16);
        m.vle32(VReg(0), &[0.0f32; 15]);
    }

    #[test]
    #[should_panic(expected = "vlse32 out of bounds")]
    fn timing_only_keeps_vlse32_bounds_check() {
        let mut m = mk_timing(512);
        m.vsetvl(8);
        m.vlse32(VReg(0), &[0.0f32; 28], 4); // lane 7 reads index 28
    }

    #[test]
    #[should_panic(expected = "vload_seg: vl != nsegs * seg_len")]
    fn timing_only_keeps_vload_seg_shape_check() {
        let mut m = mk_timing(512);
        m.vsetvl(8);
        m.vload_seg(VReg(0), &[0.0f32; 16], 3, 4, 2);
    }

    #[test]
    fn timing_only_runs_lint() {
        let mut m = mk_timing(512);
        m.enable_lint();
        axpy(&mut m);
        assert!(m.lint().unwrap().checks() > 0, "lint must run on a timing-only machine");
    }

    #[test]
    fn timing_only_stores_leave_destination_untouched() {
        let mut m = mk_timing(512);
        let src: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let mut dst = vec![-1.0f32; 64];
        m.vsetvl(16);
        m.vle32(VReg(0), &src);
        m.vfmul_vf(VReg(1), 2.0, VReg(0));
        m.vse32(VReg(1), &mut dst);
        m.vsse32(VReg(1), &mut dst, 4);
        m.vstore_seg(VReg(1), &mut dst, 4, 8, 4);
        m.vstore_seg_partial(VReg(1), &mut dst, 3, 4, 8, 4);
        m.scalar_store(&mut dst, 5, 7.0);
        assert!(dst.iter().all(|&x| x == -1.0), "timing-only machines produce no outputs");
        assert!(m.read_reg(VReg(1)).is_empty());
        assert_eq!(m.vredsum(VReg(1)), 0.0);
        assert!(m.cycles() > 0 && m.stats().vector_instrs == 7);
    }

    // ------------------------------------------------------------ lint

    #[test]
    fn lint_accepts_clean_kernel_and_never_changes_cycles() {
        let mut plain = mk(512);
        axpy(&mut plain);

        let mut linted = mk(512);
        linted.enable_lint();
        axpy(&mut linted);

        // Like the tracer test above: the cache model keys on host heap
        // addresses, and `enable_lint` allocates, so cache-alignment-dependent
        // counters (cycles, per-line accesses) may legally shift between the
        // two in-process runs. Lint must leave the counted *work* untouched.
        let (p, l) = (plain.stats(), linted.stats());
        assert_eq!(p.flops, l.flops, "lint must be invisible to counted work");
        assert_eq!(p.vector_instrs, l.vector_instrs);
        assert_eq!(p.vector_elems, l.vector_elems);
        assert_eq!(p.vsetvls, l.vsetvls);
        assert_eq!(p.scalar_ops, l.scalar_ops);
        assert!(linted.lint().unwrap().checks() > 0, "lint must actually have run");
    }

    #[test]
    #[should_panic(expected = "uninitialized lanes")]
    fn lint_catches_uninitialized_accumulator_read() {
        let mut m = mk(512);
        m.enable_lint();
        m.vsetvl(8);
        // v0 was never written: reading it as the FMA accumulator observes
        // the register file's zero-fill, which no kernel may rely on.
        m.vfmacc_vf(VReg(0), 2.0, VReg(0));
    }

    #[test]
    #[should_panic(expected = "uninitialized lanes")]
    fn lint_catches_read_past_written_prefix() {
        let mut m = mk(512);
        m.enable_lint();
        m.vsetvl(4);
        m.vfmv_v_f(VReg(0), 1.0); // lanes 0..4 valid
        let mut dst = vec![0.0f32; 16];
        m.vsetvl(16);
        m.vse32(VReg(0), &mut dst); // reads lanes 0..16
    }

    #[test]
    fn lint_survives_reset() {
        let mut m = mk(512);
        m.enable_lint();
        m.vsetvl(8);
        m.vfmv_v_f(VReg(0), 1.0);
        m.reset(); // cycles back to zero must not trip monotonicity
        m.vsetvl(8);
        m.vfmv_v_f(VReg(1), 2.0);
        assert!(m.lint().unwrap().checks() > 0);
    }

    /// Regression (found by the lint's DRAM reconciliation sweep): lines
    /// pulled in by software prefetch were counted in *both*
    /// `prefetch_lines` and `mem_lines`, double-booking DRAM bytes.
    #[test]
    fn prefetched_lines_counted_once_in_dram_bytes() {
        let mut m = Machine::new(MachineConfig::a64fx_like());
        m.enable_lint();
        let src = vec![1.0f32; 256]; // 16 lines
        m.prefetch(&src, 0, 1024);
        let s = m.stats();
        assert!(s.prefetch_lines > 0);
        assert_eq!(s.mem_lines, 0, "prefetched lines must not be double-counted as demand");
        assert_eq!(s.l2_misses, s.mem_lines + s.prefetch_lines);

        // Demand-missing a fresh buffer afterwards still counts demand lines.
        let other = vec![2.0f32; 256];
        m.vsetvl(16);
        m.vle32(VReg(0), &other);
        let s = m.stats();
        assert!(s.mem_lines > 0);
        assert_eq!(s.l2_misses, s.mem_lines + s.prefetch_lines);
    }
}
