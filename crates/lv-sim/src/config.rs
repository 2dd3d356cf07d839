//! Machine configuration: the hardware design points swept by the co-design study.

use std::fmt;

use crate::fastmodel::LINE_BYTES;

/// How the vector processing unit is attached to the memory hierarchy.
///
/// The paper evaluates both styles: Paper II simulates a *tightly integrated*
/// vector unit (reads through the L1 data cache, like ARM-SVE or the RVV unit
/// in the `plct-gem5` fork), while Paper I's RISC-VV model is a *decoupled*
/// VPU attached directly to the L2 cache through a small vector buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VpuStyle {
    /// Vector memory operations probe L1, then L2, then main memory.
    Integrated,
    /// Vector memory operations bypass L1 and probe L2 directly
    /// (Paper I: "the VPU is connected to the L2 cache").
    Decoupled,
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Per-event cycle costs of the in-order timing model.
///
/// Every vector instruction costs `issue` plus a startup term plus a
/// throughput term; memory instructions additionally pay per cache line
/// touched, depending on where in the hierarchy the line hits. The defaults
/// are calibrated so that the *ratios* the paper reports (vector-length
/// scaling, cache-size scaling, algorithm crossovers) are reproduced; see
/// `DESIGN.md` §4 for the substitution rationale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Front-end issue cost per (vector) instruction.
    pub issue: u64,
    /// Extra startup beats for an arithmetic vector instruction
    /// (pipeline fill; amortized by long vectors).
    pub arith_startup: u64,
    /// Extra startup beats for a vector memory instruction
    /// (address generation, TLB, first beat).
    pub mem_startup: u64,
    /// Per-line cost when the line hits in L1 (integrated VPU only).
    pub l1_line: u64,
    /// Per-line cost when the line hits in L2 (pipelined occupancy, not
    /// full latency: consecutive lines of one vector access overlap).
    pub l2_line: u64,
    /// Per-line cost when the line comes from main memory. Bundles the
    /// pipelined DRAM latency with the bandwidth occupancy of a 64 B line
    /// at 12.8 GiB/s / 2 GHz = 6.4 B/cycle (i.e. >= 10 cycles of bus time).
    pub mem_line: u64,
    /// Divisor applied to `l2_line`/`mem_line` for lines brought in by a
    /// software prefetch (latency hidden; only bandwidth occupancy remains).
    pub prefetch_discount: u64,
    /// Additional per-element cycles for indexed/gather/segment accesses,
    /// expressed as elements processed per cycle (RVV gathers are slower
    /// than unit-stride accesses).
    pub gather_elems_per_cycle: u64,
    /// Cost of a scalar ALU operation.
    pub scalar_op: u64,
    /// Cost of the `vsetvl` instruction.
    pub vsetvl: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            issue: 1,
            arith_startup: 2,
            mem_startup: 6,
            l1_line: 1,
            l2_line: 5,
            mem_line: 28,
            prefetch_discount: 3,
            gather_elems_per_cycle: 4,
            scalar_op: 1,
            vsetvl: 1,
        }
    }
}

/// Full machine configuration: one hardware design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Vector register length in bits (512 .. 16384, powers of two).
    pub vlen_bits: usize,
    /// Number of physical vector lanes. Each lane retires two 32-bit
    /// elements per cycle (64-bit datapath), so f32 throughput is
    /// `2 * lanes` elements per cycle.
    pub lanes: usize,
    /// VPU attachment style (integrated vs decoupled).
    pub vpu: VpuStyle,
    /// L1 data cache geometry (64 KiB, 4-way, 64 B lines in the paper).
    pub l1: CacheGeometry,
    /// L2 cache geometry (1 MiB .. 256 MiB swept by the paper).
    pub l2: CacheGeometry,
    /// Whether software prefetch instructions take effect. The RISC-VV
    /// toolchain in the paper ignores them (`false`); A64FX honours them.
    pub sw_prefetch: bool,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Core clock, used only to convert cycles to wall time in reports.
    pub freq_ghz: f64,
}

/// Mebibyte helper for cache sizes.
pub const MIB: usize = 1024 * 1024;
/// Kibibyte helper for cache sizes.
pub const KIB: usize = 1024;

impl MachineConfig {
    /// The paper's Paper-II baseline: tightly integrated RVV unit, 512-bit
    /// vectors, 8 lanes, 64 KiB L1, 1 MiB L2, no software prefetch.
    pub fn rvv_integrated(vlen_bits: usize, l2_mib: usize) -> Self {
        Self {
            vlen_bits,
            lanes: 8,
            vpu: VpuStyle::Integrated,
            l1: CacheGeometry { size_bytes: 64 * KIB, ways: 4, line_bytes: 64 },
            l2: CacheGeometry { size_bytes: l2_mib * MIB, ways: 8, line_bytes: 64 },
            sw_prefetch: false,
            cost: CostModel::default(),
            freq_ghz: 2.0,
        }
    }

    /// Paper-I style decoupled VPU attached to the L2 cache.
    pub fn rvv_decoupled(vlen_bits: usize, l2_mib: usize) -> Self {
        Self { vpu: VpuStyle::Decoupled, ..Self::rvv_integrated(vlen_bits, l2_mib) }
    }

    /// An A64FX-like configuration: integrated 512-bit unit with hardware
    /// prefetch honoured and a larger 8 MiB L2 (per-CMG share).
    pub fn a64fx_like() -> Self {
        Self {
            sw_prefetch: true,
            l2: CacheGeometry { size_bytes: 8 * MIB, ways: 16, line_bytes: 64 },
            ..Self::rvv_integrated(512, 8)
        }
    }

    /// Maximum vector length in 32-bit elements.
    pub fn vlen_elems(&self) -> usize {
        self.vlen_bits / 32
    }

    /// f32 elements retired per cycle by the arithmetic pipes.
    pub fn elems_per_cycle(&self) -> usize {
        (2 * self.lanes).max(1)
    }

    /// Convert a cycle count to seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Peak DRAM bandwidth in bytes/cycle: the 12.8 GiB/s channel the
    /// `mem_line` cost is calibrated against (see [`CostModel::mem_line`]),
    /// divided by the configured clock. Basis for the bandwidth-utilisation
    /// figures in verify/roofline outputs.
    pub fn peak_dram_bytes_per_cycle(&self) -> f64 {
        12.8e9 / (self.freq_ghz * 1e9)
    }

    /// Start a validated [`MachineConfigBuilder`] from the paper's Paper-II
    /// baseline (integrated VPU, 512-bit vectors, 8 lanes, 1 MiB L2).
    pub fn builder() -> MachineConfigBuilder {
        MachineConfigBuilder { cfg: Self::default() }
    }

    /// Check every invariant the timing model (and the opt-in lint) relies
    /// on. [`Machine::try_new`](crate::Machine::try_new) calls this, so an
    /// invalid design point is rejected at construction instead of tripping
    /// an assertion (or the lint) mid-simulation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.vlen_bits < 64 || !self.vlen_bits.is_power_of_two() {
            return Err(ConfigError::BadVlen { vlen_bits: self.vlen_bits });
        }
        if self.lanes == 0 || self.lanes > self.vlen_elems() {
            return Err(ConfigError::BadLanes { lanes: self.lanes, max: self.vlen_elems() });
        }
        for (level, g) in [("L1", &self.l1), ("L2", &self.l2)] {
            if g.size_bytes == 0 || g.ways == 0 || g.line_bytes == 0 {
                return Err(ConfigError::ZeroCache { level });
            }
            // The machine's line walks count `LINE_BYTES` lines whatever
            // the geometry says, so any other line size is mis-modelled.
            if g.sets() == 0 || g.line_bytes as u64 != LINE_BYTES {
                return Err(ConfigError::BadGeometry { level, geometry: *g });
            }
        }
        if !(self.freq_ghz.is_finite() && self.freq_ghz > 0.0) {
            return Err(ConfigError::BadClock { freq_ghz: self.freq_ghz });
        }
        Ok(())
    }

    /// Canonical textual key of this design point: every field that can
    /// change simulated timing, in a fixed order and format. Two configs
    /// are behaviourally identical to the timing model iff their keys are
    /// equal — this (plus [`crate::TIMING_REV`]) is what content-addressed
    /// result caches hash, so it must stay stable across host platforms
    /// and process runs (unlike `std::hash::Hash`).
    pub fn stable_key(&self) -> String {
        let c = &self.cost;
        format!(
            "vlen={};lanes={};vpu={};l1={}/{}/{};l2={}/{}/{};pf={};cost={},{},{},{},{},{},{},{},{},{};ghz={}",
            self.vlen_bits,
            self.lanes,
            match self.vpu {
                VpuStyle::Integrated => "int",
                VpuStyle::Decoupled => "dec",
            },
            self.l1.size_bytes,
            self.l1.ways,
            self.l1.line_bytes,
            self.l2.size_bytes,
            self.l2.ways,
            self.l2.line_bytes,
            u8::from(self.sw_prefetch),
            c.issue,
            c.arith_startup,
            c.mem_startup,
            c.l1_line,
            c.l2_line,
            c.mem_line,
            c.prefetch_discount,
            c.gather_elems_per_cycle,
            c.scalar_op,
            c.vsetvl,
            self.freq_ghz,
        )
    }

    /// 64-bit FNV-1a digest of [`Self::stable_key`]; platform- and
    /// run-stable, unlike `DefaultHasher`.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.stable_key().as_bytes())
    }
}

/// Stable 64-bit FNV-1a hash (the workspace's content-address primitive).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Why a [`MachineConfig`] was rejected by [`MachineConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Vector length must be a power of two and at least 64 bits (two f32
    /// elements), so `vsetvl` grants are well defined.
    BadVlen {
        /// The offending vector length.
        vlen_bits: usize,
    },
    /// Lane count must be 1..=VLEN/32: more lanes than elements can never
    /// retire and would divide by zero in the beat model.
    BadLanes {
        /// The offending lane count.
        lanes: usize,
        /// Largest valid count (VLEN in 32-bit elements).
        max: usize,
    },
    /// A cache level has zero capacity, ways, or line size.
    ZeroCache {
        /// Which level ("L1" / "L2").
        level: &'static str,
    },
    /// Size/ways/line do not describe an array the machine can model
    /// (zero sets, or a line size other than the 64 bytes it walks).
    BadGeometry {
        /// Which level ("L1" / "L2").
        level: &'static str,
        /// The offending geometry.
        geometry: CacheGeometry,
    },
    /// Clock frequency must be finite and positive.
    BadClock {
        /// The offending clock.
        freq_ghz: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::BadVlen { vlen_bits } => {
                write!(f, "vlen_bits = {vlen_bits}: must be a power of two >= 64")
            }
            ConfigError::BadLanes { lanes, max } => {
                write!(f, "lanes = {lanes}: must be in 1..={max} (VLEN/32)")
            }
            ConfigError::ZeroCache { level } => {
                write!(f, "{level} cache has a zero size, way count, or line size")
            }
            ConfigError::BadGeometry { level, geometry } => write!(
                f,
                "{level} geometry {}B/{}-way/{}B-line: needs at least one set and 64-byte lines",
                geometry.size_bytes, geometry.ways, geometry.line_bytes
            ),
            ConfigError::BadClock { freq_ghz } => {
                write!(f, "freq_ghz = {freq_ghz}: must be finite and positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`MachineConfig`] whose `build` validates the design point;
/// see [`MachineConfig::validate`] for the rejected shapes.
///
/// ```
/// use lv_sim::MachineConfig;
/// let cfg = MachineConfig::builder().vlen_bits(4096).l2_mib(64).build().unwrap();
/// assert_eq!(cfg.vlen_elems(), 128);
/// assert!(MachineConfig::builder().vlen_bits(768).build().is_err());
/// ```
#[derive(Debug, Clone)]
pub struct MachineConfigBuilder {
    cfg: MachineConfig,
}

impl MachineConfigBuilder {
    /// Vector register length in bits.
    pub fn vlen_bits(mut self, v: usize) -> Self {
        self.cfg.vlen_bits = v;
        self
    }

    /// Number of physical vector lanes.
    pub fn lanes(mut self, n: usize) -> Self {
        self.cfg.lanes = n;
        self
    }

    /// VPU attachment style.
    pub fn vpu(mut self, style: VpuStyle) -> Self {
        self.cfg.vpu = style;
        self
    }

    /// Decoupled VPU (Paper I style), shorthand for `.vpu(VpuStyle::Decoupled)`.
    pub fn decoupled(self) -> Self {
        self.vpu(VpuStyle::Decoupled)
    }

    /// L2 capacity in MiB, keeping the default ways/line.
    pub fn l2_mib(mut self, mib: usize) -> Self {
        self.cfg.l2.size_bytes = mib * MIB;
        self
    }

    /// Full L1 geometry.
    pub fn l1(mut self, geometry: CacheGeometry) -> Self {
        self.cfg.l1 = geometry;
        self
    }

    /// Full L2 geometry.
    pub fn l2(mut self, geometry: CacheGeometry) -> Self {
        self.cfg.l2 = geometry;
        self
    }

    /// Whether software prefetch instructions take effect.
    pub fn sw_prefetch(mut self, on: bool) -> Self {
        self.cfg.sw_prefetch = on;
        self
    }

    /// Cycle cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Core clock in GHz.
    pub fn freq_ghz(mut self, ghz: f64) -> Self {
        self.cfg.freq_ghz = ghz;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::rvv_integrated(512, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vlen_elems_matches_bits() {
        assert_eq!(MachineConfig::rvv_integrated(512, 1).vlen_elems(), 16);
        assert_eq!(MachineConfig::rvv_integrated(16384, 1).vlen_elems(), 512);
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry { size_bytes: 64 * KIB, ways: 4, line_bytes: 64 };
        assert_eq!(g.sets(), 256);
    }

    #[test]
    fn builder_accepts_paper_design_points() {
        let cfg = MachineConfig::builder().vlen_bits(4096).l2_mib(64).build().unwrap();
        assert_eq!(cfg, MachineConfig::rvv_integrated(4096, 64));
        let dec = MachineConfig::builder().vlen_bits(8192).l2_mib(256).decoupled().build().unwrap();
        assert_eq!(dec, MachineConfig::rvv_decoupled(8192, 256));
        let lanes = MachineConfig::builder().vlen_bits(2048).lanes(4).decoupled().build().unwrap();
        let mut expect = MachineConfig::rvv_decoupled(2048, 1);
        expect.lanes = 4;
        assert_eq!(lanes, expect);
    }

    #[test]
    fn builder_rejects_invalid_points() {
        assert_eq!(
            MachineConfig::builder().vlen_bits(768).build(),
            Err(ConfigError::BadVlen { vlen_bits: 768 })
        );
        assert_eq!(
            MachineConfig::builder().vlen_bits(32).build(),
            Err(ConfigError::BadVlen { vlen_bits: 32 })
        );
        // lanes > VLEN/32 can never retire a full beat.
        assert_eq!(
            MachineConfig::builder().vlen_bits(512).lanes(32).build(),
            Err(ConfigError::BadLanes { lanes: 32, max: 16 })
        );
        assert_eq!(
            MachineConfig::builder().lanes(0).build(),
            Err(ConfigError::BadLanes { lanes: 0, max: 16 })
        );
        assert_eq!(
            MachineConfig::builder().l2_mib(0).build(),
            Err(ConfigError::ZeroCache { level: "L2" })
        );
        let bad = CacheGeometry { size_bytes: 100, ways: 3, line_bytes: 48 };
        assert!(matches!(
            MachineConfig::builder().l1(bad).build(),
            Err(ConfigError::BadGeometry { level: "L1", .. })
        ));
        // Power-of-two lines other than the 64 bytes the machine walks.
        for line_bytes in [32, 128] {
            let l2 = CacheGeometry { size_bytes: MIB, ways: 16, line_bytes };
            assert_eq!(
                MachineConfig::builder().l2(l2).build(),
                Err(ConfigError::BadGeometry { level: "L2", geometry: l2 })
            );
        }
        assert!(MachineConfig::builder().freq_ghz(0.0).build().is_err());
        // Errors render a readable reason.
        let msg = ConfigError::BadLanes { lanes: 32, max: 16 }.to_string();
        assert!(msg.contains("32") && msg.contains("16"), "{msg}");
    }

    #[test]
    fn stable_key_separates_timing_relevant_fields() {
        let a = MachineConfig::rvv_integrated(512, 1);
        assert_eq!(a.stable_key(), a.stable_key());
        assert_eq!(a.fingerprint(), MachineConfig::rvv_integrated(512, 1).fingerprint());
        let configs = [
            MachineConfig::rvv_integrated(1024, 1),
            MachineConfig::rvv_integrated(512, 4),
            MachineConfig::rvv_decoupled(512, 1),
            MachineConfig::a64fx_like(),
            MachineConfig::builder().lanes(4).build().unwrap(),
        ];
        for b in configs {
            assert_ne!(a.stable_key(), b.stable_key());
            assert_ne!(a.fingerprint(), b.fingerprint(), "{}", b.stable_key());
        }
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn default_is_paper_baseline() {
        let c = MachineConfig::default();
        assert_eq!(c.vlen_bits, 512);
        assert_eq!(c.l2.size_bytes, MIB);
        assert_eq!(c.vpu, VpuStyle::Integrated);
        assert!(!c.sw_prefetch);
    }
}
