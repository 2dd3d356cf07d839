//! Energy model: per-event energy accounting on top of the cycle model.
//!
//! The paper and thesis repeatedly motivate long-vector CPUs with *power
//! efficiency* ("GPU-like parallel processing capabilities … with lower
//! energy consumption") and cite the energy cost of large caches
//! ("the caches still consume most of the area and power of the chip").
//! This module turns the simulator's counters into energy estimates so the
//! area-performance Pareto analysis can be extended to energy-delay — the
//! ablation the paper's future work points at.
//!
//! Event energies are 7 nm-class estimates in picojoules, dominated by the
//! well-known orders of magnitude (FP32 FMA ≈ 1 pJ; SRAM access tens of pJ
//! growing with capacity; DRAM ≈ 1-2 nJ per 64 B line). Absolute joules are
//! indicative; ratios across design points are the meaningful output, as
//! with the cycle model.

use lv_sim::Stats;

/// Per-event energy parameters (picojoules).
#[derive(Debug, Clone, Copy)]
pub struct EnergyParams {
    /// Energy per f32 FLOP in the vector unit.
    pub pj_per_flop: f64,
    /// Energy per scalar ALU operation.
    pub pj_per_scalar_op: f64,
    /// Vector register file access energy per element (reads+writes folded
    /// into the per-element arithmetic cost).
    pub pj_per_vreg_elem: f64,
    /// L1 access energy per cache line touched.
    pub pj_per_l1_line: f64,
    /// L2 access energy per line at 1 MiB; grows with sqrt(capacity)
    /// (longer wires and bigger arrays).
    pub pj_per_l2_line_1mib: f64,
    /// DRAM energy per 64 B line transferred.
    pub pj_per_dram_line: f64,
    /// Leakage power per mm² of chip area (watts).
    pub leakage_w_per_mm2: f64,
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self {
            pj_per_flop: 1.0,
            pj_per_scalar_op: 2.0,
            pj_per_vreg_elem: 0.15,
            pj_per_l1_line: 15.0,
            pj_per_l2_line_1mib: 40.0,
            pj_per_dram_line: 1500.0,
            leakage_w_per_mm2: 0.08,
        }
    }
}

/// Energy breakdown of one run, in joules.
#[derive(Debug, Clone, Copy)]
pub struct EnergyBreakdown {
    /// Vector + scalar compute energy.
    pub compute_j: f64,
    /// L1 access energy.
    pub l1_j: f64,
    /// L2 access energy.
    pub l2_j: f64,
    /// DRAM transfer energy (demand + prefetch).
    pub dram_j: f64,
    /// Leakage over the run's duration and chip area.
    pub leakage_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.l1_j + self.l2_j + self.dram_j + self.leakage_j
    }

    /// Energy-delay product in joule-seconds.
    pub fn edp(&self, seconds: f64) -> f64 {
        self.total_j() * seconds
    }
}

/// Estimate the energy of a run from its counters.
///
/// * `stats` — the machine's counter snapshot,
/// * `l2_mib` — L2 capacity (scales per-access energy),
/// * `area_mm2` — chip area (leakage),
/// * `freq_ghz` — clock, to convert cycles to time for leakage.
pub fn energy_of(
    p: &EnergyParams,
    stats: &Stats,
    l2_mib: usize,
    area_mm2: f64,
    freq_ghz: f64,
) -> EnergyBreakdown {
    let pj = 1e-12;
    let compute_j = (stats.flops as f64 * p.pj_per_flop
        + stats.scalar_ops as f64 * p.pj_per_scalar_op
        + stats.vector_elems as f64 * p.pj_per_vreg_elem)
        * pj;
    let l1_j = stats.l1_accesses as f64 * p.pj_per_l1_line * pj;
    let l2_scale = (l2_mib as f64).sqrt().max(1.0);
    let l2_j = stats.l2_accesses as f64 * p.pj_per_l2_line_1mib * l2_scale * pj;
    let dram_j = (stats.mem_lines + stats.prefetch_lines) as f64 * p.pj_per_dram_line * pj;
    let seconds = stats.cycles as f64 / (freq_ghz * 1e9);
    let leakage_j = p.leakage_w_per_mm2 * area_mm2 * seconds;
    EnergyBreakdown { compute_j, l1_j, l2_j, dram_j, leakage_j }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(flops: u64, l1: u64, l2: u64, mem: u64, cycles: u64) -> Stats {
        Stats {
            cycles,
            flops,
            l1_accesses: l1,
            l2_accesses: l2,
            mem_lines: mem,
            ..Default::default()
        }
    }

    #[test]
    fn dram_dominates_when_thrashing() {
        let p = EnergyParams::default();
        let thrash = energy_of(&p, &stats(1000, 1000, 1000, 1000, 10_000), 1, 3.0, 2.0);
        assert!(thrash.dram_j > thrash.l2_j);
        assert!(thrash.dram_j > thrash.compute_j);
    }

    #[test]
    fn bigger_l2_costs_more_per_access() {
        let p = EnergyParams::default();
        let s = stats(0, 0, 1_000_000, 0, 1000);
        let small = energy_of(&p, &s, 1, 3.0, 2.0);
        let big = energy_of(&p, &s, 64, 3.0, 2.0);
        assert!(big.l2_j > small.l2_j * 4.0, "sqrt scaling: {} vs {}", big.l2_j, small.l2_j);
    }

    #[test]
    fn leakage_scales_with_area_and_time() {
        let p = EnergyParams::default();
        let s = stats(0, 0, 0, 0, 2_000_000_000); // 1 s at 2 GHz
        let e = energy_of(&p, &s, 1, 10.0, 2.0);
        assert!((e.leakage_j - 0.8).abs() < 1e-9); // 0.08 W/mm2 * 10 mm2 * 1 s
    }

    #[test]
    fn totals_and_edp() {
        let p = EnergyParams::default();
        let e = energy_of(&p, &stats(1_000_000, 0, 0, 0, 2_000_000), 1, 1.0, 2.0);
        assert!(e.total_j() > 0.0);
        assert!(e.edp(1e-3) > 0.0);
        let sum = e.compute_j + e.l1_j + e.l2_j + e.dram_j + e.leakage_j;
        assert!((e.total_j() - sum).abs() < 1e-18);
    }
}
