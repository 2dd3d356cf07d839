//! Execution statistics collected by the simulated machine.

/// Counters accumulated during a simulation run.
///
/// `cycles` is the in-order timing model's total; the remaining counters
/// support the paper's secondary metrics (average consumed vector length,
/// L2 miss rate, arithmetic intensity).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Vector instructions issued (arithmetic + memory + permutes).
    pub vector_instrs: u64,
    /// Sum of the granted vector length over all vector instructions;
    /// `velems / vector_instrs` is the paper's "average consumed VL".
    pub vector_elems: u64,
    /// Floating-point operations performed (FMA counts as 2).
    pub flops: u64,
    /// `vsetvl` executions.
    pub vsetvls: u64,
    /// Scalar ALU operations charged.
    pub scalar_ops: u64,
    /// Cache lines transferred from main memory (demand).
    pub mem_lines: u64,
    /// Cache lines transferred from main memory by software prefetch.
    pub prefetch_lines: u64,
    /// L1 accesses / misses (vector + scalar), integrated VPU only.
    pub l1_accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 accesses.
    pub l2_accesses: u64,
    /// L2 misses.
    pub l2_misses: u64,
}

impl Stats {
    /// Average granted vector length in elements over all vector instructions.
    pub fn avg_vl(&self) -> f64 {
        if self.vector_instrs == 0 {
            0.0
        } else {
            self.vector_elems as f64 / self.vector_instrs as f64
        }
    }

    /// L2 miss rate in [0, 1].
    pub fn l2_miss_rate(&self) -> f64 {
        if self.l2_accesses == 0 {
            0.0
        } else {
            self.l2_misses as f64 / self.l2_accesses as f64
        }
    }

    /// L1 miss rate in [0, 1].
    pub fn l1_miss_rate(&self) -> f64 {
        if self.l1_accesses == 0 {
            0.0
        } else {
            self.l1_misses as f64 / self.l1_accesses as f64
        }
    }

    /// FLOPs per cycle achieved by the run.
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.flops as f64 / self.cycles as f64
        }
    }

    /// Difference `self - earlier`, used to attribute counters to a region
    /// (e.g. one network layer) delimited by two snapshots.
    pub fn delta_since(&self, earlier: &Stats) -> Stats {
        Stats {
            cycles: self.cycles - earlier.cycles,
            vector_instrs: self.vector_instrs - earlier.vector_instrs,
            vector_elems: self.vector_elems - earlier.vector_elems,
            flops: self.flops - earlier.flops,
            vsetvls: self.vsetvls - earlier.vsetvls,
            scalar_ops: self.scalar_ops - earlier.scalar_ops,
            mem_lines: self.mem_lines - earlier.mem_lines,
            prefetch_lines: self.prefetch_lines - earlier.prefetch_lines,
            l1_accesses: self.l1_accesses - earlier.l1_accesses,
            l1_misses: self.l1_misses - earlier.l1_misses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
        }
    }

    /// Field-wise accumulation, the counterpart to [`Stats::delta_since`]:
    /// merging a region delta back into a running total (span aggregation,
    /// multi-kernel roll-ups). `a.delta_since(&b)` merged into `b` is `a`.
    pub fn merge(&mut self, other: &Stats) {
        self.cycles += other.cycles;
        self.vector_instrs += other.vector_instrs;
        self.vector_elems += other.vector_elems;
        self.flops += other.flops;
        self.vsetvls += other.vsetvls;
        self.scalar_ops += other.scalar_ops;
        self.mem_lines += other.mem_lines;
        self.prefetch_lines += other.prefetch_lines;
        self.l1_accesses += other.l1_accesses;
        self.l1_misses += other.l1_misses;
        self.l2_accesses += other.l2_accesses;
        self.l2_misses += other.l2_misses;
    }

    /// Bytes moved from main memory (demand + software-prefetch lines).
    pub fn dram_bytes(&self, line_bytes: usize) -> u64 {
        (self.mem_lines + self.prefetch_lines) * line_bytes as u64
    }

    /// Achieved DRAM bandwidth in bytes/cycle over the counted interval.
    pub fn dram_bytes_per_cycle(&self, line_bytes: usize) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.dram_bytes(line_bytes) as f64 / self.cycles as f64
        }
    }
}

impl std::ops::Add for Stats {
    type Output = Stats;

    fn add(mut self, rhs: Stats) -> Stats {
        self.merge(&rhs);
        self
    }
}

impl std::ops::AddAssign for Stats {
    fn add_assign(&mut self, rhs: Stats) {
        self.merge(&rhs);
    }
}

impl std::iter::Sum for Stats {
    fn sum<I: Iterator<Item = Stats>>(iter: I) -> Stats {
        iter.fold(Stats::default(), |acc, s| acc + s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn avg_vl_empty_is_zero() {
        assert_eq!(Stats::default().avg_vl(), 0.0);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = Stats { cycles: 10, flops: 4, ..Default::default() };
        let b = Stats { cycles: 25, flops: 9, ..Default::default() };
        let d = b.delta_since(&a);
        assert_eq!(d.cycles, 15);
        assert_eq!(d.flops, 5);
    }

    #[test]
    fn merge_is_fieldwise_and_inverts_delta() {
        let base = Stats { cycles: 10, flops: 4, mem_lines: 3, l1_misses: 1, ..Default::default() };
        let later =
            Stats { cycles: 25, flops: 9, mem_lines: 8, l1_misses: 5, ..Default::default() };
        let delta = later.delta_since(&base);
        let mut rebuilt = base;
        rebuilt.merge(&delta);
        assert_eq!(rebuilt, later);
    }

    #[test]
    fn add_and_sum_match_merge() {
        let a = Stats { cycles: 1, vector_instrs: 2, vector_elems: 32, ..Default::default() };
        let b = Stats { cycles: 4, vector_instrs: 1, vector_elems: 8, ..Default::default() };
        let via_add = a + b;
        let mut via_assign = a;
        via_assign += b;
        assert_eq!(via_add, via_assign);
        assert_eq!(via_add.cycles, 5);
        assert_eq!(via_add.vector_elems, 40);
        let via_sum: Stats = [a, b].into_iter().sum();
        assert_eq!(via_sum, via_add);
        // Aggregated avg-VL weights by instruction count: (32+8)/(2+1).
        assert!((via_sum.avg_vl() - 40.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn dram_bytes_counts_demand_and_prefetch() {
        let s = Stats { cycles: 128, mem_lines: 6, prefetch_lines: 2, ..Default::default() };
        assert_eq!(s.dram_bytes(64), 512);
        assert!((s.dram_bytes_per_cycle(64) - 4.0).abs() < 1e-12);
        assert_eq!(Stats::default().dram_bytes_per_cycle(64), 0.0);
    }

    #[test]
    fn rates() {
        let s = Stats {
            l2_accesses: 10,
            l2_misses: 4,
            vector_instrs: 2,
            vector_elems: 48,
            ..Default::default()
        };
        assert!((s.l2_miss_rate() - 0.4).abs() < 1e-12);
        assert!((s.avg_vl() - 24.0).abs() < 1e-12);
    }
}
