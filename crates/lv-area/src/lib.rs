//! # lv-area — 7 nm area model and Pareto analysis
//!
//! Reproduces the paper's performance-area methodology (Paper II §4.4,
//! Paper I §VIII): the area of an RVV core is split into a constant scalar
//! part and a vector part (VPU + vector register file) that grows with the
//! vector length; L2 SRAM area scales linearly with capacity (PCacti-style);
//! everything is normalized to 7 nm FinFET via the paper's conservative
//! 6.2x density scaling from the published 22 nm numbers.
//!
//! Calibration anchors from the paper:
//! * Paper II: VPU+VRF consume ~28/43/60/75 % of the core at
//!   512/1024/2048/4096-bit vector lengths, and the Pareto-optimal
//!   single-core design (2048-bit, 1 MiB L2) totals 2.35 mm².
//! * Paper I: the VRF alone consumes 3/6.9/12.68/22.5/36.9 % of the chip at
//!   512..8192-bit, and the largest configuration (8192-bit + 256 MiB L2)
//!   totals 125.1 mm².

#![warn(missing_docs)]

pub mod energy;

/// L2 SRAM area per MiB at 7 nm (PCacti-calibrated, see crate docs).
pub const L2_MM2_PER_MIB: f64 = 0.47;

/// Scalar-core area at 7 nm implied by the Paper II anchors.
pub const SCALAR_CORE_MM2: f64 = (2.35 - L2_MM2_PER_MIB) * (1.0 - 0.60);

/// Fraction of the core area consumed by VPU + VRF at a vector length
/// (Paper II model). Interpolates in log2 space and extrapolates
/// asymptotically beyond 4096 bits (the VRF keeps doubling but the paper's
/// model saturates: we cap the fraction at 0.93).
pub fn vpu_fraction(vlen_bits: usize) -> f64 {
    let anchors = [(512usize, 0.28), (1024, 0.43), (2048, 0.60), (4096, 0.75)];
    if vlen_bits <= 512 {
        return anchors[0].1 * (vlen_bits as f64 / 512.0).max(0.5);
    }
    for w in anchors.windows(2) {
        let ((v0, f0), (v1, f1)) = (w[0], w[1]);
        if vlen_bits <= v1 {
            let t = ((vlen_bits as f64).log2() - (v0 as f64).log2())
                / ((v1 as f64).log2() - (v0 as f64).log2());
            return f0 + t * (f1 - f0);
        }
    }
    // Beyond 4096: the vector area roughly doubles per VL doubling; the
    // fraction f satisfies f/(1-f) doubling. Cap to keep the model sane.
    let mut f: f64 = 0.75;
    let mut v = 4096;
    while v < vlen_bits {
        let ratio = 2.0 * f / (1.0 - f);
        f = ratio / (1.0 + ratio);
        v *= 2;
    }
    f.min(0.93)
}

/// Core area (scalar + VPU + VRF) in mm² at 7 nm for a vector length.
pub fn core_area_mm2(vlen_bits: usize) -> f64 {
    SCALAR_CORE_MM2 / (1.0 - vpu_fraction(vlen_bits))
}

/// L2 area in mm² at 7 nm.
pub fn l2_area_mm2(l2_mib: usize) -> f64 {
    l2_mib as f64 * L2_MM2_PER_MIB
}

/// Total area of a chip with `cores` identical cores and a shared L2.
pub fn chip_area_mm2(cores: usize, vlen_bits: usize, l2_mib: usize) -> f64 {
    cores as f64 * core_area_mm2(vlen_bits) + l2_area_mm2(l2_mib)
}

/// A design point for Pareto analysis: smaller `area` and smaller `cost`
/// (cycles, or 1/throughput) are both better.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Label shown in reports (e.g. "2048b x 1MB, optimal").
    pub label: String,
    /// Area in mm².
    pub area: f64,
    /// Cost to minimize (execution cycles, or inverse throughput).
    pub cost: f64,
}

/// Indices of the Pareto-optimal points (minimizing both area and cost).
/// Output is sorted by increasing area.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..points.len()).collect();
    idx.sort_by(|&a, &b| {
        points[a].area.total_cmp(&points[b].area).then(points[a].cost.total_cmp(&points[b].cost))
    });
    let mut frontier = Vec::new();
    let mut best_cost = f64::INFINITY;
    for &i in &idx {
        if points[i].cost < best_cost {
            frontier.push(i);
            best_cost = points[i].cost;
        }
    }
    frontier
}

/// The knee of the frontier: the point minimizing the product
/// `area * cost` (a simple energy-delay-style figure of merit the paper's
/// "Pareto-optimal" marker corresponds to).
pub fn pareto_knee(points: &[DesignPoint]) -> Option<usize> {
    pareto_frontier(points).into_iter().min_by(|&a, &b| {
        (points[a].area * points[a].cost).total_cmp(&(points[b].area * points[b].cost))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_match_paper_anchors() {
        assert!((vpu_fraction(512) - 0.28).abs() < 1e-9);
        assert!((vpu_fraction(1024) - 0.43).abs() < 1e-9);
        assert!((vpu_fraction(2048) - 0.60).abs() < 1e-9);
        assert!((vpu_fraction(4096) - 0.75).abs() < 1e-9);
        assert!(vpu_fraction(8192) > 0.75 && vpu_fraction(8192) <= 0.93);
        assert!(vpu_fraction(16384) >= vpu_fraction(8192));
    }

    #[test]
    fn pareto_optimal_anchor_is_2_35_mm2() {
        // Paper II: 2048-bit core + 1 MiB L2 = 2.35 mm².
        let a = chip_area_mm2(1, 2048, 1);
        assert!((a - 2.35).abs() < 0.01, "got {a}");
    }

    #[test]
    fn area_monotone_in_every_knob() {
        assert!(core_area_mm2(1024) > core_area_mm2(512));
        assert!(core_area_mm2(4096) > core_area_mm2(2048));
        assert!(chip_area_mm2(4, 512, 1) > chip_area_mm2(1, 512, 1));
        assert!(chip_area_mm2(1, 512, 64) > chip_area_mm2(1, 512, 1));
    }

    #[test]
    fn cache_dominates_area_at_large_sizes() {
        // The paper: "the cache size has a more significant impact on the
        // total area" — 256 MiB dwarfs any vector length.
        assert!(l2_area_mm2(256) > core_area_mm2(16384) * 5.0);
        // Largest Paper I configuration lands near 125.1 mm².
        let a = chip_area_mm2(1, 8192, 256);
        assert!((a - 125.1).abs() < 5.0, "got {a}");
    }

    fn dp(label: &str, area: f64, cost: f64) -> DesignPoint {
        DesignPoint { label: label.into(), area, cost }
    }

    #[test]
    fn frontier_filters_dominated() {
        let pts = vec![
            dp("a", 1.0, 10.0),
            dp("b", 2.0, 5.0),
            dp("c", 3.0, 6.0), // dominated by b
            dp("d", 4.0, 1.0),
        ];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![0, 1, 3]);
    }

    #[test]
    fn frontier_handles_ties() {
        let pts = vec![dp("a", 1.0, 5.0), dp("b", 1.0, 4.0), dp("c", 2.0, 4.0)];
        let f = pareto_frontier(&pts);
        assert_eq!(f, vec![1]);
    }

    #[test]
    fn knee_minimizes_product() {
        let pts = vec![dp("a", 1.0, 100.0), dp("b", 2.0, 20.0), dp("c", 10.0, 15.0)];
        assert_eq!(pareto_knee(&pts), Some(1));
    }
}
