//! Single-layer measurement: the primitive behind every per-layer figure
//! in the paper (Figs. 1-8) and the classifier's training grid.

use lv_conv::{prepare_weights, run_conv, Algo};
use lv_sim::{Machine, MachineConfig, Stats};
use lv_tensor::{pseudo_buf, pseudo_weights, ConvShape};
use serde::{Deserialize, Serialize};

/// Result of measuring one (layer, hardware config, algorithm) point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LayerMeasurement {
    /// Layer geometry.
    pub shape: ConvShape,
    /// Vector length in bits.
    pub vlen_bits: usize,
    /// L2 size in MiB.
    pub l2_mib: usize,
    /// Algorithm measured.
    pub algo: Algo,
    /// Simulated cycles (cold caches, single inference — the paper's
    /// steady-state layer cost).
    pub cycles: u64,
    /// Average consumed vector length (elements).
    pub avg_vl: f64,
    /// L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
    /// Full counters.
    pub stats: Stats,
}

impl LayerMeasurement {
    /// Execution time in seconds at the machine's 2 GHz clock.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / 2e9
    }
}

/// Measure one layer with one algorithm on one hardware design point.
/// Returns `None` when the algorithm does not apply to the layer (the
/// per-layer comparison figures leave those bars out).
///
/// The kernel runs on a [`Machine::timing_only`] machine: only [`Stats`]
/// are kept, and the conv kernels' control flow and addresses do not
/// depend on data, so skipping the f32 lanes leaves every counter exact.
pub fn measure_layer(cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<LayerMeasurement> {
    if !algo.applicable(s) {
        return None;
    }
    let input = pseudo_buf(s.input_len(), 101);
    let w = pseudo_weights(s.weight_len(), s.ic * s.kh * s.kw, 102);
    let prepared = prepare_weights(algo, s, &w);
    let mut out = vec![0.0f32; s.output_len()];
    let mut m = Machine::timing_only(*cfg);
    run_conv(&mut m, algo, s, &input, &prepared, &mut out);
    let stats = m.stats();
    Some(LayerMeasurement {
        shape: *s,
        vlen_bits: cfg.vlen_bits,
        l2_mib: cfg.l2.size_bytes / lv_sim::MIB,
        algo,
        cycles: stats.cycles,
        avg_vl: stats.avg_vl(),
        l2_miss_rate: stats.l2_miss_rate(),
        stats,
    })
}

/// The metrics a sweep cell persists: exactly the values `lv-bench`'s
/// `GridRow` carries per point, and nothing machine-local (no `Stats`,
/// whose cache counters depend on host heap addresses). This is the
/// adapter the content-addressed cell cache serializes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMetrics {
    /// Simulated cycles.
    pub cycles: u64,
    /// Average consumed vector length (elements).
    pub avg_vl: f64,
    /// L2 miss rate in [0, 1].
    pub l2_miss_rate: f64,
}

impl From<&LayerMeasurement> for CellMetrics {
    fn from(m: &LayerMeasurement) -> Self {
        Self { cycles: m.cycles, avg_vl: m.avg_vl, l2_miss_rate: m.l2_miss_rate }
    }
}

/// [`measure_layer`] narrowed to the cacheable [`CellMetrics`] triple;
/// `None` when the algorithm does not apply to the layer.
pub fn measure_cell(cfg: &MachineConfig, s: &ConvShape, algo: Algo) -> Option<CellMetrics> {
    measure_layer(cfg, s, algo).map(|m| CellMetrics::from(&m))
}

/// Measure a layer under every applicable algorithm; returns
/// `(algo, measurement)` pairs in [`lv_conv::ALL_ALGOS`] order.
pub fn measure_all_algos(cfg: &MachineConfig, s: &ConvShape) -> Vec<LayerMeasurement> {
    lv_conv::ALL_ALGOS.iter().filter_map(|&a| measure_layer(cfg, s, a)).collect()
}

/// The fastest algorithm for a layer on a design point.
pub fn best_algo(cfg: &MachineConfig, s: &ConvShape) -> (Algo, u64) {
    let ms = measure_all_algos(cfg, s);
    let best = ms.iter().min_by_key(|m| m.cycles).expect("at least one algorithm applies");
    (best.algo, best.cycles)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_applicable_algorithms_only() {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s1x1 = ConvShape::same_pad(8, 8, 16, 1, 1);
        let got = measure_all_algos(&cfg, &s1x1);
        assert_eq!(got.len(), 3); // no Winograd
        assert!(got.iter().all(|m| m.algo != Algo::Winograd));
        assert!(measure_layer(&cfg, &s1x1, Algo::Winograd).is_none());
    }

    #[test]
    fn measurement_is_repeatable() {
        // Simulated addresses come from real heap allocations, so exact
        // counts can drift by a handful of conflict misses when other
        // threads disturb the allocator; the model is repeatable well
        // under 1%.
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s = ConvShape::same_pad(4, 8, 16, 3, 1);
        let a = measure_layer(&cfg, &s, Algo::Gemm3).unwrap();
        let b = measure_layer(&cfg, &s, Algo::Gemm3).unwrap();
        let rel = (a.cycles as f64 - b.cycles as f64).abs() / a.cycles as f64;
        assert!(rel < 0.01, "{} vs {}", a.cycles, b.cycles);
    }

    #[test]
    fn best_algo_returns_min_of_one_sweep() {
        let cfg = MachineConfig::rvv_integrated(512, 1);
        let s = ConvShape::same_pad(8, 16, 24, 3, 1);
        let (_best, cycles) = best_algo(&cfg, &s);
        // A fresh sweep must agree within allocator noise.
        let min = measure_all_algos(&cfg, &s).iter().map(|m| m.cycles).min().unwrap();
        let rel = (min as f64 - cycles as f64).abs() / cycles as f64;
        assert!(rel < 0.01, "best {cycles} vs fresh sweep min {min}");
    }
}
