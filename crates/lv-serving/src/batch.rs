//! Dynamic batching policy and batch-aware service-time model.
//!
//! Triton/BentoML-style servers form batches two ways: a batch launches as
//! soon as `max_batch` requests are queued (size trigger), or when the
//! oldest queued request has waited `max_wait_s` (time trigger), whichever
//! comes first. Batching pays a per-launch setup once (weight streaming,
//! im2col buffer setup) and then a per-item cost, so larger batches raise
//! throughput at the price of batching delay.

/// When to launch a batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Launch as soon as this many requests are queued (>= 1).
    pub max_batch: usize,
    /// Launch when the oldest queued request has waited this long.
    pub max_wait_s: f64,
}

impl BatchPolicy {
    /// No batching: every request is its own batch, launched immediately.
    pub fn none() -> Self {
        Self { max_batch: 1, max_wait_s: 0.0 }
    }

    /// Size/time-triggered batching.
    pub fn new(max_batch: usize, max_wait_s: f64) -> Self {
        assert!(max_batch >= 1, "max_batch must be >= 1");
        assert!(max_wait_s >= 0.0, "max_wait_s must be non-negative");
        Self { max_batch, max_wait_s }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Service time of a batch: setup paid once plus a per-item cost.
///
/// `setup_frac` in `[0, 1)` is the fraction of a solo request's cost that
/// is launch setup: a batch costs
/// `setup_frac · max(unit) + (1 − setup_frac) · Σ unit`, so a batch of one
/// costs exactly its unit cost and the asymptotic per-item cost is
/// `(1 − setup_frac) · unit` — a maximum throughput gain of
/// `1 / (1 − setup_frac)`.
pub fn batch_service_time(unit_costs_s: &[f64], setup_frac: f64) -> f64 {
    assert!(!unit_costs_s.is_empty(), "empty batch");
    assert!((0.0..1.0).contains(&setup_frac), "setup_frac must be in [0,1)");
    let max =
        unit_costs_s.iter().copied().max_by(f64::total_cmp).expect("non-empty batch asserted");
    let sum: f64 = unit_costs_s.iter().sum();
    setup_frac * max + (1.0 - setup_frac) * sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_of_one_costs_unit() {
        assert!((batch_service_time(&[0.010], 0.3) - 0.010).abs() < 1e-15);
        assert!((batch_service_time(&[0.010], 0.0) - 0.010).abs() < 1e-15);
    }

    #[test]
    fn batching_amortises_setup() {
        let unit = 0.010;
        let solo4 = 4.0 * unit;
        let batched4 = batch_service_time(&[unit; 4], 0.4);
        assert!(batched4 < solo4, "batch must beat serial: {batched4} vs {solo4}");
        // Exactly setup + per-item: 0.4*0.010 + 0.6*0.040 = 0.028.
        assert!((batched4 - 0.028).abs() < 1e-12);
    }

    #[test]
    fn zero_setup_means_no_gain() {
        assert!((batch_service_time(&[0.01; 8], 0.0) - 0.08).abs() < 1e-12);
    }

    #[test]
    fn mixed_batch_uses_max_for_setup() {
        // setup scales with the largest member (it dominates weight setup).
        let t = batch_service_time(&[0.010, 0.030], 0.5);
        assert!((t - (0.5 * 0.030 + 0.5 * 0.040)).abs() < 1e-12);
    }
}
