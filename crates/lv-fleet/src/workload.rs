//! Trace-driven open-loop workload generation: a Poisson base process
//! whose instantaneous rate is modulated by a mean-one diurnal curve and
//! flash-burst windows, with requests classed by weight (the fleet's
//! VGG-16 / YOLOv3 mix).
//!
//! Generation uses thinning (Lewis & Shedler): candidates are drawn from
//! a homogeneous Poisson process at the peak rate
//! `base · (1 + amplitude) · burst_factor` and accepted with probability
//! `rate(t) / peak`. Everything is driven by one seeded RNG (burst
//! windows by a second, derived stream), so a trace is a pure function of
//! its [`WorkloadSpec`] — replayable across policies and fleets.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::FleetError;

/// Sinusoidal diurnal modulation with mean exactly one over a period:
/// `rate(t) = base · (1 + amplitude · sin(2πt / period))`. Total offered
/// load over whole periods equals the unmodulated process.
#[derive(Debug, Clone, Copy)]
pub struct Diurnal {
    /// Peak-to-mean swing, `[0, 1)`.
    pub amplitude: f64,
    /// Period in seconds.
    pub period_s: f64,
}

/// Flash-burst windows: intervals of `duration_s` during which the rate
/// multiplies by `factor`, starting at exponentially distributed gaps
/// with the given mean.
#[derive(Debug, Clone, Copy)]
pub struct Bursts {
    /// Rate multiplier inside a burst window (>= 1).
    pub factor: f64,
    /// Mean gap between the end of one window and the start of the next.
    pub mean_interval_s: f64,
    /// Width of each burst window in seconds.
    pub duration_s: f64,
}

/// Specification of one workload trace.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Mean (time-averaged) arrival rate, requests/second.
    pub rate_rps: f64,
    /// Number of arrivals to generate.
    pub requests: usize,
    /// Relative traffic weight per request class (index = class id).
    pub class_weights: Vec<f64>,
    /// Optional diurnal modulation.
    pub diurnal: Option<Diurnal>,
    /// Optional flash bursts.
    pub bursts: Option<Bursts>,
    /// RNG seed; the trace is deterministic given the spec.
    pub seed: u64,
}

/// One request in a trace: arrival time and class index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Arrival sequence number.
    pub id: u64,
    /// Arrival time in seconds.
    pub t_s: f64,
    /// Index into the fleet's class table.
    pub class: usize,
}

/// Lazily rolled burst windows, strictly forward in time (thinning
/// candidates arrive in increasing `t`). Gaps are exponential with the
/// configured mean, windows have fixed width.
struct BurstWindows {
    rng: StdRng,
    start_s: f64,
    end_s: f64,
    spec: Bursts,
}

impl BurstWindows {
    fn new(spec: Bursts, seed: u64) -> Self {
        // Derived stream: burst placement must not perturb the candidate
        // process (golden-ratio constant decorrelates the two streams).
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let gap: f64 = {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            -u.ln() * spec.mean_interval_s
        };
        Self { rng, start_s: gap, end_s: gap + spec.duration_s, spec }
    }

    fn mult(&mut self, t_s: f64) -> f64 {
        while t_s >= self.end_s {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let gap = -u.ln() * self.spec.mean_interval_s;
            self.start_s = self.end_s + gap;
            self.end_s = self.start_s + self.spec.duration_s;
        }
        if t_s >= self.start_s {
            self.spec.factor
        } else {
            1.0
        }
    }
}

impl WorkloadSpec {
    /// Uniform-mix spec with no modulation.
    pub fn basic(rate_rps: f64, requests: usize, classes: usize, seed: u64) -> Self {
        Self {
            rate_rps,
            requests,
            class_weights: vec![1.0; classes.max(1)],
            diurnal: None,
            bursts: None,
            seed,
        }
    }

    /// Reject degenerate specs with a typed error (also called by
    /// [`WorkloadSpec::generate`]).
    pub fn validate(&self) -> Result<(), FleetError> {
        if !self.rate_rps.is_finite() || self.rate_rps <= 0.0 {
            return Err(FleetError::InvalidRate(self.rate_rps));
        }
        if self.requests == 0 {
            return Err(FleetError::NoRequests);
        }
        if self.class_weights.is_empty() || !self.class_weights.iter().any(|&w| w > 0.0) {
            return Err(FleetError::NoClasses);
        }
        // `positive` is NaN-safe: NaN fails the comparison and rejects.
        let positive = |v: f64| v.is_finite() && v > 0.0;
        if let Some(d) = self.diurnal {
            if !(0.0..1.0).contains(&d.amplitude) || !positive(d.period_s) {
                return Err(FleetError::InvalidDiurnal);
            }
        }
        if let Some(b) = self.bursts {
            if !b.factor.is_finite()
                || b.factor < 1.0
                || !positive(b.mean_interval_s)
                || !positive(b.duration_s)
            {
                return Err(FleetError::InvalidBursts);
            }
        }
        Ok(())
    }

    /// Generate the trace: `requests` arrivals in increasing time order,
    /// classes drawn by weight. Deterministic given the spec.
    pub fn generate(&self) -> Result<Vec<Arrival>, FleetError> {
        self.validate()?;
        let amp = self.diurnal.map_or(0.0, |d| d.amplitude);
        let burst_factor = self.bursts.map_or(1.0, |b| b.factor);
        let peak = self.rate_rps * (1.0 + amp) * burst_factor;
        let total_weight: f64 = self.class_weights.iter().sum();

        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut bursts = self.bursts.map(|b| BurstWindows::new(b, self.seed));
        let mut out = Vec::with_capacity(self.requests);
        let mut t = 0.0f64;
        while out.len() < self.requests {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / peak;
            let diurnal_mult = match self.diurnal {
                Some(d) => 1.0 + d.amplitude * (2.0 * std::f64::consts::PI * t / d.period_s).sin(),
                None => 1.0,
            };
            let burst_mult = bursts.as_mut().map_or(1.0, |b| b.mult(t));
            let rate_t = self.rate_rps * diurnal_mult * burst_mult;
            let accept: f64 = rng.gen_range(0.0..1.0);
            if accept >= rate_t / peak {
                continue; // thinned
            }
            let class = if self.class_weights.len() == 1 {
                0
            } else {
                let mut pick = rng.gen_range(f64::EPSILON..1.0) * total_weight;
                let mut idx = 0;
                for (i, &w) in self.class_weights.iter().enumerate() {
                    idx = i;
                    pick -= w;
                    if pick <= 0.0 {
                        break;
                    }
                }
                idx
            };
            out.push(Arrival { id: out.len() as u64, t_s: t, class });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_specs() {
        let base = WorkloadSpec::basic(100.0, 1000, 2, 1);
        assert!(matches!(
            WorkloadSpec { rate_rps: 0.0, ..base.clone() }.generate(),
            Err(FleetError::InvalidRate(_))
        ));
        assert!(matches!(
            WorkloadSpec { requests: 0, ..base.clone() }.generate(),
            Err(FleetError::NoRequests)
        ));
        assert!(matches!(
            WorkloadSpec { class_weights: vec![0.0, 0.0], ..base.clone() }.generate(),
            Err(FleetError::NoClasses)
        ));
        assert!(matches!(
            WorkloadSpec {
                diurnal: Some(Diurnal { amplitude: 1.5, period_s: 10.0 }),
                ..base.clone()
            }
            .generate(),
            Err(FleetError::InvalidDiurnal)
        ));
        assert!(matches!(
            WorkloadSpec {
                bursts: Some(Bursts { factor: 0.5, mean_interval_s: 1.0, duration_s: 1.0 }),
                ..base
            }
            .generate(),
            Err(FleetError::InvalidBursts)
        ));
    }

    /// Plain Poisson: the empirical mean inter-arrival time must sit
    /// within tolerance of `1/rate` (20k samples ⇒ ~0.7% standard error).
    #[test]
    fn poisson_mean_interarrival_within_tolerance() {
        let rate = 200.0;
        let trace = WorkloadSpec::basic(rate, 20_000, 1, 42).generate().unwrap();
        assert_eq!(trace.len(), 20_000);
        let span = trace.last().unwrap().t_s;
        let mean_gap = span / trace.len() as f64;
        let expected = 1.0 / rate;
        assert!((mean_gap - expected).abs() / expected < 0.03, "mean gap {mean_gap} vs {expected}");
        // Strictly increasing times, ids sequential.
        for (i, w) in trace.windows(2).enumerate() {
            assert!(w[1].t_s > w[0].t_s, "times must increase at {i}");
        }
        assert!(trace.iter().enumerate().all(|(i, a)| a.id == i as u64));
    }

    /// Diurnal modulation redistributes load within a period but must
    /// conserve the total offered load: over whole periods the trace's
    /// average rate equals the unmodulated base rate.
    #[test]
    fn diurnal_modulation_conserves_offered_load() {
        let rate = 150.0;
        let period = 20.0;
        let spec = WorkloadSpec {
            diurnal: Some(Diurnal { amplitude: 0.8, period_s: period }),
            ..WorkloadSpec::basic(rate, 30_000, 1, 7)
        };
        let trace = spec.generate().unwrap();
        // Truncate to whole periods so the sine integrates to zero.
        let span = trace.last().unwrap().t_s;
        let whole = (span / period).floor() * period;
        assert!(whole >= 5.0 * period, "trace must cover several periods, got {whole}");
        let n_whole = trace.iter().filter(|a| a.t_s < whole).count();
        let empirical = n_whole as f64 / whole;
        assert!(
            (empirical - rate).abs() / rate < 0.03,
            "diurnal trace rate {empirical} vs base {rate}"
        );
        // And it really modulates: rising-half bins outweigh falling-half
        // bins (sin > 0 on the first half-period).
        let (mut peak_n, mut trough_n) = (0usize, 0usize);
        for a in trace.iter().filter(|a| a.t_s < whole) {
            let phase = (a.t_s % period) / period;
            if phase < 0.5 {
                peak_n += 1;
            } else {
                trough_n += 1;
            }
        }
        assert!(
            peak_n as f64 > 1.5 * trough_n as f64,
            "amplitude 0.8 must skew halves: {peak_n} vs {trough_n}"
        );
    }

    /// Burst injection is deterministic per seed: identical specs produce
    /// identical traces, different seeds different ones, and the burst
    /// factor shows up as a local rate spike.
    #[test]
    fn bursts_are_deterministic_under_fixed_seed() {
        let spec = WorkloadSpec {
            bursts: Some(Bursts { factor: 4.0, mean_interval_s: 5.0, duration_s: 1.0 }),
            ..WorkloadSpec::basic(100.0, 8_000, 2, 99)
        };
        let a = spec.generate().unwrap();
        let b = spec.generate().unwrap();
        assert_eq!(a, b, "same seed must replay the identical trace");
        let c = WorkloadSpec { seed: 100, ..spec.clone() }.generate().unwrap();
        assert_ne!(a, c, "different seed must differ");

        // Local rate in some 1s window exceeds 2x the base rate (a burst).
        let span = a.last().unwrap().t_s;
        let mut counts = vec![0usize; span.ceil() as usize + 1];
        for arr in &a {
            counts[arr.t_s as usize] += 1;
        }
        let max_window = counts.iter().copied().max().unwrap();
        assert!(max_window as f64 > 2.0 * 100.0, "no burst visible: max {max_window}/s");
    }

    #[test]
    fn class_mix_follows_weights() {
        let spec = WorkloadSpec {
            class_weights: vec![0.7, 0.3],
            ..WorkloadSpec::basic(100.0, 20_000, 2, 5)
        };
        let trace = spec.generate().unwrap();
        let c0 = trace.iter().filter(|a| a.class == 0).count() as f64 / trace.len() as f64;
        assert!((c0 - 0.7).abs() < 0.02, "class-0 share {c0}");
    }
}
