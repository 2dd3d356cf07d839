//! Fault-tolerance policy knobs: deadline-budgeted retries, tail
//! hedging, and graceful degradation. Everything is off by default
//! ([`FaultTolerance::none`]), in which case `FleetSim` behaves exactly
//! like the fault-oblivious PR 5 loop.
//!
//! **The deadline-budget rule.** A request's budget is the fleet's
//! per-node deadline (or the SLO when no deadline is set), anchored at
//! its *original* arrival. Retried and hedged copies keep that arrival
//! time, so per-node deadline shedding — and strict-deadline shedding,
//! which refuses to even start work that could not finish in time —
//! bounds the *total* latency across every attempt: a retried or hedged
//! request can never complete later than `arrival + budget`. Retries are
//! additionally not scheduled past the budget at all.

use crate::health::HealthPolicy;
use crate::FleetError;

/// Bounded retries with exponential backoff, funded by the deadline
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total dispatch attempts including the first (>= 1).
    pub max_attempts: u32,
    /// Backoff before attempt `k+1` is `backoff_s * 2^(k-1)`, seconds.
    pub backoff_s: f64,
}

impl RetryPolicy {
    /// Three attempts, 20 ms initial backoff.
    pub fn basic() -> Self {
        Self { max_attempts: 3, backoff_s: 0.020 }
    }
}

/// Tail hedging: after a delay tracking the fleet's observed completion
/// tail, dispatch a duplicate to a second node. The first copy to
/// dispatch wins among still-queued copies (the other is cancelled); if
/// both reach service, the first completion wins and the loser is
/// counted as wasted work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgePolicy {
    /// Never hedge sooner than this, seconds.
    pub min_delay_s: f64,
    /// Hedge when a request outlives this completion-latency quantile.
    pub quantile: f64,
    /// Observed completions needed before the quantile is trusted
    /// (before that, `min_delay_s` is used).
    pub min_samples: usize,
}

impl HedgePolicy {
    /// Hedge past the observed p99, but never before 50 ms.
    pub fn basic() -> Self {
        Self { min_delay_s: 0.050, quantile: 0.99, min_samples: 100 }
    }
}

/// Graceful degradation: when the picked node's expected delay for the
/// full-quality algorithm crosses a fraction of the SLO, serve the
/// request with the chip's cheaper degraded algorithm instead (see
/// `ChipSpec::degraded_service_s`); admission shedding only kicks in
/// after degradation can no longer hold the SLO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Degrade when expected delay exceeds this fraction of the SLO.
    pub delay_frac: f64,
}

impl DegradePolicy {
    /// Degrade at 60% of the SLO.
    pub fn basic() -> Self {
        Self { delay_frac: 0.6 }
    }
}

/// The fleet's fault-tolerance configuration. Each knob is independent;
/// all `None` reproduces the fault-oblivious PR 5 behavior exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTolerance {
    /// Outlier detection: eject unhealthy nodes from routing.
    pub health: Option<HealthPolicy>,
    /// Deadline-budgeted retries with exponential backoff.
    pub retry: Option<RetryPolicy>,
    /// Tail hedging (requires observing completions; works best with
    /// `health` so duplicates avoid the slow node).
    pub hedge: Option<HedgePolicy>,
    /// Class downgrade before admission shedding.
    pub degrade: Option<DegradePolicy>,
}

impl FaultTolerance {
    /// Everything off: the fault-oblivious baseline.
    pub fn none() -> Self {
        Self { health: None, retry: None, hedge: None, degrade: None }
    }

    /// Health-aware routing + retries (the core recovery pair).
    pub fn recovering() -> Self {
        Self {
            health: Some(HealthPolicy::basic()),
            retry: Some(RetryPolicy::basic()),
            ..Self::none()
        }
    }

    /// Reject degenerate policies with a typed error.
    pub fn validate(&self) -> Result<(), FleetError> {
        if let Some(h) = &self.health {
            h.validate()?;
        }
        if let Some(r) = &self.retry {
            if r.max_attempts == 0 {
                return Err(FleetError::InvalidTolerance("retry max_attempts must be >= 1"));
            }
            if !r.backoff_s.is_finite() || r.backoff_s < 0.0 {
                return Err(FleetError::InvalidTolerance("retry backoff must be >= 0"));
            }
        }
        if let Some(h) = &self.hedge {
            if !h.min_delay_s.is_finite() || h.min_delay_s < 0.0 {
                return Err(FleetError::InvalidTolerance("hedge min delay must be >= 0"));
            }
            if !(0.0..1.0).contains(&h.quantile) {
                return Err(FleetError::InvalidTolerance("hedge quantile must be in [0, 1)"));
            }
        }
        if let Some(d) = &self.degrade {
            if !d.delay_frac.is_finite() || d.delay_frac <= 0.0 {
                return Err(FleetError::InvalidTolerance("degrade delay_frac must be positive"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_validates_and_presets_validate() {
        assert!(FaultTolerance::none().validate().is_ok());
        assert!(FaultTolerance::recovering().validate().is_ok());
        let full = FaultTolerance {
            hedge: Some(HedgePolicy::basic()),
            degrade: Some(DegradePolicy::basic()),
            ..FaultTolerance::recovering()
        };
        assert!(full.validate().is_ok());
    }

    #[test]
    fn degenerate_knobs_are_rejected() {
        let t = |f: fn(&mut FaultTolerance)| {
            let mut tol = FaultTolerance {
                hedge: Some(HedgePolicy::basic()),
                degrade: Some(DegradePolicy::basic()),
                ..FaultTolerance::recovering()
            };
            f(&mut tol);
            tol.validate()
        };
        assert!(t(|x| x.retry.as_mut().unwrap().max_attempts = 0).is_err());
        assert!(t(|x| x.retry.as_mut().unwrap().backoff_s = f64::NAN).is_err());
        assert!(t(|x| x.hedge.as_mut().unwrap().quantile = 1.0).is_err());
        assert!(t(|x| x.degrade.as_mut().unwrap().delay_frac = 0.0).is_err());
        assert!(t(|x| x.health.as_mut().unwrap().consecutive_failures = 0).is_err());
    }
}
