//! Envoy-style outlier detection: the router learns node health purely
//! from observed request outcomes. Consecutive failures eject a node for
//! an exponentially growing window (capped); after the window the node is
//! on probation — one more failure re-ejects it immediately, one success
//! clears it. No oracle access to the fault plan: a health-aware router
//! only knows what its own requests experienced.

/// When to eject a node and for how long.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthPolicy {
    /// Consecutive failures that trigger ejection.
    pub consecutive_failures: u32,
    /// First ejection window, seconds; doubles per ejection.
    pub base_ejection_s: f64,
    /// Ejection window cap, seconds.
    pub max_ejection_s: f64,
}

impl HealthPolicy {
    /// Eject after 3 consecutive failures for 0.5 s, doubling to 8 s.
    pub fn basic() -> Self {
        Self { consecutive_failures: 3, base_ejection_s: 0.5, max_ejection_s: 8.0 }
    }

    /// Reject degenerate policies with a typed error.
    pub fn validate(&self) -> Result<(), crate::FleetError> {
        if self.consecutive_failures == 0 {
            return Err(crate::FleetError::InvalidTolerance("consecutive_failures must be >= 1"));
        }
        let pos = |v: f64| v.is_finite() && v > 0.0;
        if !pos(self.base_ejection_s) || !pos(self.max_ejection_s) {
            return Err(crate::FleetError::InvalidTolerance("ejection windows must be positive"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeHealth {
    consecutive: u32,
    ejections: u32,
    ejected_until: f64,
    probation: bool,
}

/// Per-node outcome history and ejection state.
#[derive(Debug)]
pub struct HealthTracker {
    policy: HealthPolicy,
    state: Vec<NodeHealth>,
}

impl HealthTracker {
    /// Tracker for a fleet of `nodes` nodes, all initially healthy.
    pub fn new(policy: HealthPolicy, nodes: usize) -> Self {
        Self { policy, state: vec![NodeHealth::default(); nodes] }
    }

    /// A request on node `i` completed.
    pub fn on_success(&mut self, i: usize) {
        let st = &mut self.state[i];
        st.consecutive = 0;
        st.probation = false;
    }

    /// A request on node `i` failed (crash loss, refused offer, or
    /// deadline shed) at `now_s`. May eject the node.
    pub fn on_failure(&mut self, i: usize, now_s: f64) {
        let st = &mut self.state[i];
        st.consecutive += 1;
        if st.probation || st.consecutive >= self.policy.consecutive_failures {
            st.ejections += 1;
            let window = (self.policy.base_ejection_s
                * 2f64.powi(st.ejections.saturating_sub(1).min(30) as i32))
            .min(self.policy.max_ejection_s);
            st.ejected_until = (now_s + window).max(st.ejected_until);
            st.consecutive = 0;
            st.probation = true;
        }
    }

    /// Whether node `i` is currently ejected from routing.
    pub fn is_ejected(&self, i: usize, now_s: f64) -> bool {
        now_s < self.state[i].ejected_until
    }

    /// Total ejections across the fleet (reported as a resilience stat).
    pub fn total_ejections(&self) -> u64 {
        self.state.iter().map(|s| s.ejections as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ejects_after_consecutive_failures_with_backoff() {
        let mut h = HealthTracker::new(HealthPolicy::basic(), 2);
        h.on_failure(0, 0.0);
        h.on_failure(0, 0.1);
        assert!(!h.is_ejected(0, 0.1), "two failures are below the threshold");
        h.on_failure(0, 0.2);
        assert!(h.is_ejected(0, 0.2), "third consecutive failure ejects");
        assert!(h.is_ejected(0, 0.69), "0.5s base window");
        assert!(!h.is_ejected(0, 0.71));
        // Probation: a single failure after the window re-ejects, doubled.
        h.on_failure(0, 0.8);
        assert!(h.is_ejected(0, 1.7), "second ejection lasts 1s");
        assert!(!h.is_ejected(0, 1.9));
        assert_eq!(h.total_ejections(), 2);
        // The healthy node is untouched.
        assert!(!h.is_ejected(1, 0.2));
    }

    #[test]
    fn success_clears_the_streak_and_probation() {
        let mut h = HealthTracker::new(HealthPolicy::basic(), 1);
        h.on_failure(0, 0.0);
        h.on_failure(0, 0.1);
        h.on_success(0);
        h.on_failure(0, 0.2);
        h.on_failure(0, 0.3);
        assert!(!h.is_ejected(0, 0.3), "success resets the failure streak");
        h.on_failure(0, 0.4);
        assert!(h.is_ejected(0, 0.4));
        // Success during probation restores full threshold.
        h.on_success(0);
        h.on_failure(0, 1.0);
        assert!(!h.is_ejected(0, 1.0), "probation cleared by success");
    }

    #[test]
    fn ejection_window_is_capped() {
        let p = HealthPolicy { consecutive_failures: 1, base_ejection_s: 1.0, max_ejection_s: 4.0 };
        let mut h = HealthTracker::new(p, 1);
        for k in 0..6 {
            h.on_failure(0, k as f64 * 100.0);
        }
        // 6th ejection would be 32s uncapped; capped at 4s.
        assert!(h.is_ejected(0, 503.9));
        assert!(!h.is_ejected(0, 504.1));
    }

    #[test]
    fn policy_validation() {
        assert!(HealthPolicy::basic().validate().is_ok());
        assert!(HealthPolicy { consecutive_failures: 0, ..HealthPolicy::basic() }
            .validate()
            .is_err());
        assert!(HealthPolicy { base_ejection_s: 0.0, ..HealthPolicy::basic() }.validate().is_err());
    }
}
