//! Reactive per-node autoscaling: add a replica when a node's queue
//! depth stays above a threshold for a sustained window, and (opt-in)
//! retire one when the queue stays idle. Deliberately simple —
//! threshold, sustain, cooldown, cap — so its effect on the
//! capacity/area trade-off is interpretable: scaled-up silicon is billed
//! at the node's *peak* replica count (see `ChipSpec::area_mm2`).

/// When to retire a replica (the scale-*down* path): the queue must sit
/// at or below `idle_depth` for `sustain_s` before one replica is
/// removed, never going below `min_replicas`. Scale-downs share the
/// policy's cooldown with scale-ups.
#[derive(Debug, Clone, Copy)]
pub struct ScaleDown {
    /// Queue depth at or below this counts as idle.
    pub idle_depth: usize,
    /// Idleness must persist this long before acting (seconds).
    pub sustain_s: f64,
    /// Never scale a node below this many replicas.
    pub min_replicas: usize,
}

/// When and how far to scale a node out (and optionally back in).
#[derive(Debug, Clone, Copy)]
pub struct AutoscalePolicy {
    /// Queue depth that counts as a breach.
    pub breach_depth: usize,
    /// The breach must persist this long before acting (seconds).
    pub sustain_s: f64,
    /// Never scale a node beyond this many replicas.
    pub max_replicas: usize,
    /// Minimum time between scale actions on one node (seconds).
    pub cooldown_s: f64,
    /// Optional scale-down path; `None` keeps the PR 5 scale-up-only
    /// behavior.
    pub scale_down: Option<ScaleDown>,
}

/// One scaling action the autoscaler took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleEvent {
    /// Fleet node index.
    pub node: usize,
    /// Simulated time of the action.
    pub at_s: f64,
    /// Active replicas before.
    pub from: usize,
    /// Active replicas after.
    pub to: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    breach_since: Option<f64>,
    idle_since: Option<f64>,
    cooldown_until: f64,
}

/// Tracks breach windows per node and decides scale-ups.
#[derive(Debug)]
pub struct Autoscaler {
    policy: AutoscalePolicy,
    state: Vec<NodeState>,
}

impl Autoscaler {
    /// Autoscaler for a fleet of `nodes` nodes.
    pub fn new(policy: AutoscalePolicy, nodes: usize) -> Self {
        Self { policy, state: vec![NodeState::default(); nodes] }
    }

    /// Observe node `i` at `now_s`. Returns the new replica count when
    /// the breach (scale-up) or the idle window (scale-down, if enabled)
    /// has been sustained; the caller applies it via
    /// [`lv_serving::EngineNode::scale_to`] and logs a [`ScaleEvent`].
    pub fn observe(
        &mut self,
        i: usize,
        queue_len: usize,
        active_replicas: usize,
        now_s: f64,
    ) -> Option<usize> {
        let st = &mut self.state[i];
        if queue_len >= self.policy.breach_depth {
            st.idle_since = None;
            let since = *st.breach_since.get_or_insert(now_s);
            if now_s < st.cooldown_until
                || now_s - since < self.policy.sustain_s
                || active_replicas >= self.policy.max_replicas
            {
                return None;
            }
            st.breach_since = None;
            st.cooldown_until = now_s + self.policy.cooldown_s;
            return Some(active_replicas + 1);
        }
        st.breach_since = None;
        let sd = self.policy.scale_down?;
        if queue_len > sd.idle_depth || active_replicas <= sd.min_replicas {
            st.idle_since = None;
            return None;
        }
        let since = *st.idle_since.get_or_insert(now_s);
        if now_s < st.cooldown_until || now_s - since < sd.sustain_s {
            return None;
        }
        st.idle_since = None;
        st.cooldown_until = now_s + self.policy.cooldown_s;
        Some(active_replicas - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> AutoscalePolicy {
        AutoscalePolicy {
            breach_depth: 8,
            sustain_s: 1.0,
            max_replicas: 4,
            cooldown_s: 5.0,
            scale_down: None,
        }
    }

    #[test]
    fn sustained_breach_scales_up() {
        let mut a = Autoscaler::new(policy(), 1);
        assert_eq!(a.observe(0, 10, 2, 0.0), None, "breach just started");
        assert_eq!(a.observe(0, 12, 2, 0.5), None, "not sustained yet");
        assert_eq!(a.observe(0, 9, 2, 1.2), Some(3), "sustained past 1s");
    }

    #[test]
    fn transient_spike_resets_the_window() {
        let mut a = Autoscaler::new(policy(), 1);
        assert_eq!(a.observe(0, 10, 2, 0.0), None);
        assert_eq!(a.observe(0, 2, 2, 0.5), None, "dip clears the breach");
        assert_eq!(a.observe(0, 10, 2, 0.9), None, "window restarted");
        assert_eq!(a.observe(0, 10, 2, 1.5), None, "only 0.6s into new window");
        assert_eq!(a.observe(0, 10, 2, 2.0), Some(3));
    }

    #[test]
    fn cooldown_spaces_consecutive_actions() {
        let mut a = Autoscaler::new(policy(), 1);
        a.observe(0, 10, 2, 0.0);
        assert_eq!(a.observe(0, 10, 2, 1.5), Some(3));
        // Still breached: a new window starts, but cooldown holds until 6.5.
        assert_eq!(a.observe(0, 10, 3, 2.0), None);
        assert_eq!(a.observe(0, 10, 3, 4.0), None, "sustained but cooling down");
        assert_eq!(a.observe(0, 10, 3, 7.0), Some(4), "cooldown elapsed");
    }

    #[test]
    fn sustained_idle_scales_down_to_the_floor() {
        let p = AutoscalePolicy {
            scale_down: Some(ScaleDown { idle_depth: 0, sustain_s: 2.0, min_replicas: 1 }),
            ..policy()
        };
        let mut a = Autoscaler::new(p, 1);
        assert_eq!(a.observe(0, 0, 3, 0.0), None, "idle window just started");
        assert_eq!(a.observe(0, 0, 3, 1.0), None, "not sustained yet");
        assert_eq!(a.observe(0, 0, 3, 2.5), Some(2), "sustained idle retires a replica");
        // Cooldown spaces the next retirement; the idle window persists
        // through it (same semantics as the breach window).
        assert_eq!(a.observe(0, 0, 2, 3.0), None, "cooling down");
        assert_eq!(a.observe(0, 0, 2, 8.0), Some(1), "idle sustained past cooldown");
        // Never below the floor.
        assert_eq!(a.observe(0, 0, 1, 20.0), None);
        assert_eq!(a.observe(0, 0, 1, 30.0), None);
    }

    #[test]
    fn queued_work_interrupts_the_idle_window() {
        let p = AutoscalePolicy {
            scale_down: Some(ScaleDown { idle_depth: 0, sustain_s: 2.0, min_replicas: 1 }),
            ..policy()
        };
        let mut a = Autoscaler::new(p, 1);
        assert_eq!(a.observe(0, 0, 2, 0.0), None);
        assert_eq!(a.observe(0, 3, 2, 1.0), None, "work arrives: idle window resets");
        assert_eq!(a.observe(0, 0, 2, 1.5), None, "window restarted");
        assert_eq!(a.observe(0, 0, 2, 3.0), None, "only 1.5s into new window");
        assert_eq!(a.observe(0, 0, 2, 3.6), Some(1));
    }

    #[test]
    fn replica_cap_is_respected() {
        let mut a = Autoscaler::new(policy(), 2);
        a.observe(1, 10, 4, 0.0);
        assert_eq!(a.observe(1, 10, 4, 2.0), None, "already at max_replicas");
        // Per-node state: node 0 is unaffected by node 1's history.
        a.observe(0, 10, 1, 10.0);
        assert_eq!(a.observe(0, 10, 1, 11.5), Some(2));
    }
}
