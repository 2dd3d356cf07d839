//! A steppable serving node: one chip's dispatch mechanics (bounded
//! admission, deadline shedding, dynamic batching, least-loaded replica
//! selection) behind an interface an external scheduler drives against
//! its own clock.
//!
//! `lv-fleet`'s `FleetSim` is that scheduler: it drives one node per chip
//! behind a router, interleaving [`EngineNode::advance`] and
//! [`EngineNode::offer`] calls in global arrival order (a single chip is
//! a one-node fleet). The node never looks at a wall clock: time only
//! moves when the caller passes it in, so a fleet of nodes stays
//! deterministic regardless of host parallelism.
//!
//! Everything the node does while its clock advances is returned as
//! [`NodeEvent`]s, which callers map to traces and request bookkeeping;
//! the node itself keeps only the aggregate counters (per-replica
//! [`ReplicaCounters`] and [`LatencyHistogram`]s, [`DropStats`]) that
//! reports are built from.

use crate::batch::{batch_service_time, BatchPolicy};
use crate::metrics::{DropReason, DropStats, LatencyHistogram, ReplicaCounters};
use crate::queue::{AdmissionQueue, QueuedRequest};
use crate::ServingError;

/// Everything about the server, nothing about the arrival process.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// Replicas initially active (each on its own core / L2 partition).
    pub replicas: usize,
    /// Admission-queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Optional relative deadline: queued longer than this ⇒ shed.
    pub deadline_s: Option<f64>,
    /// Batching policy.
    pub batch: BatchPolicy,
    /// Per-launch setup fraction, `[0, 1)` (see
    /// [`crate::batch::batch_service_time`]).
    pub batch_setup_frac: f64,
    /// With a deadline set, also shed at dispatch when the head request
    /// could not *finish* by its deadline (queue-wait shedding alone lets
    /// a request start late and overshoot). Exact for unbatched nodes;
    /// with batching it uses the head's unit cost as the estimate.
    pub strict_deadline: bool,
}

impl NodeConfig {
    /// No batching, no deadline.
    pub fn basic(replicas: usize, queue_capacity: usize) -> Self {
        Self {
            replicas,
            queue_capacity,
            deadline_s: None,
            batch: BatchPolicy::none(),
            batch_setup_frac: 0.0,
            strict_deadline: false,
        }
    }

    /// Reject degenerate configurations with a typed error instead of
    /// panicking mid-simulation (mirrors `MachineConfig::builder()`).
    pub fn validate(&self) -> Result<(), ServingError> {
        if self.replicas == 0 {
            return Err(ServingError::NoReplicas);
        }
        if self.queue_capacity == 0 {
            return Err(ServingError::ZeroQueueCapacity);
        }
        if self.batch.max_batch == 0 {
            return Err(ServingError::ZeroBatch);
        }
        if !(0.0..1.0).contains(&self.batch_setup_frac) {
            return Err(ServingError::InvalidSetupFrac(self.batch_setup_frac));
        }
        if let Some(d) = self.deadline_s {
            if !d.is_finite() || d <= 0.0 {
                return Err(ServingError::InvalidDeadline(d));
            }
        } else if self.strict_deadline {
            return Err(ServingError::StrictWithoutDeadline);
        }
        Ok(())
    }
}

/// One thing a node did while [`EngineNode::advance`]-ing its clock, in
/// chronological order. Callers that trace or build time series consume
/// these; callers that only want totals can drop them.
#[derive(Debug, Clone)]
pub enum NodeEvent {
    /// Queued requests whose deadline passed were shed at `at_s`.
    Shed {
        /// Simulated time of the shed.
        at_s: f64,
        /// The dropped requests (already counted in [`DropStats`]).
        shed: Vec<QueuedRequest>,
        /// Queue depth after the shed.
        queue_len_after: usize,
    },
    /// A batch launched on `replica` at `at_s` and completes at `done_s`.
    Batch {
        /// Replica index the batch ran on.
        replica: usize,
        /// Dispatch time.
        at_s: f64,
        /// Completion time (`at_s + service_s`).
        done_s: f64,
        /// Batch service time.
        service_s: f64,
        /// The requests served (latencies are recorded when the batch
        /// *completes*, so a crash before `done_s` revokes them).
        requests: Vec<QueuedRequest>,
        /// Queue depth after the batch was popped.
        queue_len_after: usize,
    },
}

/// A launched batch that has not completed yet. Kept per replica so a
/// crash can revoke it (requests lost, busy time refunded) instead of
/// counting work the hardware never finished.
#[derive(Debug, Clone)]
struct InFlight {
    done_s: f64,
    requests: Vec<QueuedRequest>,
}

/// One serving node (one chip's worth of co-located replicas) that an
/// external scheduler steps through time. See the module docs for the
/// drive protocol; the invariant is that [`EngineNode::advance`]`(t)`
/// processes every dispatch eligible strictly before `t`, so offering an
/// arrival at `t` after advancing to `t` gives ties between an arrival
/// and a dispatch to the arrival, letting batches fill greedily.
#[derive(Debug)]
pub struct EngineNode {
    cfg: NodeConfig,
    queue: AdmissionQueue,
    /// When each provisioned replica frees up; only `[..active]` receive
    /// new batches (the autoscaler moves `active`, history is kept).
    free_at: Vec<f64>,
    /// In-flight batch per provisioned replica (index-aligned with
    /// `free_at`); `None` when idle or already finalized.
    in_flight: Vec<Option<InFlight>>,
    active: usize,
    counters: Vec<ReplicaCounters>,
    latencies: Vec<LatencyHistogram>,
    drops: DropStats,
    batches: u64,
    batched_requests: u64,
    last_completion: f64,
    max_queue_depth: usize,
    peak_replicas: usize,
    /// Node is serving; a crashed node ignores time and refuses offers
    /// until restarted.
    up: bool,
    /// Service-time multiplier (≥ 1 models a straggler; 1 is nominal).
    slowdown: f64,
}

impl EngineNode {
    /// Validate `cfg` and build an idle node at time zero.
    pub fn new(cfg: NodeConfig) -> Result<Self, ServingError> {
        cfg.validate()?;
        let n = cfg.replicas;
        Ok(Self {
            queue: AdmissionQueue::new(cfg.queue_capacity, cfg.deadline_s),
            free_at: vec![0.0; n],
            in_flight: (0..n).map(|_| None).collect(),
            active: n,
            counters: vec![ReplicaCounters::default(); n],
            latencies: vec![LatencyHistogram::new(); n],
            drops: DropStats::default(),
            batches: 0,
            batched_requests: 0,
            last_completion: 0.0,
            max_queue_depth: 0,
            peak_replicas: n,
            up: true,
            slowdown: 1.0,
            cfg,
        })
    }

    /// Earliest-free active replica (work-conserving least-loaded pick).
    fn earliest_free(&self) -> (usize, f64) {
        self.free_at[..self.active]
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("at least one active replica")
    }

    /// When the next batch could launch, given the earliest replica frees
    /// at `free`: the size trigger once a full batch is queued, else the
    /// time trigger once the head has waited `max_wait_s`.
    fn dispatch_at(&self, free: f64) -> Option<f64> {
        if self.queue.is_empty() {
            None
        } else if self.queue.len() >= self.cfg.batch.max_batch {
            let full_at = self
                .queue
                .arrival_at(self.cfg.batch.max_batch - 1)
                .expect("queue holds at least max_batch items");
            Some(free.max(full_at))
        } else {
            let head = self.queue.head_arrival().expect("queue non-empty");
            Some(free.max(head + self.cfg.batch.max_wait_s))
        }
    }

    /// Record the latencies of every in-flight batch that completes at or
    /// before `t_s`. Completion, not dispatch, is when a request counts as
    /// served — a crash between the two revokes the batch instead.
    fn finalize_up_to(&mut self, t_s: f64) {
        for ri in 0..self.in_flight.len() {
            let done = match &self.in_flight[ri] {
                Some(fl) if fl.done_s <= t_s => fl.done_s,
                _ => continue,
            };
            let fl = self.in_flight[ri].take().expect("checked above");
            for r in &fl.requests {
                self.latencies[ri].record(done - r.arrival_s);
            }
            self.last_completion = self.last_completion.max(done);
        }
    }

    /// Process every dispatch (and deadline shed) that becomes eligible
    /// strictly before `t_s`, returning what happened in order. Dispatches
    /// exactly at `t_s` are left pending so an arrival at `t_s` can still
    /// join the batch.
    pub fn advance(&mut self, t_s: f64) -> Vec<NodeEvent> {
        let mut events = Vec::new();
        if !self.up {
            // A crashed node holds no queue or in-flight work; time just
            // passes until `restart`.
            return events;
        }
        loop {
            let (ri, free) = self.earliest_free();
            let Some(d) = self.dispatch_at(free) else { break };
            if d >= t_s {
                break;
            }
            // Shed queued work whose deadline passed before `d`; the head
            // changed, so re-evaluate the trigger before popping a batch.
            let shed = self.queue.shed_expired(d);
            if !shed.is_empty() {
                for _ in &shed {
                    self.drops.record(DropReason::DeadlineExceeded);
                }
                events.push(NodeEvent::Shed { at_s: d, shed, queue_len_after: self.queue.len() });
                continue;
            }
            // Strict mode: also shed heads that would *finish* past their
            // deadline (start-time shedding alone lets them overshoot).
            if self.cfg.strict_deadline {
                let deadline = self.cfg.deadline_s.expect("validated: strict implies deadline");
                let mut hopeless = Vec::new();
                while let Some(h) = self.queue.head() {
                    if d + h.unit_cost_s * self.slowdown > h.arrival_s + deadline {
                        hopeless.push(self.queue.pop_batch(1).remove(0));
                    } else {
                        break;
                    }
                }
                if !hopeless.is_empty() {
                    for _ in &hopeless {
                        self.drops.record(DropReason::DeadlineExceeded);
                    }
                    events.push(NodeEvent::Shed {
                        at_s: d,
                        shed: hopeless,
                        queue_len_after: self.queue.len(),
                    });
                    continue;
                }
            }
            let batch = self.queue.pop_batch(self.cfg.batch.max_batch);
            debug_assert!(!batch.is_empty());
            let costs: Vec<f64> = batch.iter().map(|r| r.unit_cost_s).collect();
            let svc = batch_service_time(&costs, self.cfg.batch_setup_frac) * self.slowdown;
            let done = d + svc;
            // The replica frees at `d`, so its previous batch (if any)
            // completed by then — finalize before overwriting the slot.
            self.finalize_up_to(d);
            self.free_at[ri] = done;
            self.in_flight[ri] = Some(InFlight { done_s: done, requests: batch.clone() });
            self.counters[ri].batches += 1;
            self.counters[ri].requests += batch.len() as u64;
            self.counters[ri].busy_s += svc;
            self.batches += 1;
            self.batched_requests += batch.len() as u64;
            events.push(NodeEvent::Batch {
                replica: ri,
                at_s: d,
                done_s: done,
                service_s: svc,
                requests: batch,
                queue_len_after: self.queue.len(),
            });
        }
        self.finalize_up_to(t_s);
        events
    }

    /// Run every remaining dispatch to completion (no more arrivals).
    pub fn drain(&mut self) -> Vec<NodeEvent> {
        self.advance(f64::INFINITY)
    }

    /// Offer one request. `false` means the bounded queue rejected it (the
    /// drop is already counted as [`DropReason::QueueFull`]) or the node is
    /// down (counted as [`DropReason::NodeFailed`]).
    pub fn offer(&mut self, req: QueuedRequest) -> bool {
        if !self.up {
            self.drops.record(DropReason::NodeFailed);
            return false;
        }
        if self.queue.try_admit(req) {
            self.max_queue_depth = self.max_queue_depth.max(self.queue.len());
            true
        } else {
            self.drops.record(DropReason::QueueFull);
            false
        }
    }

    /// Crash the node at `now_s`: batches already complete by `now_s` are
    /// finalized first, then every in-flight batch is revoked (unexecuted
    /// busy time refunded, its dispatch counters rolled back) and the
    /// queue is emptied. Everything lost is counted under
    /// [`DropReason::NodeFailed`] and returned so the caller can retry or
    /// account it. Idempotent while down.
    pub fn crash(&mut self, now_s: f64) -> Vec<QueuedRequest> {
        if !self.up {
            return Vec::new();
        }
        self.finalize_up_to(now_s);
        let mut lost = Vec::new();
        for ri in 0..self.free_at.len() {
            if let Some(fl) = self.in_flight[ri].take() {
                // done_s > now_s here (earlier completions just finalized):
                // the batch dies mid-service.
                self.counters[ri].busy_s -= fl.done_s - now_s;
                self.counters[ri].batches -= 1;
                self.counters[ri].requests -= fl.requests.len() as u64;
                self.batches -= 1;
                self.batched_requests -= fl.requests.len() as u64;
                lost.extend(fl.requests);
            }
            self.free_at[ri] = now_s;
        }
        lost.extend(self.queue.drain_all());
        for _ in &lost {
            self.drops.record(DropReason::NodeFailed);
        }
        self.up = false;
        lost
    }

    /// Bring a crashed node back at `now_s` with every replica idle.
    pub fn restart(&mut self, now_s: f64) {
        self.up = true;
        for f in &mut self.free_at {
            *f = f.max(now_s);
        }
    }

    /// Whether the node is serving (not crashed).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Set the service-time multiplier (straggler injection): batches
    /// dispatched from now on run `m`× their nominal time. `1.0` restores
    /// nominal speed.
    pub fn set_slowdown(&mut self, m: f64) {
        assert!(m.is_finite() && m > 0.0, "slowdown must be positive, got {m}");
        self.slowdown = m;
    }

    /// Current service-time multiplier.
    pub fn slowdown(&self) -> f64 {
        self.slowdown
    }

    /// Remove a still-queued request by id (a hedged duplicate whose
    /// sibling won). `false` if it already dispatched or was never here;
    /// cancellation is not a drop.
    pub fn cancel(&mut self, id: u64) -> bool {
        self.queue.cancel(id).is_some()
    }

    /// Change the active replica count at time `now_s`. Scaling up brings
    /// new replicas online free at `now_s`; scaling down stops assigning
    /// new batches to the trailing replicas (in-flight batches finish, and
    /// their counters/latencies are kept — provisioned history never
    /// shrinks, so [`EngineNode::peak_replicas`] reflects peak silicon).
    pub fn scale_to(&mut self, replicas: usize, now_s: f64) {
        let replicas = replicas.max(1);
        while self.free_at.len() < replicas {
            self.free_at.push(now_s);
            self.in_flight.push(None);
            self.counters.push(ReplicaCounters::default());
            self.latencies.push(LatencyHistogram::new());
        }
        self.active = replicas;
        self.peak_replicas = self.peak_replicas.max(replicas);
    }

    /// Currently active replicas.
    pub fn active_replicas(&self) -> usize {
        self.active
    }

    /// Most replicas ever active (the silicon that had to exist).
    pub fn peak_replicas(&self) -> usize {
        self.peak_replicas
    }

    /// Current queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Deepest the queue ever got.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Expected wait before service for work arriving at `now_s`: time
    /// until the earliest replica frees, plus the queued work spread over
    /// the active replicas. A routing/admission estimate, not a bound.
    pub fn expected_wait_s(&self, now_s: f64) -> f64 {
        let (_, free) = self.earliest_free();
        (free - now_s).max(0.0) + self.slowdown * self.queue.total_cost_s() / self.active as f64
    }

    /// Drop accounting so far.
    pub fn drops(&self) -> DropStats {
        self.drops
    }

    /// Per-replica work counters (provisioned replicas, active or not).
    pub fn counters(&self) -> &[ReplicaCounters] {
        &self.counters
    }

    /// Per-replica latency histograms, index-aligned with
    /// [`EngineNode::counters`].
    pub fn latencies(&self) -> &[LatencyHistogram] {
        &self.latencies
    }

    /// All replica histograms folded into one via
    /// [`LatencyHistogram::merge`] — exact, because the histogram keeps
    /// raw samples (fleet callers merge *these* again across nodes).
    pub fn merged_latency(&self) -> LatencyHistogram {
        let mut merged = LatencyHistogram::new();
        for h in &self.latencies {
            merged.merge(h);
        }
        merged
    }

    /// Requests served to completion.
    pub fn completed(&self) -> usize {
        self.latencies.iter().map(LatencyHistogram::len).sum()
    }

    /// Batches executed / requests batched (for mean batch size).
    pub fn batch_counts(&self) -> (u64, u64) {
        (self.batches, self.batched_requests)
    }

    /// Total replica busy seconds.
    pub fn busy_s(&self) -> f64 {
        self.counters.iter().map(|c| c.busy_s).sum()
    }

    /// Completion time of the last batch so far.
    pub fn last_completion_s(&self) -> f64 {
        self.last_completion
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, t: f64, cost: f64) -> QueuedRequest {
        QueuedRequest { id, arrival_s: t, class: 0, unit_cost_s: cost }
    }

    #[test]
    fn validates_like_the_engine() {
        assert!(matches!(
            NodeConfig { replicas: 0, ..NodeConfig::basic(1, 4) }.validate(),
            Err(ServingError::NoReplicas)
        ));
        assert!(matches!(NodeConfig::basic(1, 0).validate(), Err(ServingError::ZeroQueueCapacity)));
        for d in [0.0, -0.5, f64::NAN] {
            assert!(matches!(
                NodeConfig { deadline_s: Some(d), ..NodeConfig::basic(1, 4) }.validate(),
                Err(ServingError::InvalidDeadline(_))
            ));
        }
        assert!(matches!(
            NodeConfig {
                batch: BatchPolicy { max_batch: 0, max_wait_s: 0.0 },
                ..NodeConfig::basic(1, 4)
            }
            .validate(),
            Err(ServingError::ZeroBatch)
        ));
        assert!(matches!(
            NodeConfig { batch_setup_frac: 1.0, ..NodeConfig::basic(1, 4) }.validate(),
            Err(ServingError::InvalidSetupFrac(_))
        ));
        assert!(NodeConfig::basic(2, 8).validate().is_ok());
    }

    #[test]
    fn advance_holds_ties_for_the_arrival() {
        // One replica, no batching: a request arriving at 0 dispatches at
        // 0, but only once the clock moves strictly past 0.
        let mut n = EngineNode::new(NodeConfig::basic(1, 8)).unwrap();
        assert!(n.offer(req(0, 0.0, 0.010)));
        assert!(n.advance(0.0).is_empty(), "dispatch at t must wait for advance past t");
        let ev = n.advance(0.5);
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            NodeEvent::Batch { at_s, done_s, .. } => {
                assert_eq!(*at_s, 0.0);
                assert!((done_s - 0.010).abs() < 1e-12);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(n.completed(), 1);
    }

    #[test]
    fn offer_counts_queue_full_drops() {
        let mut n = EngineNode::new(NodeConfig::basic(1, 2)).unwrap();
        // Replica busy from a first dispatched request, then fill the queue.
        assert!(n.offer(req(0, 0.0, 1.0)));
        n.advance(0.1);
        assert!(n.offer(req(1, 0.1, 1.0)));
        assert!(n.offer(req(2, 0.1, 1.0)));
        assert!(!n.offer(req(3, 0.1, 1.0)), "third queued offer must bounce");
        assert_eq!(n.drops().queue_full, 1);
        assert_eq!(n.max_queue_depth(), 2);
    }

    #[test]
    fn deadline_sheds_surface_as_events() {
        let cfg = NodeConfig { deadline_s: Some(0.05), ..NodeConfig::basic(1, 8) };
        let mut n = EngineNode::new(cfg).unwrap();
        // First request occupies the replica for 1s; the second's deadline
        // expires long before the replica frees.
        assert!(n.offer(req(0, 0.0, 1.0)));
        n.advance(0.01);
        assert!(n.offer(req(1, 0.01, 1.0)));
        let events = n.drain();
        let sheds: usize = events
            .iter()
            .filter_map(|e| match e {
                NodeEvent::Shed { shed, .. } => Some(shed.len()),
                NodeEvent::Batch { .. } => None,
            })
            .sum();
        assert_eq!(sheds, 1);
        assert_eq!(n.drops().deadline_exceeded, 1);
        assert_eq!(n.completed(), 1);
    }

    #[test]
    fn scale_up_adds_capacity_mid_run() {
        let mut one = EngineNode::new(NodeConfig::basic(1, 64)).unwrap();
        let mut scaled = EngineNode::new(NodeConfig::basic(1, 64)).unwrap();
        // Back-to-back 10ms requests arriving every 5ms: one replica lags.
        for i in 0..20u64 {
            let t = i as f64 * 0.005;
            one.advance(t);
            scaled.advance(t);
            if i == 4 {
                scaled.scale_to(4, t);
            }
            assert!(one.offer(req(i, t, 0.010)));
            assert!(scaled.offer(req(i, t, 0.010)));
        }
        one.drain();
        scaled.drain();
        assert_eq!(scaled.peak_replicas(), 4);
        assert!(scaled.last_completion_s() < one.last_completion_s());
        let (m1, m4) = (one.merged_latency().summary(), scaled.merged_latency().summary());
        assert!(m4.p99_s < m1.p99_s, "scaling out must cut queueing latency");
    }

    #[test]
    fn merged_latency_equals_per_replica_union() {
        let mut n = EngineNode::new(NodeConfig::basic(3, 64)).unwrap();
        for i in 0..30u64 {
            let t = i as f64 * 0.002;
            n.advance(t);
            assert!(n.offer(req(i, t, 0.010)));
        }
        n.drain();
        let merged = n.merged_latency();
        let per_replica: usize = n.latencies().iter().map(LatencyHistogram::len).sum();
        assert_eq!(merged.len(), per_replica);
        assert_eq!(merged.len(), 30);
        // Three replicas all saw work.
        assert!(n.latencies().iter().all(|h| !h.is_empty()));
    }

    #[test]
    fn crash_conserves_every_offered_request() {
        // 2 replicas, slow requests: at crash time some are in flight,
        // some queued, some already complete. offered = completed + drops.
        let mut n = EngineNode::new(NodeConfig::basic(2, 64)).unwrap();
        for i in 0..12u64 {
            let t = i as f64 * 0.05;
            n.advance(t);
            assert!(n.offer(req(i, t, 0.4)));
        }
        n.advance(0.65);
        let done_before = n.completed();
        let lost = n.crash(0.65);
        assert!(!n.is_up());
        assert!(!lost.is_empty(), "crash mid-run must strand work");
        assert_eq!(n.queue_len(), 0, "crash empties the queue");
        assert_eq!(n.drops().failed, lost.len() as u64);
        assert_eq!(done_before + lost.len(), 12, "offered = completed + failed");
        assert_eq!(n.completed(), done_before, "crash must not mint completions");
        // Down node refuses offers and never dispatches.
        assert!(!n.offer(req(99, 0.7, 0.4)));
        assert_eq!(n.drops().failed, lost.len() as u64 + 1);
        assert!(n.drain().is_empty());
        // Counters stay consistent with completions after the rollback.
        let counted: u64 = n.counters().iter().map(|c| c.requests).sum();
        assert_eq!(counted as usize, n.completed());
        // Second crash is a no-op.
        assert!(n.crash(0.7).is_empty());
    }

    #[test]
    fn restart_serves_again_from_idle() {
        let mut n = EngineNode::new(NodeConfig::basic(1, 8)).unwrap();
        assert!(n.offer(req(0, 0.0, 1.0)));
        n.advance(0.1);
        n.crash(0.5);
        n.restart(2.0);
        assert!(n.is_up());
        assert!(n.offer(req(1, 2.0, 0.25)));
        let ev = n.drain();
        assert_eq!(ev.len(), 1);
        match &ev[0] {
            NodeEvent::Batch { at_s, done_s, .. } => {
                assert_eq!(*at_s, 2.0, "restarted replicas are idle, not stuck at old free_at");
                assert!((done_s - 2.25).abs() < 1e-12);
            }
            other => panic!("expected batch, got {other:?}"),
        }
        assert_eq!(n.completed(), 1);
        assert_eq!(n.drops().failed, 1);
    }

    #[test]
    fn slowdown_stretches_service_and_wait_estimates() {
        let mut n = EngineNode::new(NodeConfig::basic(1, 8)).unwrap();
        n.set_slowdown(3.0);
        assert!(n.offer(req(0, 0.0, 0.1)));
        let mut ev = n.advance(0.05); // dispatches id 0 at t=0
                                      // In service 0.0→0.3; a queued request waits 0.25 + 3×0.1.
        assert!(n.offer(req(1, 0.05, 0.1)));
        let w = n.expected_wait_s(0.05);
        assert!((w - 0.55).abs() < 1e-9, "wait {w}");
        n.set_slowdown(1.0);
        ev.extend(n.drain());
        let dones: Vec<f64> = ev
            .iter()
            .map(|e| match e {
                NodeEvent::Batch { done_s, .. } => *done_s,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert!((dones[0] - 0.3).abs() < 1e-12, "slowed batch: {dones:?}");
        assert!((dones[1] - 0.4).abs() < 1e-12, "restored speed: {dones:?}");
    }

    #[test]
    fn strict_deadline_sheds_requests_that_would_finish_late() {
        let lax = NodeConfig { deadline_s: Some(0.15), ..NodeConfig::basic(1, 8) };
        let strict = NodeConfig { strict_deadline: true, ..lax.clone() };
        assert!(matches!(
            NodeConfig { deadline_s: None, ..strict.clone() }.validate(),
            Err(ServingError::StrictWithoutDeadline)
        ));
        // Head dispatches at 0.1 (wait 0.1 < deadline) but needs 0.1 more:
        // finishes at 0.2 > 0.15. Lax serves it late; strict sheds it.
        let run = |cfg: NodeConfig| {
            let mut n = EngineNode::new(cfg).unwrap();
            assert!(n.offer(req(0, 0.0, 0.1)));
            n.advance(0.01);
            assert!(n.offer(req(1, 0.0, 0.1)));
            n.drain();
            n
        };
        let lax_n = run(lax);
        assert_eq!(lax_n.completed(), 2, "lax mode serves the late request");
        let strict_n = run(strict);
        assert_eq!(strict_n.completed(), 1);
        assert_eq!(strict_n.drops().deadline_exceeded, 1);
        assert!(
            strict_n.merged_latency().summary().max_s <= 0.15 + 1e-12,
            "strict node never completes past the deadline"
        );
    }

    #[test]
    fn cancel_removes_only_queued_copies() {
        let mut n = EngineNode::new(NodeConfig::basic(1, 8)).unwrap();
        assert!(n.offer(req(0, 0.0, 0.5)));
        n.advance(0.1); // id 0 now in flight
        assert!(n.offer(req(1, 0.1, 0.5)));
        assert!(!n.cancel(0), "in-flight work cannot be cancelled");
        assert!(n.cancel(1), "queued work can");
        assert!(!n.cancel(1), "cancel is one-shot");
        n.drain();
        assert_eq!(n.completed(), 1);
        assert_eq!(n.drops().total(), 0, "cancellation is not a drop");
    }

    /// Satellite: shrinking the active set must not lose work — in-flight
    /// batches finish and queued requests are still served by the
    /// remaining replicas (offered = completed + drops, with no drops
    /// configured here).
    #[test]
    fn scale_down_conserves_in_flight_and_queued_requests() {
        let mut n = EngineNode::new(NodeConfig::basic(4, 256)).unwrap();
        for i in 0..40u64 {
            let t = i as f64 * 0.01;
            n.advance(t);
            assert!(n.offer(req(i, t, 0.08)));
            if i == 20 {
                // All four replicas have in-flight batches and the queue
                // is non-empty at this point.
                n.scale_to(1, t);
            }
        }
        n.drain();
        assert_eq!(n.active_replicas(), 1);
        assert_eq!(n.peak_replicas(), 4);
        assert_eq!(n.completed(), 40, "offered = completed: nothing vanished in the shrink");
        assert_eq!(n.drops().total(), 0);
        let counted: u64 = n.counters().iter().map(|c| c.requests).sum();
        assert_eq!(counted, 40, "per-replica counters agree");
    }

    #[test]
    fn expected_wait_tracks_backlog() {
        let mut n = EngineNode::new(NodeConfig::basic(1, 64)).unwrap();
        assert_eq!(n.expected_wait_s(0.0), 0.0);
        assert!(n.offer(req(0, 0.0, 0.5)));
        n.advance(0.1); // dispatches the 0.5s request at t=0
        assert!(n.offer(req(1, 0.1, 0.5)));
        let w = n.expected_wait_s(0.1);
        // Replica busy until 0.5 (0.4 away) + 0.5 queued work.
        assert!((w - 0.9).abs() < 1e-9, "wait {w}");
    }
}
