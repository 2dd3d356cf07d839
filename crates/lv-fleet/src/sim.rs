//! The cluster event loop: one [`lv_serving::EngineNode`] per chip,
//! driven by a global event heap that merges workload arrivals,
//! scheduled fault injections, batch completions, and fault-tolerance
//! timers (retries, hedges) onto one deterministic clock.
//!
//! With faults and tolerance off, the loop degenerates to the original
//! drive order — advance every node to each arrival, observe the
//! autoscaler, route, admission-check, offer — and reproduces it
//! bit-for-bit, including the router's RNG stream. With them on, events
//! at equal times order fault < completion < retry < hedge < arrival,
//! and the simulation tracks every request's copies (original, retried,
//! hedged) so the report states per-request outcomes with the
//! conservation invariant `completed + dropped == offered` and, under
//! strict deadlines, no completion past the request's budget (original
//! arrival + deadline) no matter how many times it was retried.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use lv_serving::metrics::percentile;
use lv_serving::{
    BatchPolicy, EngineNode, LatencyHistogram, LatencySummary, NodeConfig, NodeEvent, QueuedRequest,
};
use lv_trace::{Tracer, TrackId};

use crate::autoscale::{AutoscalePolicy, Autoscaler, ScaleEvent};
use crate::chip::ChipSpec;
use crate::fault::{FaultAction, FaultEvent, FaultSpec};
use crate::health::HealthTracker;
use crate::router::{Policy, Router};
use crate::tolerance::FaultTolerance;
use crate::workload::{Arrival, WorkloadSpec};
use crate::FleetError;

/// Router RNG stream, derived from the workload seed so one `--seed`
/// pins the whole run without correlating with arrival thinning.
const ROUTER_SEED_SALT: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Slices in the SLO-attainment time series (see [`AttainSlice`]).
const ATTAIN_SLICES: usize = 64;

/// One chip of the fleet at runtime: its design point plus the live
/// serving node. The router reads these through the accessors below.
#[derive(Debug)]
pub struct FleetNode {
    spec: ChipSpec,
    node: EngineNode,
    queue_capacity: usize,
}

impl FleetNode {
    pub(crate) fn new(spec: ChipSpec, cfg: NodeConfig) -> Result<Self, FleetError> {
        let queue_capacity = cfg.queue_capacity;
        Ok(Self { node: EngineNode::new(cfg)?, spec, queue_capacity })
    }

    /// The chip this node runs on.
    pub fn spec(&self) -> &ChipSpec {
        &self.spec
    }

    /// Current admission-queue depth.
    pub fn queue_len(&self) -> usize {
        self.node.queue_len()
    }

    /// Whether the next offer would bounce off the bounded queue.
    pub fn queue_full(&self) -> bool {
        self.node.queue_len() >= self.queue_capacity
    }

    /// Service time of one `class` request on this chip, seconds.
    pub fn service_s(&self, class: usize) -> f64 {
        self.spec.service_s[class]
    }

    /// Expected completion delay for a `class` request arriving now:
    /// queueing estimate plus this chip's service time. What the
    /// affinity router ranks by and admission control checks against
    /// the SLO.
    pub fn expected_delay_s(&self, class: usize, now_s: f64) -> f64 {
        self.node.expected_wait_s(now_s) + self.service_s(class)
    }
}

/// Everything a fleet run needs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The chips (design points) composing the fleet, in node order.
    pub chips: Vec<ChipSpec>,
    /// Load-balancing policy.
    pub policy: Policy,
    /// The arrival trace specification.
    pub workload: WorkloadSpec,
    /// End-to-end latency SLO, seconds (attainment is measured against
    /// it; admission control and deadline shedding use it when enabled).
    pub slo_s: f64,
    /// Per-node admission-queue capacity.
    pub queue_capacity: usize,
    /// Per-node dynamic batching policy.
    pub batch: BatchPolicy,
    /// Per-launch setup fraction of a batch's cost, `[0, 1)` (see
    /// [`lv_serving::batch::batch_service_time`]).
    pub batch_setup_frac: f64,
    /// Reject at the router when the picked node's expected delay
    /// already exceeds the SLO (sheds load early instead of queueing
    /// doomed work).
    pub admission_control: bool,
    /// Optional per-node deadline shedding inside the serving node. The
    /// deadline is anchored at a request's *original* arrival, so it is
    /// also the total budget across retried and hedged copies.
    pub deadline_s: Option<f64>,
    /// Refuse to *start* work that would finish past its deadline
    /// (requires `deadline_s`); with it, no completion — first attempt
    /// or retry — can land past `arrival + deadline`.
    pub strict_deadline: bool,
    /// Optional reactive scale-out (and, via
    /// [`AutoscalePolicy::scale_down`], scale-in).
    pub autoscale: Option<AutoscalePolicy>,
    /// Optional deterministic fault injection.
    pub faults: Option<FaultSpec>,
    /// Fault-tolerance policy; [`FaultTolerance::none`] reproduces the
    /// fault-oblivious behavior exactly.
    pub tolerance: FaultTolerance,
}

impl FleetConfig {
    /// A fleet with admission control, autoscaling, batching, faults and
    /// tolerance off, and a 64-deep queue per node.
    pub fn basic(chips: Vec<ChipSpec>, policy: Policy, workload: WorkloadSpec, slo_s: f64) -> Self {
        Self {
            chips,
            policy,
            workload,
            slo_s,
            queue_capacity: 64,
            batch: BatchPolicy::none(),
            batch_setup_frac: 0.0,
            admission_control: false,
            deadline_s: None,
            strict_deadline: false,
            autoscale: None,
            faults: None,
            tolerance: FaultTolerance::none(),
        }
    }

    /// Reject degenerate fleets with a typed error.
    pub fn validate(&self) -> Result<(), FleetError> {
        if self.chips.is_empty() {
            return Err(FleetError::NoChips);
        }
        self.workload.validate()?;
        let classes = self.workload.class_weights.len();
        for chip in &self.chips {
            chip.validate(classes)?;
            self.node_config(chip).validate()?;
        }
        if !self.slo_s.is_finite() || self.slo_s <= 0.0 {
            return Err(FleetError::InvalidSlo(self.slo_s));
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        self.tolerance.validate()?;
        Ok(())
    }

    fn node_config(&self, chip: &ChipSpec) -> NodeConfig {
        NodeConfig {
            deadline_s: self.deadline_s,
            strict_deadline: self.strict_deadline,
            batch: self.batch,
            batch_setup_frac: self.batch_setup_frac,
            ..NodeConfig::basic(chip.replicas, self.queue_capacity)
        }
    }

    /// The per-request latency budget: the node deadline when set, else
    /// the SLO. Retries are never scheduled past `arrival + budget`.
    fn budget_s(&self) -> f64 {
        self.deadline_s.unwrap_or(self.slo_s)
    }
}

/// Final per-request outcomes by reason. Each offered request is counted
/// exactly once — either here or as completed — no matter how many
/// copies were attempted, so `completed + total() == offered`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetDrops {
    /// Bounced off a node's bounded queue (after any retries).
    pub queue_full: u64,
    /// Shed after its deadline passed (after any retries).
    pub deadline: u64,
    /// Rejected at the router by SLO-aware admission control.
    pub admission: u64,
    /// Lost to a node failure: crashed mid-service or mid-queue, or
    /// offered to a down node, with no retry left (or none configured).
    pub failed: u64,
}

impl FleetDrops {
    /// All drops.
    pub fn total(&self) -> u64 {
        self.queue_full + self.deadline + self.admission + self.failed
    }
}

/// Fault-tolerance activity during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Retry dispatches (beyond each request's first attempt).
    pub retries: u64,
    /// Hedge duplicates dispatched.
    pub hedges: u64,
    /// Hedge duplicates that finished after their sibling had already
    /// won (wasted service work).
    pub hedges_wasted: u64,
    /// Copies served with the chip's degraded (cheaper) algorithm.
    pub degraded: u64,
    /// Outlier-detection ejections across the fleet.
    pub ejections: u64,
}

/// One slice of the SLO-attainment time series, bucketed by *arrival*
/// time. `within_slo / offered` per slice shows availability dips around
/// fault windows and how long recovery takes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttainSlice {
    /// Slice start, seconds.
    pub t_s: f64,
    /// Requests that arrived in the slice.
    pub offered: u64,
    /// Of those, completed within the SLO.
    pub within_slo: u64,
}

/// Per-node slice of the fleet report.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// Chip name.
    pub name: String,
    /// Requests this node served to completion (hedged duplicates that
    /// lost the race still count as served work here).
    pub completed: usize,
    /// This node's p99 latency, seconds (0 if it served nothing).
    pub p99_s: f64,
    /// Busy time over peak-replica capacity for the makespan.
    pub utilization: f64,
    /// Most replicas ever active (after autoscaling).
    pub peak_replicas: usize,
    /// Deepest its queue got.
    pub max_queue_depth: usize,
    /// Mean executed batch size (0 if it ran no batch).
    pub mean_batch_size: f64,
    /// Silicon area at peak replicas, mm².
    pub area_mm2: f64,
}

/// What a fleet run produced.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Routing policy name.
    pub policy: String,
    /// Mean offered load, requests/second.
    pub offered_rps: f64,
    /// Requests in the trace.
    pub requests: usize,
    /// Requests served to completion fleet-wide (first completion per
    /// request; wasted hedge duplicates excluded).
    pub completed: usize,
    /// Completions over the makespan, requests/second.
    pub achieved_rps: f64,
    /// Fleet-wide latency summary over per-request end-to-end
    /// latencies, measured from each request's original arrival to its
    /// first completion (so retry/hedge delays are included).
    pub latency: LatencySummary,
    /// The SLO the run was measured against, seconds.
    pub slo_s: f64,
    /// Fraction of *offered* requests completed within the SLO (drops
    /// count against attainment).
    pub slo_attainment: f64,
    /// Fraction of offered requests that eventually completed at any
    /// latency — the run's availability.
    pub availability: f64,
    /// Drops by final per-request outcome.
    pub drops: FleetDrops,
    /// Drops over offered requests.
    pub drop_rate: f64,
    /// Total fleet silicon at peak replica counts, mm².
    pub area_mm2: f64,
    /// Achieved throughput per unit silicon, requests/second/mm².
    pub rps_per_mm2: f64,
    /// Per-node breakdown, in chip order.
    pub nodes: Vec<NodeSummary>,
    /// Autoscaling actions, in time order.
    pub scale_events: Vec<ScaleEvent>,
    /// Fault-tolerance activity.
    pub resilience: ResilienceStats,
    /// SLO attainment over time (by arrival slice), for recovery-time
    /// analysis.
    pub attain_series: Vec<AttainSlice>,
}

/// The lifecycle of one dispatched copy of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyStatus {
    /// Sitting in a node's admission queue.
    Queued,
    /// Dispatched into a batch; a completion event is pending.
    InFlight,
    /// Resolved: served, cancelled, shed, or lost to a crash.
    Gone,
}

/// One copy of a request placed on a node.
#[derive(Debug, Clone, Copy)]
struct CopyRef {
    node: usize,
    status: CopyStatus,
}

/// How a request finally resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Completed { latency_s: f64 },
    Admission,
    QueueFull,
    Deadline,
    Failed,
}

/// Everything the fleet knows about one offered request.
#[derive(Debug)]
struct ReqState {
    class: usize,
    arrival_s: f64,
    attempts: u32,
    hedged: bool,
    copies: Vec<CopyRef>,
    outcome: Option<Outcome>,
}

impl ReqState {
    fn any_copy_live(&self) -> bool {
        self.copies.iter().any(|c| c.status != CopyStatus::Gone)
    }
}

/// A heap event. At equal times, faults apply before completions
/// resolve, completions before retry/hedge timers fire, and timers
/// before new arrivals route — so an arrival always sees the current
/// node state. `seq` breaks remaining ties by insertion order.
#[derive(Debug)]
enum Ev {
    Fault(FaultEvent),
    Completion { id: usize, copy: usize },
    Retry { id: usize },
    Hedge { id: usize },
    Arrival { idx: usize },
}

impl Ev {
    fn rank(&self) -> u8 {
        match self {
            Ev::Fault(_) => 0,
            Ev::Completion { .. } => 1,
            Ev::Retry { .. } => 2,
            Ev::Hedge { .. } => 3,
            Ev::Arrival { .. } => 4,
        }
    }
}

#[derive(Debug)]
struct HeapEv {
    t_s: f64,
    rank: u8,
    seq: u64,
    ev: Ev,
}

impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we pop earliest-first.
        other
            .t_s
            .total_cmp(&self.t_s)
            .then_with(|| other.rank.cmp(&self.rank))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for HeapEv {}

/// A validated, runnable fleet simulation.
#[derive(Debug)]
pub struct FleetSim {
    cfg: FleetConfig,
}

impl FleetSim {
    /// Validate the config and wrap it.
    pub fn new(cfg: FleetConfig) -> Result<Self, FleetError> {
        cfg.validate()?;
        Ok(Self { cfg })
    }

    /// Run without tracing.
    pub fn run(&self) -> FleetReport {
        self.run_traced(&Tracer::disabled(), 0)
    }

    /// Run, emitting trace events to `tracer` under Chrome-trace process
    /// id `pid`, all timestamped in microseconds of simulated time:
    ///
    /// * per dispatched copy of a request, async phases keyed by request
    ///   id: `request` (offer → completion, shed, cancel or crash, with a
    ///   `class` arg) containing `queue` (offer → dispatch), then `batch`
    ///   and `execute` (dispatch → completion); a copy the queue rejects
    ///   never opens a phase;
    /// * per executed batch, a `batch xN` span on the node's track with
    ///   `replica`, `batch_size` and `service_s` args;
    /// * `queue_depth` and `active_replicas` counters per node;
    /// * `drop:*` instants for final outcomes, `retry`/`hedge`/`scale-*`
    ///   instants on the router track, and `fault:*` instants.
    ///
    /// With a disabled tracer this is exactly [`FleetSim::run`].
    pub fn run_traced(&self, tracer: &Tracer, pid: u64) -> FleetReport {
        let c = &self.cfg;
        let arrivals = c.workload.generate().expect("validated at construction");
        let nodes: Vec<FleetNode> = c
            .chips
            .iter()
            .map(|chip| {
                FleetNode::new(chip.clone(), c.node_config(chip)).expect("validated config")
            })
            .collect();
        let n = nodes.len();

        let trace = tracer.is_enabled();
        if trace {
            tracer.name_process(pid, "fleet");
            tracer.name_track(TrackId::new(pid, 0), "router");
            tracer.name_track(TrackId::new(pid, 1), "drops");
            for (i, chip) in c.chips.iter().enumerate() {
                tracer
                    .name_track(TrackId::new(pid, 2 + i as u64), &format!("node{i} {}", chip.name));
            }
            tracer.name_track(TrackId::new(pid, 2 + n as u64), "faults");
        }

        let mut run = Run {
            cfg: c,
            tracer,
            trace,
            pid,
            router: Router::new(c.policy, c.workload.seed ^ ROUTER_SEED_SALT),
            autoscaler: c.autoscale.map(|p| Autoscaler::new(p, n)),
            health: c.tolerance.health.map(|p| HealthTracker::new(p, n)),
            down_depth: vec![0; n],
            nodes,
            reqs: Vec::with_capacity(arrivals.len()),
            arrivals,
            heap: BinaryHeap::new(),
            seq: 0,
            scale_events: Vec::new(),
            resilience: ResilienceStats::default(),
            samples: Vec::new(),
            sorted: Vec::new(),
            last_arrival: 0.0,
        };

        if let Some(spec) = &c.faults {
            for fe in spec.plan(n).events {
                run.push(fe.at_s, Ev::Fault(fe));
            }
        }
        for idx in 0..run.arrivals.len() {
            let t = run.arrivals[idx].t_s;
            run.push(t, Ev::Arrival { idx });
        }

        run.drive();
        run.report()
    }
}

/// All mutable state of one fleet run.
struct Run<'a> {
    cfg: &'a FleetConfig,
    tracer: &'a Tracer,
    trace: bool,
    pid: u64,
    nodes: Vec<FleetNode>,
    router: Router,
    autoscaler: Option<Autoscaler>,
    health: Option<HealthTracker>,
    /// Overlapping Down reasons per node (a rack outage can overlap an
    /// independent crash); the node restarts when the depth returns to 0.
    down_depth: Vec<u32>,
    reqs: Vec<ReqState>,
    arrivals: Vec<Arrival>,
    heap: BinaryHeap<HeapEv>,
    seq: u64,
    scale_events: Vec<ScaleEvent>,
    resilience: ResilienceStats,
    /// Completed per-request latencies, in completion order (feeds the
    /// hedge-delay quantile).
    samples: Vec<f64>,
    /// Lazily re-sorted copy of `samples` for quantile lookups.
    sorted: Vec<f64>,
    last_arrival: f64,
}

impl Run<'_> {
    fn push(&mut self, t_s: f64, ev: Ev) {
        self.seq += 1;
        self.heap.push(HeapEv { t_s, rank: ev.rank(), seq: self.seq, ev });
    }

    fn drops_track(&self) -> TrackId {
        TrackId::new(self.pid, 1)
    }

    fn router_track(&self) -> TrackId {
        TrackId::new(self.pid, 0)
    }

    fn node_track(&self, i: usize) -> TrackId {
        TrackId::new(self.pid, 2 + i as u64)
    }

    fn faults_track(&self) -> TrackId {
        TrackId::new(self.pid, 2 + self.nodes.len() as u64)
    }

    /// Close the trace phases of one copy of request `id` that was `was`
    /// until `t`: a queued copy leaves the `queue`, an in-flight one ends
    /// `execute` and `batch`; either way its `request` phase ends.
    fn end_copy_phases(&self, id: usize, was: CopyStatus, t: f64) {
        if !self.trace {
            return;
        }
        let (id, t_us) = (id as u64, t * 1e6);
        match was {
            CopyStatus::Queued => self.tracer.async_end(self.pid, id, "queue", t_us),
            CopyStatus::InFlight => {
                self.tracer.async_end(self.pid, id, "execute", t_us);
                self.tracer.async_end(self.pid, id, "batch", t_us);
            }
            CopyStatus::Gone => return,
        }
        self.tracer.async_end(self.pid, id, "request", t_us);
    }

    /// The main loop: process heap events in time order, advancing every
    /// node to each event's time first so batch dispatches (and the
    /// completions they schedule) interleave correctly; when the heap is
    /// empty, drain the nodes — draining can schedule more events
    /// (completions, retries), so repeat until both are exhausted.
    fn drive(&mut self) {
        loop {
            while let Some(t) = self.heap.peek().map(|e| e.t_s) {
                self.advance_all(t);
                // Advancing may have pushed earlier events (a completion
                // inside the window); pop the true earliest.
                let ev = self.heap.pop().expect("peeked above");
                self.handle(ev);
            }
            let mut evs = Vec::new();
            for i in 0..self.nodes.len() {
                for e in self.nodes[i].node.drain() {
                    evs.push((i, e));
                }
            }
            if evs.is_empty() && self.heap.is_empty() {
                break;
            }
            self.process_node_events(evs);
        }
    }

    fn advance_all(&mut self, t_s: f64) {
        let mut evs = Vec::new();
        for i in 0..self.nodes.len() {
            let es = self.nodes[i].node.advance(t_s);
            evs.extend(es.into_iter().map(|e| (i, e)));
        }
        if !evs.is_empty() {
            self.process_node_events(evs);
        }
    }

    /// Apply a window of node events (batch dispatches and deadline
    /// sheds) to the per-request bookkeeping, merged across nodes in
    /// time order so cross-node hedge cancellation is deterministic.
    fn process_node_events(&mut self, mut evs: Vec<(usize, NodeEvent)>) {
        fn at(e: &NodeEvent) -> f64 {
            match e {
                NodeEvent::Shed { at_s, .. } | NodeEvent::Batch { at_s, .. } => *at_s,
            }
        }
        evs.sort_by(|a, b| at(&a.1).total_cmp(&at(&b.1)).then(a.0.cmp(&b.0)));
        for (i, ev) in evs {
            match ev {
                NodeEvent::Shed { at_s, shed, queue_len_after } => {
                    if self.trace {
                        self.tracer.counter(
                            self.node_track(i),
                            "queue_depth",
                            at_s * 1e6,
                            queue_len_after as f64,
                        );
                    }
                    for r in shed {
                        let id = r.id as usize;
                        if let Some(c) = self.reqs[id]
                            .copies
                            .iter_mut()
                            .find(|c| c.node == i && c.status == CopyStatus::Queued)
                        {
                            c.status = CopyStatus::Gone;
                            self.end_copy_phases(id, CopyStatus::Queued, at_s);
                        }
                        if let Some(h) = self.health.as_mut() {
                            h.on_failure(i, at_s);
                        }
                        self.consider_recovery(id, at_s, Outcome::Deadline);
                    }
                }
                NodeEvent::Batch {
                    replica,
                    at_s,
                    done_s,
                    service_s,
                    requests,
                    queue_len_after,
                } => {
                    if self.trace {
                        let span = self.tracer.begin_args(
                            self.node_track(i),
                            &format!("batch x{}", requests.len()),
                            at_s * 1e6,
                            vec![
                                ("replica".into(), (replica as u64).into()),
                                ("batch_size".into(), requests.len().into()),
                                ("service_s".into(), service_s.into()),
                            ],
                        );
                        self.tracer.end(span, done_s * 1e6);
                        self.tracer.counter(
                            self.node_track(i),
                            "queue_depth",
                            at_s * 1e6,
                            queue_len_after as f64,
                        );
                    }
                    for r in &requests {
                        let id = r.id as usize;
                        let Some(ci) = self.reqs[id]
                            .copies
                            .iter()
                            .position(|c| c.node == i && c.status == CopyStatus::Queued)
                        else {
                            continue;
                        };
                        self.reqs[id].copies[ci].status = CopyStatus::InFlight;
                        self.push(done_s, Ev::Completion { id, copy: ci });
                        if self.trace {
                            let t_us = at_s * 1e6;
                            self.tracer.async_end(self.pid, r.id, "queue", t_us);
                            self.tracer.async_begin(
                                self.pid,
                                r.id,
                                "batch",
                                t_us,
                                vec![("replica".into(), replica.into())],
                            );
                            self.tracer.async_begin(self.pid, r.id, "execute", t_us, vec![]);
                        }
                        // First dispatch wins among queued copies: cancel
                        // still-queued siblings. A sibling that already
                        // dispatched races to completion instead.
                        for cj in 0..self.reqs[id].copies.len() {
                            if cj == ci || self.reqs[id].copies[cj].status != CopyStatus::Queued {
                                continue;
                            }
                            let nj = self.reqs[id].copies[cj].node;
                            if nj != i && self.nodes[nj].node.cancel(r.id) {
                                self.reqs[id].copies[cj].status = CopyStatus::Gone;
                                self.end_copy_phases(id, CopyStatus::Queued, at_s);
                            }
                        }
                    }
                }
            }
        }
    }

    fn handle(&mut self, ev: HeapEv) {
        let t = ev.t_s;
        match ev.ev {
            Ev::Arrival { idx } => self.on_arrival(idx, t),
            Ev::Fault(f) => self.on_fault(f),
            Ev::Completion { id, copy } => self.on_completion(id, copy, t),
            Ev::Retry { id } => self.on_retry(id, t),
            Ev::Hedge { id } => self.on_hedge(id, t),
        }
    }

    fn on_arrival(&mut self, idx: usize, t: f64) {
        let arr = self.arrivals[idx];
        self.last_arrival = t;
        self.observe_autoscaler(t);
        let id = arr.id as usize;
        debug_assert_eq!(id, self.reqs.len(), "arrival ids are sequential");
        self.reqs.push(ReqState {
            class: arr.class,
            arrival_s: t,
            attempts: 1,
            hedged: false,
            copies: Vec::new(),
            outcome: None,
        });
        self.dispatch_copy(id, t, false);
    }

    fn observe_autoscaler(&mut self, t: f64) {
        let Some(asc) = self.autoscaler.as_mut() else { return };
        for (i, fnode) in self.nodes.iter_mut().enumerate() {
            if !fnode.node.is_up() {
                continue; // a crashed node has no queue to observe
            }
            let active = fnode.node.active_replicas();
            if let Some(to) = asc.observe(i, fnode.node.queue_len(), active, t) {
                fnode.node.scale_to(to, t);
                self.scale_events.push(ScaleEvent { node: i, at_s: t, from: active, to });
                if self.trace {
                    let t_us = t * 1e6;
                    let name = if to > active { "scale-up" } else { "scale-down" };
                    self.tracer.instant(
                        TrackId::new(self.pid, 0),
                        name,
                        t_us,
                        vec![("node".into(), i.into()), ("to".into(), to.into())],
                    );
                    self.tracer.counter(
                        TrackId::new(self.pid, 2 + i as u64),
                        "active_replicas",
                        t_us,
                        to as f64,
                    );
                }
            }
        }
    }

    /// The node indices routing may consider at `t`. Health-aware mode
    /// excludes down and ejected nodes (falling back to up-only, then to
    /// everything, rather than dropping on the floor); the oblivious
    /// baseline considers every node — including down ones, which
    /// models clients blackholing into a dead backend.
    fn eligible(&self, t: f64) -> Vec<usize> {
        let n = self.nodes.len();
        if let Some(h) = self.health.as_ref() {
            let healthy: Vec<usize> =
                (0..n).filter(|&i| self.nodes[i].node.is_up() && !h.is_ejected(i, t)).collect();
            if !healthy.is_empty() {
                return healthy;
            }
            let up: Vec<usize> = (0..n).filter(|&i| self.nodes[i].node.is_up()).collect();
            if !up.is_empty() {
                return up;
            }
        }
        (0..n).collect()
    }

    /// Route and offer one copy of request `id` at `t`; returns whether
    /// a copy landed in a queue. Failed non-hedge dispatches flow into
    /// retry consideration; failed hedges are simply dropped (the
    /// original copy is still in play).
    fn dispatch_copy(&mut self, id: usize, t: f64, is_hedge: bool) -> bool {
        let class = self.reqs[id].class;
        let mut eligible = self.eligible(t);
        if is_hedge {
            let copies = &self.reqs[id].copies;
            eligible
                .retain(|&i| !copies.iter().any(|c| c.node == i && c.status != CopyStatus::Gone));
            if eligible.is_empty() {
                return false;
            }
        }
        let pick = self.router.pick(&self.nodes, &eligible, class, t);
        let wait = self.nodes[pick].node.expected_wait_s(t);
        let mut cost = self.nodes[pick].service_s(class);
        let mut degraded = false;
        if let Some(d) = self.cfg.tolerance.degrade {
            if let Some(cheap) = self.nodes[pick].spec().degraded_s(class) {
                if wait + cost > d.delay_frac * self.cfg.slo_s {
                    cost = cheap;
                    degraded = true;
                }
            }
        }
        if self.cfg.admission_control && wait + cost > self.cfg.slo_s {
            if !is_hedge {
                self.finalize(id, t, Outcome::Admission);
            }
            return false;
        }
        let req = QueuedRequest {
            id: id as u64,
            arrival_s: self.reqs[id].arrival_s,
            class,
            unit_cost_s: cost,
        };
        if self.nodes[pick].node.offer(req) {
            if degraded {
                self.resilience.degraded += 1;
            }
            self.reqs[id].copies.push(CopyRef { node: pick, status: CopyStatus::Queued });
            if self.trace {
                let t_us = t * 1e6;
                self.tracer.async_begin(
                    self.pid,
                    id as u64,
                    "request",
                    t_us,
                    vec![("class".into(), class.into())],
                );
                self.tracer.async_begin(self.pid, id as u64, "queue", t_us, vec![]);
                self.tracer.counter(
                    self.node_track(pick),
                    "queue_depth",
                    t_us,
                    self.nodes[pick].queue_len() as f64,
                );
            }
            if !is_hedge
                && !self.reqs[id].hedged
                && self.reqs[id].attempts == 1
                && self.cfg.tolerance.hedge.is_some()
            {
                let delay = self.hedge_delay();
                self.push(t + delay, Ev::Hedge { id });
            }
            true
        } else {
            let failed = !self.nodes[pick].node.is_up();
            if let Some(h) = self.health.as_mut() {
                h.on_failure(pick, t);
            }
            if !is_hedge {
                let why = if failed { Outcome::Failed } else { Outcome::QueueFull };
                self.consider_recovery(id, t, why);
            }
            false
        }
    }

    /// Delay before hedging: the observed completion-latency quantile
    /// once enough samples exist, floored at the policy minimum.
    fn hedge_delay(&mut self) -> f64 {
        let h = self.cfg.tolerance.hedge.expect("caller checked");
        if self.samples.len() < h.min_samples.max(1) {
            return h.min_delay_s;
        }
        // The quantile drifts slowly; refreshing the sort every 64
        // completions keeps scheduling cheap and stays deterministic.
        if self.sorted.is_empty() || self.samples.len() >= self.sorted.len() + 64 {
            self.sorted = self.samples.clone();
            self.sorted.sort_by(|a, b| a.total_cmp(b));
        }
        percentile(&self.sorted, h.quantile).max(h.min_delay_s)
    }

    /// A copy of `id` just failed for `why` at `t`. If a sibling copy is
    /// still in play, do nothing — it may yet win. Otherwise schedule a
    /// deadline-budgeted retry, or finalize the loss.
    fn consider_recovery(&mut self, id: usize, t: f64, why: Outcome) {
        let st = &self.reqs[id];
        if st.outcome.is_some() || st.any_copy_live() {
            return;
        }
        if let Some(r) = self.cfg.tolerance.retry {
            if st.attempts < r.max_attempts {
                let backoff = r.backoff_s * 2f64.powi((st.attempts as i32 - 1).min(30));
                let at = t + backoff;
                if at <= st.arrival_s + self.cfg.budget_s() {
                    self.push(at, Ev::Retry { id });
                    return;
                }
            }
        }
        self.finalize(id, t, why);
    }

    fn finalize(&mut self, id: usize, t: f64, outcome: Outcome) {
        debug_assert!(self.reqs[id].outcome.is_none(), "request resolved twice");
        if let Outcome::Completed { latency_s } = outcome {
            self.samples.push(latency_s);
        } else if self.trace {
            let name = match outcome {
                Outcome::Admission => "drop:admission",
                Outcome::QueueFull => "drop:queue_full",
                Outcome::Deadline => "drop:deadline",
                Outcome::Failed => "drop:failed",
                Outcome::Completed { .. } => unreachable!("handled above"),
            };
            self.tracer.instant(self.drops_track(), name, t * 1e6, vec![("id".into(), id.into())]);
        }
        self.reqs[id].outcome = Some(outcome);
    }

    fn on_completion(&mut self, id: usize, copy: usize, t: f64) {
        let node = {
            let c = &mut self.reqs[id].copies[copy];
            if c.status != CopyStatus::InFlight {
                return; // crash-revoked before finishing
            }
            c.status = CopyStatus::Gone;
            c.node
        };
        self.end_copy_phases(id, CopyStatus::InFlight, t);
        if self.reqs[id].outcome.is_none() {
            let latency_s = t - self.reqs[id].arrival_s;
            self.finalize(id, t, Outcome::Completed { latency_s });
            if let Some(h) = self.health.as_mut() {
                h.on_success(node);
            }
        } else {
            // A hedged sibling already won; this copy's work is wasted.
            self.resilience.hedges_wasted += 1;
        }
    }

    fn on_retry(&mut self, id: usize, t: f64) {
        let st = &self.reqs[id];
        if st.outcome.is_some() || st.any_copy_live() {
            return;
        }
        self.reqs[id].attempts += 1;
        self.resilience.retries += 1;
        if self.trace {
            self.tracer.instant(
                self.router_track(),
                "retry",
                t * 1e6,
                vec![("id".into(), id.into())],
            );
        }
        self.dispatch_copy(id, t, false);
    }

    fn on_hedge(&mut self, id: usize, t: f64) {
        let st = &self.reqs[id];
        // Only hedge a request whose original copy is still pending;
        // resolved requests need nothing and failed ones are retry's job.
        if st.outcome.is_some() || st.hedged || !st.any_copy_live() {
            return;
        }
        self.reqs[id].hedged = true;
        if self.dispatch_copy(id, t, true) {
            self.resilience.hedges += 1;
            if self.trace {
                self.tracer.instant(
                    self.router_track(),
                    "hedge",
                    t * 1e6,
                    vec![("id".into(), id.into())],
                );
            }
        }
    }

    fn on_fault(&mut self, f: FaultEvent) {
        let (i, t) = (f.node, f.at_s);
        let fault_instant = |run: &Self, name: &str, extra: Option<f64>| {
            if run.trace {
                let mut args: Vec<(String, lv_trace::ArgValue)> = vec![("node".into(), i.into())];
                if let Some(v) = extra {
                    args.push(("factor".into(), v.into()));
                }
                run.tracer.instant(run.faults_track(), name, t * 1e6, args);
            }
        };
        match f.action {
            FaultAction::Down => {
                self.down_depth[i] += 1;
                if self.down_depth[i] > 1 {
                    return; // already down: a rack outage overlapping a crash
                }
                fault_instant(self, "fault:down", None);
                let lost = self.nodes[i].node.crash(t);
                for r in lost {
                    let id = r.id as usize;
                    if let Some(c) = self.reqs[id]
                        .copies
                        .iter_mut()
                        .find(|c| c.node == i && c.status != CopyStatus::Gone)
                    {
                        let was = c.status;
                        c.status = CopyStatus::Gone;
                        self.end_copy_phases(id, was, t);
                    }
                    if let Some(h) = self.health.as_mut() {
                        h.on_failure(i, t);
                    }
                    self.consider_recovery(id, t, Outcome::Failed);
                }
            }
            FaultAction::Up => {
                self.down_depth[i] = self.down_depth[i].saturating_sub(1);
                if self.down_depth[i] == 0 {
                    self.nodes[i].node.restart(t);
                    fault_instant(self, "fault:up", None);
                }
            }
            FaultAction::SlowStart(m) => {
                self.nodes[i].node.set_slowdown(m);
                fault_instant(self, "fault:slow-start", Some(m));
            }
            FaultAction::SlowEnd => {
                self.nodes[i].node.set_slowdown(1.0);
                fault_instant(self, "fault:slow-end", None);
            }
        }
    }

    fn report(self) -> FleetReport {
        let c = self.cfg;
        let requests = c.workload.requests;
        let makespan = self
            .nodes
            .iter()
            .map(|n| n.node.last_completion_s())
            .fold(self.last_arrival, f64::max)
            .max(f64::EPSILON);

        // Fleet latency is per-request — original arrival to first
        // completion — so it accounts retries/hedges and excludes wasted
        // duplicate completions (which node histograms still contain).
        let mut fleet_hist = LatencyHistogram::new();
        let mut drops = FleetDrops::default();
        let mut within_slo = 0usize;
        let horizon = self.last_arrival.max(f64::EPSILON);
        let mut series: Vec<AttainSlice> = (0..ATTAIN_SLICES)
            .map(|k| AttainSlice {
                t_s: horizon * k as f64 / ATTAIN_SLICES as f64,
                offered: 0,
                within_slo: 0,
            })
            .collect();
        for st in &self.reqs {
            let k =
                ((st.arrival_s / horizon * ATTAIN_SLICES as f64) as usize).min(ATTAIN_SLICES - 1);
            series[k].offered += 1;
            match st.outcome {
                Some(Outcome::Completed { latency_s }) => {
                    fleet_hist.record(latency_s);
                    if latency_s <= c.slo_s {
                        within_slo += 1;
                        series[k].within_slo += 1;
                    }
                }
                Some(Outcome::Admission) => drops.admission += 1,
                Some(Outcome::QueueFull) => drops.queue_full += 1,
                Some(Outcome::Deadline) => drops.deadline += 1,
                Some(Outcome::Failed) | None => {
                    debug_assert!(st.outcome.is_some(), "every offered request must resolve");
                    drops.failed += 1;
                }
            }
        }

        let mut area_mm2 = 0.0;
        let mut summaries = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let node_hist = n.node.merged_latency();
            let area = n.spec.area_mm2(n.node.peak_replicas());
            area_mm2 += area;
            let (batches, batched) = n.node.batch_counts();
            summaries.push(NodeSummary {
                name: n.spec.name.clone(),
                completed: node_hist.len(),
                p99_s: if node_hist.is_empty() { 0.0 } else { node_hist.summary().p99_s },
                utilization: n.node.busy_s() / (n.node.peak_replicas() as f64 * makespan),
                peak_replicas: n.node.peak_replicas(),
                max_queue_depth: n.node.max_queue_depth(),
                mean_batch_size: if batches > 0 { batched as f64 / batches as f64 } else { 0.0 },
                area_mm2: area,
            });
        }

        let completed = fleet_hist.len();
        let achieved_rps = completed as f64 / makespan;
        let resilience = ResilienceStats {
            ejections: self.health.as_ref().map_or(0, |h| h.total_ejections()),
            ..self.resilience
        };
        FleetReport {
            policy: c.policy.name().to_string(),
            offered_rps: c.workload.rate_rps,
            requests,
            completed,
            achieved_rps,
            latency: if fleet_hist.is_empty() {
                LatencySummary::default()
            } else {
                fleet_hist.summary()
            },
            slo_s: c.slo_s,
            slo_attainment: within_slo as f64 / requests as f64,
            availability: completed as f64 / requests as f64,
            drops,
            drop_rate: drops.total() as f64 / requests as f64,
            area_mm2,
            rps_per_mm2: achieved_rps / area_mm2,
            nodes: summaries,
            scale_events: self.scale_events,
            resilience,
            attain_series: series,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::ScaleDown;
    use crate::engine::chip;
    use crate::fault::{FaultScenario, ALL_SCENARIOS};
    use crate::router::ALL_POLICIES;
    use crate::tolerance::{DegradePolicy, HedgePolicy, RetryPolicy};

    fn small_fleet() -> Vec<ChipSpec> {
        vec![
            chip("small", 1024, 2, &[0.080, 0.040]),
            chip("knee", 2048, 2, &[0.040, 0.020]),
            chip("big", 4096, 2, &[0.025, 0.012]),
        ]
    }

    fn workload(rate: f64, requests: usize) -> WorkloadSpec {
        WorkloadSpec::basic(rate, requests, 2, 42)
    }

    #[test]
    fn rejects_degenerate_fleets() {
        let wl = workload(50.0, 100);
        assert!(matches!(
            FleetSim::new(FleetConfig::basic(vec![], Policy::RoundRobin, wl.clone(), 0.5)),
            Err(FleetError::NoChips)
        ));
        assert!(matches!(
            FleetSim::new(FleetConfig::basic(small_fleet(), Policy::RoundRobin, wl.clone(), 0.0)),
            Err(FleetError::InvalidSlo(_))
        ));
        let mut chips = small_fleet();
        chips[1].service_s.pop();
        assert!(matches!(
            FleetSim::new(FleetConfig::basic(chips, Policy::RoundRobin, wl.clone(), 0.5)),
            Err(FleetError::ClassMismatch { .. })
        ));
        // Strict deadlines require a deadline; degenerate fault/tolerance
        // knobs are caught at fleet validation too.
        let strict = FleetConfig {
            strict_deadline: true,
            ..FleetConfig::basic(small_fleet(), Policy::RoundRobin, wl.clone(), 0.5)
        };
        assert!(FleetSim::new(strict).is_err());
        let bad_faults = FleetConfig {
            faults: Some(FaultSpec {
                straggler_slowdown: 0.5,
                ..FaultSpec::scenario(FaultScenario::All, 1, 10.0)
            }),
            ..FleetConfig::basic(small_fleet(), Policy::RoundRobin, wl.clone(), 0.5)
        };
        assert!(matches!(FleetSim::new(bad_faults), Err(FleetError::InvalidFaults(_))));
        let bad_tol = FleetConfig {
            tolerance: FaultTolerance {
                retry: Some(RetryPolicy { max_attempts: 0, backoff_s: 0.01 }),
                ..FaultTolerance::none()
            },
            ..FleetConfig::basic(small_fleet(), Policy::RoundRobin, wl, 0.5)
        };
        assert!(matches!(FleetSim::new(bad_tol), Err(FleetError::InvalidTolerance(_))));
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = FleetConfig {
            autoscale: Some(AutoscalePolicy {
                breach_depth: 8,
                sustain_s: 0.5,
                max_replicas: 4,
                cooldown_s: 1.0,
                scale_down: None,
            }),
            admission_control: true,
            ..FleetConfig::basic(
                small_fleet(),
                Policy::PowerOfTwoChoices,
                workload(250.0, 4000),
                0.25,
            )
        };
        let a = FleetSim::new(cfg.clone()).unwrap().run();
        let b = FleetSim::new(cfg.clone()).unwrap().run();
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed must replay exactly");
        let reseeded = FleetConfig { workload: WorkloadSpec { seed: 43, ..cfg.workload }, ..cfg };
        let c = FleetSim::new(reseeded).unwrap().run();
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "a new seed must draw new arrivals");
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let cfg = FleetConfig {
            faults: Some(FaultSpec::scenario(FaultScenario::All, 11, 20.0)),
            tolerance: FaultTolerance {
                hedge: Some(HedgePolicy { min_delay_s: 0.05, quantile: 0.99, min_samples: 50 }),
                ..FaultTolerance::recovering()
            },
            admission_control: true,
            ..FleetConfig::basic(
                small_fleet(),
                Policy::PowerOfTwoChoices,
                workload(200.0, 4000),
                0.25,
            )
        };
        let a = FleetSim::new(cfg.clone()).unwrap().run();
        let b = FleetSim::new(cfg).unwrap().run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.resilience, b.resilience);
        assert_eq!(a.latency.p99_s, b.latency.p99_s);
        assert_eq!(a.attain_series, b.attain_series);
    }

    #[test]
    fn all_policies_serve_a_light_load_without_drops() {
        for policy in ALL_POLICIES {
            let sim =
                FleetSim::new(FleetConfig::basic(small_fleet(), policy, workload(30.0, 2000), 0.5))
                    .unwrap();
            let r = sim.run();
            assert_eq!(r.completed, 2000, "{} dropped requests", policy.name());
            assert_eq!(r.drops.total(), 0);
            assert!(r.slo_attainment > 0.99, "{}: {}", policy.name(), r.slo_attainment);
            assert!((r.availability - 1.0).abs() < 1e-12);
            assert!(r.area_mm2 > 0.0 && r.rps_per_mm2 > 0.0);
        }
    }

    #[test]
    fn affinity_beats_round_robin_on_a_skewed_fleet() {
        // Class 0 runs 8x slower on the small chip than the big one; the
        // affinity router keeps class 0 off the small chip while
        // round-robin blindly spreads it.
        let chips =
            vec![chip("small", 1024, 2, &[0.200, 0.020]), chip("big", 4096, 2, &[0.025, 0.010])];
        let wl = workload(60.0, 4000);
        let run = |policy| {
            FleetSim::new(FleetConfig::basic(chips.clone(), policy, wl.clone(), 0.4)).unwrap().run()
        };
        let rr = run(Policy::RoundRobin);
        let aff = run(Policy::ModelAffinity);
        assert!(
            aff.latency.p99_s < rr.latency.p99_s,
            "affinity p99 {} >= rr p99 {}",
            aff.latency.p99_s,
            rr.latency.p99_s
        );
        assert!(aff.slo_attainment >= rr.slo_attainment);
    }

    #[test]
    fn admission_control_sheds_early_and_cuts_tail_latency() {
        // 2x overload on one small node: without admission the bounded
        // queue stays saturated and every served request eats the full
        // queueing delay; with it, doomed requests bounce at the router.
        let chips = vec![chip("small", 1024, 1, &[0.050, 0.050])];
        let wl = workload(40.0, 3000);
        let base = FleetConfig::basic(chips, Policy::JoinShortestQueue, wl, 0.3);
        let open = FleetSim::new(base.clone()).unwrap().run();
        let gated = FleetSim::new(FleetConfig { admission_control: true, ..base }).unwrap().run();
        assert!(gated.drops.admission > 0);
        assert!(
            gated.latency.p99_s < open.latency.p99_s,
            "admission p99 {} >= open p99 {}",
            gated.latency.p99_s,
            open.latency.p99_s
        );
        // Early shedding converts queue-full drops into admission drops.
        assert!(gated.drops.queue_full < open.drops.queue_full);
    }

    #[test]
    fn autoscaler_adds_replicas_and_improves_attainment() {
        let chips = vec![chip("knee", 2048, 1, &[0.040, 0.020])];
        let wl = workload(60.0, 3000); // ~2x one replica's capacity
        let base = FleetConfig::basic(chips, Policy::JoinShortestQueue, wl, 0.3);
        let fixed = FleetSim::new(base.clone()).unwrap().run();
        let scaled = FleetSim::new(FleetConfig {
            autoscale: Some(AutoscalePolicy {
                breach_depth: 4,
                sustain_s: 0.2,
                max_replicas: 4,
                cooldown_s: 0.5,
                scale_down: None,
            }),
            ..base
        })
        .unwrap()
        .run();
        assert!(!scaled.scale_events.is_empty());
        assert!(scaled.nodes[0].peak_replicas > 1);
        assert!(scaled.slo_attainment > fixed.slo_attainment);
        // Peak silicon is billed: the scaled fleet is bigger.
        assert!(scaled.area_mm2 > fixed.area_mm2);
    }

    #[test]
    fn autoscaler_retires_idle_replicas() {
        let chips = vec![chip("knee", 2048, 4, &[0.020, 0.010])];
        let wl = workload(10.0, 300); // far below 4 replicas' capacity
        let cfg = FleetConfig {
            autoscale: Some(AutoscalePolicy {
                breach_depth: 1000,
                sustain_s: 1.0,
                max_replicas: 4,
                cooldown_s: 1.0,
                scale_down: Some(ScaleDown { idle_depth: 0, sustain_s: 0.5, min_replicas: 1 }),
            }),
            ..FleetConfig::basic(chips, Policy::JoinShortestQueue, wl, 0.5)
        };
        let r = FleetSim::new(cfg).unwrap().run();
        assert!(r.scale_events.iter().all(|e| e.to < e.from), "only scale-downs expected");
        assert_eq!(r.scale_events.last().unwrap().to, 1, "retires down to the floor");
        assert_eq!(r.completed, 300, "scale-down must not lose requests");
        assert_eq!(r.nodes[0].peak_replicas, 4, "peak silicon is still billed");
    }

    /// Tracing never perturbs a run, and the request lifecycle it emits
    /// accounts for every copy on a three-node fleet with admission
    /// control.
    #[test]
    fn traced_run_matches_untraced_and_emits_fleet_events() {
        use lv_trace::PointEvent;
        let cfg = FleetConfig {
            admission_control: true,
            ..FleetConfig::basic(small_fleet(), Policy::ModelAffinity, workload(250.0, 2000), 0.2)
        };
        let plain = FleetSim::new(cfg.clone()).unwrap().run();
        let tracer = Tracer::enabled();
        let traced = FleetSim::new(cfg).unwrap().run_traced(&tracer, 3);
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"), "tracing must not perturb");
        assert_eq!(plain.completed as u64 + plain.drops.total(), plain.requests as u64);
        assert!(plain.drops.admission > 0, "config must exercise admission");

        // Every opened phase closes; drop instants match the report.
        let mut begins = std::collections::HashMap::<(u64, String), u64>::new();
        let mut ends = begins.clone();
        let mut drops = std::collections::HashMap::<String, u64>::new();
        for p in tracer.snapshot_points() {
            match p {
                PointEvent::AsyncBegin { id, name, .. } => {
                    *begins.entry((id, name)).or_default() += 1;
                }
                PointEvent::AsyncEnd { id, name, .. } => {
                    *ends.entry((id, name)).or_default() += 1;
                }
                PointEvent::Instant { name, .. } if name.starts_with("drop:") => {
                    *drops.entry(name).or_default() += 1;
                }
                PointEvent::Counter { .. } | PointEvent::Instant { .. } => {}
            }
        }
        assert_eq!(begins, ends, "every async phase must be closed");
        let count = |n: &str| drops.get(n).copied().unwrap_or(0);
        assert_eq!(count("drop:queue_full"), plain.drops.queue_full);
        assert_eq!(count("drop:deadline"), plain.drops.deadline);
        assert_eq!(count("drop:admission"), plain.drops.admission);
        let opened = |phase: &str| -> u64 {
            begins.iter().filter(|((_, n), _)| n == phase).map(|(_, c)| c).sum()
        };
        assert_eq!(opened("request"), plain.completed as u64 + plain.drops.deadline);
        assert_eq!(opened("execute"), plain.completed as u64);

        // Batch spans on node tracks account for every completion.
        let spans = tracer.snapshot_spans();
        let batched: f64 = spans
            .iter()
            .filter(|s| s.name.starts_with("batch x"))
            .map(|s| s.arg("batch_size").and_then(|v| v.as_f64()).expect("batch_size arg"))
            .sum();
        assert_eq!(batched as usize, plain.completed);
        assert!(tracer
            .snapshot_points()
            .iter()
            .any(|p| matches!(p, PointEvent::Counter { name, .. } if name == "queue_depth")));
    }

    #[test]
    fn fault_instants_appear_in_traces() {
        let cfg = FleetConfig {
            faults: Some(FaultSpec::scenario(FaultScenario::All, 5, 20.0)),
            ..FleetConfig::basic(small_fleet(), Policy::RoundRobin, workload(100.0, 2000), 0.3)
        };
        let tracer = Tracer::enabled();
        FleetSim::new(cfg).unwrap().run_traced(&tracer, 0);
        let points = tracer.snapshot_points();
        for name in ["fault:down", "fault:up", "fault:slow-start", "fault:slow-end"] {
            assert!(
                points.iter().any(|p| matches!(
                    p,
                    lv_trace::PointEvent::Instant { name: n, .. } if n == name
                )),
                "{name} instant expected"
            );
        }
    }

    /// The acceptance check: under crash faults, health-aware routing
    /// plus deadline-budgeted retries holds SLO attainment at least 20
    /// points above the fault-oblivious baseline on the identical trace
    /// and fault schedule.
    #[test]
    fn health_aware_retries_beat_oblivious_under_crash() {
        let chips = vec![
            chip("knee0", 2048, 2, &[0.040, 0.020]),
            chip("knee1", 2048, 2, &[0.040, 0.020]),
            chip("knee2", 2048, 2, &[0.040, 0.020]),
            chip("knee3", 2048, 2, &[0.040, 0.020]),
        ];
        // ~50s trace at ~23% fleet load: headroom, so the gap below is
        // about blackholing into dead nodes, not congestion.
        let wl = workload(60.0, 3000);
        let faults = FaultSpec {
            crash_repair_s: 12.5, // each node spends ~1/3 of the run down
            ..FaultSpec::scenario(FaultScenario::Crash, 9, 50.0)
        };
        let base = FleetConfig {
            faults: Some(faults),
            ..FleetConfig::basic(chips, Policy::RoundRobin, wl, 0.5)
        };
        let oblivious = FleetSim::new(base.clone()).unwrap().run();
        let tolerant =
            FleetSim::new(FleetConfig { tolerance: FaultTolerance::recovering(), ..base })
                .unwrap()
                .run();
        assert!(
            oblivious.drops.failed > 0,
            "the oblivious baseline must be blackholing into down nodes"
        );
        assert!(tolerant.resilience.retries > 0 && tolerant.resilience.ejections > 0);
        let gap = tolerant.slo_attainment - oblivious.slo_attainment;
        assert!(
            gap >= 0.20,
            "health-aware + retries gains {gap:.3} (tolerant {:.3} vs oblivious {:.3})",
            tolerant.slo_attainment,
            oblivious.slo_attainment
        );
        assert!(tolerant.availability > oblivious.availability);
    }

    /// Request conservation: every offered request resolves exactly once
    /// — completed or dropped with a reason — under every fault scenario,
    /// with and without the full tolerance stack.
    #[test]
    fn every_fault_scenario_conserves_requests() {
        let mut chips = small_fleet();
        for c in &mut chips {
            c.degraded_service_s = Some(c.service_s.iter().map(|s| s / 2.0).collect());
        }
        let batchings = [(BatchPolicy::none(), 0.0), (BatchPolicy::new(4, 0.004), 0.3)];
        for scenario in ALL_SCENARIOS {
            for (tolerant, (batch, batch_setup_frac)) in
                [false, true].into_iter().flat_map(|t| batchings.map(|b| (t, b)))
            {
                let cfg = FleetConfig {
                    faults: Some(FaultSpec::scenario(scenario, 3, 15.0)),
                    tolerance: if tolerant {
                        FaultTolerance {
                            hedge: Some(HedgePolicy {
                                min_delay_s: 0.05,
                                quantile: 0.99,
                                min_samples: 50,
                            }),
                            degrade: Some(DegradePolicy::basic()),
                            ..FaultTolerance::recovering()
                        }
                    } else {
                        FaultTolerance::none()
                    },
                    admission_control: true,
                    deadline_s: Some(0.4),
                    batch,
                    batch_setup_frac,
                    ..FleetConfig::basic(
                        chips.clone(),
                        Policy::PowerOfTwoChoices,
                        workload(200.0, 3000),
                        0.3,
                    )
                };
                let r = FleetSim::new(cfg).unwrap().run();
                assert_eq!(
                    r.completed as u64 + r.drops.total(),
                    r.requests as u64,
                    "{} tolerant={tolerant} batch={}: {} completed + {:?}",
                    scenario.name(),
                    batch.max_batch,
                    r.completed,
                    r.drops
                );
                let offered: u64 = r.attain_series.iter().map(|s| s.offered).sum();
                assert_eq!(offered, r.requests as u64, "attainment series covers every arrival");
            }
        }
    }

    /// The deadline-budget rule: with strict deadlines, no completion —
    /// first attempt, retry, or hedge — lands past `arrival + deadline`.
    #[test]
    fn strict_deadlines_bound_total_latency_across_retries() {
        let cfg = FleetConfig {
            faults: Some(FaultSpec::scenario(FaultScenario::All, 17, 15.0)),
            tolerance: FaultTolerance {
                hedge: Some(HedgePolicy { min_delay_s: 0.04, quantile: 0.95, min_samples: 20 }),
                ..FaultTolerance::recovering()
            },
            deadline_s: Some(0.3),
            strict_deadline: true,
            ..FleetConfig::basic(
                small_fleet(),
                Policy::JoinShortestQueue,
                workload(150.0, 3000),
                0.3,
            )
        };
        let r = FleetSim::new(cfg).unwrap().run();
        assert!(r.completed > 0);
        assert!(
            r.latency.max_s <= 0.3 + 1e-9,
            "a completion exceeded its deadline budget: {}",
            r.latency.max_s
        );
    }

    #[test]
    fn hedging_fires_and_tames_the_straggler_tail() {
        let chips = vec![chip("a", 2048, 2, &[0.020, 0.020]), chip("b", 2048, 2, &[0.020, 0.020])];
        let faults = FaultSpec {
            straggler_slowdown: 6.0,
            ..FaultSpec::scenario(FaultScenario::Straggler, 23, 40.0)
        };
        let base = FleetConfig {
            faults: Some(faults),
            queue_capacity: 256, // deep queues: compare tails, not drops
            ..FleetConfig::basic(chips, Policy::RoundRobin, workload(60.0, 2400), 0.4)
        };
        let plain = FleetSim::new(base.clone()).unwrap().run();
        let hedged = FleetSim::new(FleetConfig {
            tolerance: FaultTolerance {
                hedge: Some(HedgePolicy {
                    min_delay_s: 0.05,
                    quantile: 0.99,
                    min_samples: usize::MAX, // fixed 50ms hedge delay
                }),
                ..FaultTolerance::none()
            },
            ..base
        })
        .unwrap()
        .run();
        assert!(hedged.resilience.hedges > 0, "hedges must fire under stragglers");
        assert!(hedged.resilience.hedges_wasted <= hedged.resilience.hedges);
        assert!(
            hedged.latency.p99_s < plain.latency.p99_s,
            "hedged p99 {} >= plain p99 {}",
            hedged.latency.p99_s,
            plain.latency.p99_s
        );
        assert!(hedged.availability >= plain.availability);
    }

    #[test]
    fn degradation_serves_load_that_admission_would_shed() {
        let mut c0 = chip("small", 1024, 1, &[0.050, 0.050]);
        c0.degraded_service_s = Some(vec![0.020, 0.020]); // cheaper algorithm
        let wl = workload(30.0, 2000); // 1.5x full-quality capacity
        let base = FleetConfig {
            admission_control: true,
            ..FleetConfig::basic(vec![c0], Policy::JoinShortestQueue, wl, 0.3)
        };
        let shed = FleetSim::new(base.clone()).unwrap().run();
        let degraded = FleetSim::new(FleetConfig {
            tolerance: FaultTolerance {
                degrade: Some(DegradePolicy::basic()),
                ..FaultTolerance::none()
            },
            ..base
        })
        .unwrap()
        .run();
        assert!(shed.drops.admission > 0, "baseline must be shedding");
        assert!(degraded.resilience.degraded > 0, "degradation must engage");
        assert!(
            degraded.drops.admission < shed.drops.admission,
            "degradation should absorb load admission would shed"
        );
        assert!(degraded.slo_attainment > shed.slo_attainment);
    }
}
