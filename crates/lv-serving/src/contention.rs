//! Shared-L2 contention replay — validating the paper's partitioning
//! assumption.
//!
//! Paper II §4.4 assumes "the existence of some static cache partitioning
//! mechanism, e.g. similar to Intel CAT, which grants isolated cache ways
//! to each hosted application". This module measures what that assumption
//! is worth: L2 access traces recorded from isolated runs
//! ([`lv_sim::Machine::enable_l2_trace`]) are replayed into (a) one shared
//! unpartitioned cache with all co-runners interleaved by timestamp, and
//! (b) per-tenant partitions of the same total capacity. The difference in
//! miss counts is the interference CAT removes.
//!
//! Tenants are distinct processes, so their address spaces are disjoint:
//! each trace's lines are offset into a private region before replay.

use lv_sim::{Cache, CacheGeometry};

/// Result of a contention replay.
#[derive(Debug, Clone)]
pub struct ContentionReport {
    /// L2 misses per tenant when run alone in the full-size cache.
    pub isolated_misses: Vec<u64>,
    /// L2 misses per tenant sharing one unpartitioned cache.
    pub shared_misses: Vec<u64>,
    /// L2 misses per tenant in equal static partitions (CAT).
    pub partitioned_misses: Vec<u64>,
    /// Total accesses per tenant.
    pub accesses: Vec<u64>,
}

impl ContentionReport {
    /// Interference factor: shared misses / isolated misses (>= ~1).
    pub fn interference(&self) -> f64 {
        let shared: u64 = self.shared_misses.iter().sum();
        let isolated: u64 = self.isolated_misses.iter().sum::<u64>().max(1);
        shared as f64 / isolated as f64
    }

    /// Estimated extra cycles per tenant from sharing vs partitioning,
    /// given the extra penalty of a memory line over an L2 hit.
    pub fn est_extra_cycles(&self, miss_penalty: u64) -> Vec<i64> {
        self.shared_misses
            .iter()
            .zip(&self.partitioned_misses)
            .map(|(&s, &p)| (s as i64 - p as i64) * miss_penalty as i64)
            .collect()
    }
}

fn offset_line(tenant: usize, line: u64) -> u64 {
    // Private 2^40-line region per tenant: tenants never share data.
    ((tenant as u64 + 1) << 40) | line
}

/// Replay tenant traces through isolated / shared / partitioned caches.
///
/// * `traces` — per-tenant `(cycle, line)` sequences (cycle-sorted, as the
///   machine records them),
/// * `shared` — the shared L2 geometry,
/// * assumes equal partitions of `shared.size_bytes / tenants` (ways split
///   evenly; requires `ways >= tenants` for a faithful CAT split, otherwise
///   sets shrink instead, which CAT cannot express but bounds the result).
pub fn replay(traces: &[Vec<(u64, u64)>], shared: CacheGeometry) -> ContentionReport {
    let n = traces.len();
    assert!(n >= 1, "need at least one tenant");
    let accesses = traces.iter().map(|t| t.len() as u64).collect();

    // (a) Isolated: each tenant alone in the full cache.
    let isolated_misses = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut c = Cache::new(shared);
            let mut misses = 0;
            for &(_, line) in t {
                if !c.access_line(offset_line(i, line)) {
                    misses += 1;
                }
            }
            misses
        })
        .collect();

    // (b) Shared unpartitioned: merge all traces by timestamp.
    let mut cursors = vec![0usize; n];
    let mut cache = Cache::new(shared);
    let mut shared_misses = vec![0u64; n];
    loop {
        let mut next: Option<(u64, usize)> = None;
        for (i, t) in traces.iter().enumerate() {
            if cursors[i] < t.len() {
                let ts = t[cursors[i]].0;
                if next.is_none_or(|(best, _)| ts < best) {
                    next = Some((ts, i));
                }
            }
        }
        let Some((_, i)) = next else { break };
        let line = traces[i][cursors[i]].1;
        if !cache.access_line(offset_line(i, line)) {
            shared_misses[i] += 1;
        }
        cursors[i] += 1;
    }

    // (c) Partitioned: each tenant gets an equal slice.
    let part = CacheGeometry {
        size_bytes: (shared.size_bytes / n).max(shared.ways * shared.line_bytes),
        ways: shared.ways,
        line_bytes: shared.line_bytes,
    };
    // Keep the set count a power of two, rounding *down*: halving
    // `next_power_of_two()` would wrongly shrink counts that are already
    // powers of two (64 sets -> 32), giving each tenant half its slice.
    let raw_sets = part.size_bytes / (part.ways * part.line_bytes);
    let sets = if raw_sets.is_power_of_two() { raw_sets } else { raw_sets.next_power_of_two() / 2 };
    let part = CacheGeometry { size_bytes: sets.max(1) * part.ways * part.line_bytes, ..part };
    let partitioned_misses = traces
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut c = Cache::new(part);
            let mut misses = 0;
            for &(_, line) in t {
                if !c.access_line(offset_line(i, line)) {
                    misses += 1;
                }
            }
            misses
        })
        .collect();

    ContentionReport { isolated_misses, shared_misses, partitioned_misses, accesses }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(kib: usize) -> CacheGeometry {
        CacheGeometry { size_bytes: kib * 1024, ways: 8, line_bytes: 64 }
    }

    /// A streaming tenant touching `lines` distinct lines repeatedly,
    /// one access per `step` cycles.
    fn streaming_trace_step(lines: u64, passes: usize, step: u64) -> Vec<(u64, u64)> {
        let mut t = Vec::new();
        let mut cycle = 0;
        for _ in 0..passes {
            for l in 0..lines {
                t.push((cycle, l));
                cycle += step;
            }
        }
        t
    }

    fn streaming_trace(lines: u64, passes: usize) -> Vec<(u64, u64)> {
        streaming_trace_step(lines, passes, 3)
    }

    #[test]
    fn lone_tenant_sees_no_interference() {
        let tr = vec![streaming_trace(100, 4)];
        let rep = replay(&tr, geo(64));
        assert_eq!(rep.isolated_misses, rep.shared_misses);
        assert!((rep.interference() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fitting_tenants_dont_interfere() {
        // Two tenants of 100 lines each; 64 KiB = 1024 lines holds both.
        let tr = vec![streaming_trace(100, 4), streaming_trace(100, 4)];
        let rep = replay(&tr, geo(64));
        assert_eq!(rep.shared_misses, rep.isolated_misses);
    }

    #[test]
    fn oversubscribed_sharing_inflates_misses() {
        // Two tenants of 600 lines each fit alone in a 1024-line cache but
        // not together: sharing must thrash while isolation is clean.
        let tr = vec![streaming_trace(600, 6), streaming_trace(600, 6)];
        let rep = replay(&tr, geo(64));
        let iso: u64 = rep.isolated_misses.iter().sum();
        let shr: u64 = rep.shared_misses.iter().sum();
        assert!(shr > 2 * iso, "sharing should thrash: {shr} vs isolated {iso}");
        assert!(rep.interference() > 2.0);
    }

    /// A streaming hog that never reuses a line, one access per cycle.
    fn hog_trace(total: u64) -> Vec<(u64, u64)> {
        (0..total).map(|i| (i + 1, i)).collect()
    }

    #[test]
    fn partitioning_protects_a_victim_from_a_hog() {
        // Victim: 200-line working set (fits its 512-line partition),
        // touching one line every 31 cycles. Hog: a fresh line every
        // cycle — ~30 evict-candidates between victim reuses, enough to
        // push the victim out of any 8-way LRU set it shares.
        let victim = streaming_trace_step(200, 6, 31);
        let hog = hog_trace(36_000);
        let rep = replay(&[victim, hog], geo(64));
        // Shared: the hog inflates the victim's misses well beyond cold.
        assert!(
            rep.shared_misses[0] > 2 * rep.isolated_misses[0],
            "victim should suffer when sharing: {} vs isolated {}",
            rep.shared_misses[0],
            rep.isolated_misses[0]
        );
        // Partitioned: the victim's misses return to the cold count.
        assert_eq!(rep.partitioned_misses[0], rep.isolated_misses[0]);
        // The interference estimate for the victim is positive.
        assert!(rep.est_extra_cycles(23)[0] > 0);
    }

    #[test]
    fn overlapping_traces_never_reduce_misses() {
        // Interference is never beneficial: for any pair of time-overlapped
        // tenants, sharing can only add conflict misses, so the
        // interference factor is >= 1 and partitioning never does worse
        // than sharing for a tenant that fits its partition.
        for (a_lines, b_lines) in [(64, 64), (200, 500), (700, 700), (100, 1200)] {
            let tr = vec![streaming_trace(a_lines, 5), streaming_trace(b_lines, 5)];
            let rep = replay(&tr, geo(64));
            assert!(
                rep.interference() >= 1.0 - 1e-12,
                "interference {} < 1 for ({a_lines},{b_lines})",
                rep.interference()
            );
            for i in 0..2 {
                assert!(
                    rep.shared_misses[i] >= rep.isolated_misses[i],
                    "tenant {i} of ({a_lines},{b_lines}): shared {} < isolated {}",
                    rep.shared_misses[i],
                    rep.isolated_misses[i]
                );
            }
        }
    }

    #[test]
    fn partitioned_never_exceeds_shared_when_working_set_fits() {
        // When every tenant's working set fits its partition, the partition
        // is strictly protective: per-tenant partitioned misses <= shared.
        let tr = vec![streaming_trace(300, 6), streaming_trace(900, 6)];
        let rep = replay(&tr, geo(64));
        // Tenant 0 (300 lines < 512-line partition) is fully protected.
        assert!(
            rep.partitioned_misses[0] <= rep.shared_misses[0],
            "partitioned {} > shared {}",
            rep.partitioned_misses[0],
            rep.shared_misses[0]
        );
        assert_eq!(rep.partitioned_misses[0], rep.isolated_misses[0]);
        // When *both* tenants fit their partitions, partitioned misses are
        // cold-only, so summed partitioned <= summed shared as well.
        let tr = vec![streaming_trace(300, 6), streaming_trace(400, 6)];
        let rep = replay(&tr, geo(64));
        let part: u64 = rep.partitioned_misses.iter().sum();
        let shared: u64 = rep.shared_misses.iter().sum();
        assert!(part <= shared, "partitioned {part} > shared {shared}");
    }

    #[test]
    fn report_accounts_every_access() {
        let tr = vec![streaming_trace(100, 3), streaming_trace(50, 2)];
        let rep = replay(&tr, geo(64));
        assert_eq!(rep.accesses, vec![300, 100]);
        for i in 0..2 {
            assert!(rep.isolated_misses[i] <= rep.accesses[i]);
            assert!(rep.shared_misses[i] <= rep.accesses[i]);
            assert!(rep.partitioned_misses[i] <= rep.accesses[i]);
        }
    }

    #[test]
    fn small_working_sets_prefer_partitions_exactly_like_isolation() {
        // 200-line tenants fit in a half partition (512 lines): partitioned
        // misses equal isolated (cold) misses.
        let tr = vec![streaming_trace(200, 5), streaming_trace(200, 5)];
        let rep = replay(&tr, geo(64));
        assert_eq!(rep.partitioned_misses, rep.isolated_misses);
    }
}
