//! Set-associative cache model with true-LRU replacement.
//!
//! The model tracks tags only (the simulator keeps real data in host memory),
//! which is all the timing model needs: it answers "would this line have hit?"
//! and maintains access/miss counters.

use crate::config::CacheGeometry;

/// A set-associative, true-LRU, tag-only cache model.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    /// `sets * ways` tags; within each set, index 0 is most-recently-used.
    /// A way holding line `l` stores `l + 1`, so the zero-filled array is
    /// the empty cache and line 0 is an ordinary line (`u64::MAX` is not a
    /// line: no byte address maps to it once lines are 2 bytes or more).
    tags: Box<[u64]>,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Build a cache from its geometry. Panics if the geometry is not a
    /// power-of-two number of sets or has zero ways.
    pub fn new(geo: CacheGeometry) -> Self {
        let sets = geo.sets();
        assert!(geo.ways > 0, "cache must have at least one way");
        assert!(sets.is_power_of_two(), "cache sets must be a power of two (got {sets})");
        assert!(geo.line_bytes.is_power_of_two());
        Self {
            ways: geo.ways,
            line_shift: geo.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tags: vec![0u64; sets * geo.ways].into_boxed_slice(),
            accesses: 0,
            misses: 0,
        }
    }

    /// Line address (byte address >> line_shift) for a byte address.
    #[inline]
    pub fn line_of(&self, byte_addr: usize) -> u64 {
        (byte_addr as u64) >> self.line_shift
    }

    /// Line size in bytes.
    #[inline]
    pub fn line_bytes(&self) -> usize {
        1usize << self.line_shift
    }

    /// Access one line: returns `true` on hit. On miss the line is filled,
    /// evicting the LRU way of its set.
    #[inline]
    pub fn access_line(&mut self, line: u64) -> bool {
        self.accesses += 1;
        let tag = line + 1;
        let set = (line & self.set_mask) as usize;
        let ways = &mut self.tags[set * self.ways..(set + 1) * self.ways];
        // One pass over the MRU-ordered ways (<= 16), shifting each down a
        // slot until the line turns up: on a hit the shift stops there and
        // the line lands in way 0; on a miss the value shifted off the end
        // is the evicted LRU way. The shift is written out by hand because
        // `rotate_right` lowers to a `ptr_rotate` plus libc `memmove` call
        // on every non-MRU access, which profiled as the largest host cost
        // of a cycle-tier cell.
        let mut carry = tag;
        for way in ways.iter_mut() {
            let held = std::mem::replace(way, carry);
            if held == tag {
                return true;
            }
            carry = held;
        }
        self.misses += 1;
        false
    }

    /// Probe without filling or counting (used by tests and the prefetcher
    /// to ask "is this resident?").
    pub fn probe(&self, line: u64) -> bool {
        let set = (line & self.set_mask) as usize;
        self.tags[set * self.ways..(set + 1) * self.ways].contains(&(line + 1))
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate in [0, 1]; 0 when the cache was never accessed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Forget all contents and counters.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.accesses = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheGeometry;

    fn tiny(ways: usize, sets: usize) -> Cache {
        Cache::new(CacheGeometry { size_bytes: sets * ways * 64, ways, line_bytes: 64 })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny(2, 4);
        assert!(!c.access_line(0x1000));
        assert!(c.access_line(0x1000));
        assert_eq!(c.accesses(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(2, 1); // one set, two ways
        c.access_line(1);
        c.access_line(2);
        c.access_line(1); // 1 becomes MRU
        assert!(!c.access_line(3)); // evicts 2
        assert!(c.probe(1));
        assert!(!c.probe(2));
        assert!(c.probe(3));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny(1, 2); // direct-mapped, two sets
        c.access_line(0); // set 0
        c.access_line(1); // set 1
        assert!(c.probe(0));
        assert!(c.probe(1));
        c.access_line(2); // set 0 again: evicts 0
        assert!(!c.probe(0));
        assert!(c.probe(1));
    }

    #[test]
    fn streaming_larger_than_capacity_always_misses_second_pass() {
        let mut c = tiny(4, 16); // 64 lines capacity
        for l in 0..128u64 {
            c.access_line(l);
        }
        let misses_before = c.misses();
        for l in 0..128u64 {
            c.access_line(l);
        }
        // LRU streaming: everything was evicted before reuse.
        assert_eq!(c.misses() - misses_before, 128);
    }

    #[test]
    fn working_set_within_capacity_all_hits_second_pass() {
        let mut c = tiny(4, 16);
        for l in 0..64u64 {
            c.access_line(l);
        }
        let misses_before = c.misses();
        for l in 0..64u64 {
            c.access_line(l);
        }
        assert_eq!(c.misses(), misses_before);
    }

    #[test]
    fn reset_clears() {
        let mut c = tiny(2, 2);
        c.access_line(7);
        c.reset();
        assert!(!c.probe(7));
        assert_eq!(c.accesses(), 0);
    }

    #[test]
    fn line_zero_starts_cold() {
        let mut c = tiny(2, 4);
        assert!(!c.probe(0));
        assert!(!c.access_line(0));
        assert_eq!(c.misses(), 1);
        assert!(c.probe(0));
        assert!(c.access_line(0));
        c.reset();
        assert!(!c.probe(0));
    }

    /// The two-pass true-LRU that `access_line` replaced (`position` then
    /// `rotate_right`, raw lines, 0 = empty way), kept as the differential
    /// reference. Valid for lines >= 1.
    struct Reference {
        ways: usize,
        set_mask: u64,
        tags: Vec<u64>,
        accesses: u64,
        misses: u64,
    }

    impl Reference {
        fn new(ways: usize, sets: usize) -> Self {
            Self {
                ways,
                set_mask: sets as u64 - 1,
                tags: vec![0; sets * ways],
                accesses: 0,
                misses: 0,
            }
        }

        fn set(&self, line: u64) -> std::ops::Range<usize> {
            let set = (line & self.set_mask) as usize;
            set * self.ways..(set + 1) * self.ways
        }

        fn access_line(&mut self, line: u64) -> bool {
            self.accesses += 1;
            let range = self.set(line);
            let ways = &mut self.tags[range];
            if let Some(pos) = ways.iter().position(|&t| t == line) {
                ways[..=pos].rotate_right(1);
                true
            } else {
                self.misses += 1;
                ways.rotate_right(1);
                ways[0] = line;
                false
            }
        }

        fn probe(&self, line: u64) -> bool {
            self.tags[self.set(line)].contains(&line)
        }

        fn reset(&mut self) {
            self.tags.fill(0);
            self.accesses = 0;
            self.misses = 0;
        }
    }

    /// Drive `Cache` and `Reference` with one seeded stream of lines >= 1 —
    /// phases of MRU re-hits, cyclic working sets just under and just over
    /// capacity, and random lines, with a `reset` halfway — and assert every
    /// hit/miss, probe answer and counter agree.
    fn differential(ways: usize, sets: usize, seed: u64) {
        const ACCESSES: usize = 60_000;
        let mut rng = seed;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let cap = (ways * sets) as u64;
        let (mut c, mut r) = (tiny(ways, sets), Reference::new(ways, sets));
        let (mut mode, mut base, mut i, mut last) = (0, 1, 0u64, 1u64);
        for n in 0..ACCESSES {
            if n == ACCESSES / 2 {
                c.reset();
                r.reset();
            }
            if n % 500 == 0 {
                (mode, base, i) = (next() % 4, 1 + next() % (8 * cap), 0);
            }
            let line = match mode {
                0 if next() % 4 != 0 => last,
                0 | 3 => 1 + next() % (4 * cap),
                1 => base + i % (cap - 1).max(1),
                _ => base + i % (cap + 1),
            };
            i += 1;
            last = line;
            assert_eq!(c.access_line(line), r.access_line(line), "access {n}: line {line}");
            let other = 1 + next() % (4 * cap);
            assert_eq!(c.probe(other), r.probe(other), "access {n}: probe {other}");
            assert_eq!(c.probe(line), r.probe(line), "access {n}: probe {line}");
            assert_eq!((c.accesses(), c.misses()), (r.accesses, r.misses), "access {n}");
        }
        assert!(r.misses > 0 && r.misses < r.accesses, "stream exercises hits and misses");
    }

    #[test]
    fn matches_two_pass_reference_lru() {
        for (ways, sets) in [(1, 64), (8, 1), (4, 256), (8, 32), (16, 16)] {
            differential(ways, sets, 0x9E37_79B9_7F4A_7C15 ^ (ways * 1000 + sets) as u64);
        }
    }
}
