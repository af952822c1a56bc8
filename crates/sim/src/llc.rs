//! Last-level cache model: 8MB, 16-way, LRU (Table I), shared by eight
//! cores, caching data lines *and* the ECC-related lines of §III-D/§IV-C.
//!
//! ECC and XOR cachelines take addresses in a disjoint region of the
//! physical space and are "treated the same way as data cachelines in terms
//! of LLC insertion and replacement policies" (paper §IV-C) — so they are
//! ordinary entries here; only the scheme glue interprets them.

use serde::{Deserialize, Serialize};

/// LLC geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcConfig {
    pub capacity_bytes: usize,
    pub ways: usize,
    pub line_bytes: usize,
}

impl LlcConfig {
    /// Table I: 8MB, 16-way. Line size follows the memory line size of the
    /// evaluated organization (64B; 128B for 36-device chipkill and RAIM).
    pub fn paper(line_bytes: usize) -> LlcConfig {
        LlcConfig {
            capacity_bytes: 8 * 1024 * 1024,
            ways: 16,
            line_bytes,
        }
    }

    pub fn sets(&self) -> usize {
        self.capacity_bytes / self.line_bytes / self.ways
    }
}

/// What an access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    pub hit: bool,
    /// Dirty victim evicted by the fill (tag address), if any.
    pub writeback: Option<u64>,
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LlcStats {
    pub hits: u64,
    pub misses: u64,
    pub writebacks: u64,
}

/// The cache. Addresses are line-granular in units of `line_bytes`.
///
/// Ways are stored as struct-of-arrays: a flat tag array and a flat
/// LRU-stamp array (both indexed `set * ways + way`), plus one valid and
/// one dirty bitmask per set (bit `way`). A hit probe then reads only the
/// set's tags (16 × 8 B, two host cache lines at the paper geometry)
/// instead of full way records. The replacement rule is unchanged: the
/// lowest-numbered invalid way, else the way with the oldest stamp (first
/// such way on a tie), so every outcome, statistic and flush matches an
/// array of per-way records step for step.
pub struct Llc {
    config: LlcConfig,
    /// Line held by each way, `set * ways + way`.
    tags: Vec<u64>,
    /// Access-clock stamp of each way's last use, same indexing.
    lru: Vec<u64>,
    /// Per set: bit `way` set if the way holds a line.
    valid: Vec<u64>,
    /// Per set: bit `way` set if the way's line is modified; always a
    /// subset of `valid`, so a dirty bit alone means "write back".
    dirty: Vec<u64>,
    ways_per_set: usize,
    /// `nsets - 1`; set count is asserted to be a power of two.
    set_mask: u64,
    clock: u64,
    stats: LlcStats,
}

impl Llc {
    pub fn new(config: LlcConfig) -> Llc {
        let nsets = config.sets();
        assert!(nsets.is_power_of_two(), "set count must be a power of two");
        assert!(
            (1..=64).contains(&config.ways),
            "per-set valid/dirty masks hold 1 to 64 ways"
        );
        Llc {
            config,
            tags: vec![0; config.ways * nsets],
            lru: vec![0; config.ways * nsets],
            valid: vec![0; nsets],
            dirty: vec![0; nsets],
            ways_per_set: config.ways,
            set_mask: nsets as u64 - 1,
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    pub fn stats(&self) -> &LlcStats {
        &self.stats
    }

    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// The valid way of `set` holding `line`, if any.
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways_per_set;
        let valid = self.valid[set];
        self.tags[base..base + self.ways_per_set]
            .iter()
            .enumerate()
            .position(|(way, &tag)| tag == line && valid >> way & 1 != 0)
    }

    /// Access `line`; on miss, fill it (write-allocate). Returns hit status
    /// and any dirty victim.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let set = self.set_of(line);
        let base = set * self.ways_per_set;
        if let Some(way) = self.find(set, line) {
            self.lru[base + way] = self.clock;
            self.dirty[set] |= u64::from(is_write) << way;
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        self.stats.misses += 1;
        // victim: first invalid way, else LRU
        let all = u64::MAX >> (64 - self.ways_per_set);
        let invalid = !self.valid[set] & all;
        let victim = if invalid != 0 {
            invalid.trailing_zeros() as usize
        } else {
            let stamps = &self.lru[base..base + self.ways_per_set];
            let mut victim = 0;
            for (i, &stamp) in stamps.iter().enumerate() {
                if stamp < stamps[victim] {
                    victim = i;
                }
            }
            victim
        };
        let bit = 1u64 << victim;
        let writeback = if self.dirty[set] & bit != 0 {
            self.stats.writebacks += 1;
            Some(self.tags[base + victim])
        } else {
            None
        };
        self.tags[base + victim] = line;
        self.lru[base + victim] = self.clock;
        self.valid[set] |= bit;
        self.dirty[set] = (self.dirty[set] & !bit) | (u64::from(is_write) << victim);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probe without modifying state (used by tests).
    pub fn contains(&self, line: u64) -> bool {
        self.find(self.set_of(line), line).is_some()
    }

    /// Drain every dirty line (end-of-simulation flush). Returns their tags.
    pub fn flush_dirty(&mut self) -> Vec<u64> {
        let mut out = vec![];
        for (set, dirty) in self.dirty.iter_mut().enumerate() {
            let mut mask = *dirty;
            while mask != 0 {
                let way = mask.trailing_zeros() as usize;
                out.push(self.tags[set * self.ways_per_set + way]);
                mask &= mask - 1;
            }
            *dirty = 0;
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Llc {
        // 64 sets x 4 ways x 64B = 16KB
        Llc::new(LlcConfig {
            capacity_bytes: 16 * 1024,
            ways: 4,
            line_bytes: 64,
        })
    }

    #[test]
    fn paper_geometry() {
        let c = LlcConfig::paper(64);
        assert_eq!(c.sets(), 8192);
        let c = LlcConfig::paper(128);
        assert_eq!(c.sets(), 4096);
    }

    #[test]
    fn hit_after_fill() {
        let mut l = small();
        assert!(!l.access(100, false).hit);
        assert!(l.access(100, false).hit);
        assert_eq!(l.stats().hits, 1);
        assert_eq!(l.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut l = small();
        let sets = l.config().sets() as u64;
        // Fill one set (4 ways) then overflow it.
        for i in 0..4u64 {
            l.access(7 + i * sets, false);
        }
        l.access(7, false); // touch first: now way with tag 7+sets is LRU
        l.access(7 + 4 * sets, false); // evicts 7+sets
        assert!(l.contains(7));
        assert!(!l.contains(7 + sets));
        assert!(l.contains(7 + 4 * sets));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut l = small();
        let sets = l.config().sets() as u64;
        l.access(3, true); // dirty
        for i in 1..=4u64 {
            let out = l.access(3 + i * sets, false);
            if i < 4 {
                assert_eq!(out.writeback, None);
            } else {
                assert_eq!(out.writeback, Some(3), "dirty LRU victim must write back");
            }
        }
        assert_eq!(l.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut l = small();
        l.access(9, false);
        l.access(9, true); // hit, dirtied
        let dirty = l.flush_dirty();
        assert_eq!(dirty, vec![9]);
    }

    /// The cache as it was before the struct-of-arrays layout: one record
    /// per way. Kept as the differential oracle.
    struct WayLlc {
        ways: Vec<Way>,
        ways_per_set: usize,
        set_mask: u64,
        clock: u64,
        stats: LlcStats,
    }

    #[derive(Clone, Copy, Default)]
    struct Way {
        valid: bool,
        dirty: bool,
        tag: u64,
        lru: u64,
    }

    impl WayLlc {
        fn new(config: LlcConfig) -> WayLlc {
            let nsets = config.sets();
            WayLlc {
                ways: vec![Way::default(); config.ways * nsets],
                ways_per_set: config.ways,
                set_mask: nsets as u64 - 1,
                clock: 0,
                stats: LlcStats::default(),
            }
        }

        fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
            self.clock += 1;
            let base = (line & self.set_mask) as usize * self.ways_per_set;
            let ways = &mut self.ways[base..base + self.ways_per_set];
            for w in ways.iter_mut() {
                if w.valid && w.tag == line {
                    w.lru = self.clock;
                    w.dirty |= is_write;
                    self.stats.hits += 1;
                    return AccessOutcome {
                        hit: true,
                        writeback: None,
                    };
                }
            }
            self.stats.misses += 1;
            let mut victim = 0;
            let mut best = u64::MAX;
            for (i, w) in ways.iter().enumerate() {
                if !w.valid {
                    victim = i;
                    break;
                }
                if w.lru < best {
                    best = w.lru;
                    victim = i;
                }
            }
            let v = &mut ways[victim];
            let writeback = if v.valid && v.dirty {
                self.stats.writebacks += 1;
                Some(v.tag)
            } else {
                None
            };
            *v = Way {
                valid: true,
                dirty: is_write,
                tag: line,
                lru: self.clock,
            };
            AccessOutcome {
                hit: false,
                writeback,
            }
        }

        fn contains(&self, line: u64) -> bool {
            let base = (line & self.set_mask) as usize * self.ways_per_set;
            self.ways[base..base + self.ways_per_set]
                .iter()
                .any(|w| w.valid && w.tag == line)
        }

        fn flush_dirty(&mut self) -> Vec<u64> {
            let mut out = vec![];
            for w in &mut self.ways {
                if w.valid && w.dirty {
                    out.push(w.tag);
                    w.dirty = false;
                }
            }
            out.sort_unstable();
            out
        }
    }

    #[test]
    fn struct_of_arrays_matches_way_records() {
        for ways in [4, 16, 64] {
            for line_bytes in [64, 128] {
                let config = LlcConfig {
                    capacity_bytes: 32 * ways * line_bytes,
                    ways,
                    line_bytes,
                };
                let mut soa = Llc::new(config);
                let mut aos = WayLlc::new(config);
                let lines = (config.sets() * ways) as u64;
                let mut seed = 0x5EED ^ (ways * line_bytes) as u64;
                let mut next = |n: u64| {
                    seed = seed
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (seed >> 33) % n
                };
                let (mut hits, mut writebacks) = (0, 0);
                for step in 0..60_000 {
                    // a hot set that mostly hits, a wider footprint that
                    // thrashes, line 0 (the tag an empty way holds) and a
                    // far region like the ECC/XOR lines
                    let line = match next(10) {
                        0..=3 => next(lines / 2),
                        4..=7 => next(4 * lines),
                        8 => 0,
                        _ => (1 << 40) + next(lines),
                    };
                    let is_write = next(3) == 0;
                    let got = soa.access(line, is_write);
                    assert_eq!(got, aos.access(line, is_write), "{ways}-way step {step}");
                    hits += got.hit as u64;
                    writebacks += got.writeback.is_some() as u64;
                    if step % 997 == 0 {
                        let probe = next(4 * lines);
                        assert_eq!(soa.contains(probe), aos.contains(probe));
                    }
                    if step % 20_000 == 19_999 {
                        assert_eq!(soa.flush_dirty(), aos.flush_dirty());
                    }
                }
                assert!(
                    hits > 10_000 && writebacks > 1_000,
                    "{hits} hits, {writebacks} writebacks"
                );
                assert_eq!(soa.stats(), &aos.stats);
                assert_eq!(soa.flush_dirty(), aos.flush_dirty());
            }
        }
    }

    #[test]
    fn flush_dirty_clears_state() {
        let mut l = small();
        l.access(1, true);
        l.access(2, true);
        assert_eq!(l.flush_dirty().len(), 2);
        assert_eq!(l.flush_dirty().len(), 0);
    }
}
