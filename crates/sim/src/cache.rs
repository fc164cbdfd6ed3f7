//! Set-associative cache arrays with true LRU replacement.
//!
//! [`SetAssocArray`] is the tag store shared by the L1s and the LLC: it
//! tracks presence, dirtiness and an arbitrary per-line payload (the LLC
//! uses it for its sharer bitmask). Timing lives in the callers; the array
//! is purely functional state.

use crate::config::CacheConfig;
use crate::LINE_BYTES;

/// Outcome of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome<P> {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; if an occupied line was
    /// displaced, it is carried here.
    Miss {
        /// The victim line evicted to make room, if any.
        victim: Option<EvictedLine<P>>,
    },
}

/// A line evicted from the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine<P> {
    /// The line's address (aligned to [`LINE_BYTES`]).
    pub line_addr: u64,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
    /// The per-line payload at eviction.
    pub payload: P,
}

/// The tag of an invalid way. A real tag is a line number shifted right by
/// the set bits, so it is at most `u64::MAX >> 6` and never this value.
const INVALID: u64 = u64::MAX;

/// A set-associative array with per-line payloads.
///
/// Way `w` of set `s` is index `s * ways + w` of four parallel arrays:
/// tags, LRU stamps, dirty flags and payloads; each set also has a one-byte
/// clock. A lookup scans only the tags, and no array of the paper's 4 MB
/// LLC exceeds 512 KB.
#[derive(Debug, Clone)]
pub struct SetAssocArray<P> {
    ways: usize,
    set_bits: u32,
    set_mask: u64,
    /// Tag per way, [`INVALID`] for an empty way.
    tags: Vec<u64>,
    /// Recency of each way within its set: 0 for an invalid way, and
    /// distinct values from 1 up, rising with touch order, for valid ways.
    /// So the first smallest stamp of a set is its first invalid way if it
    /// has one, else its least recently used line.
    stamps: Vec<u8>,
    /// Per set, the last stamp handed out in it (at least every stamp the
    /// set holds).
    clocks: Vec<u8>,
    dirty: Vec<bool>,
    payloads: Vec<P>,
    hits: u64,
    misses: u64,
}

impl<P: Default + Copy> SetAssocArray<P> {
    /// Builds an empty array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two or the way count is
    /// outside `1..=`[`CacheConfig::MAX_WAYS`] ([`CacheConfig::new`] and
    /// the simulator's configuration checks reject such geometries first).
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            (1..=CacheConfig::MAX_WAYS).contains(&config.ways),
            "cache must have 1..={} ways, got {}",
            CacheConfig::MAX_WAYS,
            config.ways
        );
        let sets = config.sets();
        assert!(
            sets.is_power_of_two(),
            "cache must have a power-of-two number of sets, got {sets}"
        );
        let total = (sets * u64::from(config.ways)) as usize;
        SetAssocArray {
            ways: config.ways as usize,
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            tags: vec![INVALID; total],
            stamps: vec![0; total],
            clocks: vec![0; sets as usize],
            dirty: vec![false; total],
            payloads: vec![P::default(); total],
            hits: 0,
            misses: 0,
        }
    }

    /// The set and tag of `line_addr`.
    fn locate(&self, line_addr: u64) -> (u64, u64) {
        let line = line_addr / LINE_BYTES;
        (line & self.set_mask, line >> self.set_bits)
    }

    /// The ways of `set`, as a range of indexes into the arrays.
    fn ways_of(&self, set: u64) -> std::ops::Range<usize> {
        let base = set as usize * self.ways;
        base..base + self.ways
    }

    /// The way holding `tag` in `set`.
    fn find(&self, set: u64, tag: u64) -> Option<usize> {
        let ways = self.ways_of(set);
        let base = ways.start;
        self.tags[ways]
            .iter()
            .position(|&t| t == tag)
            .map(|w| base + w)
    }

    /// Makes way `w` of `set` the set's most recently used line. A set whose
    /// clock has no stamp left is renumbered first; it holds at most
    /// [`CacheConfig::MAX_WAYS`] valid stamps, so the clock then has room.
    fn touch(&mut self, set: u64, w: usize) {
        let set = set as usize;
        if self.clocks[set] == u8::MAX {
            self.clocks[set] = self.renumber(set);
        }
        self.clocks[set] += 1;
        self.stamps[w] = self.clocks[set];
    }

    /// Renumbers `set`'s valid stamps to `1..=n` in their current order,
    /// leaving invalid ways at 0, and returns `n`. Victims depend only on
    /// the order of stamps within a set, so this changes none.
    fn renumber(&mut self, set: usize) -> u8 {
        let ways = self.ways_of(set as u64);
        let stamps = &mut self.stamps[ways];
        // `rank[s]` becomes the new stamp of old stamp `s`.
        let mut rank = [0u8; 256];
        for &s in stamps.iter() {
            rank[usize::from(s)] = 1;
        }
        rank[0] = 0; // invalid ways stay 0
        let mut n = 0;
        for r in &mut rank {
            if *r != 0 {
                n += 1;
                *r = n;
            }
        }
        for s in stamps.iter_mut() {
            *s = rank[usize::from(*s)];
        }
        n
    }

    /// Aligns an address down to its line.
    pub fn align(addr: u64) -> u64 {
        addr & !(LINE_BYTES - 1)
    }

    /// Looks up a line without allocating or touching LRU state.
    pub fn probe(&self, line_addr: u64) -> bool {
        let (set, tag) = self.locate(line_addr);
        self.find(set, tag).is_some()
    }

    /// Looks up a line, allocating it on a miss (LRU victim) and updating
    /// recency. `write` marks the line dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome<P> {
        self.access_way(line_addr, write).0
    }

    /// [`SetAssocArray::access`], also lending the payload of the way the
    /// line hit or was filled into (`P::default()` after a fill), so a
    /// caller that tracks per-line state needs no second lookup.
    pub fn access_way(&mut self, line_addr: u64, write: bool) -> (AccessOutcome<P>, &mut P) {
        let (set, tag) = self.locate(line_addr);
        if let Some(w) = self.find(set, tag) {
            self.touch(set, w);
            self.dirty[w] |= write;
            self.hits += 1;
            return (AccessOutcome::Hit, &mut self.payloads[w]);
        }

        self.misses += 1;
        // The first smallest stamp: the first invalid way, else the LRU way.
        let ways = self.ways_of(set);
        let base = ways.start;
        let w = base
            + self.stamps[ways]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &stamp)| stamp)
                .map(|(i, _)| i)
                .expect("associativity is at least 1");
        let victim = (self.tags[w] != INVALID).then(|| EvictedLine {
            line_addr: ((self.tags[w] << self.set_bits) | set) * LINE_BYTES,
            dirty: self.dirty[w],
            payload: self.payloads[w],
        });
        self.tags[w] = tag;
        self.touch(set, w);
        self.dirty[w] = write;
        self.payloads[w] = P::default();
        (AccessOutcome::Miss { victim }, &mut self.payloads[w])
    }

    /// Invalidates a line (coherence). Returns whether it was present and
    /// dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (set, tag) = self.locate(line_addr);
        let w = self.find(set, tag)?;
        self.tags[w] = INVALID;
        self.stamps[w] = 0;
        Some(std::mem::take(&mut self.dirty[w]))
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocArray<()> {
        // 4 sets x 2 ways x 64B = 512B
        SetAssocArray::new(CacheConfig::new(512, 2))
    }

    #[test]
    fn hit_after_allocate() {
        let mut c = tiny();
        assert!(matches!(c.access(0x0, false), AccessOutcome::Miss { .. }));
        assert!(matches!(c.access(0x0, false), AccessOutcome::Hit));
        assert!(c.probe(0x0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn same_set_eviction_is_lru() {
        let mut c = tiny();
        // set stride = 4 sets * 64B = 256B; these three map to set 0.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false); // touch 0 again; 256 is now LRU
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.line_addr, 256),
            other => panic!("expected eviction of 256, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(256));
    }

    #[test]
    fn dirty_victims_are_flagged() {
        let mut c = tiny();
        c.access(0, true);
        c.access(256, false);
        match c.access(512, false) {
            AccessOutcome::Miss { victim: Some(v) } => {
                assert_eq!(v.line_addr, 0);
                assert!(v.dirty);
            }
            other => panic!("expected dirty victim, got {other:?}"),
        }
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(64, true);
        assert_eq!(c.invalidate(64), Some(true));
        assert_eq!(c.invalidate(64), None);
        assert!(!c.probe(64));
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = tiny();
        c.access(SetAssocArray::<()>::align(0x7), false);
        assert!(c.probe(SetAssocArray::<()>::align(0x3f)));
        assert!(!c.probe(SetAssocArray::<()>::align(0x40)));
    }

    #[test]
    fn payloads_live_with_lines() {
        let mut c: SetAssocArray<u32> = SetAssocArray::new(CacheConfig::new(512, 2));
        let (_, p) = c.access_way(0, false);
        assert_eq!(*p, 0, "a fill starts from the default payload");
        *p = 7;
        assert_eq!(*c.access_way(0, false).1, 7);
        // 256 fills set 0's other way; 512 then evicts 0 with its payload,
        // and the new occupant starts from the default again.
        c.access(256, false);
        c.access(256, false);
        match c.access_way(512, false) {
            (AccessOutcome::Miss { victim: Some(v) }, p) => {
                assert_eq!((v.line_addr, v.payload), (0, 7));
                assert_eq!(*p, 0);
            }
            other => panic!("expected eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two number of sets")]
    fn non_power_of_two_set_counts_are_rejected() {
        let three_sets = CacheConfig {
            size_bytes: 3 * 2 * 64,
            ways: 2,
        };
        let _: SetAssocArray<()> = SetAssocArray::new(three_sets);
    }

    #[test]
    fn renumbering_keeps_the_order_and_the_invalid_ways() {
        // One set of 4 ways: every line maps to it.
        let mut c: SetAssocArray<()> = SetAssocArray::new(CacheConfig::new(4 * 64, 4));
        for line in [0, 64, 128, 192] {
            c.access(line, false);
        }
        c.invalidate(64);
        // Run the clock to its last stamp: 192 oldest, then 128, then 0.
        while c.clocks[0] < u8::MAX - 2 {
            c.access(192, false);
        }
        c.access(128, false);
        c.access(0, false);
        assert_eq!(
            (c.stamps.as_slice(), c.clocks[0]),
            (&[255, 0, 254, 253][..], 255)
        );

        // The next touch renumbers first: 192 → 1, 128 → 2, 0 → 3, and the
        // invalid way stays 0; then 0 takes stamp 4.
        c.access(0, false);
        assert_eq!((c.stamps.as_slice(), c.clocks[0]), (&[4, 0, 2, 1][..], 4));
        assert_eq!(c.renumber(0), 3);
        assert_eq!(c.stamps, [3, 0, 2, 1]);

        // Victims follow the renumbered order: the free way, then 192.
        assert!(matches!(
            c.access(256, false),
            AccessOutcome::Miss { victim: None }
        ));
        match c.access(320, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.line_addr, 192),
            other => panic!("expected eviction of 192, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "1..=254 ways")]
    fn caches_wider_than_the_clock_are_rejected() {
        let wide = CacheConfig {
            size_bytes: 255 * 64,
            ways: 255,
        };
        let _: SetAssocArray<()> = SetAssocArray::new(wide);
    }

    #[test]
    fn resident_count_tracks_capacity() {
        let mut c = tiny();
        for i in 0..64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 8); // 4 sets x 2 ways
    }
}
