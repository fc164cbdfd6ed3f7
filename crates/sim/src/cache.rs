//! Set-associative cache arrays with true LRU replacement.
//!
//! [`SetAssocArray`] is the tag store shared by the L1s and the LLC: it
//! tracks presence, dirtiness and recency, and reports the index of the
//! way each access used, so a caller (the LLC's sharer directory) can keep
//! per-line state of its own beside the array. Timing lives in the
//! callers; the array is purely functional state.

use crate::config::CacheConfig;
use crate::LINE_BYTES;
use std::ops::Range;

/// Outcome of a cache lookup-with-allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been allocated; if an occupied line was
    /// displaced, it is carried here.
    Miss {
        /// The victim line evicted to make room, if any.
        victim: Option<EvictedLine>,
    },
}

/// A line evicted from the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// The line's address (aligned to [`LINE_BYTES`]).
    pub line_addr: u64,
    /// Whether it was dirty (needs write-back).
    pub dirty: bool,
}

/// A packed array of equal-width bit fields. The width is a power of two
/// from 1 to 64, so no field straddles two words.
#[derive(Debug, Clone)]
pub(crate) struct PackedBits {
    /// log2 of the field width.
    shift: u32,
    /// The low `width` bits.
    mask: u64,
    words: Vec<u64>,
}

impl PackedBits {
    /// `len` fields of `width` bits, all zero.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a power of two from 1 to 64.
    pub(crate) fn new(len: usize, width: u32) -> Self {
        assert!(
            width.is_power_of_two() && width <= 64,
            "a packed field is a power of two from 1 to 64 bits wide, got {width}"
        );
        let shift = width.trailing_zeros();
        PackedBits {
            shift,
            mask: u64::MAX >> (64 - width),
            words: vec![0; (len << shift).div_ceil(64)],
        }
    }

    /// Field `i`.
    pub(crate) fn get(&self, i: usize) -> u64 {
        let bit = i << self.shift;
        (self.words[bit / 64] >> (bit % 64)) & self.mask
    }

    /// Sets field `i` to `value`, which must fit the field's width.
    pub(crate) fn set(&mut self, i: usize, value: u64) {
        debug_assert!(
            value & !self.mask == 0,
            "{value:#x} does not fit a {}-bit field",
            1 << self.shift
        );
        let bit = i << self.shift;
        let word = &mut self.words[bit / 64];
        *word = (*word & !(self.mask << (bit % 64))) | (value << (bit % 64));
    }
}

/// Tag per way. A real tag is a line number shifted right by the set bits,
/// so it is at most `u64::MAX >> 6`. An array holds its tags in the
/// narrowest of 16, 32 and 64 bits that has held every tag stored in it:
/// it starts at 16 and widens, keeping every resident tag, the first time
/// it must store a tag its width cannot hold. It never narrows again.
#[derive(Debug, Clone)]
enum Tags {
    W16(Vec<u16>),
    W32(Vec<u32>),
    W64(Vec<u64>),
}

/// A tag word. Its all-ones value marks an invalid way, so it holds the
/// tags below that value; for `u64` that is every tag.
trait TagWord: Copy + Eq + TryFrom<u64> + Into<u64> {
    const INVALID: Self;
}

impl TagWord for u16 {
    const INVALID: Self = u16::MAX;
}

impl TagWord for u32 {
    const INVALID: Self = u32::MAX;
}

impl TagWord for u64 {
    const INVALID: Self = u64::MAX;
}

/// `tag` as a `T`, if `T` holds it.
fn fit<T: TagWord>(tag: u64) -> Option<T> {
    T::try_from(tag).ok().filter(|&t| t != T::INVALID)
}

/// The index in `tags` of `tag`. An array too narrow for `tag` cannot hold
/// it, so the lookup misses without widening.
fn position<T: TagWord>(tags: &[T], tag: u64) -> Option<usize> {
    let tag = fit::<T>(tag)?;
    tags.iter().position(|&t| t == tag)
}

/// The tag of `t`, `None` for the invalid marker.
fn tag_of<T: TagWord>(t: T) -> Option<u64> {
    (t != T::INVALID).then(|| t.into())
}

/// `tags` in the wider word `U`, each invalid marker becoming `U`'s.
fn widen<T: TagWord, U: TagWord>(tags: &[T]) -> Vec<U> {
    tags.iter()
        .map(|&t| {
            tag_of(t).map_or(U::INVALID, |t| {
                fit(t).expect("a wider tag word holds every narrower tag")
            })
        })
        .collect()
}

/// Stores `tag` in way `w` of `tags` and returns `None` if `T` holds it;
/// otherwise leaves `tags` alone and returns a copy of them at the
/// narrowest wider width that holds it, with `tag` stored in way `w`.
fn store<T: TagWord>(tags: &mut [T], w: usize, tag: u64) -> Option<Tags> {
    if let Some(t) = fit(tag) {
        tags[w] = t;
        return None;
    }
    let mut wider = if fit::<u32>(tag).is_some() {
        Tags::W32(widen(tags))
    } else {
        Tags::W64(widen(tags))
    };
    wider.set(w, tag);
    Some(wider)
}

impl Tags {
    /// `len` invalid ways of 16-bit tags.
    fn new(len: usize) -> Self {
        Tags::W16(vec![u16::INVALID; len])
    }

    /// The way among `ways` holding `tag`.
    fn find(&self, ways: Range<usize>, tag: u64) -> Option<usize> {
        let base = ways.start;
        let w = match self {
            Tags::W16(tags) => position(&tags[ways], tag),
            Tags::W32(tags) => position(&tags[ways], tag),
            Tags::W64(tags) => position(&tags[ways], tag),
        };
        w.map(|w| base + w)
    }

    /// The tag of way `w`, `None` if the way is invalid.
    fn get(&self, w: usize) -> Option<u64> {
        match self {
            Tags::W16(tags) => tag_of(tags[w]),
            Tags::W32(tags) => tag_of(tags[w]),
            Tags::W64(tags) => tag_of(tags[w]),
        }
    }

    /// Stores `tag` in way `w`, widening the array first if its width
    /// cannot hold `tag`.
    fn set(&mut self, w: usize, tag: u64) {
        let wider = match self {
            Tags::W16(tags) => store(tags, w, tag),
            Tags::W32(tags) => store(tags, w, tag),
            Tags::W64(tags) => store(tags, w, tag),
        };
        if let Some(wider) = wider {
            *self = wider;
        }
    }

    /// Marks way `w` invalid.
    fn clear(&mut self, w: usize) {
        match self {
            Tags::W16(tags) => tags[w] = u16::INVALID,
            Tags::W32(tags) => tags[w] = u32::INVALID,
            Tags::W64(tags) => tags[w] = u64::INVALID,
        }
    }

    /// Number of valid ways.
    fn valid(&self) -> usize {
        fn count<T: TagWord>(tags: &[T]) -> usize {
            tags.iter().filter(|&&t| t != T::INVALID).count()
        }
        match self {
            Tags::W16(tags) => count(tags),
            Tags::W32(tags) => count(tags),
            Tags::W64(tags) => count(tags),
        }
    }
}

/// A set-associative array.
///
/// Way `w` of set `s` is index `s * ways + w` of three parallel arrays:
/// 16-bit tags (32- or 64-bit once a tag needs it), one-byte LRU stamps
/// and dirty bits; each set also has a one-byte clock. A lookup scans only
/// the tags, and no array of the paper's 4 MB LLC exceeds 128 KB.
#[derive(Debug, Clone)]
pub struct SetAssocArray {
    ways: usize,
    set_bits: u32,
    set_mask: u64,
    tags: Tags,
    /// Recency of each way within its set: 0 for an invalid way, and
    /// distinct values from 1 up, rising with touch order, for valid ways.
    /// So the first smallest stamp of a set is its first invalid way if it
    /// has one, else its least recently used line.
    stamps: Vec<u8>,
    /// Per set, the last stamp handed out in it (at least every stamp the
    /// set holds).
    clocks: Vec<u8>,
    /// One bit per way.
    dirty: PackedBits,
    hits: u64,
    misses: u64,
}

impl SetAssocArray {
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
            tags: Tags::new(total),
            stamps: vec![0; total],
            clocks: vec![0; sets as usize],
            dirty: PackedBits::new(total, 1),
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
    fn ways_of(&self, set: u64) -> Range<usize> {
        let base = set as usize * self.ways;
        base..base + self.ways
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
        self.tags.find(self.ways_of(set), tag).is_some()
    }

    /// Looks up a line, allocating it on a miss (LRU victim) and updating
    /// recency. `write` marks the line dirty.
    pub fn access(&mut self, line_addr: u64, write: bool) -> AccessOutcome {
        self.access_way(line_addr, write).0
    }

    /// [`SetAssocArray::access`], also returning the index (`set * ways +
    /// way`, below the array's line count) of the way the line hit or was
    /// filled into, so a caller that keeps per-line state beside the array
    /// needs no second lookup. After a miss that displaced a line, it is
    /// the victim's way too.
    pub fn access_way(&mut self, line_addr: u64, write: bool) -> (AccessOutcome, usize) {
        let (set, tag) = self.locate(line_addr);
        if let Some(w) = self.tags.find(self.ways_of(set), tag) {
            self.touch(set, w);
            if write {
                self.dirty.set(w, 1);
            }
            self.hits += 1;
            return (AccessOutcome::Hit, w);
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
        let victim = self.tags.get(w).map(|old| EvictedLine {
            line_addr: ((old << self.set_bits) | set) * LINE_BYTES,
            dirty: self.dirty.get(w) != 0,
        });
        self.tags.set(w, tag);
        self.touch(set, w);
        self.dirty.set(w, u64::from(write));
        (AccessOutcome::Miss { victim }, w)
    }

    /// Invalidates a line (coherence). Returns whether it was present and
    /// dirty.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<bool> {
        let (set, tag) = self.locate(line_addr);
        let w = self.tags.find(self.ways_of(set), tag)?;
        self.tags.clear(w);
        self.stamps[w] = 0;
        let dirty = self.dirty.get(w) != 0;
        self.dirty.set(w, 0);
        Some(dirty)
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.tags.valid()
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

    fn tiny() -> SetAssocArray {
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
        c.access(SetAssocArray::align(0x7), false);
        assert!(c.probe(SetAssocArray::align(0x3f)));
        assert!(!c.probe(SetAssocArray::align(0x40)));
    }

    #[test]
    fn access_reports_the_way_of_the_line_and_of_its_victim() {
        let mut c = tiny();
        // Set 0 is ways 0 and 1, set 1 ways 2 and 3.
        assert_eq!(c.access_way(0, false).1, 0);
        assert_eq!(c.access_way(64, false).1, 2);
        assert_eq!(c.access_way(256, false).1, 1);
        assert_eq!(c.access_way(0, false), (AccessOutcome::Hit, 0));
        // 256 is set 0's LRU line: 512 takes its way.
        let (outcome, way) = c.access_way(512, true);
        assert_eq!(way, 1);
        assert_eq!(
            outcome,
            AccessOutcome::Miss {
                victim: Some(EvictedLine {
                    line_addr: 256,
                    dirty: false
                })
            }
        );
    }

    /// The width of `c`'s tags in bits.
    fn tag_bits(c: &SetAssocArray) -> u32 {
        match c.tags {
            Tags::W16(_) => 16,
            Tags::W32(_) => 32,
            Tags::W64(_) => 64,
        }
    }

    /// Asserts that `c` has no line at `line_addr` and that looking it up
    /// and invalidating it leave the tag width alone.
    fn misses_without_widening(c: &mut SetAssocArray, line_addr: u64) {
        let bits = tag_bits(c);
        assert!(!c.probe(line_addr), "{line_addr:#x} probed present");
        assert_eq!(c.invalidate(line_addr), None, "{line_addr:#x} invalidated");
        assert_eq!(tag_bits(c), bits, "a lookup of {line_addr:#x} widened");
    }

    /// Asserts that `c.access(line_addr, write)` misses and evicts `victim`.
    fn evicts(c: &mut SetAssocArray, line_addr: u64, write: bool, victim: (u64, bool)) {
        match c.access(line_addr, write) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!((v.line_addr, v.dirty), victim),
            other => panic!("{line_addr:#x}: expected eviction of {victim:?}, got {other:?}"),
        }
    }

    #[test]
    fn tags_widen_from_16_to_32_to_64_bits_keeping_every_line() {
        // One set of 2 ways: the tag is the line number. Each width's
        // all-ones value marks an invalid way, so it holds the tags below.
        let line = |tag: u64| tag * 64;
        let (max16, max32) = (u64::from(u16::MAX), u64::from(u32::MAX));
        let mut c = SetAssocArray::new(CacheConfig::new(2 * 64, 2));
        assert_eq!(tag_bits(&c), 16);
        c.access(line(1), true);
        c.access(line(max16 - 1), true);
        assert_eq!((tag_bits(&c), c.resident_lines()), (16, 2));
        // Too wide for 16 bits: the marker itself, and a tag whose low 16
        // bits are a resident tag.
        misses_without_widening(&mut c, line(max16));
        misses_without_widening(&mut c, line((1 << 16) | 1));

        // 16 → 32 bits: the dirty line `max16 - 1` stays, then leaves dirty.
        evicts(&mut c, line(max16), false, (line(1), true));
        assert_eq!(tag_bits(&c), 32);
        assert!(c.probe(line(max16 - 1)) && c.probe(line(max16)));
        evicts(&mut c, line(max32 - 1), true, (line(max16 - 1), true));
        assert_eq!(tag_bits(&c), 32);
        misses_without_widening(&mut c, line(max32));
        misses_without_widening(&mut c, line((1 << 32) | max16));

        // 32 → 64 bits: the dirty line `max32 - 1` stays, then leaves dirty.
        evicts(&mut c, line(max32), false, (line(max16), false));
        assert_eq!(tag_bits(&c), 64);
        assert!(c.probe(line(max32 - 1)) && c.probe(line(max32)));
        evicts(&mut c, !63, true, (line(max32 - 1), true));
        // Narrow tags again: the array stays at 64 bits.
        evicts(&mut c, line(2), false, (line(max32), false));
        assert_eq!(tag_bits(&c), 64);
        assert_eq!(c.invalidate(!63), Some(true));
        assert_eq!(c.resident_lines(), 1);
        assert!(c.probe(line(2)) && !c.probe(!63));
        assert_eq!((c.hits(), c.misses()), (0, 7));

        // A 16-bit array meeting a 64-bit tag widens straight through.
        let mut c = SetAssocArray::new(CacheConfig::new(2 * 64, 2));
        c.access(line(1), true);
        c.access(!63, false);
        assert_eq!(tag_bits(&c), 64);
        assert!(c.probe(line(1)) && c.probe(!63));
        evicts(&mut c, line(2), false, (line(1), true));
        evicts(&mut c, line(3), false, (!63, false));
    }

    #[test]
    fn packed_fields_stay_apart() {
        for width in [1, 2, 4, 8, 16, 32, 64] {
            let mut bits = PackedBits::new(100, width);
            let mask = u64::MAX >> (64 - width);
            let value = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask;
            for i in 0..100 {
                bits.set(i, value(i));
            }
            for i in (0..100).step_by(3) {
                bits.set(i, 0);
            }
            for i in 0..100 {
                let want = if i % 3 == 0 { 0 } else { value(i) };
                assert_eq!(bits.get(i), want, "field {i} of width {width}");
            }
            assert_eq!(bits.words.len(), (100 * width as usize).div_ceil(64));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two number of sets")]
    fn non_power_of_two_set_counts_are_rejected() {
        let three_sets = CacheConfig {
            size_bytes: 3 * 2 * 64,
            ways: 2,
        };
        let _: SetAssocArray = SetAssocArray::new(three_sets);
    }

    #[test]
    fn renumbering_keeps_the_order_and_the_invalid_ways() {
        // One set of 4 ways: every line maps to it.
        let mut c: SetAssocArray = SetAssocArray::new(CacheConfig::new(4 * 64, 4));
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
        let _: SetAssocArray = SetAssocArray::new(wide);
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
