//! Transactional access sets: the read log, the redo (write) log and the
//! simulated HTM's line footprint.
//!
//! All three sit on the per-access fast path — every transactional read
//! consults the write set first (read-after-write consistency) and logs
//! itself in the read log, and every backend walks that log at validation
//! time — so an access costs O(1) and nothing is zeroed per transaction:
//!
//! * the read log is two plain vecs with no index: a push drops only an
//!   exact repeat of the newest entry and appends anything else, as the
//!   TL2, TinySTM and NOrec papers log reads;
//! * `WriteSet` indexes its entries in a stamped open-addressed table
//!   (`StampedTable`): `clear` is a stamp bump, and from the first entry
//!   on an insert or a lookup is one find-or-claim probe;
//! * `LineSet` logs an attempt's accesses in a plain vec until they reach
//!   its capacity, and only then claims them in the same kind of table:
//!   below that point an access is a length compare and a push, and an
//!   attempt that goes exact claims each logged access once;
//! * `clear` never drops capacity, so a retried transaction reuses every
//!   allocation of its previous attempt (see the counting-allocator tests
//!   in `crates/{stm,htm}/tests/alloc_reuse.rs`).

use crate::heap::Addr;

/// Where the probe for `key` starts in a table of `mask + 1` slots
/// (Fibonacci-multiplied hash).
#[inline]
fn home_slot(key: u32, mask: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// An open-addressed, linear-probe set of `u32` keys, each slot carrying a
/// payload `P`: the index of `WriteSet` (payload: the entry's position) and
/// the lines of an exact `LineSet` attempt (payload: none).
///
/// A slot packs `key << 32 | stamp` and counts as occupied only while its
/// stamp is the table's current one, so `clear` is a stamp bump; the table
/// is zeroed only when the `u32` stamp wraps, once per 2³² clears. A stale
/// slot ends a probe exactly as a never-used one does: within one stamp,
/// slots are claimed and never released, so every slot between a key's
/// home and the one it claimed held a current key at that moment and still
/// does — a probe for a tracked key reaches it before it can meet a stale
/// slot, and a probe that meets one has proved the key absent. The table
/// grows at 50 % load, so every probe meets one and stays O(1) amortized.
#[derive(Debug, Clone)]
struct StampedTable<P> {
    slots: Vec<(u64, P)>,
    mask: usize,
    /// Current generation; never 0, so a zeroed slot is always stale.
    stamp: u32,
    /// Keys claimed under the current stamp.
    len: usize,
}

impl<P> Default for StampedTable<P> {
    fn default() -> Self {
        StampedTable {
            slots: Vec::new(),
            mask: 0,
            stamp: 1,
            len: 0,
        }
    }
}

impl<P: Copy + Default> StampedTable<P> {
    /// The slot word of `key` under the current stamp.
    #[inline]
    fn word(&self, key: u32) -> u64 {
        (key as u64) << 32 | self.stamp as u64
    }

    /// Forget every key, retaining capacity.
    #[inline]
    fn clear(&mut self) {
        if self.len != 0 {
            self.len = 0;
            self.stamp = self.stamp.wrapping_add(1);
            if self.stamp == 0 {
                self.wipe();
            }
        }
    }

    /// The stamp wrapped: slots of the first generations would read as
    /// current again, so start over from a zeroed table.
    #[cold]
    fn wipe(&mut self) {
        self.slots.fill((0, P::default()));
        self.stamp = 1;
    }

    /// `Ok` with the slot holding `key`, or `Err` with the stale slot where
    /// it would be claimed. Needs a stale slot to exist (see `reserve`).
    #[inline]
    fn probe(&self, key: u32) -> Result<usize, usize> {
        let want = self.word(key);
        let mut i = home_slot(key, self.mask);
        loop {
            let s = self.slots[i].0;
            if s == want {
                return Ok(i);
            }
            if s as u32 != self.stamp {
                return Err(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Make room to claim one more key.
    #[inline]
    fn reserve(&mut self) {
        if self.len * 2 >= self.slots.len() {
            self.grow();
        }
    }

    /// Double the table (or seed it) and re-claim the current keys.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(32);
        let old = std::mem::replace(&mut self.slots, vec![(0, P::default()); new_len]);
        self.mask = new_len - 1;
        for (s, payload) in old.into_iter().filter(|&(s, _)| s as u32 == self.stamp) {
            let (Ok(i) | Err(i)) = self.probe((s >> 32) as u32);
            self.slots[i] = (s, payload);
        }
    }

    /// Claim slot `i`, the `Err` of `probe(key)`, for `key`.
    #[inline]
    fn claim(&mut self, i: usize, key: u32, payload: P) {
        self.slots[i] = (self.word(key), payload);
        self.len += 1;
    }
}

/// A transaction's read log.
///
/// Two logs, because the backends need different validation styles:
///
/// * *orec entries* — `(record index, observed version)` pairs, validated
///   against ownership records (TL2, TinySTM, SwissTM);
/// * *value entries* — `(address, observed value)` pairs, re-read and
///   compared for NOrec's value-based validation.
///
/// Neither has an index. A push drops only an exact repeat of the log's
/// newest entry — a loop re-reading the stripe it just read costs one
/// compare — and appends anything else, an earlier location read again
/// included, as the original algorithms do. Every logged read is
/// validated; the first observation of a location is still first in the
/// log, so a validation walk fails on the entry, and names the stripe, that
/// a deduplicated log would; and validation costs what the transaction
/// read.
#[derive(Debug, Default, Clone)]
pub struct ReadSet {
    orecs: Vec<(u32, u64)>,
    values: Vec<(Addr, u64)>,
}

impl ReadSet {
    /// An empty read set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all entries, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.orecs.clear();
        self.values.clear();
    }

    /// Record that orec `idx` was observed at `version`, unless that is
    /// the newest entry already.
    #[inline]
    pub fn push_orec(&mut self, idx: usize, version: u64) {
        let e = (idx as u32, version);
        if self.orecs.last() != Some(&e) {
            self.orecs.push(e);
        }
    }

    /// Record that address `a` was observed holding `value`, unless that
    /// is the newest entry already.
    #[inline]
    pub fn push_value(&mut self, a: Addr, value: u64) {
        let e = (a, value);
        if self.values.last() != Some(&e) {
            self.values.push(e);
        }
    }

    /// Orec entries as `(record index, observed version)`.
    #[inline]
    pub fn orecs(&self) -> &[(u32, u64)] {
        &self.orecs
    }

    /// Value entries as `(address, observed value)`.
    #[inline]
    pub fn values(&self) -> &[(Addr, u64)] {
        &self.values
    }

    /// Total number of logged reads: a location read again after another
    /// counts again, so this is reads logged, not distinct locations.
    #[inline]
    pub fn len(&self) -> usize {
        self.orecs.len() + self.values.len()
    }

    /// Whether nothing has been read yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.orecs.is_empty() && self.values.is_empty()
    }
}

/// A transaction's redo log: buffered writes applied to the heap at commit.
///
/// Entries stay in insertion order for lock acquisition and write-back.
/// Lookup must be fast because every transactional read first consults the
/// write set (read-after-write consistency): a `StampedTable` maps each
/// written address to its entry's position, so an insert or a lookup in a
/// non-empty set is one probe, and `clear` is a stamp bump.
#[derive(Debug, Default, Clone)]
pub struct WriteSet {
    entries: Vec<(Addr, u64)>,
    index: StampedTable<u32>,
}

impl WriteSet {
    /// An empty write set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all entries, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.entries.clear();
        self.index.clear();
    }

    /// Number of distinct addresses written.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been written yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Buffer a write of `value` to address `a`, overwriting any earlier
    /// write to the same address.
    #[inline]
    pub fn insert(&mut self, a: Addr, value: u64) {
        self.index.reserve();
        match self.index.probe(a.0) {
            Ok(i) => self.entries[self.index.slots[i].1 as usize].1 = value,
            Err(i) => {
                self.index.claim(i, a.0, self.entries.len() as u32);
                self.entries.push((a, value));
            }
        }
    }

    /// The buffered value for `a`, if this transaction wrote it.
    #[inline]
    pub fn get(&self, a: Addr) -> Option<u64> {
        // Empty-set early out: every transactional read consults the write
        // set, and in read-only transactions — the majority in most TM
        // workloads — this is the whole call. (It also covers the table
        // that has never been seeded.)
        if self.entries.is_empty() {
            return None;
        }
        let i = self.index.probe(a.0).ok()?;
        Some(self.entries[self.index.slots[i].1 as usize].1)
    }

    /// All buffered writes in insertion order.
    #[inline]
    pub fn entries(&self) -> &[(Addr, u64)] {
        &self.entries
    }
}

/// The distinct cache lines one speculative attempt has touched: the
/// simulated HTM's read or write footprint, bounded by a capacity.
///
/// Exact — `insert` accepts a line iff it is already tracked or fewer than
/// `cap` distinct lines are, so a capacity abort fires on the access a
/// plain set would name — but lazy about it (DESIGN.md §9). An attempt
/// starts *lazy*: every access is pushed onto a plain log, repeats
/// included. While the log holds fewer than `cap` accesses it holds fewer
/// than `cap` distinct lines, so the answer is "accept" without looking.
/// The access that finds the log at `cap` or more builds the exact
/// `StampedTable` of lines from it, and from there the attempt is *exact*:
/// each access costs a compare against the previous one (consecutive words
/// of one record share a line) or one find-or-claim probe. Every decision
/// is the plain set's for any sequence of caps: the log length bounds the
/// distinct count from above, and the table is exact once built.
#[derive(Debug, Default, Clone)]
pub struct LineSet {
    /// Every access of a lazy attempt, in order.
    log: Vec<u32>,
    /// 0 while the attempt is lazy; `usize::MAX` once it is exact, so that
    /// `log.len() | exact < cap` holds for no cap.
    exact: usize,
    /// The attempt's distinct lines once it is exact; empty while lazy.
    table: StampedTable<()>,
    /// Slot word of the line the exact path last accepted; 0 (never a slot
    /// word) while lazy.
    last: u64,
}

impl LineSet {
    /// An empty line set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget all lines, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.log.clear();
        if self.exact != 0 {
            self.table.clear();
            self.last = 0;
            self.exact = 0;
        }
    }

    /// Number of distinct lines tracked.
    pub fn len(&self) -> usize {
        if self.exact != 0 {
            return self.table.len;
        }
        let mut lines = self.log.clone();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    /// Whether no line has been touched yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.log.is_empty() && self.table.len == 0
    }

    /// Track `line`. Returns false — and tracks nothing — when the line is
    /// new and the set already holds `cap` lines.
    #[inline]
    pub fn insert(&mut self, line: u32, cap: usize) -> bool {
        // The inlined part is this one compare and a push; the exact path
        // is a call.
        if (self.log.len() | self.exact) < cap {
            self.log.push(line);
            true
        } else {
            self.insert_exact(line, cap)
        }
    }

    fn insert_exact(&mut self, line: u32, cap: usize) -> bool {
        if self.exact == 0 {
            self.go_exact();
        }
        if self.last == self.table.word(line) {
            return true;
        }
        self.table.reserve();
        if let Err(i) = self.table.probe(line) {
            if self.table.len >= cap {
                return false;
            }
            self.table.claim(i, line, ());
        }
        self.last = self.table.word(line);
        true
    }

    /// The log reached the capacity: claim its lines in the table, which
    /// answers for the rest of the attempt.
    #[cold]
    fn go_exact(&mut self) {
        self.exact = usize::MAX;
        for &line in &self.log {
            self.table.reserve();
            if let Err(i) = self.table.probe(line) {
                self.table.claim(i, line, ());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear-scan reference the table-indexed write set must be
    /// observably equivalent to (modulo speed).
    #[derive(Default)]
    struct LinearWriteSet {
        entries: Vec<(Addr, u64)>,
    }

    impl LinearWriteSet {
        fn insert(&mut self, a: Addr, value: u64) {
            match self.entries.iter_mut().find(|e| e.0 == a) {
                Some(e) => e.1 = value,
                None => self.entries.push((a, value)),
            }
        }
        fn get(&self, a: Addr) -> Option<u64> {
            self.entries.iter().find(|e| e.0 == a).map(|e| e.1)
        }
    }

    #[test]
    fn write_set_read_after_write() {
        let mut ws = WriteSet::new();
        assert_eq!(ws.get(Addr(1)), None);
        ws.insert(Addr(1), 10);
        ws.insert(Addr(2), 20);
        assert_eq!(ws.get(Addr(1)), Some(10));
        ws.insert(Addr(1), 11);
        assert_eq!(ws.get(Addr(1)), Some(11));
        assert_eq!(ws.len(), 2, "overwrite must not duplicate");
    }

    #[test]
    fn write_set_tracks_every_address_across_growth() {
        let mut ws = WriteSet::new();
        for i in 0..100u32 {
            ws.insert(Addr(i), i as u64);
        }
        for i in 0..100u32 {
            assert_eq!(ws.get(Addr(i)), Some(i as u64));
        }
        // Overwrites after growth still work.
        ws.insert(Addr(50), 999);
        assert_eq!(ws.get(Addr(50)), Some(999));
        assert_eq!(ws.len(), 100);
    }

    #[test]
    fn write_set_preserves_insertion_order() {
        // Backends lock and write back in insertion order; growing the
        // table must never reorder entries.
        let mut ws = WriteSet::new();
        let addrs: Vec<u32> = (0..40u32).map(|i| i * 7 % 41).collect();
        for &a in &addrs {
            ws.insert(Addr(a), a as u64);
        }
        let got: Vec<u32> = ws.entries().iter().map(|e| e.0 .0).collect();
        assert_eq!(got, addrs);
    }

    #[test]
    fn write_set_clear_resets_index() {
        let mut ws = WriteSet::new();
        for i in 0..40u32 {
            ws.insert(Addr(i), 1);
        }
        ws.clear();
        assert!(ws.is_empty());
        assert_eq!(ws.get(Addr(3)), None);
        ws.insert(Addr(3), 7);
        assert_eq!(ws.get(Addr(3)), Some(7));
    }

    #[test]
    fn clear_keeps_every_allocation() {
        let mut ws = WriteSet::new();
        let mut rs = ReadSet::new();
        for i in 0..40u32 {
            ws.insert(Addr(i), 1);
            rs.push_orec(i as usize, 1);
            rs.push_value(Addr(i), 1);
        }
        let slots = ws.index.slots.len();
        assert!(slots > 0);
        ws.clear();
        rs.clear();
        assert_eq!(ws.index.slots.len(), slots, "the table is kept");
        assert!(ws.entries.capacity() >= 40);
        assert!(rs.orecs.capacity() >= 40 && rs.values.capacity() >= 40);
    }

    #[test]
    fn write_set_wipes_its_table_when_the_stamp_wraps() {
        // Generation 1 fills some slots; 2^32 - 1 clears later the stamp
        // is 1 again, and those slots must not read as written.
        let mut ws = WriteSet::new();
        for a in 0..5u32 {
            ws.insert(Addr(a), 10 + a as u64);
        }
        ws.index.stamp = u32::MAX;
        ws.clear();
        assert_eq!((ws.index.stamp, ws.len()), (1, 0));
        assert!(ws.index.slots.iter().all(|&(s, _)| s == 0) && !ws.index.slots.is_empty());
        ws.insert(Addr(3), 7);
        assert_eq!(ws.get(Addr(3)), Some(7));
        assert_eq!(ws.get(Addr(2)), None, "a wiped address reads unwritten");
        assert_eq!(ws.entries(), &[(Addr(3), 7)]);
    }

    #[test]
    fn line_set_counts_distinct_lines_up_to_its_capacity() {
        let mut ls = LineSet::new();
        assert!(ls.is_empty());
        for round in 0..3 {
            for line in 0..12u32 {
                assert!(ls.insert(line, 12), "round {round} line {line}");
            }
        }
        assert_eq!(ls.len(), 12);
        assert!(!ls.insert(99, 12), "a thirteenth line overflows");
        assert_eq!(ls.len(), 12, "a rejected line is not tracked");
        assert!(ls.insert(5, 12), "known lines still hit at capacity");
        ls.clear();
        assert!(ls.is_empty());
        assert!(ls.insert(99, 1));
        assert!(!ls.insert(5, 1));
    }

    #[test]
    fn line_set_stays_lazy_for_cap_accesses_over_fewer_lines() {
        let mut ls = LineSet::new();
        for i in 0..8u32 {
            assert!(ls.insert(i % 3, 8), "access {i}");
        }
        assert_eq!(ls.exact, 0);
        assert!(ls.table.slots.is_empty(), "the table is never built");
        assert_eq!(ls.len(), 3);
    }

    #[test]
    fn the_access_that_reaches_cap_goes_exact_and_accepts_iff_room() {
        // Eight accesses over three lines: the ninth finds the log at the
        // cap, builds the table, and a new line fits (3 < 8).
        let mut ls = LineSet::new();
        for i in 0..8u32 {
            assert!(ls.insert(i % 3, 8));
        }
        assert!(ls.insert(50, 8));
        assert_eq!((ls.exact, ls.len(), ls.table.len), (usize::MAX, 4, 4));
        // Eight distinct lines: the ninth access is a new line and does
        // not fit; a tracked one still does.
        let mut ls = LineSet::new();
        for line in 0..8u32 {
            assert!(ls.insert(line, 8));
        }
        assert!(!ls.insert(50, 8));
        assert_eq!((ls.exact, ls.len()), (usize::MAX, 8));
        assert!(ls.insert(2, 8));
        // A cap that drops to the log length switches too, and a cap that
        // rises again after the switch keeps the attempt exact.
        let mut ls = LineSet::new();
        assert!(ls.insert(1, 100) && ls.insert(1, 100));
        assert!(ls.insert(2, 2), "1 distinct < 2");
        assert_eq!(ls.exact, usize::MAX);
        assert!(ls.insert(3, 100));
        assert!(!ls.insert(4, 3), "3 distinct, cap 3");
        assert_eq!(
            (ls.log.len(), ls.len()),
            (2, 3),
            "exact accesses are not logged"
        );
    }

    #[test]
    fn clear_after_an_exact_attempt_returns_to_the_log_and_keeps_both_allocations() {
        let mut ls = LineSet::new();
        for line in 0..40u32 {
            assert!(ls.insert(line, 40));
        }
        assert!(ls.insert(0, 40));
        assert_eq!(ls.exact, usize::MAX);
        let (log_cap, slots) = (ls.log.capacity(), ls.table.slots.len());
        assert!(log_cap >= 40 && slots > 0);
        ls.clear();
        assert!(ls.is_empty());
        assert_eq!((ls.exact, ls.last, ls.table.len), (0, 0, 0));
        assert_eq!((ls.log.capacity(), ls.table.slots.len()), (log_cap, slots));
        assert!(ls.insert(7, 40));
        assert_eq!(
            (ls.log.as_slice(), ls.table.len),
            (&[7][..], 0),
            "lazy again"
        );
    }

    #[test]
    fn line_set_wipes_its_table_when_the_stamp_wraps() {
        // Generation 1 fills some slots; 2^32 - 1 clears later the stamp
        // is 1 again, and those slots must not read as tracked. A lazy
        // attempt leaves the table alone, so this one is driven exact.
        let mut ls = LineSet::new();
        for line in 0..5u32 {
            assert!(ls.insert(line, 8));
        }
        assert!(ls.insert(0, 5));
        assert_eq!(ls.table.len, 5);
        ls.table.stamp = u32::MAX;
        ls.clear();
        assert_eq!((ls.table.stamp, ls.len()), (1, 0));
        assert!(ls.table.slots.iter().all(|&(s, _)| s == 0) && !ls.table.slots.is_empty());
        assert!(ls.insert(99, 1));
        assert!(!ls.insert(3, 1), "a line of the wiped generation is new");
        assert!(ls.insert(99, 1));
    }

    #[test]
    fn read_set_tracks_both_kinds() {
        let mut rs = ReadSet::new();
        assert!(rs.is_empty());
        rs.push_orec(4, 17);
        rs.push_value(Addr(9), 99);
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.orecs(), &[(4, 17)]);
        assert_eq!(rs.values(), &[(Addr(9), 99)]);
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn read_set_dedups_identical_observations() {
        let mut rs = ReadSet::new();
        for _ in 0..100 {
            rs.push_orec(4, 17);
            rs.push_value(Addr(9), 99);
        }
        assert_eq!(rs.orecs(), &[(4, 17)]);
        assert_eq!(rs.values(), &[(Addr(9), 99)]);
        // A different version for the same orec is a distinct observation.
        rs.push_orec(4, 18);
        assert_eq!(rs.orecs(), &[(4, 17), (4, 18)]);
        // ... and re-observing the *newest* pair stays deduplicated.
        rs.push_orec(4, 18);
        assert_eq!(rs.orecs().len(), 2);
    }

    #[test]
    fn read_set_appends_a_non_consecutive_re_read_in_order() {
        let mut rs = ReadSet::new();
        for (idx, a) in [(1usize, 10u32), (1, 10), (2, 20), (1, 10), (1, 10)] {
            rs.push_orec(idx, 5);
            rs.push_value(Addr(a), 5);
        }
        // Each consecutive repeat is dropped; the re-read of 1 after 2 is
        // logged again, behind the first observation.
        assert_eq!(rs.orecs(), &[(1, 5), (2, 5), (1, 5)]);
        assert_eq!(rs.values(), &[(Addr(10), 5), (Addr(20), 5), (Addr(10), 5)]);
        assert_eq!(rs.len(), 6, "len counts reads logged, not locations");
    }

    proptest::proptest! {
        #[test]
        fn write_set_behaves_like_hashmap(ops in proptest::collection::vec((0u32..64, 0u64..1000), 0..200)) {
            let mut ws = WriteSet::new();
            let mut model = std::collections::HashMap::new();
            for (a, v) in ops {
                ws.insert(Addr(a), v);
                model.insert(a, v);
                proptest::prop_assert_eq!(ws.get(Addr(a)), Some(v));
            }
            proptest::prop_assert_eq!(ws.len(), model.len());
            for (a, v) in &model {
                proptest::prop_assert_eq!(ws.get(Addr(*a)), Some(*v));
            }
        }

        #[test]
        fn write_set_matches_a_linear_scan_model_across_the_stamp_wrap(
            clears_left in 0u32..6,
            ops in proptest::collection::vec((0u32..16, 0u32..48, 0u64..1000), 0..400),
        ) {
            // Starts a few clears short of the wrap, so most cases cross
            // it — some with a table already grown, some before the first
            // slot exists — and interleaves inserts, lookups and clears so
            // lookups meet fresh, grown and reused tables: every answer
            // before, at and after the wipe must be the linear scan's.
            let mut ws = WriteSet::new();
            ws.index.stamp = u32::MAX - clears_left;
            let mut model = LinearWriteSet::default();
            for (op, a, v) in ops {
                match op {
                    0 => {
                        ws.clear();
                        model.entries.clear();
                        proptest::prop_assert!(ws.index.stamp != 0);
                    }
                    1..=8 => {
                        ws.insert(Addr(a), v);
                        model.insert(Addr(a), v);
                    }
                    _ => {}
                }
                proptest::prop_assert_eq!(ws.get(Addr(a)), model.get(Addr(a)));
                proptest::prop_assert_eq!(ws.entries(), model.entries.as_slice());
                proptest::prop_assert_eq!(ws.len(), model.entries.len());
            }
        }

        #[test]
        fn line_set_matches_a_set_model_across_the_stamp_wrap(
            cap in 0usize..120,
            clears_left in 0u32..6,
            ops in proptest::collection::vec((0u32..12, 0u32..100), 0..600),
        ) {
            // One cap for the whole case.
            let steps = ops.into_iter().map(|(op, line)| (op == 0, line, cap));
            line_set_matches_a_set_model(clears_left, steps)?;
        }

        #[test]
        fn line_set_matches_a_set_model_for_any_cap_sequence(
            clears_left in 0u32..6,
            ops in proptest::collection::vec((0u32..40, 0u32..32, 0usize..24), 0..600),
        ) {
            // A fresh cap per access: the switch to exact lands wherever
            // the caps put it, and caps rise and fall on both sides of it.
            let steps = ops.into_iter().map(|(op, line, cap)| (op == 0, line, cap));
            line_set_matches_a_set_model(clears_left, steps)?;
        }
    }

    /// Drive a `LineSet` and a `BTreeSet` through `(clear?, line, cap)`
    /// steps from a stamp `clears_left` clears short of the wrap, so most
    /// cases cross it — some with a table already grown, some before the
    /// first slot exists: every decision before, at and after the wipe must
    /// be the plain set's.
    fn line_set_matches_a_set_model(
        clears_left: u32,
        steps: impl Iterator<Item = (bool, u32, usize)>,
    ) -> proptest::TestCaseResult {
        let mut set = LineSet::new();
        set.table.stamp = u32::MAX - clears_left;
        let mut model = std::collections::BTreeSet::new();
        for (clear, line, cap) in steps {
            if clear {
                set.clear();
                model.clear();
                proptest::prop_assert!(set.table.stamp != 0);
            } else {
                let fits = model.contains(&line) || model.len() < cap;
                if fits {
                    model.insert(line);
                }
                proptest::prop_assert_eq!(set.insert(line, cap), fits);
            }
            proptest::prop_assert_eq!(set.len(), model.len());
            proptest::prop_assert_eq!(set.is_empty(), model.is_empty());
        }
        Ok(())
    }
}
