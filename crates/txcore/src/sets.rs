//! Transactional access sets: the read log and the redo (write) log.
//!
//! Both sets sit on the per-transaction fast path — every transactional
//! read consults the write set first (read-after-write consistency) and
//! every backend walks the read set at validation time — so their layout
//! is tuned for the common short TM transaction while staying O(1)
//! amortized for large ones:
//!
//! * entries live in a plain insertion-ordered `Vec` (backends lock and
//!   write back in that order);
//! * lookups use a linear scan while the set is small (at most
//!   [`INLINE_MAX`] entries — one or two cache lines, cheaper than any
//!   hash) and spill into an [`OpenIndex`], a private open-addressed
//!   linear-probe table, beyond it;
//! * `clear` never drops capacity, so a retried transaction reuses every
//!   allocation of its previous attempt (see the counting-allocator test
//!   in `crates/stm/tests/alloc_reuse.rs`) — and it returns the set to the
//!   inline representation, so having spilled is a property of one
//!   transaction: the short transaction after a long one scans again, and
//!   pays nothing for an index it never filled.

use crate::heap::Addr;

/// Entry count up to which lookups stay on a linear scan over the entry
/// array. Short transactions — the common TM case — never pay for hashing
/// or index maintenance.
const INLINE_MAX: usize = 8;

/// A private open-addressed index from a `u32` key to the position of its
/// newest entry in the owning set's entry array.
///
/// Slots pack `key << 32 | (pos + 1)` into one `u64` (`0` = empty), so a
/// probe touches a single flat array with no per-slot indirection. Linear
/// probing with a Fibonacci-multiplied hash; the table grows at 50% load,
/// so probes stay O(1) amortized. Replaces the `HashMap<u32, u32>` spill
/// the write set used to build: same contract, no SipHash and no
/// per-rehash allocation churn.
#[derive(Debug, Default, Clone)]
struct OpenIndex {
    slots: Vec<u64>,
    mask: usize,
    used: usize,
}

/// Where the probe for `key` starts in a table of `mask + 1` slots
/// (Fibonacci-multiplied hash).
#[inline]
fn home_slot(key: u32, mask: usize) -> usize {
    ((key as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask
}

/// Double `slots` (or seed the table) and rehash the entries `live`
/// keeps; returns the new mask.
#[cold]
fn grow_table(slots: &mut Vec<u64>, live: impl Fn(u64) -> bool) -> usize {
    let new_len = (slots.len() * 2).max(32);
    let old = std::mem::replace(slots, vec![0u64; new_len]);
    let mask = new_len - 1;
    for s in old.into_iter().filter(|&s| live(s)) {
        let mut i = home_slot((s >> 32) as u32, mask);
        while slots[i] != 0 {
            i = (i + 1) & mask;
        }
        slots[i] = s;
    }
    mask
}

impl OpenIndex {
    /// Whether the owning set has spilled into this index since it was
    /// last cleared.
    #[inline]
    fn spilled(&self) -> bool {
        self.used > 0
    }

    /// Forget every entry but keep the slot allocation. An index nothing
    /// spilled into since the last clear is not touched.
    #[inline]
    fn clear(&mut self) {
        if self.used > 0 {
            self.slots.fill(0);
            self.used = 0;
        }
    }

    /// Position of the newest entry recorded for `key`.
    #[inline]
    fn get(&self, key: u32) -> Option<u32> {
        debug_assert!(self.spilled());
        let mut i = home_slot(key, self.mask);
        loop {
            let s = self.slots[i];
            if s == 0 {
                return None;
            }
            if (s >> 32) as u32 == key {
                return Some(s as u32 - 1);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Record `key → pos`, replacing any earlier position for `key`.
    fn set(&mut self, key: u32, pos: u32) {
        if self.used * 2 >= self.slots.len() {
            self.mask = grow_table(&mut self.slots, |s| s != 0);
        }
        let mut i = home_slot(key, self.mask);
        loop {
            let s = self.slots[i];
            if s == 0 {
                self.slots[i] = (key as u64) << 32 | (pos as u64 + 1);
                self.used += 1;
                return;
            }
            if (s >> 32) as u32 == key {
                self.slots[i] = (key as u64) << 32 | (pos as u64 + 1);
                return;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Build the index from scratch over `pairs` (later pairs win).
    #[cold]
    fn build(&mut self, pairs: impl Iterator<Item = (u32, u32)>) {
        self.clear();
        for (key, pos) in pairs {
            self.set(key, pos);
        }
    }
}

/// A transaction's read log.
///
/// Two representations coexist because the backends need different
/// validation styles:
///
/// * *orec entries* — `(record index, observed version)` pairs, validated
///   against ownership records (TL2, TinySTM, SwissTM);
/// * *value entries* — `(address, observed value)` pairs, re-read and
///   compared for NOrec's value-based validation.
///
/// Both logs deduplicate re-observations, so a transaction that reads the
/// same stripe in a loop keeps a read set proportional to its *footprint*,
/// not its read count — and every validation walk (including SwissTM's
/// snapshot extensions, which re-walk the whole log) shrinks accordingly.
/// The dedup check is O(1) always: while the log is small it compares
/// against the *newest* entry only (catching the dominant consecutive
/// re-read pattern without a scan); once the log spills to its index it
/// dedups against the newest observation recorded for the key. A
/// re-observation at a different version/value is appended, preserving
/// exact validation semantics.
#[derive(Debug, Default, Clone)]
pub struct ReadSet {
    orecs: Vec<(u32, u64)>,
    orec_index: OpenIndex,
    values: Vec<(Addr, u64)>,
    value_index: OpenIndex,
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
        self.orec_index.clear();
        self.value_index.clear();
    }

    /// Record that orec `idx` was observed at `version`. A duplicate of
    /// the newest observation (for the log's tail while inline, for `idx`
    /// once indexed) is dropped.
    #[inline]
    pub fn push_orec(&mut self, idx: usize, version: u64) {
        let key = idx as u32;
        // Tail compare first: the hot case is a loop re-reading the stripe
        // it just read, and it must cost one compare — before any index
        // bookkeeping. Correct in both representations (the tail is the
        // newest observation overall, so a tail hit is always a safe drop).
        if self.orecs.last() == Some(&(key, version)) {
            return;
        }
        if self.orec_index.spilled() {
            if let Some(pos) = self.orec_index.get(key) {
                if self.orecs[pos as usize].1 == version {
                    return;
                }
            }
            let pos = self.orecs.len() as u32;
            self.orecs.push((key, version));
            self.orec_index.set(key, pos);
            return;
        }
        self.orecs.push((key, version));
        if self.orecs.len() > INLINE_MAX {
            self.orec_index
                .build(self.orecs.iter().enumerate().map(|(i, e)| (e.0, i as u32)));
        }
    }

    /// Record that address `a` was observed holding `value`. A duplicate
    /// of the newest observation (for the log's tail while inline, for `a`
    /// once indexed) is dropped.
    #[inline]
    pub fn push_value(&mut self, a: Addr, value: u64) {
        // Tail compare first — see `push_orec`.
        if self.values.last() == Some(&(a, value)) {
            return;
        }
        if self.value_index.spilled() {
            if let Some(pos) = self.value_index.get(a.0) {
                if self.values[pos as usize].1 == value {
                    return;
                }
            }
            let pos = self.values.len() as u32;
            self.values.push((a, value));
            self.value_index.set(a.0, pos);
            return;
        }
        self.values.push((a, value));
        if self.values.len() > INLINE_MAX {
            self.value_index.build(
                self.values
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.0 .0, i as u32)),
            );
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

    /// Total number of logged (distinct) reads.
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
/// Lookup must be fast because every transactional read first consults the
/// write set (read-after-write consistency): a linear scan up to
/// [`INLINE_MAX`] entries, an [`OpenIndex`] probe — O(1) amortized —
/// beyond. Entries stay in insertion order for lock acquisition and
/// write-back.
#[derive(Debug, Default, Clone)]
pub struct WriteSet {
    entries: Vec<(Addr, u64)>,
    index: OpenIndex,
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
    pub fn insert(&mut self, a: Addr, value: u64) {
        if self.index.spilled() {
            if let Some(pos) = self.index.get(a.0) {
                self.entries[pos as usize].1 = value;
                return;
            }
            let pos = self.entries.len() as u32;
            self.entries.push((a, value));
            self.index.set(a.0, pos);
            return;
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == a) {
            e.1 = value;
            return;
        }
        self.entries.push((a, value));
        if self.entries.len() > INLINE_MAX {
            self.index.build(
                self.entries
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.0 .0, i as u32)),
            );
        }
    }

    /// The buffered value for `a`, if this transaction wrote it.
    ///
    /// Read-only over the current representation (the spill to the index
    /// happens in [`WriteSet::insert`]), so reads can be issued through a
    /// shared reference.
    #[inline]
    pub fn get(&self, a: Addr) -> Option<u64> {
        // Empty-set early out: every transactional read consults the write
        // set, and in read-only transactions — the majority in most TM
        // workloads — this is the whole call.
        if self.entries.is_empty() {
            return None;
        }
        if self.index.spilled() {
            self.index.get(a.0).map(|p| self.entries[p as usize].1)
        } else {
            self.entries.iter().find(|e| e.0 == a).map(|e| e.1)
        }
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
/// Exact — the distinct-line count, and so the access at which a capacity
/// abort fires, is a plain set's — in one open-addressed table of
/// `line << 32 | stamp` slots. A slot is occupied only while its stamp is
/// the current one, so `clear` is a stamp bump and an access costs the
/// compare against the previous access (consecutive words of one record
/// share a line) or one find-or-claim probe. A stale slot ends a probe as
/// a never-used one does: within one stamp slots are claimed, never
/// released, so a tracked line's probe path stays occupied (DESIGN.md §9).
#[derive(Debug, Clone)]
pub struct LineSet {
    slots: Vec<u64>,
    mask: usize,
    /// Current generation; never 0, so a zeroed slot is always stale.
    stamp: u32,
    len: usize,
    /// Slot word of the previous tracked access (stale after a `clear`).
    last: u64,
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LineSet {
    /// An empty line set.
    pub fn new() -> Self {
        LineSet {
            slots: Vec::new(),
            mask: 0,
            stamp: 1,
            len: 0,
            last: 0,
        }
    }

    /// Forget all lines, retaining capacity.
    #[inline]
    pub fn clear(&mut self) {
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
        self.slots.fill(0);
        self.stamp = 1;
        self.last = 0;
    }

    /// Number of distinct lines tracked.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no line has been touched yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Track `line`. Returns false — and tracks nothing — when the line is
    /// new and the set already holds `cap` lines.
    #[inline]
    pub fn insert(&mut self, line: u32, cap: usize) -> bool {
        // The inlined part is this one compare; the probe is a call.
        let want = (line as u64) << 32 | self.stamp as u64;
        self.last == want || self.find_or_claim(want, cap)
    }

    fn find_or_claim(&mut self, want: u64, cap: usize) -> bool {
        if self.len * 2 >= self.slots.len() {
            self.mask = grow_table(&mut self.slots, |s| s as u32 == self.stamp);
        }
        let mut i = home_slot((want >> 32) as u32, self.mask);
        loop {
            let s = self.slots[i];
            if s == want {
                break;
            }
            if s as u32 != self.stamp {
                if self.len >= cap {
                    return false;
                }
                self.slots[i] = want;
                self.len += 1;
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.last = want;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The pre-index reference: the linear-scan write set the indexed one
    /// must be observably equivalent to (modulo speed).
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
    fn write_set_switches_to_index_transparently() {
        let mut ws = WriteSet::new();
        for i in 0..100u32 {
            ws.insert(Addr(i), i as u64);
        }
        for i in 0..100u32 {
            assert_eq!(ws.get(Addr(i)), Some(i as u64));
        }
        // Overwrites after indexing still work.
        ws.insert(Addr(50), 999);
        assert_eq!(ws.get(Addr(50)), Some(999));
        assert_eq!(ws.len(), 100);
    }

    #[test]
    fn write_set_preserves_insertion_order() {
        // Backends lock and write back in insertion order; the index spill
        // must never reorder entries.
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
    fn a_small_transaction_after_a_large_one_leaves_the_index_untouched() {
        let mut ws = WriteSet::new();
        let mut rs = ReadSet::new();
        for i in 0..40u32 {
            ws.insert(Addr(i), 1);
            rs.push_orec(i as usize, 1);
            rs.push_value(Addr(i), 1);
        }
        assert!(ws.index.spilled() && rs.orec_index.spilled() && rs.value_index.spilled());
        ws.clear();
        rs.clear();
        let slots = ws.index.slots.len();
        assert!(slots > 0, "the allocation is kept");
        // Three entries scan inline: nothing is hashed into the index, so
        // the next clear has nothing to wipe.
        for i in [7u32, 3, 7, 9] {
            ws.insert(Addr(i), u64::from(i));
            rs.push_orec(i as usize, 2);
            rs.push_value(Addr(i), 2);
        }
        assert_eq!(ws.len(), 3);
        assert_eq!(ws.get(Addr(3)), Some(3));
        for index in [&ws.index, &rs.orec_index, &rs.value_index] {
            assert!(!index.spilled());
            assert!(index.slots.iter().all(|&s| s == 0));
        }
        assert_eq!(ws.index.slots.len(), slots);
        // Inline dedup is against the tail only, as in a fresh set.
        assert_eq!(rs.orecs(), &[(7, 2), (3, 2), (7, 2), (9, 2)]);
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
    fn line_set_wipes_its_table_when_the_stamp_wraps() {
        // Generation 1 fills some slots; 2^32 - 1 clears later the stamp
        // is 1 again, and those slots must not read as tracked.
        let mut ls = LineSet::new();
        for line in 0..5u32 {
            assert!(ls.insert(line, 8));
        }
        ls.stamp = u32::MAX;
        ls.clear();
        assert_eq!((ls.stamp, ls.len()), (1, 0));
        assert!(ls.slots.iter().all(|&s| s == 0) && !ls.slots.is_empty());
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
    fn read_set_dedup_survives_index_spill() {
        let mut rs = ReadSet::new();
        // Spill the orec log past the inline threshold ...
        for i in 0..(INLINE_MAX as u32 + 4) {
            rs.push_orec(i as usize, 1);
        }
        let n = rs.orecs().len();
        // ... then hammer re-observations: nothing may be appended.
        for _ in 0..100 {
            for i in 0..(INLINE_MAX as u32 + 4) {
                rs.push_orec(i as usize, 1);
            }
        }
        assert_eq!(rs.orecs().len(), n);
        for i in 0..(INLINE_MAX as u32 + 4) {
            rs.push_value(Addr(i), 7);
            rs.push_value(Addr(i), 7);
        }
        assert_eq!(rs.values().len(), INLINE_MAX + 4);
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
        fn indexed_write_set_matches_linear_scan_model(
            ops in proptest::collection::vec((0u32..16, 0u32..48, 0u64..1000), 0..400),
        ) {
            // Equivalence against the pre-change linear-scan implementation:
            // same lookups, same entry order, same lengths — interleaving
            // reads, writes and clears so lookups hit every representation
            // state (inline, freshly spilled, long-indexed, and inline
            // again after a clear that followed a spill).
            let mut ws = WriteSet::new();
            let mut model = LinearWriteSet::default();
            for (op, a, v) in ops {
                match op {
                    0 => {
                        ws.clear();
                        model.entries.clear();
                        proptest::prop_assert!(!ws.index.spilled());
                    }
                    1..=8 => {
                        ws.insert(Addr(a), v);
                        model.insert(Addr(a), v);
                    }
                    _ => proptest::prop_assert_eq!(ws.get(Addr(a)), model.get(Addr(a))),
                }
                proptest::prop_assert_eq!(ws.index.spilled(), ws.len() > INLINE_MAX);
            }
            proptest::prop_assert_eq!(ws.entries(), model.entries.as_slice());
        }

        #[test]
        fn line_set_matches_a_set_model_across_the_stamp_wrap(
            cap in 0usize..120,
            clears_left in 0u32..6,
            ops in proptest::collection::vec((0u32..12, 0u32..100), 0..600),
        ) {
            // Starts a few clears short of the wrap, so most cases cross
            // it — some with a table already grown, some before the first
            // slot exists — and every decision before, at and after the
            // wipe must be the plain set's.
            let mut set = LineSet {
                stamp: u32::MAX - clears_left,
                ..LineSet::new()
            };
            let mut model = std::collections::BTreeSet::new();
            for (op, line) in ops {
                if op == 0 {
                    set.clear();
                    model.clear();
                    proptest::prop_assert!(set.stamp != 0);
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
        }

        #[test]
        fn open_index_tracks_every_key(keys in proptest::collection::vec(0u32..10_000, 0..400)) {
            let mut idx = OpenIndex::default();
            let mut model = std::collections::HashMap::new();
            for (pos, k) in keys.iter().enumerate() {
                idx.set(*k, pos as u32);
                model.insert(*k, pos as u32);
            }
            if !model.is_empty() {
                for (k, pos) in &model {
                    proptest::prop_assert_eq!(idx.get(*k), Some(*pos));
                }
                proptest::prop_assert_eq!(idx.get(10_001), None);
            }
        }
    }
}
