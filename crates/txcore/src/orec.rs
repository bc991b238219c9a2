//! Versioned ownership records (orecs).
//!
//! Word-based STMs associate every heap word, by hashing, with an ownership
//! record that encodes either a *version* (the global-clock timestamp of the
//! last committed writer) or a *lock* held by a writing transaction. One
//! 64-bit word encodes both states:
//!
//! ```text
//! bit 63      = lock bit
//! bits 0..62  = version        (when unlocked)
//!             = owner thread   (when locked)
//! ```

use crate::abort::Abort;
use crate::heap::Addr;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

const LOCK_BIT: u64 = 1 << 63;

/// Identifies the transaction (by thread slot) holding an orec lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OwnerTag(pub u64);

/// Decoded state of an ownership record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrecState {
    /// Unlocked; carries the version of the last committed writer.
    Version(u64),
    /// Write-locked by the given owner.
    Locked(OwnerTag),
}

#[inline]
fn decode(raw: u64) -> OrecState {
    if raw & LOCK_BIT != 0 {
        OrecState::Locked(OwnerTag(raw & !LOCK_BIT))
    } else {
        OrecState::Version(raw)
    }
}

/// A fixed-size, hash-mapped table of ownership records.
///
/// The table size is a power of two; addresses map to records by striping
/// (consecutive words within a stripe share a record, as in TL2's
/// stripe-granularity locking).
pub struct OrecTable {
    recs: Box<[AtomicU64]>,
    mask: usize,
    stripe_shift: u32,
}

impl OrecTable {
    /// Create a table with `len` records (rounded up to a power of two) and
    /// the given stripe size in words (also a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `stripe_words` is zero.
    pub fn new(len: usize, stripe_words: usize) -> Self {
        assert!(stripe_words > 0, "stripe size must be positive");
        let len = len.next_power_of_two().max(2);
        let mut v = Vec::with_capacity(len);
        v.resize_with(len, || AtomicU64::new(0));
        OrecTable {
            recs: v.into_boxed_slice(),
            mask: len - 1,
            stripe_shift: stripe_words.next_power_of_two().trailing_zeros(),
        }
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether the table is empty (never true for a constructed table).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// Record index covering address `a`.
    #[inline]
    pub fn index_for(&self, a: Addr) -> usize {
        // Multiplicative hashing of the stripe number spreads adjacent
        // stripes across the table, avoiding systematic collisions between
        // neighbouring allocations.
        let stripe = (a.index() >> self.stripe_shift) as u64;
        (stripe.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) as usize & self.mask
    }

    /// Current decoded state of record `idx`.
    #[inline]
    pub fn load(&self, idx: usize) -> OrecState {
        decode(self.recs[idx].load(Ordering::Acquire))
    }

    /// Try to acquire the write lock on record `idx`.
    ///
    /// On success returns the version the record held before locking (the
    /// caller must remember it to restore on abort). Fails if the record is
    /// already locked, or if its version exceeds `max_version` (the caller's
    /// read snapshot) when `max_version` is `Some`.
    #[inline]
    pub fn try_lock(
        &self,
        idx: usize,
        owner: OwnerTag,
        max_version: Option<u64>,
    ) -> Result<u64, OrecState> {
        let cur = self.recs[idx].load(Ordering::Acquire);
        match decode(cur) {
            OrecState::Locked(o) => Err(OrecState::Locked(o)),
            OrecState::Version(v) => {
                if let Some(max) = max_version {
                    if v > max {
                        return Err(OrecState::Version(v));
                    }
                }
                match self.recs[idx].compare_exchange(
                    cur,
                    LOCK_BIT | owner.0,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => Ok(v),
                    Err(now) => Err(decode(now)),
                }
            }
        }
    }

    /// Lock record `idx` for `owner`, logging `(idx, pre-lock version)` in
    /// `held` — unless `owner` holds it already, which the record's own
    /// word says (`Locked(owner)`), so nobody searches `held` to find out.
    /// A record somebody else holds is a conflict that names it.
    #[inline]
    pub fn acquire(
        &self,
        idx: usize,
        owner: OwnerTag,
        held: &mut Vec<(u32, u64)>,
    ) -> Result<(), Abort> {
        match self.try_lock(idx, owner, None) {
            Ok(prev) => held.push((idx as u32, prev)),
            Err(OrecState::Locked(o)) if o == owner => {}
            Err(_) => return Err(Abort::conflict_at(idx)),
        }
        Ok(())
    }

    /// Lock record `idx` for `owner` by store (`Acquire` load, `Release`
    /// store, no RMW) and return the version it carried. Precondition: the
    /// caller holds the same index in the table that guards this one
    /// (SwissTM's write orecs), so nobody else can be writing this record.
    #[inline]
    pub fn lock_held(&self, idx: usize, owner: OwnerTag) -> u64 {
        let prev = self.recs[idx].load(Ordering::Acquire);
        debug_assert_eq!(prev & LOCK_BIT, 0, "guarded record already locked");
        self.recs[idx].store(LOCK_BIT | owner.0, Ordering::Release);
        prev
    }

    /// Release record `idx`, installing `version` as its new version.
    ///
    /// Used both at commit (with the fresh write version) and on abort (with
    /// the version saved by [`OrecTable::try_lock`]).
    #[inline]
    pub fn unlock(&self, idx: usize, version: u64) {
        debug_assert_eq!(version & LOCK_BIT, 0, "version overflow into lock bit");
        self.recs[idx].store(version, Ordering::Release);
    }

    /// Store a plain version without any locking protocol (tests stage a
    /// concurrent commit this way).
    #[inline]
    pub fn store_version(&self, idx: usize, version: u64) {
        debug_assert_eq!(version & LOCK_BIT, 0, "version overflow into lock bit");
        self.recs[idx].store(version, Ordering::Release);
    }

    /// Validation helper: record is consistent with a snapshot `rv` if it is
    /// unlocked with version ≤ `rv`, or locked by `me`.
    #[inline]
    pub fn validate(&self, idx: usize, rv: u64, me: OwnerTag) -> bool {
        match self.load(idx) {
            OrecState::Version(v) => v <= rv,
            OrecState::Locked(o) => o == me,
        }
    }
}

impl fmt::Debug for OrecTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrecTable")
            .field("len", &self.recs.len())
            .field("stripe_words", &(1usize << self.stripe_shift))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_unlock_roundtrip() {
        let t = OrecTable::new(16, 4);
        let me = OwnerTag(3);
        let prev = t.try_lock(0, me, None).expect("lock should succeed");
        assert_eq!(prev, 0);
        assert_eq!(t.load(0), OrecState::Locked(me));
        t.unlock(0, 42);
        assert_eq!(t.load(0), OrecState::Version(42));
    }

    #[test]
    fn lock_held_stores_the_owner_and_returns_the_version() {
        let t = OrecTable::new(16, 4);
        let me = OwnerTag(5);
        t.store_version(4, 17);
        assert_eq!(t.lock_held(4, me), 17);
        assert_eq!(t.load(4), OrecState::Locked(me));
        // To everybody else it is a lock like any other.
        assert_eq!(t.try_lock(4, OwnerTag(6), None), Err(OrecState::Locked(me)));
        t.unlock(4, 17);
        assert_eq!(t.load(4), OrecState::Version(17));
    }

    #[test]
    fn double_lock_fails_with_owner() {
        let t = OrecTable::new(16, 4);
        t.try_lock(1, OwnerTag(1), None).unwrap();
        match t.try_lock(1, OwnerTag(2), None) {
            Err(OrecState::Locked(o)) => assert_eq!(o, OwnerTag(1)),
            other => panic!("expected locked error, got {other:?}"),
        }
    }

    #[test]
    fn lock_respects_max_version() {
        let t = OrecTable::new(16, 4);
        t.store_version(2, 100);
        assert!(t.try_lock(2, OwnerTag(1), Some(50)).is_err());
        assert!(t.try_lock(2, OwnerTag(1), Some(100)).is_ok());
    }

    #[test]
    fn validate_rules() {
        let t = OrecTable::new(16, 4);
        let me = OwnerTag(7);
        t.store_version(3, 10);
        assert!(t.validate(3, 10, me));
        assert!(!t.validate(3, 9, me));
        t.try_lock(3, me, None).unwrap();
        assert!(t.validate(3, 0, me), "own lock validates");
        assert!(
            !t.validate(3, u64::MAX >> 1, OwnerTag(8)),
            "foreign lock fails"
        );
    }

    #[test]
    fn same_stripe_maps_to_same_record() {
        let t = OrecTable::new(1024, 4);
        assert_eq!(t.index_for(Addr(0)), t.index_for(Addr(3)));
        // Different stripes usually differ (hash may collide, but not for
        // these two specific stripes given the fixed multiplier).
        assert_ne!(t.index_for(Addr(0)), t.index_for(Addr(4096)));
    }

    #[test]
    fn table_len_rounds_to_power_of_two() {
        let t = OrecTable::new(1000, 1);
        assert_eq!(t.len(), 1024);
        assert!(!t.is_empty());
    }
}
