//! Abort causes and the result alias threaded through transactional code.
//!
//! Since the conflict observatory (DESIGN.md §12) every [`Abort`] is a
//! *structured* cause: the code says **why** the attempt died and, for
//! data conflicts, the stripe id says **where**. Equality and hashing
//! deliberately ignore the stripe so protocol code (and the extensive
//! `assert_eq!(..., Err(Abort::CONFLICT))` test surface) keeps comparing
//! causes, not attribution payloads.

use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU64;

/// Why a transaction attempt failed.
///
/// The contention-management dimensions tuned by ProteusTM (retry budgets,
/// capacity-abort policies) dispatch on this code, so every backend reports
/// the cause faithfully.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AbortCode {
    /// Data conflict with a concurrent transaction (failed validation,
    /// encounter-time lock conflict, eager HTM conflict, ...).
    Conflict,
    /// Best-effort HTM ran out of speculative capacity (read or write set
    /// exceeded what the simulated cache can buffer).
    Capacity,
    /// The user's atomic block requested an explicit abort/retry.
    Explicit,
    /// A hardware transaction found the software fallback lock held and must
    /// not run concurrently with it.
    Fallback,
    /// Transient abort with no attributable data conflict (the simulated
    /// analogue of interrupts/TLB shootdowns that abort real HTM).
    Spurious,
    /// The attempt ran under a read-only hint ([`crate::run_read_tx`]) but
    /// the block attempted a write; it is retried with full read-set
    /// instrumentation. Frequent `mode` aborts mean a caller is passing the
    /// hint for blocks that are not actually read-only.
    Mode,
    /// Durable-journal pressure: the persistent heap refused the commit
    /// (crashed redo log, failed persistence step). Distinct from
    /// [`AbortCode::Explicit`] so a dying journal is never mistaken for a
    /// user-requested retry.
    Journal,
}

impl AbortCode {
    /// All codes, in a stable order (useful for per-code statistics).
    pub const ALL: [AbortCode; 7] = [
        AbortCode::Conflict,
        AbortCode::Capacity,
        AbortCode::Explicit,
        AbortCode::Fallback,
        AbortCode::Spurious,
        AbortCode::Mode,
        AbortCode::Journal,
    ];

    /// Stable small index of this code, for counter arrays.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            AbortCode::Conflict => 0,
            AbortCode::Capacity => 1,
            AbortCode::Explicit => 2,
            AbortCode::Fallback => 3,
            AbortCode::Spurious => 4,
            AbortCode::Mode => 5,
            AbortCode::Journal => 6,
        }
    }

    /// Stable single-word identifier, safe for metric names
    /// (`tx.abort.<backend>.<slug>`). Unlike [`fmt::Display`] it never
    /// contains spaces.
    #[inline]
    pub fn slug(self) -> &'static str {
        match self {
            AbortCode::Conflict => "conflict",
            AbortCode::Capacity => "capacity",
            AbortCode::Explicit => "explicit",
            AbortCode::Fallback => "fallback",
            AbortCode::Spurious => "spurious",
            AbortCode::Mode => "mode",
            AbortCode::Journal => "journal",
        }
    }
}

impl fmt::Display for AbortCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AbortCode::Conflict => "conflict",
            AbortCode::Capacity => "capacity",
            AbortCode::Explicit => "explicit",
            AbortCode::Fallback => "fallback lock held",
            AbortCode::Spurious => "spurious",
            AbortCode::Mode => "write under read-only hint",
            AbortCode::Journal => "durable journal pressure",
        };
        f.write_str(s)
    }
}

/// Sentinel stripe id for aborts with no attributable location (capacity,
/// spurious, explicit, mode, journal, fallback-lock takes).
pub const NO_STRIPE: u32 = u32::MAX;

/// A transaction attempt was aborted and must be retried (or given up).
///
/// Equality and hashing compare the **cause only** — two conflicts on
/// different stripes are the same abort as far as contention management
/// (and test assertions) are concerned; the stripe is attribution payload
/// for the conflict observatory, read via [`Abort::stripe`].
///
/// One non-zero word: the code's index plus one in the low byte, the
/// stripe id in the high 32 bits. A struct of two fields is an aggregate,
/// and `Result<u64, aggregate>` comes back through a hidden out-pointer,
/// written as narrow stores; a backend that forwards an inner result then
/// reloads it wider than it was stored, on every access that succeeded.
/// As a scalar with a niche, `TxResult<u64>` is a register pair and
/// `TxResult<()>` a single register (DESIGN.md §12).
#[derive(Clone, Copy)]
#[repr(transparent)]
pub struct Abort(NonZeroU64);

const CODE_MASK: u64 = 0xFF;
const STRIPE_SHIFT: u32 = 32;

impl PartialEq for Abort {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        (self.0.get() ^ other.0.get()) & CODE_MASK == 0
    }
}

impl Eq for Abort {}

impl Hash for Abort {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.code().hash(state);
    }
}

impl fmt::Debug for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Abort")
            .field("code", &self.code())
            .field("stripe", &self.raw_stripe())
            .finish()
    }
}

impl Abort {
    /// Abort due to a data conflict (no stripe attribution; prefer
    /// [`Abort::conflict_at`] when the conflicting stripe is known).
    pub const CONFLICT: Abort = Abort::pack(AbortCode::Conflict, NO_STRIPE);
    /// Abort due to exceeded speculative capacity.
    pub const CAPACITY: Abort = Abort::pack(AbortCode::Capacity, NO_STRIPE);
    /// Explicit, user-requested abort.
    pub const EXPLICIT: Abort = Abort::pack(AbortCode::Explicit, NO_STRIPE);
    /// Abort because the HTM fallback lock is held.
    pub const FALLBACK: Abort = Abort::pack(AbortCode::Fallback, NO_STRIPE);
    /// Transient, non-attributable abort.
    pub const SPURIOUS: Abort = Abort::pack(AbortCode::Spurious, NO_STRIPE);
    /// Write attempted under a read-only hint; retry in full mode.
    pub const MODE: Abort = Abort::pack(AbortCode::Mode, NO_STRIPE);
    /// The durable journal refused the attempt (crashed or failing PHeap).
    pub const JOURNAL: Abort = Abort::pack(AbortCode::Journal, NO_STRIPE);

    #[inline]
    const fn pack(code: AbortCode, stripe: u32) -> Self {
        let word = (stripe as u64) << STRIPE_SHIFT | (code.index() as u64 + 1);
        match NonZeroU64::new(word) {
            Some(w) => Abort(w),
            None => unreachable!(),
        }
    }

    /// Construct an abort with the given cause and no stripe attribution.
    #[inline]
    pub const fn new(code: AbortCode) -> Self {
        Abort::pack(code, NO_STRIPE)
    }

    /// A data-conflict abort attributed to stripe `idx`.
    #[inline]
    pub fn conflict_at(idx: usize) -> Self {
        // Saturate rather than wrap: an implausibly large table index
        // must not alias the sentinel by accident.
        let stripe = u32::try_from(idx).unwrap_or(NO_STRIPE - 1);
        Abort::pack(AbortCode::Conflict, stripe)
    }

    /// The cause of the abort.
    #[inline]
    pub fn code(self) -> AbortCode {
        AbortCode::ALL[(self.0.get() & CODE_MASK) as usize - 1]
    }

    #[inline]
    fn raw_stripe(self) -> u32 {
        (self.0.get() >> STRIPE_SHIFT) as u32
    }

    /// The conflicting stripe id, when the backend could attribute one.
    /// For orec-based backends this is the ownership-record index; NOrec
    /// and the durable backend map the failing address through the shared
    /// orec geometry so every STM reports in one stripe space; the
    /// simulated HTM reports its private cache-line index.
    #[inline]
    pub fn stripe(&self) -> Option<u32> {
        let stripe = self.raw_stripe();
        (stripe != NO_STRIPE).then_some(stripe)
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.code())?;
        if let Some(s) = self.stripe() {
            write!(f, " (stripe {s})")?;
        }
        Ok(())
    }
}

impl Error for Abort {}

/// Result alias for operations inside an atomic block.
///
/// User code propagates aborts with `?`; the [`crate::run_tx`] driver
/// catches them and re-executes the block.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_have_distinct_indices() {
        let mut seen = [false; AbortCode::ALL.len()];
        for c in AbortCode::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn display_is_nonempty_and_lowercase() {
        for c in AbortCode::ALL {
            let s = c.to_string();
            assert!(!s.is_empty());
            assert_eq!(s, s.to_lowercase());
        }
        let a = Abort::CONFLICT;
        assert!(a.to_string().contains("conflict"));
    }

    #[test]
    fn slugs_are_single_words_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for c in AbortCode::ALL {
            let s = c.slug();
            assert!(!s.contains(' '), "slug {s:?} must be one word");
            assert!(seen.insert(s), "duplicate slug {s:?}");
        }
    }

    #[test]
    fn abort_is_a_std_error() {
        fn takes_err<E: Error + Send + Sync + 'static>(_e: E) {}
        takes_err(Abort::CAPACITY);
    }

    #[test]
    fn equality_ignores_the_stripe_payload() {
        assert_eq!(Abort::conflict_at(3), Abort::CONFLICT);
        assert_eq!(Abort::conflict_at(3), Abort::conflict_at(9));
        assert_ne!(Abort::conflict_at(3), Abort::CAPACITY);
        let mut set = std::collections::HashSet::new();
        set.insert(Abort::conflict_at(1));
        assert!(set.contains(&Abort::conflict_at(2)), "hash follows eq");
    }

    #[test]
    fn stripe_attribution_round_trips() {
        assert_eq!(Abort::conflict_at(7).stripe(), Some(7));
        assert_eq!(Abort::CONFLICT.stripe(), None);
        assert_eq!(Abort::JOURNAL.stripe(), None);
        assert_eq!(Abort::new(AbortCode::Journal), Abort::JOURNAL);
        let huge = Abort::conflict_at(usize::MAX);
        assert!(huge.stripe().is_some(), "saturation must not hit sentinel");
    }

    #[test]
    fn results_are_register_sized() {
        use std::mem::size_of;
        assert_eq!(size_of::<Abort>(), 8);
        assert_eq!(size_of::<TxResult<u64>>(), 16, "a register pair");
        assert_eq!(
            size_of::<TxResult<()>>(),
            8,
            "one register: Ok is the niche"
        );
    }

    /// Every code × `stripe` through the packed word: both halves come
    /// back, and equality and hashing see the cause alone.
    fn check_round_trip(stripe: u32) {
        use std::collections::hash_map::DefaultHasher;
        let hash = |a: Abort| {
            let mut h = DefaultHasher::new();
            a.hash(&mut h);
            h.finish()
        };
        for code in AbortCode::ALL {
            let a = Abort::pack(code, stripe);
            assert_eq!(a.code(), code);
            assert_eq!(a.stripe(), (stripe != NO_STRIPE).then_some(stripe));
            assert_eq!(a, Abort::new(code), "equality ignores the stripe");
            assert_eq!(hash(a), hash(Abort::new(code)), "hash follows eq");
            for other in AbortCode::ALL {
                assert_eq!(a == Abort::pack(other, stripe), code == other);
            }
        }
    }

    #[test]
    fn edge_stripes_round_trip() {
        for stripe in [0, 1, 0xFF, 0x100, NO_STRIPE - 1, NO_STRIPE] {
            check_round_trip(stripe);
        }
        assert_eq!(
            Abort::conflict_at(usize::MAX).stripe(),
            Some(NO_STRIPE - 1),
            "saturates one short of the sentinel"
        );
        assert_eq!(Abort::conflict_at(usize::MAX).code(), AbortCode::Conflict);
    }

    proptest::proptest! {
        #[test]
        fn any_stripe_round_trips(stripe in 0u32..=u32::MAX, idx in 0usize..=usize::MAX) {
            check_round_trip(stripe);
            let at = Abort::conflict_at(idx);
            proptest::prop_assert_eq!(at.code(), AbortCode::Conflict);
            let expect = u32::try_from(idx).unwrap_or(NO_STRIPE - 1);
            proptest::prop_assert_eq!(at.stripe(), (expect != NO_STRIPE).then_some(expect));
        }
    }

    #[test]
    fn debug_still_names_code_and_stripe() {
        assert_eq!(
            format!("{:?}", Abort::conflict_at(7)),
            "Abort { code: Conflict, stripe: 7 }"
        );
        assert_eq!(
            format!("{:?}", Abort::CAPACITY),
            format!("Abort {{ code: Capacity, stripe: {NO_STRIPE} }}")
        );
    }

    #[test]
    fn display_carries_the_stripe() {
        assert_eq!(
            Abort::conflict_at(12).to_string(),
            "transaction aborted: conflict (stripe 12)"
        );
        assert_eq!(
            Abort::JOURNAL.to_string(),
            "transaction aborted: durable journal pressure"
        );
    }
}
