//! Property tests for the persistent heap's atomicity + durability
//! contract: arbitrary interleavings of transaction commits and crash
//! points never expose a partially-applied transaction in the persisted
//! image, recovery replays exactly a prefix of the commit order, strict
//! durability never loses an acknowledged commit, and recovery is
//! idempotent — including after a crash *during* recovery. Crashes land
//! through [`PHeap::set_crash_at`].

use proptest::prelude::*;
use txcore::{Addr, Heap, PHeap};

const WORDS: usize = 8;

/// One transaction: a non-empty set of absolute writes.
type Tx = Vec<(u32, u64)>;

struct CaseResult {
    /// Seqs acknowledged to the "application" (fsync completed after the
    /// record in strict mode; append completed in buffered mode).
    acked_strict: Vec<u64>,
    /// Seqs assigned by completed appends, in order.
    appended: Vec<u64>,
    /// Seqs the final successful recovery replayed.
    recovered: Vec<u64>,
    /// Persisted image after recovery.
    image: Vec<u64>,
    /// Volatile image after recovery.
    volatile: Vec<u64>,
    /// Total persistence steps of a crash-free run (only meaningful when
    /// no crash was injected).
    steps: u64,
}

/// Drive `txs` through a fresh PHeap, optionally crashing at step
/// `crash_at` (and again at `recovery_crash_offset` steps into the first
/// recovery attempt), then recover to completion.
fn run_case(
    txs: &[Tx],
    strict: bool,
    crash_at: Option<u64>,
    recovery_crash_offset: Option<u64>,
) -> CaseResult {
    let p = PHeap::new(WORDS);
    let heap = Heap::new(WORDS);
    if let Some(c) = crash_at {
        p.set_crash_at(c);
    }
    let mut acked_strict = Vec::new();
    let mut appended = Vec::new();
    let mut since_fsync = 0u64;
    for tx in txs {
        let writes: Vec<(Addr, u64)> = tx.iter().map(|&(a, v)| (Addr(a), v)).collect();
        match p.append_commit(&writes) {
            Ok(seq) => {
                appended.push(seq);
                since_fsync += 1;
                let want_fsync = strict || since_fsync >= 2;
                if want_fsync {
                    match p.fsync() {
                        Ok(()) => {
                            since_fsync = 0;
                            if strict {
                                acked_strict.push(seq);
                            }
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(_) => break,
        }
    }
    // Reboot-and-recover until a pass completes; a second trigger can
    // crash the first recovery mid-replay.
    let mut armed_recovery_crash = recovery_crash_offset;
    let report = loop {
        if p.crashed() {
            p.restart(&heap);
        }
        if let Some(off) = armed_recovery_crash.take() {
            p.set_crash_at(p.steps() + 1 + off);
        }
        match p.recover(&heap) {
            Ok(rep) => break rep,
            Err(_) => continue,
        }
    };
    CaseResult {
        acked_strict,
        appended,
        recovered: report.replayed_seqs,
        image: p.persisted_image(),
        volatile: (0..WORDS).map(|i| heap.read_raw(Addr(i as u32))).collect(),
        steps: p.steps(),
    }
}

/// The shadow model: apply the first `k` transactions in commit order.
fn shadow(txs: &[Tx], k: usize) -> Vec<u64> {
    let mut image = vec![0u64; WORDS];
    for tx in &txs[..k] {
        for &(a, v) in tx {
            image[a as usize] = v;
        }
    }
    image
}

fn check_contract(txs: &[Tx], strict: bool, r: &CaseResult) -> Result<(), TestCaseError> {
    // Recovery replays a contiguous prefix of the commit order.
    let k = r.recovered.len();
    prop_assert!(k <= r.appended.len(), "recovered more txs than appended");
    prop_assert_eq!(
        &r.recovered,
        &r.appended[..k],
        "recovered seqs must be the commit-order prefix"
    );
    // No torn transactions: the persisted image is exactly the shadow
    // replay of that prefix — a partially-applied transaction would
    // differ from every shadow.
    prop_assert_eq!(&r.image, &shadow(txs, k), "persisted image is torn");
    // The volatile image is rebuilt from the persisted one.
    prop_assert_eq!(&r.volatile, &r.image, "volatile image not rebuilt");
    // Strict durability: every acknowledged commit survives.
    if strict {
        for seq in &r.acked_strict {
            prop_assert!(
                r.recovered.contains(seq),
                "strict-mode acked commit {} lost",
                seq
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn crash_points_never_tear_the_persisted_image(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..WORDS as u32, 1u64..1_000_000), 1..4),
            1..7,
        ),
        frac in 0u64..10_000,
        strict_bit in 0u32..2,
    ) {
        let strict = strict_bit == 1;
        // Crash-free pass pins the step count; the fraction picks a step.
        let clean = run_case(&raw, strict, None, None);
        prop_assert!(clean.steps > 0);
        check_contract(&raw, strict, &clean)?;
        prop_assert_eq!(clean.recovered.len(), clean.appended.len());

        let crash_at = 1 + frac % clean.steps;
        let crashed = run_case(&raw, strict, Some(crash_at), None);
        check_contract(&raw, strict, &crashed)?;
    }

    #[test]
    fn recovery_is_idempotent_and_crash_during_recovery_is_survivable(
        raw in prop::collection::vec(
            prop::collection::vec((0u32..WORDS as u32, 1u64..1_000_000), 1..4),
            1..6,
        ),
        frac in 0u64..10_000,
        offset in 0u64..64,
    ) {
        let clean = run_case(&raw, true, None, None);
        let crash_at = 1 + frac % clean.steps;

        // One crash, recovered once vs the same crash with a second crash
        // landing mid-recovery: the final state must be identical —
        // re-replay is idempotent.
        let once = run_case(&raw, true, Some(crash_at), None);
        let twice = run_case(&raw, true, Some(crash_at), Some(offset));
        check_contract(&raw, true, &once)?;
        check_contract(&raw, true, &twice)?;
        prop_assert_eq!(&once.recovered, &twice.recovered);
        prop_assert_eq!(&once.image, &twice.image);
    }
}
