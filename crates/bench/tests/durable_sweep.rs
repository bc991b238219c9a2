//! Exhaustive crash-point sweep: for one fixed seeded workload, enumerate
//! **every** persistence step id, kill the process model there, run
//! recovery, and check the durability invariants at each one:
//!
//! - committed-iff-logged-complete: the persisted image equals the shadow
//!   model after some whole-transaction prefix — never a partially
//!   applied transaction (no torn writes);
//! - the prefix is at least the durable floor (everything acked before
//!   the last fsync survives) and at most one past the acked count (an
//!   in-flight commit whose record was fully journaled may be recovered,
//!   one whose record is torn is discarded as a unit);
//! - recovery is idempotent, survives a crash *during* recovery, and
//!   leaves the backend usable;
//! - the whole sweep is deterministic: a second full pass folds to the
//!   same digest (single-threaded exact-integer work, so the bytes are
//!   identical at every `--jobs` value and on every host).

use std::sync::Arc;
use stm::Durable;
use txcore::{Addr, DurabilityMode, ThreadCtx, TmBackend, TmSystem};

const SLOT_COUNT: u64 = 8;
const TXS: u64 = 40;
const SEED: u64 = 0x5EED_D15C_0000_0001;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Fixture {
    sys: Arc<TmSystem>,
    tm: Durable,
    ctx: ThreadCtx,
    slots: Vec<Addr>,
}

fn fixture(mode: DurabilityMode) -> Fixture {
    let sys = Arc::new(TmSystem::new(64));
    let tm = Durable::with_new_pheap(Arc::clone(&sys));
    tm.set_mode(mode);
    let slots = (0..SLOT_COUNT).map(|_| sys.heap.alloc(1)).collect();
    Fixture {
        sys,
        tm,
        ctx: ThreadCtx::new(0),
        slots,
    }
}

/// The fixed workload's write set for (1-based) transaction `i`: slot 0
/// becomes a monotone counter so every shadow image is distinct, and one
/// seeded slot gets a seeded value.
fn tx_writes(slots: &[Addr], i: u64) -> [(Addr, u64); 2] {
    let r = mix(SEED ^ i);
    [
        (slots[0], i),
        (slots[1 + (r % (SLOT_COUNT - 1)) as usize], r),
    ]
}

struct DriveOutcome {
    /// Commits acked to the caller before the crash (all of them when no
    /// crash is armed).
    acked: u64,
    /// Acked count as of the last fsync/checkpoint: the durable floor.
    floor: u64,
    /// Shadow images after 0, 1, .., acked+? transactions; `shadows[m]`
    /// is the heap after exactly `m` whole transactions.
    shadows: Vec<Vec<u64>>,
}

/// Drive the fixed workload until done or the model crashes. Transactions
/// are driven through the raw backend interface: after a crash `begin`
/// and `commit` return errors, which `run_tx` would uselessly retry.
fn drive(fx: &mut Fixture) -> DriveOutcome {
    let mut shadows: Vec<Vec<u64>> = vec![vec![0; SLOT_COUNT as usize]];
    let mut acked = 0u64;
    let mut floor = 0u64;
    let mut synced = 0u64;
    for i in 1..=TXS {
        // Shadow of this transaction, whether or not it survives.
        let mut next = shadows.last().unwrap().clone();
        let writes = tx_writes(&fx.slots, i);
        if fx.tm.begin(&mut fx.ctx).is_err() {
            break;
        }
        let mut dead = false;
        for &(a, v) in &writes {
            next[fx.slots.iter().position(|&s| s == a).unwrap()] = v;
            if fx.tm.write(&mut fx.ctx, a, v).is_err() {
                dead = true;
                break;
            }
        }
        shadows.push(next);
        if dead || fx.tm.commit(&mut fx.ctx).is_err() {
            break;
        }
        acked += 1;
        let stats = fx.tm.pheap().stats();
        if stats.fsyncs + stats.checkpoints > synced {
            synced = stats.fsyncs + stats.checkpoints;
            floor = acked;
        }
    }
    DriveOutcome {
        acked,
        floor,
        shadows,
    }
}

fn persisted_image(fx: &Fixture) -> Vec<u64> {
    fx.slots
        .iter()
        .map(|&a| fx.tm.pheap().read_persisted(a))
        .collect()
}

fn volatile_image(fx: &Fixture) -> Vec<u64> {
    fx.slots.iter().map(|&a| fx.sys.heap.read_raw(a)).collect()
}

/// Crash the fixed workload at persistence step `k`, recover — surviving
/// one nested crash mid-recovery when `recovery_crash` — and verify every
/// invariant. Returns a digest contribution.
fn crash_at(mode: DurabilityMode, k: u64, recovery_crash: bool) -> u64 {
    let mut fx = fixture(mode);
    fx.tm.pheap().set_crash_at(k);
    let out = drive(&mut fx);
    assert!(
        fx.tm.pheap().crashed(),
        "step {k} must be within the workload's persistence tape"
    );
    assert_eq!(fx.tm.pheap().crash_step(), k, "crash landed where armed");

    fx.tm.pheap().restart(&fx.sys.heap);
    if recovery_crash {
        // Arm a second crash two steps into recovery itself, then restart
        // and recover for real: a crash mid-replay must be survivable.
        fx.tm.pheap().set_crash_at(fx.tm.pheap().steps() + 2);
        if fx.tm.pheap().recover(&fx.sys.heap).is_err() {
            fx.tm.pheap().restart(&fx.sys.heap);
        } else {
            // Recovery finished before its second step (empty log).
            fx.tm.pheap().clear_crash_at();
        }
    }
    let report = fx
        .tm
        .pheap()
        .recover(&fx.sys.heap)
        .expect("recovery completes");
    assert!(!fx.tm.pheap().crashed());

    // Atomicity: the persisted image is some whole-transaction prefix.
    let image = persisted_image(&fx);
    let m = out
        .shadows
        .iter()
        .position(|s| *s == image)
        .unwrap_or_else(|| panic!("step {k}: persisted image {image:?} is not a tx prefix"))
        as u64;
    // Durability: at least the fsynced floor, at most one in-flight tx
    // past the acked count.
    assert!(
        m >= out.floor,
        "step {k}: recovered prefix {m} lost fsynced commits (floor {})",
        out.floor
    );
    assert!(
        m <= out.acked + 1,
        "step {k}: recovered prefix {m} exceeds acked {} + in-flight 1",
        out.acked
    );
    // Strict mode acks only after fsync, so nothing acked is ever lost.
    if mode == DurabilityMode::Strict {
        assert!(m >= out.acked, "strict: acked commit lost at step {k}");
    }
    // The volatile heap was rebuilt from the persisted image.
    assert_eq!(volatile_image(&fx), image, "step {k}: rebuild mismatch");
    // Idempotency: recovering again changes nothing.
    let again = fx.tm.pheap().recover(&fx.sys.heap).expect("idempotent");
    assert_eq!(persisted_image(&fx), image, "step {k}: re-recovery mutated");
    assert!(
        again.replayed_seqs.is_empty(),
        "step {k}: log already empty"
    );
    // Liveness: the backend accepts new transactions after recovery.
    fx.tm.begin(&mut fx.ctx).expect("usable after recovery");
    fx.tm.write(&mut fx.ctx, fx.slots[0], 0xA11E).unwrap();
    fx.tm.commit(&mut fx.ctx).expect("post-recovery commit");

    let mut digest = mix(k ^ (m << 32) ^ report.replayed_words);
    for w in &image {
        digest = mix(digest ^ w);
    }
    digest
}

/// Total persistence steps of the clean (uncrashed) workload under `mode`.
fn clean_steps(mode: DurabilityMode) -> u64 {
    let mut fx = fixture(mode);
    let out = drive(&mut fx);
    assert_eq!(out.acked, TXS, "clean run commits everything");
    assert!(!fx.tm.pheap().crashed());
    fx.tm.pheap().steps()
}

fn sweep(mode: DurabilityMode) -> u64 {
    let steps = clean_steps(mode);
    assert!(steps > 100, "the workload must exercise a real tape");
    let mut digest = 0u64;
    for k in 1..=steps {
        // Every third point also crashes mid-recovery: the nested loop is
        // exercised across the whole tape without tripling the runtime.
        digest = mix(digest ^ crash_at(mode, k, k % 3 == 0));
    }
    digest
}

/// Sweep `mode` twice: the second full pass must fold to the same digest.
fn sweep_is_deterministic(mode: DurabilityMode) {
    assert_eq!(
        sweep(mode),
        sweep(mode),
        "{mode:?} sweep is not deterministic"
    );
}

#[test]
fn every_buffered_crash_point_recovers_to_a_consistent_state() {
    sweep_is_deterministic(DurabilityMode::Buffered);
}

#[test]
fn every_strict_crash_point_recovers_to_a_consistent_state() {
    sweep_is_deterministic(DurabilityMode::Strict);
    assert_ne!(
        clean_steps(DurabilityMode::Strict),
        clean_steps(DurabilityMode::Buffered),
        "the modes produce distinct tapes"
    );
}
