//! The retry-budget arithmetic of the HTM family, pinned rung by rung.
//!
//! Each of `HtmSim`, `HybridNOrec` and `HybridTl2` is driven down one
//! scripted, single-threaded retry ladder under every [`CapacityPolicy`],
//! through the real `try_run_tx` driver: a conflict raised in `read`, a
//! validation failure raised in `commit`, a user `Tx::retry()`, then
//! capacity overflows raised in `write` until the block demotes. A second
//! context on the same thread plays the concurrent transaction. After every
//! rung the test reads `ctx.htm_budget` and the per-cause abort counts, and
//! at the end the attempt at which the block reached its fallback.
//!
//! What is pinned: aborts raised by the backend's `read`/`write`/`commit`
//! are charged once (`Capacity` by the policy, anything else one unit),
//! `Explicit` aborts raised by user code are free, and aborts of a hybrid's
//! software phase are free. Spurious aborts, which best-effort hardware
//! raises at commit with `HtmGeometry::spurious_abort_prob`, are pinned on
//! their own: one unit each, and a storm of them ends in the fallback. So is
//! the access a `Capacity` abort lands on: the first distinct line past the
//! cap, however often the lines before it were touched again.

use htm::{CapacityPolicy, HtmGeometry, HtmSim, HybridNOrec, HybridTl2, LINE_WORDS};
use std::sync::Arc;
use txcore::{
    run_tx, try_run_tx, Abort, AbortCode, Addr, ThreadCtx, TmBackend, TmSystem, Tx, TxResult,
};

/// Speculative attempts granted to every block in this file.
const BUDGET: u32 = 6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    Htm,
    HyNOrec,
    HyTl2,
}

const FAMILIES: [Family; 3] = [Family::Htm, Family::HyNOrec, Family::HyTl2];

#[derive(Clone, Copy, Debug)]
enum Rung {
    ReadConflict,
    CommitValidation,
    Retry,
    WriteCapacity,
}

/// The ladder: attempt `n` runs `SCRIPT[n]`, and every attempt past the
/// script overflows the write capacity again. Capacity comes last because
/// `GiveUp` ends the hardware phase on the spot.
const SCRIPT: [Rung; 4] = [
    Rung::ReadConflict,
    Rung::CommitValidation,
    Rung::Retry,
    Rung::WriteCapacity,
];

fn rung_of(attempt: u32) -> Rung {
    *SCRIPT.get(attempt as usize).unwrap_or(&Rung::WriteCapacity)
}

/// `ctx.htm_budget` after each rung of the ladder, down to zero. The block
/// runs in its fallback at attempt `budgets.len()`.
fn budgets(policy: CapacityPolicy) -> &'static [u32] {
    match policy {
        CapacityPolicy::GiveUp => &[5, 4, 4, 0],
        CapacityPolicy::Decrease => &[5, 4, 4, 3, 2, 1, 0],
        CapacityPolicy::Halve => &[5, 4, 4, 2, 1, 0],
    }
}

/// One backend over a fresh system, plus the addresses the script touches:
/// `x`, `y` and every word of `wide` sit on cache lines (and orec stripes)
/// of their own.
struct Rig {
    family: Family,
    tm: Box<dyn TmBackend>,
    x: Addr,
    y: Addr,
    wide: Addr,
}

/// One line more than `TINY_FOR_TESTS` can write speculatively.
const WIDE_LINES: u32 = HtmGeometry::TINY_FOR_TESTS.write_capacity as u32 + 1;

/// `family` over `sys`, granting every block `BUDGET` attempts under `policy`.
fn backend(
    family: Family,
    sys: Arc<TmSystem>,
    geom: HtmGeometry,
    policy: CapacityPolicy,
) -> Box<dyn TmBackend> {
    match family {
        Family::Htm => {
            let tm = HtmSim::with_geometry(sys, geom);
            tm.cm().set(BUDGET, policy);
            Box::new(tm)
        }
        Family::HyNOrec => {
            let tm = HybridNOrec::with_geometry(sys, geom);
            tm.cm().set(BUDGET, policy);
            Box::new(tm)
        }
        Family::HyTl2 => {
            let tm = HybridTl2::with_geometry(sys, geom);
            tm.cm().set(BUDGET, policy);
            Box::new(tm)
        }
    }
}

impl Rig {
    fn new(family: Family, policy: CapacityPolicy) -> Self {
        Self::with_geometry(family, policy, HtmGeometry::TINY_FOR_TESTS)
    }

    fn with_geometry(family: Family, policy: CapacityPolicy, geom: HtmGeometry) -> Self {
        let sys = Arc::new(TmSystem::new(1 << 14));
        let base = sys.heap.alloc(LINE_WORDS * (2 + WIDE_LINES as usize));
        Rig {
            family,
            tm: backend(family, sys, geom, policy),
            x: base,
            y: base.field(LINE_WORDS as u32),
            wide: base.field(2 * LINE_WORDS as u32),
        }
    }

    /// The rival commits a fresh value to `x`.
    fn rival_commits_x(&self, rival: &mut ThreadCtx) {
        run_tx(self.tm.as_ref(), rival, |tx| {
            let v = tx.read(self.x)?;
            tx.write(self.x, v + 1)
        });
    }

    /// Run `f` while `x` is unreadable for a transaction that has already
    /// begun. The speculative core detects conflicts eagerly, so there the
    /// rival just holds `x`'s line; TL2 locks at commit only, so there the
    /// rival commits `x` past the victim's snapshot.
    fn with_x_contended<T>(&self, rival: &mut ThreadCtx, f: impl FnOnce() -> T) -> T {
        if self.family == Family::HyTl2 {
            self.rival_commits_x(rival);
            return f();
        }
        rival.attempt = 0;
        self.tm.begin(rival).unwrap();
        self.tm.write(rival, self.x, 99).unwrap();
        let out = f();
        self.tm.rollback(rival);
        out
    }

    /// The body of one attempt. In the hardware phase every rung aborts;
    /// in the fallback the capacity rung fits and commits.
    fn run(&self, rung: Rung, tx: &mut Tx<'_>, rival: &mut ThreadCtx) -> TxResult<()> {
        match rung {
            Rung::ReadConflict => {
                let got = self.with_x_contended(rival, || tx.read(self.x));
                assert_eq!(got, Err(Abort::CONFLICT), "{:?}", self.family);
                got.map(drop)
            }
            Rung::CommitValidation => {
                tx.read(self.x)?;
                tx.write(self.y, 1)?;
                self.rival_commits_x(rival);
                Ok(())
            }
            Rung::Retry => tx.retry(),
            Rung::WriteCapacity => {
                for i in 0..WIDE_LINES {
                    tx.write(self.wide.field(i * LINE_WORDS as u32), 1)?;
                }
                Ok(())
            }
        }
    }
}

#[test]
fn every_rung_charges_what_its_cause_costs() {
    for family in FAMILIES {
        for policy in CapacityPolicy::ALL {
            let expected = budgets(policy);
            // The first `k` rungs, for every `k`: `try_run_tx` gives up
            // after `k` aborted attempts and leaves the budget to read.
            for k in 1..=expected.len() {
                let rig = Rig::new(family, policy);
                let (mut ctx, mut rival) = (ThreadCtx::new(0), ThreadCtx::new(1));
                let out = try_run_tx(rig.tm.as_ref(), &mut ctx, k as u32, |tx| {
                    rig.run(rung_of(tx.attempt()), tx, &mut rival)
                });
                let at = format!("{family:?} {policy:?} after rung {k}");
                assert_eq!(out, None, "{at}: every scripted rung aborts");
                assert_eq!(ctx.htm_budget, expected[k - 1], "{at}");
                let snap = ctx.stats.snapshot();
                assert_eq!(snap.aborts_of(AbortCode::Conflict), k.min(2) as u64, "{at}");
                assert_eq!(
                    snap.aborts_of(AbortCode::Explicit),
                    u64::from(k >= 3),
                    "{at}"
                );
                assert_eq!(
                    snap.aborts_of(AbortCode::Capacity),
                    k.saturating_sub(3) as u64,
                    "{at}"
                );
                assert_eq!(snap.total_aborts(), k as u64, "{at}");
                assert_eq!(snap.commits, 0, "{at}");
            }
        }
    }
}

#[test]
fn the_block_demotes_at_the_attempt_the_budget_reaches_zero() {
    for family in FAMILIES {
        for policy in CapacityPolicy::ALL {
            let rig = Rig::new(family, policy);
            let (mut ctx, mut rival) = (ThreadCtx::new(0), ThreadCtx::new(1));
            let mut committed_at = None;
            run_tx(rig.tm.as_ref(), &mut ctx, |tx| {
                committed_at = Some(tx.attempt());
                rig.run(rung_of(tx.attempt()), tx, &mut rival)
            });
            let at = format!("{family:?} {policy:?}");
            assert_eq!(committed_at, Some(budgets(policy).len() as u32), "{at}");
            let snap = ctx.stats.snapshot();
            assert_eq!(snap.commits, 1, "{at}");
            assert_eq!(snap.fallback_commits, 1, "{at}: committed in the fallback");
            assert_eq!(ctx.htm_budget, 0, "{at}");
        }
    }
}

/// A hybrid's software phase aborts like any STM and the budget is not its
/// business. A drained budget cannot show a charge, so the test hands the
/// running software attempt three units to lose.
#[test]
fn software_phase_aborts_are_not_charged() {
    for family in [Family::HyNOrec, Family::HyTl2] {
        let rig = Rig::new(family, CapacityPolicy::Decrease);
        let (mut ctx, mut rival) = (ThreadCtx::new(0), ThreadCtx::new(1));
        let tm = rig.tm.as_ref();

        // Raised in `read`: `x` changes under the software snapshot.
        ctx.attempt = 1;
        ctx.htm_budget = 0;
        tm.begin(&mut ctx).unwrap();
        assert!(
            ctx.in_fallback,
            "{family:?}: a drained block runs in software"
        );
        ctx.htm_budget = 3;
        tm.read(&mut ctx, rig.x).unwrap();
        rig.rival_commits_x(&mut rival);
        assert_eq!(tm.read(&mut ctx, rig.x), Err(Abort::CONFLICT), "{family:?}");
        assert_eq!(ctx.htm_budget, 3, "{family:?}: read abort charged");
        tm.rollback(&mut ctx);

        // Raised in `commit`: the same, found by commit-time validation.
        ctx.htm_budget = 0;
        tm.begin(&mut ctx).unwrap();
        assert!(ctx.in_fallback);
        ctx.htm_budget = 3;
        tm.read(&mut ctx, rig.x).unwrap();
        tm.write(&mut ctx, rig.y, 1).unwrap();
        rig.rival_commits_x(&mut rival);
        assert_eq!(tm.commit(&mut ctx), Err(Abort::CONFLICT), "{family:?}");
        assert_eq!(ctx.htm_budget, 3, "{family:?}: commit abort charged");
        tm.rollback(&mut ctx);
    }
}

/// Every speculative commit aborts spuriously: each attempt costs one unit
/// under every policy, and the block commits in its fallback (software, for
/// the hybrids) at the attempt the budget reaches zero.
#[test]
fn a_spurious_storm_costs_one_unit_per_attempt_and_falls_back() {
    let storm = HtmGeometry {
        spurious_abort_prob: 1.0,
        ..HtmGeometry::TINY_FOR_TESTS
    };
    for family in FAMILIES {
        for policy in CapacityPolicy::ALL {
            let rig = Rig::with_geometry(family, policy, storm);
            let body = |tx: &mut Tx<'_>| {
                let v = tx.read(rig.x)?;
                tx.write(rig.x, v + 1)
            };
            for k in 1..=BUDGET {
                let mut ctx = ThreadCtx::new(0);
                let out = try_run_tx(rig.tm.as_ref(), &mut ctx, k, body);
                let at = format!("{family:?} {policy:?} after {k} attempts");
                assert_eq!(out, None, "{at}: every speculative commit aborts");
                assert_eq!(ctx.htm_budget, BUDGET - k, "{at}");
                let snap = ctx.stats.snapshot();
                assert_eq!(snap.aborts_of(AbortCode::Spurious), u64::from(k), "{at}");
                assert_eq!(snap.total_aborts(), u64::from(k), "{at}");
            }
            let mut ctx = ThreadCtx::new(0);
            let mut committed_at = None;
            run_tx(rig.tm.as_ref(), &mut ctx, |tx| {
                committed_at = Some(tx.attempt());
                body(tx)
            });
            let at = format!("{family:?} {policy:?}");
            assert_eq!(committed_at, Some(BUDGET), "{at}");
            let snap = ctx.stats.snapshot();
            assert_eq!(
                snap.aborts_of(AbortCode::Spurious),
                u64::from(BUDGET),
                "{at}"
            );
            assert_eq!(snap.fallback_commits, 1, "{at}: committed in the fallback");
        }
    }
}

/// The spurious draw comes from the context's seeded stream: the same seed
/// replays the same aborts, and every block still commits.
#[test]
fn spurious_aborts_replay_from_the_context_seed() {
    let geom = HtmGeometry {
        spurious_abort_prob: 0.3,
        ..HtmGeometry::TINY_FOR_TESTS
    };
    for family in FAMILIES {
        let run = || {
            let rig = Rig::with_geometry(family, CapacityPolicy::Decrease, geom);
            let mut ctx = ThreadCtx::new(0);
            for _ in 0..200 {
                run_tx(rig.tm.as_ref(), &mut ctx, |tx| {
                    let v = tx.read(rig.x)?;
                    tx.write(rig.x, v + 1)
                });
            }
            let snap = ctx.stats.snapshot();
            assert_eq!(snap.commits, 200, "{family:?}");
            snap.aborts_of(AbortCode::Spurious)
        };
        let first = run();
        assert!(
            first > 0,
            "{family:?}: a 30% rate over 200 blocks must abort"
        );
        assert_eq!(first, run(), "{family:?}: same seed, same aborts");
    }
}

/// Read or write `a`, as one access of a footprint.
fn touch(tx: &mut Tx<'_>, a: Addr, write: bool) -> TxResult<()> {
    if write {
        tx.write(a, 1)
    } else {
        tx.read(a).map(drop)
    }
}

/// Capacity counts distinct lines, not accesses. One attempt re-reads (or
/// re-writes) three lines, many times the capacity in accesses, then
/// touches fresh lines: its one `Capacity` abort must land on the access
/// that brings in the (cap+1)-th distinct line, and the block then commits
/// in its fallback (`GiveUp`).
#[test]
fn the_capacity_abort_lands_on_the_first_distinct_line_past_the_cap() {
    const HOT: usize = 3;
    const ROUNDS: usize = 40;
    let geom = HtmGeometry::TINY_FOR_TESTS;
    for family in FAMILIES {
        for (write, cap) in [(false, geom.read_capacity), (true, geom.write_capacity)] {
            let sys = Arc::new(TmSystem::new(1 << 14));
            let base = sys.heap.alloc(LINE_WORDS * (cap + 2));
            let tm = backend(family, sys, geom, CapacityPolicy::GiveUp);
            // (line, word in line) per access: the hot lines round-robin,
            // a different word each round, then one fresh line per access.
            let accesses: Vec<(usize, usize)> = (0..ROUNDS)
                .flat_map(|r| (0..HOT).map(move |l| (l, r % LINE_WORDS)))
                .chain((HOT..cap + 2).map(|l| (l, 0)))
                .collect();
            let mut ctx = ThreadCtx::new(0);
            let mut aborted_at = Vec::new();
            let out = try_run_tx(tm.as_ref(), &mut ctx, 2, |tx| {
                for (i, &(line, word)) in accesses.iter().enumerate() {
                    let a = base.field((line * LINE_WORDS + word) as u32);
                    if let Err(abort) = touch(tx, a, write) {
                        aborted_at.push((tx.attempt(), i, line));
                        return Err(abort);
                    }
                }
                Ok(())
            });
            let at = format!("{family:?} write={write}");
            assert_eq!(
                aborted_at,
                [(0, ROUNDS * HOT + cap - HOT, cap)],
                "{at}: one abort, on line {cap}, the first past the cap"
            );
            assert_eq!(out, Some(()), "{at}");
            let snap = ctx.stats.snapshot();
            assert_eq!(snap.aborts_of(AbortCode::Capacity), 1, "{at}");
            assert_eq!(snap.total_aborts(), 1, "{at}");
            assert_eq!(snap.fallback_commits, 1, "{at}: committed in the fallback");
            assert_eq!(ctx.htm_budget, 0, "{at}");
        }
    }
}
