//! The hardware commit window (DESIGN.md §9): hardware commits order
//! themselves through the line table and `hw_clock` and only *read* the
//! subscribed sequence lock; software takes that lock and waits until
//! `hw_done == hw_clock`.
//!
//! Three kinds of test. Hand-placed interleavings with two contexts on one
//! thread pin who aborts whom and with which cause. Helper-thread tests pin
//! the waits: the main thread plays a hardware committer that has ticked
//! but not finished, so the interleaving is forced, and every wait on the
//! helper has a deadline — a broken handshake fails, it never hangs. The
//! stress tests check opacity, not just the final state: every transaction
//! asserts the invariant on what it read.

use htm::{CapacityPolicy, HtmSim, HybridNOrec, LINE_WORDS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txcore::{run_tx, Abort, Addr, ThreadCtx, TmBackend, TmSystem, Tx, TxResult};

/// How long a helper may take to do what it must; failing beats hanging.
const DEADLINE: Duration = Duration::from_secs(2);
/// How long the main thread watches a helper that must *not* get through.
/// Elapsing is the expected outcome, so this bounds no correct run.
const HELD: Duration = Duration::from_millis(50);

#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    Htm,
    HyNOrec,
}

const FAMILIES: [Family; 2] = [Family::Htm, Family::HyNOrec];

struct Rig {
    sys: Arc<TmSystem>,
    tm: Arc<dyn TmBackend>,
    family: Family,
}

impl Rig {
    fn new(family: Family, budget: u32) -> Self {
        let sys = Arc::new(TmSystem::new(1 << 14));
        let tm: Arc<dyn TmBackend> = match family {
            Family::Htm => {
                let tm = HtmSim::new(Arc::clone(&sys));
                tm.cm().set(budget, CapacityPolicy::Decrease);
                Arc::new(tm)
            }
            Family::HyNOrec => {
                let tm = HybridNOrec::new(Arc::clone(&sys));
                tm.cm().set(budget, CapacityPolicy::Decrease);
                Arc::new(tm)
            }
        };
        Rig { sys, tm, family }
    }

    /// The sequence lock this family's hardware path subscribes to.
    fn seq(&self) -> &AtomicU64 {
        match self.family {
            Family::Htm => &self.sys.fallback_seq,
            Family::HyNOrec => &self.sys.norec_seq,
        }
    }

    /// `n` words, each on a cache line (and orec stripe) of its own.
    fn lines(&self, n: usize) -> Vec<Addr> {
        let base = self.sys.heap.alloc(LINE_WORDS * n);
        (0..n)
            .map(|i| base.field((i * LINE_WORDS) as u32))
            .collect()
    }

    /// Begin `ctx`'s next attempt on the software path (a drained budget).
    fn begin_in_software(&self, ctx: &mut ThreadCtx) {
        ctx.attempt = 1;
        ctx.htm_budget = 0;
        self.tm.begin(ctx).unwrap();
        assert!(ctx.in_fallback, "{:?}", self.family);
    }

    /// Play a hardware committer up to its tick.
    fn tick(&self) {
        self.sys.hw_clock.fetch_add(1, Ordering::SeqCst);
    }

    /// ... and from the end of its write-back on.
    fn finish(&self) {
        self.sys.hw_done.fetch_add(1, Ordering::Release);
    }

    /// The index `addr` has in the system's line table: the stripe a
    /// hardware conflict on it names.
    fn line_of(&self, addr: Addr) -> u32 {
        self.sys.hw_lines.index_for(addr) as u32
    }
}

/// Spin until `cond` holds, or fail at the deadline.
fn wait_for(what: &str, cond: impl Fn() -> bool) {
    let end = Instant::now() + DEADLINE;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

/// Run `f` on a helper thread; the receiver yields its result.
fn helper<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> mpsc::Receiver<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx
}

// ---- hand-placed: who aborts whom ---------------------------------------

#[test]
fn a_hardware_commit_does_not_disturb_a_peer_on_other_lines() {
    for family in FAMILIES {
        let rig = Rig::new(family, 5);
        let w = rig.lines(4);
        let (mut a, mut b) = (ThreadCtx::new(0), ThreadCtx::new(1));
        run_tx(rig.tm.as_ref(), &mut b, |tx| {
            let v = tx.read(w[0])?;
            tx.write(w[1], v + 1)?;
            // A commits in the middle of B and again after B's last access.
            for _ in 0..2 {
                run_tx(rig.tm.as_ref(), &mut a, |atx| {
                    let v = atx.read(w[2])?;
                    atx.write(w[3], v + 1)?;
                    atx.write(w[2], v + 1)
                });
                tx.read(w[0])?;
            }
            Ok(())
        });
        let snap = b.stats.snapshot();
        assert_eq!(snap.total_aborts(), 0, "{family:?}: {snap:?}");
        assert_eq!((snap.commits, snap.fallback_commits), (1, 0), "{family:?}");
        assert_eq!(rig.sys.fallback_seq.load(Ordering::SeqCst), 0, "{family:?}");
        assert_eq!(rig.sys.norec_seq.load(Ordering::SeqCst), 0, "{family:?}");
        assert_eq!(rig.sys.hw_quiet(), Some(3), "{family:?}: three writers");
        assert_eq!(rig.sys.heap.read_raw(w[1]), 1);
        assert_eq!(rig.sys.heap.read_raw(w[2]), 2);
    }
}

#[test]
fn a_hardware_commit_on_a_line_the_peer_read_is_a_conflict_on_that_line() {
    for family in FAMILIES {
        let rig = Rig::new(family, 5);
        let w = rig.lines(2);
        let tm = rig.tm.as_ref();
        let (mut a, mut b) = (ThreadCtx::new(0), ThreadCtx::new(1));
        tm.begin(&mut b).unwrap();
        assert_eq!(tm.read(&mut b, w[0]), Ok(0));
        run_tx(tm, &mut a, |tx| tx.write(w[0], 7));
        // The subscription did not move, so B gets as far as its commit.
        tm.write(&mut b, w[1], 1).unwrap();
        let abort = tm.commit(&mut b).unwrap_err();
        assert_eq!(abort, Abort::CONFLICT, "{family:?}");
        assert_eq!(abort.stripe(), Some(rig.line_of(w[0])), "{family:?}");
        tm.rollback(&mut b);
        assert_eq!(
            rig.sys.hw_quiet(),
            Some(2),
            "{family:?}: B's tick is closed"
        );
        assert_eq!(rig.sys.heap.read_raw(w[1]), 0);
    }
}

#[test]
fn a_commit_that_finds_the_lock_taken_retreats_with_fallback() {
    for family in FAMILIES {
        let rig = Rig::new(family, 5);
        let w = rig.lines(1);
        let tm = rig.tm.as_ref();
        let (mut b, mut c) = (ThreadCtx::new(1), ThreadCtx::new(2));
        tm.begin(&mut b).unwrap();
        tm.write(&mut b, w[0], 1).unwrap();
        // Software takes the lock ...
        rig.seq().fetch_add(1, Ordering::SeqCst);
        assert_eq!(tm.commit(&mut b), Err(Abort::FALLBACK), "{family:?}");
        assert_eq!(
            rig.sys.hw_quiet(),
            Some(1),
            "{family:?}: hw_done == hw_clock"
        );
        assert_eq!(
            rig.sys.heap.read_raw(w[0]),
            0,
            "{family:?}: nothing written"
        );
        tm.rollback(&mut b);
        // ... and releases it. B's line is free again, at a version a fresh
        // snapshot accepts.
        rig.seq().fetch_add(1, Ordering::SeqCst);
        run_tx(tm, &mut c, |tx| {
            let v = tx.read(w[0])?;
            tx.write(w[0], v + 5)
        });
        assert_eq!(c.stats.snapshot().total_aborts(), 0, "{family:?}");
        assert_eq!(rig.sys.heap.read_raw(w[0]), 5);
    }
}

#[test]
fn only_a_software_commit_poisons_hardware_transactions() {
    for family in FAMILIES {
        let rig = Rig::new(family, 5);
        let w = rig.lines(3);
        let tm = rig.tm.as_ref();
        let (mut sw, mut b) = (ThreadCtx::new(0), ThreadCtx::new(1));
        tm.begin(&mut b).unwrap();
        assert_eq!(tm.read(&mut b, w[0]), Ok(0));
        // A whole software-path transaction on lines B never touches.
        rig.begin_in_software(&mut sw);
        tm.write(&mut sw, w[2], 9).unwrap();
        tm.commit(&mut sw).unwrap();
        assert_eq!(rig.seq().load(Ordering::SeqCst), 2, "{family:?}");
        assert_eq!(tm.read(&mut b, w[1]), Err(Abort::FALLBACK), "{family:?}");
        tm.rollback(&mut b);
    }
}

#[test]
fn hardware_transactions_of_two_backends_share_one_set_of_lines() {
    // One memory, one set of cache lines: a `HybridNOrec` reader must see
    // the lines an `HtmSim` writer on the same system committed.
    let sys = Arc::new(TmSystem::new(1 << 14));
    let (hy, htm) = (
        HybridNOrec::new(Arc::clone(&sys)),
        HtmSim::new(Arc::clone(&sys)),
    );
    let base = sys.heap.alloc(LINE_WORDS * 2);
    let (x, y) = (base, base.field(LINE_WORDS as u32));
    let (mut r, mut w) = (ThreadCtx::new(0), ThreadCtx::new(1));
    hy.begin(&mut r).unwrap();
    assert_eq!(hy.read(&mut r, x), Ok(0));
    run_tx(&htm, &mut w, |tx| {
        tx.write(x, 1)?;
        tx.write(y, 1)
    });
    // The new Y beside the old X would be an inconsistent snapshot.
    let abort = hy.read(&mut r, y).unwrap_err();
    assert_eq!(abort, Abort::CONFLICT);
    assert_eq!(abort.stripe(), Some(sys.hw_lines.index_for(y) as u32));
    hy.rollback(&mut r);
    assert_eq!(sys.hw_quiet(), Some(1));
}

// ---- helper thread: the waits -------------------------------------------

#[test]
fn a_fallback_acquirer_does_not_enter_before_a_ticked_committer_finishes() {
    let rig = Arc::new(Rig::new(Family::Htm, 5));
    let x = rig.lines(1)[0];
    rig.tick();
    let entered = {
        let rig = Arc::clone(&rig);
        helper(move || {
            let mut ctx = ThreadCtx::new(0);
            rig.begin_in_software(&mut ctx);
            let seen = rig.tm.read(&mut ctx, x).unwrap();
            rig.tm.commit(&mut ctx).unwrap();
            seen
        })
    };
    wait_for("the fallback lock to be taken", || {
        rig.sys.fallback_seq.load(Ordering::SeqCst) == 1
    });
    assert!(
        entered.recv_timeout(HELD).is_err(),
        "entered inside the hardware commit window"
    );
    rig.sys.heap.write_raw(x, 7); // the committer's write-back
    rig.finish();
    assert_eq!(entered.recv_timeout(DEADLINE), Ok(7), "sees the write-back");
    assert_eq!(rig.sys.fallback_seq.load(Ordering::SeqCst), 2);
}

/// A software reader whose snapshot predates a hardware tick: its next read
/// waits for the window to close, then revalidates by value.
fn reader_inside_the_window(write_back: Option<u64>) -> (Result<u64, Abort>, u64, Arc<Rig>, Addr) {
    let rig = Arc::new(Rig::new(Family::HyNOrec, 5));
    let w = rig.lines(2);
    let mut ctx = ThreadCtx::new(0);
    rig.begin_in_software(&mut ctx);
    assert_eq!(rig.tm.read(&mut ctx, w[0]), Ok(0));
    assert_eq!(ctx.rv, 0);
    rig.tick();
    let read = {
        let (rig, y) = (Arc::clone(&rig), w[1]);
        helper(move || {
            let out = rig.tm.read(&mut ctx, y);
            rig.tm.rollback(&mut ctx);
            (out, ctx.rv)
        })
    };
    assert!(
        read.recv_timeout(HELD).is_err(),
        "read through an open hardware commit window"
    );
    if let Some(v) = write_back {
        rig.sys.heap.write_raw(w[0], v);
    }
    rig.finish();
    let (out, rv) = read.recv_timeout(DEADLINE).expect("reader never returned");
    (out, rv, rig, w[0])
}

#[test]
fn a_hybrid_norec_reader_waits_out_the_window_and_extends_its_snapshot() {
    // The committer wrote elsewhere (or the same value): nothing we read
    // changed, so the read succeeds on the new snapshot.
    for write_back in [None, Some(0)] {
        let (out, rv, rig, _) = reader_inside_the_window(write_back);
        assert_eq!(out, Ok(0));
        assert_eq!(rv, 1, "snapshot extended to the hardware tick");
        assert_eq!(rig.sys.norec_seq.load(Ordering::SeqCst), 0);
    }
}

#[test]
fn a_hybrid_norec_reader_aborts_when_the_window_changed_what_it_read() {
    let (out, _, rig, x) = reader_inside_the_window(Some(3));
    let abort = out.unwrap_err();
    assert_eq!(abort, Abort::CONFLICT);
    assert_eq!(abort.stripe(), Some(rig.sys.orecs.index_for(x) as u32));
}

/// A software committer that wins the lock while a hardware commit is in
/// its window: it waits, then validates by value under the lock.
fn commit_inside_the_window(write_back: Option<u64>) -> (Result<(), Abort>, Arc<Rig>, Vec<Addr>) {
    let rig = Arc::new(Rig::new(Family::HyNOrec, 5));
    let w = rig.lines(2);
    let mut ctx = ThreadCtx::new(0);
    rig.begin_in_software(&mut ctx);
    assert_eq!(rig.tm.read(&mut ctx, w[0]), Ok(0));
    rig.tm.write(&mut ctx, w[1], 4).unwrap();
    rig.tick();
    let commit = {
        let rig = Arc::clone(&rig);
        helper(move || {
            let out = rig.tm.commit(&mut ctx);
            if out.is_err() {
                rig.tm.rollback(&mut ctx);
            }
            out
        })
    };
    wait_for("the sequence lock to be taken", || {
        rig.sys.norec_seq.load(Ordering::SeqCst) == 1
    });
    assert!(
        commit.recv_timeout(HELD).is_err(),
        "wrote back inside the hardware commit window"
    );
    if let Some(v) = write_back {
        rig.sys.heap.write_raw(w[0], v);
    }
    rig.finish();
    let out = commit
        .recv_timeout(DEADLINE)
        .expect("commit never returned");
    (out, rig, w)
}

#[test]
fn a_norec_commit_that_drains_a_clashing_hardware_commit_restores_the_lock() {
    let (out, rig, w) = commit_inside_the_window(Some(8));
    let abort = out.unwrap_err();
    assert_eq!(abort, Abort::CONFLICT);
    assert_eq!(abort.stripe(), Some(rig.sys.orecs.index_for(w[0]) as u32));
    assert_eq!(
        rig.sys.norec_seq.load(Ordering::SeqCst),
        0,
        "even, and the value it had: nothing was published"
    );
    assert_eq!(rig.sys.heap.read_raw(w[1]), 0, "no write-back");
}

#[test]
fn a_norec_commit_that_drains_a_harmless_hardware_commit_goes_through() {
    let (out, rig, w) = commit_inside_the_window(None);
    assert_eq!(out, Ok(()));
    assert_eq!(rig.sys.norec_seq.load(Ordering::SeqCst), 2);
    assert_eq!(rig.sys.heap.read_raw(w[1]), 4);
}

// ---- stress: opacity under real threads ---------------------------------

/// Each pair of words sums to this, always.
const PAIR_SUM: u64 = 1_000;
const PAIRS: usize = 6;
const TXS_PER_THREAD: u64 = 1_500;

/// `threads` workers shuffle value inside pairs (the sum of a pair never
/// changes) and count their own transactions in a word each. Every
/// transaction checks the sum of each pair it read — a torn snapshot shows
/// there even if the attempt would abort later — and every fifth one reads
/// all pairs first. Violations are recorded, not panicked on: a thread that
/// unwinds while it holds the fallback lock would hang the others.
fn stress(family: Family, threads: usize, budget: u32) {
    let rig = Rig::new(family, budget);
    let words = rig.lines(2 * PAIRS + threads);
    let (pairs, counters) = words.split_at(2 * PAIRS);
    for p in pairs.chunks(2) {
        rig.sys.heap.write_raw(p[0], PAIR_SUM);
    }
    let torn = AtomicBool::new(false);
    let at = format!("{family:?} threads={threads} budget={budget}");

    std::thread::scope(|s| {
        for (t, &mine) in counters.iter().enumerate() {
            let (rig, torn) = (&rig, &torn);
            s.spawn(move || {
                let mut ctx = ThreadCtx::new(t);
                let mut rng = txcore::util::XorShift64::new(0xC0FFEE + t as u64);
                for n in 0..TXS_PER_THREAD {
                    let (i, j) = (
                        rng.next_below(PAIRS as u64) as usize,
                        rng.next_below(PAIRS as u64) as usize,
                    );
                    let scan = n % 5 == 4;
                    run_tx(rig.tm.as_ref(), &mut ctx, |tx| {
                        let pair = |tx: &mut Tx<'_>, p: usize| {
                            let (lo, hi) = (tx.read(pairs[2 * p])?, tx.read(pairs[2 * p + 1])?);
                            if lo + hi != PAIR_SUM {
                                torn.store(true, Ordering::Relaxed);
                            }
                            TxResult::Ok((lo, hi))
                        };
                        if scan {
                            for p in 0..PAIRS {
                                pair(tx, p)?;
                            }
                        }
                        // Move one unit inside each of two pairs.
                        for p in [i, j] {
                            let (lo, hi) = pair(tx, p)?;
                            let (lo, hi) = if lo > 0 {
                                (lo - 1, hi + 1)
                            } else {
                                (lo + 1, hi - 1)
                            };
                            tx.write(pairs[2 * p], lo)?;
                            tx.write(pairs[2 * p + 1], hi)?;
                        }
                        let c = tx.read(mine)?;
                        tx.write(mine, c + 1)
                    });
                }
            });
        }
    });

    assert!(!torn.load(Ordering::Relaxed), "{at}: torn snapshot");
    for p in pairs.chunks(2) {
        let sum = rig.sys.heap.read_raw(p[0]) + rig.sys.heap.read_raw(p[1]);
        assert_eq!(sum, PAIR_SUM, "{at}: lost update in a pair");
    }
    for &c in counters {
        assert_eq!(rig.sys.heap.read_raw(c), TXS_PER_THREAD, "{at}");
    }
    let done = rig.sys.hw_done.load(Ordering::SeqCst);
    assert_eq!(rig.sys.hw_clock.load(Ordering::SeqCst), done, "{at}");
    assert_eq!(
        rig.seq().load(Ordering::SeqCst) & 1,
        0,
        "{at}: lock left odd"
    );
}

/// The whole stress matrix under one deadline, so a lost wake-up in the
/// handshake is a failure, not a hung run.
#[test]
fn pair_sums_hold_inside_every_transaction() {
    let done = helper(|| {
        for family in FAMILIES {
            for threads in [2, 4] {
                for budget in [1, 5] {
                    stress(family, threads, budget);
                }
            }
        }
    });
    done.recv_timeout(Duration::from_secs(30))
        .expect("stress did not finish (or a worker panicked): handshake hang?");
}
