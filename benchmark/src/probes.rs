//! Differential probes: what one layer costs, taken from outside by timing
//! batches of calls into public functions and subtracting.
//!
//! A probe's slice is `ref burst › batch of calls › ref burst`; its value
//! is the batch's time per call in refs. The probes are interleaved
//! round-robin over the backends like everything else, and a difference is
//! taken between two batches of the same round, which ran back to back.

use crate::refkernel::RefKernel;
use crate::stats::{ref_ns, to_ref};
use crate::world::{config, layer, slug, Oracle, World};
use polytm::{BackendId, ThreadGate};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use txcore::{
    run_tx, Addr, LocalStats, ReadSet, ThreadCtx, ThreadStats, TmBackend, TxResult, WriteSet,
};

/// Calls per batch of a cheap probe (the issue asks for at least 10 k).
const CALLS: u64 = 20_000;
/// Calls per batch of a multi-access transaction.
const TX_CALLS: u64 = 10_000;
const READS: u32 = 32;
const WRITES: u32 = 16;
const SET_ENTRIES: u32 = 16;
/// Words between probe addresses: each access has its own stripe and line.
const STRIDE: u32 = 16;
/// Idle applies per batch.
const APPLIES: u64 = 200;

/// Per-round values of every probe metric, in refs.
pub type Series = BTreeMap<String, Vec<f64>>;

/// Refs per call of `calls` back-to-back calls of `f`.
fn batch(kernel: &mut RefKernel, calls: u64, mut f: impl FnMut()) -> f64 {
    let pre = kernel.burst_ns();
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    let ns = t0.elapsed().as_nanos() as f64;
    let post = kernel.burst_ns();
    to_ref(ns / calls as f64, ref_ns(&[pre, post]))
}

/// `begin` + `commit` directly on the backend, as the driver calls them.
fn begin_commit(backend: &dyn TmBackend, ctx: &mut ThreadCtx) {
    if backend.begin(ctx).is_ok() && backend.commit(ctx).is_err() {
        backend.rollback(ctx);
    }
}

pub fn run(world: &World, rounds: usize, oracle: &mut Oracle) -> Series {
    let poly = &world.poly;
    let mut series = Series::new();
    let mut put = |name: String, v: f64| series.entry(name).or_default().push(v);
    let mut kernel = RefKernel::new(0);
    let mut worker = poly.register_thread(0);
    // Contexts of the benchmark's own for the calls that bypass PolyTM. A
    // context whose sets once spilled to their index clears that index at
    // every later begin, so the multi-access transactions get their own and
    // the envelope probes run on one that stays as small as the worker's.
    let mut ctx = ThreadCtx::new(0);
    let mut big_ctx = ThreadCtx::new(0);
    let region = poly.system().heap.alloc((READS * STRIDE) as usize);
    let at = |i: u32| region.field(i * STRIDE);
    let gate = ThreadGate::new(2);
    let stats = ThreadStats::new();
    let local = LocalStats {
        commits: 1,
        committed_reads: 13,
        committed_writes: 13,
        ..LocalStats::default()
    };
    let (mut wset, mut rset) = (WriteSet::new(), ReadSet::new());

    for _ in 0..rounds {
        put(
            "polytm.gate_pair_ref".into(),
            batch(&mut kernel, CALLS, || {
                gate.enter(0);
                gate.exit(0);
            }),
        );
        put(
            "txcore.stats_fold_ref".into(),
            batch(&mut kernel, CALLS, || stats.fold(black_box(&local))),
        );
        let per_entry = |refs: f64| refs / SET_ENTRIES as f64;
        put(
            "txcore.wset_insert_ref".into(),
            per_entry(batch(&mut kernel, CALLS, || {
                wset.clear();
                for i in 0..SET_ENTRIES {
                    wset.insert(black_box(Addr(i * STRIDE)), i as u64);
                }
            })),
        );
        put(
            "txcore.wset_get_ref".into(),
            per_entry(batch(&mut kernel, CALLS, || {
                for i in 0..SET_ENTRIES {
                    black_box(wset.get(black_box(Addr(i * STRIDE))));
                }
            })),
        );
        put(
            "txcore.rset_push_ref".into(),
            per_entry(batch(&mut kernel, CALLS, || {
                rset.clear();
                for i in 0..SET_ENTRIES {
                    rset.push_orec(black_box((i * STRIDE) as usize), 2);
                }
            })),
        );

        for b in BackendId::ALL {
            if let Err(e) = poly.apply(&config(b, 1)) {
                oracle.fail(1, format!("probe switch to {b}: {e}"));
                continue;
            }
            let backend = poly.backend(b).as_ref();
            let (l, s) = (layer(b), slug(b));
            let empty = batch(&mut kernel, CALLS, || {
                poly.run_tx(&mut worker, |_| -> TxResult<()> { Ok(()) })
            });
            let bare = batch(&mut kernel, CALLS, || {
                run_tx(backend, &mut ctx, |_| -> TxResult<()> { Ok(()) })
            });
            let direct = batch(&mut kernel, CALLS, || begin_commit(backend, &mut ctx));
            let reads = batch(&mut kernel, TX_CALLS, || {
                run_tx(backend, &mut big_ctx, |tx| {
                    let mut sum = 0u64;
                    for i in 0..READS {
                        sum = sum.wrapping_add(tx.read(at(i))?);
                    }
                    Ok(black_box(sum))
                });
            });
            let writes = batch(&mut kernel, TX_CALLS, || {
                run_tx(backend, &mut big_ctx, |tx| {
                    for i in 0..WRITES {
                        tx.write(at(i), i as u64)?;
                    }
                    Ok(())
                })
            });
            put(format!("polytm.empty_tx_ref.{s}"), empty);
            put(format!("bare_tx_ref.{s}"), bare);
            put(format!("polytm.over_bare_ref.{s}"), empty - bare);
            put(format!("{l}.{s}.begin_commit_ref"), direct);
            put(format!("{l}.{s}.read_ref"), (reads - bare) / READS as f64);
            put(
                format!("{l}.{s}.write_ref"),
                (writes - bare) / WRITES as f64,
            );
            if b == BackendId::Tl2 {
                put("txcore.exec_driver_ref".into(), bare - direct);
            }
            oracle.attempted += 3 * CALLS + 2 * TX_CALLS;
        }

        // Idle applies: nobody is inside a transaction, so this is the
        // protocol's own cost. Resize keeps the backend and flips the
        // degree; switch alternates between two backends.
        let mut flip = false;
        let mut apply = |a: (BackendId, usize), b: (BackendId, usize), oracle: &mut Oracle| {
            flip = !flip;
            let (backend, threads) = if flip { a } else { b };
            if poly.apply(&config(backend, threads)).is_err() {
                oracle.fail(1, format!("idle apply {backend}×{threads}"));
            }
        };
        apply((BackendId::Tl2, 2), (BackendId::Tl2, 2), oracle);
        put(
            "polytm.apply_resize_ref".into(),
            batch(&mut kernel, APPLIES, || {
                apply((BackendId::Tl2, 1), (BackendId::Tl2, 2), oracle)
            }),
        );
        put(
            "polytm.apply_switch_ref".into(),
            batch(&mut kernel, APPLIES, || {
                apply((BackendId::NOrec, 2), (BackendId::Tl2, 2), oracle)
            }),
        );
    }
    series
}
