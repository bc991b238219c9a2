//! Node recycling: each linked structure gives the nodes its `remove`
//! unlinks to its free list, and its `insert` takes them back before it
//! allocates. Checked through the public API only: the heap's bump counter
//! says whether a node was allocated, and lookups say whether the
//! structure is whole.

use apps::structures::{HashMap, LinkedList, RedBlackTree, SkipList};
use apps::{drive, AppWorkload, TmApp};
use polytm::{BackendId, HtmSetting, PolyTm, TmConfig, Worker};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use stm::Tl2;
use txcore::util::XorShift64;
use txcore::{run_tx, DurabilityMode, Heap, ThreadCtx, TmSystem, Tx, TxResult};

/// The four structures behind one interface.
trait Set: Copy + Send + Sync + 'static {
    fn create(heap: &Heap) -> Self;
    fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool>;
    fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool>;
    fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>>;
    fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64>;
}

macro_rules! ordered_set {
    ($t:ty) => {
        impl Set for $t {
            fn create(heap: &Heap) -> Self {
                <$t>::create(heap)
            }
            fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool> {
                <$t>::insert(self, tx, heap, key, value)
            }
            fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool> {
                <$t>::remove(self, tx, key)
            }
            fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
                <$t>::get(self, tx, key)
            }
            fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
                <$t>::len(self, tx)
            }
        }
    };
}

ordered_set!(RedBlackTree);
ordered_set!(SkipList);
ordered_set!(LinkedList);

impl Set for HashMap {
    fn create(heap: &Heap) -> Self {
        HashMap::create(heap, 16)
    }
    fn insert(&self, tx: &mut Tx<'_>, heap: &Heap, key: u64, value: u64) -> TxResult<bool> {
        HashMap::insert(self, tx, heap, key, value)
    }
    fn remove(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<bool> {
        Ok(HashMap::remove(self, tx, key)?.is_some())
    }
    fn get(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<u64>> {
        HashMap::get(self, tx, key)
    }
    fn len(&self, tx: &mut Tx<'_>) -> TxResult<u64> {
        HashMap::len(self, tx)
    }
}

/// The value stored under `key`, so that a lookup can tell a node's
/// contents apart from a stale copy.
fn value_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1
}

/// Prefill `N` keys, then `K` rounds of removing one key and inserting a
/// key never seen before: after the prefill the heap does not grow by a
/// single word.
fn churn_allocates_nothing_after_prefill<S: Set>() {
    const N: u64 = 64;
    const K: u64 = 500;
    let sys = Arc::new(TmSystem::new(1 << 16));
    let heap = &sys.heap;
    let tm = Tl2::new(Arc::clone(&sys));
    let mut ctx = ThreadCtx::new(0);
    let set = S::create(heap);
    // Keys spread over the range, so each structure's search is not trivial.
    let key = |i: u64| (i + 1).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 8;
    for i in 0..N {
        assert!(run_tx(&tm, &mut ctx, |tx| set.insert(
            tx,
            heap,
            key(i),
            value_of(key(i))
        )));
    }
    let prefilled = heap.allocated();
    for round in 0..K {
        let (gone, new) = (key(round), key(N + round));
        assert!(run_tx(&tm, &mut ctx, |tx| set.remove(tx, gone)));
        assert!(run_tx(&tm, &mut ctx, |tx| set.insert(
            tx,
            heap,
            new,
            value_of(new)
        )));
    }
    assert_eq!(heap.allocated(), prefilled, "the heap grew under churn");
    assert_eq!(run_tx(&tm, &mut ctx, |tx| set.len(tx)), N);
    for i in 0..N + K {
        let want = (i >= K).then(|| value_of(key(i)));
        assert_eq!(
            run_tx(&tm, &mut ctx, |tx| set.get(tx, key(i))),
            want,
            "key #{i}"
        );
    }
}

#[test]
fn red_black_tree_churn_allocates_nothing_after_prefill() {
    churn_allocates_nothing_after_prefill::<RedBlackTree>();
}

#[test]
fn skip_list_churn_allocates_nothing_after_prefill() {
    churn_allocates_nothing_after_prefill::<SkipList>();
}

#[test]
fn linked_list_churn_allocates_nothing_after_prefill() {
    churn_allocates_nothing_after_prefill::<LinkedList>();
}

#[test]
fn hash_map_churn_allocates_nothing_after_prefill() {
    churn_allocates_nothing_after_prefill::<HashMap>();
}

/// Keys the concurrent churn draws from, `1..=KEYS`.
const KEYS: u64 = 64;

/// Four threads of gets (30 %), inserts (30 %) and removes (40 %) on a
/// small key range. It keeps the keys' net count and its high-water mark.
struct Churn<S: Set> {
    set: S,
    live: AtomicI64,
    live_max: AtomicI64,
}

impl<S: Set> TmApp for Churn<S> {
    fn name(&self) -> &'static str {
        "churn"
    }

    fn op(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64) {
        let key = 1 + rng.next_below(KEYS);
        let heap = &poly.system().heap;
        let set = self.set;
        match rng.next_below(10) {
            0..=2 => {
                let got = poly.run_tx(worker, |tx| set.get(tx, key));
                assert!(
                    got.is_none_or(|v| v == value_of(key)),
                    "key {key} read {got:?}"
                );
            }
            3..=5 => {
                if poly.run_tx(worker, |tx| set.insert(tx, heap, key, value_of(key))) {
                    let now = self.live.fetch_add(1, Ordering::Relaxed) + 1;
                    self.live_max.fetch_max(now, Ordering::Relaxed);
                }
            }
            _ => {
                if poly.run_tx(worker, |tx| set.remove(tx, key)) {
                    self.live.fetch_sub(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn config(b: BackendId, threads: usize) -> TmConfig {
    match b {
        BackendId::Durable => TmConfig::durable(threads, DurabilityMode::Strict),
        b if b.is_hardware() => TmConfig::htm(b, threads, HtmSetting::DEFAULT),
        b => TmConfig::stm(b, threads),
    }
}

/// Every backend runs the churn on a fresh structure. Afterwards the keys
/// found are exactly inserts minus removes, each with its own value, and
/// the nodes allocated are no more than were ever live at once, plus one
/// per thread: an aborted insert's fresh node is its thread's next one.
fn concurrent_churn_keeps_the_structure_whole<S: Set>() {
    const THREADS: u64 = 4;
    for b in BackendId::ALL {
        let poly = Arc::new(
            PolyTm::builder()
                .heap_words(1 << 18)
                .max_threads(THREADS as usize)
                .build(),
        );
        poly.apply(&config(b, THREADS as usize)).unwrap();
        let heap = &poly.system().heap;
        let churn = Arc::new(Churn {
            set: S::create(heap),
            live: AtomicI64::new(0),
            live_max: AtomicI64::new(0),
        });
        let set = churn.set;
        // One node's size in words, read off the bump counter. The node
        // stays on the free list for the churn's first insert.
        let mut worker = poly.register_thread(0);
        let created = heap.allocated();
        let probe = KEYS + 1;
        assert!(poly.run_tx(&mut worker, |tx| set.insert(
            tx,
            heap,
            probe,
            value_of(probe)
        )));
        assert!(poly.run_tx(&mut worker, |tx| set.remove(tx, probe)));
        let node_words = (heap.allocated() - created) as u64;
        drop(worker);

        let app: Arc<dyn TmApp> = churn.clone();
        let workload = AppWorkload {
            threads: THREADS as usize,
            ops_per_thread: Some(400),
            seed: 7,
            ..AppWorkload::default()
        };
        drive(&poly, &app, workload);

        let mut worker = poly.register_thread(0);
        let live = churn.live.load(Ordering::Relaxed) as u64;
        assert_eq!(poly.run_tx(&mut worker, |tx| set.len(tx)), live, "{b:?}");
        let found = (1..=KEYS)
            .filter_map(|k| {
                poly.run_tx(&mut worker, |tx| set.get(tx, k))
                    .map(|v| (k, v))
            })
            .inspect(|&(k, v)| assert_eq!(v, value_of(k), "{b:?}: key {k}"))
            .count();
        assert_eq!(found as u64, live, "{b:?}: keys found");
        // The high-water mark is read after each commit, so up to one
        // committed insert per thread may be missing from it.
        let nodes = (heap.allocated() - created) as u64 / node_words;
        let live_max = churn.live_max.load(Ordering::Relaxed).max(1) as u64 + THREADS;
        assert!(
            nodes <= live_max + THREADS,
            "{b:?}: {nodes} nodes allocated, at most {live_max} live at once"
        );
    }
}

#[test]
fn skip_list_stays_whole_under_concurrent_churn_on_every_backend() {
    concurrent_churn_keeps_the_structure_whole::<SkipList>();
}

#[test]
fn linked_list_stays_whole_under_concurrent_churn_on_every_backend() {
    concurrent_churn_keeps_the_structure_whole::<LinkedList>();
}

#[test]
fn hash_map_stays_whole_under_concurrent_churn_on_every_backend() {
    concurrent_churn_keeps_the_structure_whole::<HashMap>();
}
