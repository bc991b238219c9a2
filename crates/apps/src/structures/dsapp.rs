//! The "Data Structures" benchmark of Table 1: one driver over the four
//! concurrent structures, with the update ratio and key range (contention)
//! as knobs — "workloads varying contention and update ratio".

use crate::driver::TmApp;
use crate::structures::{HashMap, LinkedList, RedBlackTree, SkipList};
use polytm::{PolyTm, Worker};
use std::sync::Arc;
use txcore::util::XorShift64;
use txcore::{TmSystem, TxResult};

/// Which structure the workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DsKind {
    /// Red-black tree.
    RedBlackTree,
    /// Skip list.
    SkipList,
    /// Sorted linked list.
    LinkedList,
    /// Chained hash map.
    HashMap,
}

impl DsKind {
    /// All four structures.
    pub const ALL: [DsKind; 4] = [
        DsKind::RedBlackTree,
        DsKind::SkipList,
        DsKind::LinkedList,
        DsKind::HashMap,
    ];
}

#[derive(Debug)]
enum Ds {
    Rbt(RedBlackTree),
    Skip(SkipList),
    List(LinkedList),
    Map(HashMap),
}

/// Workload knobs for [`DsApp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsParams {
    /// Percentage of operations that mutate (insert/remove), 0–100.
    pub update_pct: u64,
    /// Key range; smaller = hotter keys = more contention.
    pub key_range: u64,
    /// Keys pre-inserted before the run (half the range by default).
    pub prefill: u64,
}

impl Default for DsParams {
    fn default() -> Self {
        DsParams {
            update_pct: 30,
            key_range: 1 << 12,
            prefill: 1 << 11,
        }
    }
}

/// The configurable data-structure workload (a [`TmApp`]).
#[derive(Debug)]
pub struct DsApp {
    ds: Ds,
    params: DsParams,
}

impl DsApp {
    /// Build and prefill the chosen structure.
    pub fn setup(sys: &Arc<TmSystem>, kind: DsKind, params: DsParams) -> Self {
        let heap = &sys.heap;
        let ds = match kind {
            DsKind::RedBlackTree => Ds::Rbt(RedBlackTree::create(heap)),
            DsKind::SkipList => Ds::Skip(SkipList::create(heap)),
            DsKind::LinkedList => Ds::List(LinkedList::create(heap)),
            DsKind::HashMap => Ds::Map(HashMap::create(
                heap,
                (params.key_range / 4).max(16) as usize,
            )),
        };
        let app = DsApp { ds, params };
        let tm = stm::Tl2::new(Arc::clone(sys));
        let mut ctx = txcore::ThreadCtx::new(0);
        let mut rng = XorShift64::new(0xD5);
        for _ in 0..params.prefill {
            let key = rng.next_below(params.key_range.max(1)) + 1;
            txcore::run_tx(&tm, &mut ctx, |tx| app.insert(tx, heap, key, key));
        }
        app
    }

    fn insert(
        &self,
        tx: &mut txcore::Tx<'_>,
        heap: &txcore::Heap,
        k: u64,
        v: u64,
    ) -> TxResult<bool> {
        match &self.ds {
            Ds::Rbt(d) => d.insert(tx, heap, k, v),
            Ds::Skip(d) => d.insert(tx, heap, k, v),
            Ds::List(d) => d.insert(tx, heap, k, v),
            Ds::Map(d) => d.insert(tx, heap, k, v),
        }
    }

    fn remove(&self, tx: &mut txcore::Tx<'_>, k: u64) -> TxResult<bool> {
        match &self.ds {
            Ds::Rbt(d) => d.remove(tx, k),
            Ds::Skip(d) => d.remove(tx, k),
            Ds::List(d) => d.remove(tx, k),
            Ds::Map(d) => Ok(d.remove(tx, k)?.is_some()),
        }
    }

    fn get(&self, tx: &mut txcore::Tx<'_>, k: u64) -> TxResult<Option<u64>> {
        match &self.ds {
            Ds::Rbt(d) => d.get(tx, k),
            Ds::Skip(d) => d.get(tx, k),
            Ds::List(d) => d.get(tx, k),
            Ds::Map(d) => d.get(tx, k),
        }
    }

    /// Current size (for conservation checks).
    pub fn len(&self, sys: &Arc<TmSystem>) -> u64 {
        let tm = stm::Tl2::new(Arc::clone(sys));
        let mut ctx = txcore::ThreadCtx::new(0);
        txcore::run_tx(&tm, &mut ctx, |tx| match &self.ds {
            Ds::Rbt(d) => d.len(tx),
            Ds::Skip(d) => d.len(tx),
            Ds::List(d) => d.len(tx),
            Ds::Map(d) => d.len(tx),
        })
    }
}

impl TmApp for DsApp {
    fn name(&self) -> &'static str {
        match self.ds {
            Ds::Rbt(_) => "ds/red-black-tree",
            Ds::Skip(_) => "ds/skip-list",
            Ds::List(_) => "ds/linked-list",
            Ds::Map(_) => "ds/hash-map",
        }
    }

    fn op(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64) {
        let key = rng.next_below(self.params.key_range.max(1)) + 1;
        let heap = &poly.system().heap;
        if rng.next_below(100) < self.params.update_pct {
            if rng.next_below(2) == 0 {
                poly.run_tx(worker, |tx| -> TxResult<()> {
                    self.insert(tx, heap, key, key)?;
                    Ok(())
                });
            } else {
                poly.run_tx(worker, |tx| self.remove(tx, key));
            }
        } else {
            poly.run_tx(worker, |tx| self.get(tx, key));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive, AppWorkload, TmApp};

    #[test]
    fn all_four_structures_run_concurrently() {
        for kind in DsKind::ALL {
            let poly = Arc::new(PolyTm::builder().heap_words(1 << 18).max_threads(3).build());
            let params = DsParams {
                update_pct: 50,
                key_range: 128,
                prefill: 64,
            };
            let app = Arc::new(DsApp::setup(poly.system(), kind, params));
            let app_dyn: Arc<dyn TmApp> = app.clone();
            let report = drive(
                &poly,
                &app_dyn,
                AppWorkload {
                    threads: 3,
                    ops_per_thread: Some(200),
                    ..AppWorkload::default()
                },
            );
            assert_eq!(report.stats.commits, 600, "{kind:?}");
            let len = app.len(poly.system());
            assert!(len <= 128, "{kind:?}: size {len} exceeds key range");
        }
    }

    #[test]
    fn lookup_only_workload_never_changes_size() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 18).max_threads(2).build());
        let params = DsParams {
            update_pct: 0,
            key_range: 64,
            prefill: 32,
        };
        let app = Arc::new(DsApp::setup(poly.system(), DsKind::SkipList, params));
        let before = app.len(poly.system());
        let app_dyn: Arc<dyn TmApp> = app.clone();
        drive(
            &poly,
            &app_dyn,
            AppWorkload {
                threads: 2,
                ops_per_thread: Some(300),
                ..AppWorkload::default()
            },
        );
        assert_eq!(app.len(poly.system()), before);
    }
}
