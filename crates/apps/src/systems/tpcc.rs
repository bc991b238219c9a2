//! TPC-C-lite: the OLTP workload with in-memory tables, "one atomic block
//! encompassing each transaction" (Table 1). Implements the two dominant
//! profile transactions, New-Order and Payment, over warehouse / district /
//! customer / stock tables laid out in the transactional heap.

use crate::driver::TmApp;
use polytm::{PolyTm, Worker};
use std::sync::Arc;
use txcore::util::XorShift64;
use txcore::{Addr, TmSystem, TxResult};

const DISTRICTS_PER_WH: u64 = 10;
const CUSTOMERS_PER_DIST: u64 = 30;
const ITEMS: u64 = 100;

// Per-row word layouts.
const WH_YTD: u32 = 0; // warehouse: [ytd]
const D_NEXT_OID: u32 = 0; // district: [next_o_id, ytd]
const D_YTD: u32 = 1;
const C_BALANCE: u32 = 0; // customer: [balance, ytd_payment, order_cnt]
const C_YTD: u32 = 1;
const C_ORDERS: u32 = 2;
const S_QTY: u32 = 0; // stock: [quantity, order_cnt]
const S_ORDERS: u32 = 1;

const WH_WORDS: u64 = 1;
const D_WORDS: u64 = 2;
const C_WORDS: u64 = 3;
const S_WORDS: u64 = 2;

/// Initial customer balance (scaled integer "cents").
const INITIAL_BALANCE: u64 = 1_000_000;
/// Initial stock quantity per item.
const INITIAL_STOCK: u64 = 1_000_000;

/// The TPC-C-lite database.
#[derive(Debug)]
pub struct TpcC {
    warehouses: Addr,
    districts: Addr,
    customers: Addr,
    stock: Addr,
    n_warehouses: u64,
    /// Order lines per New-Order transaction.
    ol_cnt: u64,
}

impl TpcC {
    /// Create and populate a database with `n_warehouses` warehouses.
    pub fn setup(sys: &Arc<TmSystem>, n_warehouses: u64, ol_cnt: u64) -> Self {
        let heap = &sys.heap;
        let w = n_warehouses;
        let db = TpcC {
            warehouses: heap.alloc((w * WH_WORDS) as usize),
            districts: heap.alloc((w * DISTRICTS_PER_WH * D_WORDS) as usize),
            customers: heap.alloc((w * DISTRICTS_PER_WH * CUSTOMERS_PER_DIST * C_WORDS) as usize),
            stock: heap.alloc((w * ITEMS * S_WORDS) as usize),
            n_warehouses: w,
            ol_cnt: ol_cnt.clamp(1, 15),
        };
        for c in 0..(w * DISTRICTS_PER_WH * CUSTOMERS_PER_DIST) {
            heap.write_raw(
                db.customers.field((c * C_WORDS) as u32 + C_BALANCE),
                INITIAL_BALANCE,
            );
        }
        for s in 0..(w * ITEMS) {
            heap.write_raw(db.stock.field((s * S_WORDS) as u32 + S_QTY), INITIAL_STOCK);
        }
        db
    }

    fn district_base(&self, wh: u64, d: u64) -> u32 {
        ((wh * DISTRICTS_PER_WH + d) * D_WORDS) as u32
    }

    fn customer_base(&self, wh: u64, d: u64, c: u64) -> u32 {
        (((wh * DISTRICTS_PER_WH + d) * CUSTOMERS_PER_DIST + c) * C_WORDS) as u32
    }

    fn stock_base(&self, wh: u64, item: u64) -> u32 {
        ((wh * ITEMS + item) * S_WORDS) as u32
    }

    /// New-Order: allocate an order id from the district, then pick
    /// `ol_cnt` items and draw stock for each.
    fn new_order(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64) {
        let wh = rng.next_below(self.n_warehouses);
        let d = rng.next_below(DISTRICTS_PER_WH);
        let c = rng.next_below(CUSTOMERS_PER_DIST);
        // `ol_cnt` is at most 15, so the order lines fit on the stack.
        let ol_cnt = self.ol_cnt as usize;
        let mut lines = [(0u64, 0u64); 15];
        for line in &mut lines[..ol_cnt] {
            *line = (rng.next_below(ITEMS), rng.next_below(5) + 1);
        }
        let items = &lines[..ol_cnt];
        let d_base = self.district_base(wh, d);
        let c_base = self.customer_base(wh, d, c);
        let (districts, customers, stock) = (self.districts, self.customers, self.stock);
        poly.run_tx(worker, |tx| -> TxResult<()> {
            let oid = tx.read(districts.field(d_base + D_NEXT_OID))?;
            tx.write(districts.field(d_base + D_NEXT_OID), oid + 1)?;
            for &(item, qty) in items {
                let s_base = self.stock_base(wh, item);
                let s_qty = tx.read(stock.field(s_base + S_QTY))?;
                // TPC-C's replenishment rule: wrap low stock back up.
                let new_qty = if s_qty >= qty + 10 {
                    s_qty - qty
                } else {
                    s_qty + 91 - qty
                };
                tx.write(stock.field(s_base + S_QTY), new_qty)?;
                let so = tx.read(stock.field(s_base + S_ORDERS))?;
                tx.write(stock.field(s_base + S_ORDERS), so + 1)?;
            }
            let orders = tx.read(customers.field(c_base + C_ORDERS))?;
            tx.write(customers.field(c_base + C_ORDERS), orders + 1)?;
            Ok(())
        });
    }

    /// Payment: move money from a customer balance into district and
    /// warehouse year-to-date totals.
    fn payment(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64) {
        let wh = rng.next_below(self.n_warehouses);
        let d = rng.next_below(DISTRICTS_PER_WH);
        let c = rng.next_below(CUSTOMERS_PER_DIST);
        let amount = rng.next_below(5000) + 1;
        let wh_base = (wh * WH_WORDS) as u32;
        let d_base = self.district_base(wh, d);
        let c_base = self.customer_base(wh, d, c);
        let (warehouses, districts, customers) = (self.warehouses, self.districts, self.customers);
        poly.run_tx(worker, |tx| -> TxResult<()> {
            let balance = tx.read(customers.field(c_base + C_BALANCE))?;
            if balance < amount {
                return Ok(()); // insufficient funds: no-op payment
            }
            tx.write(customers.field(c_base + C_BALANCE), balance - amount)?;
            let cy = tx.read(customers.field(c_base + C_YTD))?;
            tx.write(customers.field(c_base + C_YTD), cy + amount)?;
            let dy = tx.read(districts.field(d_base + D_YTD))?;
            tx.write(districts.field(d_base + D_YTD), dy + amount)?;
            let wy = tx.read(warehouses.field(wh_base + WH_YTD))?;
            tx.write(warehouses.field(wh_base + WH_YTD), wy + amount)?;
            Ok(())
        });
    }

    /// Money conservation check (quiescent): every customer's spending must
    /// be accounted in their YTD, districts and warehouses must agree.
    pub fn check_money_conservation(&self, sys: &Arc<TmSystem>) {
        let heap = &sys.heap;
        let mut spent = 0u64;
        let n_cust = self.n_warehouses * DISTRICTS_PER_WH * CUSTOMERS_PER_DIST;
        for c in 0..n_cust {
            let base = (c * C_WORDS) as u32;
            let balance = heap.read_raw(self.customers.field(base + C_BALANCE));
            let ytd = heap.read_raw(self.customers.field(base + C_YTD));
            assert_eq!(
                balance + ytd,
                INITIAL_BALANCE,
                "customer {c}: balance+ytd drifted"
            );
            spent += ytd;
        }
        let district_ytd: u64 = (0..self.n_warehouses * DISTRICTS_PER_WH)
            .map(|d| heap.read_raw(self.districts.field((d * D_WORDS) as u32 + D_YTD)))
            .sum();
        let warehouse_ytd: u64 = (0..self.n_warehouses)
            .map(|w| heap.read_raw(self.warehouses.field((w * WH_WORDS) as u32 + WH_YTD)))
            .sum();
        assert_eq!(spent, district_ytd, "district ledgers disagree");
        assert_eq!(spent, warehouse_ytd, "warehouse ledgers disagree");
    }
}

impl TmApp for TpcC {
    fn name(&self) -> &'static str {
        "tpc-c"
    }

    fn op(&self, poly: &PolyTm, worker: &mut Worker, rng: &mut XorShift64) {
        // The classic profile: roughly half new-orders, half payments.
        if rng.next_below(100) < 51 {
            self.new_order(poly, worker, rng);
        } else {
            self.payment(poly, worker, rng);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{drive, AppWorkload, TmApp};

    #[test]
    fn money_is_conserved_under_concurrency() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 18).max_threads(4).build());
        let app = Arc::new(TpcC::setup(poly.system(), 2, 8));
        let app_dyn: Arc<dyn TmApp> = app.clone();
        let report = drive(
            &poly,
            &app_dyn,
            AppWorkload {
                threads: 4,
                ops_per_thread: Some(250),
                ..AppWorkload::default()
            },
        );
        assert_eq!(report.stats.commits, 1000);
        app.check_money_conservation(poly.system());
    }

    #[test]
    fn new_orders_advance_order_ids() {
        let poly = Arc::new(PolyTm::builder().heap_words(1 << 18).max_threads(1).build());
        let app = Arc::new(TpcC::setup(poly.system(), 1, 5));
        let mut worker = poly.register_thread(0);
        let mut rng = XorShift64::new(77);
        for _ in 0..100 {
            app.new_order(&poly, &mut worker, &mut rng);
        }
        let total_oids: u64 = (0..DISTRICTS_PER_WH)
            .map(|d| {
                poly.system()
                    .heap
                    .read_raw(app.districts.field(app.district_base(0, d) + D_NEXT_OID))
            })
            .sum();
        assert_eq!(total_oids, 100);
    }
}
