//! `trade_mix`: writes beside reads, with lock contention.
//!
//! Durable store, two connections, each a closed loop of 50% trades and
//! 50% valuation reads over zipf-hot accounts. A trade moves cash from
//! buyer to seller and shares the other way, inside a subtransaction.
//! It takes its write locks first, in sorted-oid order, and reads the
//! current values only under them: a read lock taken first and upgraded
//! later could deadlock against the other connection. A deferred
//! integrity rule checks `cash >= 0`, which holds by construction (a
//! buyer never pays more than it holds). The trade also signals
//! `trade_executed`. A valuation read is one query over a client's
//! positions in its own transaction.

use super::{int, text};
use crate::gen::{Market, Rng, Zipf};
use crate::trace::Rec;
use crate::{Bench, Config, Ctx, Engine, Res, Size};
use hipac::prelude::*;
use hipac_net::HipacClient;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Securities every account holds a position in.
const SYMBOLS: [&str; 4] = ["XRX", "DEC", "IBM", "CCA"];
const START_CASH: i64 = 100_000_000;
const START_SHARES: i64 = 1_000;

/// Oids of the rows one trade touches.
#[derive(Debug, Clone)]
pub struct Book {
    pub accounts: Vec<u64>,
    /// `positions[a][s]`: account `a`'s position in `SYMBOLS[s]`.
    pub positions: Vec<Vec<u64>>,
}

/// Net effect of the acknowledged trades of one connection.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub cash: HashMap<usize, i64>,
    pub shares: HashMap<(usize, usize), i64>,
}

impl Ledger {
    fn merge(&mut self, o: &Ledger) {
        for (k, v) in &o.cash {
            *self.cash.entry(*k).or_default() += v;
        }
        for (k, v) in &o.shares {
            *self.shares.entry(*k).or_default() += v;
        }
    }
}

/// One client connection: the Trader program's loop.
struct Trader {
    client: HipacClient,
    rng: Rng,
    zipf: Zipf,
    market: Market,
    ledger: Ledger,
}

pub struct TradeMix {
    traders: Vec<Trader>,
    book: Book,
    eng: Engine,
}

impl TradeMix {
    pub fn setup(cfg: &Config, dir: &Path) -> Res<TradeMix> {
        let accounts = match cfg.size {
            Size::Full => 500,
            Size::Tiny => 20,
        };
        let eng = Engine::start(Some(dir))?;
        let addr = eng.server.local_addr();
        let connect = |i: u64| -> Res<Trader> {
            let mut rng = Rng::fork(cfg.seed, 10 + i);
            let market = Market::new(SYMBOLS.len(), &mut rng);
            Ok(Trader {
                client: HipacClient::connect(addr).ctx("connect trader")?,
                rng,
                zipf: Zipf::new(accounts, 1.0),
                market,
                ledger: Ledger::default(),
            })
        };
        let traders = vec![connect(0)?, connect(1)?];
        let db = &eng.db;
        let t = db.begin();
        db.store()
            .create_class(
                t,
                "account",
                None,
                vec![int("id").indexed(), int("cash"), int("touch")],
            )
            .ctx("create account class")?;
        db.store()
            .create_class(
                t,
                "position",
                None,
                vec![
                    int("account").indexed(),
                    text("symbol"),
                    int("shares"),
                    int("touch"),
                ],
            )
            .ctx("create position class")?;
        let mut book = Book {
            accounts: Vec::new(),
            positions: Vec::new(),
        };
        for a in 0..accounts as i64 {
            let row = vec![Value::from(a), Value::from(START_CASH), Value::from(0)];
            book.accounts.push(
                db.store()
                    .insert(t, "account", row)
                    .ctx("insert account")?
                    .0,
            );
        }
        for a in 0..accounts as i64 {
            let mut held = Vec::new();
            for s in SYMBOLS {
                let row = vec![
                    Value::from(a),
                    Value::from(s),
                    Value::from(START_SHARES),
                    Value::from(0),
                ];
                held.push(
                    db.store()
                        .insert(t, "position", row)
                        .ctx("insert position")?
                        .0,
                );
            }
            book.positions.push(held);
        }
        db.rules()
            .create_rule(
                t,
                RuleDef::new("cash-nonneg")
                    .on(EventSpec::on_update("account"))
                    .when(Query::parse("from account where new.cash < 0").ctx("parse")?)
                    .then(Action::single(ActionOp::AbortWith {
                        message: "negative cash".into(),
                    }))
                    .ec(CouplingMode::Deferred),
            )
            .ctx("create integrity rule")?;
        db.commit(t).ctx("commit set-up")?;
        db.define_event("trade_executed", &["account", "symbol", "shares"])
            .ctx("define trade_executed")?;
        Ok(TradeMix { traders, book, eng })
    }
}

impl Trader {
    fn run(&mut self, rec: &mut Rec, eng: &Engine, book: &Book, until: Instant) {
        while Instant::now() < until {
            if self.rng.unit() < 0.5 {
                self.trade(rec, eng, book);
            } else {
                self.read(rec);
            }
        }
    }

    fn read(&mut self, rec: &mut Rec) {
        let a = self.zipf.sample(&mut self.rng) as i64;
        let c = &self.client;
        let start = rec.op_start();
        let mut op = 0;
        let r = (|| -> Res<()> {
            let t = rec.call("begin", || c.begin()).ctx("begin")?;
            op = t.0;
            let params = HashMap::from([("a".to_owned(), Value::from(a))]);
            let rows = rec
                .call("query", || {
                    c.query(t, "from position where account = :a", params)
                })
                .ctx("valuation query")?;
            rec.queries += 1;
            rec.rows += rows.len() as u64;
            rec.call("commit", || c.commit(t)).ctx("commit read")?;
            Ok(())
        })();
        if r.is_ok() {
            rec.read.push(start.elapsed());
        }
        rec.op_end("valuation", op, start, r.is_ok());
    }

    fn trade(&mut self, rec: &mut Rec, eng: &Engine, book: &Book) {
        let buyer = self.zipf.sample(&mut self.rng);
        let mut seller = self.zipf.sample(&mut self.rng);
        while seller == buyer {
            seller = self.zipf.sample(&mut self.rng);
        }
        let s = self.rng.range(0, SYMBOLS.len() as u64) as usize;
        let qty = self.rng.range(1, 100) as i64;
        let price = self.market.step(s, &mut self.rng);
        let c = &self.client;
        let start = rec.op_start();
        let mut op = 0;
        let r = (|| -> Res<i64> {
            let top = rec.call("begin", || c.begin()).ctx("begin")?;
            op = top.0;
            let r = (|| -> Res<i64> {
                let t = rec
                    .call("begin_child", || c.begin_child(top))
                    .ctx("begin child")?;
                let (ab, as_, sb, ss) = (
                    book.accounts[buyer],
                    book.positions[buyer][s],
                    book.accounts[seller],
                    book.positions[seller][s],
                );
                let mut oids = [ab, as_, sb, ss];
                oids.sort_unstable();
                for oid in oids {
                    let touch = vec![("touch".to_owned(), Value::from(top.0 as i64))];
                    rec.call("update", || c.update(t, oid, touch))
                        .ctx("lock row")?;
                }
                let mut get = |q: &str, a: usize| -> Res<i64> {
                    let params = HashMap::from([
                        ("a".to_owned(), Value::from(a as i64)),
                        ("s".to_owned(), Value::from(SYMBOLS[s])),
                    ]);
                    let rows = rec
                        .call("query", || c.query(t, q, params))
                        .ctx("read row")?;
                    rec.queries += 1;
                    rec.rows += rows.len() as u64;
                    let row = rows.first().ok_or("row not found")?;
                    row.values[if q.contains("position") { 2 } else { 1 }]
                        .as_int()
                        .ctx("value")
                };
                const CASH: &str = "from account where id = :a";
                const HELD: &str = "from position where account = :a and symbol = :s";
                let (cash_b, cash_s) = (get(CASH, buyer)?, get(CASH, seller)?);
                let (held_b, held_s) = (get(HELD, buyer)?, get(HELD, seller)?);
                let paid = (qty * price).min(cash_b);
                for (oid, attr, v) in [
                    (ab, "cash", cash_b - paid),
                    (sb, "cash", cash_s + paid),
                    (as_, "shares", held_b + qty),
                    (ss, "shares", held_s - qty),
                ] {
                    let set = vec![(attr.to_owned(), Value::from(v))];
                    rec.call("update", || c.update(t, oid, set))
                        .ctx("write row")?;
                }
                rec.call("commit", || c.commit(t)).ctx("commit child")?;
                let args = HashMap::from([
                    ("account".to_owned(), Value::from(buyer as i64)),
                    ("symbol".to_owned(), Value::from(SYMBOLS[s])),
                    ("shares".to_owned(), Value::from(qty)),
                ]);
                rec.signals += 1;
                rec.call("signal", || {
                    c.signal_event("trade_executed", args, Some(top))
                })
                .ctx("signal trade_executed")?;
                eng.sample_gauges(rec);
                rec.call("commit", || c.commit(top)).ctx("commit trade")?;
                Ok(paid)
            })();
            if r.is_err() {
                let _ = c.abort(top);
            }
            r
        })();
        match r {
            Ok(paid) => {
                rec.commit.push(start.elapsed());
                let l = &mut self.ledger;
                *l.cash.entry(buyer).or_default() -= paid;
                *l.cash.entry(seller).or_default() += paid;
                *l.shares.entry((buyer, s)).or_default() += qty;
                *l.shares.entry((seller, s)).or_default() -= qty;
                rec.op_end("trade", op, start, true);
            }
            Err(_) => rec.op_end("trade", op, start, false),
        }
    }
}

impl Bench for TradeMix {
    fn engine(&self) -> &Engine {
        &self.eng
    }

    fn drive(&mut self, mut rec: Rec, until: Instant) -> Res<Rec> {
        let (traced, t0) = (rec.traced, rec.t0);
        let (eng, book) = (&self.eng, &self.book);
        let recs = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .traders
                .iter_mut()
                .enumerate()
                .map(|(i, tr)| {
                    scope.spawn(move || {
                        let mut r = Rec::new(traced, t0, 1 + i as u64);
                        tr.run(&mut r, eng, book, until);
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "trader thread panicked".to_owned()))
                .collect::<Res<Vec<Rec>>>()
        })?;
        for r in recs {
            rec.merge(r);
        }
        if traced {
            eng.probe.drain_firings(&eng.db);
        }
        Ok(rec)
    }

    fn audit(&mut self) -> Res<()> {
        let mut ledger = Ledger::default();
        for tr in &self.traders {
            ledger.merge(&tr.ledger);
        }
        let c = &self.traders[0].client;
        let t = c.begin().ctx("begin")?;
        let accounts = c
            .query(t, "from account", HashMap::new())
            .ctx("query accounts")?;
        let positions = c
            .query(t, "from position", HashMap::new())
            .ctx("query positions")?;
        c.commit(t).ctx("commit")?;
        let int = |v: &Value| v.as_int().ctx("int");
        let mut cash = HashMap::new();
        for r in &accounts {
            cash.insert(int(&r.values[0])? as usize, int(&r.values[1])?);
        }
        let mut shares = HashMap::new();
        for r in &positions {
            let s = r.values[1].as_str().ctx("symbol")?;
            let s = SYMBOLS
                .iter()
                .position(|x| *x == s)
                .ok_or("unknown symbol")?;
            shares.insert((int(&r.values[0])? as usize, s), int(&r.values[2])?);
        }
        audit_book(self.book.accounts.len(), &ledger, &cash, &shares)
    }
}

/// Total cash is conserved, no balance is negative, and every cash and
/// share figure equals its starting value plus its acked trades.
pub fn audit_book(
    accounts: usize,
    ledger: &Ledger,
    cash: &HashMap<usize, i64>,
    shares: &HashMap<(usize, usize), i64>,
) -> Res<()> {
    let total: i64 = cash.values().sum();
    if cash.len() != accounts || total != START_CASH * accounts as i64 {
        return Err(format!(
            "cash not conserved: {} accounts hold {total}, expected {}",
            cash.len(),
            START_CASH * accounts as i64
        ));
    }
    for a in 0..accounts {
        let want = START_CASH + ledger.cash.get(&a).copied().unwrap_or(0);
        match cash.get(&a) {
            Some(&got) if got == want && got >= 0 => {}
            got => {
                return Err(format!(
                    "account {a}: cash {got:?}, acked trades give {want}"
                ))
            }
        }
        for (s, name) in SYMBOLS.iter().enumerate() {
            let want = START_SHARES + ledger.shares.get(&(a, s)).copied().unwrap_or(0);
            if shares.get(&(a, s)) != Some(&want) {
                return Err(format!(
                    "position ({a}, {name}): {:?} shares, acked trades give {want}",
                    shares.get(&(a, s))
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn book_after(ledger: &Ledger) -> (HashMap<usize, i64>, HashMap<(usize, usize), i64>) {
        let cash = (0..2)
            .map(|a| (a, START_CASH + ledger.cash.get(&a).copied().unwrap_or(0)))
            .collect();
        let shares = (0..2)
            .flat_map(|a| (0..SYMBOLS.len()).map(move |s| (a, s)))
            .map(|k| {
                (
                    k,
                    START_SHARES + ledger.shares.get(&k).copied().unwrap_or(0),
                )
            })
            .collect();
        (cash, shares)
    }

    fn one_trade() -> Ledger {
        let mut l = Ledger::default();
        l.cash.insert(0, -500);
        l.cash.insert(1, 500);
        l.shares.insert((0, 2), 5);
        l.shares.insert((1, 2), -5);
        l
    }

    #[test]
    fn book_audit_accepts_the_acked_trades() {
        let l = one_trade();
        let (cash, shares) = book_after(&l);
        audit_book(2, &l, &cash, &shares).unwrap();
    }

    #[test]
    fn book_audit_fails_on_a_lost_update() {
        let l = one_trade();
        let (cash, mut shares) = book_after(&l);
        // The buyer's share update was lost; cash is still conserved.
        shares.insert((0, 2), START_SHARES);
        assert!(audit_book(2, &l, &cash, &shares).is_err());
        // The seller's credit was lost: cash is no longer conserved.
        let (mut cash, shares) = book_after(&l);
        cash.insert(1, START_CASH);
        assert!(audit_book(2, &l, &cash, &shares).is_err());
    }
}
