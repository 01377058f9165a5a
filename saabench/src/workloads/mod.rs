//! The four workloads and what they share.
//!
//! Set-up loads schema, rows and rules through the engine's own API, in
//! the process that runs the server; the workload itself then runs
//! through `HipacClient`. Loading over the socket spent almost all of
//! its time in request round trips (about 150 µs each on loopback, for
//! ten thousand rules), which made set-up time follow the host's
//! scheduling rather than the engine's work.

pub mod replica_follow;
pub mod rule_wall;
pub mod saa_feed;
pub mod trade_mix;

use crate::gen::{symbol, Market, Rng, Zipf};
use crate::trace::Rec;
use crate::{Bench, Config, Ctx, Engine, Res};
use hipac::prelude::*;
use hipac::ActiveDatabase;
use hipac_net::HipacClient;
use std::collections::HashMap;
use std::path::Path;

/// Set up the workload `cfg.workload` (store under `dir` if durable).
pub fn setup(cfg: &Config, dir: &Path) -> Res<Box<dyn Bench>> {
    Ok(match cfg.workload.as_str() {
        "saa_feed" => Box::new(saa_feed::SaaFeed::setup(cfg, dir)?),
        "rule_wall" => Box::new(rule_wall::RuleWall::setup(cfg)?),
        "trade_mix" => Box::new(trade_mix::TradeMix::setup(cfg, dir)?),
        "replica_follow" => Box::new(replica_follow::ReplicaFollow::setup(cfg, dir)?),
        other => return Err(format!("unknown workload {other:?}")),
    })
}

pub fn int(name: &str) -> AttrDef {
    AttrDef::new(name, ValueType::Int)
}

pub fn text(name: &str) -> AttrDef {
    AttrDef::new(name, ValueType::Str)
}

/// The `alert` class threshold and band rules insert into:
/// `(key, kind, rule, n)`.
pub fn create_alert_class(db: &ActiveDatabase, t: TxnId) -> Res<()> {
    db.store()
        .create_class(
            t,
            "alert",
            None,
            vec![text("key"), text("kind"), int("rule"), int("n")],
        )
        .ctx("create alert class")?;
    Ok(())
}

/// An action step inserting `alert(key, kind, rule, n)`.
pub fn insert_alert(key: Expr, kind: &str, rule: usize, n: Expr) -> ActionOp {
    ActionOp::Db(DbAction::Insert {
        class: "alert".into(),
        values: vec![key, Expr::lit(kind), Expr::lit(rule as i64), n],
    })
}

/// All alert rows as sorted `(key, kind, rule, n)` tuples.
pub fn read_alerts(c: &HipacClient) -> Res<Vec<(String, String, i64, i64)>> {
    let t = c.begin().ctx("begin")?;
    let rows = c
        .query(t, "from alert", HashMap::new())
        .ctx("query alerts")?;
    c.commit(t).ctx("commit")?;
    let mut out = rows
        .into_iter()
        .map(|r| {
            Ok((
                r.values[0].as_str().ctx("alert key")?.to_owned(),
                r.values[1].as_str().ctx("alert kind")?.to_owned(),
                r.values[2].as_int().ctx("alert rule")?,
                r.values[3].as_int().ctx("alert n")?,
            ))
        })
        .collect::<Res<Vec<_>>>()?;
    out.sort();
    Ok(out)
}

/// Compare the alert rows with the reference the benchmark computed.
pub fn audit_alerts(
    got: &[(String, String, i64, i64)],
    mut want: Vec<(String, String, i64, i64)>,
) -> Res<()> {
    want.sort();
    if got == want.as_slice() {
        return Ok(());
    }
    let missing = want.iter().find(|w| !got.contains(w));
    let extra = got.iter().find(|g| !want.contains(g));
    Err(format!(
        "alerts differ from the reference: {} rows, expected {}; first missing {missing:?}, first unexpected {extra:?}",
        got.len(),
        want.len()
    ))
}

/// Stock rows as `symbol -> (price, qseq)`, read in one transaction on
/// a primary, or outside any (`TxnId(0)`) on a replica.
pub fn read_stocks(c: &HipacClient, replica: bool) -> Res<HashMap<String, (i64, i64)>> {
    let rows = if replica {
        c.query(TxnId(0), "from stock", HashMap::new())
            .ctx("query replica stocks")?
    } else {
        let t = c.begin().ctx("begin")?;
        let rows = c
            .query(t, "from stock", HashMap::new())
            .ctx("query stocks")?;
        c.commit(t).ctx("commit")?;
        rows
    };
    rows.into_iter()
        .map(|r| {
            Ok((
                r.values[0].as_str().ctx("symbol")?.to_owned(),
                (
                    r.values[1].as_int().ctx("price")?,
                    r.values[2].as_int().ctx("qseq")?,
                ),
            ))
        })
        .collect()
}

/// Compare stock rows with the last acknowledged `(price, qseq)` per
/// symbol.
pub fn audit_prices(got: &HashMap<String, (i64, i64)>, want: &[(String, i64, i64)]) -> Res<()> {
    if got.len() != want.len() {
        return Err(format!("{} stock rows, expected {}", got.len(), want.len()));
    }
    for (sym, price, qseq) in want {
        if got.get(sym) != Some(&(*price, *qseq)) {
            return Err(format!(
                "{sym}: stored {:?}, last acked quote was (price {price}, qseq {qseq})",
                got.get(sym)
            ));
        }
    }
    Ok(())
}

/// One generated quote: symbol rank `k` moves from `old` to `price`.
#[derive(Debug, Clone, Copy)]
pub struct Quote {
    pub k: usize,
    pub old: i64,
    pub price: i64,
    pub qseq: i64,
}

/// The Ticker program's state: zipf symbol choice, mean-reverting
/// prices, stock oids, and the last acknowledged `(price, qseq)` of
/// each symbol.
pub struct Ticker {
    rng: Rng,
    zipf: Zipf,
    pub market: Market,
    pub oids: Vec<u64>,
    pub last: Vec<(i64, i64)>,
    next_qseq: i64,
}

impl Ticker {
    pub fn new(seed: u64, symbols: usize) -> Ticker {
        let mut rng = Rng::fork(seed, 1);
        let market = Market::new(symbols, &mut rng);
        let last = (0..symbols).map(|k| (market.price(k), 0)).collect();
        Ticker {
            rng,
            zipf: Zipf::new(symbols, 1.0),
            market,
            oids: Vec::new(),
            last,
            next_qseq: 1,
        }
    }

    /// Create `stock(symbol, price, qseq, extra...)` and insert every
    /// symbol at its starting price.
    pub fn create_stocks(
        &mut self,
        db: &ActiveDatabase,
        t: TxnId,
        extra: Vec<AttrDef>,
        extra_values: impl Fn(usize) -> Vec<Value>,
    ) -> Res<()> {
        let mut attrs = vec![text("symbol").indexed(), int("price"), int("qseq")];
        attrs.extend(extra);
        db.store()
            .create_class(t, "stock", None, attrs)
            .ctx("create stock class")?;
        for k in 0..self.last.len() {
            let mut row = vec![
                Value::from(symbol(k)),
                Value::from(self.last[k].0),
                Value::from(0),
            ];
            row.extend(extra_values(k));
            self.oids
                .push(db.store().insert(t, "stock", row).ctx("insert stock")?.0);
        }
        Ok(())
    }

    pub fn next_quote(&mut self) -> Quote {
        let k = self.zipf.sample(&mut self.rng);
        let price = self.market.step(k, &mut self.rng);
        let qseq = self.next_qseq;
        self.next_qseq += 1;
        Quote {
            k,
            old: self.last[k].0,
            price,
            qseq,
        }
    }

    pub fn ack(&mut self, q: &Quote) {
        self.last[q.k] = (q.price, q.qseq);
    }

    /// The expected stock table.
    pub fn want(&self) -> Vec<(String, i64, i64)> {
        self.last
            .iter()
            .enumerate()
            .map(|(k, &(p, q))| (symbol(k), p, q))
            .collect()
    }

    /// The quote as one write transaction: begin, update, commit.
    /// Gauges are sampled before the commit, while the locks are held.
    pub fn send(&self, rec: &mut Rec, eng: &Engine, c: &HipacClient, q: &Quote) -> Res<TxnId> {
        let t = rec.call("begin", || c.begin()).ctx("begin")?;
        let set = vec![
            ("price".to_owned(), Value::from(q.price)),
            ("qseq".to_owned(), Value::from(q.qseq)),
        ];
        let r = rec
            .call("update", || c.update(t, self.oids[q.k], set))
            .ctx("update stock");
        if let Err(e) = r {
            let _ = c.abort(t);
            return Err(e);
        }
        eng.sample_gauges(rec);
        rec.call("commit", || c.commit(t)).ctx("commit quote")?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alert(key: &str, rule: i64, n: i64) -> (String, String, i64, i64) {
        (key.to_owned(), "band".to_owned(), rule, n)
    }

    #[test]
    fn alert_audit_compares_multisets() {
        let want = vec![alert("S0001", 2, 9), alert("S0000", 1, 4)];
        let mut got = want.clone();
        got.sort();
        audit_alerts(&got, want.clone()).unwrap();
        assert!(
            audit_alerts(&got[..1], want.clone()).is_err(),
            "missing alert"
        );
        got.push(alert("S0001", 2, 9));
        got.sort();
        assert!(audit_alerts(&got, want).is_err(), "duplicate alert");
    }

    #[test]
    fn price_audit_fails_on_a_lost_update() {
        let want = vec![("S0000".to_owned(), 1050, 7), ("S0001".to_owned(), 990, 3)];
        let mut got: HashMap<String, (i64, i64)> =
            want.iter().map(|(s, p, q)| (s.clone(), (*p, *q))).collect();
        audit_prices(&got, &want).unwrap();
        // The quote with qseq 7 was acked but its write did not stick.
        got.insert("S0000".to_owned(), (1010, 5));
        assert!(audit_prices(&got, &want).is_err());
    }
}
