//! `saa_feed`: the standing SAA (§4.2, Figure 4.2).
//!
//! Durable store, group commit at its default, network matching. The
//! Ticker connection quotes zipf-chosen symbols, one transaction per
//! quote. The `ticker-window` rule (separate coupling) pushes
//! `display_quote` to the Display connection for the watchlist;
//! immediate threshold rules insert an `alert` on an upward crossing,
//! and the separate `alert-window` rule pushes `display_alert`.

use super::{create_alert_class, insert_alert, int, read_alerts, read_stocks, Quote, Ticker};
use crate::gen::symbol;
use crate::trace::Rec;
use crate::{Bench, Config, Ctx, Engine, Res, Size};
use hipac::prelude::*;
use hipac_net::{HipacClient, PushEvent};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One push frame as the Display program received it.
#[derive(Debug, Clone, PartialEq)]
pub struct Push {
    pub seq: u64,
    /// `display_quote` or `display_alert`.
    pub request: String,
    /// The quote's `qseq` (the alert's `n`, which carries the same).
    pub qseq: i64,
    /// The alert's rule index; -1 for quotes.
    pub rule: i64,
    pub at: Instant,
}

struct Sizes {
    tickers: usize,
    watch: usize,
    thresholds: usize,
}

pub struct SaaFeed {
    ticker: HipacClient,
    /// The Display program's connection, kept open for its pushes.
    _display: HipacClient,
    tick: Ticker,
    watched: Vec<bool>,
    /// `(rule index, level)` of the threshold rules on each symbol.
    thresholds: Vec<Vec<(usize, i64)>>,
    /// Send instant of each quote, by `qseq`.
    sent: Vec<Option<Instant>>,
    pushes: Arc<Mutex<Vec<Push>>>,
    /// Acked quotes of watchlist symbols, by `qseq`.
    acked_watch: Vec<i64>,
    /// Reference alerts: `(symbol, rule, qseq)` of every acked crossing.
    ref_alerts: Vec<(String, i64, i64)>,
    eng: Engine,
}

impl SaaFeed {
    pub fn setup(cfg: &Config, dir: &Path) -> Res<SaaFeed> {
        let s = match cfg.size {
            Size::Full => Sizes {
                tickers: 2_000,
                watch: 200,
                thresholds: 1_000,
            },
            Size::Tiny => Sizes {
                tickers: 60,
                watch: 12,
                thresholds: 30,
            },
        };
        let eng = Engine::start(Some(dir))?;
        let addr = eng.server.local_addr();
        let ticker = HipacClient::connect(addr).ctx("connect ticker")?;
        let display = HipacClient::connect(addr).ctx("connect display")?;
        let mut tick = Ticker::new(cfg.seed, s.tickers);
        // The watchlist: every (tickers / watch)-th rank, so it holds hot
        // and cold symbols alike.
        let stride = s.tickers / s.watch;
        let watched: Vec<bool> = (0..s.tickers).map(|k| k % stride == 0).collect();
        // Threshold i sits one standard deviation above the mean of the
        // i-th hottest symbol.
        let mut thresholds = vec![Vec::new(); s.tickers];
        for i in 0..s.thresholds {
            let k = i % s.tickers;
            thresholds[k].push((i, tick.market.mean[k] + tick.market.sd[k]));
        }

        let db = &eng.db;
        let t = db.begin();
        tick.create_stocks(db, t, vec![int("watched")], |k| {
            vec![Value::from(i64::from(watched[k]))]
        })?;
        create_alert_class(db, t)?;
        db.rules()
            .create_rule(
                t,
                RuleDef::new("ticker-window")
                    .on(EventSpec::on_update("stock"))
                    .when(Query::parse("from stock where new.watched = 1").ctx("parse")?)
                    .then(Action::single(ActionOp::AppRequest {
                        handler: "display".into(),
                        request: "display_quote".into(),
                        args: vec![
                            ("symbol".into(), Expr::NewAttr("symbol".into())),
                            ("price".into(), Expr::NewAttr("price".into())),
                            ("qseq".into(), Expr::NewAttr("qseq".into())),
                        ],
                    }))
                    .detached(),
            )
            .ctx("create ticker-window")?;
        for (k, rules) in thresholds.iter().enumerate() {
            for &(i, level) in rules {
                let cond = format!(
                    "from stock where new.symbol = \"{}\" and new.price >= {level} and old.price < {level}",
                    symbol(k)
                );
                db.rules()
                    .create_rule(
                        t,
                        RuleDef::new(format!("thr-{i}"))
                            .on(EventSpec::on_update("stock"))
                            .when(Query::parse(&cond).ctx("parse")?)
                            .then(Action::single(insert_alert(
                                Expr::NewAttr("symbol".into()),
                                "threshold",
                                i,
                                Expr::NewAttr("qseq".into()),
                            ))),
                    )
                    .ctx("create threshold rule")?;
            }
        }
        db.rules()
            .create_rule(
                t,
                RuleDef::new("alert-window")
                    .on(EventSpec::db(DbEventKind::Insert, Some("alert")))
                    .then(Action::single(ActionOp::AppRequest {
                        handler: "display".into(),
                        request: "display_alert".into(),
                        args: vec![
                            ("symbol".into(), Expr::NewAttr("key".into())),
                            ("rule".into(), Expr::NewAttr("rule".into())),
                            ("qseq".into(), Expr::NewAttr("n".into())),
                        ],
                    }))
                    .detached(),
            )
            .ctx("create alert-window")?;
        db.commit(t).ctx("commit set-up")?;

        let pushes = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&pushes);
        display
            .subscribe("display", move |p: &PushEvent| {
                let at = Instant::now();
                let get = |k: &str| p.args.get(k).and_then(|v| v.as_int().ok());
                sink.lock().expect("push log poisoned").push(Push {
                    seq: p.seq,
                    request: p.request.clone(),
                    qseq: get("qseq").unwrap_or(-1),
                    rule: get("rule").unwrap_or(-1),
                    at,
                });
            })
            .ctx("subscribe display")?;
        Ok(SaaFeed {
            ticker,
            _display: display,
            tick,
            watched,
            thresholds,
            sent: vec![None],
            pushes,
            acked_watch: Vec::new(),
            ref_alerts: Vec::new(),
            eng,
        })
    }

    fn acked(&mut self, q: &Quote) {
        self.tick.ack(q);
        if self.watched[q.k] {
            self.acked_watch.push(q.qseq);
        }
        for &(i, level) in &self.thresholds[q.k] {
            if q.old < level && level <= q.price {
                self.ref_alerts.push((symbol(q.k), i as i64, q.qseq));
            }
        }
    }

    fn expected_pushes(&self) -> usize {
        self.acked_watch.len() + self.ref_alerts.len()
    }

    /// Wait until every expected push arrived, or `limit` passed.
    fn await_pushes(&self, limit: Duration) {
        let deadline = Instant::now() + limit;
        let want = self.expected_pushes();
        while self.pushes.lock().expect("push log poisoned").len() < want
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Bench for SaaFeed {
    fn engine(&self) -> &Engine {
        &self.eng
    }

    fn drive(&mut self, mut rec: Rec, until: Instant) -> Res<Rec> {
        let first = self.sent.len() as i64;
        while Instant::now() < until {
            let q = self.tick.next_quote();
            let start = rec.op_start();
            self.sent.push(Some(start));
            let r = self.tick.send(&mut rec, &self.eng, &self.ticker, &q);
            if let Ok(t) = &r {
                rec.commit.push(start.elapsed());
                self.acked(&q);
                rec.op_end("quote", t.0, start, true);
            } else {
                rec.op_end("quote", 0, start, false);
            }
            if rec.traced && rec.ops.is_multiple_of(64) {
                self.eng.probe.drain_firings(&self.eng.db);
            }
        }
        self.await_pushes(Duration::from_secs(10));
        // Pushes caused by this window's quotes: latency from quote sent
        // to push received, counts against what the model expects.
        let last = self.sent.len() as i64;
        let in_window = |q: i64| q >= first && q < last;
        let expected = self.acked_watch.iter().filter(|&&q| in_window(q)).count()
            + self.ref_alerts.iter().filter(|a| in_window(a.2)).count();
        let pushes = self.pushes.lock().expect("push log poisoned");
        let mut seqs = Vec::new();
        for p in pushes.iter().filter(|p| in_window(p.qseq)) {
            seqs.push(p.seq);
            if p.request == "display_quote" {
                if let Some(Some(sent)) = self.sent.get(p.qseq as usize) {
                    rec.sample("push", p.at.saturating_duration_since(*sent));
                }
            }
        }
        let received = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        rec.count("push_expected", expected as u64);
        rec.count("push_received", received as u64);
        rec.count("push_dupes", (received - seqs.len()) as u64);
        Ok(rec)
    }

    fn audit(&mut self) -> Res<()> {
        self.await_pushes(Duration::from_secs(10));
        super::audit_prices(&read_stocks(&self.ticker, false)?, &self.tick.want())?;
        let want: Vec<_> = self
            .ref_alerts
            .iter()
            .map(|(s, i, q)| (s.clone(), "threshold".to_owned(), *i, *q))
            .collect();
        super::audit_alerts(&read_alerts(&self.ticker)?, want)?;
        let pushes = self.pushes.lock().expect("push log poisoned").clone();
        audit_pushes(&self.acked_watch, &self.ref_alerts, &pushes)
    }
}

/// Exactly one `display_quote` per acked watchlist quote and one
/// `display_alert` per reference alert, with push sequence numbers
/// `1..=n` and no gaps or duplicates.
pub fn audit_pushes(
    acked_watch: &[i64],
    ref_alerts: &[(String, i64, i64)],
    pushes: &[Push],
) -> Res<()> {
    let mut seqs: Vec<u64> = pushes.iter().map(|p| p.seq).collect();
    seqs.sort_unstable();
    if let Some((want, _)) = (1u64..).zip(&seqs).find(|(want, got)| want != *got) {
        return Err(format!(
            "{} pushes received; sequence gap or duplicate at seq {want}",
            seqs.len()
        ));
    }
    let mut quotes: Vec<i64> = pushes
        .iter()
        .filter(|p| p.request == "display_quote")
        .map(|p| p.qseq)
        .collect();
    quotes.sort_unstable();
    let mut want = acked_watch.to_vec();
    want.sort_unstable();
    if quotes != want {
        let missing = want.iter().find(|q| quotes.binary_search(q).is_err());
        return Err(format!(
            "{} display_quote pushes for {} acked watchlist quotes; first missing qseq {missing:?}",
            quotes.len(),
            want.len()
        ));
    }
    let mut alerts: Vec<(i64, i64)> = pushes
        .iter()
        .filter(|p| p.request == "display_alert")
        .map(|p| (p.rule, p.qseq))
        .collect();
    alerts.sort_unstable();
    let mut want: Vec<(i64, i64)> = ref_alerts.iter().map(|a| (a.1, a.2)).collect();
    want.sort_unstable();
    if alerts != want {
        return Err(format!(
            "{} display_alert pushes for {} reference alerts",
            alerts.len(),
            want.len()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn push(seq: u64, request: &str, qseq: i64, rule: i64) -> Push {
        Push {
            seq,
            request: request.into(),
            qseq,
            rule,
            at: Instant::now(),
        }
    }

    #[test]
    fn push_audit_accepts_exact_delivery() {
        let pushes = vec![
            push(1, "display_quote", 3, -1),
            push(2, "display_alert", 3, 7),
            push(3, "display_quote", 5, -1),
        ];
        let alerts = vec![("S0001".to_owned(), 7, 3)];
        audit_pushes(&[3, 5], &alerts, &pushes).unwrap();
    }

    #[test]
    fn push_audit_fails_on_a_dropped_push() {
        let pushes = vec![
            push(1, "display_quote", 3, -1),
            push(3, "display_quote", 5, -1),
        ];
        assert!(audit_pushes(&[3, 5], &[], &pushes).is_err(), "seq gap");
        let pushes = vec![push(1, "display_quote", 3, -1)];
        assert!(
            audit_pushes(&[3, 5], &[], &pushes).is_err(),
            "missing quote"
        );
    }

    #[test]
    fn push_audit_fails_on_a_duplicate() {
        let pushes = vec![
            push(1, "display_quote", 3, -1),
            push(2, "display_quote", 3, -1),
            push(2, "display_quote", 3, -1),
        ];
        assert!(audit_pushes(&[3], &[], &pushes).is_err());
    }
}
