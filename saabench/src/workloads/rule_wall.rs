//! `rule_wall`: matching- and event-bound.
//!
//! In-memory store (storage does no work), one connection, 10,000
//! rules: per-symbol price bands (symbol equality plus a price range),
//! a price→volume→alert cascade (an immediate rule feeding a deferred
//! one), sequence composite rules `news_g ; halt_g` on external events,
//! and one periodic temporal revaluation rule driven by
//! `ActiveDatabase::advance_clock` every 100 ops. The op mix is 80%
//! quote transactions and 20% bare `signal_event` requests.
//!
//! Every rule's effect is an `alert` row (or, for the revaluation, a
//! `tick` row), which the audit compares with a reference the benchmark
//! evaluates itself over the acknowledged op log.
//!
//! The revaluation inserts one row per firing rather than incrementing
//! a counter row. Its firings have no triggering transaction, so each
//! runs as a separate transaction on the rule pool. As a counter, some
//! firings failed with `Deadlock` three times and were dead-lettered,
//! which failed the audit of about one 45-second run in twenty (see
//! `README.md`); inserted rows have not.

use super::{create_alert_class, insert_alert, int, read_alerts, read_stocks, text, Quote, Ticker};
use crate::gen::{symbol, Rng, Zipf};
use crate::trace::{Rec, NO_TXN_OP};
use crate::{Bench, Config, Ctx, Engine, Res, Size};
use hipac::prelude::*;
use hipac_net::HipacClient;
use std::collections::HashMap;
use std::time::Instant;

/// Virtual-clock period of the revaluation rule; the benchmark advances
/// the clock by exactly one period, so each advance fires it once.
const PERIOD: u64 = 1_000;
const ADVANCE_EVERY: u64 = 100;

struct Sizes {
    symbols: usize,
    /// Price bands per symbol.
    bands: usize,
    /// Symbols carrying a cascade pair.
    cascades: usize,
    groups: usize,
    /// Composite rules per event group.
    per_group: usize,
}

/// Alert reference rows: `(key, kind, rule, n)`.
type AlertRow = (String, String, i64, i64);

pub struct RuleWall {
    client: HipacClient,
    tick: Ticker,
    rng: Rng,
    groups: Zipf,
    /// `(rule index, lo, hi)` of each symbol's bands.
    bands: Vec<Vec<(usize, i64, i64)>>,
    /// `(rule index, level)` of the cascade on each symbol, if any.
    cascade: Vec<Option<(usize, i64)>>,
    crossings: Vec<i64>,
    /// Composite rule indices per group, and whether a `news` waits.
    group_rules: Vec<Vec<usize>>,
    pending: Vec<bool>,
    ref_alerts: Vec<AlertRow>,
    advances: i64,
    since_advance: u64,
    eng: Engine,
}

impl RuleWall {
    pub fn setup(cfg: &Config) -> Res<RuleWall> {
        let s = match cfg.size {
            Size::Full => Sizes {
                symbols: 2_000,
                bands: 4,
                cascades: 500,
                groups: 111,
                per_group: 9,
            },
            Size::Tiny => Sizes {
                symbols: 40,
                bands: 4,
                cascades: 10,
                groups: 3,
                per_group: 3,
            },
        };
        let eng = Engine::start(None)?;
        let client = HipacClient::connect(eng.server.local_addr()).ctx("connect")?;
        let mut tick = Ticker::new(cfg.seed, s.symbols);
        let mut next_rule = 0usize;
        let mut idx = || {
            next_rule += 1;
            next_rule - 1
        };

        let db = &eng.db;
        let t = db.begin();
        tick.create_stocks(db, t, vec![], |_| vec![])?;
        create_alert_class(db, t)?;
        db.store()
            .create_class(
                t,
                "volume",
                None,
                vec![text("symbol").indexed(), int("crossings")],
            )
            .ctx("create volume class")?;
        db.store()
            .create_class(t, "tick", None, vec![int("n")])
            .ctx("create tick class")?;

        // Bands: `bands` ranges one standard deviation wide, centred on
        // the symbol's mean. A rule fires when the price enters its band.
        let mut bands = vec![Vec::new(); s.symbols];
        for (k, out) in bands.iter_mut().enumerate() {
            let (mean, sd) = (tick.market.mean[k], tick.market.sd[k]);
            for b in 0..s.bands as i64 {
                let lo = mean + (b - s.bands as i64 / 2) * sd;
                let (i, hi) = (idx(), lo + sd);
                let cond = format!(
                    "from stock where new.symbol = \"{}\" and new.price >= {lo} and new.price < {hi} \
                     and (old.price < {lo} or old.price >= {hi})",
                    symbol(k)
                );
                db.rules()
                    .create_rule(
                        t,
                        RuleDef::new(format!("band-{i}"))
                            .on(EventSpec::on_update("stock"))
                            .when(Query::parse(&cond).ctx("parse")?)
                            .then(Action::single(insert_alert(
                                Expr::NewAttr("symbol".into()),
                                "band",
                                i,
                                Expr::NewAttr("qseq".into()),
                            ))),
                    )
                    .ctx("create band rule")?;
                out.push((i, lo, hi));
            }
        }

        // Cascade: crossing the mean upward bumps the symbol's volume
        // row (immediate); the volume update raises an alert (deferred).
        let mut cascade = vec![None; s.symbols];
        for (k, slot) in cascade.iter_mut().enumerate().take(s.cascades) {
            let sym = symbol(k);
            let level = tick.market.mean[k];
            db.store()
                .insert(t, "volume", vec![Value::from(sym.as_str()), Value::from(0)])
                .ctx("insert volume")?;
            let i = idx();
            let cond = format!(
                "from stock where new.symbol = \"{sym}\" and new.price >= {level} and old.price < {level}"
            );
            db.rules()
                .create_rule(
                    t,
                    RuleDef::new(format!("casc-{i}"))
                        .on(EventSpec::on_update("stock"))
                        .when(Query::parse(&cond).ctx("parse")?)
                        .then(Action::single(ActionOp::Db(DbAction::UpdateWhere {
                            query: Query::parse(&format!("from volume where symbol = \"{sym}\""))
                                .ctx("parse")?,
                            assignments: vec![(
                                "crossings".into(),
                                Expr::attr("crossings").bin(BinOp::Add, Expr::lit(1)),
                            )],
                        }))),
                )
                .ctx("create cascade rule")?;
            let j = idx();
            db.rules()
                .create_rule(
                    t,
                    RuleDef::new(format!("cascd-{j}"))
                        .on(EventSpec::on_update("volume"))
                        .when(
                            Query::parse(&format!("from volume where new.symbol = \"{sym}\""))
                                .ctx("parse")?,
                        )
                        .then(Action::single(insert_alert(
                            Expr::NewAttr("symbol".into()),
                            "cascade",
                            j,
                            Expr::NewAttr("crossings".into()),
                        )))
                        .ec(CouplingMode::Deferred),
                )
                .ctx("create deferred cascade rule")?;
            *slot = Some((j, level));
        }

        // Composite: `news_g ; halt_g`, several rules per group.
        let mut group_rules = vec![Vec::new(); s.groups];
        for (g, rules) in group_rules.iter_mut().enumerate() {
            db.define_event(&format!("news_{g}"), &[])
                .ctx("define news")?;
            db.define_event(&format!("halt_{g}"), &[])
                .ctx("define halt")?;
            for _ in 0..s.per_group {
                let i = idx();
                let spec = EventSpec::external(&format!("news_{g}"))
                    .then(EventSpec::external(&format!("halt_{g}")));
                db.rules()
                    .create_rule(
                        t,
                        RuleDef::new(format!("seq-{i}"))
                            .on(spec)
                            .then(Action::single(insert_alert(
                                Expr::lit(format!("G{g}")),
                                "seq",
                                i,
                                Expr::lit(0),
                            ))),
                    )
                    .ctx("create composite rule")?;
                rules.push(i);
            }
        }

        // The periodic revaluation.
        db.rules()
            .create_rule(
                t,
                RuleDef::new("reval")
                    .on(EventSpec::Temporal(TemporalSpec::Periodic {
                        period: PERIOD,
                        start: None,
                    }))
                    .then(Action::single(ActionOp::Db(DbAction::Insert {
                        class: "tick".into(),
                        values: vec![Expr::lit(1)],
                    }))),
            )
            .ctx("create revaluation rule")?;
        db.commit(t).ctx("commit set-up")?;

        Ok(RuleWall {
            client,
            tick,
            rng: Rng::fork(cfg.seed, 2),
            groups: Zipf::new(s.groups, 1.0),
            bands,
            cascade,
            crossings: vec![0; s.symbols],
            group_rules,
            pending: vec![false; s.groups],
            ref_alerts: Vec::new(),
            advances: 0,
            since_advance: 0,
            eng,
        })
    }

    /// The reference: what the rules should have done for this quote.
    fn acked(&mut self, q: &Quote) {
        self.tick.ack(q);
        let sym = symbol(q.k);
        for &(i, lo, hi) in &self.bands[q.k] {
            let inside = |p: i64| lo <= p && p < hi;
            if inside(q.price) && !inside(q.old) {
                self.ref_alerts
                    .push((sym.clone(), "band".into(), i as i64, q.qseq));
            }
        }
        if let Some((j, level)) = self.cascade[q.k] {
            if q.old < level && level <= q.price {
                self.crossings[q.k] += 1;
                self.ref_alerts
                    .push((sym, "cascade".into(), j as i64, self.crossings[q.k]));
            }
        }
    }

    fn signalled(&mut self, g: usize, halt: bool) {
        if !halt {
            self.pending[g] = true;
        } else if std::mem::take(&mut self.pending[g]) {
            for &i in &self.group_rules[g] {
                self.ref_alerts
                    .push((format!("G{g}"), "seq".into(), i as i64, 0));
            }
        }
    }

    fn quote(&mut self, rec: &mut Rec) {
        let q = self.tick.next_quote();
        let start = rec.op_start();
        match self.tick.send(rec, &self.eng, &self.client, &q) {
            Ok(t) => {
                rec.commit.push(start.elapsed());
                self.acked(&q);
                rec.op_end("quote", t.0, start, true);
            }
            Err(_) => rec.op_end("quote", 0, start, false),
        }
    }

    fn signal(&mut self, rec: &mut Rec) {
        let g = self.groups.sample(&mut self.rng);
        let halt = self.rng.unit() < 0.5;
        let name = format!("{}_{g}", if halt { "halt" } else { "news" });
        let start = rec.op_start();
        rec.signals += 1;
        let ok = rec
            .call("signal", || {
                self.client.signal_event(&name, HashMap::new(), None)
            })
            .is_ok();
        if ok {
            self.signalled(g, halt);
        }
        rec.op_end("signal", NO_TXN_OP | rec.ops, start, ok);
    }
}

impl Bench for RuleWall {
    fn engine(&self) -> &Engine {
        &self.eng
    }

    fn drive(&mut self, mut rec: Rec, until: Instant) -> Res<Rec> {
        while Instant::now() < until {
            if self.rng.unit() < 0.8 {
                self.quote(&mut rec);
            } else {
                self.signal(&mut rec);
            }
            self.since_advance += 1;
            if self.since_advance == ADVANCE_EVERY {
                self.since_advance = 0;
                let db = &self.eng.db;
                rec.call("advance_clock", || db.advance_clock(PERIOD))
                    .ctx("advance clock")?;
                self.advances += 1;
            }
            if rec.traced && rec.ops.is_multiple_of(64) {
                self.eng.sample_gauges(&mut rec);
                self.eng.probe.drain_firings(&self.eng.db);
            }
        }
        Ok(rec)
    }

    fn audit(&mut self) -> Res<()> {
        self.eng.db.quiesce();
        // Composite and temporal firings run as separate top-level
        // transactions; one that exhausts its retries is dead-lettered
        // and its alert or tick is missing.
        let s = self.eng.db.stats();
        let firings = format!(
            "{} separate firings retried, {} dead-lettered, first error {:?}",
            s.separate_retries,
            s.separate_dead_letters,
            self.eng.db.take_separate_errors().first()
        );
        super::audit_prices(&read_stocks(&self.client, false)?, &self.tick.want())?;
        super::audit_alerts(&read_alerts(&self.client)?, self.ref_alerts.clone())
            .map_err(|e| format!("{e} ({firings})"))?;
        let t = self.client.begin().ctx("begin")?;
        let ticks = self
            .client
            .query(t, "from tick", HashMap::new())
            .ctx("query ticks")?
            .len() as i64;
        self.client.commit(t).ctx("commit")?;
        if ticks != self.advances {
            return Err(format!(
                "revaluation ran {ticks} times for {} clock advances ({firings})",
                self.advances
            ));
        }
        Ok(())
    }
}
