//! `replica_follow`: the replication path.
//!
//! A durable primary plus one in-process `hipac_repl::ReplicaNode`. The
//! writer connection commits a quote on the primary; the reader
//! connection then queries the replica until the write is visible, and
//! only then does the next write start.
//!
//! The reader first waits for the replica's applied LSN to pass the
//! primary's durable frontier at the ack, then queries. A replica query
//! scans the stock rows (about 0.3 ms of CPU), so polling the socket
//! every 500 µs made the CPU cost of a write grow with its visibility
//! latency: half of it went to polls, and `cpu_us_per_op` swung with
//! the host's speed. Waiting on the LSN leaves about one query per
//! write.

use super::{read_stocks, Ticker};
use crate::gen::symbol;
use crate::trace::Rec;
use crate::{Bench, Config, Ctx, Engine, Res, Size};
use hipac::prelude::*;
use hipac_net::HipacClient;
use hipac_repl::ReplicaNode;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Give up on a write that has not reached the replica by then.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(10);
/// Pause between checks of the replica's applied LSN (an atomic read).
const LSN_PAUSE: Duration = Duration::from_micros(50);
/// Pause between replica queries while an applied write is not yet
/// readable.
const POLL_PAUSE: Duration = Duration::from_micros(500);

pub struct ReplicaFollow {
    writer: HipacClient,
    reader: HipacClient,
    tick: Ticker,
    replica: ReplicaNode,
    eng: Engine,
}

impl ReplicaFollow {
    pub fn setup(cfg: &Config, dir: &Path) -> Res<ReplicaFollow> {
        let symbols = match cfg.size {
            Size::Full => 2_000,
            Size::Tiny => 50,
        };
        let eng = Engine::start(Some(&dir.join("primary")))?;
        let addr = eng.server.local_addr();
        let writer = HipacClient::connect(addr).ctx("connect writer")?;
        let mut tick = Ticker::new(cfg.seed, symbols);
        let t = eng.db.begin();
        tick.create_stocks(&eng.db, t, vec![], |_| vec![])?;
        eng.db.commit(t).ctx("commit set-up")?;
        let replica = ReplicaNode::start(dir.join("replica"), addr.to_string(), "127.0.0.1:0")
            .ctx("start replica")?;
        if !replica.wait_caught_up(Duration::from_secs(60)) {
            return Err("replica did not catch up with the seeded primary".into());
        }
        let reader = HipacClient::connect(replica.local_addr()).ctx("connect reader")?;
        Ok(ReplicaFollow {
            writer,
            reader,
            tick,
            replica,
            eng,
        })
    }

    /// Poll the replica until `symbol` shows `qseq`; `acked` is the
    /// commit ack instant and `lsn` the primary's durable frontier then.
    fn await_visible(
        &self,
        rec: &mut Rec,
        sym: &str,
        qseq: i64,
        acked: Instant,
        lsn: u64,
    ) -> Res<()> {
        let params = HashMap::from([("s".to_owned(), Value::from(sym))]);
        let timed_out = || {
            Err(format!(
                "qseq {qseq} not visible on the replica after {VISIBLE_TIMEOUT:?}"
            ))
        };
        while self.replica.applied_lsn() < lsn {
            if acked.elapsed() > VISIBLE_TIMEOUT {
                return timed_out();
            }
            std::thread::sleep(LSN_PAUSE);
        }
        if rec.traced {
            rec.sample("apply_lag", acked.elapsed());
        }
        loop {
            let rows = rec
                .call("replica_read", || {
                    self.reader
                        .query(TxnId(0), "from stock where symbol = :s", params.clone())
                })
                .ctx("replica read")?;
            rec.count("polls", 1);
            if rows.first().and_then(|r| r.values[2].as_int().ok()) == Some(qseq) {
                rec.visible.push(acked.elapsed());
                return Ok(());
            }
            if acked.elapsed() > VISIBLE_TIMEOUT {
                return timed_out();
            }
            std::thread::sleep(POLL_PAUSE);
        }
    }
}

impl Bench for ReplicaFollow {
    fn engine(&self) -> &Engine {
        &self.eng
    }

    fn drive(&mut self, mut rec: Rec, until: Instant) -> Res<Rec> {
        let durable = self.eng.db.durable_store().cloned();
        while Instant::now() < until {
            let q = self.tick.next_quote();
            let start = rec.op_start();
            let r = self.tick.send(&mut rec, &self.eng, &self.writer, &q);
            let acked = Instant::now();
            let lsn = durable.as_ref().map_or(0, |d| d.durable_lsn());
            let r = r.and_then(|t| {
                rec.commit.push(acked - start);
                self.tick.ack(&q);
                self.await_visible(&mut rec, &symbol(q.k), q.qseq, acked, lsn)?;
                Ok(t)
            });
            match r {
                Ok(t) => rec.op_end("write_visible", t.0, start, true),
                Err(_) => rec.op_end("write_visible", 0, start, false),
            }
        }
        Ok(rec)
    }

    fn audit(&mut self) -> Res<()> {
        if !self.replica.wait_caught_up(Duration::from_secs(30)) {
            return Err("replica did not catch up at the end of the run".into());
        }
        let want = self.tick.want();
        super::audit_prices(&read_stocks(&self.writer, false)?, &want)
            .map_err(|e| format!("primary: {e}"))?;
        super::audit_prices(&read_stocks(&self.reader, true)?, &want)
            .map_err(|e| format!("replica: {e}"))?;
        let mismatches = self.eng.db.stats().repl_digest_mismatches;
        if mismatches != 0 {
            return Err(format!("{mismatches} replication digest mismatches"));
        }
        Ok(())
    }
}
