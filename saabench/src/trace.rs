//! Recording from outside the program: the benchmark's own timed calls
//! ([`Rec`]) and the engine's public observers ([`Probe`]).
//!
//! A span has a name, start, end, parent and op id. The op id is the
//! `TxnId` that `begin` returned, which is also what the transaction
//! hook and `FiringTrace::txn` see, so client spans, hook spans and
//! firing records of one operation join on it. Ops without a
//! transaction (a bare `signal_event`) get an id with the top bit set.
//! Spans stay in memory and are written out when the run ends.

use crate::stats::{json_num, json_str, peak_rss_mb, Lat};
use hipac::ActiveDatabase;
use hipac_common::{Result as HResult, TxnId};
use hipac_txn::manager::TxnHook;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Op ids for operations that run outside any transaction.
pub const NO_TXN_OP: u64 = 1 << 63;

/// Operations left until the memory mark is taken; negative when none
/// is armed.
static RSS_LEFT: AtomicI64 = AtomicI64::new(-1);
static RSS_MARK: Mutex<Option<f64>> = Mutex::new(None);

/// Take the process high-water mark when the `ops`-th operation from
/// now completes, on any client thread. At a fixed op count the mark
/// does not grow with throughput, as it would at the end of a timed
/// window in which every operation can leave a row behind. The mark is
/// process-wide, as the high-water mark is: one run at a time.
pub fn arm_rss_mark(ops: u64) {
    *RSS_MARK.lock().expect("rss mark poisoned") = None;
    RSS_LEFT.store(ops as i64, Relaxed);
}

/// The mark, if its operation count was reached.
pub fn rss_mark_mb() -> Option<f64> {
    *RSS_MARK.lock().expect("rss mark poisoned")
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub op: u64,
    pub start: Instant,
    pub end: Instant,
}

/// One client thread's record of a measured phase.
#[derive(Debug)]
pub struct Rec {
    pub traced: bool,
    pub t0: Instant,
    pub ops: u64,
    pub failed: u64,
    pub requests: u64,
    /// Write transactions, first request to commit ack.
    pub commit: Lat,
    /// Read-only transactions, first request to commit ack.
    pub read: Lat,
    /// Commit ack on the primary to the value readable on the replica.
    pub visible: Lat,
    /// Named latencies: request round trips by call name (traced
    /// only) and whatever [`Rec::sample`] records.
    pub lat: BTreeMap<&'static str, Lat>,
    pub rows: u64,
    pub queries: u64,
    pub signals: u64,
    /// Named counters a workload keeps (polls, visible writes, ...).
    pub counts: BTreeMap<&'static str, u64>,
    /// Named gauges sampled during the phase; the maximum is kept.
    pub maxima: BTreeMap<&'static str, u64>,
    /// Completion offsets of ops from `t0`, in seconds.
    pub done: Vec<f64>,
    pub spans: Vec<Span>,
    span_base: u64,
    next_span: u64,
    open: Option<(u64, usize)>,
}

impl Rec {
    /// `thread` keeps span ids unique across client threads.
    pub fn new(traced: bool, t0: Instant, thread: u64) -> Rec {
        Rec {
            traced,
            t0,
            ops: 0,
            failed: 0,
            requests: 0,
            commit: Lat::default(),
            read: Lat::default(),
            visible: Lat::default(),
            lat: BTreeMap::new(),
            rows: 0,
            queries: 0,
            signals: 0,
            counts: BTreeMap::new(),
            maxima: BTreeMap::new(),
            done: Vec::new(),
            spans: Vec::new(),
            span_base: thread << 40,
            next_span: 0,
            open: None,
        }
    }

    fn span_id(&mut self) -> u64 {
        self.next_span += 1;
        self.span_base | self.next_span
    }

    /// Start an operation; returns its start instant.
    pub fn op_start(&mut self) -> Instant {
        if self.traced {
            let id = self.span_id();
            self.open = Some((id, self.spans.len()));
        }
        Instant::now()
    }

    /// Finish an operation started at `start`. `op` is its txn id (or
    /// a [`NO_TXN_OP`] id); it is stamped on every span of the op.
    pub fn op_end(&mut self, name: &'static str, op: u64, start: Instant, ok: bool) {
        let end = Instant::now();
        self.ops += 1;
        if RSS_LEFT.fetch_sub(1, Relaxed) == 1 {
            *RSS_MARK.lock().expect("rss mark poisoned") = Some(peak_rss_mb());
        }
        if !ok {
            self.failed += 1;
        }
        self.done.push((end - self.t0).as_secs_f64());
        if let Some((id, first)) = self.open.take() {
            for s in &mut self.spans[first..] {
                s.op = op;
            }
            self.spans.push(Span {
                id,
                parent: None,
                name,
                op,
                start,
                end,
            });
        }
    }

    /// Time one request to the server (or one in-process call).
    pub fn call<T, E>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> std::result::Result<T, E>,
    ) -> std::result::Result<T, E> {
        self.requests += 1;
        let start = Instant::now();
        let r = f();
        if self.traced {
            let end = Instant::now();
            self.lat.entry(name).or_default().push(end - start);
            let id = self.span_id();
            self.spans.push(Span {
                id,
                parent: self.open.map(|(p, _)| p),
                name,
                op: 0,
                start,
                end,
            });
        }
        r
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn gauge(&mut self, name: &'static str, v: u64) {
        let m = self.maxima.entry(name).or_default();
        *m = (*m).max(v);
    }

    /// Record a latency under `name`, traced or not.
    pub fn sample(&mut self, name: &'static str, d: Duration) {
        self.lat.entry(name).or_default().push(d);
    }

    pub fn lat_of(&self, name: &str) -> Lat {
        self.lat.get(name).cloned().unwrap_or_default()
    }

    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn max_of(&self, name: &str) -> u64 {
        self.maxima.get(name).copied().unwrap_or(0)
    }

    /// Fold another thread's record of the same phase into this one.
    pub fn merge(&mut self, o: Rec) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.requests += o.requests;
        self.commit.extend(&o.commit);
        self.read.extend(&o.read);
        self.visible.extend(&o.visible);
        for (k, v) in o.lat {
            self.lat.entry(k).or_default().extend(&v);
        }
        self.rows += o.rows;
        self.queries += o.queries;
        self.signals += o.signals;
        for (k, v) in o.counts {
            *self.counts.entry(k).or_default() += v;
        }
        for (k, v) in o.maxima {
            self.gauge(k, v);
        }
        self.done.extend(o.done);
        self.spans.extend(o.spans);
    }

    /// Throughput of the last third of `secs` over the first third; 1
    /// for a stationary load.
    pub fn drift(&self, secs: f64) -> f64 {
        let third = secs / 3.0;
        let first = self.done.iter().filter(|&&t| t < third).count() as f64;
        let last = self.done.iter().filter(|&&t| t >= secs - third).count() as f64;
        if first > 0.0 {
            last / first
        } else {
            0.0
        }
    }
}

/// Engine-side observers, installed once per set-up and switched on
/// for the traced phase only: a transaction hook (registered after the
/// engine's own, so its `before_commit` runs last), the lock-grant
/// tracer, and the Rule Manager's firing tracer.
pub struct Probe {
    on: AtomicBool,
    begun: Mutex<HashMap<TxnId, Instant>>,
    precommit: Mutex<HashMap<TxnId, Instant>>,
    pub lifetime: Mutex<Lat>,
    pub storage_commit: Mutex<Lat>,
    pub hook_spans: Mutex<Vec<Span>>,
    pub sub_commits: AtomicU64,
    pub aborts: AtomicU64,
    pub lock_grants: Arc<AtomicU64>,
    pub firing: Mutex<Lat>,
    /// Firings of rules whose name starts with `seq-` (composite).
    pub composite_fired: AtomicU64,
    /// `(txn, duration µs, rule name)` of drained firing records.
    pub firings: Mutex<Vec<(u64, u64, String)>>,
    next_span: AtomicU64,
}

impl Probe {
    pub fn install(db: &ActiveDatabase) -> Arc<Probe> {
        let probe = Arc::new(Probe {
            on: AtomicBool::new(false),
            begun: Mutex::new(HashMap::new()),
            precommit: Mutex::new(HashMap::new()),
            lifetime: Mutex::new(Lat::default()),
            storage_commit: Mutex::new(Lat::default()),
            hook_spans: Mutex::new(Vec::new()),
            sub_commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
            lock_grants: Arc::new(AtomicU64::new(0)),
            firing: Mutex::new(Lat::default()),
            composite_fired: AtomicU64::new(0),
            firings: Mutex::new(Vec::new()),
            next_span: AtomicU64::new(0),
        });
        db.txn()
            .register_hook(Arc::clone(&probe) as Arc<dyn TxnHook>);
        let (grants, p) = (Arc::clone(&probe.lock_grants), Arc::clone(&probe));
        db.store().locks().set_tracer(Some(Arc::new(move |_, _, _| {
            if p.on.load(Relaxed) {
                grants.fetch_add(1, Relaxed);
            }
        })));
        probe
    }

    pub fn enable(&self, db: &ActiveDatabase) {
        db.rules().tracer.take();
        db.rules().tracer.set_enabled(true);
        self.on.store(true, Relaxed);
    }

    pub fn disable(&self, db: &ActiveDatabase) {
        self.on.store(false, Relaxed);
        db.rules().tracer.set_enabled(false);
        self.drain_firings(db);
    }

    /// Move firing records out of the Rule Manager's bounded ring.
    /// Call often enough that the ring (4096 records) never wraps.
    pub fn drain_firings(&self, db: &ActiveDatabase) {
        let recs = db.rules().tracer.take();
        if recs.is_empty() {
            return;
        }
        let mut lat = self.firing.lock().expect("probe lock poisoned");
        let mut out = self.firings.lock().expect("probe lock poisoned");
        for r in recs {
            lat.push(Duration::from_micros(r.duration_us));
            if r.rule_name.starts_with("seq-") && r.action_executed {
                self.composite_fired.fetch_add(1, Relaxed);
            }
            out.push((r.txn.map_or(0, |t| t.0), r.duration_us, r.rule_name));
        }
    }

    fn hook_span(&self, name: &'static str, txn: TxnId, start: Instant, end: Instant) {
        let id = (u64::from(u16::MAX) << 40) | (self.next_span.fetch_add(1, Relaxed) + 1);
        self.hook_spans
            .lock()
            .expect("probe lock poisoned")
            .push(Span {
                id,
                parent: None,
                name,
                op: txn.0,
                start,
                end,
            });
    }
}

impl TxnHook for Probe {
    fn after_begin(&self, txn: TxnId) {
        if self.on.load(Relaxed) {
            self.begun
                .lock()
                .expect("probe lock poisoned")
                .insert(txn, Instant::now());
        }
    }

    fn before_commit(&self, txn: TxnId) -> HResult<()> {
        if self.on.load(Relaxed) {
            self.precommit
                .lock()
                .expect("probe lock poisoned")
                .insert(txn, Instant::now());
        }
        Ok(())
    }

    fn after_commit(&self, txn: TxnId, top: bool) {
        let now = Instant::now();
        let begun = self.begun.lock().expect("probe lock poisoned").remove(&txn);
        let pre = self
            .precommit
            .lock()
            .expect("probe lock poisoned")
            .remove(&txn);
        if !self.on.load(Relaxed) {
            return;
        }
        if !top {
            self.sub_commits.fetch_add(1, Relaxed);
            return;
        }
        if let Some(b) = begun {
            self.lifetime
                .lock()
                .expect("probe lock poisoned")
                .push(now - b);
            self.hook_span("txn.lifetime", txn, b, now);
        }
        if let Some(p) = pre {
            self.storage_commit
                .lock()
                .expect("probe lock poisoned")
                .push(now - p);
            self.hook_span("storage.commit", txn, p, now);
        }
    }

    fn after_abort(&self, txn: TxnId, _top: bool) {
        self.begun.lock().expect("probe lock poisoned").remove(&txn);
        self.precommit
            .lock()
            .expect("probe lock poisoned")
            .remove(&txn);
        if self.on.load(Relaxed) {
            self.aborts.fetch_add(1, Relaxed);
        }
    }
}

/// Write the phase's spans and firing records as JSON lines.
pub fn write_trace(path: &Path, t0: Instant, spans: &[Span], probe: &Probe) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let us = |i: Instant| json_num(i.saturating_duration_since(t0).as_secs_f64() * 1e6);
    let hook = probe.hook_spans.lock().expect("probe lock poisoned");
    for s in spans.iter().chain(hook.iter()) {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\": {}, \"parent\": {parent}, \"name\": {}, \"op\": {}, \"start_us\": {}, \"end_us\": {}}}",
            s.id,
            json_str(s.name),
            s.op,
            us(s.start),
            us(s.end)
        )?;
    }
    for (txn, dur, rule) in probe.firings.lock().expect("probe lock poisoned").iter() {
        writeln!(
            w,
            "{{\"firing\": {}, \"op\": {txn}, \"duration_us\": {dur}}}",
            json_str(rule)
        )?;
    }
    w.flush()
}
