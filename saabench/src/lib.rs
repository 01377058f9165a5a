//! The Securities Analyst's Assistant (§4.2) driven over the socket.
//!
//! One process starts the engine and a `HipacServer` on loopback and
//! drives a named workload through `HipacClient` in a closed loop:
//! each client thread sends its next operation only after the previous
//! one was acknowledged, as the SAA's Ticker and Trader wait for their
//! commits. A run sets up several times (the median is `setup_s`),
//! warms up, measures, and ends with a correctness audit. With tracing
//! on, the measured window is split: the first half untraced, the
//! second traced, and the per-layer metrics come from the second half.
//! Every layer is observed from outside, through public calls,
//! counters and observers; no engine code is changed.
//!
//! See `README.md` in this directory for the workloads and metrics.

pub mod alloc;
pub mod gen;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;

use hipac::ActiveDatabase;
use hipac_net::HipacServer;
use stats::{median, Metric};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Probe, Rec};

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 4] = ["saa_feed", "rule_wall", "trade_mix", "replica_follow"];

/// Input sizes: `Full` is the benchmark; `Tiny` keeps the same shape
/// at a size a unit test can run in a second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Scratch directory for durable stores; removed at the end.
    pub work_dir: PathBuf,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// String errors carry the failing step.
pub type Res<T> = std::result::Result<T, String>;

/// Attach a step name to any debuggable error.
pub trait Ctx<T> {
    fn ctx(self, what: &str) -> Res<T>;
}

impl<T, E: std::fmt::Debug> Ctx<T> for std::result::Result<T, E> {
    fn ctx(self, what: &str) -> Res<T> {
        self.map_err(|e| format!("{what}: {e:?}"))
    }
}

/// A set-up workload, ready to drive.
pub trait Bench {
    /// The engine and server under test.
    fn engine(&self) -> &Engine;
    /// Run operations until `until`, recording into `rec`. Any
    /// asynchronous tail (pushes in flight) is awaited before return.
    fn drive(&mut self, rec: Rec, until: Instant) -> Res<Rec>;
    /// Check the database against the benchmark's own model.
    fn audit(&mut self) -> Res<()>;
}

/// The engine, its server and the benchmark's observers.
pub struct Engine {
    pub server: HipacServer,
    pub db: Arc<ActiveDatabase>,
    pub probe: Arc<Probe>,
}

impl Engine {
    /// Start an engine (durable under `dir`, or in memory) and a server
    /// on an ephemeral loopback port.
    pub fn start(dir: Option<&Path>) -> Res<Engine> {
        let mut b = ActiveDatabase::builder();
        if let Some(d) = dir {
            std::fs::create_dir_all(d).ctx("create store dir")?;
            b = b.durable(d);
        }
        let db = Arc::new(b.build().ctx("build engine")?);
        let server = HipacServer::bind(Arc::clone(&db), "127.0.0.1:0").ctx("bind server")?;
        let probe = Probe::install(&db);
        Ok(Engine { server, db, probe })
    }

    /// Sample the gauges kept as maxima (traced phase only).
    pub fn sample_gauges(&self, rec: &mut Rec) {
        if !rec.traced {
            return;
        }
        let s = self.db.stats();
        rec.gauge("pool_outstanding", s.pool_outstanding);
        rec.gauge(
            "locked_keys",
            self.db.store().locks().locked_key_count() as u64,
        );
        rec.gauge("unacked_pushes", self.server.unacked_pushes());
        rec.gauge("lag_bytes", s.repl_lag_bytes);
    }
}

/// One measured window.
pub struct Measured {
    pub rec: Rec,
    pub secs: f64,
    pub before: metrics::Snap,
    pub after: metrics::Snap,
}

impl Measured {
    pub fn throughput(&self) -> f64 {
        stats::ratio(self.rec.ops as f64, self.secs)
    }
}

/// Everything a run reports.
pub struct Report {
    pub audit: Res<()>,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric that applies to the workload.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    pub machine: Vec<(String, String)>,
}

fn measure(b: &mut dyn Bench, traced: bool, secs: f64) -> Res<Measured> {
    let before = metrics::Snap::take(b.engine());
    let t0 = Instant::now();
    let until = t0 + Duration::from_secs_f64(secs);
    let rec = b.drive(Rec::new(traced, t0, 0), until)?;
    let after = metrics::Snap::take(b.engine());
    // The window ends with the last completed op, not with the wait
    // for an asynchronous tail.
    let secs = rec.done.iter().copied().fold(0.0, f64::max).max(1e-3);
    Ok(Measured {
        rec,
        secs,
        before,
        after,
    })
}

/// Operations into the measured window at which `peak_rss_mb` is
/// taken (or its end, if fewer complete).
pub const RSS_AT_OPS: u64 = 2_000;

/// Set-ups per run: `setup_s` is their median, and the last one is
/// measured.
pub const SETUPS: usize = 7;

/// Run one workload end to end: set up [`SETUPS`] times, warm up,
/// measure, audit.
pub fn run(cfg: &Config) -> Res<Report> {
    std::fs::create_dir_all(&cfg.work_dir).ctx("create work dir")?;
    let machine = metrics::machine_record(&cfg.work_dir);
    let mut setup_times = Vec::new();
    let mut bench: Option<Box<dyn Bench>> = None;
    for i in 0..SETUPS {
        // Tear the previous set-up down (untimed) before the next.
        drop(bench.take());
        let dir = cfg.work_dir.join(format!("setup{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        bench = Some(workloads::setup(cfg, &dir)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let mut b = bench.expect("at least one set-up ran");
    let b = b.as_mut();

    // Warm up: caches fill and lazy set-up finishes before timing.
    let warm = (cfg.seconds * 0.1).min(1.0);
    measure(b, false, warm)?;

    trace::arm_rss_mark(RSS_AT_OPS);
    let (plain, traced) = if cfg.trace {
        let half = cfg.seconds / 2.0;
        let plain = measure(b, false, half)?;
        b.engine().probe.enable(&b.engine().db);
        let traced = measure(b, true, half);
        b.engine().probe.disable(&b.engine().db);
        (plain, Some(traced?))
    } else {
        (measure(b, false, cfg.seconds)?, None)
    };
    if plain.rec.ops == 0 {
        return Err("no operation completed in the measured window".into());
    }
    let audit = b.audit();

    let mut end_to_end =
        vec![Metric::new("setup_s", median(&setup_times), "s").with_samples(setup_times.len())];
    end_to_end.extend(metrics::end_to_end(&cfg.workload, &plain));
    let rss = trace::rss_mark_mb().unwrap_or_else(stats::peak_rss_mb);
    end_to_end.push(Metric::new("peak_rss_mb", rss, "MB"));

    let mut per_layer = Vec::new();
    let (mut attempted, mut failed) = (plain.rec.ops, plain.rec.failed);
    if let Some(t) = &traced {
        per_layer = metrics::per_layer(t, &b.engine().probe, plain.throughput());
        attempted += t.rec.ops;
        failed += t.rec.failed;
        if let Some(path) = &cfg.trace_out {
            trace::write_trace(path, t.rec.t0, &t.rec.spans, &b.engine().probe)
                .ctx("write trace")?;
        }
    }
    Ok(Report {
        audit,
        attempted,
        failed,
        end_to_end,
        per_layer,
        machine,
    })
}
