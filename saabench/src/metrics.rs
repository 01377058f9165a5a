//! The metric catalogue: counter snapshots, end-to-end metrics, and
//! the per-layer metrics of a traced window.

use crate::stats::{p50_p99, ratio, Metric};
use crate::trace::Probe;
use crate::{Engine, Measured};
use hipac::EngineStats;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// End-to-end metrics every workload reports in its result line, as
/// `BENCHMARK.json` lists them. The timed figures (throughput,
/// latencies, `cpu_us_per_op`) are printed, and reported again by the
/// traced run, but not carried here: on a shared two-core machine they
/// moved with the neighbours' load by more than the largest bound a
/// gate may use (see `README.md`). `allocs_per_op` counts work done
/// per operation without timing it.
pub const END_TO_END: [&str; 3] = ["setup_s", "allocs_per_op", "peak_rss_mb"];

/// Engine counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snap {
    pub stats: EngineStats,
    pub durable_lsn: u64,
    pub shed: u64,
    /// Process CPU time (user + system, all threads) in seconds.
    pub cpu_s: f64,
    /// Heap allocations made by the process so far.
    pub allocs: u64,
}

impl Snap {
    pub fn take(e: &Engine) -> Snap {
        Snap {
            stats: e.db.stats(),
            durable_lsn: e.db.durable_store().map_or(0, |d| d.durable_lsn()),
            shed: e.server.shed_requests() + e.server.tenant_shed_requests(),
            cpu_s: process_cpu_s(),
            allocs: crate::alloc::allocations(),
        }
    }
}

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s).
fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<f64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0.0))
        .collect();
    match (f.get(11), f.get(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => 0.0,
    }
}

/// End-to-end metrics of an untraced window, besides `setup_s` and
/// `peak_rss_mb`. The metrics that apply to one workload only (reads,
/// pushes, replica visibility) are printed for it.
pub fn end_to_end(workload: &str, m: &Measured) -> Vec<Metric> {
    let r = &m.rec;
    let ops = r.ops as usize;
    let cpu = (m.after.cpu_s - m.before.cpu_s) * 1e6;
    let mut out = vec![
        Metric::new("throughput_ops_s", m.throughput(), "1/s").with_samples(ops),
        Metric::new("cpu_us_per_op", ratio(cpu, r.ops as f64), "us").with_samples(ops),
        Metric::new(
            "allocs_per_op",
            ratio((m.after.allocs - m.before.allocs) as f64, r.ops as f64),
            "count/op",
        )
        .with_samples(ops),
    ];
    out.extend(p50_p99("commit", &r.commit));
    out.push(
        Metric::new("error_ratio", ratio(r.failed as f64, r.ops as f64), "ratio").with_samples(ops),
    );
    match workload {
        "trade_mix" => out.extend(p50_p99("read", &r.read)),
        "saa_feed" => out.extend(p50_p99("push", &r.lat_of("push"))),
        "replica_follow" => out.extend(p50_p99("visible", &r.visible)),
        _ => {}
    }
    out.push(Metric::new("throughput_drift", r.drift(m.secs), "ratio"));
    out
}

/// Per-layer metrics of the traced window `t`, with `plain_tput` the
/// untraced window's throughput (for the tracing overhead).
pub fn per_layer(t: &Measured, probe: &Probe, plain_tput: f64) -> Vec<Metric> {
    use std::sync::atomic::Ordering::Relaxed;
    let r = &t.rec;
    let ops = r.ops as f64;
    let (a, b) = (&t.after.stats, &t.before.stats);
    let d = |f: fn(&EngineStats) -> u64| f(a).saturating_sub(f(b)) as f64;
    let per_op = |x: f64| ratio(x, ops);
    let lock =
        |l: &std::sync::Mutex<crate::stats::Lat>| l.lock().expect("probe lock poisoned").clone();
    let mut out = Vec::new();
    let mut push = |name: &str, v: f64, unit: &'static str| out.push(Metric::new(name, v, unit));

    // hipac-net
    push("net.begin_rtt_p50_us", r.lat_of("begin").pct_us(50.0), "us");
    push("net.requests_per_op", per_op(r.requests as f64), "count/op");
    push(
        "net.push_ratio",
        ratio(
            r.counted("push_received") as f64,
            r.counted("push_expected") as f64,
        ),
        "ratio",
    );
    push("net.push_dupes", r.counted("push_dupes") as f64, "count");
    push(
        "net.unacked_pushes_max",
        r.max_of("unacked_pushes") as f64,
        "count",
    );
    push(
        "net.shed",
        t.after.shed.saturating_sub(t.before.shed) as f64,
        "count",
    );
    // hipac-txn
    let commit = r.lat_of("commit");
    push("txn.commit_rtt_p50_us", commit.pct_us(50.0), "us");
    push("txn.commit_rtt_p99_us", commit.pct_us(99.0), "us");
    push(
        "txn.lifetime_p50_us",
        lock(&probe.lifetime).pct_us(50.0),
        "us",
    );
    push(
        "txn.subtxns_per_op",
        per_op(probe.sub_commits.load(Relaxed) as f64),
        "count/op",
    );
    push(
        "txn.aborts_per_op",
        per_op(probe.aborts.load(Relaxed) as f64),
        "count/op",
    );
    push(
        "txn.lock_grants_per_op",
        per_op(probe.lock_grants.load(Relaxed) as f64),
        "count/op",
    );
    push(
        "txn.locked_keys_max",
        r.max_of("locked_keys") as f64,
        "count",
    );
    // hipac-object
    let (update, query) = (r.lat_of("update"), r.lat_of("query"));
    push("object.update_rtt_p50_us", update.pct_us(50.0), "us");
    push("object.update_rtt_p99_us", update.pct_us(99.0), "us");
    push("object.query_rtt_p50_us", query.pct_us(50.0), "us");
    push("object.query_rtt_p99_us", query.pct_us(99.0), "us");
    push(
        "object.rows_per_query",
        ratio(r.rows as f64, r.queries as f64),
        "count",
    );
    // hipac-rules
    let firing = lock(&probe.firing);
    push(
        "rules.triggered_per_op",
        per_op(d(|s| s.rules_triggered)),
        "count/op",
    );
    push(
        "rules.satisfied_ratio",
        ratio(d(|s| s.conditions_satisfied), d(|s| s.rules_triggered)),
        "ratio",
    );
    push(
        "rules.pruned_per_probe",
        ratio(d(|s| s.match_pruned), d(|s| s.match_probes)),
        "count",
    );
    push(
        "rules.memo_hits_per_probe",
        ratio(d(|s| s.memo_hits), d(|s| s.match_probes)),
        "count",
    );
    push(
        "rules.memo_invalidations_per_op",
        per_op(d(|s| s.memo_invalidations)),
        "count/op",
    );
    push(
        "rules.delta_evals_per_op",
        per_op(d(|s| s.delta_evaluations)),
        "count/op",
    );
    push(
        "rules.store_evals_per_op",
        per_op(d(|s| s.store_evaluations)),
        "count/op",
    );
    push("rules.firing_p50_us", firing.pct_us(50.0), "us");
    push("rules.firing_p99_us", firing.pct_us(99.0), "us");
    push(
        "rules.pool_outstanding_max",
        r.max_of("pool_outstanding") as f64,
        "count",
    );
    push("rules.separate_retries", d(|s| s.separate_retries), "count");
    push(
        "rules.dead_letters",
        d(|s| s.separate_dead_letters),
        "count",
    );
    // hipac-event
    let signal = r.lat_of("signal");
    push(
        "event.signals_per_op",
        per_op(d(|s| s.signals_processed)),
        "count/op",
    );
    push("event.signal_rtt_p50_us", signal.pct_us(50.0), "us");
    push("event.signal_rtt_p99_us", signal.pct_us(99.0), "us");
    push(
        "event.advance_clock_p50_us",
        r.lat_of("advance_clock").pct_us(50.0),
        "us",
    );
    push(
        "event.composite_fired_per_signal",
        ratio(probe.composite_fired.load(Relaxed) as f64, r.signals as f64),
        "count",
    );
    // hipac-storage
    let storage = lock(&probe.storage_commit);
    let (groups, grouped) = (d(|s| s.group_commits), d(|s| s.group_commit_txns));
    push("storage.commit_p50_us", storage.pct_us(50.0), "us");
    push("storage.commit_p99_us", storage.pct_us(99.0), "us");
    push(
        "storage.durable_commits_per_op",
        per_op(grouped),
        "count/op",
    );
    push("storage.fsyncs_per_op", per_op(groups), "count/op");
    push("storage.cohort_mean", ratio(grouped, groups), "count");
    push("storage.cohort_max", a.group_commit_largest as f64, "count");
    push(
        "storage.wal_bytes_per_op",
        per_op(t.after.durable_lsn.saturating_sub(t.before.durable_lsn) as f64),
        "B/op",
    );
    // hipac-repl
    let lag = r.lat_of("apply_lag");
    push("repl.apply_lag_p50_us", lag.pct_us(50.0), "us");
    push("repl.apply_lag_p99_us", lag.pct_us(99.0), "us");
    push(
        "repl.replica_read_rtt_p50_us",
        r.lat_of("replica_read").pct_us(50.0),
        "us",
    );
    push(
        "repl.polls_per_visible",
        ratio(r.counted("polls") as f64, r.visible.len() as f64),
        "count",
    );
    push("repl.lag_bytes_max", r.max_of("lag_bytes") as f64, "B");
    push(
        "repl.digest_mismatches",
        d(|s| s.repl_digest_mismatches),
        "count",
    );
    // End-to-end figures of the traced window, and the tracing cost.
    push("throughput_ops_s", t.throughput(), "1/s");
    push("error_ratio", per_op(r.failed as f64), "ratio");
    for (base, lat) in [
        ("commit", &r.commit),
        ("read", &r.read),
        ("push", &r.lat_of("push")),
        ("visible", &r.visible),
    ] {
        push(&format!("{base}_p50_us"), lat.pct_us(50.0), "us");
        push(&format!("{base}_p99_us"), lat.pct_us(99.0), "us");
    }
    push("throughput_drift", r.drift(t.secs), "ratio");
    push(
        "trace.throughput_ratio",
        ratio(t.throughput(), plain_tput),
        "ratio",
    );
    out
}

/// The machine the run measured: cores, the fsync cost of a 4 KiB
/// write in the benchmark's scratch directory, and the commit.
pub fn machine_record(dir: &Path) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("nproc".into(), nproc.to_string()),
        ("fsync_4k_us".into(), format!("{:.1}", fsync_us(dir))),
        ("commit".into(), commit_hash()),
    ]
}

/// Median over 16 rounds of one 4 KiB write plus `sync_data`, in µs.
fn fsync_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0x5Au8; 4096];
    let mut us = Vec::new();
    for _ in 0..16 {
        let t = Instant::now();
        if f.write_all(&block).and_then(|_| f.sync_data()).is_err() {
            break;
        }
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let _ = std::fs::remove_file(&path);
    if us.is_empty() {
        0.0
    } else {
        crate::stats::median(&us)
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a repository.
fn commit_hash() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}
