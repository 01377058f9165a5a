//! Quick experiment report: runs a reduced version of every experiment
//! in DESIGN.md §5 and prints the measured series as markdown tables
//! (the source of EXPERIMENTS.md's numbers). Criterion benches measure
//! the same paths with statistical rigor; this binary is the one-shot
//! harness: `cargo run --release -p hipac-bench --bin report`.

use hipac::prelude::*;
use hipac_bench::workload::{
    apply_quote, counting_handler, seed_securities, threshold_rules, Market,
};
use hipac_common::TxnId;
use hipac_storage::{DurableStore, StoreOp};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;

/// Measurements collected for the optional JSON emission
/// (`report --json <tag>` writes `BENCH_<tag>.json`).
static RECORDS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Record a measurement (µs per iteration) under a stable series name.
fn rec(name: impl Into<String>, us_per_iter: f64) {
    RECORDS.lock().unwrap().push((name.into(), us_per_iter));
}

fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..(iters / 10).max(1) {
        f();
    }
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64() * 1e6 / iters as f64
}

/// Like [`time_per_iter`], but also records the series for `--json`.
fn timed(name: &str, iters: usize, f: impl FnMut()) -> f64 {
    let us = time_per_iter(iters, f);
    rec(name, us);
    us
}

/// Write every recorded series to `BENCH_<tag>.json` as
/// `[{"name", "median_ns", "ops_per_sec"}, ...]`. Hand-rolled JSON:
/// the offline workspace has no serde. A smoke run writes under
/// `target/bench-smoke/` so it never replaces a committed full-run
/// file in the working directory.
fn write_json(tag: &str, smoke: bool) -> std::io::Result<String> {
    let records = RECORDS.lock().unwrap();
    let mut out = String::from("[\n");
    for (i, (name, us)) in records.iter().enumerate() {
        let ns = us * 1e3;
        let ops = if *us > 0.0 { 1e6 / us } else { 0.0 };
        let escaped: String = name
            .chars()
            .flat_map(|c| match c {
                '"' | '\\' => vec!['\\', c],
                _ => vec![c],
            })
            .collect();
        out.push_str(&format!(
            "  {{\"name\": \"{escaped}\", \"median_ns\": {ns:.1}, \"ops_per_sec\": {ops:.1}}}{}\n",
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    let path = if smoke {
        std::fs::create_dir_all("target/bench-smoke")?;
        format!("target/bench-smoke/BENCH_{tag}.json")
    } else {
        format!("BENCH_{tag}.json")
    };
    std::fs::write(&path, out)?;
    Ok(path)
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().collect();
    let json_tag = args
        .iter()
        .position(|a| a == "--json")
        .map(|i| args.get(i + 1).cloned().unwrap_or_else(|| "report".into()));
    // `--only <substr>` runs just the sections whose name contains the
    // substring; `--smoke` shrinks the fanout section to one quick cell
    // (CI uses `--only fanout --smoke`).
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let smoke = args.iter().any(|a| a == "--smoke");
    let run = |name: &str| only.as_deref().map_or(true, |o| name.contains(o));

    println!("# HiPAC experiment report (generated by hipac-bench/bin/report)");
    println!();

    if run("e4") {
        e4_coupling()?;
    }
    if run("e5") {
        e5_condition_graph()?;
    }
    if run("e6") {
        e6_cascade()?;
    }
    if run("e7") {
        e7_composite()?;
    }
    if run("e8") {
        e8_nested_txn()?;
    }
    if run("e9") {
        e9_object_manager()?;
    }
    if run("e10") {
        e10_storage()?;
    }
    if run("f41") {
        f41_interface()?;
    }
    if run("f42") {
        f42_saa()?;
    }
    if run("f51") {
        f51_components()?;
    }
    if run("net") {
        net_service()?;
    }
    if run("netchaos") {
        netchaos(smoke)?;
    }
    if run("fanout") {
        e11_fanout(smoke)?;
    }
    if run("restart") {
        restart_torture_cell(smoke)?;
    }
    if run("repl") {
        repl_cell(smoke)?;
    }
    if run("match") {
        match_cell(smoke)?;
    }
    if run("groupcommit") {
        groupcommit_cell(smoke)?;
    }
    if run("qos") {
        qos_cell(smoke)?;
    }

    if let Some(tag) = json_tag {
        let path = write_json(&tag, smoke).map_err(HipacError::from)?;
        println!("_machine-readable copy written to `{path}`_");
    }
    Ok(())
}

/// RESTART — crash-durable exactly-once: run the full crash-restart
/// torture (seeded storage crash mid-burst, reboot onto the same data
/// directory, clients retrying through a chaos proxy) and report how
/// long the reboot took and how the recovered reply journal answered
/// retried keys (CI uses `--only restart --smoke --json restart`).
fn restart_torture_cell(smoke: bool) -> Result<()> {
    use hipac_check::restart::{run_restart_torture, RestartTortureConfig};

    println!("## RESTART — crash-restart torture: recovery time and journal replay");
    println!();
    println!("| seed | recovery (ms) | journal entries | replay probes | replay hits | pushes redelivered | unacked left |");
    println!("|---|---|---|---|---|---|---|");
    let seeds: &[u64] = if smoke { &[101] } else { &[101, 202, 303] };
    let mut probes = 0u64;
    let mut hits = 0u64;
    for &seed in seeds {
        let r = run_restart_torture(&RestartTortureConfig::fast(seed));
        assert!(r.crashed, "seed {seed}: armed crash never fired");
        assert_eq!(
            r.counts, r.expected,
            "seed {seed}: committed state diverged from the uncontended run"
        );
        println!(
            "| {seed} | {:.2} | {} | {} | {} | {} | {} |",
            r.recovery.as_secs_f64() * 1e3,
            r.journal_entries,
            r.replay_probes,
            r.replay_hits,
            r.pushes_redelivered,
            r.unacked_after,
        );
        rec(
            format!("restart/recovery/seed{seed}"),
            r.recovery.as_secs_f64() * 1e6,
        );
        probes += r.replay_probes;
        hits += r.replay_hits;
    }
    let rate = if probes > 0 {
        100.0 * hits as f64 / probes as f64
    } else {
        0.0
    };
    println!();
    println!(
        "_journal replay hit rate across {} raw duplicate probes: {rate:.0}%_",
        probes
    );
    // Recorded in the µs slot: the series carries a percentage, not a
    // latency — named so readers of BENCH_restart.json can tell.
    rec("restart/replay_hit_rate_pct", rate);
    println!();
    Ok(())
}


/// REPL — two-node replication: shipping lag, where reads and pushes
/// are served, and how long a kill→promote failover takes (CI uses
/// `--only repl --smoke --json repl`).
fn repl_cell(smoke: bool) -> Result<()> {
    use hipac_check::failover::{run_failover_torture, FailoverTortureConfig};
    use hipac_net::{HipacClient, HipacServer};
    use hipac_repl::ReplicaNode;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;
    use std::time::Duration;

    println!("## REPL — primary/replica replication (two nodes, loopback)");
    println!();

    // Topology: durable primary, replica following it, both serving.
    let pdir = std::env::temp_dir().join(format!("hipac-repl-bench-p-{}", std::process::id()));
    let rdir = std::env::temp_dir().join(format!("hipac-repl-bench-r-{}", std::process::id()));
    for d in [&pdir, &rdir] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).map_err(HipacError::from)?;
    }
    let db = Arc::new(ActiveDatabase::builder().durable(&pdir).build()?);
    let server = HipacServer::bind(Arc::clone(&db), "127.0.0.1:0")
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let node = ReplicaNode::start(&rdir, server.local_addr().to_string(), "127.0.0.1:0")
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let writer = HipacClient::connect(server.local_addr().to_string())
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let t = writer.begin().unwrap();
    writer
        .create_class(t, "tick", None, vec![AttrDef::new("v", ValueType::Int)])
        .unwrap();
    writer.commit(t).unwrap();
    assert!(node.wait_caught_up(Duration::from_secs(5)));
    let store = Arc::clone(db.durable_store().expect("durable primary"));

    // 1. Replication lag: commit ack → replica durably applied the
    // committing frontier (async shipping; the 2ms shipper tick
    // dominates at this commit size).
    let iters = if smoke { 40 } else { 400 };
    let mut lag_us = Vec::with_capacity(iters);
    for i in 0..iters {
        let t = writer.begin().unwrap();
        writer.insert(t, "tick", vec![Value::from(i as i64)]).unwrap();
        writer.commit(t).unwrap();
        let frontier = store.durable_lsn();
        let t0 = Instant::now();
        while node.applied_lsn() < frontier {
            std::thread::sleep(Duration::from_micros(20));
        }
        lag_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    lag_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let lag_p50 = lag_us[lag_us.len() / 2];
    let lag_p99 = lag_us[(lag_us.len() * 99) / 100];
    rec("repl/lag_p50", lag_p50);
    rec("repl/lag_p99", lag_p99);
    println!("| metric | p50 (µs) | p99 (µs) |");
    println!("|--------|----------|----------|");
    println!("| commit ack → replica applied | {lag_p50:.1} | {lag_p99:.1} |");
    println!();

    // 2. Reads: snapshot query on the replica vs the same query in a
    // transaction on the primary.
    let reader = HipacClient::connect(node.local_addr().to_string())
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let read_iters = if smoke { 200 } else { 2000 };
    let us_replica = timed("repl/read_replica", read_iters, || {
        reader
            .query(TxnId(0), "from tick where v = 7", HashMap::new())
            .unwrap();
    });
    let us_primary = timed("repl/read_primary", read_iters, || {
        let t = writer.begin().unwrap();
        writer.query(t, "from tick where v = 7", HashMap::new()).unwrap();
        writer.abort(t).unwrap();
    });
    println!("| read path | µs |");
    println!("|-----------|----|");
    println!("| snapshot query on replica | {us_replica:.1} |");
    println!("| transactional query on primary | {us_primary:.1} |");
    println!();

    // 3. Pushes: rule-fired push round trip to a subscriber homed on
    // the replica (outbox on the primary, fan-out across the hop) vs
    // one homed on the primary.
    let t = writer.begin().unwrap();
    writer
        .create_class(t, "sig", None, vec![AttrDef::new("n", ValueType::Int)])
        .unwrap();
    writer
        .create_rule(
            t,
            &RuleDef::new("sig-push")
                .on(EventSpec::db(DbEventKind::Insert, Some("sig")))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "watch".into(),
                    request: "notify".into(),
                    args: vec![],
                })),
        )
        .unwrap();
    writer.commit(t).unwrap();
    let push_iters = if smoke { 20 } else { 100 };
    let mut cells = Vec::new();
    for (home, client) in [("replica", &reader), ("primary", &writer)] {
        let seen = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&seen);
        client
            .subscribe("watch", move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        let mut n = 0i64;
        let us = timed(&format!("repl/push_{home}"), push_iters, || {
            n += 1;
            let before = seen.load(Ordering::Relaxed);
            let t = writer.begin().unwrap();
            writer.insert(t, "sig", vec![Value::from(n)]).unwrap();
            writer.commit(t).unwrap();
            while seen.load(Ordering::Relaxed) == before {
                std::thread::sleep(Duration::from_micros(20));
            }
        });
        client.unsubscribe("watch").unwrap();
        cells.push((home, us));
    }
    println!("| push subscriber home | µs per rule-fired push |");
    println!("|----------------------|------------------------|");
    for (home, us) in &cells {
        println!("| {home} | {us:.1} |");
    }
    let fanned = node.counters().replica_pushes.load(Ordering::Relaxed);
    rec("repl/replica_pushes_fanned", fanned as f64);
    println!();
    println!("_pushes fanned out by the replica during the run: {fanned}_");
    println!();
    node.shutdown();
    let mut server = server;
    server.shutdown();
    drop(server);
    drop(store);
    drop(db);
    for d in [&pdir, &rdir] {
        let _ = std::fs::remove_dir_all(d);
    }

    // 4. Failover: kill the primary mid-burst under chaos, promote.
    println!("| seed | failover (ms) | acked at kill | replay hits/probes | push seqs | unacked left |");
    println!("|---|---|---|---|---|---|");
    let seeds: &[u64] = if smoke { &[101] } else { &[101, 202, 303] };
    for &seed in seeds {
        let r = run_failover_torture(&FailoverTortureConfig::fast(seed));
        assert_eq!(
            r.counts, r.expected,
            "seed {seed}: committed state diverged across the failover"
        );
        assert!(r.unknown.is_empty(), "seed {seed}: ambiguous outcomes");
        println!(
            "| {seed} | {:.2} | {} | {}/{} | {} | {} |",
            r.failover.as_secs_f64() * 1e3,
            r.killed_at_acks,
            r.replay_hits,
            r.replay_probes,
            r.push_deliveries.len(),
            r.unacked_after,
        );
        rec(
            format!("repl/failover/seed{seed}"),
            r.failover.as_secs_f64() * 1e6,
        );
        if !r.lag_samples_us.is_empty() {
            let mut lag = r.lag_samples_us.clone();
            lag.sort_by(|a, b| a.partial_cmp(b).unwrap());
            rec(
                format!("repl/failover/lag_p50_seed{seed}"),
                lag[lag.len() / 2],
            );
        }
    }
    println!();

    // 5. Split-brain: partition + promote + fence + rejoin end to end,
    // and the 3-replica quorum gate (one crash costs no acks).
    use hipac_check::splitbrain::{
        run_quorum_torture, run_splitbrain_torture, QuorumTortureConfig, SplitbrainTortureConfig,
    };
    println!("| seed | splitbrain e2e (ms) | divergent truncated | fence refusals | digest ok |");
    println!("|---|---|---|---|---|");
    for &seed in seeds {
        let t0 = std::time::Instant::now();
        let r = run_splitbrain_torture(&SplitbrainTortureConfig::fast(seed));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(r.digest_mismatches, 0, "seed {seed}: digest diverged");
        println!(
            "| {seed} | {ms:.2} | {} | {} | {}/{} |",
            r.divergent_acked.len(),
            r.fence_refusals,
            r.digest_ok_peers,
            r.peers,
        );
        rec(format!("repl/splitbrain/seed{seed}"), ms * 1e3);
        rec(
            format!("repl/splitbrain/divergent_truncated_seed{seed}"),
            r.divergent_acked.len() as f64,
        );
    }
    println!();
    println!("| seed | quorum e2e (ms) | peers | quorum | acked after 1 crash | degraded ack |");
    println!("|---|---|---|---|---|---|");
    for &seed in seeds {
        let t0 = std::time::Instant::now();
        let r = run_quorum_torture(&QuorumTortureConfig::fast(seed));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        println!(
            "| {seed} | {ms:.2} | {} | {} | {} | {} |",
            r.peers_at_start,
            r.quorum_at_start,
            r.acked_after_crash.len(),
            r.degraded_write_acked,
        );
        rec(format!("repl/quorum/seed{seed}"), ms * 1e3);
        rec(
            format!("repl/quorum/acked_after_crash_seed{seed}"),
            r.acked_after_crash.len() as f64,
        );
    }
    println!();
    Ok(())
}

/// NETCHAOS — the price of resilience: begin+insert+commit latency
/// through the deterministic chaos proxy at 0% and 5% fault rates.
/// The client retries transport failures under the idempotency-key
/// protocol, so the 5% column shows exactly-once tail latency, not
/// failure rates (CI uses `--only netchaos --smoke`).
fn netchaos(smoke: bool) -> Result<()> {
    use hipac_check::{ChaosConfig, ChaosProxy};
    use hipac_net::{ClientConfig, HipacClient, HipacServer};
    use std::sync::Arc;
    use std::time::Duration;
    println!("## NETCHAOS — txn latency through a faulty network (µs, loopback)");
    println!();
    println!("| fault rate | p50 | p99 | proxy faults injected |");
    println!("|------------|-----|-----|-----------------------|");
    for pct in [0u32, 5] {
        let db = Arc::new(ActiveDatabase::builder().workers(4).build()?);
        let server = HipacServer::bind(Arc::clone(&db), "127.0.0.1:0")
            .map_err(|e| HipacError::Io(e.to_string()))?;
        let mut proxy = ChaosProxy::spawn(server.local_addr(), ChaosConfig::percent(4242, pct))
            .map_err(|e| HipacError::Io(e.to_string()))?;
        let client = HipacClient::connect_with(
            proxy.local_addr().to_string(),
            ClientConfig {
                max_retries: 8,
                backoff: Duration::from_millis(1),
                ..ClientConfig::default()
            },
        )
        .map_err(|e| HipacError::Io(e.to_string()))?;
        let t = client.begin().unwrap();
        client
            .create_class(t, "chaos", None, vec![AttrDef::new("v", ValueType::Int)])
            .unwrap();
        client.commit(t).unwrap();

        let iters = if smoke { 200 } else { 2000 };
        let mut lat_us = Vec::with_capacity(iters);
        for i in 0..iters {
            let start = Instant::now();
            // Retry the whole transaction on any failure: the tail
            // honestly includes reconnects and re-sends.
            loop {
                let attempt = (|| {
                    let t = client.begin()?;
                    client.insert(t, "chaos", vec![Value::from(i as i64)])?;
                    client.commit(t)
                })();
                if attempt.is_ok() {
                    break;
                }
            }
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lat_us[lat_us.len() / 2];
        let p99 = lat_us[(lat_us.len() * 99) / 100];
        rec(format!("netchaos/p50_fault{pct}"), p50);
        rec(format!("netchaos/p99_fault{pct}"), p99);
        println!("| {pct}% | {p50:.1} | {p99:.1} | {} |", proxy.stats().total());
        proxy.shutdown();
    }
    println!();
    Ok(())
}

/// E11 — parallel sibling firing: one update triggers N rules whose
/// action subtransactions run as concurrent siblings (ISSUE 3).
///
/// Two variants. The `app` series models the paper's §4.1 application
/// service calls: each action issues an `AppRequest` to a handler that
/// blocks ~200µs (a loopback RPC's worth of latency), so overlapping
/// siblings pays off even on one core. The `db` series is pure CPU
/// (each action inserts a sink row); on a single-core host it shows
/// the pool's overhead floor rather than a speedup, and is reported
/// honestly as such.
fn e11_fanout(smoke: bool) -> Result<()> {
    println!("## E11 — fan-out firing: 1 event → N sibling actions (µs per update)");
    println!();
    let sizes: &[usize] = if smoke { &[16] } else { &[1, 4, 16, 64] };
    let pars: &[usize] = &[1, 4];

    for (variant, app) in [("app", true), ("db", false)] {
        println!(
            "### {} ",
            if app {
                "latency-bound actions (200µs application request each)"
            } else {
                "CPU-bound actions (one sink insert each)"
            }
        );
        println!();
        println!("| rules | p=1 | p=4 | speedup |");
        println!("|-------|-----|-----|---------|");
        for &n in sizes {
            let mut cells = Vec::new();
            for &p in pars {
                let (db, oid) = fanout_setup(n, p, app)?;
                let iters = if smoke {
                    1
                } else if app {
                    match n {
                        64 => 20,
                        16 => 50,
                        _ => 200,
                    }
                } else {
                    match n {
                        64 => 100,
                        _ => 500,
                    }
                };
                let mut v = 0i64;
                let us = timed(&format!("fanout/{variant}_n{n}_p{p}"), iters, || {
                    v += 1;
                    db.run_top(|t| {
                        db.store().update(t, oid, &[("val", Value::from(v))])
                    })
                    .unwrap();
                });
                cells.push(us);
            }
            println!(
                "| {n} | {:.1} | {:.1} | {:.2}x |",
                cells[0],
                cells[1],
                cells[0] / cells[1]
            );
        }
        println!();
    }
    Ok(())
}

/// One `src` row plus `n` always-satisfied rules on `update src`, at
/// sibling-firing parallelism `p`. `app` picks the action flavor.
fn fanout_setup(n: usize, p: usize, app: bool) -> Result<(ActiveDatabase, ObjectId)> {
    let db = ActiveDatabase::builder().firing_parallelism(p).build()?;
    if app {
        db.register_handler("service", |_req: &str, _args: &Args| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            Ok(())
        });
    }
    db.run_top(|t| {
        db.store()
            .create_class(t, "src", None, vec![AttrDef::new("val", ValueType::Int)])?;
        if !app {
            db.store().create_class(
                t,
                "sink",
                None,
                vec![
                    AttrDef::new("rule", ValueType::Int),
                    AttrDef::new("val", ValueType::Int),
                ],
            )?;
        }
        for i in 0..n {
            let action = if app {
                Action::single(ActionOp::AppRequest {
                    handler: "service".into(),
                    request: format!("r{i}"),
                    args: vec![],
                })
            } else {
                Action::single(ActionOp::Db(DbAction::Insert {
                    class: "sink".into(),
                    values: vec![Expr::lit(i as i64), Expr::NewAttr("val".into())],
                }))
            };
            db.rules().create_rule(
                t,
                RuleDef::new(format!("fan{i}"))
                    .on(EventSpec::on_update("src"))
                    .then(action),
            )?;
        }
        Ok(())
    })?;
    let oid = db.run_top(|t| db.store().insert(t, "src", vec![Value::from(0)]))?;
    Ok((db, oid))
}

/// hipac-net round trips over loopback: the cost of putting Figure 4.1
/// on a socket.
fn net_service() -> Result<()> {
    use hipac_net::{HipacClient, HipacServer};
    use std::sync::Arc;
    println!("## NET — network service layer (µs per round trip, loopback)");
    println!();
    println!("| operation | µs |");
    println!("|-----------|----|");
    let db = Arc::new(ActiveDatabase::builder().workers(4).build()?);
    let server = HipacServer::bind(Arc::clone(&db), "127.0.0.1:0")
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let client = HipacClient::connect(server.local_addr())
        .map_err(|e| HipacError::Io(e.to_string()))?;
    let t = client.begin().unwrap();
    client
        .create_class(
            t,
            "netitem",
            None,
            vec![AttrDef::new("v", ValueType::Int)],
        )
        .unwrap();
    client.commit(t).unwrap();

    let us = timed("net/ping", 2000, || {
        client.stats().unwrap();
    });
    println!("| stats round trip | {us:.1} |");
    let us = timed("net/insert_commit", 1000, || {
        let t = client.begin().unwrap();
        client.insert(t, "netitem", vec![Value::from(1)]).unwrap();
        client.commit(t).unwrap();
    });
    println!("| begin+insert+commit | {us:.1} |");
    let us = timed("net/query_100", 200, || {
        let t = client.begin().unwrap();
        client.query(t, "from netitem", HashMap::new()).unwrap();
        client.abort(t).unwrap();
    });
    println!("| full-class query | {us:.1} |");
    println!();
    Ok(())
}

fn e4_coupling() -> Result<()> {
    println!("## E4 — coupling modes (µs per triggering update)");
    println!();
    println!("| mode | µs/update |");
    println!("|------|-----------|");
    for (label, coupling) in [
        ("none (baseline)", None),
        ("immediate", Some(CouplingMode::Immediate)),
        ("deferred", Some(CouplingMode::Deferred)),
        ("separate", Some(CouplingMode::Separate)),
    ] {
        let db = ActiveDatabase::builder().workers(4).build()?;
        let market = Market::new(16, 42, 0.05);
        let oids = seed_securities(&db, &market)?;
        if let Some(mode) = coupling {
            db.run_top(|t| {
                db.rules().create_rule(
                    t,
                    RuleDef::new("probe")
                        .on(EventSpec::on_update("stock"))
                        .when(Query::parse("from stock where new.price >= 0.0")?)
                        .then(Action::none())
                        .ec(mode),
                )
            })?;
        }
        let mut i = 0usize;
        let us = timed(&format!("e4/{label}"), 2000, || {
            i = (i + 1) % oids.len();
            db.run_top(|t| {
                db.store()
                    .update(t, oids[i], &[("price", Value::from(100.0 + i as f64))])
            })
            .unwrap();
        });
        db.quiesce();
        println!("| {label} | {us:.1} |");
    }
    println!();
    Ok(())
}

fn e5_condition_graph() -> Result<()> {
    println!("## E5 — condition evaluation vs rule count (µs per update)");
    println!();
    println!("| rules | shared+delta | distinct+delta | shared+store | distinct+store |");
    println!("|-------|--------------|----------------|--------------|----------------|");
    for &n in &[1usize, 16, 64, 256] {
        let mut cells = Vec::new();
        for (shared, delta) in [(true, true), (false, true), (true, false), (false, false)] {
            let db = ActiveDatabase::builder().build()?;
            let market = Market::new(64, 7, 0.05);
            let oids = seed_securities(&db, &market)?;
            db.run_top(|t| {
                for i in 0..n {
                    let threshold = if shared { 1e9 } else { 1e9 + i as f64 };
                    let predicate = if delta {
                        Expr::NewAttr("price".into()).bin(BinOp::Ge, Expr::lit(threshold))
                    } else {
                        Expr::attr("price").bin(BinOp::Ge, Expr::lit(threshold))
                    };
                    db.rules().create_rule(
                        t,
                        RuleDef::new(format!("r{i}"))
                            .on(EventSpec::on_update("stock"))
                            .when(Query::filtered("stock", predicate))
                            .then(Action::none()),
                    )?;
                }
                Ok(())
            })?;
            let mut i = 0usize;
            let series = format!(
                "e5/{n}_{}_{}",
                if shared { "shared" } else { "distinct" },
                if delta { "delta" } else { "store" }
            );
            let us = timed(&series, 300, || {
                i = (i + 1) % oids.len();
                db.run_top(|t| {
                    db.store()
                        .update(t, oids[i], &[("price", Value::from(50.0))])
                })
                .unwrap();
            });
            cells.push(format!("{us:.1}"));
        }
        println!("| {n} | {} |", cells.join(" | "));
    }
    println!();
    Ok(())
}

fn e6_cascade() -> Result<()> {
    println!("## E6 — cascading firings vs depth (µs per root insert)");
    println!();
    println!("| depth | µs/insert |");
    println!("|-------|-----------|");
    for &depth in &[0usize, 1, 2, 4, 8, 16] {
        let db = ActiveDatabase::builder().build()?;
        db.run_top(|t| {
            for i in 0..=depth {
                db.store().create_class(
                    t,
                    &format!("c{i}"),
                    None,
                    vec![AttrDef::new("n", ValueType::Int)],
                )?;
            }
            for i in 0..depth {
                db.rules().create_rule(
                    t,
                    RuleDef::new(format!("hop{i}"))
                        .on(EventSpec::db(DbEventKind::Insert, Some(&format!("c{i}"))))
                        .then(Action::single(ActionOp::Db(DbAction::Insert {
                            class: format!("c{}", i + 1),
                            values: vec![Expr::NewAttr("n".into())
                                .bin(BinOp::Add, Expr::lit(1))],
                        }))),
                )?;
            }
            Ok(())
        })?;
        let us = timed(&format!("e6/depth_{depth}"), 300, || {
            db.run_top(|t| {
                db.store().insert(t, "c0", vec![Value::from(0)])?;
                Ok(())
            })
            .unwrap();
        });
        println!("| {depth} | {us:.1} |");
    }
    println!();
    Ok(())
}

fn e7_composite() -> Result<()> {
    use hipac_common::{Clock, VirtualClock};
    use hipac_event::EventRegistry;
    use std::sync::Arc;
    println!("## E7 — composite event detection (µs per signal)");
    println!();
    println!("| detector | µs/signal |");
    println!("|----------|-----------|");
    let cases: Vec<(&str, EventSpec)> = vec![
        ("primitive", EventSpec::external("a")),
        ("disjunction", EventSpec::external("a").or(EventSpec::external("b"))),
        ("sequence", EventSpec::external("a").then(EventSpec::external("b"))),
        ("conjunction", EventSpec::external("a").and(EventSpec::external("b"))),
    ];
    for (label, spec) in cases {
        let clock = Arc::new(VirtualClock::new());
        let reg = EventRegistry::new(clock as Arc<dyn Clock>);
        reg.define_external("a", vec![])?;
        reg.define_external("b", vec![])?;
        reg.define_event(spec)?;
        let mut flip = false;
        let us = timed(&format!("e7/{label}"), 20_000, || {
            flip = !flip;
            reg.signal_external(if flip { "a" } else { "b" }, HashMap::new(), None)
                .unwrap();
        });
        println!("| {label} | {us:.2} |");
    }
    println!();
    Ok(())
}

fn e8_nested_txn() -> Result<()> {
    println!("## E8 — nested transaction overhead (µs per txn tree)");
    println!();
    println!("| shape | µs |");
    println!("|-------|----|");
    let db = ActiveDatabase::builder().build()?;
    db.run_top(|t| {
        db.store().create_class(
            t,
            "acct",
            None,
            vec![AttrDef::new("balance", ValueType::Int)],
        )
    })?;
    let oid = db.run_top(|t| db.store().insert(t, "acct", vec![Value::from(0)]))?;
    for &depth in &[0usize, 1, 2, 4, 8] {
        let us = timed(&format!("e8/depth_{depth}"), 2000, || {
            let top = db.begin();
            let mut chain = vec![top];
            for _ in 0..depth {
                chain.push(db.begin_child(*chain.last().unwrap()).unwrap());
            }
            db.store()
                .update(*chain.last().unwrap(), oid, &[("balance", Value::from(1))])
                .unwrap();
            for txn in chain.iter().rev() {
                db.commit(*txn).unwrap();
            }
        });
        println!("| update at depth {depth} | {us:.1} |");
    }
    for &n in &[1usize, 4, 16] {
        let us = timed(&format!("e8/siblings_{n}"), 500, || {
            let top = db.begin();
            for _ in 0..n {
                db.run_child(top, |c| {
                    db.store().update(c, oid, &[("balance", Value::from(2))])
                })
                .unwrap();
            }
            db.commit(top).unwrap();
        });
        println!("| {n} sequential sibling subtxns | {us:.1} |");
    }
    println!();
    Ok(())
}

fn e9_object_manager() -> Result<()> {
    println!("## E9 — Object Manager (µs per operation, 10k objects)");
    println!();
    let db = ActiveDatabase::builder().build()?;
    let oids = db.run_top(|t| {
        db.store().create_class(
            t,
            "item",
            None,
            vec![
                AttrDef::new("sku", ValueType::Str).indexed(),
                AttrDef::new("qty", ValueType::Int),
            ],
        )?;
        (0..10_000)
            .map(|i| {
                db.store().insert(
                    t,
                    "item",
                    vec![Value::from(format!("SKU{i:06}")), Value::from(i % 100)],
                )
            })
            .collect::<Result<Vec<_>>>()
    })?;
    println!("| operation | µs |");
    println!("|-----------|----|");
    let mut i = 0usize;
    let us = timed("e9/update_own_txn", 2000, || {
        i = (i + 1) % oids.len();
        db.run_top(|t| db.store().update(t, oids[i], &[("qty", Value::from(1))]))
            .unwrap();
    });
    println!("| update (own txn) | {us:.1} |");
    let us = timed("e9/point_get", 2000, || {
        i = (i + 1) % oids.len();
        db.run_top(|t| db.store().get(t, oids[i])).unwrap();
    });
    println!("| point get (own txn) | {us:.1} |");
    let q = Query::parse("from item where sku = \"SKU005000\"")?;
    let us = timed("e9/indexed_query", 2000, || {
        db.run_top(|t| db.store().query(t, &q, None)).unwrap();
    });
    println!("| indexed equality query | {us:.1} |");
    let q = Query::parse("from item where qty = 7")?;
    let us = timed("e9/full_scan_10k", 20, || {
        db.run_top(|t| db.store().query(t, &q, None)).unwrap();
    });
    println!("| full scan query (10k rows) | {us:.1} |");
    println!();
    Ok(())
}

fn e10_storage() -> Result<()> {
    println!("## E10 — storage substrate");
    println!();
    println!("| operation | µs |");
    println!("|-----------|----|");
    let dir = std::env::temp_dir().join(format!("hipac-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DurableStore::open(&dir)?;
    let mut k = 0u64;
    let us = timed("e10/durable_commit", 300, || {
        k += 1;
        store
            .commit(
                TxnId(k),
                &[StoreOp::Put {
                    key: k.to_be_bytes().to_vec(),
                    value: vec![7u8; 100],
                }],
            )
            .unwrap();
    });
    println!("| durable commit (1 op, fsync) | {us:.1} |");
    let mut i = 0u64;
    let us = timed("e10/durable_point_get", 5000, || {
        i = (i % k) + 1;
        store.get(&i.to_be_bytes()).unwrap();
    });
    println!("| durable point get | {us:.2} |");
    let start = Instant::now();
    store.checkpoint()?;
    let us = start.elapsed().as_secs_f64() * 1e6;
    rec("e10/checkpoint", us);
    println!("| checkpoint ({} keys) | {us:.0} |", store.len()?);
    // Recovery of a 1000-batch WAL.
    let dir2 = dir.join("recover");
    {
        let s = DurableStore::open(&dir2)?;
        for i in 0..1000u64 {
            s.commit_log_only_for_crash_test(
                TxnId(i + 1),
                &[StoreOp::Put {
                    key: i.to_be_bytes().to_vec(),
                    value: vec![9u8; 64],
                }],
            )?;
        }
    }
    let start = Instant::now();
    let s = DurableStore::open(&dir2)?;
    assert_eq!(s.len()?, 1000);
    let us = start.elapsed().as_secs_f64() * 1e6;
    rec("e10/recovery_1000", us);
    println!("| recovery replay (1000 committed batches) | {us:.0} |");
    println!();
    Ok(())
}

fn f41_interface() -> Result<()> {
    println!("## F4.1 — interface modules (µs per call)");
    println!();
    let db = ActiveDatabase::builder().build()?;
    db.run_top(|t| {
        db.store()
            .create_class(t, "datum", None, vec![AttrDef::new("v", ValueType::Int)])
    })?;
    let oid = db.run_top(|t| db.store().insert(t, "datum", vec![Value::from(0)]))?;
    db.define_event("app_event", &["n"])?;
    let counter = counting_handler(&db, "app");
    db.run_top(|t| {
        db.rules().create_rule(
            t,
            RuleDef::new("echo")
                .on(EventSpec::external("app_event"))
                .then(Action::single(ActionOp::AppRequest {
                    handler: "app".into(),
                    request: "echo".into(),
                    args: vec![("n".into(), Expr::param("n"))],
                })),
        )
    })?;
    println!("| module | operation | µs |");
    println!("|--------|-----------|----|");
    let us = timed("f41/txn_begin_commit", 5000, || {
        let t = db.begin();
        db.commit(t).unwrap();
    });
    println!("| transactions | begin+commit (empty) | {us:.2} |");
    let us = timed("f41/data_update", 2000, || {
        db.run_top(|t| db.store().update(t, oid, &[("v", Value::from(1))]))
            .unwrap();
    });
    println!("| data | update in txn | {us:.1} |");
    let mut args = HashMap::new();
    args.insert("n".to_string(), Value::from(0));
    let us = timed("f41/signal_to_handler", 2000, || {
        db.signal_event("app_event", args.clone(), None).unwrap();
        db.quiesce();
    });
    println!("| events+application | signal → rule → handler | {us:.1} |");
    assert!(counter.load(Ordering::Relaxed) > 0);
    println!();
    Ok(())
}

fn f42_saa() -> Result<()> {
    println!("## F4.2 — SAA quote ingestion (µs per quote)");
    println!();
    println!("| configuration | µs/quote | displays fired |");
    println!("|---------------|----------|----------------|");
    for (label, with_rules) in [("passive baseline", false), ("active SAA rules", true)] {
        let db = ActiveDatabase::builder().workers(4).build()?;
        let market0 = Market::new(32, 1989, 0.02);
        let oids = seed_securities(&db, &market0)?;
        let displays = counting_handler(&db, "display");
        let _trader = counting_handler(&db, "trader");
        db.define_event("trade_executed", &["symbol"])?;
        if with_rules {
            db.run_top(|t| {
                db.rules().create_rule(
                    t,
                    RuleDef::new("ticker-window")
                        .on(EventSpec::on_update("stock"))
                        .then(Action::single(ActionOp::AppRequest {
                            handler: "display".into(),
                            request: "display_quote".into(),
                            args: vec![("symbol".into(), Expr::NewAttr("symbol".into()))],
                        }))
                        .detached(),
                )?;
                db.rules().create_rule(
                    t,
                    RuleDef::new("buy-threshold")
                        .on(EventSpec::on_update("stock"))
                        .when(Query::parse(
                            "from stock where new.price >= 105.0 and old.price < 105.0",
                        )?)
                        .then(Action::single(ActionOp::AppRequest {
                            handler: "trader".into(),
                            request: "buy".into(),
                            args: vec![("symbol".into(), Expr::NewAttr("symbol".into()))],
                        }))
                        .detached(),
                )?;
                Ok(())
            })?;
        }
        let mut market = Market::new(32, 7, 0.02);
        let series = format!(
            "f42/{}",
            if with_rules { "active" } else { "passive" }
        );
        let us = timed(&series, 2000, || {
            let q = market.quote();
            apply_quote(&db, &oids, q).unwrap();
        });
        db.quiesce();
        println!(
            "| {label} | {us:.1} | {} |",
            displays.load(Ordering::Relaxed)
        );
    }
    println!();
    Ok(())
}

fn f51_components() -> Result<()> {
    println!("## F5.1 — signal path vs attached rules (µs per update)");
    println!();
    println!("| rules | µs/update |");
    println!("|-------|-----------|");
    for &rules in &[0usize, 1, 8, 64] {
        let db = ActiveDatabase::builder().build()?;
        let market = Market::new(8, 3, 0.02);
        let oids = seed_securities(&db, &market)?;
        if rules > 0 {
            threshold_rules(&db, rules, false, CouplingMode::Immediate)?;
        }
        let mut i = 0usize;
        let us = timed(&format!("f51/rules_{rules}"), 1000, || {
            i = (i + 1) % oids.len();
            db.run_top(|t| {
                db.store()
                    .update(t, oids[i], &[("price", Value::from(55.0))])
            })
            .unwrap();
        });
        println!("| {rules} | {us:.1} |");
    }
    println!();
    Ok(())
}

/// Install `n` cold threshold rules (distinct guards far above any
/// quoted price, so the discrimination network prunes them all) plus
/// four hot rules that stay candidates on every update. Chunked
/// commits: one 1M-rule transaction would hold the catalog lock and a
/// million rule wirings in a single unstable set for seconds.
fn install_rule_wall(db: &ActiveDatabase, n: usize) -> Result<()> {
    const CHUNK: usize = 10_000;
    let mut made = 0usize;
    while made < n {
        let end = (made + CHUNK).min(n);
        db.run_top(|t| {
            for i in made..end {
                db.rules().create_rule(
                    t,
                    RuleDef::new(format!("cold{i}"))
                        .on(EventSpec::on_update("stock"))
                        .when(Query::filtered(
                            "stock",
                            Expr::NewAttr("price".into())
                                .bin(BinOp::Ge, Expr::lit(1e6 + i as f64)),
                        ))
                        .then(Action::none()),
                )?;
            }
            Ok(())
        })?;
        made = end;
    }
    db.run_top(|t| {
        for i in 0..4 {
            db.rules().create_rule(
                t,
                RuleDef::new(format!("hot{i}"))
                    .on(EventSpec::on_update("stock"))
                    .when(Query::filtered(
                        "stock",
                        Expr::NewAttr("price".into()).bin(BinOp::Ge, Expr::lit(0.0)),
                    ))
                    .then(Action::none()),
            )?;
        }
        Ok(())
    })
}

/// MATCH — discrimination-network candidate resolution vs rule-base
/// size. Every cell updates one row with `n` cold rules + 4 hot rules
/// attached to the update event: the network resolves candidates in
/// O(matches), so µs/update should stay near-flat from 1k to 1M rules,
/// while naive dispatch (measured up to 10k) grows linearly. The
/// non-smoke run asserts the headline property — 1M-rule updates
/// within 10x the 1k-rule cost — and `--json match` records it in
/// `BENCH_match.json` (CI uses `--only match --smoke`).
fn match_cell(smoke: bool) -> Result<()> {
    println!("## MATCH — rule matching vs rule-base size (µs per update)");
    println!();
    println!("| rules | network µs/update | pruned/probe | naive µs/update |");
    println!("|-------|-------------------|--------------|-----------------|");
    let counts: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let mut network_us = Vec::new();
    for &n in counts {
        let db = ActiveDatabase::builder().matching(Matching::Network).build()?;
        let market = Market::new(16, 7, 0.05);
        let oids = seed_securities(&db, &market)?;
        install_rule_wall(&db, n)?;
        let before = db.stats();
        let mut i = 0usize;
        // Enough iterations to amortize the cold caches left by
        // installing n rules: at 200 iters the 100k/1M cells measure
        // cache-warming, not steady-state matching.
        let iters = 2000;
        let us = timed(&format!("match/network/{n}"), iters, || {
            i = (i + 1) % oids.len();
            db.run_top(|t| {
                db.store()
                    .update(t, oids[i], &[("price", Value::from(50.0))])
            })
            .unwrap();
        });
        let after = db.stats();
        let probes = (after.match_probes - before.match_probes).max(1);
        let pruned_per_probe =
            (after.match_pruned - before.match_pruned) as f64 / probes as f64;
        network_us.push(us);

        // Naive dispatch triggers all n+4 rules per update; measuring
        // past 10k rules would take minutes for a number that is, by
        // construction, linear in n.
        let naive = if n <= 10_000 {
            let db = ActiveDatabase::builder().matching(Matching::Naive).build()?;
            let oids = seed_securities(&db, &market)?;
            install_rule_wall(&db, n)?;
            let mut i = 0usize;
            let iters = if n >= 10_000 { 30 } else { 300 };
            let us = timed(&format!("match/naive/{n}"), iters, || {
                i = (i + 1) % oids.len();
                db.run_top(|t| {
                    db.store()
                        .update(t, oids[i], &[("price", Value::from(50.0))])
                })
                .unwrap();
            });
            format!("{us:.1}")
        } else {
            "—".into()
        };
        println!("| {n} | {us:.1} | {pruned_per_probe:.0} | {naive} |");
    }
    let ratio = network_us.last().unwrap() / network_us[0];
    rec("match/ratio_max_over_1k", ratio);
    println!();
    println!(
        "_network µs/update at {} rules is {ratio:.2}x the 1k-rule cost_",
        counts.last().unwrap()
    );
    if !smoke {
        assert!(
            ratio <= 10.0,
            "candidate resolution degraded: 1M-rule updates cost {ratio:.1}x 1k-rule updates (budget 10x)"
        );
    }
    println!();
    Ok(())
}

/// GROUPCOMMIT — the commit/dispatch substrate cell (ISSUE 8): WAL
/// group commit throughput at 64 concurrent committers (off vs on),
/// and push-delivery latency through the sharded-reactor server with
/// a ~10k-subscriber fan-out, in both commit modes. CI uses
/// `--only groupcommit --smoke --json groupcommit`; the checked-in
/// `BENCH_groupcommit.json` comes from the full run.
///
/// Each committer inserts into its *own* class: the object manager
/// takes a class-level write lock per insert (phantom protection), so
/// same-class committers would serialize at the lock manager and no
/// cohort could ever form — the cell measures the commit substrate,
/// not lock contention.
fn groupcommit_cell(smoke: bool) -> Result<()> {
    use hipac_net::proto::{Command, Frame, Reply, RequestMeta};
    use hipac_net::{HipacClient, HipacServer, ServerConfig};
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::sync::Arc;
    use std::time::Duration;

    println!("## GROUPCOMMIT — group commit + reactor shards (ISSUE 8)");
    println!();

    // --- The commit substrate itself: raw DurableStore commits from 64
    // concurrent committers, fsync-per-commit vs one fsync per cohort.
    // The per-commit CPU work is a few µs, so the fsync is the
    // bottleneck the way it is for any write-hot server — this is the
    // path the tentpole rearchitected and the headline ratio.
    let committers: usize = if smoke { 16 } else { 64 };
    let store_per_thread: usize = if smoke { 20 } else { 100 };
    println!("### commit substrate: raw WAL commits, {committers} concurrent committers");
    println!();
    println!("| group commit | txn/s | µs/txn | cohorts | mean cohort | largest |");
    println!("|---|---|---|---|---|---|");
    let mut store_tps = [0.0f64; 2];
    for (mi, on) in [(0, false), (1, true)] {
        let dir = std::env::temp_dir().join(format!(
            "hipac-bench-gcstore-{}-{}",
            if on { "on" } else { "off" },
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(
            DurableStore::open_with(&dir, 1024, u64::MAX)
                .map_err(|e| HipacError::Io(e.to_string()))?,
        );
        store.set_group_commit(on, std::time::Duration::from_millis(2));
        let barrier = std::sync::Barrier::new(committers + 1);
        let start_cell = std::thread::scope(|s| {
            for w in 0..committers {
                let store = Arc::clone(&store);
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    for i in 0..store_per_thread {
                        let txn = TxnId(1 + (w * store_per_thread + i) as u64);
                        store
                            .commit(
                                txn,
                                &[StoreOp::Put {
                                    key: format!("k{w:02}-{i:04}").into_bytes(),
                                    value: (i as u64).to_be_bytes().to_vec(),
                                }],
                            )
                            .unwrap();
                    }
                });
            }
            barrier.wait();
            Instant::now()
        });
        let elapsed = start_cell.elapsed();
        let total = (committers * store_per_thread) as f64;
        let tps = total / elapsed.as_secs_f64();
        let us = elapsed.as_secs_f64() * 1e6 / total;
        store_tps[mi] = tps;
        let stats = store.group_commit_stats();
        let mean = if stats.groups > 0 {
            stats.grouped_txns as f64 / stats.groups as f64
        } else {
            0.0
        };
        println!(
            "| {} | {tps:.0} | {us:.1} | {} | {mean:.1} | {} |",
            if on { "on" } else { "off" },
            stats.groups,
            stats.largest_group
        );
        rec(
            format!("groupcommit/store_commit_us_{}", if on { "on" } else { "off" }),
            us,
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let store_speedup = store_tps[1] / store_tps[0];
    println!();
    println!(
        "_cohort fsync amortization sustains {store_speedup:.1}x the fsync-per-commit baseline_"
    );
    // The ratio rides along in the JSON as a pseudo-latency series
    // (median_ns = ratio * 1000).
    rec("groupcommit/speedup_x", store_speedup);
    println!();

    // --- Full stack: the same contrast through ActiveDatabase (txn
    // manager, lock manager, rule matching, object manager). On a
    // single-core runner the per-txn CPU work dominates the cheap
    // container fsync, so this ratio is honest context, not the
    // headline: it shows group commit costs nothing when the workload
    // is CPU-bound rather than fsync-bound.
    let per_thread: usize = if smoke { 8 } else { 25 };
    println!("### full stack: ActiveDatabase commits, {committers} concurrent committers");
    println!();
    println!("| group commit | txn/s | µs/txn | cohorts | largest |");
    println!("|---|---|---|---|---|");
    let mut txns_per_sec = [0.0f64; 2];
    for (mi, on) in [(0, false), (1, true)] {
        let dir = std::env::temp_dir().join(format!(
            "hipac-bench-gc-{}-{}-{}",
            if on { "on" } else { "off" },
            committers,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Arc::new(
            ActiveDatabase::builder()
                .durable(&dir)
                .workers(2)
                .group_commit(on)
                .group_commit_window(Duration::from_millis(2))
                .lock_timeout(Duration::from_secs(30))
                .build()?,
        );
        db.run_top(|t| {
            for w in 0..committers {
                db.store().create_class(
                    t,
                    &format!("c{w:02}"),
                    None,
                    vec![AttrDef::new("n", ValueType::Int)],
                )?;
            }
            Ok(())
        })?;
        let barrier = std::sync::Barrier::new(committers + 1);
        let elapsed = std::thread::scope(|s| {
            for w in 0..committers {
                let db = Arc::clone(&db);
                let barrier = &barrier;
                s.spawn(move || {
                    let class = format!("c{w:02}");
                    barrier.wait();
                    for i in 0..per_thread {
                        db.run_top(|t| {
                            db.store()
                                .insert(t, &class, vec![Value::from(i as i64)])
                                .map(|_| ())
                        })
                        .unwrap();
                    }
                });
            }
            barrier.wait();
            Instant::now() // scope joins all committers before returning
        })
        .elapsed();
        let total = (committers * per_thread) as f64;
        let tps = total / elapsed.as_secs_f64();
        let us = elapsed.as_secs_f64() * 1e6 / total;
        txns_per_sec[mi] = tps;
        let stats = db.durable_store().unwrap().group_commit_stats();
        println!(
            "| {} | {tps:.0} | {us:.1} | {} | {} |",
            if on { "on" } else { "off" },
            stats.groups,
            stats.largest_group
        );
        rec(
            format!("groupcommit/commit_us_{}", if on { "on" } else { "off" }),
            us,
        );
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let fullstack_ratio = txns_per_sec[1] / txns_per_sec[0];
    println!();
    println!(
        "_full-stack ratio {fullstack_ratio:.1}x (CPU-bound on this runner; see the substrate row \
         for the fsync contrast)_"
    );
    rec("groupcommit/fullstack_ratio_x", fullstack_ratio);
    println!();

    // --- Push-delivery latency at ~10k subscribers, off vs on. ---
    // Both socket ends live in this process and the server clones a
    // writer per connection, so each subscriber costs three fds.
    let fd_budget = {
        let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
        let soft: u64 = limits
            .lines()
            .find(|l| l.starts_with("Max open files"))
            .and_then(|l| l.split_whitespace().nth(3)?.parse().ok())
            .unwrap_or(1024);
        soft.saturating_sub(1000) / 3
    };
    let conns = if smoke { 300 } else { fd_budget.min(10_000) as usize };
    let rounds = if smoke { 20 } else { 100 };
    println!("### push-delivery latency, {conns} idle subscribers (last-written socket)");
    println!();
    println!("| group commit | p50 µs | p99 µs |");
    println!("|---|---|---|");
    for on in [false, true] {
        let dir = std::env::temp_dir().join(format!(
            "hipac-bench-gcpush-{}-{}",
            if on { "on" } else { "off" },
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Arc::new(
            ActiveDatabase::builder()
                .durable(&dir)
                .workers(4)
                .group_commit(on)
                .group_commit_window(Duration::from_millis(2))
                .build()?,
        );
        db.run_top(|t| {
            db.store()
                .create_class(t, "p", None, vec![AttrDef::new("n", ValueType::Int)])?;
            db.rules().create_rule(
                t,
                RuleDef::new("tick")
                    .on(EventSpec::db(
                        hipac_event::spec::DbEventKind::Insert,
                        Some("p"),
                    ))
                    .then(Action::single(ActionOp::AppRequest {
                        handler: "tick".into(),
                        request: "tick".into(),
                        args: vec![],
                    })),
            )?;
            Ok(())
        })?;
        let server = HipacServer::bind_with(
            Arc::clone(&db),
            "127.0.0.1:0",
            ServerConfig {
                max_pending: conns + 64,
                idle_timeout: Duration::from_secs(600),
                outbox_cap: rounds + 16,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| HipacError::Io(e.to_string()))?;
        let mut horde = Vec::with_capacity(conns);
        for i in 0..conns {
            let mut conn = TcpStream::connect(server.local_addr())
                .map_err(|e| HipacError::Io(e.to_string()))?;
            conn.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            conn.write_all(
                &Frame::Request {
                    id: i as u64,
                    meta: RequestMeta::default(),
                    command: Command::Subscribe {
                        handler: "tick".into(),
                    },
                }
                .encode(),
            )
            .unwrap();
            loop {
                match Frame::read_from(&mut conn).unwrap().expect("reply") {
                    Frame::Response { reply, .. } => {
                        assert_eq!(reply, Reply::Ok);
                        break;
                    }
                    _ => continue,
                }
            }
            horde.push(conn);
        }
        // The fan-out writes subscribers in subscription order: the
        // last-subscribed socket observes the full fan-out cost, so its
        // latency is the honest tail.
        let committer = HipacClient::connect(server.local_addr().to_string())
            .map_err(|e| HipacError::Io(e.to_string()))?;
        let sample = horde.last_mut().unwrap();
        let mut lat_us = Vec::with_capacity(rounds);
        for i in 0..rounds {
            let start = Instant::now();
            let t = committer.begin().unwrap();
            committer.insert(t, "p", vec![Value::from(i as i64)]).unwrap();
            committer.commit(t).unwrap();
            loop {
                match Frame::read_from(sample).unwrap().expect("push") {
                    Frame::Push(_) => break,
                    _ => continue,
                }
            }
            lat_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let p50 = lat_us[lat_us.len() / 2];
        let p99 = lat_us[(lat_us.len() * 99) / 100];
        println!("| {} | {p50:.1} | {p99:.1} |", if on { "on" } else { "off" });
        rec(
            format!("groupcommit/push_p50_us_{}", if on { "on" } else { "off" }),
            p50,
        );
        rec(
            format!("groupcommit/push_p99_us_{}", if on { "on" } else { "off" }),
            p99,
        );
        drop(committer);
        drop(horde);
        drop(server);
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!();
    Ok(())
}

/// QOS — per-tenant isolation under a noisy neighbor: a quiet tenant
/// runs the same sequential begin+insert+commit workload twice — on an
/// unloaded server, then while a noisy tenant floods its per-tenant
/// admission budget from several connections — and the cell reports
/// the quiet tenant's p50/p99 in both states plus how much shedding
/// the noisy tenant absorbed (CI uses `--only qos --smoke --json qos`).
fn qos_cell(smoke: bool) -> Result<()> {
    use hipac_net::proto::{Command, Frame, Reply, RequestMeta};
    use hipac_net::{ClientConfig, HipacClient, HipacServer, ServerConfig};
    use std::io::Write as _;
    use std::net::TcpStream;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    println!("## QOS — quiet-tenant latency under a noisy neighbor (µs per txn)");
    println!();
    let db = Arc::new(ActiveDatabase::builder().workers(4).build()?);
    let server = HipacServer::bind_with(
        Arc::clone(&db),
        "127.0.0.1:0",
        ServerConfig {
            tenant_max_inflight: 2,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| HipacError::Io(e.to_string()))?;
    let quiet = HipacClient::connect_with(
        server.local_addr().to_string(),
        ClientConfig {
            client_id: 0x0B5E,
            ..ClientConfig::default()
        },
    )
    .map_err(|e| HipacError::Io(e.to_string()))?;
    let t = quiet.begin().unwrap();
    quiet
        .create_class(t, "qositem", None, vec![AttrDef::new("v", ValueType::Int)])
        .unwrap();
    quiet.commit(t).unwrap();

    // Each measurement is the median of three rounds' percentiles: the
    // per-round p99 of a few hundred samples is a single-outlier
    // statistic, and on small machines one scheduler burst would
    // otherwise dominate the reported tail.
    let iters = if smoke { 300 } else { 2000 };
    let measure = |label: &str| -> (f64, f64) {
        let mut p50s = Vec::new();
        let mut p99s = Vec::new();
        for _ in 0..3 {
            let mut lat_us = Vec::with_capacity(iters);
            for _ in 0..iters / 10 {
                let t = quiet.begin().unwrap();
                quiet.insert(t, "qositem", vec![Value::from(1)]).unwrap();
                quiet.commit(t).unwrap();
            }
            for _ in 0..iters {
                let start = Instant::now();
                let t = quiet.begin().unwrap();
                quiet.insert(t, "qositem", vec![Value::from(1)]).unwrap();
                quiet.commit(t).unwrap();
                lat_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
            lat_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
            p50s.push(lat_us[lat_us.len() / 2]);
            p99s.push(lat_us[(lat_us.len() * 99) / 100]);
        }
        p50s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        p99s.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (p50, p99) = (p50s[1], p99s[1]);
        rec(format!("qos/quiet_p50_us_{label}"), p50);
        rec(format!("qos/quiet_p99_us_{label}"), p99);
        (p50, p99)
    };

    println!("| state | p50 | p99 | noisy sheds |");
    println!("|-------|-----|-----|-------------|");
    let (p50_idle, p99_idle) = measure("unloaded");
    println!("| unloaded | {p50_idle:.1} | {p99_idle:.1} | 0 |");

    // The noisy tenant: one holder pins a row lock, then several raw
    // connections loop begin → update-the-locked-row → abort. The
    // updates block server-side until their deadline, so they occupy
    // the noisy tenant's inflight budget the whole time; the per-tenant
    // cap pins that occupation at 2 slots and sheds the rest with
    // cheap, immediate refusals (a shed reply triggers a short backoff,
    // the same behavior the real `HipacClient` has on `Overloaded`).
    let noisy_holder = HipacClient::connect_with(
        server.local_addr().to_string(),
        ClientConfig {
            client_id: 0xA01E,
            ..ClientConfig::default()
        },
    )
    .map_err(|e| HipacError::Io(e.to_string()))?;
    let t = noisy_holder.begin().unwrap();
    noisy_holder
        .create_class(t, "nlock", None, vec![AttrDef::new("n", ValueType::Int)])
        .unwrap();
    let oid = noisy_holder.insert(t, "nlock", vec![Value::from(1)]).unwrap();
    noisy_holder.commit(t).unwrap();
    let hold_txn = noisy_holder.begin().unwrap();
    noisy_holder
        .update(hold_txn, oid, vec![("n".into(), Value::from(2))])
        .unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let addr = server.local_addr();
    let mut flood = Vec::new();
    for _ in 0..6 {
        let stop = Arc::clone(&stop);
        flood.push(std::thread::spawn(move || {
            let meta = RequestMeta {
                client_id: 0xA01E,
                seq: 0,
                deadline_ms: 0,
            };
            let blocked_meta = RequestMeta {
                deadline_ms: 400,
                ..meta
            };
            while !stop.load(Ordering::Relaxed) {
                let Ok(mut s) = TcpStream::connect(addr) else {
                    continue;
                };
                let mut id = 1u64;
                let roundtrip = |s: &mut TcpStream, id: u64, meta, command| -> Option<Reply> {
                    let frame = Frame::Request { id, meta, command };
                    s.write_all(&frame.encode()).ok()?;
                    loop {
                        match Frame::read_from(s) {
                            Ok(Some(Frame::Response { id: rid, reply })) if rid == id => {
                                return Some(reply)
                            }
                            Ok(Some(_)) => continue,
                            _ => return None,
                        }
                    }
                };
                'conn: while !stop.load(Ordering::Relaxed) {
                    let Some(reply) = roundtrip(&mut s, id, meta, Command::Begin) else {
                        break 'conn;
                    };
                    id += 1;
                    let Reply::Txn(t) = reply else {
                        // Shed at tenant admission: back off and retry.
                        std::thread::sleep(std::time::Duration::from_millis(5));
                        continue;
                    };
                    let upd = Command::Update {
                        txn: t,
                        oid,
                        assignments: vec![("n".into(), Value::from(3))],
                    };
                    if roundtrip(&mut s, id, blocked_meta, upd).is_none() {
                        break 'conn;
                    }
                    id += 1;
                    if roundtrip(&mut s, id, meta, Command::Abort { txn: t }).is_none() {
                        break 'conn;
                    }
                    id += 1;
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    let (p50_load, p99_load) = measure("contended");
    stop.store(true, Ordering::Relaxed);
    for th in flood {
        th.join().unwrap();
    }
    noisy_holder.abort(hold_txn).unwrap();
    let sheds = server.tenant_shed_requests();
    rec("qos/noisy_sheds", sheds as f64);
    let ratio = if p99_idle > 0.0 { p99_load / p99_idle } else { 0.0 };
    rec("qos/quiet_p99_ratio", ratio);
    println!("| contended | {p50_load:.1} | {p99_load:.1} | {sheds} |");
    println!();
    println!(
        "_quiet-tenant p99 under flood = {ratio:.2}x unloaded; the noisy \
         tenant absorbed {sheds} per-tenant shed decisions_"
    );
    println!();
    Ok(())
}
