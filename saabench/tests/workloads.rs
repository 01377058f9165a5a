//! Tiny-size runs of every workload: each must emit every metric
//! `BENCHMARK.json` names and pass its audit.

use saabench::metrics::END_TO_END;
use saabench::{run, Config, Report, Size};
use std::path::PathBuf;

fn tiny(workload: &str) -> Report {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("saabench-{workload}"));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = Config {
        workload: workload.to_owned(),
        seed: 7,
        seconds: 1.0,
        trace: true,
        size: Size::Tiny,
        work_dir: dir.join("work"),
        trace_out: Some(dir.join("trace.jsonl")),
    };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{workload}: {e}"));
    assert!(
        std::fs::metadata(dir.join("trace.jsonl")).is_ok_and(|m| m.len() > 0),
        "{workload}: traced run wrote no spans"
    );
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Metric names listed under `key` in the repository's `BENCHMARK.json`.
fn listed(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text.find(&format!("\"{key}\"")).expect("key present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_owned())
        .collect()
}

fn check(workload: &str, report: &Report) {
    assert!(report.attempted > 0, "{workload}: no operations");
    assert_eq!(report.failed, 0, "{workload}: failed operations");
    let e2e: Vec<&str> = report.end_to_end.iter().map(|m| m.name.as_str()).collect();
    for name in END_TO_END {
        assert!(e2e.contains(&name), "{workload}: missing end-to-end {name}");
    }
    for name in listed("end_to_end") {
        assert!(
            END_TO_END.contains(&name.as_str()),
            "BENCHMARK.json lists unknown {name}"
        );
    }
    let layer: Vec<&str> = report.per_layer.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        layer,
        listed("per_layer"),
        "{workload}: per-layer metrics differ from BENCHMARK.json"
    );
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        assert!(
            m.value.is_finite() && m.value >= 0.0,
            "{workload}: {} = {}",
            m.name,
            m.value
        );
    }
    let positive = |name: &str| {
        let m = report
            .end_to_end
            .iter()
            .find(|m| m.name == name)
            .expect("metric");
        assert!(m.value > 0.0, "{workload}: {name} is zero");
    };
    END_TO_END.iter().for_each(|n| positive(n));
}

#[test]
fn rule_wall_tiny() {
    let r = tiny("rule_wall");
    check("rule_wall", &r);
    r.audit.clone().unwrap();
}

#[test]
fn trade_mix_tiny() {
    let r = tiny("trade_mix");
    check("trade_mix", &r);
    r.audit.clone().unwrap();
}

#[test]
fn replica_follow_tiny() {
    let r = tiny("replica_follow");
    check("replica_follow", &r);
    r.audit.clone().unwrap();
}

/// Fails whenever a defect of the client shows: two separate firings
/// can write their push frames out of sequence order, and `HipacClient`
/// acks a frame whose sequence is below the highest it has handled as a
/// redelivery without running the handler, so that push is lost. See
/// `README.md`.
#[test]
fn saa_feed_tiny() {
    let r = tiny("saa_feed");
    check("saa_feed", &r);
    r.audit.clone().unwrap();
}
