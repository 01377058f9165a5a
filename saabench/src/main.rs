//! `saabench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the machine record, every metric that applies (name, value,
//! unit, sample count) and the audit verdict, then one JSON result line:
//! the end-to-end metrics untraced, the per-layer metrics traced. Exits
//! non-zero when the run fails or its audit does.

use saabench::metrics::END_TO_END;
use saabench::stats::{result_line, Metric};
use saabench::{run, Config, Size, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        work_dir: PathBuf::new(),
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => cfg.workload = val.clone(),
            "--seed" => cfg.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    let out = PathBuf::from(".saabench");
    cfg.work_dir = out.join(format!("work-{}", std::process::id()));
    if cfg.trace {
        cfg.trace_out = Some(out.join(format!("trace-{}-seed{}.jsonl", cfg.workload, cfg.seed)));
    }
    Ok(cfg)
}

fn show(m: &Metric) {
    let n = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
    println!("  {:<34} {:>14.3} {}{n}", m.name, m.value, m.unit);
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("saabench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = run(&cfg);
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("saabench: {} failed: {e}", cfg.workload);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        cfg.workload, cfg.seed, cfg.seconds, cfg.trace as u8
    );
    for (k, v) in &report.machine {
        println!("machine {k} = {v}");
    }
    println!("end-to-end (untraced):");
    report.end_to_end.iter().for_each(show);
    if cfg.trace {
        println!("per-layer (traced):");
        report.per_layer.iter().for_each(show);
        if let Some(p) = &cfg.trace_out {
            println!("spans written to {}", p.display());
        }
    }
    match &report.audit {
        Ok(()) => println!("audit: passed"),
        Err(e) => println!("audit: FAILED: {e}"),
    }
    let metrics: Vec<Metric> = if cfg.trace {
        report.per_layer.clone()
    } else {
        report
            .end_to_end
            .iter()
            .filter(|m| END_TO_END.contains(&m.name.as_str()))
            .cloned()
            .collect()
    };
    let correct = report.audit.is_ok();
    println!(
        "{}",
        result_line(correct, report.attempted, report.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
