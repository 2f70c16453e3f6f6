//! The repository benchmark. One process drives one seeded workload
//! through the public APIs of `uindex`, `btree`, `pagestore`, `objstore`,
//! `serve` and `telemetry`, checks every answer, and prints one JSON report
//! as its last line (`run.py` selects the gated metrics from it).
//!
//! ```text
//! perfbench --workload <scan_warm|scan_cold|serve_mixed|ingest_mixed>
//!           --seed <n> --seconds <s> --trace <0|1> --out <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` records spans around every call into a layer and reports
//! the per-layer metrics. See `README.md` for the workloads and metrics.

mod common;
mod ingest;
mod scan;
mod serving;

use std::path::PathBuf;

use common::{json_str, metrics_json, Args, Report};

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--out" => out = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let r: Report = match args.workload.as_str() {
        "scan_warm" => scan::run(&args, false),
        "scan_cold" => scan::run(&args, true),
        "serve_mixed" => serving::run(&args),
        "ingest_mixed" => ingest::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    for e in &r.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let info: Vec<String> = r
        .info
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let det: Vec<String> = r
        .det
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let errors: Vec<String> = r.errors.iter().map(|e| json_str(e)).collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"cpus\": {cpus}, \"profile\": \"{}\"}}, \
         \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"errors\": [{}], \
         \"e2e\": {{{}}}, \"layer\": {{{}}}, \"info\": {{{}}}, \"det\": {{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        r.failed == 0 && r.attempted > 0,
        r.attempted,
        r.failed,
        errors.join(", "),
        metrics_json(&r.e2e),
        metrics_json(&r.layer),
        info.join(", "),
        det.join(", "),
    );
}
