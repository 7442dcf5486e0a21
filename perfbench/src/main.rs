//! End-to-end benchmark of the FedForecaster reproduction: Algorithm 1
//! train → seal → serve, plus chaotic fleet rounds.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_flat|train_pipeline|serve_zipf|fleet_chaos> \
//!     [--seed 0] [--seconds 10] [--trace 0|1]
//! ```
//!
//! Every run first sets up its inputs from `--seed` (several times, so
//! `setup_s` is a median), measures for `--seconds` with tracing off,
//! checks the program's outputs, and only then prints. With `--trace 1`
//! the run instead splits its time between an untraced and a traced
//! pass and prints the per-layer metrics. The last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the line
//! before it is a report with the host fingerprint and the
//! workload-specific figures. A failed correctness check exits non-zero
//! without printing any number. See `perfbench/README.md`.

mod fleet;
mod metrics;
mod serve;
mod train;

use metrics::{Metrics, Report};
use std::time::Duration;

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// What a workload hands back once its correctness checks passed.
pub struct Outcome {
    /// Operations attempted: trials (train), requests (serve), rounds
    /// (fleet).
    pub attempted: u64,
    /// Of those, operations that failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Workload-specific figures for the report line.
    pub report: Report,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: Duration::from_secs(10),
        trace: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value,
            "--seed" => opts.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                opts.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // One caller thread; the library's data parallelism uses every CPU.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    ff_par::set_global_threads(threads);

    let result = match opts.workload.as_str() {
        "train_flat" => train::run(train::Mode::Flat, &opts),
        "train_pipeline" => train::run(train::Mode::Pipeline, &opts),
        "serve_zipf" => serve::run(&opts),
        "fleet_chaos" => fleet::run(&opts),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: correctness check failed: {e}");
            std::process::exit(1);
        }
    };
    let mut report = metrics::host_fingerprint(threads);
    report.str("workload", &opts.workload);
    report.str("seed", &opts.seed.to_string());
    report.str("trace", if opts.trace { "1" } else { "0" });
    report.extend(outcome.report);
    println!("{}", report.to_json());
    println!(
        "{}",
        outcome
            .metrics
            .result_line(outcome.attempted, outcome.failed, opts.trace)
    );
}
