//! Metric tables, sample statistics, the host fingerprint, and the two
//! output lines.

use ff_trace::{push_json_f64, push_json_str};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// End-to-end metrics, `(name, unit)`, printed by every untraced run
/// (`--trace 0`). They must match `BENCHMARK.json`'s `end_to_end`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, `(name, unit)`, printed by every traced run
/// (`--trace 1`). A layer the workload bypasses reads 0. They must match
/// `BENCHMARK.json`'s `per_layer`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.meta_features.calls", "count"),
    ("client.meta_features.ms", "ms"),
    ("client.spectrum.calls", "count"),
    ("client.spectrum.ms", "ms"),
    ("client.feature_engineering.calls", "count"),
    ("client.feature_engineering.ms", "ms"),
    ("client.apply_selection.calls", "count"),
    ("client.apply_selection.ms", "ms"),
    ("client.fit_eval.calls", "count"),
    ("client.fit_eval.ms", "ms"),
    ("client.final_fit.calls", "count"),
    ("client.final_fit.ms", "ms"),
    ("client.test_global_linear.calls", "count"),
    ("client.test_global_linear.ms", "ms"),
    ("client.test_global_ensemble.calls", "count"),
    ("client.test_global_ensemble.ms", "ms"),
    ("client.test_local.calls", "count"),
    ("client.test_local.ms", "ms"),
    ("client.busy_share", "ratio"),
    ("engine.meta_features_ms", "ms"),
    ("engine.feature_engineering_ms", "ms"),
    ("engine.optimization_ms", "ms"),
    ("engine.finalization_ms", "ms"),
    ("engine.trials", "count"),
    ("engine.trial_p50_ms", "ms"),
    ("engine.fl_round_self_ms", "ms"),
    ("bo.gp_fit_ms", "ms"),
    ("bo.gp_fit_calls", "count"),
    ("bo.acquire_ms", "ms"),
    ("bo.acquire_calls", "count"),
    ("fl.rounds", "count"),
    ("fl.bytes_to_clients", "bytes"),
    ("fl.bytes_to_server", "bytes"),
    ("par.tasks", "count"),
    ("par.steal_idle_ms", "ms"),
    ("par.queue_peak", "count"),
    ("par.worker_imbalance", "ratio"),
    ("fleet.round_p50_ms", "ms"),
    ("fleet.agg_peak_bytes", "bytes"),
    ("fleet.dropouts", "count"),
    ("fleet.retries", "count"),
    ("fleet.updates_rejected", "count"),
    ("fleet.quarantined", "count"),
    ("serve.resolve_us_p50", "us"),
    ("serve.resolve_calls", "count"),
    ("serve.revive_hit_ratio", "ratio"),
    ("serve.decode_us_per_member", "us"),
    ("serve.open_us", "us"),
    ("serve.predict_us_p50", "us"),
    ("serve.predict_points", "count"),
    ("serve.publish_us", "us"),
    ("setup.kb_build_s", "s"),
    ("setup.metamodel_train_s", "s"),
    ("setup.datagen_ms", "ms"),
    ("setup.artifact_train_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Sets a metric; the name must be in one of the two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name} is in neither table"
        );
        self.values.insert(name, value);
    }

    /// Adds to a metric (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let v = self.values.get(name).copied().unwrap_or(0.0);
        self.set(name, v + value);
    }

    /// The contract's last stdout line: end-to-end metrics for an
    /// untraced run, per-layer metrics (0 where the workload bypasses
    /// the layer) for a traced one.
    pub fn result_line(&self, attempted: u64, failed: u64, trace: bool) -> String {
        let table = if trace { PER_LAYER } else { END_TO_END };
        let mut out = String::from("{\"correct\": true, ");
        out.push_str(&format!(
            "\"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        ));
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, name);
            out.push_str(": {\"value\": ");
            push_json_f64(&mut out, value);
            out.push_str(", \"unit\": ");
            push_json_str(&mut out, unit);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

/// The report line: an ordered JSON object of workload-specific figures.
#[derive(Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    /// A number with its unit, in the result line's `{value, unit}` form.
    pub fn num(&mut self, key: &str, value: f64, unit: &str) {
        let mut v = String::from("{\"value\": ");
        push_json_f64(&mut v, value);
        v.push_str(", \"unit\": ");
        push_json_str(&mut v, unit);
        v.push('}');
        self.fields.push((key.to_string(), v));
    }

    pub fn str(&mut self, key: &str, value: &str) {
        let mut v = String::new();
        push_json_str(&mut v, value);
        self.fields.push((key.to_string(), v));
    }

    /// A list of strings.
    pub fn strs(&mut self, key: &str, values: &[String]) {
        let mut v = String::from("[");
        for (i, s) in values.iter().enumerate() {
            if i > 0 {
                v.push_str(", ");
            }
            push_json_str(&mut v, s);
        }
        v.push(']');
        self.fields.push((key.to_string(), v));
    }

    pub fn extend(&mut self, other: Report) {
        self.fields.extend(other.fields);
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"report\": {");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, k);
            out.push_str(": ");
            out.push_str(v);
        }
        out.push_str("}}");
        out
    }
}

/// Median of `samples` (mean of the middle two for an even count);
/// NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of `samples`; NaN when empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The highest of p99, p98, p95, p90 and p75 that has at least ten
/// samples beyond it, with its value; `None` when even p75 has fewer.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [0.99, 0.98, 0.95, 0.90, 0.75]
        .into_iter()
        .find(|q| n - ((q * n as f64).ceil() as usize).min(n) >= 10)
        .map(|q| (q, percentile(samples, q)))
}

/// Adds a latency summary to the report: sample count, median, and the
/// tail percentile with enough samples beyond it.
pub fn report_latency(report: &mut Report, prefix: &str, samples_ms: &[f64]) {
    report.num(
        &format!("{prefix}_samples"),
        samples_ms.len() as f64,
        "count",
    );
    report.num(&format!("{prefix}_p50_ms"), median(samples_ms), "ms");
    if let Some((q, v)) = tail(samples_ms) {
        report.num(&format!("{prefix}_p{:.0}_ms", q * 100.0), v, "ms");
    }
}

/// Window of the throughput median, in seconds of measured time.
pub const WINDOW_S: f64 = 0.25;

/// Work per second as the median over consecutive windows of at least
/// `window_s` seconds of measured time: `(work, seconds)` per operation.
/// A burst of interference from outside the process moves one window,
/// not the figure.
pub fn windowed_rate(ops: &[(f64, f64)], window_s: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut work, mut secs) = (0.0, 0.0);
    for &(w, s) in ops {
        work += w;
        secs += s;
        if secs >= window_s {
            rates.push(work / secs);
            (work, secs) = (0.0, 0.0);
        }
    }
    if rates.is_empty() && secs > 0.0 {
        rates.push(work / secs);
    }
    median(&rates)
}

/// Process peak resident set (`VmHWM`) in MiB; NaN where unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs `setup` `n` times and returns the last result with every
/// repetition's wall time in seconds.
pub fn repeat_setup<T>(n: usize, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), times)
}

/// `par.*` from two snapshots of the pool counters taken around `units`
/// units of work: tasks and idle time per unit, the lifetime queue peak,
/// and the busiest worker's task count over the mean.
pub fn set_par_metrics(
    m: &mut Metrics,
    before: &ff_par::StatsSnapshot,
    after: &ff_par::StatsSnapshot,
    loads_before: &[u64],
    loads_after: &[u64],
    units: f64,
) {
    m.set("par.tasks", (after.tasks - before.tasks) as f64 / units);
    m.set(
        "par.steal_idle_ms",
        (after.idle_us - before.idle_us) as f64 / 1e3 / units,
    );
    m.set("par.queue_peak", after.queue_peak as f64);
    let loads: Vec<f64> = loads_after
        .iter()
        .enumerate()
        .map(|(i, a)| (a - loads_before.get(i).copied().unwrap_or(0)) as f64)
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    if mean > 0.0 {
        let max = loads.iter().copied().fold(0.0, f64::max);
        m.set("par.worker_imbalance", max / mean);
    }
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Host fingerprint: results from different fingerprints are never
/// compared.
pub fn host_fingerprint(threads: usize) -> Report {
    let mut r = Report::default();
    r.str("nproc", &threads.to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    r.str("cpu_model", &cpu);
    r.str(
        "rustc",
        &command_line("rustc", &["-V"], None).unwrap_or_default(),
    );
    r.str("ff_threads", &ff_par::effective_threads().to_string());
    let root = repo_root();
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"], Some(&root)))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    r.str("git_commit", &commit);
    r.str("source_fnv64", &format!("{:016x}", source_hash(&root)));
    r
}

/// First line of a command's stdout; the child is waited for.
fn command_line(program: &str, args: &[&str], dir: Option<&Path>) -> Option<String> {
    let mut cmd = std::process::Command::new(program);
    cmd.args(args).stdin(std::process::Stdio::null());
    if let Some(d) = dir {
        cmd.current_dir(d);
    }
    let out = cmd.output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .unwrap_or_default()
            .to_string()
    })
}

/// FNV-1a over the path and bytes of every source file the benchmark
/// builds from (the library crates, the vendored stand-ins, and this
/// package) — a commit identity that also works outside a git checkout.
fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for dir in ["crates", "vendor", "perfbench"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for f in files {
        if let (Ok(rel), Ok(bytes)) = (f.strip_prefix(root), std::fs::read(&f)) {
            eat(rel.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        match e.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
