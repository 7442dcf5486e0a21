//! `train_flat` and `train_pipeline`: Algorithm 1 over the four-dataset
//! suite, timed per pass, with a servability probe of every run.

use crate::metrics::{self, median, repeat_setup, Metrics, Report};
use crate::{Opts, Outcome};
use fedforecaster::ckpt::run_fingerprint;
use fedforecaster::client::{FedForecasterClient, OP};
use fedforecaster::prelude::*;
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::log::Retention;
use ff_fl::runtime::FederatedRuntime;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_models::pipeline::PipelineId;
use ff_serve::{Artifact, Ensemble};
use ff_timeseries::TimeSeries;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The suite: four Table 3 datasets of different shape (20, 5, 15 and
/// 10 clients; solar cycle, weekly births, a policy rate, an ETF basket).
const SUITE: [&str; 4] = [
    "SunSpotDaily",
    "USBirthsDaily",
    "nasdaq_Brazil_Pr_Base_Financial_Rate",
    "Utilities Select Sector ETF",
];
/// Dataset length scale of the suite.
const SCALE: f64 = 0.15;
/// Entries of the synthetic knowledge base the meta-model learns from.
const KB_ENTRIES: usize = 24;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest suite seeds a paper-mode run measures. A pass costs about twice
/// as much when the search settles on ElasticNetCV for SunSpotDaily as
/// when it does not, and which happens depends on the seed, so a run
/// averages passes over many seeds derived from `--seed`.
const MIN_SEEDS_FLAT: usize = 24;
/// Fewest suite seeds a pipeline-mode run measures; its cost varies less
/// between seeds.
const MIN_SEEDS_PIPELINE: usize = 12;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Paper mode: flat algorithm portfolio over engineered features.
    Flat,
    /// Composed pipelines (`PipelineId::builtin()`), finalized by
    /// ensemble union.
    Pipeline,
}

/// The engine configuration of one suite run.
pub fn engine_config(mode: Mode, seed: u64) -> EngineConfig {
    match mode {
        Mode::Flat => EngineConfig {
            budget: Budget::Iterations(12),
            seed,
            ..Default::default()
        },
        Mode::Pipeline => EngineConfig {
            budget: Budget::Iterations(16),
            seed,
            pipelines: Some(PipelineId::builtin().to_vec()),
            ..Default::default()
        },
    }
}

/// One suite's federations, generated from one seed.
pub struct Suite {
    pub seed: u64,
    pub feds: Vec<(&'static str, Vec<TimeSeries>)>,
}

/// The `j`-th suite seed of a run, `1000·seed + j`: runs with distinct
/// `--seed` values never share inputs.
pub fn suite_seed(run_seed: u64, j: u64) -> u64 {
    assert!(j < 1000, "a run uses fewer than 1000 suite seeds");
    run_seed.wrapping_mul(1000).wrapping_add(j)
}

fn generate_suite(seed: u64) -> Suite {
    let all = ff_datasets::benchmark_datasets();
    let feds = SUITE
        .iter()
        .map(|&name| {
            let ds = all
                .iter()
                .find(|d| d.name == name)
                .expect("suite dataset is registered");
            (name, ds.generate_federation(seed, SCALE))
        })
        .collect();
    Suite { seed, feds }
}

/// Set-up timings of one repetition.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub kb_build_s: f64,
    pub metamodel_train_s: f64,
    pub datagen_ms: f64,
}

/// Knowledge base, meta-model, and one suite per seed.
pub fn setup(seeds: &[u64]) -> (MetaModel, Vec<Suite>, SetupTimes) {
    let t = Instant::now();
    let kb = KnowledgeBase::build(&synthetic_kb(KB_ENTRIES), &[5, 10, 15, 20], 60);
    let kb_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let meta =
        MetaModel::train(&kb, MetaClassifierKind::RandomForest, 7).expect("meta-model training");
    let metamodel_train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let suites = seeds.iter().copied().map(generate_suite).collect();
    let datagen_ms = t.elapsed().as_secs_f64() * 1e3;
    (
        meta,
        suites,
        SetupTimes {
            kb_build_s,
            metamodel_train_s,
            datagen_ms,
        },
    )
}

/// Per-op call counts and in-op wall time, shared by every client of a
/// traced pass.
#[derive(Default)]
struct OpStats {
    calls: [AtomicU64; OPS.len()],
    ns: [AtomicU64; OPS.len()],
}

/// Every client op in protocol order, with its two per-layer metrics.
const OPS: [(&str, &str, &str); 9] = [
    (
        "meta_features",
        "client.meta_features.calls",
        "client.meta_features.ms",
    ),
    ("spectrum", "client.spectrum.calls", "client.spectrum.ms"),
    (
        "feature_engineering",
        "client.feature_engineering.calls",
        "client.feature_engineering.ms",
    ),
    (
        "apply_selection",
        "client.apply_selection.calls",
        "client.apply_selection.ms",
    ),
    ("fit_eval", "client.fit_eval.calls", "client.fit_eval.ms"),
    ("final_fit", "client.final_fit.calls", "client.final_fit.ms"),
    (
        "test_global_linear",
        "client.test_global_linear.calls",
        "client.test_global_linear.ms",
    ),
    (
        "test_global_ensemble",
        "client.test_global_ensemble.calls",
        "client.test_global_ensemble.ms",
    ),
    (
        "test_local",
        "client.test_local.calls",
        "client.test_local.ms",
    ),
];

/// Pass-through client that times each op from outside the client.
struct TimedClient {
    inner: FedForecasterClient,
    stats: Arc<OpStats>,
}

impl TimedClient {
    fn timed<R>(&mut self, config: &ConfigMap, f: impl FnOnce(&mut FedForecasterClient) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(i) = OPS.iter().position(|(op, ..)| *op == config.str_or(OP, "")) {
            self.stats.calls[i].fetch_add(1, Ordering::Relaxed);
            self.stats.ns[i].fetch_add(ns, Ordering::Relaxed);
        }
        out
    }
}

impl FlClient for TimedClient {
    fn get_properties(&mut self, config: &ConfigMap) -> ConfigMap {
        self.timed(config, |c| c.get_properties(config))
    }
    fn fit(&mut self, params: &[f64], config: &ConfigMap) -> FitOutput {
        self.timed(config, |c| c.fit(params, config))
    }
    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput {
        self.timed(config, |c| c.evaluate(params, config))
    }
    fn wire_transform(&mut self, encoded_reply: Vec<u8>) -> Option<Vec<u8>> {
        self.inner.wire_transform(encoded_reply)
    }
}

/// One Algorithm-1 run of one dataset.
struct DatasetRun {
    fingerprint: u64,
    result: RunResult,
}

/// One timed pass over the suite.
struct Pass {
    wall_s: f64,
    runs: Vec<DatasetRun>,
}

/// Runs Algorithm 1 on every suite dataset. With `stats`, each run uses
/// tracing, the profiler, and timed clients.
fn run_pass(mode: Mode, meta: &MetaModel, suite: &Suite, stats: Option<&Arc<OpStats>>) -> Pass {
    let t = Instant::now();
    let runs = suite
        .feds
        .iter()
        .map(|(name, clients)| {
            let mut cfg = engine_config(mode, suite.seed);
            let result = match stats {
                None => FedForecaster::new(cfg, meta).run(clients),
                Some(stats) => {
                    cfg.trace = TraceConfig::enabled().with_profile();
                    let boxed: Vec<Box<dyn FlClient>> = clients
                        .iter()
                        .map(|s| {
                            Box::new(TimedClient {
                                inner: FedForecasterClient::new(
                                    s,
                                    cfg.valid_fraction,
                                    cfg.test_fraction,
                                ),
                                stats: Arc::clone(stats),
                            }) as Box<dyn FlClient>
                        })
                        .collect();
                    let rt = FederatedRuntime::new(boxed);
                    rt.log().set_retention(Retention::counting_default());
                    FedForecaster::new(cfg, meta).run_on(&rt)
                }
            };
            let result = result.unwrap_or_else(|e| panic!("engine run on {name}: {e}"));
            DatasetRun {
                fingerprint: run_fingerprint(&result),
                result,
            }
        })
        .collect();
    Pass {
        wall_s: t.elapsed().as_secs_f64(),
        runs,
    }
}

/// Why a run can or cannot be served: `ok`, `no_members`, or the typed
/// error of the first failing step (open, decode, forecast).
fn servability(result: &RunResult, clients: &[TimeSeries], test_fraction: f64) -> String {
    let Some(artifact) = result.export_artifact() else {
        return "no_members".into();
    };
    let artifact = match Artifact::open(&artifact.seal()) {
        Ok(a) => a,
        Err(e) => return format!("ArtifactError::{e:?}"),
    };
    let ensemble = match Ensemble::decode(&artifact) {
        Ok(e) => e,
        Err(e) => return format!("ServeError::{e:?}"),
    };
    for series in clients {
        let values = ff_timeseries::interpolate::interpolated(series)
            .values()
            .to_vec();
        let n = values.len();
        let start = test_start(n, test_fraction);
        if let Err(e) = ensemble.forecast(&values, start, n) {
            return format!("ServeError::{e:?}");
        }
    }
    "ok".into()
}

/// First index of a client's private test window, as the engine's client
/// splits its series.
pub fn test_start(n: usize, test_fraction: f64) -> usize {
    let start = ((n as f64) * (1.0 - test_fraction)).round() as usize;
    start.clamp(2, n.saturating_sub(1).max(2))
}

/// Runs one pass per suite seed — the set-up suites first, then fresh
/// seeds generated outside the timed pass — until `budget` has elapsed and
/// at least `min_seeds` seeds ran.
fn timed_seeds(
    mode: Mode,
    meta: &MetaModel,
    suites: &mut Vec<Suite>,
    run_seed: u64,
    budget: Duration,
    min_seeds: usize,
) -> Vec<Pass> {
    let mut passes = Vec::new();
    let t0 = Instant::now();
    while t0.elapsed() < budget || passes.len() < min_seeds {
        let j = passes.len();
        if j == suites.len() {
            suites.push(generate_suite(suite_seed(run_seed, j as u64)));
        }
        passes.push(run_pass(mode, meta, &suites[j], None));
    }
    passes
}

/// Fails unless `again` reproduces `first` fingerprint for fingerprint.
fn same_fingerprints(suite: &Suite, first: &Pass, again: &Pass, what: &str) -> Result<(), String> {
    let a: Vec<u64> = first.runs.iter().map(|r| r.fingerprint).collect();
    let b: Vec<u64> = again.runs.iter().map(|r| r.fingerprint).collect();
    if a == b {
        Ok(())
    } else {
        Err(format!(
            "run_fingerprint of suite seed {} differs {what} ({a:016x?} then {b:016x?})",
            suite.seed
        ))
    }
}

pub fn run(mode: Mode, opts: &Opts) -> Result<Outcome, String> {
    let min_seeds = match mode {
        Mode::Flat => MIN_SEEDS_FLAT,
        Mode::Pipeline => MIN_SEEDS_PIPELINE,
    };
    let seeds_at_setup: Vec<u64> = (0..min_seeds as u64)
        .map(|j| suite_seed(opts.seed, j))
        .collect();
    let ((meta, mut suites, setup_times), setup_s) =
        repeat_setup(SETUP_REPS, || setup(&seeds_at_setup));
    // A traced run splits its time between an untraced and a traced
    // pass over the same seeds.
    let (budget, min_seeds) = if opts.trace {
        (opts.seconds / 2, min_seeds / 2)
    } else {
        (opts.seconds, min_seeds)
    };
    let passes = timed_seeds(mode, &meta, &mut suites, opts.seed, budget, min_seeds);
    if !opts.trace {
        let again = run_pass(mode, &meta, &suites[0], None);
        same_fingerprints(&suites[0], &passes[0], &again, "between repetitions")?;
    }

    let mut report = Report::default();
    quality_report(mode, &suites, &passes, &mut report);
    let wall_s: f64 = passes.iter().map(|p| p.wall_s).sum();
    let suite_s = wall_s / passes.len() as f64;
    let attempted: u64 = passes
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.result.evaluations as u64)
        .sum();
    let failed: u64 = passes
        .iter()
        .flat_map(|p| &p.runs)
        .map(|r| r.result.failed_trials as u64)
        .sum();
    report.num("suite_s", suite_s, "s");
    report.num("suite_seeds", passes.len() as f64, "count");
    report.num(
        "trial_fail_frac",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
    );

    let mut m = Metrics::default();
    if !opts.trace {
        m.set("setup_s", median(&setup_s));
        m.set("latency_ms", suite_s * 1e3);
        m.set("throughput_per_s", attempted as f64 / wall_s);
        m.set("peak_rss_mib", metrics::peak_rss_mib());
        return Ok(Outcome {
            attempted,
            failed,
            metrics: m,
            report,
        });
    }

    // Traced pass: the same suite seeds through timed clients with the
    // engine's tracer and profiler on; fingerprints must match the
    // untraced passes.
    let stats = Arc::new(OpStats::default());
    let par_before = ff_par::stats();
    let loads_before = ff_par::worker_loads();
    let mut traced = Vec::with_capacity(passes.len());
    for (suite, untraced) in suites.iter().zip(&passes) {
        let pass = run_pass(mode, &meta, suite, Some(&stats));
        same_fingerprints(suite, untraced, &pass, "between untraced and traced passes")?;
        traced.push(pass);
    }
    let par_after = ff_par::stats();
    let loads_after = ff_par::worker_loads();
    let n = traced.len() as f64;
    let per_pass = |v: f64| v / n;

    let mut op_ms_total = 0.0;
    for (i, (_, calls, ms)) in OPS.iter().enumerate() {
        let op_ms = stats.ns[i].load(Ordering::Relaxed) as f64 / 1e6;
        op_ms_total += op_ms;
        m.set(
            calls,
            per_pass(stats.calls[i].load(Ordering::Relaxed) as f64),
        );
        m.set(ms, per_pass(op_ms));
    }
    let mut phase_ms_total = 0.0;
    let mut trial_ms = Vec::new();
    for run in traced.iter().flat_map(|p| &p.runs) {
        let r = &run.result;
        let t = &r.telemetry.as_ref().expect("traced run has telemetry");
        for phase in t.trace.phase_totals() {
            let name = match phase.name {
                "phase.meta_features" => "engine.meta_features_ms",
                "phase.feature_engineering" => "engine.feature_engineering_ms",
                "phase.optimization" => "engine.optimization_ms",
                "phase.finalization" => "engine.finalization_ms",
                _ => continue,
            };
            let ms = phase.total_us as f64 / 1e3;
            phase_ms_total += ms;
            m.add(name, per_pass(ms));
        }
        let trials = t.trace.durations_us("trial");
        m.add("engine.trials", per_pass(trials.len() as f64));
        trial_ms.extend(trials.iter().map(|us| *us as f64 / 1e3));
        let profile = t.profile.as_ref().expect("profiled run");
        let fl_self_us: u64 = profile
            .rows
            .iter()
            .filter(|row| row.name == "fl.round")
            .map(|row| row.self_us)
            .sum();
        m.add("engine.fl_round_self_ms", per_pass(fl_self_us as f64 / 1e3));
        for (span, ms_name, calls_name) in [
            ("gp.fit", "bo.gp_fit_ms", "bo.gp_fit_calls"),
            ("gp.acquire", "bo.acquire_ms", "bo.acquire_calls"),
        ] {
            let d = t.trace.durations_us(span);
            m.add(ms_name, per_pass(d.iter().sum::<u64>() as f64 / 1e3));
            m.add(calls_name, per_pass(d.len() as f64));
        }
        m.add("fl.rounds", per_pass(r.rounds.len() as f64));
        m.add("fl.bytes_to_clients", per_pass(r.bytes_to_clients as f64));
        m.add("fl.bytes_to_server", per_pass(r.bytes_to_server as f64));
    }
    m.set("engine.trial_p50_ms", median(&trial_ms));
    m.set("client.busy_share", op_ms_total / phase_ms_total);
    metrics::set_par_metrics(
        &mut m,
        &par_before,
        &par_after,
        &loads_before,
        &loads_after,
        n,
    );
    set_setup_metrics(&mut m, &setup_times);
    let traced_s: f64 = traced.iter().map(|p| p.wall_s).sum();
    m.set("trace.overhead_pct", 100.0 * (traced_s / wall_s - 1.0));
    report.num("traced_passes", n, "count");
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
        report,
    })
}

/// Quality and servability of every pass: `test_mse_gmean`,
/// `servable_frac` with a reason code per run, and the mean
/// communication volume per pass.
fn quality_report(mode: Mode, suites: &[Suite], passes: &[Pass], report: &mut Report) {
    let test_fraction = engine_config(mode, 0).test_fraction;
    let mut log_mse = Vec::new();
    let mut reasons = Vec::new();
    let mut comm = Vec::new();
    for (suite, pass) in suites.iter().zip(passes) {
        let mut bytes = 0usize;
        for ((name, clients), run) in suite.feds.iter().zip(&pass.runs) {
            let r = &run.result;
            log_mse.push(r.test_mse.ln());
            bytes += r.bytes_to_clients + r.bytes_to_server;
            reasons.push(format!(
                "{}@{}: {}",
                name,
                suite.seed,
                servability(r, clients, test_fraction)
            ));
        }
        comm.push(bytes as f64 / 1024.0);
    }
    let servable = reasons.iter().filter(|r| r.ends_with(": ok")).count();
    report.num(
        "test_mse_gmean",
        (log_mse.iter().sum::<f64>() / log_mse.len() as f64).exp(),
        "mse",
    );
    report.num(
        "servable_frac",
        servable as f64 / reasons.len() as f64,
        "ratio",
    );
    report.strs("servability", &reasons);
    report.num(
        "comm_kib",
        comm.iter().sum::<f64>() / comm.len() as f64,
        "KiB",
    );
}

/// `setup.*` from the last set-up repetition.
pub fn set_setup_metrics(m: &mut Metrics, t: &SetupTimes) {
    m.set("setup.kb_build_s", t.kb_build_s);
    m.set("setup.metamodel_train_s", t.metamodel_train_s);
    m.set("setup.datagen_ms", t.datagen_ms);
}
