//! `fleet_chaos`: rounds of a 10k-client chaotic fleet under
//! coordinate-median aggregation, with trivial client work, so the
//! round's own machinery (cohort sampling, codec, streaming fold, health
//! bookkeeping, sharded dispatch) carries the time.

use crate::metrics::{
    self, median, repeat_setup, report_latency, windowed_rate, Metrics, Report, WINDOW_S,
};
use crate::{Opts, Outcome};
use ff_fl::chaos::{AdversarialMode, ChaosClient, ChaosConfig};
use ff_fl::client::{EvalOutput, FitOutput, FlClient};
use ff_fl::config::ConfigMap;
use ff_fl::fleet::{FleetConfig, FleetRuntime};
use ff_fl::health::ClientState;
use ff_fl::robust::AggregationStrategy;
use ff_fl::runtime::RoundPolicy;
use ff_fl::FlError;
use ff_trace::Tracer;
use std::time::{Duration, Instant};

const CLIENTS: usize = 10_000;
const PARTICIPATION: f64 = 0.10;
const DIM: usize = 64;
const BYZANTINE: f64 = 0.01;
const FLAKY: f64 = 0.02;
/// Every honest client reports this value in every coordinate.
const HONEST: f64 = 1.0;
/// Enough rounds for the sampler to cover the fleet several times
/// (every client is sampled within 2·⌈n/k⌉ = 20 rounds), so every
/// Byzantine client has been caught before the quarantine check.
const MIN_ROUNDS: usize = 100;
/// Set-up takes milliseconds, so its median gets more repetitions than
/// the other workloads' set-ups.
const SETUP_REPS: usize = 20;

/// Honest client: constant parameters, loss = distance to the broadcast.
struct Honest;

impl FlClient for Honest {
    fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
        ConfigMap::new()
    }
    fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
        FitOutput {
            params: vec![HONEST; DIM],
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
    fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
        EvalOutput {
            loss: (HONEST - params.first().copied().unwrap_or(0.0)).abs(),
            num_examples: 1,
            metrics: ConfigMap::new(),
        }
    }
}

fn profile(seed: u64, id: usize) -> ChaosConfig {
    ChaosConfig::fleet_profile(seed, id, BYZANTINE, FLAKY)
}

fn build_fleet(seed: u64) -> FleetRuntime {
    let clients: Vec<Box<dyn FlClient>> = (0..CLIENTS)
        .map(|id| {
            Box::new(ChaosClient::new(Box::new(Honest), profile(seed, id))) as Box<dyn FlClient>
        })
        .collect();
    FleetRuntime::new(
        clients,
        FleetConfig {
            fraction: PARTICIPATION,
            seed,
            strategy: AggregationStrategy::CoordinateMedian,
            ..FleetConfig::default()
        },
    )
    .expect("fleet construction")
}

/// Runs fit rounds for `budget` (and at least `min_rounds`); returns each
/// round's wall time in ms and the number of quorum-failed rounds.
/// Every completed round's aggregate must stay within 5% of the honest
/// value.
fn timed_rounds(
    fleet: &FleetRuntime,
    budget: Duration,
    min_rounds: usize,
) -> Result<(Vec<f64>, u64), String> {
    let policy = RoundPolicy {
        deadline: None,
        min_responses: 1,
        retries: 1,
        backoff: Duration::ZERO,
    };
    let mut round_ms = Vec::new();
    let mut quorum_failed = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < budget || round_ms.len() < min_rounds {
        let t = Instant::now();
        let result = fleet.run_fit_round(vec![0.0; DIM], ConfigMap::new(), &policy);
        round_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match result {
            Ok(out) => {
                if out.global.len() != DIM {
                    return Err(format!(
                        "round {}: aggregate has {} coordinates",
                        out.round,
                        out.global.len()
                    ));
                }
                if let Some(g) = out
                    .global
                    .iter()
                    .find(|g| !g.is_finite() || (*g - HONEST).abs() > 0.05 * HONEST)
                {
                    return Err(format!(
                        "round {}: coordinate median {g} is not within 5% of the honest {HONEST}",
                        out.round
                    ));
                }
            }
            Err(FlError::Quorum { .. }) => quorum_failed += 1,
            Err(e) => return Err(format!("fleet round failed: {e}")),
        }
    }
    Ok((round_ms, quorum_failed))
}

/// Quarantine check: every Byzantine client whose attack the update
/// guard can see (scaled, NaN, or stuck updates) is quarantined, and no
/// honest, reliable client is. Sign-flippers keep an honest norm and
/// loss, so by design only the coordinate median (checked per round)
/// stops them. Returns (Byzantine, sign-flipping, quarantined) counts.
fn check_quarantine(fleet: &FleetRuntime, seed: u64) -> Result<(usize, usize, usize), String> {
    let (mut byzantine, mut sign_flip, mut quarantined) = (0, 0, 0);
    let mut free = Vec::new();
    for id in 0..CLIENTS {
        let p = profile(seed, id);
        let is_quarantined = fleet.client_state(id) == Some(ClientState::Quarantined);
        quarantined += usize::from(is_quarantined);
        match p.adversary {
            AdversarialMode::None => {
                if is_quarantined && p.drop_prob == 0.0 && p.corrupt_prob == 0.0 {
                    return Err(format!("honest, reliable client {id} was quarantined"));
                }
            }
            AdversarialMode::SignFlip => {
                byzantine += 1;
                sign_flip += 1;
            }
            _ => {
                byzantine += 1;
                if !is_quarantined {
                    free.push(id);
                }
            }
        }
    }
    if !free.is_empty() {
        return Err(format!(
            "{} of {} detectable Byzantine clients are not quarantined (first: {:?})",
            free.len(),
            byzantine - sign_flip,
            &free[..free.len().min(5)]
        ));
    }
    Ok((byzantine, sign_flip, quarantined))
}

/// The fleet and its first round. Construction alone takes under a
/// millisecond and swings by half between processes with the allocator's
/// state; the first round also warms the pool and the aggregation state,
/// so the measured rounds start warm.
fn setup(seed: u64) -> Result<FleetRuntime, String> {
    let fleet = build_fleet(seed);
    timed_rounds(&fleet, Duration::ZERO, 1)?;
    Ok(fleet)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (fleet, setup_s) = repeat_setup(SETUP_REPS, || setup(opts.seed));
    let fleet = fleet?;
    let untraced_budget = if opts.trace {
        opts.seconds / 2
    } else {
        opts.seconds
    };
    let (round_ms, quorum_failed) = timed_rounds(&fleet, untraced_budget, MIN_ROUNDS)?;
    let (byzantine, sign_flip, quarantined) = check_quarantine(&fleet, opts.seed)?;

    let rounds = round_ms.len() as u64;
    let per_round: Vec<(f64, f64)> = round_ms.iter().map(|ms| (1.0, ms / 1e3)).collect();
    let rounds_per_s = windowed_rate(&per_round, WINDOW_S);
    let mut report = Report::default();
    report.num("fleet_rounds_per_s", rounds_per_s, "rounds/s");
    report_latency(&mut report, "fleet_round", &round_ms);
    report.num(
        "fleet_fail_frac",
        quorum_failed as f64 / rounds as f64,
        "ratio",
    );
    report.num("byzantine_clients", byzantine as f64, "count");
    report.num("sign_flip_clients", sign_flip as f64, "count");
    report.num("quarantined_clients", quarantined as f64, "count");

    let mut m = Metrics::default();
    if !opts.trace {
        m.set("setup_s", median(&setup_s));
        m.set("latency_ms", median(&round_ms));
        m.set("throughput_per_s", rounds_per_s);
        m.set("peak_rss_mib", metrics::peak_rss_mib());
        return Ok(Outcome {
            attempted: rounds,
            failed: quorum_failed,
            metrics: m,
            report,
        });
    }

    // Traced pass: the same fleet, continuing, with its tracer attached.
    let tracer = Tracer::enabled();
    fleet.set_tracer(tracer.clone());
    let par_before = ff_par::stats();
    let loads_before = ff_par::worker_loads();
    let (traced_ms, _) = timed_rounds(&fleet, opts.seconds / 2, 1)?;
    let par_after = ff_par::stats();
    let loads_after = ff_par::worker_loads();
    check_quarantine(&fleet, opts.seed)?;
    let t = tracer.snapshot();
    let n = traced_ms.len() as f64;
    m.set("fleet.round_p50_ms", median(&traced_ms));
    m.set("fleet.agg_peak_bytes", fleet.peak_agg_bytes() as f64);
    for name in ["fleet.dropouts", "fleet.retries", "fleet.updates_rejected"] {
        m.set(name, t.counter(name) as f64 / n);
    }
    m.set(
        "fleet.quarantined",
        fleet.health_report().count(ClientState::Quarantined) as f64,
    );
    metrics::set_par_metrics(
        &mut m,
        &par_before,
        &par_after,
        &loads_before,
        &loads_after,
        n,
    );
    m.set("setup.datagen_ms", median(&setup_s) * 1e3);
    m.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_ms) / median(&round_ms) - 1.0),
    );
    report.num("traced_rounds", n, "count");
    Ok(Outcome {
        attempted: rounds,
        failed: quorum_failed,
        metrics: m,
        report,
    })
}
