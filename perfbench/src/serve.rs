//! `serve_zipf`: serving the real ensembles that pipeline-mode
//! Algorithm 1 exports, under Zipf-skewed keys with hot-swaps interleaved.

use crate::metrics::{
    self, median, repeat_setup, report_latency, windowed_rate, Metrics, Report, WINDOW_S,
};
use crate::train::{self, engine_config, set_setup_metrics, Mode, SetupTimes};
use crate::{Opts, Outcome};
use fedforecaster::FedForecaster;
use ff_serve::{
    Artifact, Ensemble, ForecastResult, ModelStore, PredictRequest, ServeConfig, ServeRuntime,
};
use ff_trace::Tracer;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TENANTS: usize = 32;
const SERIES_PER_TENANT: usize = 32;
const KEYS: usize = TENANTS * SERIES_PER_TENANT;
const REVIVE_CAPACITY: usize = 128;
const ZIPF_EXPONENT: f64 = 1.1;
const BATCH: usize = 32;
/// One hot-swap `publish` per this many requests.
const PUBLISH_EVERY: usize = 64;
/// Longest forecast window of a request, in points.
const MAX_HORIZON: usize = 8;
/// Decode/open repetitions per artifact for the per-layer timings.
const CODEC_REPS: usize = 5;
/// Suite seeds whose pipeline-mode runs supply the served artifacts —
/// the same on every run. A request's cost is set mostly by the pipeline
/// the search picked for SunSpotDaily's 20-member ensemble (32–165 µs per
/// request between seeds), so artifacts trained per `--seed` would swamp
/// the serving layers' own cost; `--seed` drives the key permutation,
/// the requests and the hot-swaps.
const ARTIFACT_SEEDS: [u64; 2] = [0, 1];

/// splitmix64: the request stream's generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A published key: its names, and the artifact and client series its
/// requests use.
struct Key {
    tenant: String,
    series: String,
    artifact: usize,
    client: usize,
}

/// A sealed artifact with the client series of the federation it was
/// trained on (interpolated, as the engine's clients hold them).
struct Trained {
    sealed: Vec<u8>,
    series: Vec<Vec<f64>>,
}

/// Everything a serve run needs, built from the seed.
struct Fixture {
    store: Arc<ModelStore>,
    /// The same publishes as `store`, resolved only by the replay, so the
    /// check never touches the measured store's cache.
    mirror: ModelStore,
    artifacts: Vec<Trained>,
    keys: Vec<Key>,
    /// Zipf rank → key index, a seeded permutation.
    by_rank: Vec<usize>,
    /// Cumulative Zipf weights over ranks, normalized to 1.
    cdf: Vec<f64>,
    test_fraction: f64,
}

/// Trains the suite in pipeline mode at `ARTIFACT_SEEDS`, seals each
/// run's artifact, and publishes the key space permuted by `seed`.
fn setup(seed: u64) -> Result<(Fixture, SetupTimes, f64), String> {
    let (meta, suites, times) = train::setup(&ARTIFACT_SEEDS);
    let t = Instant::now();
    let mut artifacts = Vec::new();
    for suite in &suites {
        let cfg = engine_config(Mode::Pipeline, suite.seed);
        for (name, clients) in &suite.feds {
            let r = FedForecaster::new(cfg.clone(), &meta)
                .run(clients)
                .map_err(|e| format!("training {name}: {e}"))?;
            let artifact = r
                .export_artifact()
                .ok_or_else(|| format!("pipeline run on {name} exported no artifact"))?;
            artifacts.push(Trained {
                sealed: artifact.seal(),
                series: clients
                    .iter()
                    .map(|s| {
                        ff_timeseries::interpolate::interpolated(s)
                            .values()
                            .to_vec()
                    })
                    .collect(),
            });
        }
    }
    let artifact_train_s = t.elapsed().as_secs_f64();

    // Zipf weight of each rank; the seed permutes which key holds a rank.
    let weights: Vec<f64> = (1..=KEYS)
        .map(|r| (r as f64).powf(-ZIPF_EXPONENT))
        .collect();
    let mut rng = Rng(seed ^ 0x5EED_5EED);
    let mut by_rank: Vec<usize> = (0..KEYS).collect();
    for i in (1..KEYS).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    // Ranks go, heaviest first, to the artifact with the least traffic so
    // far, so every artifact carries a similar share and the hot set
    // mixes every dataset's ensemble.
    let mut load = vec![0.0_f64; artifacts.len()];
    let mut keys_of = vec![0usize; artifacts.len()];
    let mut keys: Vec<Option<Key>> = (0..KEYS).map(|_| None).collect();
    for (rank, &k) in by_rank.iter().enumerate() {
        let artifact = (0..artifacts.len())
            .min_by(|&a, &b| load[a].total_cmp(&load[b]))
            .expect("at least one artifact");
        load[artifact] += weights[rank];
        keys[k] = Some(Key {
            tenant: format!("tenant-{}", k / SERIES_PER_TENANT),
            series: format!("series-{}", k % SERIES_PER_TENANT),
            artifact,
            client: keys_of[artifact] % artifacts[artifact].series.len(),
        });
        keys_of[artifact] += 1;
    }
    let keys: Vec<Key> = keys
        .into_iter()
        .map(|k| k.expect("every key ranked"))
        .collect();
    let store = Arc::new(ModelStore::with_revive_capacity(REVIVE_CAPACITY));
    let mirror = ModelStore::with_revive_capacity(REVIVE_CAPACITY);
    for key in &keys {
        let sealed = &artifacts[key.artifact].sealed;
        store.publish(&key.tenant, &key.series, open(sealed)?);
        mirror.publish(&key.tenant, &key.series, open(sealed)?);
    }
    let total: f64 = weights.iter().sum();
    let cdf: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    Ok((
        Fixture {
            store,
            mirror,
            artifacts,
            keys,
            by_rank,
            cdf,
            test_fraction: engine_config(Mode::Pipeline, seed).test_fraction,
        },
        times,
        artifact_train_s,
    ))
}

fn open(sealed: &[u8]) -> Result<Artifact, String> {
    Artifact::open(sealed).map_err(|e| format!("sealed artifact does not reopen: {e}"))
}

/// One request as sent: its key and window.
#[derive(Clone, Copy)]
struct Spec {
    key: usize,
    start: usize,
    end: usize,
}

impl Fixture {
    fn next_spec(&self, rng: &mut Rng) -> Spec {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|c| *c < u).min(KEYS - 1);
        let key = self.by_rank[rank];
        let values = self.values(key);
        let n = values.len();
        let first = train::test_start(n, self.test_fraction);
        let horizon = 1 + rng.below(MAX_HORIZON);
        let start = first + rng.below(n - first - horizon + 1);
        Spec {
            key,
            start,
            end: start + horizon,
        }
    }

    fn values(&self, key: usize) -> &[f64] {
        let k = &self.keys[key];
        &self.artifacts[k.artifact].series[k.client]
    }

    fn request(&self, s: Spec) -> PredictRequest {
        let k = &self.keys[s.key];
        PredictRequest {
            tenant: k.tenant.clone(),
            series: k.series.clone(),
            values: self.values(s.key)[..s.end].to_vec(),
            start: s.start,
            end: s.end,
        }
    }
}

/// What a serve loop observed.
#[derive(Default)]
struct Served {
    batch_ms: Vec<f64>,
    /// `(forecast points, seconds)` per batch.
    batch_points: Vec<(f64, f64)>,
    publish_us: Vec<f64>,
    requests: u64,
    points: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    /// Per-request replay times (µs) of `resolve` and `forecast`, kept
    /// only on the traced pass.
    resolve_us: Vec<f64>,
    predict_us: Vec<f64>,
}

/// A closed loop from one caller: build a batch, serve it, record; replay
/// the batch against the mirror store (untimed); every `PUBLISH_EVERY`
/// requests, hot-swap one uniformly drawn key in both stores.
fn serve_loop(
    fx: &Fixture,
    rt: &ServeRuntime,
    rng: &mut Rng,
    budget: Duration,
    keep_call_times: bool,
) -> Result<Served, String> {
    let (h0, m0) = fx.store.cache_stats();
    let mut s = Served::default();
    let mut since_publish = 0;
    let t0 = Instant::now();
    while t0.elapsed() < budget || s.batch_ms.len() < 20 {
        let specs: Vec<Spec> = (0..BATCH).map(|_| fx.next_spec(rng)).collect();
        let requests: Vec<PredictRequest> = specs.iter().map(|&sp| fx.request(sp)).collect();
        let t = Instant::now();
        let results = rt.serve(&requests);
        let secs = t.elapsed().as_secs_f64();
        s.batch_ms.push(secs * 1e3);
        let points: usize = results.iter().flatten().map(Vec::len).sum();
        s.batch_points.push((points as f64, secs));
        s.requests += specs.len() as u64;
        s.points += points as u64;
        s.failed += results.iter().filter(|r| r.is_err()).count() as u64;
        replay(fx, &specs, &results, &mut s, keep_call_times)?;
        since_publish += BATCH;
        while since_publish >= PUBLISH_EVERY {
            since_publish -= PUBLISH_EVERY;
            let key = &fx.keys[rng.below(KEYS)];
            let sealed = &fx.artifacts[key.artifact].sealed;
            let artifact = open(sealed)?;
            let t = Instant::now();
            fx.store.publish(&key.tenant, &key.series, artifact);
            s.publish_us.push(t.elapsed().as_secs_f64() * 1e6);
            fx.mirror.publish(&key.tenant, &key.series, open(sealed)?);
        }
    }
    let (h1, m1) = fx.store.cache_stats();
    s.hits = h1 - h0;
    s.misses = m1 - m0;
    Ok(s)
}

/// Replays a served batch through the mirror store's `resolve` and
/// `Ensemble::forecast` at one thread; every outcome must match bit for
/// bit, errors included.
fn replay(
    fx: &Fixture,
    specs: &[Spec],
    results: &[ForecastResult],
    s: &mut Served,
    keep_call_times: bool,
) -> Result<(), String> {
    ff_par::with_threads(1, || {
        for (spec, got) in specs.iter().zip(results) {
            let k = &fx.keys[spec.key];
            let values = &fx.values(spec.key)[..spec.end];
            let t = Instant::now();
            let ensemble = fx.mirror.resolve(&k.tenant, &k.series);
            let resolved = t.elapsed();
            let t = Instant::now();
            let want = ensemble.and_then(|e| e.forecast(values, spec.start, spec.end));
            let predicted = t.elapsed();
            if keep_call_times {
                s.resolve_us.push(resolved.as_secs_f64() * 1e6);
                s.predict_us.push(predicted.as_secs_f64() * 1e6);
            }
            let same = match (got, &want) {
                (Ok(a), Ok(b)) => {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                }
                (Err(a), Err(b)) => a.to_string() == b.to_string(),
                _ => false,
            };
            if !same {
                return Err(format!(
                    "{}/{} {}..{}: served {got:?} but the direct replay gives {want:?}",
                    k.tenant, k.series, spec.start, spec.end
                ));
            }
        }
        Ok(())
    })
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (fixture, setup_s) = repeat_setup(train::SETUP_REPS, || setup(opts.seed));
    let (fx, setup_times, artifact_train_s) = fixture?;
    let mut rng = Rng(opts.seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ 0x5E12_E000);
    let untraced_budget = if opts.trace {
        opts.seconds / 2
    } else {
        opts.seconds
    };
    let rt = ServeRuntime::new(Arc::clone(&fx.store), ServeConfig::default());
    let served = serve_loop(&fx, &rt, &mut rng, untraced_budget, false)?;

    let requests = served.requests;
    let fps = windowed_rate(&served.batch_points, WINDOW_S);
    let mut report = Report::default();
    report.num("serve_fps", fps, "points/s");
    report_latency(&mut report, "serve", &served.batch_ms);
    report.num(
        "serve_fail_frac",
        served.failed as f64 / requests as f64,
        "ratio",
    );
    report.num("requests", requests as f64, "count");
    report.num("publishes", served.publish_us.len() as f64, "count");
    report.num(
        "revive_hit_ratio",
        served.hits as f64 / (served.hits + served.misses).max(1) as f64,
        "ratio",
    );
    let members: Vec<String> = fx
        .artifacts
        .iter()
        .map(|t| {
            open(&t.sealed).map(|a| format!("{} members, {} B", a.members.len(), t.sealed.len()))
        })
        .collect::<Result<_, _>>()?;
    report.strs("artifacts", &members);

    let mut m = Metrics::default();
    if !opts.trace {
        m.set("setup_s", median(&setup_s));
        m.set("latency_ms", median(&served.batch_ms));
        m.set("throughput_per_s", fps);
        m.set("peak_rss_mib", metrics::peak_rss_mib());
        return Ok(Outcome {
            attempted: requests,
            failed: served.failed,
            metrics: m,
            report,
        });
    }

    // Traced pass: the same loop with the runtime's tracer on and the
    // replay timed call by call.
    let traced_rt = ServeRuntime::new(Arc::clone(&fx.store), ServeConfig::default())
        .with_tracer(Tracer::enabled());
    let par_before = ff_par::stats();
    let loads_before = ff_par::worker_loads();
    let traced = serve_loop(&fx, &traced_rt, &mut rng, opts.seconds / 2, true)?;
    let par_after = ff_par::stats();
    let loads_after = ff_par::worker_loads();
    let batches = traced.batch_ms.len() as f64;
    m.set("serve.resolve_us_p50", median(&traced.resolve_us));
    m.set("serve.resolve_calls", traced.resolve_us.len() as f64);
    m.set(
        "serve.revive_hit_ratio",
        traced.hits as f64 / (traced.hits + traced.misses).max(1) as f64,
    );
    m.set("serve.predict_us_p50", median(&traced.predict_us));
    m.set("serve.predict_points", traced.points as f64);
    m.set("serve.publish_us", median(&traced.publish_us));
    let (open_us, decode_us_per_member) = codec_times(&fx)?;
    m.set("serve.open_us", open_us);
    m.set("serve.decode_us_per_member", decode_us_per_member);
    metrics::set_par_metrics(
        &mut m,
        &par_before,
        &par_after,
        &loads_before,
        &loads_after,
        batches,
    );
    set_setup_metrics(&mut m, &setup_times);
    m.set("setup.artifact_train_s", artifact_train_s);
    m.set(
        "trace.overhead_pct",
        100.0 * (median(&traced.batch_ms) / median(&served.batch_ms) - 1.0),
    );
    report.num("traced_batches", batches, "count");
    Ok(Outcome {
        attempted: requests,
        failed: served.failed,
        metrics: m,
        report,
    })
}

/// Median `Artifact::open` time (µs) and decode time per member (µs)
/// over every artifact, `CODEC_REPS` times each.
fn codec_times(fx: &Fixture) -> Result<(f64, f64), String> {
    let mut open_us = Vec::new();
    let mut decode_us = Vec::new();
    for a in &fx.artifacts {
        for _ in 0..CODEC_REPS {
            let t = Instant::now();
            let artifact = open(&a.sealed)?;
            open_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let ensemble = Ensemble::decode(&artifact).map_err(|e| e.to_string())?;
            decode_us.push(t.elapsed().as_secs_f64() * 1e6 / ensemble.members() as f64);
        }
    }
    Ok((median(&open_us), median(&decode_us)))
}
