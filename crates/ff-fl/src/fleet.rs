//! Event-driven round scheduler for 10,000-client fleets.
//!
//! [`FederatedRuntime`](crate::runtime::FederatedRuntime) is
//! thread-per-client and broadcast-to-everyone — the right shape for the
//! paper's 8-client experiments, unusable at 10,000 clients (10,000 OS
//! threads, O(clients × model) server memory). [`FleetRuntime`] is the
//! fleet-scale shape:
//!
//! - **Seeded cohort sampling** ([`CohortSampler`]): each round engages a
//!   deterministic cohort — a window into a seeded block permutation of
//!   the fleet, so the cohort for `(seed, round)` is a pure function and
//!   consecutive rounds cover every client (no starvation; see the
//!   sampler docs for the exact coverage contract).
//! - **Sharded execution**: clients live in [`Mutex`] slots, not
//!   threads. A round partitions its cohort into shards sized by the
//!   *cohort* (never by the machine's thread count) and drives them on
//!   the [`ff_par`] scoped pool; each shard sequentially locks, invokes,
//!   and screens its clients.
//! - **Streaming aggregation** ([`StreamAgg`]): each shard folds accepted
//!   updates as they arrive and drops them; shard partials merge in shard
//!   index order. Server aggregation memory is O(model), not
//!   O(cohort × model) — measured per round and reported as
//!   [`FleetRoundOutcome::agg_state_peak_bytes`].
//! - **Screen-then-fold** ([`UpdateGuard`]): robust rounds screen every
//!   reply against medians **frozen before the round starts**
//!   ([`UpdateGuard::frozen_norm_median`]), so screening is parallel-safe
//!   and order-independent. The first robust round has no history and
//!   skips the ratio screens (documented bypass); accepted values commit
//!   a new history entry once per round.
//!
//! # Determinism
//!
//! With `policy.deadline = None`, a full round is **bit-identical**
//! across thread counts: cohorts depend only on `(seed, round)`, shard
//! partitioning only on the cohort size, fold order within a shard and
//! merge order across shards are fixed, and chaos faults are per-client
//! PRNG streams. A wall-clock `deadline` is supported (checked before
//! each client is driven) but is inherently best-effort and
//! non-deterministic; simulated fleets model stragglers as
//! [`ChaosConfig`](crate::chaos::ChaosConfig) drops, which surface as
//! deterministic
//! [`FlError::Timeout`] dropouts without waiting on any clock.

use crate::client::{dispatch, FlClient};
use crate::config::ConfigMap;
use crate::health::{ClientState, HealthPolicy, HealthRegistry, HealthReport};
use crate::message::{Instruction, Reply};
use crate::robust::{AggregationStrategy, GuardPolicy, RejectReason, UpdateGuard};
use crate::runtime::RoundPolicy;
use crate::stream::StreamAgg;
use crate::{FlError, Result};
use bytes::Bytes;
use ff_trace::{FlightRecorder, RoundFrame, Tracer};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

// ---------------------------------------------------------------------------
// CohortSampler
// ---------------------------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic per-round client sampler.
///
/// Conceptually the sampler concatenates an infinite sequence of
/// *blocks*, block `b` being a Fisher–Yates permutation of all `n`
/// client ids seeded by `(seed, b)`. Round `r` (1-based) takes positions
/// `[(r−1)·k, r·k)` of that virtual sequence (`k` = cohort size), sorted
/// and deduplicated — a window can straddle two blocks, so a cohort may
/// rarely shrink by a few duplicate ids.
///
/// Contracts (property-tested in `fleet_proptests`):
///
/// - **Deterministic**: `cohort(r)` is a pure function of
///   `(n, k, seed, r)`.
/// - **No starvation**: any `⌈n/k⌉ + 1` consecutive rounds include at
///   least one full block of the virtual sequence, so every client id
///   appears at least once in any `2·⌈n/k⌉` consecutive rounds.
#[derive(Debug, Clone)]
pub struct CohortSampler {
    n: usize,
    k: usize,
    seed: u64,
}

impl CohortSampler {
    /// A sampler over `n` clients engaging `round(n × fraction)` of them
    /// per round (clamped to `[1, n]`).
    pub fn new(n: usize, fraction: f64, seed: u64) -> Result<CohortSampler> {
        if n == 0 {
            return Err(FlError::Client("sampler needs at least one client".into()));
        }
        let k = ((n as f64 * fraction.clamp(0.0, 1.0)).round() as usize).clamp(1, n);
        Ok(CohortSampler { n, k, seed })
    }

    /// Fleet size.
    pub fn fleet_size(&self) -> usize {
        self.n
    }

    /// Nominal cohort size (cohorts may be a few smaller when a round's
    /// window straddles two blocks and deduplicates).
    pub fn cohort_size(&self) -> usize {
        self.k
    }

    /// The seeded Fisher–Yates permutation of all ids for block `b`.
    fn block_perm(&self, b: u64) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.n as u32).collect();
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(1);
        for i in (1..self.n).rev() {
            let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
            ids.swap(i, j);
        }
        ids
    }

    /// The cohort for `round` (1-based), sorted ascending, deduplicated.
    pub fn cohort(&self, round: u64) -> Vec<usize> {
        assert!(round >= 1, "rounds are 1-based");
        let n = self.n as u64;
        let start = (round - 1).wrapping_mul(self.k as u64);
        let mut block = start / n;
        let mut perm = self.block_perm(block);
        let mut ids = Vec::with_capacity(self.k);
        for i in 0..self.k as u64 {
            let pos = start + i;
            let b = pos / n;
            if b != block {
                block = b;
                perm = self.block_perm(block);
            }
            ids.push(perm[(pos % n) as usize] as usize);
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

// ---------------------------------------------------------------------------
// FleetConfig
// ---------------------------------------------------------------------------

/// Configuration of a [`FleetRuntime`]. See the README's `fleet` section
/// for knob-by-knob guidance.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Fraction of the fleet sampled per round, in `(0, 1]`.
    pub fraction: f64,
    /// Sampler seed; `(seed, round)` fully determines each cohort.
    pub seed: u64,
    /// Rank-family exact-buffer cap per shard partial (see
    /// [`StreamAgg`]); within it rank aggregation is bit-identical to the
    /// batch rules.
    pub exact_cap: usize,
    /// Maximum shards a cohort is split into. Shard size is derived from
    /// the cohort size — never from the machine's thread count — so
    /// results are bit-identical across `FF_THREADS` settings.
    pub max_shards: usize,
    /// Minimum clients per shard (avoids per-shard overhead dominating
    /// tiny cohorts).
    pub min_shard: usize,
    /// Aggregation rule. Krum/Multi-Krum cannot stream and are rejected
    /// at construction.
    pub strategy: AggregationStrategy,
    /// Health state-machine knobs (quarantine threshold, probe backoff).
    pub health: HealthPolicy,
    /// Update/loss screening thresholds for robust rounds.
    pub guard: GuardPolicy,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            fraction: 0.1,
            seed: 0,
            exact_cap: 64,
            max_shards: 64,
            min_shard: 8,
            strategy: AggregationStrategy::FedAvg,
            health: HealthPolicy::default(),
            guard: GuardPolicy::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Round outcome
// ---------------------------------------------------------------------------

/// Result of one fleet round (fit or evaluate).
#[derive(Debug, Clone)]
pub struct FleetRoundOutcome {
    /// Round number (1-based, shared with the health registry).
    pub round: u64,
    /// The sampled cohort (before health admission).
    pub cohort: Vec<usize>,
    /// Clients actually driven: admitted cohort members plus due
    /// re-admission probes, sorted.
    pub admitted: Vec<usize>,
    /// How many driven clients were quarantine probes.
    pub probes: usize,
    /// Clients whose replies were accepted (and, for fit, folded into the
    /// aggregate), sorted.
    pub accepted: Vec<usize>,
    /// Guard-rejected on-time replies, with reasons, sorted by id.
    pub rejected: Vec<(usize, RejectReason)>,
    /// Clients that produced no usable reply, with the transport error,
    /// sorted by id.
    pub dropouts: Vec<(usize, FlError)>,
    /// Aggregated global parameters (fit rounds; empty for eval).
    pub global: Vec<f64>,
    /// Aggregated global loss (eval rounds; `None` for fit).
    pub loss: Option<f64>,
    /// Total training/validation examples across accepted replies.
    pub total_examples: u64,
    /// High-water mark of live server aggregation state during this
    /// round, in bytes: the sum of concurrent shard partials plus the
    /// merged accumulator. O(model × shards), independent of cohort and
    /// fleet size — the memory contract the fleet tests assert.
    pub agg_state_peak_bytes: usize,
}

// ---------------------------------------------------------------------------
// FleetRuntime
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
enum RoundMode {
    Fit {
        /// Broadcast parameter dimension (`None` when broadcasting empty
        /// params, e.g. round one — replies then set the dimension).
        ref_dim: Option<usize>,
        /// Frozen norm-screen median; `None` = first-round bypass or
        /// non-robust strategy.
        norm_median: Option<f64>,
    },
    Eval {
        /// Frozen loss-screen median; `None` = bypass.
        loss_median: Option<f64>,
    },
}

/// Per-shard partial results, merged in shard index order.
struct ShardOut {
    agg: Option<StreamAgg>,
    accepted: Vec<usize>,
    norms: Vec<f64>,
    losses: Vec<(usize, f64, u64)>,
    rejected: Vec<(usize, RejectReason)>,
    dropouts: Vec<(usize, FlError)>,
    retryable: Vec<(usize, FlError)>,
    examples: u64,
    fatal: Option<FlError>,
}

/// Event-driven scheduler for fleets far beyond thread-per-client scale.
/// Clients live in mutex slots; each round drives only its sampled
/// cohort. See the module docs for the architecture.
pub struct FleetRuntime {
    slots: Vec<Mutex<Box<dyn FlClient>>>,
    sampler: CohortSampler,
    cfg: FleetConfig,
    health: Mutex<HealthRegistry>,
    guard: Mutex<UpdateGuard>,
    tracer: Mutex<Tracer>,
    recorder: Mutex<FlightRecorder>,
    /// Which clients have appeared in any cohort so far, plus the count
    /// of distinct ones — feeds the `fleet.cohort_coverage` gauge.
    coverage: Mutex<(Vec<bool>, usize)>,
    peak_agg_bytes: AtomicUsize,
}

impl FleetRuntime {
    /// Builds a fleet over the given clients. Fails fast when the
    /// strategy cannot stream (Krum) or the config is invalid — a
    /// 10,000-client run must not discover a bad rule mid-round.
    pub fn new(clients: Vec<Box<dyn FlClient>>, cfg: FleetConfig) -> Result<FleetRuntime> {
        // Validates the strategy, including the cannot-stream rules.
        StreamAgg::new(&cfg.strategy, cfg.exact_cap)?;
        let sampler = CohortSampler::new(clients.len(), cfg.fraction, cfg.seed)?;
        let n = clients.len();
        Ok(FleetRuntime {
            slots: clients.into_iter().map(Mutex::new).collect(),
            sampler,
            health: Mutex::new(HealthRegistry::new(n, cfg.health.clone())),
            guard: Mutex::new(UpdateGuard::new(cfg.guard)),
            cfg,
            tracer: Mutex::new(Tracer::disabled()),
            recorder: Mutex::new(FlightRecorder::disabled()),
            coverage: Mutex::new((vec![false; n], 0)),
            peak_agg_bytes: AtomicUsize::new(0),
        })
    }

    /// Fleet size.
    pub fn n_clients(&self) -> usize {
        self.slots.len()
    }

    /// The cohort sampler (e.g. to preview a round's cohort).
    pub fn sampler(&self) -> &CohortSampler {
        &self.sampler
    }

    /// Attaches a tracer: rounds get `fleet.round` spans and the
    /// `fleet.rounds` / `fleet.probes` / `fleet.retries` /
    /// `fleet.dropouts` / `fleet.updates_rejected` / `fleet.quarantines`
    /// counters plus the `fleet.agg_state_peak_bytes` gauge.
    pub fn set_tracer(&self, tracer: Tracer) {
        *self.tracer.lock() = tracer;
    }

    /// Attaches a flight recorder: every round commits one
    /// [`RoundFrame`] (including rounds that fail their quorum), and
    /// distress — a fresh quarantine, a quorum failure, a guard
    /// rejection, a non-finite loss — freezes the ring into a forensic
    /// dump. Disabled recorders cost one branch per round.
    pub fn set_recorder(&self, recorder: FlightRecorder) {
        *self.recorder.lock() = recorder;
    }

    /// The attached flight recorder (disabled unless [`set_recorder`]
    /// was called).
    ///
    /// [`set_recorder`]: FleetRuntime::set_recorder
    pub fn recorder(&self) -> FlightRecorder {
        self.recorder.lock().clone()
    }

    /// A snapshot of every client's health state.
    pub fn health_report(&self) -> HealthReport {
        self.health.lock().report()
    }

    /// The health state of one client, or `None` for an unknown id.
    pub fn client_state(&self, id: usize) -> Option<ClientState> {
        self.health.lock().state(id)
    }

    /// High-water mark of server aggregation state across all rounds so
    /// far, in bytes.
    pub fn peak_agg_bytes(&self) -> usize {
        self.peak_agg_bytes.load(Ordering::Relaxed)
    }

    /// Runs one fit round over the sampled cohort: broadcast `params`,
    /// screen and fold replies into the streaming aggregate, return the
    /// new global model. Takes ownership of `params` — no defensive
    /// copies of the model vector are made on the way in.
    pub fn run_fit_round(
        &self,
        params: Vec<f64>,
        config: ConfigMap,
        policy: &RoundPolicy,
    ) -> Result<FleetRoundOutcome> {
        let ref_dim = if params.is_empty() {
            None
        } else {
            Some(params.len())
        };
        let norm_median = if self.cfg.strategy.is_robust() {
            self.guard.lock().frozen_norm_median()
        } else {
            None
        };
        let ins = Instruction::Fit { params, config };
        self.run_round_inner(
            ins,
            RoundMode::Fit {
                ref_dim,
                norm_median,
            },
            policy,
        )
    }

    /// Runs one evaluate round over the sampled cohort, aggregating the
    /// per-client losses (Equation-1 weighted mean, or the weighted
    /// median for robust strategies).
    pub fn run_eval_round(
        &self,
        params: Vec<f64>,
        config: ConfigMap,
        policy: &RoundPolicy,
    ) -> Result<FleetRoundOutcome> {
        let loss_median = if self.cfg.strategy.is_robust() {
            self.guard.lock().frozen_loss_median()
        } else {
            None
        };
        let ins = Instruction::Evaluate { params, config };
        self.run_round_inner(ins, RoundMode::Eval { loss_median }, policy)
    }

    /// Shard size for a pass over `n` clients: derived from the cohort
    /// and config only — never from the live thread count — so the shard
    /// partition (and therefore every fold/merge order) is identical
    /// across `FF_THREADS` settings.
    fn shard_len(&self, n: usize) -> usize {
        ff_par::shard_len(n, self.cfg.max_shards, self.cfg.min_shard)
    }

    /// Decodes the shared instruction, drives one client under
    /// `catch_unwind`, and routes the reply through `wire_transform` —
    /// the same wire semantics as the thread-per-client runtime, without
    /// a thread. A `None` transform (chaos drop) returns
    /// [`FlError::Timeout`] immediately: simulated stragglers cost no
    /// wall-clock time, which is what makes 10,000-client chaos rounds
    /// fast *and* deterministic.
    fn drive_one(&self, id: usize, encoded: &Bytes) -> Result<Reply> {
        let ins = Instruction::decode(encoded.clone())?;
        let mut slot = self.slots[id].lock();
        let reply = match catch_unwind(AssertUnwindSafe(|| dispatch(&mut **slot, ins))) {
            Ok(reply) => reply,
            Err(_) => return Err(FlError::ClientPanicked(id)),
        };
        let bytes = match slot.wire_transform(reply.encode().to_vec()) {
            Some(bytes) => bytes,
            None => return Err(FlError::Timeout(id)),
        };
        drop(slot);
        Reply::decode(Bytes::from(bytes))
    }

    /// Screens a fit reply against the frozen round state. `Ok` carries
    /// the update's L2 norm.
    fn screen_fit(
        &self,
        mode: &RoundMode,
        params: &[f64],
    ) -> std::result::Result<f64, RejectReason> {
        let RoundMode::Fit {
            ref_dim,
            norm_median,
        } = mode
        else {
            unreachable!("fit screen in eval round");
        };
        if let Some(d) = ref_dim {
            if params.len() != *d {
                return Err(RejectReason::DimensionMismatch {
                    got: params.len(),
                    expected: *d,
                });
            }
        }
        if params.iter().any(|v| !v.is_finite()) {
            return Err(RejectReason::NonFinite);
        }
        let norm = params.iter().map(|v| v * v).sum::<f64>().sqrt();
        if let Some(median) = norm_median {
            if norm > self.cfg.guard.norm_ratio * median {
                return Err(RejectReason::NormOutlier {
                    norm,
                    median: *median,
                });
            }
        }
        Ok(norm)
    }

    /// Screens an eval reply against the frozen round state.
    fn screen_eval(&self, mode: &RoundMode, loss: f64) -> std::result::Result<(), RejectReason> {
        let RoundMode::Eval { loss_median } = mode else {
            unreachable!("eval screen in fit round");
        };
        if !loss.is_finite() {
            return Err(RejectReason::NonFinite);
        }
        if loss < 0.0 {
            return Err(RejectReason::NegativeLoss { loss });
        }
        if let Some(median) = loss_median {
            if loss > self.cfg.guard.loss_ratio * median {
                return Err(RejectReason::LossOutlier {
                    loss,
                    median: *median,
                });
            }
        }
        Ok(())
    }

    /// Drives one pass over `ids`, sharded on the [`ff_par`] pool. Shard
    /// results come back in shard index order regardless of thread count.
    fn drive_pass(
        &self,
        ids: &[usize],
        encoded: &Bytes,
        mode: RoundMode,
        robust: bool,
        deadline: Option<Instant>,
    ) -> Vec<ShardOut> {
        let is_fit = matches!(mode, RoundMode::Fit { .. });
        let shard_len = self.shard_len(ids.len());
        // `exact_cap` is a *round-level* buffer budget: when the whole
        // pass fits, every shard may buffer exactly (bit-identical to
        // batch); otherwise the budget is split across shards so the sum
        // of exact buffers never exceeds ~exact_cap — that split is what
        // keeps pass memory O(model × shards) instead of O(cohort ×
        // model). Derived from the pass size only, never the thread
        // count, so it cannot break cross-thread-count determinism.
        let shard_cap = if ids.len() <= self.cfg.exact_cap {
            self.cfg.exact_cap
        } else {
            let n_shards = ids.len().div_ceil(shard_len);
            (self.cfg.exact_cap / n_shards.max(1)).max(1)
        };
        ff_par::par_chunks_map(ids, shard_len, |_, shard| {
            let mut out = ShardOut {
                agg: is_fit.then(|| {
                    StreamAgg::new(&self.cfg.strategy, shard_cap)
                        .expect("strategy validated at construction")
                }),
                accepted: Vec::new(),
                norms: Vec::new(),
                losses: Vec::new(),
                rejected: Vec::new(),
                dropouts: Vec::new(),
                retryable: Vec::new(),
                examples: 0,
                fatal: None,
            };
            for &id in shard {
                if out.fatal.is_some() {
                    break;
                }
                if let Some(at) = deadline {
                    if Instant::now() >= at {
                        out.retryable.push((id, FlError::Timeout(id)));
                        continue;
                    }
                }
                match self.drive_one(id, encoded) {
                    Err(e @ (FlError::Timeout(_) | FlError::Codec(_))) => {
                        out.retryable.push((id, e));
                    }
                    Err(e) => out.dropouts.push((id, e)),
                    Ok(Reply::Panicked(_)) => {
                        out.dropouts.push((id, FlError::ClientPanicked(id)));
                    }
                    Ok(Reply::Error(msg)) => out.dropouts.push((id, FlError::Client(msg))),
                    Ok(Reply::FitRes {
                        params,
                        num_examples,
                        ..
                    }) if is_fit => {
                        if robust || !params.is_empty() {
                            if robust {
                                match self.screen_fit(&mode, &params) {
                                    Ok(norm) => {
                                        if !params.is_empty() {
                                            out.norms.push(norm);
                                        }
                                    }
                                    Err(reason) => {
                                        out.rejected.push((id, reason));
                                        continue;
                                    }
                                }
                            }
                            if let Err(e) = out
                                .agg
                                .as_mut()
                                .expect("fit pass has an aggregator")
                                .fold(params, num_examples)
                            {
                                // Re-key shard-local fold indices to the
                                // client id before surfacing.
                                out.fatal = Some(match e {
                                    FlError::NonFiniteUpdate { .. } => {
                                        FlError::NonFiniteUpdate { client: id }
                                    }
                                    other => other,
                                });
                                continue;
                            }
                        }
                        out.accepted.push(id);
                        out.examples += num_examples;
                    }
                    Ok(Reply::EvaluateRes {
                        loss, num_examples, ..
                    }) if !is_fit => {
                        if robust {
                            if let Err(reason) = self.screen_eval(&mode, loss) {
                                out.rejected.push((id, reason));
                                continue;
                            }
                        }
                        out.losses.push((id, loss, num_examples));
                        out.accepted.push(id);
                        out.examples += num_examples;
                    }
                    Ok(other) => {
                        out.dropouts
                            .push((id, FlError::Codec(format!("unexpected reply {other:?}"))));
                    }
                }
            }
            out
        })
    }

    fn run_round_inner(
        &self,
        ins: Instruction,
        mode: RoundMode,
        policy: &RoundPolicy,
    ) -> Result<FleetRoundOutcome> {
        let tracer = self.tracer.lock().clone();
        let recorder = self.recorder.lock().clone();
        let (round, cohort, admitted, probes) = {
            let mut health = self.health.lock();
            let round = health.begin_round();
            let cohort = self.sampler.cohort(round);
            let mut admitted: Vec<usize> = cohort
                .iter()
                .copied()
                .filter(|&id| health.is_admitted(id, round))
                .collect();
            // Due re-admission probes ride along with every round,
            // whether or not the sampler picked them — a quarantined
            // client must not wait for the sampler to cycle back.
            let probes = health.probes_due(round);
            let n_probes = probes.len();
            admitted.extend(probes);
            admitted.sort_unstable();
            admitted.dedup();
            (round, cohort, admitted, n_probes)
        };
        let _round_span = tracer.span_labeled("fleet.round", round);
        tracer.counter_add("fleet.rounds", 1);
        if probes > 0 {
            tracer.counter_add("fleet.probes", probes as u64);
        }
        if tracer.is_enabled() {
            // Cohort coverage: fraction of the fleet seen in any cohort
            // so far (the sampler's no-starvation contract, observable).
            let mut cov = self.coverage.lock();
            for &id in &cohort {
                if !cov.0[id] {
                    cov.0[id] = true;
                    cov.1 += 1;
                }
            }
            let seen = cov.1;
            drop(cov);
            tracer.gauge_set(
                "fleet.cohort_coverage",
                seen as f64 / self.slots.len().max(1) as f64,
            );
            // Shard balance: last-shard fill ÷ shard length — 1.0 means
            // perfectly even shards, small values mean a ragged tail.
            if !admitted.is_empty() {
                let shard_len = self.shard_len(admitted.len());
                let n_shards = admitted.len().div_ceil(shard_len);
                let last_fill = admitted.len() - (n_shards - 1) * shard_len;
                tracer.gauge_set("fleet.shards", n_shards as f64);
                tracer.gauge_set("fleet.shard_balance", last_fill as f64 / shard_len as f64);
            }
        }

        let robust = self.cfg.strategy.is_robust();
        let is_fit = matches!(mode, RoundMode::Fit { .. });
        let encoded = ins.encode(); // encode once; shards share the buffer
        drop(ins);

        let mut merged = if is_fit {
            Some(StreamAgg::new(&self.cfg.strategy, self.cfg.exact_cap)?)
        } else {
            None
        };
        let mut accepted: Vec<usize> = Vec::new();
        let mut norms: Vec<f64> = Vec::new();
        let mut losses: Vec<(usize, f64, u64)> = Vec::new();
        let mut rejected: Vec<(usize, RejectReason)> = Vec::new();
        let mut dropouts: Vec<(usize, FlError)> = Vec::new();
        let mut total_examples = 0u64;
        let mut round_peak = 0usize;

        let mut pending = admitted.clone();
        let mut attempt = 0u32;
        let mut round_retries = 0u64;
        while !pending.is_empty() {
            attempt += 1;
            let deadline = policy.deadline.map(|d| Instant::now() + d);
            let outs = self.drive_pass(&pending, &encoded, mode, robust, deadline);
            // Peak memory this pass: every shard partial was live at the
            // barrier, plus the merged accumulator.
            let partial_bytes: usize = outs
                .iter()
                .map(|o| o.agg.as_ref().map_or(0, StreamAgg::peak_state_bytes))
                .sum();
            let mut retry: Vec<(usize, FlError)> = Vec::new();
            for out in outs {
                if let Some(fatal) = out.fatal {
                    return Err(fatal);
                }
                if let (Some(merged), Some(agg)) = (merged.as_mut(), out.agg) {
                    merged.merge(agg)?;
                }
                accepted.extend(out.accepted);
                norms.extend(out.norms);
                losses.extend(out.losses);
                rejected.extend(out.rejected);
                dropouts.extend(out.dropouts);
                retry.extend(out.retryable);
                total_examples += out.examples;
            }
            round_peak =
                round_peak.max(partial_bytes + merged.as_ref().map_or(0, |m| m.state_bytes()));
            let can_retry = attempt <= policy.retries;
            if can_retry && !retry.is_empty() {
                tracer.counter_add("fleet.retries", retry.len() as u64);
                round_retries += retry.len() as u64;
                pending = retry.into_iter().map(|(id, _)| id).collect();
                pending.sort_unstable();
                if !policy.backoff.is_zero() {
                    std::thread::sleep(policy.backoff * attempt);
                }
            } else {
                dropouts.extend(retry);
                pending = Vec::new();
            }
        }

        accepted.sort_unstable();
        rejected.sort_by_key(|(id, _)| *id);
        dropouts.sort_by_key(|(id, _)| *id);

        // Health bookkeeping: one lock, cost O(cohort).
        let mut quarantined_ids: Vec<u64> = Vec::new();
        {
            let mut health = self.health.lock();
            for &id in &accepted {
                health.record_success(id);
                if robust {
                    health.record_accepted(id);
                }
            }
            let mut note_transition =
                |id: usize, before: Option<ClientState>, after: Option<ClientState>| {
                    if after == Some(ClientState::Quarantined)
                        && before != Some(ClientState::Quarantined)
                    {
                        quarantined_ids.push(id as u64);
                    }
                };
            for (id, _) in &rejected {
                // An on-time reply with bad content: transport success,
                // integrity failure.
                health.record_success(*id);
                let before = health.state(*id);
                note_transition(*id, before, health.record_rejection(*id));
            }
            for (id, _) in &dropouts {
                let before = health.state(*id);
                note_transition(*id, before, health.record_failure(*id));
            }
            if !dropouts.is_empty() {
                tracer.counter_add("fleet.dropouts", dropouts.len() as u64);
            }
            if !rejected.is_empty() {
                tracer.counter_add("fleet.updates_rejected", rejected.len() as u64);
            }
            if !quarantined_ids.is_empty() {
                tracer.counter_add("fleet.quarantines", quarantined_ids.len() as u64);
            }
        }
        quarantined_ids.sort_unstable();
        // Commit this round's accepted values into the guard history so
        // the *next* round screens against them (frozen-median contract).
        if robust {
            let mut guard = self.guard.lock();
            if is_fit {
                guard.commit_norms(&mut norms);
            } else {
                let mut vals: Vec<f64> = losses.iter().map(|&(_, l, _)| l).collect();
                guard.commit_losses(&mut vals);
            }
        }

        // Flight-recorder frame for this round. Built lazily (a disabled
        // recorder never runs this) and free of wall-clock data, so dumps
        // are bit-identical across thread counts.
        let make_frame = |quorum_met: bool, loss: Option<f64>| RoundFrame {
            round,
            phase: if is_fit { "fleet.fit" } else { "fleet.eval" },
            cohort: cohort.len() as u64,
            admitted: admitted.len() as u64,
            accepted: accepted.len() as u64,
            probes: probes as u64,
            rejected: rejected
                .iter()
                .map(|(id, r)| (*id as u64, r.to_string()))
                .collect(),
            dropouts: dropouts
                .iter()
                .map(|(id, e)| (*id as u64, e.to_string()))
                .collect(),
            quarantined: quarantined_ids.clone(),
            loss,
            quorum_met,
            non_finite: rejected
                .iter()
                .any(|(_, r)| matches!(r, RejectReason::NonFinite)),
            counters: vec![
                ("fleet.retries", round_retries),
                ("fleet.probes", probes as u64),
            ],
        };

        let required = policy.min_responses.max(1);
        if accepted.len() < required {
            recorder.commit_with(|| make_frame(false, None));
            return Err(FlError::Quorum {
                healthy: accepted.len(),
                required,
            });
        }

        let (global, loss) = match merged {
            Some(agg) => {
                round_peak = round_peak.max(agg.peak_state_bytes());
                (agg.finalize()?, None)
            }
            None => {
                let pairs: Vec<(f64, u64)> = losses.iter().map(|&(_, l, n)| (l, n)).collect();
                (Vec::new(), Some(self.cfg.strategy.aggregate_loss(&pairs)?))
            }
        };
        self.peak_agg_bytes.fetch_max(round_peak, Ordering::Relaxed);
        tracer.gauge_set("fleet.agg_state_peak_bytes", round_peak as f64);
        recorder.commit_with(|| make_frame(true, loss));

        Ok(FleetRoundOutcome {
            round,
            cohort,
            admitted,
            probes,
            accepted,
            rejected,
            dropouts,
            global,
            loss,
            total_examples,
            agg_state_peak_bytes: round_peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{AdversarialMode, ChaosClient};
    use crate::client::{EvalOutput, FitOutput};
    use std::collections::BTreeSet;

    /// Toy client: fit returns a constant vector scaled by `value`.
    struct Constant {
        value: f64,
        dim: usize,
        examples: u64,
    }

    impl FlClient for Constant {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            ConfigMap::new()
        }
        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            FitOutput {
                params: vec![self.value; self.dim],
                num_examples: self.examples,
                metrics: ConfigMap::new(),
            }
        }
        fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
            let center = params.first().copied().unwrap_or(0.0);
            EvalOutput {
                loss: (self.value - center).abs(),
                num_examples: self.examples,
                metrics: ConfigMap::new(),
            }
        }
    }

    fn constant_fleet(n: usize, dim: usize) -> Vec<Box<dyn FlClient>> {
        (0..n)
            .map(|i| {
                Box::new(Constant {
                    value: 1.0 + (i % 7) as f64 * 0.1,
                    dim,
                    examples: 1 + (i % 3) as u64,
                }) as Box<dyn FlClient>
            })
            .collect()
    }

    fn no_deadline() -> RoundPolicy {
        RoundPolicy {
            deadline: None,
            min_responses: 1,
            retries: 0,
            backoff: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn sampler_is_deterministic_and_covers_everyone() {
        let sampler = CohortSampler::new(100, 0.1, 42).unwrap();
        assert_eq!(sampler.cohort_size(), 10);
        for round in 1..=5 {
            assert_eq!(sampler.cohort(round), sampler.cohort(round));
        }
        // Rounds 1..=10 walk block 0 exactly: every client appears.
        let mut seen = BTreeSet::new();
        for round in 1..=10 {
            let cohort = sampler.cohort(round);
            assert!(!cohort.is_empty() && cohort.len() <= 10);
            seen.extend(cohort);
        }
        assert_eq!(seen.len(), 100, "starved clients: {}", 100 - seen.len());
        // Different seeds give different schedules.
        let other = CohortSampler::new(100, 0.1, 43).unwrap();
        assert_ne!(
            (1..=10).map(|r| sampler.cohort(r)).collect::<Vec<_>>(),
            (1..=10).map(|r| other.cohort(r)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn fit_round_aggregates_the_sampled_cohort() {
        let fleet = FleetRuntime::new(
            constant_fleet(50, 3),
            FleetConfig {
                fraction: 0.2,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let out = fleet
            .run_fit_round(vec![0.0; 3], ConfigMap::new(), &no_deadline())
            .unwrap();
        assert_eq!(out.round, 1);
        assert_eq!(out.cohort.len(), 10);
        assert_eq!(out.accepted, out.admitted);
        assert!(out.dropouts.is_empty() && out.rejected.is_empty());
        assert_eq!(out.global.len(), 3);
        // FedAvg of the cohort's constants, weighted by examples.
        let mut num = 0.0;
        let mut den = 0.0;
        for &id in &out.accepted {
            let w = (1 + (id % 3)) as f64;
            num += w * (1.0 + (id % 7) as f64 * 0.1);
            den += w;
        }
        assert!((out.global[0] - num / den).abs() < 1e-12);
        assert!(out.total_examples > 0);
        assert!(out.agg_state_peak_bytes > 0);
    }

    #[test]
    fn round_is_bit_identical_across_thread_counts() {
        let run = |threads: usize| -> (Vec<usize>, Vec<u64>) {
            ff_par::with_threads(threads, || {
                let fleet = FleetRuntime::new(
                    constant_fleet(200, 4),
                    FleetConfig {
                        fraction: 0.25,
                        seed: 7,
                        strategy: AggregationStrategy::CoordinateMedian,
                        ..FleetConfig::default()
                    },
                )
                .unwrap();
                let mut cohorts = Vec::new();
                let mut bits = Vec::new();
                for _ in 0..3 {
                    let out = fleet
                        .run_fit_round(vec![0.0; 4], ConfigMap::new(), &no_deadline())
                        .unwrap();
                    cohorts.extend(out.cohort);
                    bits.extend(out.global.iter().map(|v| v.to_bits()));
                }
                (cohorts, bits)
            })
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn byzantine_updates_are_screened_and_quarantined() {
        let n = 40;
        let dim = 3;
        let clients: Vec<Box<dyn FlClient>> = (0..n)
            .map(|i| {
                let inner = Box::new(Constant {
                    value: 1.0,
                    dim,
                    examples: 1,
                }) as Box<dyn FlClient>;
                if i == 5 {
                    Box::new(ChaosClient::adversarial(
                        inner,
                        AdversarialMode::ScaleBy(1e9),
                        9,
                    )) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let fleet = FleetRuntime::new(
            clients,
            FleetConfig {
                fraction: 1.0,
                strategy: AggregationStrategy::CoordinateMedian,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        // Round 1: no history → norm screen bypassed, but the median
        // aggregate still shrugs the attacker off.
        let r1 = fleet
            .run_fit_round(vec![0.0; dim], ConfigMap::new(), &no_deadline())
            .unwrap();
        assert!((r1.global[0] - 1.0).abs() < 0.05, "got {:?}", r1.global);
        // Round 2+: the frozen median from round 1 screens the attacker.
        let r2 = fleet
            .run_fit_round(vec![0.0; dim], ConfigMap::new(), &no_deadline())
            .unwrap();
        assert_eq!(r2.rejected.len(), 1);
        assert_eq!(r2.rejected[0].0, 5);
        assert!(matches!(r2.rejected[0].1, RejectReason::NormOutlier { .. }));
        let _ = fleet.run_fit_round(vec![0.0; dim], ConfigMap::new(), &no_deadline());
        assert_eq!(fleet.client_state(5), Some(ClientState::Quarantined));
    }

    #[test]
    fn chaos_drops_become_deterministic_timeouts_without_waiting() {
        let clients: Vec<Box<dyn FlClient>> = (0..30)
            .map(|i| {
                let inner = Box::new(Constant {
                    value: 2.0,
                    dim: 2,
                    examples: 1,
                }) as Box<dyn FlClient>;
                if i % 3 == 0 {
                    Box::new(ChaosClient::flaky(inner, 1.0, i as u64)) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let fleet = FleetRuntime::new(
            clients,
            FleetConfig {
                fraction: 1.0,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let started = Instant::now();
        let out = fleet
            .run_fit_round(vec![0.0; 2], ConfigMap::new(), &no_deadline())
            .unwrap();
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "drops must not wait on wall clocks"
        );
        assert_eq!(out.dropouts.len(), 10);
        assert!(out
            .dropouts
            .iter()
            .all(|(id, e)| *e == FlError::Timeout(*id) && id % 3 == 0));
        assert_eq!(out.accepted.len(), 20);
        assert!((out.global[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probes_ride_along_and_recovering_clients_rejoin() {
        // Client 0 always drops; quarantine it, then verify its probes
        // ride along with later rounds even when unsampled.
        let clients: Vec<Box<dyn FlClient>> = (0..20)
            .map(|i| {
                let inner = Box::new(Constant {
                    value: 1.0,
                    dim: 1,
                    examples: 1,
                }) as Box<dyn FlClient>;
                if i == 0 {
                    Box::new(ChaosClient::flaky(inner, 1.0, 1)) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let fleet = FleetRuntime::new(
            clients,
            FleetConfig {
                fraction: 1.0,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let policy = no_deadline();
        let mut saw_probe = false;
        for _ in 0..12 {
            let out = fleet
                .run_fit_round(vec![0.0], ConfigMap::new(), &policy)
                .unwrap();
            if out.probes > 0 {
                saw_probe = true;
                assert!(out.admitted.contains(&0));
            }
        }
        assert!(saw_probe, "quarantined client was never probed");
        assert_eq!(fleet.client_state(0), Some(ClientState::Quarantined));
    }

    #[test]
    fn eval_round_aggregates_losses() {
        let fleet = FleetRuntime::new(
            constant_fleet(30, 2),
            FleetConfig {
                fraction: 0.5,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let out = fleet
            .run_eval_round(vec![1.0, 1.0], ConfigMap::new(), &no_deadline())
            .unwrap();
        assert!(out.global.is_empty());
        let loss = out.loss.expect("eval round carries a loss");
        assert!((0.0..=0.6).contains(&loss), "loss {loss}");
    }

    #[test]
    fn quorum_unmet_fails_the_round() {
        let clients: Vec<Box<dyn FlClient>> = (0..10)
            .map(|i| {
                Box::new(ChaosClient::flaky(
                    Box::new(Constant {
                        value: 1.0,
                        dim: 1,
                        examples: 1,
                    }),
                    1.0,
                    i as u64,
                )) as Box<dyn FlClient>
            })
            .collect();
        let fleet = FleetRuntime::new(
            clients,
            FleetConfig {
                fraction: 1.0,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        match fleet.run_fit_round(vec![0.0], ConfigMap::new(), &no_deadline()) {
            Err(FlError::Quorum { healthy, required }) => {
                assert_eq!((healthy, required), (0, 1));
            }
            other => panic!("expected quorum failure, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_replies_retry_then_drop_out() {
        let clients: Vec<Box<dyn FlClient>> = (0..6)
            .map(|i| {
                let inner = Box::new(Constant {
                    value: 1.0,
                    dim: 1,
                    examples: 1,
                }) as Box<dyn FlClient>;
                if i == 2 {
                    Box::new(ChaosClient::corrupting(inner, 3)) as Box<dyn FlClient>
                } else {
                    inner
                }
            })
            .collect();
        let fleet = FleetRuntime::new(
            clients,
            FleetConfig {
                fraction: 1.0,
                ..FleetConfig::default()
            },
        )
        .unwrap();
        let tracer = Tracer::enabled();
        fleet.set_tracer(tracer.clone());
        let policy = RoundPolicy {
            retries: 2,
            backoff: std::time::Duration::ZERO,
            ..no_deadline()
        };
        let out = fleet
            .run_fit_round(vec![0.0], ConfigMap::new(), &policy)
            .unwrap();
        assert_eq!(out.dropouts.len(), 1);
        assert!(matches!(out.dropouts[0], (2, FlError::Codec(_))));
        let snap = tracer.snapshot();
        assert_eq!(snap.counter("fleet.retries"), 2);
        assert_eq!(snap.counter("fleet.rounds"), 1);
        assert_eq!(snap.counter("fleet.dropouts"), 1);
    }

    #[test]
    fn krum_strategy_is_rejected_at_construction() {
        let err = FleetRuntime::new(
            constant_fleet(4, 1),
            FleetConfig {
                strategy: AggregationStrategy::Krum { f: 1 },
                ..FleetConfig::default()
            },
        );
        assert!(err.is_err());
    }

    #[test]
    fn aggregation_memory_is_independent_of_cohort_size() {
        let peak_for = |n: usize| -> usize {
            let fleet = FleetRuntime::new(
                constant_fleet(n, 8),
                FleetConfig {
                    fraction: 1.0,
                    strategy: AggregationStrategy::CoordinateMedian,
                    ..FleetConfig::default()
                },
            )
            .unwrap();
            let out = fleet
                .run_fit_round(vec![0.0; 8], ConfigMap::new(), &no_deadline())
                .unwrap();
            out.agg_state_peak_bytes
        };
        let small = peak_for(100);
        let large = peak_for(2000);
        // 20× the cohort must not cost 20× the aggregation state; the
        // cap is O(model × shards).
        assert!(
            large < small.max(1) * 6,
            "agg state scales with cohort: {small} -> {large}"
        );
    }
}
