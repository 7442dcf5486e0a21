//! The in-process federated simulation engine.
//!
//! Each client runs on a dedicated OS thread (mirroring Flower's simulation
//! mode, where clients are independent processes) and communicates with the
//! server over channels carrying *encoded* messages — serialization is not
//! skipped, so the communication boundary behaves like a real network hop
//! minus the latency.
//!
//! # Fault model
//!
//! Channels carry `(sequence, payload)` pairs. Every instruction gets a
//! per-client monotonically increasing sequence number and the server only
//! accepts the reply matching the sequence it is waiting for; replies from
//! earlier, timed-out rounds that arrive late are drained and discarded, so
//! a straggler can never desynchronize the protocol. Client threads wrap
//! handler dispatch in `catch_unwind`, turning a panic into a structured
//! [`Reply::Panicked`] instead of a dead channel. [`run_round`] layers a
//! [`RoundPolicy`] (deadline, response quorum, retries) on top and reports
//! non-responders as typed dropouts while the [`crate::health`] registry
//! decides who participates in future rounds.
//!
//! [`run_round`] is the only way an instruction reaches the clients
//! (shutdown aside). Strict, all-or-nothing rounds are not a separate
//! primitive but a policy: [`RoundPolicy::strict`].
//!
//! [`run_round`]: FederatedRuntime::run_round

use crate::client::{dispatch, FlClient};
use crate::health::{ClientState, HealthPolicy, HealthRegistry, HealthReport};
use crate::log::{Direction, MessageLog};
use crate::message::{Instruction, Reply};
use crate::{FlError, Result};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use ff_trace::Tracer;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-round fault-tolerance policy for [`FederatedRuntime::run_round`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundPolicy {
    /// How long to wait for all replies after the send phase. `None`
    /// blocks indefinitely (only safe with well-behaved clients).
    pub deadline: Option<Duration>,
    /// Minimum healthy replies for the round to count (clamped to ≥ 1).
    /// Below this the round fails with [`FlError::Quorum`].
    pub min_responses: usize,
    /// How many times to re-send to clients that timed out or returned
    /// undecodable bytes (transient faults). Panics and disconnects are
    /// never retried.
    pub retries: u32,
    /// Sleep between retry attempts, scaled linearly by attempt number.
    pub backoff: Duration,
}

impl Default for RoundPolicy {
    fn default() -> Self {
        RoundPolicy {
            deadline: Some(Duration::from_secs(30)),
            min_responses: 1,
            retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

impl RoundPolicy {
    /// Strict rounds over a federation of `n` clients: no deadline, every
    /// client must reply usably, nothing is retried. Any dropout fails the
    /// round with [`FlError::Quorum`].
    pub fn strict(n: usize) -> RoundPolicy {
        RoundPolicy {
            deadline: None,
            min_responses: n,
            retries: 0,
            backoff: Duration::ZERO,
        }
    }
}

/// Result of one fault-tolerant round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round number (1-based, shared with the health registry).
    pub round: u64,
    /// Clients the health registry admitted to this round.
    pub participants: Vec<usize>,
    /// Healthy `(client_id, reply)` pairs, in client order.
    pub replies: Vec<(usize, Reply)>,
    /// Clients that dropped out and why, in client order.
    pub dropouts: Vec<(usize, FlError)>,
}

struct ClientHandle {
    tx: Sender<(u64, Bytes)>,
    rx: Receiver<(u64, Bytes)>,
    join: Option<JoinHandle<()>>,
    next_seq: AtomicU64,
}

/// The federated runtime: owns the client threads and runs the
/// policy-bounded rounds that higher layers (FedForecaster's Algorithm 1, the
/// FedAvg loop) build on.
pub struct FederatedRuntime {
    clients: Vec<ClientHandle>,
    log: MessageLog,
    health: Mutex<HealthRegistry>,
    shutdown_timeout: Duration,
    tracer: Mutex<Tracer>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic of unknown type".into()
    }
}

fn client_loop(
    mut client: Box<dyn FlClient>,
    rx_ins: Receiver<(u64, Bytes)>,
    tx_rep: Sender<(u64, Bytes)>,
) {
    while let Ok((seq, raw)) = rx_ins.recv() {
        let ins = match Instruction::decode(raw) {
            Ok(ins) => ins,
            Err(e) => {
                if tx_rep
                    .send((seq, Reply::Error(e.to_string()).encode()))
                    .is_err()
                {
                    break;
                }
                continue;
            }
        };
        if matches!(ins, Instruction::Shutdown) {
            // Acks bypass wire_transform so a chaos wrapper cannot turn
            // shutdown into a guaranteed timeout.
            let _ = tx_rep.send((seq, Reply::ShutdownAck.encode()));
            break;
        }
        let reply = match catch_unwind(AssertUnwindSafe(|| dispatch(&mut *client, ins))) {
            Ok(reply) => reply,
            Err(payload) => Reply::Panicked(panic_message(payload)),
        };
        // A `None` transform means the reply dropped on the wire; the
        // server times out.
        if let Some(bytes) = client.wire_transform(reply.encode().to_vec()) {
            if tx_rep.send((seq, Bytes::from(bytes))).is_err() {
                break;
            }
        }
    }
}

impl FederatedRuntime {
    /// Spawns one thread per client with the default [`HealthPolicy`].
    pub fn new(clients: Vec<Box<dyn FlClient>>) -> FederatedRuntime {
        FederatedRuntime::with_health_policy(clients, HealthPolicy::default())
    }

    /// Spawns one thread per client with an explicit health policy.
    pub fn with_health_policy(
        clients: Vec<Box<dyn FlClient>>,
        policy: HealthPolicy,
    ) -> FederatedRuntime {
        let log = MessageLog::new();
        let handles: Vec<ClientHandle> = clients
            .into_iter()
            .map(|client| {
                let (tx_ins, rx_ins) = unbounded::<(u64, Bytes)>();
                let (tx_rep, rx_rep) = unbounded::<(u64, Bytes)>();
                let join = std::thread::spawn(move || client_loop(client, rx_ins, tx_rep));
                ClientHandle {
                    tx: tx_ins,
                    rx: rx_rep,
                    join: Some(join),
                    next_seq: AtomicU64::new(0),
                }
            })
            .collect();
        let n = handles.len();
        FederatedRuntime {
            clients: handles,
            log,
            health: Mutex::new(HealthRegistry::new(n, policy)),
            shutdown_timeout: Duration::from_secs(5),
            tracer: Mutex::new(Tracer::disabled()),
        }
    }

    /// Attaches a tracer: rounds get `fl.round` spans and the
    /// `fl.rounds` / `fl.probes` / `fl.retries` / `fl.deadline_misses` /
    /// `fl.dropouts` / `fl.quarantines` counters; the message log feeds
    /// per-message byte histograms.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.log.set_tracer(tracer.clone());
        *self.tracer.lock() = tracer;
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.clients.len()
    }

    /// The message transcript.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// A snapshot of every client's health state.
    pub fn health_report(&self) -> HealthReport {
        self.health.lock().report()
    }

    /// The health state of one client, or `None` for an unknown id.
    pub fn client_state(&self, id: usize) -> Option<ClientState> {
        self.health.lock().state(id)
    }

    /// Exports the full health-registry state for durable checkpointing.
    pub fn export_health(&self) -> crate::health::HealthState {
        self.health.lock().export_state()
    }

    /// Restores a previously exported health-registry state (round
    /// counter, per-client streaks, quarantine and probe schedules).
    /// Errors if the client count differs from this runtime's.
    pub fn restore_health(&self, state: &crate::health::HealthState) -> Result<()> {
        self.health
            .lock()
            .restore_state(state)
            .map_err(FlError::Client)
    }

    /// Bounds how long [`shutdown`](Self::shutdown) (and therefore `Drop`)
    /// waits for acks before detaching hung client threads. Default: 5 s.
    pub fn set_shutdown_timeout(&mut self, timeout: Duration) {
        self.shutdown_timeout = timeout;
    }

    /// Sends pre-encoded instruction bytes to one client. A round encodes
    /// the instruction once and shares the buffer across all recipients
    /// ([`Bytes::clone`] is a reference-count bump, not a copy) — at
    /// 10,000 clients, re-encoding per recipient would dominate the send
    /// phase.
    fn send_encoded(&self, id: usize, encoded: &Bytes) -> Result<u64> {
        let handle = self.clients.get(id).ok_or(FlError::ClientUnavailable(id))?;
        self.log.record(id, Direction::ToClient, encoded);
        let seq = handle.next_seq.fetch_add(1, AtomicOrdering::SeqCst);
        handle
            .tx
            .send((seq, encoded.clone()))
            .map_err(|_| FlError::ClientUnavailable(id))?;
        Ok(seq)
    }

    /// Waits for the reply carrying `seq`, draining stale replies left
    /// over from earlier timed-out rounds.
    fn collect_from(&self, id: usize, seq: u64, deadline: Option<Instant>) -> Result<Reply> {
        let handle = self.clients.get(id).ok_or(FlError::ClientUnavailable(id))?;
        loop {
            let (got, raw) = match deadline {
                None => handle
                    .rx
                    .recv()
                    .map_err(|_| FlError::ClientUnavailable(id))?,
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        match handle.rx.try_recv() {
                            Ok(pair) => pair,
                            Err(TryRecvError::Empty) => return Err(FlError::Timeout(id)),
                            Err(TryRecvError::Disconnected) => {
                                return Err(FlError::ClientUnavailable(id))
                            }
                        }
                    } else {
                        match handle.rx.recv_timeout(at - now) {
                            Ok(pair) => pair,
                            Err(RecvTimeoutError::Timeout) => return Err(FlError::Timeout(id)),
                            Err(RecvTimeoutError::Disconnected) => {
                                return Err(FlError::ClientUnavailable(id))
                            }
                        }
                    }
                }
            };
            self.log.record(id, Direction::ToServer, &raw);
            if got < seq {
                continue; // stale reply from a timed-out round
            }
            if got > seq {
                return Err(FlError::Codec(format!(
                    "sequence desync on client {id}: got {got}, expected {seq}"
                )));
            }
            return Reply::decode(raw);
        }
    }

    /// Runs one fault-tolerant round: the health registry picks the
    /// participants, the instruction is broadcast, and replies are
    /// collected against the policy deadline. Timeouts and undecodable
    /// replies are retried up to `policy.retries` times with linear
    /// backoff; panics and disconnects are terminal for the round. The
    /// round succeeds with whatever healthy subset replied, as long as the
    /// quorum is met; every non-responder is reported as a typed dropout
    /// and recorded as a health failure (driving quarantine).
    pub fn run_round(&self, ins: &Instruction, policy: &RoundPolicy) -> Result<RoundOutcome> {
        let tracer = self.tracer.lock().clone();
        let (round, mut pending, probes) = {
            let mut health = self.health.lock();
            let round = health.begin_round();
            let admitted = health.admitted(round);
            // Quarantined clients in the admitted set are backoff probes.
            let probes = if tracer.is_enabled() {
                admitted
                    .iter()
                    .filter(|id| health.state(**id) == Some(ClientState::Quarantined))
                    .count() as u64
            } else {
                0
            };
            (round, admitted, probes)
        };
        let _round_span = tracer.span_labeled("fl.round", round);
        tracer.counter_add("fl.rounds", 1);
        if probes > 0 {
            tracer.counter_add("fl.probes", probes);
        }
        let participants = pending.clone();
        let encoded = ins.encode(); // once per round, shared across sends
        let mut ok_replies: Vec<(usize, Reply)> = Vec::new();
        let mut dropouts: Vec<(usize, FlError)> = Vec::new();
        let mut attempt: u32 = 0;
        while !pending.is_empty() {
            attempt += 1;
            let mut seqs = Vec::with_capacity(pending.len());
            let mut failures: Vec<(usize, FlError)> = Vec::new();
            for &id in &pending {
                match self.send_encoded(id, &encoded) {
                    Ok(seq) => seqs.push((id, seq)),
                    Err(e) => failures.push((id, e)),
                }
            }
            // One shared deadline per attempt: clients compute in
            // parallel, so the round takes max(deadline, slowest healthy
            // reply), not a per-client sum.
            let deadline = policy.deadline.map(|d| Instant::now() + d);
            for (id, seq) in seqs {
                match self.collect_from(id, seq, deadline) {
                    Ok(Reply::Panicked(_)) => failures.push((id, FlError::ClientPanicked(id))),
                    Ok(reply) => ok_replies.push((id, reply)),
                    Err(e) => failures.push((id, e)),
                }
            }
            let can_retry = attempt <= policy.retries;
            if tracer.is_enabled() {
                let misses = failures
                    .iter()
                    .filter(|(_, e)| matches!(e, FlError::Timeout(_)))
                    .count() as u64;
                if misses > 0 {
                    tracer.counter_add("fl.deadline_misses", misses);
                }
            }
            let (retry, terminal): (Vec<_>, Vec<_>) = failures.into_iter().partition(|(_, e)| {
                can_retry && matches!(e, FlError::Timeout(_) | FlError::Codec(_))
            });
            dropouts.extend(terminal);
            pending = retry.into_iter().map(|(id, _)| id).collect();
            if !pending.is_empty() {
                tracer.counter_add("fl.retries", pending.len() as u64);
            }
            if !pending.is_empty() && !policy.backoff.is_zero() {
                std::thread::sleep(policy.backoff * attempt);
            }
        }
        {
            let mut health = self.health.lock();
            for (id, _) in &ok_replies {
                health.record_success(*id);
            }
            let mut quarantines = 0u64;
            for (id, _) in &dropouts {
                let before = health.state(*id);
                let after = health.record_failure(*id);
                if after == Some(ClientState::Quarantined)
                    && before != Some(ClientState::Quarantined)
                {
                    quarantines += 1;
                }
            }
            if !dropouts.is_empty() {
                tracer.counter_add("fl.dropouts", dropouts.len() as u64);
            }
            if quarantines > 0 {
                tracer.counter_add("fl.quarantines", quarantines);
            }
        }
        ok_replies.sort_by_key(|(id, _)| *id);
        dropouts.sort_by_key(|(id, _)| *id);
        let required = policy.min_responses.max(1);
        if ok_replies.len() < required {
            return Err(FlError::Quorum {
                healthy: ok_replies.len(),
                required,
            });
        }
        Ok(RoundOutcome {
            round,
            participants,
            replies: ok_replies,
            dropouts,
        })
    }

    /// Records that the robust-aggregation guard rejected `id`'s on-time
    /// reply as Byzantine: escalates the client's integrity streak in the
    /// health registry (repeat offenders quarantine exactly like crash
    /// faults) and emits the `fl.updates_rejected` /
    /// `fl.byzantine_suspected` counters. Returns the client's new health
    /// state, or `None` for an unknown id.
    pub fn record_update_rejected(&self, id: usize) -> Option<ClientState> {
        let tracer = self.tracer.lock().clone();
        let (before, after) = {
            let mut health = self.health.lock();
            let before = health.state(id);
            (before, health.record_rejection(id))
        };
        after?;
        tracer.counter_add("fl.updates_rejected", 1);
        if before == Some(ClientState::Healthy) && after != Some(ClientState::Healthy) {
            tracer.counter_add("fl.byzantine_suspected", 1);
        }
        if after == Some(ClientState::Quarantined) && before != Some(ClientState::Quarantined) {
            tracer.counter_add("fl.quarantines", 1);
        }
        after
    }

    /// Records that the guard accepted `id`'s update, clearing its
    /// integrity streak (see
    /// [`HealthRegistry::record_accepted`](crate::health::HealthRegistry::record_accepted)).
    pub fn record_update_accepted(&self, id: usize) {
        self.health.lock().record_accepted(id);
    }

    /// Shuts all clients down within the configured shutdown timeout.
    pub fn shutdown(&mut self) {
        self.shutdown_within(self.shutdown_timeout);
    }

    /// Shuts all clients down, waiting at most `timeout` overall for acks.
    /// Threads that do not ack in time (hung in a handler) are detached
    /// rather than joined, so this — and therefore `Drop` — never blocks
    /// longer than `timeout`.
    pub fn shutdown_within(&mut self, timeout: Duration) {
        // Send phase: best effort. A failed send means the client thread
        // already exited, which is exactly what shutdown wants.
        let encoded = Instruction::Shutdown.encode();
        let acks: Vec<Option<u64>> = (0..self.clients.len())
            .map(|id| self.send_encoded(id, &encoded).ok())
            .collect();
        let deadline = Instant::now() + timeout;
        for (handle, ack) in self.clients.iter_mut().zip(acks) {
            // A failed send means the thread has already exited: joinable.
            let mut done = ack.is_none();
            if let Some(seq) = ack {
                loop {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match handle.rx.recv_timeout(remaining) {
                        Ok((got, _)) if got >= seq => {
                            done = true;
                            break;
                        }
                        Ok(_) => continue, // stale reply from a timed-out round
                        Err(RecvTimeoutError::Disconnected) => {
                            done = true;
                            break;
                        }
                        Err(RecvTimeoutError::Timeout) => break,
                    }
                }
            }
            if let Some(join) = handle.join.take() {
                if done {
                    let _ = join.join();
                }
                // Not done: drop the handle, detaching the hung thread. It
                // exits on its own once its instruction channel closes.
            }
        }
    }
}

impl Drop for FederatedRuntime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{EvalOutput, FitOutput};
    use crate::config::{ConfigMap, ConfigMapExt};

    /// Toy client: holds a private scalar dataset; fit returns its mean.
    struct MeanClient {
        data: Vec<f64>,
    }

    impl FlClient for MeanClient {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            ConfigMap::new().with_int("n", self.data.len() as i64)
        }

        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            let mean = self.data.iter().sum::<f64>() / self.data.len() as f64;
            FitOutput {
                params: vec![mean],
                num_examples: self.data.len() as u64,
                metrics: ConfigMap::new(),
            }
        }

        fn evaluate(&mut self, params: &[f64], _config: &ConfigMap) -> EvalOutput {
            let center = params.first().copied().unwrap_or(0.0);
            let loss = self
                .data
                .iter()
                .map(|v| (v - center) * (v - center))
                .sum::<f64>()
                / self.data.len() as f64;
            EvalOutput {
                loss,
                num_examples: self.data.len() as u64,
                metrics: ConfigMap::new(),
            }
        }
    }

    /// Client that panics on every call.
    struct PanicClient;

    impl FlClient for PanicClient {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            panic!("simulated device crash");
        }
        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            panic!("simulated device crash");
        }
        fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
            panic!("simulated device crash");
        }
    }

    /// Client that sleeps a per-call duration before answering.
    struct SlowClient {
        delays: Vec<Duration>,
        call: usize,
    }

    impl SlowClient {
        fn nap(&mut self) {
            let d = self
                .delays
                .get(self.call)
                .copied()
                .unwrap_or(Duration::ZERO);
            self.call += 1;
            std::thread::sleep(d);
        }
    }

    impl FlClient for SlowClient {
        fn get_properties(&mut self, _config: &ConfigMap) -> ConfigMap {
            self.nap();
            ConfigMap::new().with_int("slow", 1)
        }
        fn fit(&mut self, _params: &[f64], _config: &ConfigMap) -> FitOutput {
            self.nap();
            FitOutput {
                params: vec![],
                num_examples: 1,
                metrics: ConfigMap::new(),
            }
        }
        fn evaluate(&mut self, _params: &[f64], _config: &ConfigMap) -> EvalOutput {
            self.nap();
            EvalOutput {
                loss: 0.0,
                num_examples: 1,
                metrics: ConfigMap::new(),
            }
        }
    }

    fn runtime() -> FederatedRuntime {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient {
                data: vec![1.0, 2.0, 3.0],
            }),
            Box::new(MeanClient {
                data: vec![10.0, 20.0],
            }),
        ];
        FederatedRuntime::new(clients)
    }

    fn strict_round(rt: &FederatedRuntime, ins: &Instruction) -> Vec<(usize, Reply)> {
        rt.run_round(ins, &RoundPolicy::strict(rt.n_clients()))
            .unwrap()
            .replies
    }

    #[test]
    fn every_instruction_kind_round_trips_in_client_order() {
        let rt = runtime();
        let fit = Instruction::Fit {
            params: vec![],
            config: ConfigMap::new(),
        };
        let eval = Instruction::Evaluate {
            params: vec![2.0],
            config: ConfigMap::new(),
        };
        let props = strict_round(&rt, &Instruction::GetProperties(ConfigMap::new()));
        let (fits, evals) = (strict_round(&rt, &fit), strict_round(&rt, &eval));
        // Client 0 holds [1, 2, 3], client 1 holds [10, 20]; the eval
        // center is 2.
        for (id, (n, mean, mse)) in [(3, 2.0, 2.0 / 3.0), (2, 15.0, 194.0)]
            .into_iter()
            .enumerate()
        {
            match (&props[id], &fits[id], &evals[id]) {
                (
                    (p, Reply::Properties(cfg)),
                    (
                        f,
                        Reply::FitRes {
                            params,
                            num_examples,
                            ..
                        },
                    ),
                    (e, Reply::EvaluateRes { loss, .. }),
                ) => {
                    assert_eq!((*p, *f, *e), (id, id, id));
                    assert_eq!(cfg.int_or("n", 0), n);
                    assert_eq!(*num_examples, n as u64);
                    assert!((params[0] - mean).abs() < 1e-12);
                    assert!((loss - mse).abs() < 1e-12);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn log_records_all_traffic() {
        let rt = runtime();
        strict_round(&rt, &Instruction::GetProperties(ConfigMap::new()));
        // 2 instructions + 2 replies.
        assert_eq!(rt.log().len(), 4);
        let (to_client, to_server) = rt.log().byte_totals();
        assert!(to_client > 0 && to_server > 0);
    }

    #[test]
    fn strict_round_fails_on_any_dropout() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![1.0] }),
            Box::new(PanicClient),
        ];
        let rt = FederatedRuntime::new(clients);
        let policy = RoundPolicy::strict(rt.n_clients());
        assert_eq!(policy.deadline, None);
        assert_eq!(policy.retries, 0);
        match rt.run_round(&Instruction::GetProperties(ConfigMap::new()), &policy) {
            Err(FlError::Quorum { healthy, required }) => assert_eq!((healthy, required), (1, 2)),
            other => panic!("expected quorum error, got {other:?}"),
        }
    }

    #[test]
    fn shutdown_is_idempotent_via_drop() {
        let mut rt = runtime();
        rt.shutdown();
        // Dropping after an explicit shutdown must not hang or panic.
        drop(rt);
    }

    #[test]
    fn panicked_client_becomes_structured_dropout() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient {
                data: vec![1.0, 2.0],
            }),
            Box::new(PanicClient),
        ];
        let rt = FederatedRuntime::new(clients);
        let policy = RoundPolicy {
            min_responses: 1,
            ..RoundPolicy::default()
        };
        let outcome = rt
            .run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert_eq!(outcome.participants, vec![0, 1]);
        assert_eq!(outcome.replies.len(), 1);
        assert_eq!(outcome.replies[0].0, 0);
        assert_eq!(outcome.dropouts, vec![(1, FlError::ClientPanicked(1))]);
        // The panicked client's thread survives: the next round still
        // reaches it (and it still answers the well-behaved way a real
        // recovered device would — here it panics again).
        let outcome2 = rt
            .run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert_eq!(outcome2.dropouts.len(), 1);
        // Two consecutive failures quarantine the client.
        assert_eq!(rt.client_state(1), Some(ClientState::Quarantined));
        let outcome3 = rt
            .run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert_eq!(outcome3.participants, vec![0]);
    }

    #[test]
    fn deadline_times_out_stragglers_and_late_reply_is_discarded() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![5.0] }),
            // Slow on the first call only; instant afterwards.
            Box::new(SlowClient {
                delays: vec![Duration::from_millis(400)],
                call: 0,
            }),
        ];
        let mut rt = FederatedRuntime::new(clients);
        rt.set_shutdown_timeout(Duration::from_millis(1500));
        let policy = RoundPolicy {
            deadline: Some(Duration::from_millis(60)),
            min_responses: 1,
            retries: 0,
            backoff: Duration::ZERO,
        };
        let started = Instant::now();
        let outcome = rt
            .run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_millis(350),
            "deadline not enforced"
        );
        assert_eq!(outcome.replies.len(), 1);
        assert_eq!(outcome.dropouts, vec![(1, FlError::Timeout(1))]);
        // Round 2: the straggler's late round-1 reply must be discarded,
        // not mistaken for the round-2 answer.
        std::thread::sleep(Duration::from_millis(450));
        let outcome2 = rt
            .run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert_eq!(
            outcome2.replies.len(),
            2,
            "recovered straggler should answer round 2"
        );
        match &outcome2.replies[1].1 {
            Reply::Properties(cfg) => assert_eq!(cfg.int_or("slow", 0), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rt.client_state(1), Some(ClientState::Healthy));
    }

    #[test]
    fn quorum_unmet_fails_the_round_not_the_runtime() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(PanicClient),
            Box::new(MeanClient { data: vec![1.0] }),
        ];
        let rt = FederatedRuntime::new(clients);
        let policy = RoundPolicy {
            min_responses: 2,
            ..RoundPolicy::default()
        };
        match rt.run_round(&Instruction::GetProperties(ConfigMap::new()), &policy) {
            Err(FlError::Quorum { healthy, required }) => {
                assert_eq!((healthy, required), (1, 2));
            }
            other => panic!("expected quorum error, got {other:?}"),
        }
        // The healthy client is still usable afterwards.
        let relaxed = RoundPolicy {
            min_responses: 1,
            ..RoundPolicy::default()
        };
        let outcome = rt
            .run_round(&Instruction::GetProperties(ConfigMap::new()), &relaxed)
            .unwrap();
        assert_eq!(outcome.replies.len(), 1);
    }

    #[test]
    fn guard_rejections_escalate_health_and_emit_counters() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![1.0] }),
            Box::new(MeanClient { data: vec![2.0] }),
        ];
        let rt = FederatedRuntime::new(clients);
        let tracer = Tracer::enabled();
        rt.set_tracer(tracer.clone());
        let policy = RoundPolicy::default();
        // Two rounds where client 1 replies on time but the guard rejects
        // its update: Suspect, then a fresh quarantine.
        rt.run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert_eq!(
            rt.record_update_rejected(1),
            Some(ClientState::Suspect),
            "first rejection"
        );
        rt.record_update_accepted(0);
        rt.run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
            .unwrap();
        assert_eq!(rt.record_update_rejected(1), Some(ClientState::Quarantined));
        assert_eq!(rt.client_state(1), Some(ClientState::Quarantined));
        assert_eq!(rt.client_state(0), Some(ClientState::Healthy));
        let snap = tracer.snapshot();
        assert_eq!(snap.counter("fl.updates_rejected"), 2);
        assert_eq!(snap.counter("fl.byzantine_suspected"), 1);
        assert_eq!(snap.counter("fl.quarantines"), 1);
        assert_eq!(rt.record_update_rejected(99), None, "unknown id");
    }

    #[test]
    fn tracer_captures_round_spans_counters_and_byte_histograms() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient {
                data: vec![1.0, 2.0],
            }),
            Box::new(PanicClient),
        ];
        let rt = FederatedRuntime::new(clients);
        let tracer = Tracer::enabled();
        rt.set_tracer(tracer.clone());
        let policy = RoundPolicy {
            min_responses: 1,
            ..RoundPolicy::default()
        };
        for _ in 0..2 {
            rt.run_round(&Instruction::GetProperties(ConfigMap::new()), &policy)
                .unwrap();
        }
        let snap = tracer.snapshot();
        let rounds = snap.spans_named("fl.round");
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].label, Some(1));
        assert!(rounds.iter().all(|s| s.end_us.is_some()));
        assert_eq!(snap.counter("fl.rounds"), 2);
        // The panicking client drops out of both rounds and the second
        // failure is a fresh quarantine.
        assert_eq!(snap.counter("fl.dropouts"), 2);
        assert_eq!(snap.counter("fl.quarantines"), 1);
        // Byte histograms flow through the message log in both directions.
        assert!(snap
            .histograms
            .iter()
            .any(|(id, h)| id.name == "fl.msg_bytes_to_client" && !h.is_empty()));
        assert!(snap
            .histograms
            .iter()
            .any(|(id, h)| id.name == "fl.msg_bytes_to_server" && !h.is_empty()));
    }

    #[test]
    fn shutdown_with_hung_client_is_bounded() {
        let clients: Vec<Box<dyn FlClient>> = vec![
            Box::new(MeanClient { data: vec![1.0] }),
            Box::new(SlowClient {
                delays: vec![Duration::from_secs(30)],
                call: 0,
            }),
        ];
        let mut rt = FederatedRuntime::new(clients);
        // Park the slow client inside its 30 s handler.
        let _ = rt.send_encoded(1, &Instruction::GetProperties(ConfigMap::new()).encode());
        rt.set_shutdown_timeout(Duration::from_millis(100));
        let started = Instant::now();
        drop(rt);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drop blocked on a hung client"
        );
    }
}
