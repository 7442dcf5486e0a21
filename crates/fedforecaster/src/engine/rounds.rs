//! Policy-bounded round plumbing shared by every pipeline stage.
//!
//! Every stage drives the protocol through [`FederatedRuntime::run_round`]:
//! each collect is bounded by the policy deadline, clients that time out,
//! panic, or reply garbage become recorded dropouts, and the stage proceeds
//! with whichever healthy subset remains (FedAvg and Equation 1
//! renormalize over survivors automatically) as long as the quorum holds.
//! The baselines run the same stages under [`RoundPolicy::strict`], which
//! makes any dropout fail the round.

use crate::config::EngineConfig;
use crate::report::RoundReport;
use crate::{EngineError, Result};
use ff_fl::config::ConfigMap;
use ff_fl::message::{Instruction, Reply};
use ff_fl::robust::{AggregationStrategy, RejectReason, UpdateGuard};
use ff_fl::runtime::{FederatedRuntime, RoundOutcome, RoundPolicy};
use ff_fl::strategy::aggregate_loss;
use ff_fl::FlError;

/// Per-run robust-aggregation state threaded through every stage:
/// which aggregation rule to apply, the stateful pre-aggregation screen
/// (its running medians span rounds), and whether the final linear fit
/// must go through pairwise masking. Under the default FedAvg strategy
/// `is_robust()` is false and every stage takes its plain FedAvg path.
pub struct RobustCtx {
    /// The server-side aggregation rule.
    pub strategy: AggregationStrategy,
    /// Stateful screen applied to every reply before robust aggregation.
    pub guard: UpdateGuard,
    /// Mask the final-fit coefficient uploads (FedAvg only; enforced by
    /// [`EngineConfig::validate`]).
    pub secure: bool,
}

impl RobustCtx {
    /// Builds the per-run context from a validated engine config.
    pub fn from_config(cfg: &EngineConfig) -> RobustCtx {
        RobustCtx {
            strategy: cfg.aggregation,
            guard: UpdateGuard::new(cfg.guard),
            secure: cfg.secure_aggregation,
        }
    }

    /// Plain FedAvg, no screening, no masking — the context the baselines
    /// use.
    pub fn permissive() -> RobustCtx {
        RobustCtx {
            strategy: AggregationStrategy::FedAvg,
            guard: UpdateGuard::new(Default::default()),
            secure: false,
        }
    }

    /// Whether replies must be screened and robustly aggregated.
    pub fn is_robust(&self) -> bool {
        self.strategy.is_robust()
    }
}

/// Feeds guard verdicts back into the health registry and the round
/// report: every rejection escalates the client's integrity streak (and
/// bumps the `fl.updates_rejected` counter via the runtime); every
/// acceptance clears it.
pub(crate) fn record_screen(
    rt: &FederatedRuntime,
    rounds: &mut [RoundReport],
    idx: usize,
    accepted: &[usize],
    rejected: &[(usize, RejectReason)],
) {
    for id in accepted {
        rt.record_update_accepted(*id);
    }
    for (id, why) in rejected {
        rt.record_update_rejected(*id);
        rounds[idx].rejected.push((*id, why.to_string()));
    }
}

/// Runs one policy-bounded round and appends its [`RoundReport`]. Returns
/// the outcome plus the report's index so the caller can amend the
/// app-level fields (`usable`, `app_errors`, `non_finite`).
pub(crate) fn stage_round(
    rt: &FederatedRuntime,
    phase: &'static str,
    ins: &Instruction,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
) -> Result<(RoundOutcome, usize)> {
    match rt.run_round(ins, policy) {
        Ok(outcome) => {
            rounds.push(RoundReport {
                phase,
                round: outcome.round,
                participants: outcome.participants.len(),
                responses: outcome.replies.len(),
                usable: outcome.replies.len(),
                dropouts: outcome
                    .dropouts
                    .iter()
                    .map(|(id, e)| (*id, e.to_string()))
                    .collect(),
                app_errors: vec![],
                non_finite: vec![],
                rejected: vec![],
                quorum_met: true,
            });
            let idx = rounds.len() - 1;
            Ok((outcome, idx))
        }
        Err(e) => {
            if let FlError::Quorum { healthy, .. } = &e {
                rounds.push(RoundReport {
                    phase,
                    round: rt.health_report().rounds,
                    participants: 0,
                    responses: *healthy,
                    usable: *healthy,
                    dropouts: vec![],
                    app_errors: vec![],
                    non_finite: vec![],
                    rejected: vec![],
                    quorum_met: false,
                });
            }
            Err(EngineError::Federation(e))
        }
    }
}

/// One Evaluate round aggregated by Equation 1 over the finite
/// survivor losses (or the configured robust loss rule when the context
/// is robust). Takes ownership of `params` — callers that still need the
/// vector extract what they keep *before* handing it over rather than
/// cloning a full model copy per evaluation.
pub(crate) fn eval_round(
    rt: &FederatedRuntime,
    params: Vec<f64>,
    op_config: ConfigMap,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
    ctx: &mut RobustCtx,
) -> Result<f64> {
    let ins = Instruction::Evaluate {
        params,
        config: op_config,
    };
    let (outcome, idx) = stage_round(rt, "finalization", &ins, policy, rounds)?;
    let mut candidates: Vec<(usize, f64, u64)> = Vec::new();
    for (id, r) in &outcome.replies {
        match r {
            Reply::EvaluateRes {
                loss, num_examples, ..
            } => candidates.push((*id, *loss, *num_examples)),
            other => record_app_error(&mut rounds[idx], *id, other),
        }
    }
    aggregate_round_losses(rt, rounds, idx, candidates, policy, ctx)
}

/// Aggregates a round's `(client, loss, examples)` candidates into the
/// global loss. A robust context screens every candidate (non-finite ones
/// included) and feeds the verdicts to the health registry before its
/// robust rule; plain FedAvg excludes non-finite losses — recorded on the
/// report, not escalated — and applies Equation 1. Fails the quorum when
/// fewer than `policy.min_responses` usable losses remain.
pub(crate) fn aggregate_round_losses(
    rt: &FederatedRuntime,
    rounds: &mut [RoundReport],
    idx: usize,
    candidates: Vec<(usize, f64, u64)>,
    policy: &RoundPolicy,
    ctx: &mut RobustCtx,
) -> Result<f64> {
    let losses: Vec<(f64, u64)> = if ctx.is_robust() {
        let screened = ctx.guard.screen_losses(candidates);
        let accepted_ids: Vec<usize> = screened.accepted.iter().map(|(id, _, _)| *id).collect();
        record_screen(rt, rounds, idx, &accepted_ids, &screened.rejected);
        screened
            .accepted
            .into_iter()
            .map(|(_, loss, n)| (loss, n))
            .collect()
    } else {
        let mut losses = Vec::new();
        for (id, loss, n) in candidates {
            if loss.is_finite() {
                losses.push((loss, n));
            } else {
                rounds[idx].non_finite.push(id);
            }
        }
        losses
    };
    require_usable(rounds, idx, losses.len(), policy)?;
    if ctx.is_robust() {
        ctx.strategy
            .aggregate_loss(&losses)
            .map_err(EngineError::Federation)
    } else {
        aggregate_loss(&losses).map_err(EngineError::Federation)
    }
}

/// Records a reply the stage cannot use as an application error.
pub(crate) fn record_app_error(report: &mut RoundReport, id: usize, reply: &Reply) {
    let msg = match reply {
        Reply::Error(e) => e.clone(),
        other => format!("unexpected reply {other:?}"),
    };
    report.app_errors.push((id, msg));
}

/// The metrics and example count of a usable `FitRes`. Any other reply,
/// or a `FitRes` carrying an `error` metric, is recorded on the report as
/// an application error.
pub(crate) fn usable_fit<'r>(
    report: &mut RoundReport,
    id: usize,
    reply: &'r Reply,
) -> Option<(&'r ConfigMap, u64)> {
    match reply {
        Reply::FitRes {
            metrics,
            num_examples,
            ..
        } => match metrics.get("error").and_then(|v| v.as_str()) {
            Some(err) => {
                report.app_errors.push((id, err.to_string()));
                None
            }
            None => Some((metrics, *num_examples)),
        },
        other => {
            record_app_error(report, id, other);
            None
        }
    }
}

/// Records how many replies the stage could use and fails the round's
/// quorum when that is below `policy.min_responses`.
pub(crate) fn require_usable(
    rounds: &mut [RoundReport],
    idx: usize,
    usable: usize,
    policy: &RoundPolicy,
) -> Result<()> {
    rounds[idx].usable = usable;
    let required = policy.min_responses.max(1);
    if usable < required {
        rounds[idx].quorum_met = false;
        return Err(EngineError::Federation(FlError::Quorum {
            healthy: usable,
            required,
        }));
    }
    Ok(())
}
