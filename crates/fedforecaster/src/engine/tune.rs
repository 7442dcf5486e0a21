//! Phase III trial evaluation: one federated fit-and-validate round per
//! candidate configuration, aggregated by Equation 1.
//!
//! Candidates from the composed pipeline space need no special handling
//! here: the `pipeline` selector and node hyperparameters travel inside
//! the same wire `ConfigMap` as the algorithm dimensions, and the client
//! dispatches on their presence (see
//! [`crate::search_space::pipeline_space`]).

use super::rounds::{aggregate_round_losses, stage_round, usable_fit, RobustCtx};
use crate::client::OP;
use crate::report::RoundReport;
use crate::search_space::config_to_map;
use crate::{EngineError, Result};
use ff_bayesopt::space::Configuration;
use ff_fl::config::ConfigMapExt;
use ff_fl::message::Instruction;
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_fl::FlError;

/// Evaluates one configuration across the federation: clients fit locally
/// and report validation losses; the server aggregates them via
/// Equation 1 over the responsive clients with finite losses. Non-finite
/// losses and application errors are per-round dropouts. Returns `None`
/// — a failed *trial*, not a failed run — when the round's quorum is
/// unmet; the trial then consumes budget but contributes no loss.
pub fn evaluate_config(
    rt: &FederatedRuntime,
    par: ff_par::ParConfig,
    config: &Configuration,
    policy: &RoundPolicy,
    rounds: &mut Vec<RoundReport>,
    ctx: &mut RobustCtx,
) -> Result<Option<f64>> {
    let loss = par.scope(|| {
        let ins = Instruction::Fit {
            params: vec![],
            config: config_to_map(config).with_str(OP, "fit_eval"),
        };
        let (outcome, idx) = stage_round(rt, "optimization", &ins, policy, rounds)?;
        let candidates: Vec<(usize, f64, u64)> = outcome
            .replies
            .iter()
            .filter_map(|(id, r)| {
                let (metrics, n) = usable_fit(&mut rounds[idx], *id, r)?;
                Some((*id, metrics.float_or("valid_loss", f64::NAN), n))
            })
            .collect();
        aggregate_round_losses(rt, rounds, idx, candidates, policy, ctx)
    });
    match loss {
        Ok(loss) => Ok(Some(loss)),
        Err(EngineError::Federation(FlError::Quorum { .. })) => Ok(None),
        Err(e) => Err(e),
    }
}
