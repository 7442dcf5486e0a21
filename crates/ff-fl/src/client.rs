//! The client-side trait, mirroring Flower's `Client` API.

use crate::config::ConfigMap;
use crate::message::{Instruction, Reply};

/// Output of a local training step.
#[derive(Debug, Clone)]
pub struct FitOutput {
    /// Updated local parameters (flat); empty for models whose state
    /// travels as bytes in `metrics`.
    pub params: Vec<f64>,
    /// Number of local training examples (FedAvg weight).
    pub num_examples: u64,
    /// Free-form metrics.
    pub metrics: ConfigMap,
}

/// Output of a local evaluation.
#[derive(Debug, Clone)]
pub struct EvalOutput {
    /// Local validation loss.
    pub loss: f64,
    /// Number of local validation examples.
    pub num_examples: u64,
    /// Free-form metrics.
    pub metrics: ConfigMap,
}

/// A federated client. Implementations own their private data split; the
/// runtime moves each client onto its own thread, so `Send` is required.
pub trait FlClient: Send {
    /// Returns client properties or locally computed statistics
    /// (e.g. meta-features). Never raw data.
    fn get_properties(&mut self, config: &ConfigMap) -> ConfigMap;

    /// Trains locally from the given global parameters and round config.
    fn fit(&mut self, params: &[f64], config: &ConfigMap) -> FitOutput;

    /// Evaluates the given parameters/config on the local validation split.
    fn evaluate(&mut self, params: &[f64], config: &ConfigMap) -> EvalOutput;

    /// Transforms the encoded reply just before it crosses the wire — the
    /// fault-injection hook used by [`crate::chaos::ChaosClient`].
    /// Returning `None` drops the reply entirely (the server observes a
    /// timeout); returning modified bytes simulates wire corruption (the
    /// server observes a codec failure). The default is the identity;
    /// well-behaved clients never override this.
    fn wire_transform(&mut self, encoded_reply: Vec<u8>) -> Option<Vec<u8>> {
        Some(encoded_reply)
    }
}

/// Runs one decoded instruction against a client — the single dispatch
/// both runtimes share. `Shutdown` is acknowledged without touching the
/// client.
pub(crate) fn dispatch(client: &mut dyn FlClient, ins: Instruction) -> Reply {
    match ins {
        Instruction::GetProperties(cfg) => Reply::Properties(client.get_properties(&cfg)),
        Instruction::Fit { params, config } => {
            let out = client.fit(&params, &config);
            Reply::FitRes {
                params: out.params,
                num_examples: out.num_examples,
                metrics: out.metrics,
            }
        }
        Instruction::Evaluate { params, config } => {
            let out = client.evaluate(&params, &config);
            Reply::EvaluateRes {
                loss: out.loss,
                num_examples: out.num_examples,
                metrics: out.metrics,
            }
        }
        Instruction::Shutdown => Reply::ShutdownAck,
    }
}
