//! Integration tests of federated-runtime behaviors through the full
//! FedForecaster client: sampling, fault tolerance, communication
//! accounting, and tree-aggregation modes.

use fedforecaster::aggregate::GlobalModel;
use fedforecaster::client::{FedForecasterClient, OP};
use fedforecaster::config::TreeAggregation;
use fedforecaster::engine::{build_runtime, finalize, run_feature_engineering, RobustCtx};
use fedforecaster::feature_engineering::GlobalFeatureSpec;
use fedforecaster::prelude::*;
use ff_bayesopt::space::{Configuration, ParamValue};
use ff_fl::client::FlClient;
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::fleet::{FleetConfig, FleetRuntime};
use ff_fl::message::Instruction;
use ff_fl::runtime::FederatedRuntime;
use ff_par::ParConfig;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;

fn federation(n_clients: usize) -> Vec<TimeSeries> {
    generate(
        &SynthesisSpec {
            n: 900,
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 3.0,
            }],
            snr: Some(15.0),
            ..Default::default()
        },
        31,
    )
    .split_clients(n_clients)
}

fn strict(rt: &FederatedRuntime) -> RoundPolicy {
    RoundPolicy::strict(rt.n_clients())
}

fn engineer(rt: &FederatedRuntime, n_lags: usize) {
    let spec = GlobalFeatureSpec::lags_only(n_lags);
    run_feature_engineering(rt, ParConfig::auto(), &spec, 0.95, &strict(rt), &mut vec![]).unwrap();
}

fn prepared_runtime(n_clients: usize) -> FederatedRuntime {
    let cfg = EngineConfig::default();
    let rt = build_runtime(&federation(n_clients), &cfg).unwrap();
    engineer(&rt, 4);
    rt
}

fn strict_finalize(
    rt: &FederatedRuntime,
    config: &Configuration,
    mode: TreeAggregation,
) -> (GlobalModel, f64) {
    let outcome = finalize(
        rt,
        ParConfig::auto(),
        config,
        mode,
        &strict(rt),
        &mut vec![],
        &mut RobustCtx::permissive(),
        None,
    )
    .unwrap();
    (outcome.global_model, outcome.test_mse)
}

fn xgb_config() -> Configuration {
    let mut c = Configuration::new();
    c.insert("algorithm".into(), ParamValue::Cat("XGBRegressor".into()));
    c
}

#[test]
fn sampled_rounds_reach_a_strict_subset() {
    // Per-round client sampling (Flower's `fraction_fit`) is the fleet
    // runtime's cohort sampler; it drives the same clients. Each client is
    // engineered and final-fitted locally so an eval round can score it.
    let clients: Vec<Box<dyn FlClient>> = federation(6)
        .iter()
        .map(|s| {
            let mut c = FedForecasterClient::new(s, 0.15, 0.15);
            let spec = GlobalFeatureSpec::lags_only(3).to_config_map();
            c.fit(&[], &spec.with_str(OP, "feature_engineering"));
            let lasso = ConfigMap::new().with_str("algorithm", "Lasso");
            c.fit(&[], &lasso.with_str(OP, "final_fit"));
            Box::new(c) as Box<dyn FlClient>
        })
        .collect();
    let fleet = FleetRuntime::new(
        clients,
        FleetConfig {
            fraction: 0.5,
            seed: 9,
            ..Default::default()
        },
    )
    .unwrap();
    let config = ConfigMap::new().with_str(OP, "test_local");
    let outcome = fleet
        .run_eval_round(vec![], config, &RoundPolicy::default())
        .unwrap();
    assert_eq!(outcome.admitted.len(), 3);
    assert_eq!(outcome.accepted, outcome.admitted);
    assert!(outcome.loss.is_some_and(f64::is_finite));
    let ids = &outcome.admitted;
    assert!(ids.windows(2).all(|w| w[0] < w[1]), "sorted ids {ids:?}");
    assert!(ids.iter().all(|&id| id < 6));
}

#[test]
fn tolerant_broadcast_survives_unknown_ops() {
    // FedForecaster clients answer unknown fit ops with an error metric but
    // a valid reply; round dropouts are about transport-level failures,
    // which a malformed op does NOT produce — so all replies count as
    // healthy here and even the strict quorum is met.
    let rt = prepared_runtime(3);
    let outcome = rt
        .run_round(
            &Instruction::Fit {
                params: vec![],
                config: ConfigMap::new()
                    .with_str(OP, "fit_eval")
                    .with_str("algorithm", "Lasso"),
            },
            &strict(&rt),
        )
        .unwrap();
    assert_eq!(outcome.replies.len(), 3);
    assert!(outcome.dropouts.is_empty());
}

#[test]
fn ensemble_and_per_client_aggregation_both_work_and_differ_in_kind() {
    let rt = prepared_runtime(4);
    let config = xgb_config();
    let (union_model, union_mse) = strict_finalize(&rt, &config, TreeAggregation::EnsembleUnion);
    assert!(matches!(
        union_model,
        GlobalModel::Ensemble { members: 4, .. }
    ));
    assert_eq!(union_model.algorithm(), AlgorithmKind::XGB_REGRESSOR);
    assert!(union_mse.is_finite());
    let (local_model, local_mse) = strict_finalize(&rt, &config, TreeAggregation::PerClient);
    assert!(matches!(local_model, GlobalModel::PerClient { .. }));
    assert!(local_mse.is_finite());
    // On an IID federation (time splits of one homogeneous series) the
    // union should not be catastrophically worse than local deployment.
    assert!(
        union_mse < local_mse * 5.0,
        "union {union_mse} vs local {local_mse}"
    );
}

#[test]
fn auto_aggregation_avoids_biased_union_on_trending_non_iid_data() {
    // A strong trend split by time ⇒ clients live at disjoint levels; the
    // tree union cannot extrapolate and must be rejected by the validation
    // comparison.
    let series = generate(
        &SynthesisSpec {
            n: 800,
            trend: TrendSpec::Linear(0.2),
            snr: Some(50.0),
            ..Default::default()
        },
        77,
    );
    let rt = build_runtime(&series.split_clients(4), &EngineConfig::default()).unwrap();
    engineer(&rt, 4);
    let config = xgb_config();
    let (model, auto_mse) = strict_finalize(&rt, &config, TreeAggregation::Auto);
    assert!(
        matches!(model, GlobalModel::PerClient { .. }),
        "auto mode should reject the biased union, got {model:?}"
    );
    // And the auto choice should not be worse than the forced union.
    let (_, union_mse) = strict_finalize(&rt, &config, TreeAggregation::EnsembleUnion);
    assert!(
        auto_mse <= union_mse * 1.01,
        "auto {auto_mse} vs forced union {union_mse}"
    );
}

#[test]
fn communication_grows_linearly_with_rounds() {
    let clients = federation(3);
    let cfg = EngineConfig::default();
    let rt = build_runtime(&clients, &cfg).unwrap();
    engineer(&rt, 3);
    let (_, before_up) = rt.log().byte_totals();
    let fit_ins = Instruction::Fit {
        params: vec![],
        config: ConfigMap::new()
            .with_str(OP, "fit_eval")
            .with_str("algorithm", "Lasso"),
    };
    rt.run_round(&fit_ins, &strict(&rt)).unwrap();
    let (_, after_one) = rt.log().byte_totals();
    for _ in 0..3 {
        rt.run_round(&fit_ins, &strict(&rt)).unwrap();
    }
    let (_, after_four) = rt.log().byte_totals();
    let per_round = after_one - before_up;
    let growth = after_four - after_one;
    assert!(per_round > 0);
    // Three more identical rounds ⇒ ~3× the per-round upstream bytes.
    assert!(
        (growth as f64 - 3.0 * per_round as f64).abs() < 0.2 * per_round as f64,
        "per-round {per_round}, growth over 3 rounds {growth}"
    );
}

#[test]
fn standalone_client_direct_use() {
    // The client type is usable without the runtime (library flexibility).
    let series = federation(1).pop().unwrap();
    let mut client = FedForecasterClient::new(&series, 0.15, 0.15);
    let props = client.get_properties(&ConfigMap::new().with_str(OP, "meta_features"));
    assert!(props.contains_key("meta_features"));
    let spec = GlobalFeatureSpec::lags_only(3);
    let out = client.fit(
        &[],
        &spec.to_config_map().with_str(OP, "feature_engineering"),
    );
    assert!(!out.metrics.contains_key("error"));
}
