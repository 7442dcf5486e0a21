//! Phases I–III prep: meta-feature collection and aggregation, the
//! federated weighted periodogram, lag-count agreement, and federated
//! feature engineering (§4.2).
//!
//! The recommendation feeds both search flavors: it is the whole space
//! for the flat Table 2 search, and the algorithm axis of the composed
//! pipeline space (`EngineConfig::pipelines`).

use super::rounds::{record_app_error, require_usable, stage_round, usable_fit};
use crate::client::OP;
use crate::config::EngineConfig;
use crate::feature_engineering::{select_features, GlobalFeatureSpec};
use crate::Result;
use ff_fl::config::{ConfigMap, ConfigMapExt};
use ff_fl::message::{Instruction, Reply};
use ff_fl::runtime::{FederatedRuntime, RoundPolicy};
use ff_metalearn::aggregate::GlobalMetaFeatures;
use ff_metalearn::features::ClientMetaFeatures;
use ff_timeseries::periodogram;

/// Phase I: collect per-client meta-features and aggregate them. Returns
/// the global vector and the longest client length. Aggregates whichever
/// clients replied usably; malformed or error replies are recorded per
/// client and count against the quorum.
pub fn collect_global_meta(
    rt: &FederatedRuntime,
    par: ff_par::ParConfig,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<(GlobalMetaFeatures, usize)> {
    par.scope(|| {
        let ins = Instruction::GetProperties(ConfigMap::new().with_str(OP, "meta_features"));
        let (outcome, idx) = stage_round(rt, "meta_features", &ins, policy, rounds)?;
        let mut metas = Vec::new();
        let mut max_len = 0usize;
        for (id, r) in &outcome.replies {
            let Reply::Properties(props) = r else {
                record_app_error(&mut rounds[idx], *id, r);
                continue;
            };
            let parsed = props
                .get("meta_features")
                .and_then(|v| v.as_float_vec())
                .and_then(ClientMetaFeatures::from_vec);
            match parsed {
                Some(mf) => {
                    max_len = max_len.max(props.int_or("n_total", 0) as usize);
                    metas.push(mf);
                }
                None => rounds[idx]
                    .app_errors
                    .push((*id, "missing or malformed meta-features".into())),
            }
        }
        require_usable(rounds, idx, metas.len(), policy)?;
        Ok((GlobalMetaFeatures::aggregate(&metas), max_len))
    })
}

/// §4.2.1(4): the federated weighted periodogram. Clients return spectral
/// summaries on a shared log-period grid; the server sums them (each
/// client's spectrum is normalized to 1) and picks the top-N peaks. If
/// nobody returns a usable spectrum the run degrades gracefully to no
/// seasonality features rather than failing.
pub fn federated_seasonal_periods(
    rt: &FederatedRuntime,
    par: ff_par::ParConfig,
    max_len: usize,
    max_components: usize,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<Vec<f64>> {
    if max_len < 16 {
        return Ok(vec![]);
    }
    par.scope(|| {
        let grid = periodogram::log_period_grid(max_len as f64 / 2.0);
        let ins = Instruction::GetProperties(
            ConfigMap::new()
                .with_str(OP, "spectrum")
                .with_floats("grid_periods", grid.clone()),
        );
        let (outcome, idx) = stage_round(rt, "meta_features", &ins, policy, rounds)?;
        let mut specs: Vec<&[f64]> = Vec::new();
        for (id, r) in &outcome.replies {
            let usable = match r {
                Reply::Properties(p) => p
                    .get("spectrum")
                    .and_then(|v| v.as_float_vec())
                    .filter(|spec| spec.len() == grid.len()),
                _ => None,
            };
            match usable {
                Some(spec) => specs.push(spec),
                None => rounds[idx]
                    .app_errors
                    .push((*id, "missing or mis-sized spectrum".into())),
            }
        }
        rounds[idx].usable = specs.len();
        if specs.is_empty() {
            return Ok(vec![]);
        }
        let agg = sum_spectra(&specs);
        let peaks = periodogram::peaks_on_grid(&grid, &agg, max_components, 5.0, max_len);
        Ok(peaks.into_iter().map(|s| s.period).collect())
    })
}

/// Element-wise sum of client spectra through [`ff_par::par_reduce`]: the
/// combine tree's shape depends only on the spectrum count, so the
/// aggregate is bit-identical at every thread count.
fn sum_spectra(specs: &[&[f64]]) -> Vec<f64> {
    ff_par::par_reduce(
        specs.len(),
        |i| specs[i].to_vec(),
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(&b) {
                *x += y;
            }
            a
        },
    )
    .unwrap_or_default()
}

/// Derives the globally agreed lag count (§4.2.1(3)): the maximum count of
/// significant pACF lags across clients, clamped to `[3, max_lags]`.
pub fn derive_lag_count(global: &GlobalMetaFeatures, max_lags: usize) -> usize {
    let raw = global.get("n_sig_lags_max").unwrap_or(3.0);
    (raw.round() as usize).clamp(3, max_lags.max(3))
}

/// The globally agreed feature spec (§4.2.1): lags only when feature
/// engineering is disabled, otherwise lags plus trend, time and the
/// federated seasonal periods (one more round).
pub fn federated_feature_spec(
    rt: &FederatedRuntime,
    cfg: &EngineConfig,
    global: &GlobalMetaFeatures,
    max_len: usize,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<GlobalFeatureSpec> {
    let n_lags = derive_lag_count(global, cfg.max_lags);
    if cfg.disable_feature_engineering {
        return Ok(GlobalFeatureSpec::lags_only(n_lags));
    }
    let seasonal_periods = federated_seasonal_periods(
        rt,
        cfg.par,
        max_len,
        cfg.max_seasonal_components,
        policy,
        rounds,
    )?;
    Ok(GlobalFeatureSpec {
        lags: (1..=n_lags).collect(),
        seasonal_periods,
        use_trend: true,
        use_time: true,
    })
}

/// Phase III prep: broadcast the feature spec, collect importances, select
/// features (§4.2.2), and broadcast the selection. Returns the kept column
/// indices. Importances come from the responsive subset; clients that miss
/// the selection round keep their full feature set and surface as
/// application errors in later rounds.
pub fn run_feature_engineering(
    rt: &FederatedRuntime,
    par: ff_par::ParConfig,
    spec: &GlobalFeatureSpec,
    threshold: f64,
    policy: &RoundPolicy,
    rounds: &mut Vec<crate::report::RoundReport>,
) -> Result<Vec<usize>> {
    par.scope(|| {
        let ins = Instruction::Fit {
            params: vec![],
            config: spec.to_config_map().with_str(OP, "feature_engineering"),
        };
        let (outcome, idx) = stage_round(rt, "feature_engineering", &ins, policy, rounds)?;
        let mut importances = Vec::new();
        let mut weights = Vec::new();
        for (id, r) in &outcome.replies {
            let Some((metrics, n)) = usable_fit(&mut rounds[idx], *id, r) else {
                continue;
            };
            match metrics.get("importances").and_then(|v| v.as_float_vec()) {
                Some(imp) => {
                    importances.push(imp.to_vec());
                    weights.push(n as f64);
                }
                None => rounds[idx]
                    .app_errors
                    .push((*id, "client sent no importances".into())),
            }
        }
        require_usable(rounds, idx, importances.len(), policy)?;
        let keep = select_features(&importances, &weights, threshold);
        let keep_f: Vec<f64> = keep.iter().map(|&j| j as f64).collect();
        let apply = Instruction::Fit {
            params: vec![],
            config: ConfigMap::new()
                .with_str(OP, "apply_selection")
                .with_floats("keep", keep_f),
        };
        stage_round(rt, "feature_engineering", &apply, policy, rounds)?;
        Ok(keep)
    })
}
