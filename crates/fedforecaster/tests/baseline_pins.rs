//! Differential pins for the baselines: random search, federated N-BEATS
//! (plain and secure) and the adaptive walk-forward loop. The expected
//! values are exact bit patterns recorded from the implementation in which
//! every baseline ran its own blocking copy of each Algorithm-1 stage; the
//! baselines now share the engine's policy-bounded stages under
//! `RoundPolicy::strict`, and every number must stay bit-for-bit the same.

use fedforecaster::adaptive::{AdaptiveConfig, AdaptiveForecaster};
use fedforecaster::budget::Budget;
use fedforecaster::config::EngineConfig;
use fedforecaster::nbeats_baseline::run_federated_nbeats_opts;
use fedforecaster::random_search::RandomSearch;
use ff_metalearn::kb::KnowledgeBase;
use ff_metalearn::metamodel::{MetaClassifierKind, MetaModel};
use ff_metalearn::synth::synthetic_kb;
use ff_timeseries::synthesis::{generate, SeasonSpec, SynthesisSpec, TrendSpec};
use ff_timeseries::TimeSeries;

/// Two federations of different shape: a seasonal one split three ways
/// and a trending one split two ways.
fn federation(which: usize) -> Vec<TimeSeries> {
    match which {
        0 => generate(
            &SynthesisSpec {
                n: 600,
                seasons: vec![SeasonSpec {
                    period: 12.0,
                    amplitude: 2.0,
                }],
                snr: Some(15.0),
                ..Default::default()
            },
            11,
        )
        .split_clients(3),
        _ => generate(
            &SynthesisSpec {
                n: 500,
                trend: TrendSpec::Linear(0.05),
                seasons: vec![SeasonSpec {
                    period: 7.0,
                    amplitude: 1.5,
                }],
                snr: Some(10.0),
                ..Default::default()
            },
            5,
        )
        .split_clients(2),
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

struct RandomSearchPin {
    federation: usize,
    seed: u64,
    best_config: &'static str,
    best_valid_loss: u64,
    test_mse: u64,
    loss_history: &'static [u64],
    bytes: (usize, usize),
}

const RANDOM_SEARCH: &[RandomSearchPin] = &[
    RandomSearchPin {
        federation: 0,
        seed: 0,
        best_config: "{\"algorithm\": Cat(\"HuberRegressor\"), \"enet_l1_ratio\": Float(0.3959290702880972), \"enet_selection\": Cat(\"cyclic\"), \"huber_alpha\": Float(0.32954198254869915), \"huber_epsilon\": Cat(\"1.0\"), \"lasso_alpha\": Float(0.0037097954503660566), \"lasso_selection\": Cat(\"cyclic\"), \"quantile_alpha\": Float(1.198624067896137e-5), \"quantile_q\": Float(0.46859960812702484), \"svr_c\": Float(5.690859574115464), \"svr_epsilon\": Float(0.08120114378151146), \"xgb_learning_rate\": Float(0.4964048789089209), \"xgb_max_depth\": Int(9), \"xgb_n_estimators\": Int(6), \"xgb_reg_lambda\": Float(3.6354950697239126), \"xgb_subsample\": Float(0.6758396696930626)}",
        best_valid_loss: 0x3fc7f35020c43f17,
        test_mse: 0x3fc34475d7691a70,
        loss_history: &[
            0x3fcab3246de4816e,
            0x3fc7fd0603f17128,
            0x3fcc5187a8d69c77,
            0x3fc7f35020c43f17,
            0x3fc867fdbae0fabb,
        ],
        bytes: (15618, 8886),
    },
    RandomSearchPin {
        federation: 0,
        seed: 7,
        best_config: "{\"algorithm\": Cat(\"LinearSVR\"), \"enet_l1_ratio\": Float(0.33411843325398544), \"enet_selection\": Cat(\"random\"), \"huber_alpha\": Float(9.044926038630908), \"huber_epsilon\": Cat(\"1.5\"), \"lasso_alpha\": Float(0.0005771034111705911), \"lasso_selection\": Cat(\"cyclic\"), \"quantile_alpha\": Float(0.005414582934784389), \"quantile_q\": Float(0.30130383908073344), \"svr_c\": Float(3.0485857442144826), \"svr_epsilon\": Float(0.07775872290471407), \"xgb_learning_rate\": Float(0.8546840906587722), \"xgb_max_depth\": Int(9), \"xgb_n_estimators\": Int(15), \"xgb_reg_lambda\": Float(5.666685142506856), \"xgb_subsample\": Float(0.8569738327801594)}",
        best_valid_loss: 0x3fc6e73c9bc394df,
        test_mse: 0x3fc5ba74d1337e0e,
        loss_history: &[
            0x3fd1238b3660fac4,
            0x3ff9e81387396a26,
            0x3fc7479c01c63ff2,
            0x3fce4894e2aeb04c,
            0x3fc6e73c9bc394df,
        ],
        bytes: (15555, 8886),
    },
    RandomSearchPin {
        federation: 1,
        seed: 0,
        best_config: "{\"algorithm\": Cat(\"ElasticNetCV\"), \"enet_l1_ratio\": Float(0.9337577690081753), \"enet_selection\": Cat(\"cyclic\"), \"huber_alpha\": Float(0.3419986468369652), \"huber_epsilon\": Cat(\"1.0\"), \"lasso_alpha\": Float(0.4308251111695595), \"lasso_selection\": Cat(\"cyclic\"), \"quantile_alpha\": Float(0.07078243333923448), \"quantile_q\": Float(0.7279887995915844), \"svr_c\": Float(3.5615876869933025), \"svr_epsilon\": Float(0.07347635411047838), \"xgb_learning_rate\": Float(0.5959407020268056), \"xgb_max_depth\": Int(9), \"xgb_n_estimators\": Int(15), \"xgb_reg_lambda\": Float(7.813628406792529), \"xgb_subsample\": Float(0.5463132634586358)}",
        best_valid_loss: 0x401d5a041e3f498c,
        test_mse: 0x403397d9a8c0dc29,
        loss_history: &[
            0x40204bb0bc170cd4,
            0x401f0641d66c4b42,
            0x402a3c654c6a1365,
            0x401e438eb3b86972,
            0x401d5a041e3f498c,
        ],
        bytes: (10696, 6068),
    },
    RandomSearchPin {
        federation: 1,
        seed: 7,
        best_config: "{\"algorithm\": Cat(\"LinearSVR\"), \"enet_l1_ratio\": Float(0.7109961564427445), \"enet_selection\": Cat(\"random\"), \"huber_alpha\": Float(0.030624164692442706), \"huber_epsilon\": Cat(\"1.5\"), \"lasso_alpha\": Float(0.9960334330839563), \"lasso_selection\": Cat(\"random\"), \"quantile_alpha\": Float(0.0007110092113049248), \"quantile_q\": Float(0.17982984322415868), \"svr_c\": Float(6.556849833035745), \"svr_epsilon\": Float(0.03276950608970134), \"xgb_learning_rate\": Float(0.6213438074814869), \"xgb_max_depth\": Int(6), \"xgb_n_estimators\": Int(14), \"xgb_reg_lambda\": Float(1.3566768312295796), \"xgb_subsample\": Float(0.459437340248546)}",
        best_valid_loss: 0x4018d6ab35cf02a8,
        test_mse: 0x402a6cabef81c826,
        loss_history: &[
            0x402da9c3ddc1e434,
            0x404141724de9b87e,
            0x4018d6ab35cf02a8,
            0x4036815f2da2154b,
            0x401902107e8f8234,
        ],
        bytes: (10658, 6068),
    },
];

#[test]
fn random_search_is_bit_identical_and_reports_every_round() {
    for pin in RANDOM_SEARCH {
        let clients = federation(pin.federation);
        let cfg = EngineConfig {
            budget: Budget::Iterations(5),
            seed: pin.seed,
            ..Default::default()
        };
        let r = RandomSearch::new(cfg).run(&clients).unwrap();
        let case = format!("federation {} seed {}", pin.federation, pin.seed);
        assert_eq!(format!("{:?}", r.best_config), pin.best_config, "{case}");
        assert_eq!(r.best_valid_loss.to_bits(), pin.best_valid_loss, "{case}");
        assert_eq!(r.test_mse.to_bits(), pin.test_mse, "{case}");
        assert_eq!(bits(&r.loss_history), pin.loss_history, "{case}");
        assert_eq!((r.bytes_to_clients, r.bytes_to_server), pin.bytes, "{case}");

        // Every stage runs through the policy-bounded round primitive, so
        // the run reports one entry per round the runtime counted, each
        // with its quorum met and the whole federation participating.
        assert_eq!(r.failed_trials, 0, "{case}");
        assert_eq!(r.rounds.len() as u64, r.health.rounds, "{case}");
        for (k, round) in r.rounds.iter().enumerate() {
            assert_eq!(round.round, k as u64 + 1, "{case}");
            assert!(round.quorum_met, "{case}: round {}", round.round);
            assert_eq!(round.participants, clients.len(), "{case}");
        }
        let trials = r.rounds.iter().filter(|x| x.phase == "optimization");
        assert_eq!(trials.count(), r.evaluations, "{case}");
    }
}

/// `(secure, test_mse bits)` for federation 0, 2 rounds of 15 local steps.
const NBEATS: &[(bool, u64)] = &[(false, 0x3ff8cf7b433db18f), (true, 0x3ff8cf7b433db192)];

#[test]
fn federated_nbeats_is_bit_identical_plain_and_secure() {
    let clients = federation(0);
    let actual: Vec<(bool, u64)> = [false, true]
        .into_iter()
        .map(|secure| {
            let r =
                run_federated_nbeats_opts(&clients, Budget::Iterations(2), 15, false, 3, secure)
                    .unwrap();
            assert_eq!(r.rounds, 2);
            (secure, r.test_mse.to_bits())
        })
        .collect();
    assert_eq!(actual.as_slice(), NBEATS, "actual: {actual:#x?}");
}

/// Per-chunk loss bits of the adaptive loop on a stationary stream.
const ADAPTIVE: &[u64] = &[0x3fdaca9315538b54, 0x3fd5cb413aeb68b5, 0x3fe03755de461814];

#[test]
fn adaptive_chunk_losses_are_bit_identical() {
    let kb = KnowledgeBase::build(&synthetic_kb(8), &[2], 50);
    let meta = MetaModel::train(&kb, MetaClassifierKind::RandomForest, 0).unwrap();
    let streams = generate(
        &SynthesisSpec {
            n: 1200,
            seasons: vec![SeasonSpec {
                period: 12.0,
                amplitude: 3.0,
            }],
            snr: Some(20.0),
            ..Default::default()
        },
        21,
    )
    .split_clients(2);
    let cfg = AdaptiveConfig {
        n_chunks: 3,
        engine: EngineConfig {
            budget: Budget::Iterations(3),
            ..Default::default()
        },
        ..Default::default()
    };
    let r = AdaptiveForecaster::new(cfg, &meta).run(&streams).unwrap();
    let losses: Vec<u64> = r.chunks.iter().map(|c| c.loss.to_bits()).collect();
    assert_eq!(losses.as_slice(), ADAPTIVE, "actual: {losses:#x?}");
}
