//! `train_fekf`: data-parallel FEKF training on H2O with the Medium net.
//!
//! The untraced run drives `Trainer::train_fekf_distributed` (two
//! logical devices, real ring allreduce) for a fixed number of epochs
//! per round: one untimed epoch warms the environment cache, the
//! following epochs are timed from the trainer's own epoch records.
//! The traced run re-drives the same iterations through the public
//! calls the trainer makes, with spans around each, and must end on
//! bitwise the same weights.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{attribute, Tracer};
use deepmd_core::config::ModelConfig;
use deepmd_core::env_cache::EnvCache;
use deepmd_core::loss;
use deepmd_core::model::DeepPotModel;
use dp_data::batch::BatchSampler;
use dp_data::dataset::Dataset;
use dp_data::generate::{generate, GenScale};
use dp_mdsim::systems::PaperSystem;
use dp_optim::fekf::{Fekf, FekfConfig};
use dp_parallel::DeviceGroup;
use dp_train::gradients::GradScratch;
use dp_train::targets::{accumulate_energy_target, accumulate_force_targets, Backend};
use dp_train::trainer::{TrainConfig, Trainer};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Frames trained on: four full batches per epoch, so the per-epoch
/// evaluation and rollback snapshot amortize over four iterations.
const TRAIN_FRAMES: usize = 128;
const BATCH: usize = 32;
const DEVICES: usize = 2;
/// Timed epochs per round, after the one warm-up epoch.
const TIMED_EPOCHS: usize = 3;
/// Frames of the trainer's per-epoch evaluation.
const EVAL_FRAMES: usize = 16;
/// Force-group updates per iteration (the trainer's default).
const FORCE_GROUPS: usize = 4;
/// Divergence-guard `P` cap of the trainer's default robust policy.
const P_DIAG_CAP: f64 = 1e12;

/// Set-ups timed per run.
const SETUP_REPEATS: usize = 5;

/// The generated inputs and the freshly initialized model.
pub struct Inputs {
    train: Dataset,
    heldout: Dataset,
    model: DeepPotModel,
}

/// Label an H2O dataset, split it, and initialize the Medium net.
fn set_up(seed: u64) -> Inputs {
    let scale = GenScale {
        frames_per_temperature: 56,
        equilibration: 60,
        stride: 4,
    };
    let all = generate(PaperSystem::H2O, &scale, seed);
    let mut train = Dataset::new(&all.name, all.type_names.clone());
    let mut heldout = Dataset::new(&all.name, all.type_names.clone());
    for (i, f) in all.frames.iter().enumerate() {
        if i < TRAIN_FRAMES {
            train.push(f.clone());
        } else {
            heldout.push(f.clone());
        }
    }
    let (state, pot) = PaperSystem::H2O.preset().instantiate();
    let rcut = pot.cutoff().max(3.0).min(0.5 * state.cell.min_length());
    let mut cfg = ModelConfig::medium(train.n_types(), rcut);
    cfg.seed = seed.wrapping_add(17);
    let model = DeepPotModel::new(cfg, &train);
    black_box(Fekf::new(
        &model.layer_sizes(),
        BATCH,
        FekfConfig::default(),
    ));
    Inputs {
        train,
        heldout,
        model,
    }
}

fn train_config(seed: u64) -> TrainConfig {
    TrainConfig {
        batch_size: BATCH,
        max_epochs: 1 + TIMED_EPOCHS,
        target: None,
        eval_frames: EVAL_FRAMES,
        force_updates: FORCE_GROUPS,
        seed,
        backend: Backend::Manual,
        eval_every: 0,
        env_cache: true,
    }
}

/// One untraced round. Returns the final weights, the per-epoch wall
/// deltas of the timed epochs (s) and the cache misses.
fn plain_round(inp: &Inputs, seed: u64) -> Result<(Vec<f64>, Vec<f64>, u64), String> {
    let mut model = inp.model.clone();
    let mut opt = Fekf::new(&model.layer_sizes(), BATCH, FekfConfig::default());
    let out = Trainer::new(train_config(seed))
        .train_fekf_distributed(
            &mut model,
            &mut opt,
            &inp.train,
            None,
            &DeviceGroup::new(DEVICES),
        )
        .map_err(|e| format!("training failed: {e}"))?;
    let walls: Vec<f64> = out.history.epochs.iter().map(|e| e.wall_s).collect();
    if walls.len() != 1 + TIMED_EPOCHS {
        return Err(format!(
            "trainer ran {} epochs, expected {}",
            walls.len(),
            1 + TIMED_EPOCHS
        ));
    }
    let deltas = walls.windows(2).map(|w| w[1] - w[0]).collect();
    Ok((model.get_params(), deltas, out.env_cache.misses))
}

/// Counters the traced round collects besides spans.
#[derive(Default)]
struct Counters {
    comm_bytes: u64,
    reduce_calls: u64,
}

/// One traced round: the trainer's distributed FEKF loop (clean link,
/// divergence guards every iteration, snapshot at each epoch boundary,
/// no best-state restore) re-driven call by call. Returns the final
/// weights, the epoch-boundary marks (ns), the counters over the timed
/// epochs and the cache hit rate over the timed epochs.
fn traced_round(
    inp: &Inputs,
    seed: u64,
    tr: &Tracer,
) -> Result<(Vec<f64>, Vec<u64>, Counters, f64), String> {
    let train = &inp.train;
    let mut model = inp.model.clone();
    let mut opt = Fekf::new(&model.layer_sizes(), BATCH, FekfConfig::default());
    let devices = DeviceGroup::new(DEVICES);
    let cache = EnvCache::new(train.len());
    let sampler = BatchSampler::new(train.len(), BATCH, false);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_params = model.n_params();
    let scratch: Vec<Mutex<GradScratch>> = (0..DEVICES)
        .map(|_| Mutex::new(GradScratch::new()))
        .collect();
    let mut delta = vec![0.0; n_params];
    let mut best: Option<(f64, Vec<f64>)> = None;
    let mut counters = Counters::default();
    let mut warm_stats = cache.stats();
    tr.span("train.snapshot", || {
        black_box((model.get_params(), opt.state_to_bytes()))
    });
    let mut marks = vec![tr.now()];
    for epoch in 1..=1 + TIMED_EPOCHS {
        for batch in sampler.epoch(&mut rng) {
            let inv_bs = 1.0 / batch.len() as f64;
            // Energy update.
            let m = &model;
            let red = tr.span("parallel.reduce", || {
                devices.map_reduce(&batch, n_params, |rank, shard| {
                    tr.span_lane("train.targets", rank as u32, || {
                        let mut sc = scratch[rank].lock().expect("rank scratch poisoned");
                        let (mut g, mut abes) = (Vec::new(), Vec::new());
                        sc.block_reduce(
                            shard.len(),
                            1,
                            n_params,
                            &|si, blk| {
                                let i = shard[si];
                                let frame = &train.frames[i];
                                let env = tr.span("core.env_build", || {
                                    cache.get_or_build(&m.cfg, &m.stats, i, frame)
                                });
                                let pass = tr.span("core.forward", || m.forward_cached(frame, env));
                                let abe = tr.span("train.targets", || {
                                    accumulate_energy_target(
                                        m,
                                        &pass,
                                        Backend::Manual,
                                        &mut blk.grads,
                                        &mut blk.acc[..n_params],
                                    )
                                });
                                blk.abes[0] += abe;
                            },
                            &mut g,
                            &mut abes,
                        );
                        (g, abes[0])
                    })
                })
            });
            let red = red.map_err(|e| format!("allreduce failed: {e}"))?;
            counters.comm_bytes += red.comm.bytes_sent_per_rank as u64;
            counters.reduce_calls += 1;
            let mean_abe = red.scalar * inv_bs;
            tr.span("optim.kf_step", || {
                opt.step_into(&red.vector, mean_abe, &mut delta)
            });
            tr.span("core.apply_update", || model.apply_update(&delta));
            // Force updates.
            let concat_len = FORCE_GROUPS * n_params + FORCE_GROUPS;
            let m = &model;
            let red = tr.span("parallel.reduce", || {
                devices.map_reduce(&batch, concat_len, |rank, shard| {
                    tr.span_lane("train.targets", rank as u32, || {
                        let mut sc = scratch[rank].lock().expect("rank scratch poisoned");
                        let (mut buf, mut abes) = (Vec::new(), Vec::new());
                        sc.block_reduce(
                            shard.len(),
                            FORCE_GROUPS,
                            n_params,
                            &|si, blk| {
                                let i = shard[si];
                                let frame = &train.frames[i];
                                let env = tr.span("core.env_build", || {
                                    cache.get_or_build(&m.cfg, &m.stats, i, frame)
                                });
                                let pass = tr.span("core.forward", || m.forward_cached(frame, env));
                                let forces = tr.span("core.forces", || m.forces(&pass));
                                tr.span("train.targets", || {
                                    accumulate_force_targets(
                                        m,
                                        &pass,
                                        &forces,
                                        frame,
                                        FORCE_GROUPS,
                                        Backend::Manual,
                                        &mut blk.grads,
                                        &mut blk.coeffs,
                                        &mut blk.acc[..FORCE_GROUPS * n_params],
                                        &mut blk.abes[..FORCE_GROUPS],
                                    )
                                });
                            },
                            &mut buf,
                            &mut abes,
                        );
                        buf.extend_from_slice(&abes);
                        (buf, 0.0)
                    })
                })
            });
            let red = red.map_err(|e| format!("allreduce failed: {e}"))?;
            counters.comm_bytes += red.comm.bytes_sent_per_rank as u64;
            counters.reduce_calls += 1;
            for k in 0..FORCE_GROUPS {
                let g = &red.vector[k * n_params..(k + 1) * n_params];
                let abe = red.vector[FORCE_GROUPS * n_params + k] * inv_bs;
                if g.iter().all(|&v| v == 0.0) {
                    continue;
                }
                tr.span("optim.kf_step", || opt.step_into(g, abe, &mut delta));
                tr.span("core.apply_update", || model.apply_update(&delta));
            }
            // The robust loop's per-iteration divergence guards.
            tr.span("train.snapshot", || {
                black_box(opt.core().first_unhealthy_block(P_DIAG_CAP));
                black_box(model.get_params().iter().any(|v| !v.is_finite()))
            });
        }
        let eval = tr
            .span("train.eval", || loss::evaluate(&model, train, EVAL_FRAMES))
            .combined();
        tr.span("train.snapshot", || {
            if eval.is_finite() && best.as_ref().is_none_or(|(b, _)| eval < *b) {
                best = Some((eval, model.get_params()));
            }
            black_box((model.get_params(), opt.state_to_bytes(), best.clone()))
        });
        marks.push(tr.now());
        if epoch == 1 {
            warm_stats = cache.stats();
            counters = Counters::default();
        }
    }
    let end = cache.stats();
    let (hits, misses) = (end.hits - warm_stats.hits, end.misses - warm_stats.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    Ok((model.get_params(), marks, counters, hit_rate))
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Attribution order of the traced round, most specific first.
const LAYERS: [&str; 9] = [
    "core.env_build",
    "core.forward",
    "core.forces",
    "train.targets",
    "parallel.reduce",
    "optim.kf_step",
    "core.apply_update",
    "train.eval",
    "train.snapshot",
];

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    out.setup_s = crate::report::time_setups(SETUP_REPEATS, || set_up(seed));
    let inp = set_up(seed);
    let iters_per_epoch = TRAIN_FRAMES.div_ceil(BATCH);
    let start = Instant::now();
    let mut rounds: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    let mut last = Duration::ZERO;
    // Traced runs spend half the window on the traced round.
    let budget = if trace { seconds / 2.0 } else { seconds };
    while rounds.is_empty() || (start.elapsed() + last).as_secs_f64() <= budget {
        let t = Instant::now();
        out.attempted += ((1 + TIMED_EPOCHS) * iters_per_epoch) as u64;
        match plain_round(&inp, seed) {
            Ok((params, deltas, misses)) => {
                out.check(
                    misses == inp.train.len() as u64,
                    format!(
                        "env cache built each of {} frames once ({misses} misses)",
                        inp.train.len()
                    ),
                );
                rounds.push((params, deltas));
            }
            Err(e) => {
                out.failed += 1;
                out.check(false, e);
                return;
            }
        }
        last = t.elapsed();
    }
    let params = &rounds[0].0;
    out.check(
        rounds.iter().all(|(p, _)| bits_equal(p, params)),
        format!(
            "{} rounds from one seed end on bitwise equal weights",
            rounds.len()
        ),
    );
    let deltas: Vec<f64> = rounds.iter().flat_map(|(_, d)| d.iter().copied()).collect();
    let fps: Vec<f64> = deltas.iter().map(|d| TRAIN_FRAMES as f64 / d).collect();
    let iter_ms: Vec<f64> = deltas
        .iter()
        .map(|d| 1e3 * d / iters_per_epoch as f64)
        .collect();
    let mut model = inp.model.clone();
    model.set_params(params);
    let m = loss::evaluate(&model, &inp.heldout, usize::MAX);
    out.check(
        m.energy_rmse_per_atom.is_finite() && m.force_rmse.is_finite(),
        format!("held-out RMSEs are finite ({} frames)", inp.heldout.len()),
    );
    let frames_per_s = stats::median(&fps).unwrap_or(0.0);
    let lat = stats::summarize(&iter_ms).expect("at least one timed epoch");
    out.measured(frames_per_s, &lat);
    out.figure("train_frames_per_s", frames_per_s, "frames/s");
    out.figure(
        "train_energy_rmse_mev_atom",
        1e3 * m.energy_rmse_per_atom,
        "meV/atom",
    );
    out.figure("train_force_rmse_ev_a", m.force_rmse, "eV/A");
    out.figure(
        "train_iterations_per_round",
        ((1 + TIMED_EPOCHS) * iters_per_epoch) as f64,
        "count",
    );
    out.figure("train_timed_epochs", deltas.len() as f64, "count");
    if !trace {
        return;
    }

    let tr = Tracer::new();
    out.attempted += ((1 + TIMED_EPOCHS) * iters_per_epoch) as u64;
    let (traced, marks, counters, hit_rate) = match traced_round(&inp, seed, &tr) {
        Ok(r) => r,
        Err(e) => {
            out.failed += 1;
            out.check(false, e);
            return;
        }
    };
    out.check(
        bits_equal(&traced, params),
        "traced round ends on the untraced trainer's weights, bitwise".into(),
    );
    let (t0, t1) = (marks[1], *marks.last().expect("epoch marks"));
    let iters = (TIMED_EPOCHS * iters_per_epoch) as f64;
    let spans = tr.spans();
    let (own, unattributed) = attribute(&spans, &LAYERS, t0, t1);
    let per_iter_ms = |ns: u64| ns as f64 / 1e6 / iters;
    for (layer, ns) in LAYERS.iter().zip(&own) {
        out.layer(&format!("{layer}_ms"), per_iter_ms(*ns));
    }
    let wall = (t1 - t0) as f64;
    let unit_wall_ms = wall / 1e6 / iters;
    let plain_unit_ms = stats::median(&iter_ms).unwrap_or(f64::NAN);
    out.layer("core.env_cache_hit_rate", hit_rate);
    out.layer(
        "parallel.bytes_per_iter",
        counters.comm_bytes as f64 / iters,
    );
    out.layer(
        "parallel.calls_per_iter",
        counters.reduce_calls as f64 / iters,
    );
    out.layer("trace.unit_wall_ms", unit_wall_ms);
    out.layer("trace.unattributed_share", unattributed as f64 / wall);
    out.layer("trace.overhead_share", unit_wall_ms / plain_unit_ms - 1.0);
    out.share_check(
        "optim.kf_step_ms",
        per_iter_ms(own[5]) / unit_wall_ms,
        0.25,
        true,
    );
    out.share_check("core.env_cache_hit_rate", hit_rate, 0.99, true);
    out.share_check(
        "trace.unattributed_share",
        unattributed as f64 / wall,
        0.10,
        false,
    );
}
