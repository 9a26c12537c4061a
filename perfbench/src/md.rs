//! `md_deepmd`: NVE velocity-Verlet MD with `DecomposedMd` on a 2×2×2
//! grid over a replicated Cu supercell, driven by a seeded DeePMD
//! model through `DeepDomainPotential`.
//!
//! The traced run swaps in [`TracedDeep`], a `DomainPotential` that
//! performs the same public calls as `DeepDomainPotential` (keyed env
//! lookup, forward, forces, per-atom residuals) with a span around
//! each and around every `compute_local`; its trajectory must match
//! the untraced one bitwise.

use crate::report::Outcome;
use crate::stats;
use crate::trace::{attribute, Span, Tracer};
use deepmd_core::config::ModelConfig;
use deepmd_core::env_cache::EnvCache;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Snapshot;
use dp_data::generate::{generate, GenScale};
use dp_domain::potential::LocalFrame;
use dp_domain::{DecomposedMd, DeepDomainPotential, DomainPotential};
use dp_mdsim::state::State;
use dp_mdsim::systems::PaperSystem;
use dp_mdsim::Vec3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// 4×4×4 replication of the 108-atom Cu cell: 6 912 atoms.
const REPS: usize = 4;
const GRID: [usize; 3] = [2, 2, 2];
const N_DOMAINS: usize = 8;
const CU_CUTOFF: f64 = 4.5;
const DT_FS: f64 = 1.0;
const TEMPERATURE_K: f64 = 300.0;
/// Steps compared bitwise against the single-domain run.
const CHECK_STEPS: usize = 2;
/// NVE drift bound: 5e-3 eV/atom per 1000 steps, applied pro rata.
const DRIFT_PER_1000_STEPS: f64 = 5e-3;
/// Env-cache slots per domain, as `DeepDomainPotential` keeps them.
const CACHE_SLOTS: usize = 4;

/// Set-ups timed per run.
const SETUP_REPEATS: usize = 3;

/// The generated system and model.
struct Inputs {
    state: State,
    model: DeepPotModel,
}

fn inputs(seed: u64) -> Inputs {
    let (mut state, _) = PaperSystem::Cu.replicate(REPS, REPS, REPS);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    state.jitter_positions(0.05, &mut rng);
    state.init_velocities(TEMPERATURE_K, &mut rng);
    let scale = GenScale {
        frames_per_temperature: 2,
        equilibration: 10,
        stride: 2,
    };
    let frames = generate(PaperSystem::Cu, &scale, seed ^ 0xC0);
    let mut cfg = ModelConfig::small(1, CU_CUTOFF);
    cfg.seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17);
    let model = DeepPotModel::new(cfg, &frames);
    Inputs { state, model }
}

fn engine(
    inp: &Inputs,
    pot: Box<dyn DomainPotential>,
    dims: [usize; 3],
) -> Result<DecomposedMd, String> {
    DecomposedMd::new(&inp.state, pot, dims).map_err(|e| format!("decomposition failed: {e}"))
}

fn deep(inp: &Inputs, n_domains: usize) -> Box<dyn DomainPotential> {
    Box::new(DeepDomainPotential::new(inp.model.clone(), n_domains))
}

/// Positions, velocities and energy bits after some steps.
fn fingerprint(md: &DecomposedMd) -> Vec<u64> {
    let s = md.gather();
    let mut bits = vec![md.energy().to_bits()];
    for v in s.pos.iter().chain(s.vel.iter()) {
        bits.extend(v.0.iter().map(|x| x.to_bits()));
    }
    bits
}

/// What the traced potential records, shared with the stepping loop.
struct Probe {
    tracer: Tracer,
    caches: Vec<EnvCache>,
    centres: AtomicU64,
    ghosts: AtomicU64,
}

impl Probe {
    fn counts(&self) -> (u64, u64, u64, u64) {
        let (mut hits, mut misses) = (0, 0);
        for c in &self.caches {
            let s = c.stats();
            hits += s.hits;
            misses += s.misses;
        }
        (
            self.centres.load(Ordering::Relaxed),
            self.ghosts.load(Ordering::Relaxed),
            hits,
            misses,
        )
    }
}

/// `DeepDomainPotential`'s computation, call for call, with spans.
struct TracedDeep {
    model: DeepPotModel,
    probe: Arc<Probe>,
}

impl DomainPotential for TracedDeep {
    fn cutoff(&self) -> f64 {
        self.model.cfg.rcut
    }

    fn name(&self) -> &'static str {
        "deep-pot/traced"
    }

    fn compute_local(
        &self,
        domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        let probe = &self.probe;
        let tr = &probe.tracer;
        tr.span_lane("domain.potential", domain as u32, || {
            if frame.is_empty() {
                return;
            }
            probe
                .centres
                .fetch_add(frame.len() as u64, Ordering::Relaxed);
            let ghosts = frame.owned.iter().filter(|&&o| !o).count();
            probe.ghosts.fetch_add(ghosts as u64, Ordering::Relaxed);
            let snap = Snapshot {
                cell: frame.cell.lengths(),
                types: frame.types.to_vec(),
                type_names: frame.type_names.to_vec(),
                pos: frame.pos.to_vec(),
                energy: 0.0,
                forces: Vec::new(),
                temperature: 0.0,
            };
            let cache = &probe.caches[domain % probe.caches.len()];
            let m = &self.model;
            let env = tr.span("core.env_build", || {
                cache.get_or_build_keyed(&m.cfg, &m.stats, &snap)
            });
            let pass = tr.span("core.forward", || m.forward_cached(&snap, env));
            let f = tr.span("core.forces", || m.forces(&pass));
            for i in 0..frame.len() {
                energy[i] = pass.atom_energy_residual(i);
                forces[i] = f[i];
            }
        });
    }

    fn energy_offset(&self, types: &[usize]) -> f64 {
        self.model.bias.reference_energy(types)
    }
}

/// Step `md` until `seconds` pass (at least [`CHECK_STEPS`] steps).
/// Returns per-step wall times (ms), total energies per atom (eV) with
/// the initial state first, and the fingerprint after
/// [`CHECK_STEPS`] steps.
fn drive(md: &mut DecomposedMd, seconds: f64) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
    let n = md.n_atoms() as f64;
    let mut e_tot = vec![(md.energy() + md.kinetic_energy()) / n];
    let mut step_ms = Vec::new();
    let mut check = Vec::new();
    let start = Instant::now();
    while step_ms.len() < CHECK_STEPS || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let pe = md.step_nve(DT_FS);
        step_ms.push(1e3 * t.elapsed().as_secs_f64());
        e_tot.push((pe + md.kinetic_energy()) / n);
        if step_ms.len() == CHECK_STEPS {
            check = fingerprint(md);
        }
    }
    (step_ms, e_tot, check)
}

/// Run the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let inp = inputs(seed);
    out.setup_s =
        crate::report::time_setups(SETUP_REPEATS, || engine(&inp, deep(&inp, N_DOMAINS), GRID));
    let mut md = match engine(&inp, deep(&inp, N_DOMAINS), GRID) {
        Ok(md) => md,
        Err(e) => {
            out.failed += 1;
            out.check(false, e);
            return;
        }
    };
    let n = md.n_atoms();
    let budget = if trace { seconds / 2.0 } else { seconds };
    let (step_ms, e_tot, check) = drive(&mut md, budget);
    out.attempted += step_ms.len() as u64;
    let steps = step_ms.len();

    // Correctness: the first steps match the single-domain engine
    // bitwise, and NVE drift stays within the pro-rata bound.
    match engine(&inp, deep(&inp, 1), [1, 1, 1]) {
        Ok(mut single) => {
            for _ in 0..CHECK_STEPS {
                single.step_nve(DT_FS);
            }
            out.check(
                fingerprint(&single) == check,
                format!("first {CHECK_STEPS} steps on the 2x2x2 grid equal the 1x1x1 run bitwise"),
            );
        }
        Err(e) => out.check(false, e),
    }
    let drift = (e_tot[steps] - e_tot[0]).abs();
    let bound = DRIFT_PER_1000_STEPS * steps as f64 / 1000.0;
    out.check(
        drift.is_finite() && drift < bound,
        format!("NVE drift {drift:.3e} eV/atom over {steps} steps within {bound:.3e}"),
    );
    let dev: f64 = e_tot[1..]
        .iter()
        .map(|e| (e - e_tot[0]).powi(2))
        .sum::<f64>()
        / steps as f64;
    let rms_mev = 1e3 * dev.sqrt();

    let lat = stats::summarize(&step_ms).expect("at least one step");
    let atom_steps_per_s = n as f64 * 1e3 / lat.p50;
    out.measured(atom_steps_per_s, &lat);
    out.figure("md_atoms", n as f64, "count");
    out.figure("md_steps", steps as f64, "count");
    out.figure(
        "md_ns_per_day",
        DT_FS * 1e-6 * 86_400.0 * 1e3 / lat.p50,
        "ns/day",
    );
    out.figure("md_energy_drift_mev_atom", 1e3 * drift, "meV/atom");
    out.figure("md_energy_rms_dev_mev_atom", rms_mev, "meV/atom");
    if !trace {
        return;
    }

    let probe = Arc::new(Probe {
        tracer: Tracer::new(),
        caches: (0..N_DOMAINS).map(|_| EnvCache::new(CACHE_SLOTS)).collect(),
        centres: AtomicU64::new(0),
        ghosts: AtomicU64::new(0),
    });
    let pot = TracedDeep {
        model: inp.model.clone(),
        probe: Arc::clone(&probe),
    };
    let tracer = &probe.tracer;
    let mut traced = match DecomposedMd::new(&inp.state, Box::new(pot), GRID) {
        Ok(md) => md,
        Err(e) => {
            out.check(false, format!("decomposition failed: {e}"));
            return;
        }
    };
    // Counts start after the construction's evaluation.
    let before = probe.counts();
    let t0 = tracer.now();
    let mut traced_ms = Vec::new();
    let mut traced_check = Vec::new();
    let start = Instant::now();
    while traced_ms.len() < CHECK_STEPS || start.elapsed().as_secs_f64() < budget {
        let t = Instant::now();
        tracer.span("domain.step", || traced.step_nve(DT_FS));
        traced_ms.push(1e3 * t.elapsed().as_secs_f64());
        if traced_ms.len() == CHECK_STEPS {
            traced_check = fingerprint(&traced);
        }
    }
    let t1 = tracer.now();
    out.attempted += traced_ms.len() as u64;
    out.check(
        traced_check == check,
        format!("traced first {CHECK_STEPS} steps equal the untraced run bitwise"),
    );

    let all = tracer.spans();
    let spans: Vec<Span> = all.iter().filter(|s| s.start >= t0).copied().collect();
    let order = [
        "core.env_build",
        "core.forward",
        "core.forces",
        "domain.potential",
        "domain.step",
    ];
    let (own, unattributed) = attribute(&spans, &order, t0, t1);
    let k = traced_ms.len() as f64;
    let per_step = |ns: u64| ns as f64 / 1e6 / k;
    let (pot_union, _) = attribute(&spans, &["domain.potential"], t0, t1);
    let (step_union, _) = attribute(&spans, &["domain.step"], t0, t1);
    out.layer("core.env_build_ms", per_step(own[0]));
    out.layer("core.forward_ms", per_step(own[1]));
    out.layer("core.forces_ms", per_step(own[2]));
    out.layer("domain.potential_ms", per_step(pot_union[0]));
    out.layer("domain.other_ms", per_step(step_union[0] - pot_union[0]));
    // Per step: slowest domain's potential time over the mean.
    let steps_spans: Vec<&Span> = spans.iter().filter(|s| s.layer == "domain.step").collect();
    let imbalance: Vec<f64> = steps_spans
        .iter()
        .map(|st| {
            let mut per = [0u64; N_DOMAINS];
            for s in spans
                .iter()
                .filter(|s| s.layer == "domain.potential" && s.start >= st.start && s.end <= st.end)
            {
                per[s.lane as usize % N_DOMAINS] += s.len();
            }
            let max = *per.iter().max().expect("domains") as f64;
            let mean = per.iter().sum::<u64>() as f64 / N_DOMAINS as f64;
            max / mean
        })
        .collect();
    out.layer(
        "domain.imbalance",
        imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
    );
    // Every local atom of a sub-frame is a DeePMD centre.
    let after = probe.counts();
    let (centres, ghosts) = ((after.0 - before.0) as f64, (after.1 - before.1) as f64);
    let (hits, misses) = (after.2 - before.2, after.3 - before.3);
    out.layer("domain.centre_evals_per_atom", centres / k / n as f64);
    out.layer("domain.ghosts_per_atom", ghosts / k / n as f64);
    out.layer(
        "core.env_cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let unit_wall_ms = (t1 - t0) as f64 / 1e6 / k;
    out.layer("trace.unit_wall_ms", unit_wall_ms);
    out.layer(
        "trace.unattributed_share",
        unattributed as f64 / (t1 - t0) as f64,
    );
    out.layer(
        "trace.overhead_share",
        stats::median(&traced_ms).unwrap_or(f64::NAN) / lat.p50 - 1.0,
    );
    out.share_check(
        "domain.potential_ms",
        pot_union[0] as f64 / step_union[0] as f64,
        0.80,
        true,
    );
    out.share_check(
        "trace.unattributed_share",
        unattributed as f64 / (t1 - t0) as f64,
        0.10,
        false,
    );
}
