//! The `cutoff`-halo DeePMD path: each owned atom is evaluated once as
//! a centre, ghost-target force terms go back to their owners, and
//! boundary forces are replayed in the global fold order. Everything
//! here is bitwise: against `model.predict`, across domain grids and
//! pool thread counts, over NVE trajectories with migration, and
//! against the `2·cutoff` redundant-centre contract the benchmark's
//! traced potential still drives.

use deepmd_core::config::ModelConfig;
use deepmd_core::env_cache::EnvCache;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::{Dataset, Snapshot};
use dp_domain::{DecomposedMd, DeepDomainPotential, DomainPotential, LocalFrame, LocalSuttonChen};
use dp_mdsim::potential::sutton_chen::SuttonChenParams;
use dp_mdsim::state::State;
use dp_mdsim::systems::PaperSystem;
use dp_mdsim::vec3::Vec3;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// The pool is process-global; serialize tests that resize it.
static POOL_LOCK: Mutex<()> = Mutex::new(());

const CU_CUTOFF: f64 = 4.5;
const GRIDS: [[usize; 3]; 4] = [[1, 1, 1], [2, 1, 1], [1, 2, 2], [2, 2, 2]];
const THREADS: [usize; 2] = [1, 2];

/// Jittered, thermalized Cu supercell (deterministic).
fn cu_state(reps: usize, seed: u64, temperature: f64) -> State {
    let (mut state, _) = PaperSystem::Cu.replicate(reps, reps, reps);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    state.jitter_positions(0.08, &mut rng);
    state.init_velocities(temperature, &mut rng);
    state
}

/// The engine's view of `state` as a frame: positions wrapped with the
/// same map `DecomposedMd::new` uses, so the bits agree.
fn frame_of(state: &State) -> Snapshot {
    Snapshot {
        cell: state.cell.lengths(),
        types: state.types.clone(),
        type_names: state.type_names.clone(),
        pos: state.pos.iter().map(|p| state.cell.wrap(p)).collect(),
        energy: 0.0,
        forces: vec![Vec3::ZERO; state.n_atoms()],
        temperature: 0.0,
    }
}

/// A small seeded Cu model with statistics from two jittered cells.
fn cu_model(seed: u64) -> DeepPotModel {
    let mut ds = Dataset::new("Cu", vec!["Cu".into()]);
    for k in 0..2 {
        let mut f = frame_of(&cu_state(1, seed.wrapping_add(k), 300.0));
        f.energy = -3.5 * f.types.len() as f64 - k as f64;
        ds.push(f);
    }
    let mut cfg = ModelConfig::small(1, CU_CUTOFF);
    cfg.seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(17);
    DeepPotModel::new(cfg, &ds)
}

fn deep_engine(model: &DeepPotModel, state: &State, dims: [usize; 3]) -> DecomposedMd {
    let pot = Box::new(DeepDomainPotential::new(
        model.clone(),
        dims.iter().product(),
    ));
    DecomposedMd::new(state, pot, dims).expect("decompose")
}

fn assert_bits_eq(a: &[Vec3], b: &[Vec3], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for k in 0..3 {
            assert_eq!(
                x.0[k].to_bits(),
                y.0[k].to_bits(),
                "{what}: atom {i} component {k}"
            );
        }
    }
}

/// The benchmark's traced potential, call for call: a `2·cutoff` halo,
/// every sub-frame atom a centre through the keyed env cache, forces
/// over the whole sub-frame.
struct RedundantDeep {
    model: DeepPotModel,
    caches: Vec<EnvCache>,
}

impl DomainPotential for RedundantDeep {
    fn cutoff(&self) -> f64 {
        self.model.cfg.rcut
    }

    fn name(&self) -> &'static str {
        "deep-pot/redundant"
    }

    fn compute_local(
        &self,
        domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        if frame.is_empty() {
            return;
        }
        let snap = Snapshot {
            cell: frame.cell.lengths(),
            types: frame.types.to_vec(),
            type_names: frame.type_names.to_vec(),
            pos: frame.pos.to_vec(),
            energy: 0.0,
            forces: Vec::new(),
            temperature: 0.0,
        };
        let cache = &self.caches[domain % self.caches.len()];
        let m = &self.model;
        let env = cache.get_or_build_keyed(&m.cfg, &m.stats, &snap);
        let pass = m.forward_cached(&snap, env);
        let f = m.forces(&pass);
        for i in 0..frame.len() {
            energy[i] = pass.atom_energy_residual(i);
            forces[i] = f[i];
        }
    }

    fn energy_offset(&self, types: &[usize]) -> f64 {
        self.model.bias.reference_energy(types)
    }
}

#[test]
fn owned_centre_evaluation_equals_predict_bitwise() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = cu_model(11);
    for reps in [1, 2] {
        let state = cu_state(reps, 5 + reps as u64, 300.0);
        let frame = frame_of(&state);
        let reference = model.predict(&frame);
        let pass = model.forward(&frame);
        let per_atom: Vec<f64> = (0..frame.types.len())
            .map(|i| pass.atom_energy_residual(i))
            .collect();
        for dims in GRIDS {
            for threads in THREADS {
                dp_pool::set_threads(threads);
                let eng = deep_engine(&model, &state, dims);
                eng.assert_invariants();
                let label = format!(
                    "{} atoms, grid {dims:?}, threads {threads}",
                    state.n_atoms()
                );
                assert_eq!(
                    eng.energy().to_bits(),
                    reference.energy.to_bits(),
                    "{label}: energy"
                );
                assert_bits_eq(&eng.forces(), &reference.forces, &label);
                for (i, (a, b)) in eng.energies().iter().zip(&per_atom).enumerate() {
                    assert_eq!(a.to_bits(), b.to_bits(), "{label}: per-atom energy {i}");
                }
            }
        }
    }
    dp_pool::set_threads(1);
}

#[test]
fn nve_trajectories_with_migration_are_grid_invariant() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = cu_model(12);
    let state = cu_state(1, 21, 1200.0);
    let steps = 20;
    let run = |dims: [usize; 3], threads: usize| {
        dp_pool::set_threads(threads);
        let mut eng = deep_engine(&model, &state, dims);
        let owners: Vec<Option<usize>> = (0..eng.n_atoms()).map(|g| eng.owner_of(g)).collect();
        let mut energies = Vec::new();
        for _ in 0..steps {
            energies.push(eng.step_nve(1.0).to_bits());
        }
        eng.assert_invariants();
        let migrated = (0..eng.n_atoms())
            .filter(|&g| eng.owner_of(g) != owners[g])
            .count();
        let s = eng.gather();
        (s.pos, s.vel, eng.forces(), energies, migrated)
    };
    let (p_ref, v_ref, f_ref, e_ref, _) = run([1, 1, 1], 1);
    for dims in GRIDS {
        for threads in THREADS {
            let (p, v, f, e, migrated) = run(dims, threads);
            let label = format!("grid {dims:?}, threads {threads}");
            if dims == [2, 2, 2] {
                assert!(
                    migrated > 0,
                    "{label}: the trajectory must cross a domain face"
                );
            }
            assert_eq!(e, e_ref, "{label}: per-step energies");
            assert_bits_eq(&p, &p_ref, &format!("{label}: positions"));
            assert_bits_eq(&v, &v_ref, &format!("{label}: velocities"));
            // A last-bit force error can vanish in the kick; the final
            // forces show it.
            assert_bits_eq(&f, &f_ref, &format!("{label}: forces"));
        }
    }
    dp_pool::set_threads(1);
}

#[test]
fn redundant_centre_contract_matches_the_owned_path() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let model = cu_model(13);
    let state = cu_state(2, 31, 600.0);
    for threads in THREADS {
        dp_pool::set_threads(threads);
        let dims = [2, 2, 2];
        let redundant = RedundantDeep {
            model: model.clone(),
            caches: (0..8).map(|_| EnvCache::new(4)).collect(),
        };
        let mut a = DecomposedMd::new(&state, Box::new(redundant), dims).expect("decompose");
        let mut b = deep_engine(&model, &state, dims);
        for step in 0..3 {
            let label = format!("threads {threads}, step {step}");
            assert_eq!(
                a.energy().to_bits(),
                b.energy().to_bits(),
                "{label}: energy"
            );
            assert_bits_eq(&a.forces(), &b.forces(), &label);
            a.step_nve(1.0);
            b.step_nve(1.0);
        }
    }
    dp_pool::set_threads(1);
}

/// Summed ghosts over all domains, per atom.
fn ghosts_per_atom(eng: &DecomposedMd) -> f64 {
    let ghosts: usize = (0..eng.grid().n_domains()).map(|d| eng.ghost_len(d)).sum();
    ghosts as f64 / eng.n_atoms() as f64
}

#[test]
fn cutoff_halo_halves_the_ghost_count() {
    let _g = POOL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    dp_pool::set_threads(2);
    // The benchmark's MD system: 6 912 Cu atoms on a 2×2×2 grid.
    let state = cu_state(4, 1, 300.0);
    let model = cu_model(14);
    let deep = deep_engine(&model, &state, [2, 2, 2]);
    let pot = Box::new(LocalSuttonChen::new(SuttonChenParams::copper(), CU_CUTOFF));
    let sc = DecomposedMd::new(&state, pot, [2, 2, 2]).expect("decompose");
    let (deep_g, sc_g) = (ghosts_per_atom(&deep), ghosts_per_atom(&sc));
    assert!(deep_g <= 2.0, "deep ghosts per atom {deep_g:.3}");
    assert!(
        sc_g > 4.0,
        "Sutton-Chen keeps its 2·cutoff halo: {sc_g:.3} ghosts per atom"
    );
    dp_pool::set_threads(1);
}
