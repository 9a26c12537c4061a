//! The assembled Deep Potential model.
//!
//! Pipeline per atom `i` (paper §2.1):
//!
//! ```text
//! R̃ᵢ (nᵢ×4)  ──┐
//!               ├─ U = R̃ᵀG / n_scale (4×M) ─ D = UᵀU^< (M×M^<) ─ fit ─ Eᵢ
//! G (nᵢ×M) ────┘
//! E_tot = Σᵢ Eᵢ + bias,  F = −∇_r E_tot
//! ```
//!
//! All derivative paths are handwritten (paper §3.4 / Opt1):
//!
//! * [`DeepPotModel::forces`] — reverse sweep to positions using the
//!   product-rule derivative of the symmetry-preserving operator
//!   (paper Eq. 4),
//! * [`DeepPotModel::grad_energy_params`] — `∇_θ E_tot` for the
//!   Kalman-filter energy update,
//! * [`DeepPotModel::grad_force_sum_params`] — exact
//!   `∇_θ (Σ_k c_k F_k)` via a forward-tangent (JVP) sweep followed by
//!   one reverse sweep over the dual computation. This is what replaces
//!   `create_graph=True` double backprop: forces are directional
//!   derivatives of the energy, so their parameter gradient is the
//!   reverse sweep of a tangent program, not a second-order graph.

use crate::config::ModelConfig;
use crate::env::{AtomEnv, EnvStats};
use crate::env_cache::{EnvCache, FrameEnv};
use crate::mlp::{LayerKind, Mlp, MlpCache, MlpDual, MlpGrads};
use dp_data::dataset::{Dataset, Snapshot};
use dp_data::stats::EnergyBias;
use dp_mdsim::Vec3;
use dp_tensor::kernel;
use dp_tensor::Mat;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Model output for one frame.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Total energy (eV), including the per-type bias.
    pub energy: f64,
    /// Forces (eV/Å).
    pub forces: Vec<Vec3>,
}

/// Parameter gradients shaped like the model.
#[derive(Clone, Debug)]
pub struct ModelGrads {
    emb: Vec<MlpGrads>,
    fit: Vec<MlpGrads>,
}

impl ModelGrads {
    /// Reset every entry to zero in place, keeping the allocations —
    /// the per-block scratch of the gradient engine is recycled across
    /// samples and iterations.
    pub fn zero(&mut self) {
        for g in self.emb.iter_mut().chain(self.fit.iter_mut()) {
            g.zero();
        }
    }
}

/// The Deep Potential model.
#[derive(Clone, Debug)]
pub struct DeepPotModel {
    /// Hyper-parameters.
    pub cfg: ModelConfig,
    /// Environment normalization statistics.
    pub stats: EnvStats,
    /// Per-type energy bias removed before fitting.
    pub bias: EnergyBias,
    /// Embedding nets, one per (centre type, neighbour type) pair,
    /// indexed `ti * n_types + tj`.
    pub embeddings: Vec<Mlp>,
    /// Fitting nets, one per centre type.
    pub fittings: Vec<Mlp>,
}

/// One term of the reverse force sweep: centre `centre`'s energy
/// residual depends on neighbour `j` (its env entry `k`) with gradient
/// `dv = ∂Eᵢ/∂r_j`; the centre's own position gets `−dv`. Indices are
/// frame indices. [`DeepPotModel::forces_into`] emits the terms in the
/// order it folds them — ascending centre, then ascending entry — which
/// is the only order that reproduces the fold bitwise.
#[derive(Clone, Copy, Debug)]
pub struct ForceTerm {
    /// Centre atom (frame index).
    pub centre: usize,
    /// Entry index within the centre's environment.
    pub k: usize,
    /// Neighbour atom (frame index).
    pub j: usize,
    /// `∂Eᵢ/∂r_j` (eV/Å).
    pub dv: Vec3,
}

/// Cached forward state of one atom. The atom's environment lives in
/// the pass-level [`FrameEnv`] (shared, possibly cached geometry).
struct AtomPass {
    ti: usize,
    /// This atom's fitting-network output (energy residual, eV).
    energy: f64,
    /// Normalized environment matrix, `nᵢ × 4`.
    r_mat: Mat,
    /// Stacked embedding output, `nᵢ × M`.
    g: Mat,
    /// Per-neighbour-type embedding caches (None for empty blocks).
    emb_caches: Vec<Option<MlpCache>>,
    /// `U = R̃ᵀG / n_scale`, `4 × M`.
    u: Mat,
    fit_cache: MlpCache,
}

/// Forward pass over a frame: per-atom caches plus the energy.
///
/// Borrows the frame (no per-forward `Snapshot` deep copy) and shares
/// the frame geometry via `Arc` — a cache hit makes the whole
/// weight-independent part of the forward free.
pub struct ForwardPass<'f> {
    /// The frame the pass was computed from.
    pub frame: &'f Snapshot,
    /// Per-atom environments (owned fresh build or cached entry).
    env: Arc<FrameEnv>,
    atoms: Vec<AtomPass>,
    /// Network output before adding the bias back.
    pub energy_residual: f64,
    /// Total predicted energy (bias added).
    pub energy: f64,
}

impl ForwardPass<'_> {
    /// Number of centres evaluated (every frame atom unless the pass
    /// came from [`DeepPotModel::forward_centres`]).
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The frame geometry this pass was computed against.
    pub fn frame_env(&self) -> &FrameEnv {
        &self.env
    }

    /// Iterate `(centre type, environment)` per atom (crate-internal:
    /// used by the autograd baseline path).
    pub(crate) fn atom_envs(&self) -> impl Iterator<Item = (usize, &AtomEnv)> {
        self.atoms.iter().zip(self.env.envs.iter()).map(|(a, e)| (a.ti, e))
    }

    /// Energy residual (fitting-network output before the type bias)
    /// of centre `i` — atom `i` for a whole-frame pass. Summing these
    /// in ascending order reproduces `energy_residual` bitwise — the
    /// hook the domain-decomposed engine uses to reduce per-domain
    /// energies in fixed global index order (DESIGN §15).
    pub fn atom_energy_residual(&self, i: usize) -> f64 {
        self.atoms[i].energy
    }
}

impl DeepPotModel {
    /// Initialize a model from a training dataset: computes environment
    /// statistics and the energy bias, then draws weights.
    pub fn new(cfg: ModelConfig, train: &Dataset) -> Self {
        cfg.validate();
        assert_eq!(
            cfg.n_types,
            train.n_types(),
            "config n_types must match the dataset"
        );
        let stats = EnvStats::compute(&cfg, train, 32);
        let bias = EnergyBias::fit(train);
        Self::with_stats(cfg, stats, bias)
    }

    /// Initialize with explicit statistics (tests / deserialization).
    pub fn with_stats(cfg: ModelConfig, stats: EnvStats, bias: EnergyBias) -> Self {
        cfg.validate();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let nt = cfg.n_types;
        let [w0, w1, w2] = cfg.embedding_widths;
        let emb_spec = [
            (1, w0, LayerKind::Tanh),
            (
                w0,
                w1,
                if w0 == w1 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
            (
                w1,
                w2,
                if w1 == w2 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
        ];
        let [f0, f1, f2] = cfg.fitting_widths;
        let fit_spec = [
            (cfg.descriptor_dim(), f0, LayerKind::Tanh),
            (
                f0,
                f1,
                if f0 == f1 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
            (
                f1,
                f2,
                if f1 == f2 { LayerKind::TanhResidual } else { LayerKind::Tanh },
            ),
            (f2, 1, LayerKind::Linear),
        ];
        let embeddings = (0..nt * nt).map(|_| Mlp::init(&emb_spec, &mut rng)).collect();
        let mut fittings: Vec<Mlp> = (0..nt).map(|_| Mlp::init(&fit_spec, &mut rng)).collect();
        // Small-init the scalar output layer: per-atom residuals start
        // near zero, so the initial prediction is the fitted energy bias
        // instead of an O(n_atoms)-eV random offset.
        for fit in &mut fittings {
            let last = fit.layers.last_mut().unwrap();
            let scaled = last.w.scale(0.1);
            last.w = scaled;
        }
        DeepPotModel { cfg, stats, bias, embeddings, fittings }
    }

    // ---- parameter vector plumbing -----------------------------------

    fn mlps(&self) -> impl Iterator<Item = &Mlp> {
        self.embeddings.iter().chain(self.fittings.iter())
    }

    /// Total trainable parameter count.
    pub fn n_params(&self) -> usize {
        self.mlps().map(Mlp::n_params).sum()
    }

    /// Per-layer segment sizes in flattening order — the "layers" the
    /// RLEKF block splitting strategy gathers and splits.
    pub fn layer_sizes(&self) -> Vec<usize> {
        self.mlps()
            .flat_map(|m| m.layers.iter().map(|l| l.n_params()))
            .collect()
    }

    /// Flatten all parameters (layer order: W row-major, then b).
    pub fn get_params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_params());
        for mlp in self.mlps() {
            for l in &mlp.layers {
                out.extend_from_slice(l.w.as_slice());
                out.extend_from_slice(l.b.as_slice());
            }
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `flat.len() != n_params()`.
    pub fn set_params(&mut self, flat: &[f64]) {
        assert_eq!(flat.len(), self.n_params(), "set_params: length mismatch");
        let mut off = 0;
        for mlp in self.embeddings.iter_mut().chain(self.fittings.iter_mut()) {
            for l in &mut mlp.layers {
                let wlen = l.w.len();
                l.w.as_mut_slice().copy_from_slice(&flat[off..off + wlen]);
                off += wlen;
                let blen = l.b.len();
                l.b.as_mut_slice().copy_from_slice(&flat[off..off + blen]);
                off += blen;
            }
        }
    }

    /// Add `delta` to the parameter vector (the optimizer update).
    pub fn apply_update(&mut self, delta: &[f64]) {
        assert_eq!(delta.len(), self.n_params(), "apply_update: length mismatch");
        let mut off = 0;
        for mlp in self.embeddings.iter_mut().chain(self.fittings.iter_mut()) {
            for l in &mut mlp.layers {
                for v in l.w.as_mut_slice() {
                    *v += delta[off];
                    off += 1;
                }
                for v in l.b.as_mut_slice() {
                    *v += delta[off];
                    off += 1;
                }
            }
        }
    }

    /// Zeroed gradient buffers shaped like the model.
    pub fn zero_grads(&self) -> ModelGrads {
        ModelGrads {
            emb: self.embeddings.iter().map(MlpGrads::zeros_like).collect(),
            fit: self.fittings.iter().map(MlpGrads::zeros_like).collect(),
        }
    }

    /// Flatten gradients in the parameter-vector order.
    pub fn flatten_grads(&self, grads: &ModelGrads) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.n_params());
        for g in grads.emb.iter().chain(grads.fit.iter()) {
            for (gw, gb) in &g.layers {
                out.extend_from_slice(gw.as_slice());
                out.extend_from_slice(gb.as_slice());
            }
        }
        out
    }

    /// `out += scale · flatten(grads)` without allocating — the
    /// accumulation step of the frame-parallel gradient reduction.
    ///
    /// # Panics
    /// Panics if `out.len() != n_params()`.
    pub fn add_flattened_scaled(&self, grads: &ModelGrads, scale: f64, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_params(), "add_flattened_scaled: length mismatch");
        let mut off = 0;
        for g in grads.emb.iter().chain(grads.fit.iter()) {
            for (gw, gb) in &g.layers {
                for &v in gw.as_slice() {
                    out[off] += scale * v;
                    off += 1;
                }
                for &v in gb.as_slice() {
                    out[off] += scale * v;
                    off += 1;
                }
            }
        }
    }

    // ---- forward ------------------------------------------------------

    /// Forward pass: energy + per-atom caches for the derivative sweeps.
    /// Builds the frame geometry fresh; [`DeepPotModel::forward_with_cache`]
    /// skips the rebuild when a valid cached entry exists.
    pub fn forward<'f>(&self, frame: &'f Snapshot) -> ForwardPass<'f> {
        let env = Arc::new(FrameEnv::build(&self.cfg, &self.stats, frame));
        self.forward_impl(frame, env)
    }

    /// Forward pass against a cache: one geometry build per frame per
    /// dataset lifetime (steady-state hit rate 1.0).
    pub fn forward_with_cache<'f>(
        &self,
        cache: &EnvCache,
        idx: usize,
        frame: &'f Snapshot,
    ) -> ForwardPass<'f> {
        let env = cache.get_or_build(&self.cfg, &self.stats, idx, frame);
        self.forward_impl(frame, env)
    }

    /// Forward pass for a streamed frame with no stable dataset index
    /// (the serving path): the environment is looked up direct-mapped
    /// by geometry hash, so an MD client re-evaluating the same
    /// configuration — or retrying it against a hot-swapped model with
    /// identical statistics — reuses the geometry build. Bitwise
    /// identical to [`DeepPotModel::forward`] (the cache only ever
    /// serves a hash-verified entry built by the same `build_envs`).
    pub fn forward_keyed<'f>(&self, cache: &EnvCache, frame: &'f Snapshot) -> ForwardPass<'f> {
        let env = cache.get_or_build_keyed(&self.cfg, &self.stats, frame);
        self.forward_impl(frame, env)
    }

    /// Forward pass over a precomputed [`FrameEnv`]. The env must have
    /// been built from this `frame` with this model's config/stats —
    /// [`EnvCache::get_or_build`] guarantees that via the geometry hash.
    pub fn forward_cached<'f>(&self, frame: &'f Snapshot, frame_env: Arc<FrameEnv>) -> ForwardPass<'f> {
        self.forward_impl(frame, frame_env)
    }

    /// Forward pass over the `centres` only (frame indices, ascending):
    /// every frame atom is a candidate neighbour, but only the centres
    /// get environments, descriptors and fitting outputs. Centre `c` of
    /// the pass is bitwise atom `centres[c]` of a whole-frame
    /// [`DeepPotModel::forward`] — the domain engine's owned-centre
    /// evaluation, where the rest of the frame is ghosts. `energy` is
    /// the residual sum plus the centres' type bias.
    pub fn forward_centres<'f>(&self, frame: &'f Snapshot, centres: &[usize]) -> ForwardPass<'f> {
        let env = Arc::new(FrameEnv::build_for(&self.cfg, &self.stats, frame, centres));
        self.forward_impl(frame, env)
    }

    /// The single forward worker every public entry point funnels into.
    /// The entry points differ **only** in where the [`FrameEnv`] comes
    /// from (fresh build / index-mapped cache / geometry-hash-keyed
    /// cache / caller-supplied); the math from here on is identical, so
    /// all four are bitwise-equal for the same geometry. Keep it that
    /// way: any numeric change belongs here, never in a wrapper.
    fn forward_impl<'f>(&self, frame: &'f Snapshot, frame_env: Arc<FrameEnv>) -> ForwardPass<'f> {
        debug_assert_eq!(
            frame_env.geom_hash,
            crate::env_cache::geometry_hash(frame),
            "forward_impl: env does not match the frame geometry"
        );
        let nt = self.cfg.n_types;
        let m = self.cfg.m;
        let inv_n = 1.0 / self.stats.n_scale;
        let mut atoms = Vec::with_capacity(frame_env.envs.len());
        let mut energy_residual = 0.0;
        for (env, &i) in frame_env.envs.iter().zip(&frame_env.centres) {
            let ti = frame.types[i];
            let n_i = env.entries.len();
            // Environment matrix rows.
            let mut r_mat = Mat::zeros(n_i, 4);
            for (k, e) in env.entries.iter().enumerate() {
                r_mat.row_mut(k).copy_from_slice(&e.row);
            }
            // Embedding per neighbour-type block.
            let mut g = Mat::zeros(n_i, m);
            let mut emb_caches: Vec<Option<MlpCache>> = Vec::with_capacity(nt);
            for tj in 0..nt {
                let (a, b) = env.type_ranges[tj];
                if a == b {
                    emb_caches.push(None);
                    continue;
                }
                let s_col = Mat::from_fn(b - a, 1, |r, _| env.entries[a + r].row[0]);
                let (g_blk, cache) = self.embeddings[ti * nt + tj].forward(&s_col);
                for k in 0..(b - a) {
                    g.row_mut(a + k).copy_from_slice(g_blk.row(k));
                }
                emb_caches.push(Some(cache));
            }
            // Descriptor.
            let u = r_mat.t_matmul(&g).scale(inv_n);
            let v = u.slice_cols(0, self.cfg.m_sub);
            let d = u.t_matmul(&v);
            let d_flat = Mat::from_vec(1, self.cfg.descriptor_dim(), d.into_vec());
            let (e_out, fit_cache) = self.fittings[ti].forward(&d_flat);
            let e_atom = e_out.get(0, 0);
            energy_residual += e_atom;
            atoms.push(AtomPass { ti, energy: e_atom, r_mat, g, emb_caches, u, fit_cache });
        }
        let bias = if frame_env.centres.len() == frame.types.len() {
            self.bias.reference_energy(&frame.types)
        } else {
            frame_env.centres.iter().map(|&i| self.bias.per_type[frame.types[i]]).sum()
        };
        let energy = energy_residual + bias;
        ForwardPass { frame, env: frame_env, atoms, energy_residual, energy }
    }

    /// Energy + forces in one call.
    pub fn predict(&self, frame: &Snapshot) -> Prediction {
        let pass = self.forward(frame);
        let forces = self.forces(&pass);
        Prediction { energy: pass.energy, forces }
    }

    // ---- reverse sweep (forces and ∇θ E) -------------------------------

    /// Shared reverse sweep seeded with `dE/dEᵢ = 1`: optionally
    /// accumulates parameter gradients and/or folds the position
    /// gradient `dE/dr` into `dpos` (one slot per frame atom), handing
    /// each [`ForceTerm`] to the sink as it is folded.
    fn backward_energy<F: FnMut(&ForceTerm)>(
        &self,
        pass: &ForwardPass<'_>,
        mut grads: Option<&mut ModelGrads>,
        mut dpos: Option<(&mut [Vec3], F)>,
    ) {
        let nt = self.cfg.n_types;
        let m_sub = self.cfg.m_sub;
        let inv_n = 1.0 / self.stats.n_scale;
        let compute_forces = dpos.is_some();
        let seed = Mat::from_vec(1, 1, vec![1.0]);
        for (ci, atom) in pass.atoms.iter().enumerate() {
            let env = &pass.env.envs[ci];
            let i = pass.env.centres[ci];
            let ti = atom.ti;
            // Fitting backward.
            let gd_flat = self.fittings[ti].backward(
                &atom.fit_cache,
                &seed,
                grads.as_deref_mut().map(|g| &mut g.fit[ti]),
            );
            let gd = Mat::from_vec(self.cfg.m, m_sub, gd_flat.into_vec());
            // Descriptor backward (paper Eq. 4, product rule):
            // dE/dU = V·gdᵀ, plus U·gd into the first M^< columns.
            let gu = kernel::fused("descriptor_bwd", || {
                let v = atom.u.slice_cols(0, m_sub);
                let mut gu = v.matmul_t(&gd);
                let add = atom.u.matmul(&gd);
                kernel::launch("slice_add");
                for r in 0..4 {
                    for c in 0..m_sub {
                        gu.set(r, c, gu.get(r, c) + add.get(r, c));
                    }
                }
                gu
            });
            // dE/dG and (if forces) dE/dR̃.
            let g_g = atom.r_mat.matmul(&gu).scale(inv_n);
            let g_r = if compute_forces {
                Some(atom.g.matmul_t(&gu).scale(inv_n))
            } else {
                None
            };
            // Embedding backward per type block; collect dE/ds.
            let mut g_s = vec![0.0; env.entries.len()];
            for tj in 0..nt {
                let (a, b) = env.type_ranges[tj];
                if a == b {
                    continue;
                }
                let cache = atom.emb_caches[tj].as_ref().unwrap();
                let mut gg_blk = Mat::zeros(b - a, self.cfg.m);
                for k in 0..(b - a) {
                    gg_blk.row_mut(k).copy_from_slice(g_g.row(a + k));
                }
                let gs_blk = self.embeddings[ti * nt + tj].backward(
                    cache,
                    &gg_blk,
                    grads.as_deref_mut().map(|g| &mut g.emb[ti * nt + tj]),
                );
                for k in 0..(b - a) {
                    g_s[a + k] = gs_blk.get(k, 0);
                }
            }
            // Position assembly (forces).
            if let Some((dpos, on_term)) = dpos.as_mut() {
                kernel::launch("force_assembly");
                let g_r = g_r.as_ref().unwrap();
                for (k, e) in env.entries.iter().enumerate() {
                    let mut dvec = [0.0; 3];
                    for (a, dva) in dvec.iter_mut().enumerate() {
                        let mut acc = 0.0;
                        for c in 0..4 {
                            acc += g_r.get(k, c) * e.drow[c][a];
                        }
                        // The embedding input is the same normalized s
                        // as row[0]; chain its gradient through drow[0].
                        acc += g_s[k] * e.drow[0][a];
                        *dva = acc;
                    }
                    let dv = Vec3(dvec);
                    dpos[e.j] += dv;
                    dpos[i] -= dv;
                    on_term(&ForceTerm { centre: i, k, j: e.j, dv });
                }
            }
        }
    }

    /// Forces `F = −∇_r E_tot` from a forward pass (handwritten Opt1
    /// kernels).
    pub fn forces(&self, pass: &ForwardPass<'_>) -> Vec<Vec3> {
        let mut forces = vec![Vec3::ZERO; pass.frame.types.len()];
        self.forces_into(pass, &mut forces, |_| {});
        forces
    }

    /// [`DeepPotModel::forces`] into a caller's buffer (one slot per
    /// frame atom, overwritten), handing every [`ForceTerm`] to
    /// `on_term` in fold order. For a centre pass the result holds only
    /// the evaluated centres' contributions — the domain engine
    /// completes atoms near a foreign region from the terms (DESIGN
    /// §15.3).
    ///
    /// # Panics
    /// Panics if `forces.len()` is not the frame's atom count.
    pub fn forces_into(
        &self,
        pass: &ForwardPass<'_>,
        forces: &mut [Vec3],
        on_term: impl FnMut(&ForceTerm),
    ) {
        assert_eq!(forces.len(), pass.frame.types.len(), "forces_into: one slot per frame atom");
        forces.fill(Vec3::ZERO);
        self.backward_energy(pass, None, Some((&mut *forces, on_term)));
        // F = −dE/dr.
        for f in forces.iter_mut() {
            *f = -*f;
        }
    }

    /// `∇_θ E_tot` as a flat vector (the Kalman-filter energy update
    /// gradient; `h = E_tot` in Algorithm 1).
    pub fn grad_energy_params(&self, pass: &ForwardPass<'_>) -> Vec<f64> {
        let mut grads = self.zero_grads();
        self.backward_energy_params(pass, &mut grads);
        self.flatten_grads(&grads)
    }

    /// Accumulate `∇_θ E_tot` into a caller-owned (zeroed or partially
    /// summed) gradient buffer — the allocation-free form used by the
    /// frame-parallel gradient engine.
    pub fn backward_energy_params(&self, pass: &ForwardPass<'_>, grads: &mut ModelGrads) {
        self.backward_energy(pass, Some(grads), None::<(&mut [Vec3], fn(&ForceTerm))>);
    }

    // ---- dual sweep (∇θ of force contractions) -------------------------

    /// Exact `∇_θ (Σ_k c_k · F_k)` where `coeffs` is the flattened
    /// per-component contraction vector (length `3 · n_atoms`).
    ///
    /// Used by the Kalman-filter force updates (`c = ±1` over a force
    /// group) and the Adam force-loss gradient (`c = 2(F̂ − F)/3N`).
    pub fn grad_force_sum_params(&self, pass: &ForwardPass<'_>, coeffs: &[f64]) -> Vec<f64> {
        let mut grads = self.zero_grads();
        self.grad_force_sum_params_into(pass, coeffs, &mut grads);
        self.flatten_grads(&grads)
    }

    /// Accumulating form of [`DeepPotModel::grad_force_sum_params`]:
    /// adds `∇_θ (Σ_k c_k F_k)` into a caller-owned gradient buffer.
    pub fn grad_force_sum_params_into(
        &self,
        pass: &ForwardPass<'_>,
        coeffs: &[f64],
        grads: &mut ModelGrads,
    ) {
        let n_atoms = pass.frame.types.len();
        assert_eq!(coeffs.len(), 3 * n_atoms, "coeffs must be 3·n_atoms long");
        let nt = self.cfg.n_types;
        let m_sub = self.cfg.m_sub;
        let inv_n = 1.0 / self.stats.n_scale;
        let c_at = |k: usize| Vec3::new(coeffs[3 * k], coeffs[3 * k + 1], coeffs[3 * k + 2]);

        // φ = Σ_k c_k F_k = −Ė with position tangent ṙ = c, so seed the
        // reverse-over-dual sweep with dφ/dĖᵢ = −1.
        let zero_seed = Mat::zeros(1, 1);
        let neg_seed = Mat::from_vec(1, 1, vec![-1.0]);

        for (ci, atom) in pass.atoms.iter().enumerate() {
            let env = &pass.env.envs[ci];
            let i = pass.env.centres[ci];
            let ti = atom.ti;
            let n_i = env.entries.len();
            // Tangent env rows: ṙow[c] = drow[c]·(c_j − c_i).
            kernel::launch("env_tangent");
            let mut r_dot = Mat::zeros(n_i, 4);
            for (k, e) in env.entries.iter().enumerate() {
                let rel = c_at(e.j) - c_at(i);
                for c in 0..4 {
                    let mut acc = 0.0;
                    for a in 0..3 {
                        acc += e.drow[c][a] * rel.0[a];
                    }
                    r_dot.set(k, c, acc);
                }
            }
            // Embedding JVP per block (ṡ is column 0 of the tangent).
            let mut g_dot = Mat::zeros(n_i, self.cfg.m);
            let mut duals: Vec<Option<MlpDual>> = Vec::with_capacity(nt);
            for tj in 0..nt {
                let (a, b) = env.type_ranges[tj];
                if a == b {
                    duals.push(None);
                    continue;
                }
                let s_dot = Mat::from_fn(b - a, 1, |r, _| r_dot.get(a + r, 0));
                let cache = atom.emb_caches[tj].as_ref().unwrap();
                let (gd_blk, dual) = self.embeddings[ti * nt + tj].jvp(cache, &s_dot);
                for k in 0..(b - a) {
                    g_dot.row_mut(a + k).copy_from_slice(gd_blk.row(k));
                }
                duals.push(Some(dual));
            }
            // Descriptor JVP.
            let u_dot = r_dot
                .t_matmul(&atom.g)
                .add(&atom.r_mat.t_matmul(&g_dot))
                .scale(inv_n);
            let v = atom.u.slice_cols(0, m_sub);
            let v_dot = u_dot.slice_cols(0, m_sub);
            let d_dot = u_dot.t_matmul(&v).add(&atom.u.t_matmul(&v_dot));
            let d_dot_flat = Mat::from_vec(1, self.cfg.descriptor_dim(), d_dot.into_vec());
            // Fitting JVP + dual reverse.
            let (_e_dot, fit_dual) = self.fittings[ti].jvp(&atom.fit_cache, &d_dot_flat);
            let (gd_flat, gddot_flat) = self.fittings[ti].dual_backward(
                &atom.fit_cache,
                &fit_dual,
                &zero_seed,
                &neg_seed,
                Some(&mut grads.fit[ti]),
            );
            let a_mat = Mat::from_vec(self.cfg.m, m_sub, gd_flat.into_vec()); // dφ/dD
            let b_mat = Mat::from_vec(self.cfg.m, m_sub, gddot_flat.into_vec()); // dφ/dḊ
            // Descriptor dual reverse:
            // gU   = V̇·Bᵀ + V·Aᵀ, first m< cols += U̇·B + U·A
            // gU̇  = V·Bᵀ,        first m< cols += U·B
            let (gu, gudot) = kernel::fused("descriptor_dual_bwd", || {
                let mut gu = v_dot.matmul_t(&b_mat).add(&v.matmul_t(&a_mat));
                let add_u = u_dot.matmul(&b_mat).add(&atom.u.matmul(&a_mat));
                let mut gudot = v.matmul_t(&b_mat);
                let add_ud = atom.u.matmul(&b_mat);
                kernel::launch("slice_add");
                for r in 0..4 {
                    for c in 0..m_sub {
                        gu.set(r, c, gu.get(r, c) + add_u.get(r, c));
                        gudot.set(r, c, gudot.get(r, c) + add_ud.get(r, c));
                    }
                }
                (gu, gudot)
            });
            // gG = (R̃·gU + Ṙ·gU̇)/n ; gĠ = R̃·gU̇/n.
            let g_g = atom
                .r_mat
                .matmul(&gu)
                .add(&r_dot.matmul(&gudot))
                .scale(inv_n);
            let g_gdot = atom.r_mat.matmul(&gudot).scale(inv_n);
            // Embedding dual backward per block.
            for (tj, dual) in duals.iter().enumerate() {
                let (a, b) = env.type_ranges[tj];
                if a == b {
                    continue;
                }
                let cache = atom.emb_caches[tj].as_ref().unwrap();
                let dual = dual.as_ref().unwrap();
                let mut gy = Mat::zeros(b - a, self.cfg.m);
                let mut gydot = Mat::zeros(b - a, self.cfg.m);
                for k in 0..(b - a) {
                    gy.row_mut(k).copy_from_slice(g_g.row(a + k));
                    gydot.row_mut(k).copy_from_slice(g_gdot.row(a + k));
                }
                let _ = self.embeddings[ti * nt + tj].dual_backward(
                    cache,
                    dual,
                    &gy,
                    &gydot,
                    Some(&mut grads.emb[ti * nt + tj]),
                );
            }
        }
    }

    /// Directly evaluate `Σ_k c_k · F_k` via the tangent sweep alone
    /// (cheaper than assembling all forces; used for validation).
    pub fn force_contraction(&self, pass: &ForwardPass<'_>, coeffs: &[f64]) -> f64 {
        let forces = self.forces(pass);
        forces
            .iter()
            .enumerate()
            .map(|(k, f)| {
                f.0[0] * coeffs[3 * k] + f.0[1] * coeffs[3 * k + 1] + f.0[2] * coeffs[3 * k + 2]
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dp_mdsim::lattice::{rocksalt, Species};
    use rand::Rng;

    /// A small two-type frame with irregular geometry.
    fn toy_frame(seed: u64) -> Snapshot {
        let mut s = rocksalt(Species::new("A", 20.0), Species::new("B", 30.0), 4.4, [1, 1, 1]);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        s.jitter_positions(0.25, &mut rng);
        Snapshot {
            cell: s.cell.lengths(),
            types: s.types.clone(),
            type_names: s.type_names.clone(),
            pos: s.pos.clone(),
            energy: -10.0,
            forces: vec![Vec3::ZERO; s.n_atoms()],
            temperature: 300.0,
        }
    }

    fn toy_model(seed: u64) -> DeepPotModel {
        let mut cfg = ModelConfig::small(2, 2.1);
        cfg.rcut_smooth = 1.2;
        cfg.seed = seed;
        let mut ds = Dataset::new("toy", vec!["A".into(), "B".into()]);
        ds.push(toy_frame(1));
        ds.push(toy_frame(2));
        DeepPotModel::new(cfg, &ds)
    }

    #[test]
    fn forward_is_finite_and_deterministic() {
        let model = toy_model(7);
        let f = toy_frame(3);
        let p1 = model.forward(&f);
        let p2 = model.forward(&f);
        assert!(p1.energy.is_finite());
        assert_eq!(p1.energy, p2.energy);
    }

    #[test]
    fn params_roundtrip() {
        let mut model = toy_model(8);
        let p = model.get_params();
        assert_eq!(p.len(), model.n_params());
        let mut p2 = p.clone();
        for v in &mut p2 {
            *v += 0.01;
        }
        model.set_params(&p2);
        assert_eq!(model.get_params(), p2);
        let delta: Vec<f64> = p.iter().zip(&p2).map(|(a, b)| a - b).collect();
        model.apply_update(&delta);
        let back = model.get_params();
        for (a, b) in back.iter().zip(&p) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn layer_sizes_sum_to_param_count() {
        let model = toy_model(9);
        assert_eq!(model.layer_sizes().iter().sum::<usize>(), model.n_params());
        // 2 types: 4 embedding nets × 3 layers + 2 fitting nets × 4 layers.
        assert_eq!(model.layer_sizes().len(), 4 * 3 + 2 * 4);
    }

    #[test]
    fn forces_match_finite_difference_of_energy() {
        let model = toy_model(10);
        let frame = toy_frame(4);
        let pass = model.forward(&frame);
        let forces = model.forces(&pass);
        let h = 1e-6;
        for (i, force) in forces.iter().enumerate() {
            for a in 0..3 {
                let mut fp = frame.clone();
                fp.pos[i].0[a] += h;
                let mut fm = frame.clone();
                fm.pos[i].0[a] -= h;
                let fd = -(model.forward(&fp).energy - model.forward(&fm).energy) / (2.0 * h);
                let an = force.0[a];
                assert!(
                    (fd - an).abs() < 1e-5 * (1.0 + fd.abs()),
                    "atom {i} comp {a}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn energy_param_gradient_matches_finite_difference() {
        let model = toy_model(11);
        let frame = toy_frame(5);
        let pass = model.forward(&frame);
        let grad = model.grad_energy_params(&pass);
        let h = 1e-6;
        let p0 = model.get_params();
        // Probe a spread of parameters.
        let stride = (p0.len() / 60).max(1);
        for e in (0..p0.len()).step_by(stride) {
            let eval = |delta: f64| {
                let mut m = model.clone();
                let mut p = p0.clone();
                p[e] += delta;
                m.set_params(&p);
                m.forward(&frame).energy
            };
            let fd = (eval(h) - eval(-h)) / (2.0 * h);
            assert!(
                (fd - grad[e]).abs() < 1e-5 * (1.0 + fd.abs()),
                "param {e}: fd {fd} vs {}",
                grad[e]
            );
        }
    }

    #[test]
    fn force_sum_param_gradient_matches_finite_difference() {
        let model = toy_model(12);
        let frame = toy_frame(6);
        let n = frame.types.len();
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let coeffs: Vec<f64> = (0..3 * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let pass = model.forward(&frame);
        let grad = model.grad_force_sum_params(&pass, &coeffs);
        let h = 1e-6;
        let p0 = model.get_params();
        let stride = (p0.len() / 50).max(1);
        for e in (0..p0.len()).step_by(stride) {
            let eval = |delta: f64| {
                let mut m = model.clone();
                let mut p = p0.clone();
                p[e] += delta;
                m.set_params(&p);
                let pass = m.forward(&frame);
                m.force_contraction(&pass, &coeffs)
            };
            let fd = (eval(h) - eval(-h)) / (2.0 * h);
            assert!(
                (fd - grad[e]).abs() < 2e-5 * (1.0 + fd.abs()),
                "param {e}: fd {fd} vs {}",
                grad[e]
            );
        }
    }

    #[test]
    fn translation_invariance() {
        let model = toy_model(13);
        let frame = toy_frame(7);
        let e0 = model.forward(&frame).energy;
        let mut shifted = frame.clone();
        for p in &mut shifted.pos {
            *p += Vec3::new(1.37, -0.6, 2.05);
        }
        let e1 = model.forward(&shifted).energy;
        assert!((e0 - e1).abs() < 1e-9, "translation changed energy: {e0} vs {e1}");
    }

    #[test]
    fn rotation_equivariance_under_axis_permutation() {
        // Cubic cell: cyclic permutation of the axes is a rigid rotation
        // the cell maps onto itself. Energy must be invariant and forces
        // must co-rotate.
        let model = toy_model(14);
        let frame = toy_frame(8);
        let p0 = model.predict(&frame);
        let mut rot = frame.clone();
        for p in &mut rot.pos {
            *p = Vec3::new(p.y(), p.z(), p.x());
        }
        let p1 = model.predict(&rot);
        assert!((p0.energy - p1.energy).abs() < 1e-9);
        for (f0, f1) in p0.forces.iter().zip(&p1.forces) {
            let expect = Vec3::new(f0.y(), f0.z(), f0.x());
            assert!((*f1 - expect).norm() < 1e-9);
        }
    }

    #[test]
    fn permutation_invariance() {
        let model = toy_model(15);
        let frame = toy_frame(9);
        let e0 = model.forward(&frame).energy;
        let f0 = model.forces(&model.forward(&frame));
        // Swap two atoms of the same type.
        let same_type: Vec<usize> = (0..frame.types.len())
            .filter(|&i| frame.types[i] == frame.types[0])
            .collect();
        assert!(same_type.len() >= 2);
        let (a, b) = (same_type[0], same_type[1]);
        let mut perm = frame.clone();
        perm.pos.swap(a, b);
        let e1 = model.forward(&perm).energy;
        let f1 = model.forces(&model.forward(&perm));
        assert!((e0 - e1).abs() < 1e-9, "permutation changed energy");
        assert!((f0[a] - f1[b]).norm() < 1e-9);
        assert!((f0[b] - f1[a]).norm() < 1e-9);
    }

    #[test]
    fn newtons_third_law_total_force_is_zero() {
        let model = toy_model(16);
        let frame = toy_frame(10);
        let forces = model.forces(&model.forward(&frame));
        let total = forces.iter().fold(Vec3::ZERO, |acc, f| acc + *f);
        assert!(total.norm() < 1e-10, "net force {total:?} must vanish");
    }

    fn assert_bits(a: &[Vec3], b: &[Vec3]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            for k in 0..3 {
                assert_eq!(x.0[k].to_bits(), y.0[k].to_bits(), "atom {i} component {k}");
            }
        }
    }

    #[test]
    fn folding_emitted_terms_reproduces_forces_bitwise() {
        let model = toy_model(17);
        let frame = toy_frame(11);
        let n = frame.types.len();
        let pass = model.forward(&frame);
        let reference = model.forces(&pass);
        let mut terms = Vec::new();
        let mut forces = vec![Vec3::new(1.0, 2.0, 3.0); n];
        model.forces_into(&pass, &mut forces, |t| terms.push(*t));
        assert_bits(&forces, &reference);
        assert!(!terms.is_empty());
        assert!(
            terms.windows(2).all(|w| (w[0].centre, w[0].k) < (w[1].centre, w[1].k)),
            "terms arrive in (centre, entry) order"
        );
        // The whole fold, replayed from the terms.
        let mut dpos = vec![Vec3::ZERO; n];
        for t in &terms {
            dpos[t.j] += t.dv;
            dpos[t.centre] -= t.dv;
        }
        let folded: Vec<Vec3> = dpos.into_iter().map(|v| -v).collect();
        assert_bits(&folded, &reference);
        // One atom at a time, as the domain engine replays a boundary
        // atom: only the terms that touch it, in (centre, entry) order.
        for a in 0..n {
            let mut acc = Vec3::ZERO;
            for t in terms.iter().filter(|t| t.centre == a || t.j == a) {
                if t.centre == a {
                    acc -= t.dv;
                } else {
                    acc += t.dv;
                }
            }
            assert_bits(&[-acc], &reference[a..=a]);
        }
    }

    #[test]
    fn centre_pass_matches_the_full_pass_bitwise() {
        let model = toy_model(18);
        let frame = toy_frame(12);
        let n = frame.types.len();
        let full = model.forward(&frame);
        let mut full_terms = Vec::new();
        let mut f_full = vec![Vec3::ZERO; n];
        model.forces_into(&full, &mut f_full, |t| full_terms.push(*t));
        let centres: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
        let pass = model.forward_centres(&frame, &centres);
        assert_eq!(pass.n_atoms(), centres.len());
        for (c, &i) in centres.iter().enumerate() {
            assert_eq!(pass.frame_env().centres[c], i);
            assert_eq!(
                pass.atom_energy_residual(c).to_bits(),
                full.atom_energy_residual(i).to_bits(),
                "residual of centre {i}"
            );
        }
        // The centre pass emits exactly the full pass's terms of its
        // centres, bit for bit.
        let mut terms = Vec::new();
        let mut f = vec![Vec3::ZERO; n];
        model.forces_into(&pass, &mut f, |t| terms.push(*t));
        let want: Vec<ForceTerm> =
            full_terms.iter().filter(|t| centres.contains(&t.centre)).copied().collect();
        assert_eq!(terms.len(), want.len());
        for (a, b) in terms.iter().zip(&want) {
            assert_eq!((a.centre, a.k, a.j), (b.centre, b.k, b.j));
            assert_bits(&[a.dv], &[b.dv]);
        }
        // A whole-frame centre list is the plain forward.
        let all: Vec<usize> = (0..n).collect();
        let same = model.forward_centres(&frame, &all);
        assert_eq!(same.energy.to_bits(), full.energy.to_bits());
        assert_bits(&model.forces(&same), &f_full);
    }
}
