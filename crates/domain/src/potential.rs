//! Potentials evaluated on a domain's local (owned + ghost) sub-frame.
//!
//! A [`DomainPotential`] receives a [`LocalFrame`] — the merged,
//! gid-ascending owned+ghost view of one domain — and fills per-local-
//! atom energies and forces. The engine consumes only the owned
//! entries; ghost outputs are scratch. There are two evaluation
//! contracts, told apart by [`DomainPotential::halo`]:
//!
//! * **`2·cutoff` halo (the default): redundant centres.** Every atom
//!   within `cutoff` of the region has its whole neighbourhood in the
//!   sub-frame, so the potential can compute each owned atom's force
//!   completely on its own, recomputing inner ghosts as centres.
//!   [`LocalSuttonChen`] works this way: densities for every
//!   centre-eligible atom, then per-owned-atom energy
//!   `ε(½Σ φ(r) − c√ρᵢ)` and force, each summed over gid-ascending
//!   neighbours. Per-atom values are intrinsic (they depend only on
//!   the atom's ≤ `2·rcut` surroundings, all present in the halo), so
//!   they are bitwise identical at any grid. It emits no force terms.
//! * **`cutoff` halo: one evaluation per centre.** Only owned atoms
//!   are centres. A centre's energy depends on its neighbours, some of
//!   them ghosts, so part of every owned force is computed by foreign
//!   domains. [`DeepDomainPotential`] works this way: the DeePMD model
//!   runs `forward_centres` over the owned atoms and reports each
//!   per-(centre, neighbour) [`ForceTerm`] of the backward sweep; the
//!   engine ships ghost-target terms to their owners and replays the
//!   forces of owned atoms near a foreign region in the global fold
//!   order, so they stay bitwise equal to `model.predict` (DESIGN
//!   §15.3).

pub use deepmd_core::model::ForceTerm;
use deepmd_core::model::DeepPotModel;
use dp_data::dataset::Snapshot;
use dp_mdsim::cell::Cell;
use dp_mdsim::neighbor::NeighborList;
use dp_mdsim::potential::sutton_chen::SuttonChenParams;
use dp_mdsim::vec3::Vec3;

/// One domain's merged owned+ghost view, sorted ascending by global id.
///
/// Positions are wrapped into the **global** cell and displacements are
/// always taken with the global minimum-image map, so periodicity is
/// handled exactly as in the single-domain path.
pub struct LocalFrame<'a> {
    /// The global periodic cell.
    pub cell: &'a Cell,
    /// Species names indexed by type id (global table).
    pub type_names: &'a [String],
    /// Global atom ids, ascending.
    pub gids: &'a [usize],
    /// Global type ids per local atom.
    pub types: &'a [usize],
    /// Wrapped positions per local atom (owner's exact bits).
    pub pos: &'a [Vec3],
    /// Owned flag per local atom.
    pub owned: &'a [bool],
    /// Centre-evaluation flag of the `2·cutoff` contract: owned atoms
    /// and ghosts within `cutoff` of the region (their intermediate
    /// quantities can feed owned results; outer ghosts — between
    /// `cutoff` and `halo` — cannot). Under a `cutoff` halo every ghost
    /// is inner.
    pub inner: &'a [bool],
}

impl LocalFrame<'_> {
    /// Number of local atoms.
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True when the domain sees no atoms at all.
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }
}

/// A potential evaluated per domain on local sub-frames.
pub trait DomainPotential: Send + Sync {
    /// Interaction cutoff (Å).
    fn cutoff(&self) -> f64;

    /// Ghost-selection halo width (Å). The default `2 × cutoff` lets
    /// many-body potentials evaluate inner-ghost centres locally and
    /// redundantly — every centre within `cutoff` of the region has
    /// its full neighbourhood inside the halo, so its intermediate
    /// values (EAM density, descriptor rows) come out bitwise
    /// identical on every domain that computes them, and no mid-step
    /// scalar exchange round is needed. A potential that overrides
    /// this down to `cutoff` evaluates owned centres only and must
    /// report its ghost contributions through
    /// [`DomainPotential::compute_local_terms`].
    fn halo(&self) -> f64 {
        2.0 * self.cutoff()
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;

    /// Fill `energy[i]`/`forces[i]` for every **owned** local atom `i`
    /// of `frame` (ghost entries are scratch the engine ignores).
    /// `domain` indexes per-domain state such as env caches. Both
    /// output slices have `frame.len()` entries and arrive zeroed.
    fn compute_local(
        &self,
        domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    );

    /// What the engine calls: [`DomainPotential::compute_local`], plus
    /// the reverse force terms of a `cutoff`-halo potential appended to
    /// `terms` (local indices, owned centres only, in fold order). Each
    /// term's `dv` is already folded into `forces` (`+dv` at `j`, `−dv`
    /// at the centre) before `F = −dE/dr`; the engine replays the terms
    /// of owned atoms near a foreign region to complete their forces.
    /// The default, for `2·cutoff` potentials, emits no terms.
    fn compute_local_terms(
        &self,
        domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
        terms: &mut Vec<ForceTerm>,
    ) {
        let _ = terms;
        self.compute_local(domain, frame, energy, forces);
    }

    /// Global energy contribution that is not attributable per atom
    /// (the deep model's type bias). Added once, after the per-atom
    /// gid-ascending reduction, from the global type array.
    fn energy_offset(&self, types: &[usize]) -> f64 {
        let _ = types;
        0.0
    }
}

/// Per-atom Sutton–Chen EAM over a local sub-frame.
///
/// Mirrors `dp_mdsim::potential::sutton_chen::SuttonChen` exactly
/// (same kernels, same shifts, same guard for isolated atoms); the
/// only difference is the accumulation grouping — per centre over
/// ascending neighbours instead of per pair — which the decomposed≡
/// single-domain bitwise contract requires and the dp-verify `domain`
/// family cross-checks against the pair form at tight-ULP tolerance.
pub struct LocalSuttonChen {
    p: SuttonChenParams,
    cutoff: f64,
    pair_shift: f64,
    dens_shift: f64,
}

impl LocalSuttonChen {
    /// Build with the given cutoff (Å).
    pub fn new(p: SuttonChenParams, cutoff: f64) -> Self {
        assert!(cutoff > 0.0, "Sutton-Chen cutoff must be positive");
        LocalSuttonChen {
            p,
            cutoff,
            pair_shift: (p.a / cutoff).powi(p.n),
            dens_shift: (p.a / cutoff).powi(p.m),
        }
    }

    #[inline]
    fn pair_kernel(&self, r: f64) -> f64 {
        (self.p.a / r).powi(self.p.n) - self.pair_shift
    }

    #[inline]
    fn pair_kernel_deriv(&self, r: f64) -> f64 {
        -(self.p.n as f64) * (self.p.a / r).powi(self.p.n) / r
    }

    #[inline]
    fn dens_kernel(&self, r: f64) -> f64 {
        (self.p.a / r).powi(self.p.m) - self.dens_shift
    }

    #[inline]
    fn dens_kernel_deriv(&self, r: f64) -> f64 {
        -(self.p.m as f64) * (self.p.a / r).powi(self.p.m) / r
    }
}

impl DomainPotential for LocalSuttonChen {
    fn cutoff(&self) -> f64 {
        self.cutoff
    }

    fn name(&self) -> &'static str {
        "sutton-chen/local"
    }

    fn compute_local(
        &self,
        _domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        let n = frame.len();
        if n == 0 {
            return;
        }
        let nl = NeighborList::build(frame.cell, frame.pos, self.cutoff);
        // Pass 1: densities for every centre-eligible atom. A ghost
        // neighbour of an owned atom is always `inner` (it is within
        // `cutoff` of the region), and its own neighbourhood is fully
        // inside the `2·cutoff` halo — so this value is bitwise the
        // one its owner computes.
        let mut rho = vec![0.0; n];
        let mut inv_sqrt_rho = vec![0.0; n];
        for i in 0..n {
            if !frame.inner[i] {
                continue;
            }
            let mut r = 0.0;
            for nb in nl.neighbors_of(i) {
                r += self.dens_kernel(nb.dist);
            }
            rho[i] = r;
            if r > 0.0 {
                inv_sqrt_rho[i] = 1.0 / r.sqrt();
            }
        }
        // Pass 2: per-owned-atom energy and force over ascending
        // neighbours.
        for i in 0..n {
            if !frame.owned[i] {
                continue;
            }
            let mut e_pair = 0.0;
            let mut f = Vec3::ZERO;
            for nb in nl.neighbors_of(i) {
                e_pair += self.pair_kernel(nb.dist);
                let dpair = self.p.epsilon * self.pair_kernel_deriv(nb.dist);
                let demb = -self.p.epsilon
                    * self.p.c
                    * 0.5
                    * (inv_sqrt_rho[i] + inv_sqrt_rho[nb.j])
                    * self.dens_kernel_deriv(nb.dist);
                f += nb.rij * ((dpair + demb) / nb.dist);
            }
            let mut e = 0.5 * self.p.epsilon * e_pair;
            if rho[i] > 0.0 {
                e -= self.p.epsilon * self.p.c * rho[i].sqrt();
            }
            energy[i] = e;
            forces[i] = f;
        }
    }
}

/// The DeePMD model evaluated once per owned centre on the local
/// sub-frame, on the `cutoff`-halo contract.
///
/// The sub-frame holds every atom within `rcut` of the region in
/// ascending gid order, so each owned centre sees exactly its global
/// environment rows in the global order: per-atom residuals are
/// bitwise those of `model.predict`. The backward sweep folds the
/// owned centres' terms into the local forces, which is final for an
/// atom no foreign centre can see; the engine completes the rest from
/// the reported terms (DESIGN §15.3).
pub struct DeepDomainPotential {
    model: DeepPotModel,
}

impl DeepDomainPotential {
    /// Wrap `model`. The potential keeps no per-domain state, so
    /// `n_domains` only documents the grid it is meant for.
    pub fn new(model: DeepPotModel, n_domains: usize) -> Self {
        let _ = n_domains;
        DeepDomainPotential { model }
    }

    /// The wrapped model.
    pub fn model(&self) -> &DeepPotModel {
        &self.model
    }

    /// Owned-centre forward and backward; `on_term` sees every term.
    fn evaluate(
        &self,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
        on_term: impl FnMut(&ForceTerm),
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
        let centres: Vec<usize> = (0..frame.len()).filter(|&i| frame.owned[i]).collect();
        let pass = self.model.forward_centres(&snap, &centres);
        for (c, &i) in centres.iter().enumerate() {
            energy[i] = pass.atom_energy_residual(c);
        }
        self.model.forces_into(&pass, forces, on_term);
    }
}

impl DomainPotential for DeepDomainPotential {
    fn cutoff(&self) -> f64 {
        self.model.cfg.rcut
    }

    fn halo(&self) -> f64 {
        self.cutoff()
    }

    fn name(&self) -> &'static str {
        "deep-pot/local"
    }

    /// Energies are final; forces of owned atoms within `cutoff` of a
    /// foreign region lack the foreign centres' terms (the engine calls
    /// [`DomainPotential::compute_local_terms`] instead).
    fn compute_local(
        &self,
        _domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
    ) {
        self.evaluate(frame, energy, forces, |_| {});
    }

    fn compute_local_terms(
        &self,
        _domain: usize,
        frame: &LocalFrame<'_>,
        energy: &mut [f64],
        forces: &mut [Vec3],
        terms: &mut Vec<ForceTerm>,
    ) {
        self.evaluate(frame, energy, forces, |t| terms.push(*t));
    }

    fn energy_offset(&self, types: &[usize]) -> f64 {
        self.model.bias.reference_energy(types)
    }
}
