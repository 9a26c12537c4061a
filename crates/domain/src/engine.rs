//! The domain-decomposed MD engine.
//!
//! Owns the decomposed state (one SoA [`DomainStore`] per domain),
//! runs the exchange → evaluate → reduce schedule, and advances the
//! system with velocity-Verlet. Every parallel phase distributes whole
//! domains over `dp-pool` workers via `parallel_for_each_mut`
//! (disjoint `&mut` per domain, no interior mutability), and every
//! cross-domain reduction happens sequentially in ascending global-id
//! order — which is what makes results bitwise identical at any domain
//! grid and any thread count (DESIGN §15).
//!
//! Per step:
//! 1. half kick + drift + wrap (per domain, per atom — intrinsic ops);
//! 2. migrate boundary-crossers to their new owner (sequential,
//!    gid-order restored per store);
//! 3. ghost exchange (per-source outboxes, then per-destination
//!    collect + gid sort — the result is independent of source order);
//!    an owned atom sent anywhere as a ghost is marked *boundary*;
//! 4. local evaluation on the merged owned+ghost sub-frame, which also
//!    returns the potential's reverse force terms (none under the
//!    default `2·cutoff` contract);
//! 5. term exchange: terms aimed at a ghost go to its owner, and every
//!    boundary atom's force is replayed from all of its terms in
//!    ascending (centre gid, entry) order — the global fold's order;
//! 6. energy reduction by ascending gid + second half kick.

use crate::grid::DomainGrid;
use crate::potential::{DomainPotential, ForceTerm, LocalFrame};
use crate::store::{DomainStore, GhostStore, LocalArrays};
use crate::DomainError;
use dp_mdsim::cell::Cell;
use dp_mdsim::state::{State, Topology};
use dp_mdsim::units::{temperature_from_kinetic, ACC_CONV, KE_CONV};
use dp_mdsim::vec3::Vec3;

/// Ghost-selection slack (Å): absorbs the ≤ few-ulp disagreement
/// between the ownership rule (`domain_of`) and the region-interval
/// distance at domain faces. Extra marginal ghosts are filtered by the
/// exact `< cutoff` neighbour criterion, so slack never changes
/// results — it only guarantees no true neighbour is missed.
const GHOST_SLACK: f64 = 1e-9;

/// One replicated atom on its way to a neighbouring domain.
#[derive(Clone, Copy, Debug)]
struct GhostMsg {
    dst: usize,
    /// Source (owning) domain and the atom's slot in its store.
    src: usize,
    slot: usize,
    gid: usize,
    typ: usize,
    pos: Vec3,
    inner: bool,
}

/// A reverse force term on its way to the domain owning its target.
#[derive(Clone, Copy, Debug)]
struct TermMsg {
    dst: usize,
    /// Target atom gid (owned by `dst`).
    target: usize,
    /// Centre gid and env-entry index: the replay sort key.
    centre: usize,
    k: usize,
    dv: Vec3,
}

/// One contribution to a boundary atom's force, replayed in
/// (centre, k) order: `−= dv` when the atom is the centre itself,
/// `+= dv` otherwise — exactly the global fold.
#[derive(Clone, Copy, Debug)]
struct Replay {
    /// Target's owned-store slot.
    slot: usize,
    centre: usize,
    k: usize,
    dv: Vec3,
}

/// An atom that crossed a domain face during the drift.
#[derive(Clone, Copy, Debug)]
struct Migrant {
    dst: usize,
    gid: usize,
    typ: usize,
    pos: Vec3,
    vel: Vec3,
}

/// Per-domain state bundle. Every buffer keeps its capacity between
/// steps, so once warm the exchange phases allocate nothing.
#[derive(Default)]
struct Domain {
    store: DomainStore,
    ghosts: GhostStore,
    loc: LocalArrays,
    inbox: Vec<GhostMsg>,
    out_e: Vec<f64>,
    out_f: Vec<Vec3>,
    /// Per owned slot: replicated as a ghost somewhere this step, so
    /// foreign centres may send it terms.
    boundary: Vec<bool>,
    /// The potential's reverse force terms (local indices).
    terms: Vec<ForceTerm>,
    /// Terms aimed at ghosts, bound for their owners.
    term_out: Vec<TermMsg>,
    /// Contributions to boundary atoms, local and received.
    replay: Vec<Replay>,
}

impl Domain {
    /// Sort the potential's terms (local indices) into the two places
    /// they matter: a term aimed at a ghost goes to the ghost's owner;
    /// a term touching a boundary atom — as neighbour (`+= dv`) or as
    /// centre (`−= dv`) — is kept for that atom's replay. Terms between
    /// interior atoms are already final in the fused local sum.
    fn route_terms(&mut self) {
        self.term_out.clear();
        let loc = &self.loc;
        for t in &self.terms {
            let centre = loc.gids[t.centre];
            let c_slot = loc.owned_slot[t.centre];
            debug_assert!(c_slot != usize::MAX, "terms come from owned centres only");
            let j_slot = loc.owned_slot[t.j];
            if j_slot == usize::MAX {
                self.term_out.push(TermMsg {
                    dst: loc.owner[t.j],
                    target: loc.gids[t.j],
                    centre,
                    k: t.k,
                    dv: t.dv,
                });
            } else if self.boundary[j_slot] {
                self.replay.push(Replay { slot: j_slot, centre, k: t.k, dv: t.dv });
            }
            if self.boundary[c_slot] {
                self.replay.push(Replay { slot: c_slot, centre, k: t.k, dv: t.dv });
            }
        }
        self.terms.clear();
    }

    /// Overwrite each replayed atom's force with its terms folded from
    /// zero in ascending (centre gid, k) order — the order of the
    /// global `backward_energy`, so the bits match `model.predict`.
    fn replay_boundary(&mut self) {
        self.replay.sort_unstable_by_key(|r| (r.slot, r.centre, r.k));
        let st = &mut self.store;
        for run in self.replay.chunk_by(|a, b| a.slot == b.slot) {
            let slot = run[0].slot;
            let gid = st.gid[slot];
            let mut dpos = Vec3::ZERO;
            for r in run {
                if r.centre == gid {
                    dpos -= r.dv;
                } else {
                    dpos += r.dv;
                }
            }
            let f = -dpos;
            st.fx[slot] = f.0[0];
            st.fy[slot] = f.0[1];
            st.fz[slot] = f.0[2];
        }
        self.replay.clear();
    }
}

/// Domain-decomposed MD state + velocity-Verlet driver.
pub struct DecomposedMd {
    cell: Cell,
    grid: DomainGrid,
    pot: Box<dyn DomainPotential>,
    type_names: Vec<String>,
    masses: Vec<f64>,
    /// Global type ids, gid-indexed (types never migrate).
    types: Vec<usize>,
    domains: Vec<Domain>,
    /// Per-source ghost outboxes.
    ghost_out: Vec<Vec<GhostMsg>>,
    /// Per-source term outboxes (swapped in from each domain's
    /// `term_out` so destinations can read them all).
    term_out: Vec<Vec<TermMsg>>,
    migrants: Vec<Migrant>,
    /// Per-gid energy gather buffer (scratch for the fixed-order sum).
    e_by_gid: Vec<f64>,
    /// Per-gid kinetic-term gather buffer.
    ke_by_gid: Vec<f64>,
    energy: f64,
}

impl DecomposedMd {
    /// Decompose `state` onto a `dims` domain grid and evaluate the
    /// initial forces/energy.
    ///
    /// Positions are wrapped into the cell (ownership needs canonical
    /// coordinates); velocities and types are taken as-is. Bonded
    /// topology is not supported — molecular systems stay on the
    /// single-cell `dp-mdsim` path.
    pub fn new(
        state: &State,
        pot: Box<dyn DomainPotential>,
        dims: [usize; 3],
    ) -> Result<Self, DomainError> {
        if state.n_atoms() == 0 {
            return Err(DomainError::EmptySystem);
        }
        if !state.topology.bonds.is_empty() || !state.topology.angles.is_empty() {
            return Err(DomainError::UnsupportedTopology {
                bonds: state.topology.bonds.len(),
                angles: state.topology.angles.len(),
            });
        }
        let cutoff = pot.cutoff();
        if cutoff > 0.5 * state.cell.min_length() + 1e-9 {
            return Err(DomainError::CutoffTooLarge {
                cutoff,
                min_length: state.cell.min_length(),
            });
        }
        let grid = DomainGrid::new(&state.cell, dims)?;
        let n_domains = grid.n_domains();
        let mut domains: Vec<Domain> = (0..n_domains).map(|_| Domain::default()).collect();
        for gid in 0..state.n_atoms() {
            let p = state.cell.wrap(&state.pos[gid]);
            let d = grid.domain_of(&p);
            domains[d].store.push(gid, state.types[gid], p, state.vel[gid]);
        }
        let n = state.n_atoms();
        let mut md = DecomposedMd {
            cell: state.cell,
            grid,
            pot,
            type_names: state.type_names.clone(),
            masses: state.masses.clone(),
            types: state.types.clone(),
            domains,
            ghost_out: (0..n_domains).map(|_| Vec::new()).collect(),
            term_out: (0..n_domains).map(|_| Vec::new()).collect(),
            migrants: Vec::new(),
            e_by_gid: vec![0.0; n],
            ke_by_gid: vec![0.0; n],
            energy: 0.0,
        };
        md.compute();
        Ok(md)
    }

    /// Number of atoms.
    pub fn n_atoms(&self) -> usize {
        self.types.len()
    }

    /// The domain grid.
    pub fn grid(&self) -> &DomainGrid {
        &self.grid
    }

    /// The global periodic cell.
    pub fn cell(&self) -> &Cell {
        &self.cell
    }

    /// Atoms currently owned by domain `d`.
    pub fn domain_len(&self, d: usize) -> usize {
        self.domains[d].store.len()
    }

    /// Ghosts currently replicated into domain `d`.
    pub fn ghost_len(&self, d: usize) -> usize {
        self.domains[d].ghosts.len()
    }

    /// Potential energy at the current positions (eV).
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Rebuild ghosts, evaluate the potential per domain, complete
    /// boundary forces from the reverse force terms, and reduce the
    /// total energy in ascending-gid order. Returns the energy.
    pub fn compute(&mut self) -> f64 {
        self.exchange_ghosts();
        let pot = self.pot.as_ref();
        let cell = &self.cell;
        let type_names = &self.type_names;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|d, dom| {
            dom.loc.rebuild(&dom.store, &dom.ghosts);
            let n = dom.loc.len();
            dom.out_e.clear();
            dom.out_e.resize(n, 0.0);
            dom.out_f.clear();
            dom.out_f.resize(n, Vec3::ZERO);
            dom.terms.clear();
            let Domain { store, loc, out_e, out_f, terms, .. } = dom;
            let frame = LocalFrame {
                cell,
                type_names,
                gids: &loc.gids,
                types: &loc.types,
                pos: &loc.pos,
                owned: &loc.owned,
                inner: &loc.inner,
            };
            pot.compute_local_terms(d, &frame, out_e, out_f, terms);
            for li in 0..loc.len() {
                let slot = loc.owned_slot[li];
                if slot != usize::MAX {
                    let f = out_f[li];
                    store.fx[slot] = f.0[0];
                    store.fy[slot] = f.0[1];
                    store.fz[slot] = f.0[2];
                    store.energy[slot] = out_e[li];
                }
            }
            dom.route_terms();
        });
        self.exchange_terms();
        // Fixed-order reduction: scatter per-gid (each gid owned by
        // exactly one domain), then sum ascending.
        for dom in &self.domains {
            for (slot, &g) in dom.store.gid.iter().enumerate() {
                self.e_by_gid[g] = dom.store.energy[slot];
            }
        }
        let mut pe = 0.0;
        for &e in &self.e_by_gid {
            pe += e;
        }
        pe += self.pot.energy_offset(&self.types);
        self.energy = pe;
        pe
    }

    /// One velocity-Verlet NVE step of size `dt` (fs). Returns the new
    /// potential energy.
    pub fn step_nve(&mut self, dt: f64) -> f64 {
        let masses = &self.masses;
        let cell = &self.cell;
        // Half kick + drift + wrap. All per-atom intrinsic arithmetic,
        // mirroring dp_mdsim::integrate::velocity_verlet_step (plus the
        // wrap, applied identically at every grid).
        dp_pool::parallel_for_each_mut(&mut self.domains, &|_, dom| {
            let st = &mut dom.store;
            for i in 0..st.len() {
                let inv_m = ACC_CONV / masses[st.typ[i]];
                let s = 0.5 * dt * inv_m;
                st.vx[i] += st.fx[i] * s;
                st.vy[i] += st.fy[i] * s;
                st.vz[i] += st.fz[i] * s;
                let p = Vec3::new(
                    st.x[i] + st.vx[i] * dt,
                    st.y[i] + st.vy[i] * dt,
                    st.z[i] + st.vz[i] * dt,
                );
                let w = cell.wrap(&p);
                st.x[i] = w.0[0];
                st.y[i] = w.0[1];
                st.z[i] = w.0[2];
            }
        });
        self.migrate();
        let e = self.compute();
        // Second half kick with the new forces.
        let masses = &self.masses;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|_, dom| {
            let st = &mut dom.store;
            for i in 0..st.len() {
                let inv_m = ACC_CONV / masses[st.typ[i]];
                let s = 0.5 * dt * inv_m;
                st.vx[i] += st.fx[i] * s;
                st.vy[i] += st.fy[i] * s;
                st.vz[i] += st.fz[i] * s;
            }
        });
        e
    }

    /// Ship every domain's ghost-target terms to their owners, then
    /// replay each boundary atom's force from its terms in the global
    /// fold order. A no-op when the potential emits no terms.
    fn exchange_terms(&mut self) {
        for (dom, out) in self.domains.iter_mut().zip(&mut self.term_out) {
            std::mem::swap(&mut dom.term_out, out);
        }
        let term_out = &self.term_out;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|d, dom| {
            for outbox in term_out {
                for m in outbox.iter().filter(|m| m.dst == d) {
                    let slot = dom
                        .store
                        .gid
                        .binary_search(&m.target)
                        .expect("a term's target is owned by its destination");
                    dom.replay.push(Replay { slot, centre: m.centre, k: m.k, dv: m.dv });
                }
            }
            dom.replay_boundary();
        });
    }

    /// Move atoms whose wrapped position left their owner's region to
    /// the new owner, restoring the ascending-gid store invariant.
    /// Sequential and deterministic; forces/energies are left stale
    /// (the schedule always recomputes before reading them).
    fn migrate(&mut self) {
        self.migrants.clear();
        for d in 0..self.domains.len() {
            let store = &mut self.domains[d].store;
            let mut i = 0;
            while i < store.len() {
                let p = store.pos(i);
                let owner = self.grid.domain_of(&p);
                if owner != d {
                    self.migrants.push(Migrant {
                        dst: owner,
                        gid: store.gid[i],
                        typ: store.typ[i],
                        pos: p,
                        vel: store.vel(i),
                    });
                    store.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
        if self.migrants.is_empty() {
            return;
        }
        for m in &self.migrants {
            self.domains[m.dst].store.push(m.gid, m.typ, m.pos, m.vel);
        }
        for dom in &mut self.domains {
            dom.store.sort_by_gid();
        }
    }

    /// Rebuild every domain's ghost set from the current positions.
    fn exchange_ghosts(&mut self) {
        let grid = &self.grid;
        let n_domains = self.domains.len();
        let halo = self.pot.halo() + GHOST_SLACK;
        let halo2 = halo * halo;
        let rin = self.pot.cutoff() + GHOST_SLACK;
        let rin2 = rin * rin;
        // Phase 1: each source domain scans its owned atoms into its
        // outbox. Interior atoms (≥ halo from every own face) are
        // rejected in O(1); only the surface shell pays the
        // per-destination distance test.
        let domains = &self.domains;
        dp_pool::parallel_for_each_mut(&mut self.ghost_out, &|src, out| {
            out.clear();
            let store = &domains[src].store;
            for i in 0..store.len() {
                let p = store.pos(i);
                if grid.interior_margin(&p, src) >= halo {
                    continue;
                }
                for dst in 0..n_domains {
                    if dst == src {
                        continue;
                    }
                    let d2 = grid.dist2_to_domain(&p, dst);
                    if d2 < halo2 {
                        out.push(GhostMsg {
                            dst,
                            src,
                            slot: i,
                            gid: store.gid[i],
                            typ: store.typ[i],
                            pos: p,
                            inner: d2 < rin2,
                        });
                    }
                }
            }
        });
        // Phase 2: each destination collects its messages and sorts by
        // gid — the ghost set is then independent of source order. Its
        // own outbox marks which owned atoms are boundary atoms.
        let ghost_out = &self.ghost_out;
        dp_pool::parallel_for_each_mut(&mut self.domains, &|dst, dom| {
            dom.inbox.clear();
            for outbox in ghost_out {
                for msg in outbox {
                    if msg.dst == dst {
                        dom.inbox.push(*msg);
                    }
                }
            }
            dom.inbox.sort_unstable_by_key(|m| m.gid);
            dom.ghosts.clear();
            for m in &dom.inbox {
                dom.ghosts.gid.push(m.gid);
                dom.ghosts.typ.push(m.typ);
                dom.ghosts.pos.push(m.pos);
                dom.ghosts.inner.push(m.inner);
                dom.ghosts.owner.push(m.src);
            }
            dom.boundary.clear();
            dom.boundary.resize(dom.store.len(), false);
            for msg in &ghost_out[dst] {
                dom.boundary[msg.slot] = true;
            }
        });
    }

    /// Per-atom potential energies in gid order (from the last
    /// evaluation).
    pub fn energies(&self) -> Vec<f64> {
        self.e_by_gid.clone()
    }

    /// Forces in gid order (from the last evaluation).
    pub fn forces(&self) -> Vec<Vec3> {
        let mut f = vec![Vec3::ZERO; self.n_atoms()];
        for dom in &self.domains {
            for (slot, &g) in dom.store.gid.iter().enumerate() {
                f[g] = dom.store.force(slot);
            }
        }
        f
    }

    /// Total kinetic energy (eV), reduced in ascending-gid order.
    pub fn kinetic_energy(&mut self) -> f64 {
        for dom in &self.domains {
            let st = &dom.store;
            for (slot, &g) in st.gid.iter().enumerate() {
                let v = st.vel(slot);
                self.ke_by_gid[g] = KE_CONV * self.masses[st.typ[slot]] * v.norm2();
            }
        }
        let mut ke = 0.0;
        for &k in &self.ke_by_gid {
            ke += k;
        }
        ke
    }

    /// Instantaneous temperature (K).
    pub fn temperature(&mut self) -> f64 {
        temperature_from_kinetic(self.kinetic_energy(), self.n_atoms())
    }

    /// Owning domain of atom `gid` (scan; test/diagnostic helper).
    pub fn owner_of(&self, gid: usize) -> Option<usize> {
        for (d, dom) in self.domains.iter().enumerate() {
            if dom.store.gid.binary_search(&gid).is_ok() {
                return Some(d);
            }
        }
        None
    }

    /// Check the decomposition invariants: every atom owned exactly
    /// once, every store gid-ascending, every owned position wrapped
    /// and inside its owner's region.
    ///
    /// # Panics
    /// Panics on the first violation (test/diagnostic helper).
    pub fn assert_invariants(&self) {
        let mut seen = vec![false; self.n_atoms()];
        let lens = self.cell.lengths();
        for (d, dom) in self.domains.iter().enumerate() {
            let st = &dom.store;
            assert!(st.gid.windows(2).all(|w| w[0] < w[1]), "domain {d}: gids not ascending");
            for (slot, &g) in st.gid.iter().enumerate() {
                assert!(!seen[g], "atom {g} owned twice");
                seen[g] = true;
                let p = st.pos(slot);
                for (&x, &len) in p.0.iter().zip(lens.iter()) {
                    assert!(x >= 0.0 && x < len + 1e-12, "atom {g} not wrapped: {p:?}");
                }
                assert_eq!(self.grid.domain_of(&p), d, "atom {g} owned by the wrong domain");
            }
        }
        assert!(seen.iter().all(|&s| s), "atom lost during migration");
    }

    /// Reassemble the global state (gid order, wrapped positions).
    pub fn gather(&self) -> State {
        let n = self.n_atoms();
        let mut pos = vec![Vec3::ZERO; n];
        let mut vel = vec![Vec3::ZERO; n];
        for dom in &self.domains {
            let st = &dom.store;
            for (slot, &g) in st.gid.iter().enumerate() {
                pos[g] = st.pos(slot);
                vel[g] = st.vel(slot);
            }
        }
        State {
            cell: self.cell,
            type_names: self.type_names.clone(),
            masses: self.masses.clone(),
            types: self.types.clone(),
            pos,
            vel,
            topology: Topology::default(),
        }
    }
}
