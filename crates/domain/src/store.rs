//! Per-domain atom storage in structure-of-arrays layout.
//!
//! Positions, velocities, forces and per-atom energies live in
//! separate contiguous arrays (one cache stream per field during the
//! kick/drift loops), indexed by local slot. Every store keeps its
//! atoms **sorted ascending by global id** — the invariant the whole
//! determinism argument rests on: merged owned+ghost sub-frames come
//! out gid-ascending, so per-atom reductions see their contributions
//! in the same order at any domain grid.

use dp_mdsim::vec3::Vec3;

/// Owned atoms of one domain (SoA, gid-ascending).
#[derive(Clone, Debug, Default)]
pub struct DomainStore {
    /// Global atom ids (sorted ascending).
    pub gid: Vec<usize>,
    /// Type ids.
    pub typ: Vec<usize>,
    /// Positions (Å, wrapped into the global cell).
    pub x: Vec<f64>,
    /// See `x`.
    pub y: Vec<f64>,
    /// See `x`.
    pub z: Vec<f64>,
    /// Velocities (Å/fs).
    pub vx: Vec<f64>,
    /// See `vx`.
    pub vy: Vec<f64>,
    /// See `vx`.
    pub vz: Vec<f64>,
    /// Forces at the current positions (eV/Å).
    pub fx: Vec<f64>,
    /// See `fx`.
    pub fy: Vec<f64>,
    /// See `fx`.
    pub fz: Vec<f64>,
    /// Per-atom potential energy at the current positions (eV).
    pub energy: Vec<f64>,
}

impl DomainStore {
    /// Number of owned atoms.
    pub fn len(&self) -> usize {
        self.gid.len()
    }

    /// True when the domain owns no atoms.
    pub fn is_empty(&self) -> bool {
        self.gid.is_empty()
    }

    /// Append an atom (caller restores gid order with [`Self::sort_by_gid`]
    /// unless appending in ascending order).
    pub fn push(&mut self, gid: usize, typ: usize, pos: Vec3, vel: Vec3) {
        self.gid.push(gid);
        self.typ.push(typ);
        self.x.push(pos.0[0]);
        self.y.push(pos.0[1]);
        self.z.push(pos.0[2]);
        self.vx.push(vel.0[0]);
        self.vy.push(vel.0[1]);
        self.vz.push(vel.0[2]);
        self.fx.push(0.0);
        self.fy.push(0.0);
        self.fz.push(0.0);
        self.energy.push(0.0);
    }

    /// Position of slot `i`.
    #[inline]
    pub fn pos(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    /// Velocity of slot `i`.
    #[inline]
    pub fn vel(&self, i: usize) -> Vec3 {
        Vec3::new(self.vx[i], self.vy[i], self.vz[i])
    }

    /// Force on slot `i`.
    #[inline]
    pub fn force(&self, i: usize) -> Vec3 {
        Vec3::new(self.fx[i], self.fy[i], self.fz[i])
    }

    /// Remove slot `i` by swap-remove across all arrays (order is
    /// restored by the caller via [`Self::sort_by_gid`]).
    pub fn swap_remove(&mut self, i: usize) {
        self.gid.swap_remove(i);
        self.typ.swap_remove(i);
        self.x.swap_remove(i);
        self.y.swap_remove(i);
        self.z.swap_remove(i);
        self.vx.swap_remove(i);
        self.vy.swap_remove(i);
        self.vz.swap_remove(i);
        self.fx.swap_remove(i);
        self.fy.swap_remove(i);
        self.fz.swap_remove(i);
        self.energy.swap_remove(i);
    }

    /// Restore the ascending-gid invariant after out-of-order edits.
    pub fn sort_by_gid(&mut self) {
        if self.gid.windows(2).all(|w| w[0] < w[1]) {
            return;
        }
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by_key(|&i| self.gid[i]);
        fn permute<T: Copy>(v: &mut [T], order: &[usize]) {
            let old = v.to_vec();
            for (dst, &src) in order.iter().enumerate() {
                v[dst] = old[src];
            }
        }
        permute(&mut self.gid, &order);
        permute(&mut self.typ, &order);
        permute(&mut self.x, &order);
        permute(&mut self.y, &order);
        permute(&mut self.z, &order);
        permute(&mut self.vx, &order);
        permute(&mut self.vy, &order);
        permute(&mut self.vz, &order);
        permute(&mut self.fx, &order);
        permute(&mut self.fy, &order);
        permute(&mut self.fz, &order);
        permute(&mut self.energy, &order);
    }
}

/// Replicated ghost atoms of one domain: every atom owned elsewhere
/// whose wrapped position lies within the potential's halo of this
/// domain's region. Positions are the owner's exact bits — ghosts are
/// replicas, never periodic-image copies (displacements always go
/// through the global cell's minimum-image map).
#[derive(Clone, Debug, Default)]
pub struct GhostStore {
    /// Global atom ids (sorted ascending).
    pub gid: Vec<usize>,
    /// Type ids.
    pub typ: Vec<usize>,
    /// Positions (Å, wrapped; bitwise equal to the owner's copy).
    pub pos: Vec<Vec3>,
    /// Within `cutoff` (not just `halo`) of the region: the potential
    /// must evaluate these as centres (e.g. EAM densities) because
    /// they can be neighbours of owned atoms.
    pub inner: Vec<bool>,
    /// Owning domain (where reverse force terms for this ghost go).
    pub owner: Vec<usize>,
}

impl GhostStore {
    /// Number of ghosts.
    pub fn len(&self) -> usize {
        self.gid.len()
    }

    /// True when no ghosts are held.
    pub fn is_empty(&self) -> bool {
        self.gid.is_empty()
    }

    /// Drop all ghosts, keeping capacity.
    pub fn clear(&mut self) {
        self.gid.clear();
        self.typ.clear();
        self.pos.clear();
        self.inner.clear();
        self.owner.clear();
    }
}

/// Merged owned+ghost view buffers, rebuilt each evaluation (capacity
/// is retained, so the steady state allocates nothing).
#[derive(Clone, Debug, Default)]
pub struct LocalArrays {
    /// Global ids, ascending.
    pub gids: Vec<usize>,
    /// Type ids.
    pub types: Vec<usize>,
    /// Wrapped positions.
    pub pos: Vec<Vec3>,
    /// Owned flag per local index.
    pub owned: Vec<bool>,
    /// Centre-evaluation flag (owned or inner ghost).
    pub inner: Vec<bool>,
    /// Local index → owned-store slot (`usize::MAX` for ghosts).
    pub owned_slot: Vec<usize>,
    /// Local index → owning domain of a ghost (`usize::MAX` for owned).
    pub owner: Vec<usize>,
}

impl LocalArrays {
    /// Number of local (owned + ghost) atoms.
    pub fn len(&self) -> usize {
        self.gids.len()
    }

    /// True when the merged view holds no atoms.
    pub fn is_empty(&self) -> bool {
        self.gids.is_empty()
    }

    /// Rebuild by merging a gid-ascending store with gid-ascending
    /// ghosts (two-pointer merge; the id sets are disjoint).
    pub fn rebuild(&mut self, store: &DomainStore, ghosts: &GhostStore) {
        self.gids.clear();
        self.types.clear();
        self.pos.clear();
        self.owned.clear();
        self.inner.clear();
        self.owned_slot.clear();
        self.owner.clear();
        let (mut a, mut b) = (0, 0);
        while a < store.len() || b < ghosts.len() {
            let take_owned = b >= ghosts.len() || (a < store.len() && store.gid[a] < ghosts.gid[b]);
            if take_owned {
                self.gids.push(store.gid[a]);
                self.types.push(store.typ[a]);
                self.pos.push(store.pos(a));
                self.owned.push(true);
                self.inner.push(true);
                self.owned_slot.push(a);
                self.owner.push(usize::MAX);
                a += 1;
            } else {
                self.gids.push(ghosts.gid[b]);
                self.types.push(ghosts.typ[b]);
                self.pos.push(ghosts.pos[b]);
                self.owned.push(false);
                self.inner.push(ghosts.inner[b]);
                self.owned_slot.push(usize::MAX);
                self.owner.push(ghosts.owner[b]);
                b += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_restores_gid_order_across_all_arrays() {
        let mut s = DomainStore::default();
        s.push(5, 1, Vec3::new(5.0, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        s.push(2, 0, Vec3::new(2.0, 0.0, 0.0), Vec3::new(0.2, 0.0, 0.0));
        s.push(9, 1, Vec3::new(9.0, 0.0, 0.0), Vec3::new(0.9, 0.0, 0.0));
        s.fx[0] = 50.0;
        s.fx[1] = 20.0;
        s.fx[2] = 90.0;
        s.sort_by_gid();
        assert_eq!(s.gid, vec![2, 5, 9]);
        assert_eq!(s.typ, vec![0, 1, 1]);
        assert_eq!(s.x, vec![2.0, 5.0, 9.0]);
        assert_eq!(s.vx, vec![0.2, 0.5, 0.9]);
        assert_eq!(s.fx, vec![20.0, 50.0, 90.0]);
    }

    #[test]
    fn merge_interleaves_ascending_with_slots() {
        let mut s = DomainStore::default();
        s.push(1, 0, Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO);
        s.push(4, 0, Vec3::new(4.0, 0.0, 0.0), Vec3::ZERO);
        let mut g = GhostStore::default();
        g.gid.extend([0, 2, 7]);
        g.typ.extend([0, 0, 0]);
        g.pos.extend([Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), Vec3::new(7.0, 0.0, 0.0)]);
        g.inner.extend([true, false, true]);
        g.owner.extend([3, 1, 2]);
        let mut loc = LocalArrays::default();
        loc.rebuild(&s, &g);
        assert_eq!(loc.gids, vec![0, 1, 2, 4, 7]);
        assert_eq!(loc.owned, vec![false, true, false, true, false]);
        assert_eq!(loc.inner, vec![true, true, false, true, true]);
        assert_eq!(loc.owned_slot, vec![usize::MAX, 0, usize::MAX, 1, usize::MAX]);
        assert_eq!(loc.owner, vec![3, usize::MAX, 1, usize::MAX, 2]);
    }
}
