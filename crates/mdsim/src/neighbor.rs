//! Neighbour search under periodic boundary conditions.
//!
//! Produces both a half list of unique pairs (for pair potentials) and
//! per-atom full lists (for the embedding-density EAM terms, the
//! three-body Stillinger–Weber terms, and the DeePMD environment
//! matrix).
//!
//! [`NeighborList::build`] dispatches between two constructions that
//! are **bitwise identical** in output:
//!
//! * the minimum-image `O(N²)` scan ([`NeighborList::build_naive`]),
//!   used for the paper's single-cell datasets (32–108 atoms) and kept
//!   as the differential oracle, and
//! * a linked-cell `O(N)` search, used automatically once the box is at
//!   least three cutoffs wide, so replicated supercells (`dp-domain`)
//!   stay linear in atom count.
//!
//! Both emit *canonical ordering*: `pairs` in `(i, j)` lexicographic
//! order and each full list ascending by neighbour index, with every
//! displacement computed as `cell.min_image(&pos[i], &pos[j])`. The
//! cell-list path therefore produces the same bits as the scan (DESIGN
//! §15), which is what lets the domain-decomposed engine and every
//! consumer above it (env rows inherit neighbour order) switch paths
//! without perturbing golden fingerprints.

use crate::cell::Cell;
use crate::vec3::Vec3;

/// One directed neighbour record: atom `j` is within the cutoff of the
/// owning atom `i`, displaced by `rij = rj − ri` (minimum image).
#[derive(Clone, Copy, Debug)]
pub struct Neighbor {
    /// Neighbour atom index.
    pub j: usize,
    /// Minimum-image displacement from the owner to `j` (Å).
    pub rij: Vec3,
    /// Distance |rij| (Å).
    pub dist: f64,
}

/// Unique unordered pair within the cutoff.
#[derive(Clone, Copy, Debug)]
pub struct Pair {
    /// Lower atom index.
    pub i: usize,
    /// Higher atom index.
    pub j: usize,
    /// Minimum-image displacement `rj − ri` (Å).
    pub rij: Vec3,
    /// Distance (Å).
    pub dist: f64,
}

/// Neighbour list for a fixed configuration.
#[derive(Clone, Debug)]
pub struct NeighborList {
    cutoff: f64,
    pairs: Vec<Pair>,
    full: Vec<Vec<Neighbor>>,
}

impl NeighborList {
    /// Build the list for `pos` in `cell` with interaction `cutoff`.
    ///
    /// Uses the linked-cell search when the box is at least three
    /// cutoffs wide on every axis, and the `O(N²)` scan otherwise; the
    /// two constructions are bitwise identical, so the dispatch is
    /// invisible to every consumer.
    ///
    /// # Panics
    /// Panics if the cutoff exceeds half the shortest box length (the
    /// minimum-image convention would otherwise miss images).
    pub fn build(cell: &Cell, pos: &[Vec3], cutoff: f64) -> Self {
        Self::check_cutoff(cell, cutoff);
        if cutoff > 0.0 && cell.min_length() >= 3.0 * cutoff {
            Self::build_cells_impl(cell, pos, cutoff)
        } else {
            Self::build_naive(cell, pos, cutoff)
        }
    }

    /// The `O(N²)` minimum-image scan — the differential oracle the
    /// linked-cell path is checked against (dp-verify `domain` family).
    ///
    /// # Panics
    /// Same cutoff precondition as [`NeighborList::build`].
    pub fn build_naive(cell: &Cell, pos: &[Vec3], cutoff: f64) -> Self {
        Self::check_cutoff(cell, cutoff);
        let n = pos.len();
        let mut pairs = Vec::new();
        let mut full: Vec<Vec<Neighbor>> = vec![Vec::new(); n];
        let cut2 = cutoff * cutoff;
        for i in 0..n {
            for j in (i + 1)..n {
                let rij = cell.min_image(&pos[i], &pos[j]);
                let d2 = rij.norm2();
                if d2 < cut2 && d2 > 0.0 {
                    let dist = d2.sqrt();
                    pairs.push(Pair { i, j, rij, dist });
                    full[i].push(Neighbor { j, rij, dist });
                    full[j].push(Neighbor { j: i, rij: -rij, dist });
                }
            }
        }
        NeighborList { cutoff, pairs, full }
    }

    fn check_cutoff(cell: &Cell, cutoff: f64) {
        assert!(
            cutoff <= 0.5 * cell.min_length() + 1e-9,
            "cutoff {} exceeds half the min box length {}",
            cutoff,
            0.5 * cell.min_length()
        );
    }

    /// Full neighbour lists of the `centres` only (atom indices, in the
    /// given order), every atom of `pos` eligible as a neighbour. Entry
    /// `c` is bitwise [`NeighborList::build`]'s list of atom
    /// `centres[c]` — same dispatch, same ascending order, same
    /// `min_image` bits — without paying for the lists of non-centres
    /// (the domain engine's ghosts).
    ///
    /// # Panics
    /// Same cutoff precondition as [`NeighborList::build`].
    pub fn full_lists_for(
        cell: &Cell,
        pos: &[Vec3],
        cutoff: f64,
        centres: &[usize],
    ) -> Vec<Vec<Neighbor>> {
        Self::check_cutoff(cell, cutoff);
        let cut2 = cutoff * cutoff;
        if cutoff > 0.0 && cell.min_length() >= 3.0 * cutoff {
            let bins = Bins::new(cell, pos, cutoff);
            centres
                .iter()
                .map(|&i| {
                    let mut cand = Vec::new();
                    bins.candidates(cell, pos, i, cut2, &mut cand);
                    cand
                })
                .collect()
        } else {
            centres
                .iter()
                .map(|&i| {
                    (0..pos.len())
                        .filter(|&j| j != i)
                        .filter_map(|j| {
                            let rij = cell.min_image(&pos[i], &pos[j]);
                            let d2 = rij.norm2();
                            (d2 < cut2 && d2 > 0.0).then(|| Neighbor { j, rij, dist: d2.sqrt() })
                        })
                        .collect()
                })
                .collect()
        }
    }

    /// Linked-cell construction. Precondition (checked by the caller):
    /// `min_length >= 3 * cutoff`, which guarantees at least three bins
    /// per axis so the 27-stencil visits each bin at most once.
    ///
    /// Per-centre candidates from the 27 surrounding bins are sorted
    /// ascending by index before emission, and `full[j]` entries are
    /// recomputed from centre `j` rather than negated — `min_image` is
    /// exactly antisymmetric (round ties away from zero), so the output
    /// is bit-for-bit the naive scan's.
    fn build_cells_impl(cell: &Cell, pos: &[Vec3], cutoff: f64) -> Self {
        let mut pairs = Vec::new();
        let mut full: Vec<Vec<Neighbor>> = vec![Vec::new(); pos.len()];
        let cut2 = cutoff * cutoff;
        let bins = Bins::new(cell, pos, cutoff);
        let mut cand: Vec<Neighbor> = Vec::new();
        for (i, list) in full.iter_mut().enumerate() {
            bins.candidates(cell, pos, i, cut2, &mut cand);
            for nb in &cand {
                if nb.j > i {
                    pairs.push(Pair { i, j: nb.j, rij: nb.rij, dist: nb.dist });
                }
            }
            list.extend_from_slice(&cand);
        }
        NeighborList { cutoff, pairs, full }
    }

    /// The cutoff used to build the list.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Unique pairs (each unordered pair once, `i < j`).
    pub fn pairs(&self) -> &[Pair] {
        &self.pairs
    }

    /// Full neighbour list of atom `i`.
    pub fn neighbors_of(&self, i: usize) -> &[Neighbor] {
        &self.full[i]
    }

    /// Number of atoms the list covers.
    pub fn n_atoms(&self) -> usize {
        self.full.len()
    }

    /// Maximum neighbour count over all atoms.
    pub fn max_neighbors(&self) -> usize {
        self.full.iter().map(Vec::len).max().unwrap_or(0)
    }
}

/// Linked-cell bins of a configuration: at least three per axis (the
/// caller checks `min_length >= 3 * cutoff`), so the 27-stencil visits
/// each bin at most once.
struct Bins {
    lens: [f64; 3],
    nbin: [usize; 3],
    bins: Vec<Vec<usize>>,
}

impl Bins {
    fn new(cell: &Cell, pos: &[Vec3], cutoff: f64) -> Self {
        let lens = cell.lengths();
        let nbin: [usize; 3] = std::array::from_fn(|k| ((lens[k] / cutoff).floor() as usize).max(1));
        debug_assert!(nbin.iter().all(|&b| b >= 3), "caller must ensure >= 3 bins per axis");
        let mut b = Bins { lens, nbin, bins: vec![Vec::new(); nbin[0] * nbin[1] * nbin[2]] };
        for (i, p) in pos.iter().enumerate() {
            let k = b.idx(&b.bin_of(cell, p));
            b.bins[k].push(i);
        }
        b
    }

    fn bin_of(&self, cell: &Cell, r: &Vec3) -> [usize; 3] {
        let w = cell.wrap(r);
        std::array::from_fn(|k| {
            let b = (w.0[k] / self.lens[k] * self.nbin[k] as f64).floor() as usize;
            b.min(self.nbin[k] - 1)
        })
    }

    fn idx(&self, b: &[usize; 3]) -> usize {
        (b[0] * self.nbin[1] + b[1]) * self.nbin[2] + b[2]
    }

    /// Replace `cand` with atom `i`'s neighbours within `sqrt(cut2)`
    /// from the 27 surrounding bins, sorted ascending by index.
    fn candidates(&self, cell: &Cell, pos: &[Vec3], i: usize, cut2: f64, cand: &mut Vec<Neighbor>) {
        let p = &pos[i];
        let b = self.bin_of(cell, p);
        cand.clear();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    let nb: [usize; 3] = std::array::from_fn(|k| {
                        let d = [dx, dy, dz][k];
                        ((b[k] as i64 + d).rem_euclid(self.nbin[k] as i64)) as usize
                    });
                    for &j in &self.bins[self.idx(&nb)] {
                        if j == i {
                            continue;
                        }
                        let rij = cell.min_image(p, &pos[j]);
                        let d2 = rij.norm2();
                        if d2 < cut2 && d2 > 0.0 {
                            cand.push(Neighbor { j, rij, dist: d2.sqrt() });
                        }
                    }
                }
            }
        }
        cand.sort_unstable_by_key(|nb| nb.j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::{fcc, Species};

    /// Bitwise list equality: same pair sequence, same per-atom
    /// neighbour sequences, identical displacement/distance bits.
    fn assert_bitwise_eq(a: &NeighborList, b: &NeighborList) {
        assert_eq!(a.pairs().len(), b.pairs().len());
        for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!((pa.i, pa.j), (pb.i, pb.j));
            for k in 0..3 {
                assert_eq!(pa.rij.0[k].to_bits(), pb.rij.0[k].to_bits());
            }
            assert_eq!(pa.dist.to_bits(), pb.dist.to_bits());
        }
        assert_eq!(a.n_atoms(), b.n_atoms());
        for i in 0..a.n_atoms() {
            let (fa, fb) = (a.neighbors_of(i), b.neighbors_of(i));
            assert_eq!(fa.len(), fb.len(), "atom {i}");
            for (na, nb) in fa.iter().zip(fb) {
                assert_eq!(na.j, nb.j, "atom {i}");
                for k in 0..3 {
                    assert_eq!(na.rij.0[k].to_bits(), nb.rij.0[k].to_bits());
                }
                assert_eq!(na.dist.to_bits(), nb.dist.to_bits());
            }
        }
    }

    #[test]
    fn fcc_first_shell_has_12_neighbors() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [3, 3, 3]);
        let nn_dist = 3.6 / 2f64.sqrt();
        let nl = NeighborList::build(&s.cell, &s.pos, nn_dist * 1.1);
        for i in 0..s.n_atoms() {
            assert_eq!(nl.neighbors_of(i).len(), 12, "atom {i}");
        }
    }

    #[test]
    fn pairs_and_full_lists_are_consistent() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [2, 2, 2]);
        let nl = NeighborList::build(&s.cell, &s.pos, 1.7);
        let full_count: usize = (0..s.n_atoms()).map(|i| nl.neighbors_of(i).len()).sum();
        assert_eq!(full_count, 2 * nl.pairs().len());
        for p in nl.pairs() {
            assert!(p.i < p.j);
            assert!((p.rij.norm() - p.dist).abs() < 1e-12);
            assert!(p.dist < 1.7);
        }
    }

    #[test]
    fn celllist_is_bitwise_identical_to_naive() {
        // A box big enough to trigger the cell-list path, with
        // deterministic pseudo-random jitter so positions carry no
        // lattice symmetry the orderings could hide behind.
        let mut s = fcc(Species::new("Cu", 63.5), 3.6, [4, 4, 4]);
        let mut x = 0x9e3779b97f4a7c15u64;
        for p in &mut s.pos {
            for k in 0..3 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                p.0[k] += 0.3 * ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
            }
        }
        let cutoff = 4.5;
        assert!(s.cell.min_length() >= 3.0 * cutoff);
        let fast = NeighborList::build(&s.cell, &s.pos, cutoff);
        let naive = NeighborList::build_naive(&s.cell, &s.pos, cutoff);
        assert!(!fast.pairs().is_empty());
        assert_bitwise_eq(&fast, &naive);
    }

    #[test]
    fn centre_lists_equal_the_full_build_bitwise() {
        // Both dispatch paths: a wide box (cell list) and a narrow one
        // (scan), centres a strided subset in shuffled order.
        for (reps, cutoff) in [([4, 4, 4], 4.5), ([2, 2, 2], 3.0)] {
            let mut s = fcc(Species::new("Cu", 63.5), 3.6, reps);
            let mut x = 0x2545_f491_4f6c_dd1du64;
            for p in &mut s.pos {
                for k in 0..3 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    p.0[k] += 0.3 * ((x >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
                }
            }
            let full = NeighborList::build(&s.cell, &s.pos, cutoff);
            let mut centres: Vec<usize> = (0..s.n_atoms()).step_by(3).collect();
            centres.reverse();
            let lists = NeighborList::full_lists_for(&s.cell, &s.pos, cutoff, &centres);
            assert_eq!(lists.len(), centres.len());
            for (&i, list) in centres.iter().zip(&lists) {
                let want = full.neighbors_of(i);
                assert_eq!(list.len(), want.len(), "centre {i}");
                for (a, b) in list.iter().zip(want) {
                    assert_eq!(a.j, b.j, "centre {i}");
                    assert_eq!(a.dist.to_bits(), b.dist.to_bits(), "centre {i}");
                    for k in 0..3 {
                        assert_eq!(a.rij.0[k].to_bits(), b.rij.0[k].to_bits(), "centre {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn full_lists_are_ascending_by_index() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [4, 4, 4]);
        for cutoff in [1.7, 4.5] {
            let nl = NeighborList::build(&s.cell, &s.pos, cutoff);
            for i in 0..s.n_atoms() {
                let js: Vec<usize> = nl.neighbors_of(i).iter().map(|nb| nb.j).collect();
                assert!(js.windows(2).all(|w| w[0] < w[1]), "atom {i} cutoff {cutoff}");
            }
        }
    }

    #[test]
    fn small_boxes_use_the_naive_path_unchanged() {
        // min_length < 3*cutoff: build() must fall back to the scan.
        let s = fcc(Species::new("Cu", 63.5), 3.6, [2, 2, 2]);
        let fast = NeighborList::build(&s.cell, &s.pos, 3.0);
        let naive = NeighborList::build_naive(&s.cell, &s.pos, 3.0);
        assert_bitwise_eq(&fast, &naive);
    }

    #[test]
    fn neighbor_displacements_are_minimum_image() {
        let s = fcc(Species::new("Al", 27.0), 4.05, [2, 2, 2]);
        let nl = NeighborList::build(&s.cell, &s.pos, 3.0);
        for i in 0..s.n_atoms() {
            for nb in nl.neighbors_of(i) {
                let expect = s.cell.min_image(&s.pos[i], &s.pos[nb.j]);
                assert!((expect - nb.rij).norm() < 1e-12);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds half the min box length")]
    fn oversized_cutoff_panics() {
        let s = fcc(Species::new("Cu", 63.5), 3.6, [1, 1, 1]);
        let _ = NeighborList::build(&s.cell, &s.pos, 3.0);
    }
}
