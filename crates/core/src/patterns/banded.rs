//! Banded 2D/0D wavefront: the Ukkonen-style diagonal band.

use crate::geom::{GridDims, GridPos, TileRegion};
use crate::pattern::{coarsen_by_scan, DagPattern, PatternKind};
use std::sync::Arc;

/// A wavefront restricted to the diagonal band `|row - col| <= band` —
/// the shape of banded alignment, where cells far from the main diagonal
/// are provably irrelevant and never computed. Cuts an `n x n` problem to
/// `O(n * band)` work while keeping the wavefront schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Banded2D {
    dims: GridDims,
    band: u32,
}

impl Banded2D {
    /// Banded wavefront over `dims` keeping cells with
    /// `|row - col| <= band`.
    pub fn new(dims: GridDims, band: u32) -> Self {
        Self { dims, band }
    }

    /// The band half-width.
    pub fn band(&self) -> u32 {
        self.band
    }

    #[inline]
    fn in_band(&self, p: GridPos) -> bool {
        p.row.abs_diff(p.col) <= self.band
    }
}

impl DagPattern for Banded2D {
    fn dims(&self) -> GridDims {
        self.dims
    }

    fn contains(&self, p: GridPos) -> bool {
        self.dims.contains(p) && self.in_band(p)
    }

    fn predecessors(&self, p: GridPos, out: &mut Vec<GridPos>) {
        for q in [
            (p.row > 0).then(|| GridPos::new(p.row - 1, p.col)),
            (p.col > 0).then(|| GridPos::new(p.row, p.col - 1)),
            (p.row > 0 && p.col > 0).then(|| GridPos::new(p.row - 1, p.col - 1)),
        ]
        .into_iter()
        .flatten()
        {
            if self.in_band(q) {
                out.push(q);
            }
        }
    }

    fn data_footprint(&self, reader: TileRegion, source: TileRegion) -> TileRegion {
        // The band only drops reads of the wavefront stencil.
        super::wavefront::stencil_halo(reader, source)
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Custom
    }

    fn coarsen(&self, tile: GridDims) -> Arc<dyn DagPattern> {
        if tile.rows == tile.cols {
            // Square blocking keeps the band shape: tile (R, C) intersects
            // the band iff |R - C| * t <= band + t - 1. The coarse band's
            // diagonal edges are a (sound) superset of the exact tile
            // edges: at band corners a NW tile pair can both touch the
            // band without sharing a cell-level dependency; the extra edge
            // only makes scheduling marginally more conservative.
            let t = tile.rows;
            Arc::new(Banded2D::new(
                self.dims.tiled_by(tile),
                self.band.div_ceil(t),
            ))
        } else {
            Arc::new(coarsen_by_scan(self, tile))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn band_membership() {
        let p = Banded2D::new(GridDims::square(10), 2);
        assert!(p.contains(GridPos::new(5, 5)));
        assert!(p.contains(GridPos::new(5, 7)));
        assert!(!p.contains(GridPos::new(5, 8)));
        assert!(!p.contains(GridPos::new(9, 0)));
    }

    #[test]
    fn predecessors_stay_in_band() {
        let p = Banded2D::new(GridDims::square(10), 1);
        let mut v = Vec::new();
        // (3, 4) is on the upper band edge: its north neighbour (2, 4) is
        // outside the band.
        p.predecessors(GridPos::new(3, 4), &mut v);
        assert_eq!(v, vec![GridPos::new(3, 3), GridPos::new(2, 3)]);
    }

    #[test]
    fn validates_as_dag() {
        for band in [0, 1, 3, 20] {
            let p = Banded2D::new(GridDims::square(12), band);
            crate::dag::TaskDag::from_pattern(&p).validate().unwrap();
        }
    }

    #[test]
    fn zero_band_is_the_diagonal_chain() {
        let p = Banded2D::new(GridDims::square(6), 0);
        let dag = crate::dag::TaskDag::from_pattern(&p);
        assert_eq!(dag.len(), 6);
        assert_eq!(dag.sources().len(), 1);
        // Pure diagonal: each vertex has exactly one predecessor.
        assert_eq!(dag.edge_count(), 5);
    }

    #[test]
    fn vertex_count_is_linear_in_band() {
        let wide = Banded2D::new(GridDims::square(100), 50).vertex_count();
        let narrow = Banded2D::new(GridDims::square(100), 5).vertex_count();
        assert!(narrow < wide / 4);
        assert_eq!(
            narrow,
            (0..100u64)
                .map(|i| {
                    let lo = i.saturating_sub(5);
                    let hi = (i + 5).min(99);
                    hi - lo + 1
                })
                .sum::<u64>()
        );
    }

    #[test]
    fn square_coarsen_presence_exact_and_edges_superset() {
        let p = Banded2D::new(GridDims::square(20), 4);
        let tile = GridDims::square(3);
        let fast = p.coarsen(tile);
        let scan = coarsen_by_scan(&p, tile);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for tp in fast.dims().iter() {
            assert_eq!(fast.contains(tp), scan.contains(tp), "presence of {tp}");
            if !fast.contains(tp) {
                continue;
            }
            a.clear();
            b.clear();
            fast.predecessors(tp, &mut a);
            scan.predecessors(tp, &mut b);
            for q in &b {
                assert!(a.contains(q), "fast coarse must keep scan edge {q} of {tp}");
            }
        }
        crate::dag::TaskDag::from_pattern(fast.as_ref())
            .validate()
            .unwrap();
    }

    #[test]
    fn rectangular_tiles_fall_back_to_scan() {
        let p = Banded2D::new(GridDims::square(12), 3);
        let c = p.coarsen(GridDims::new(2, 3));
        crate::dag::TaskDag::from_pattern(c.as_ref())
            .validate()
            .unwrap();
    }
}
