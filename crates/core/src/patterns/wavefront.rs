//! 2D/0D rectangular wavefront pattern.

use crate::geom::{GridDims, GridPos, TileRegion};
use crate::pattern::{DagPattern, PatternKind};
use std::sync::Arc;

/// The classic anti-diagonal wavefront: cell `(i, j)` depends on `(i-1, j)`,
/// `(i, j-1)` and `(i-1, j-1)`. Edit distance, LCS and affine-gap
/// Smith-Waterman (Gotoh) all have this shape; it is the paper's running
/// example for task partition (Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Wavefront2D {
    dims: GridDims,
}

impl Wavefront2D {
    /// Wavefront over a `dims` grid.
    pub fn new(dims: GridDims) -> Self {
        Self { dims }
    }
}

impl DagPattern for Wavefront2D {
    fn dims(&self) -> GridDims {
        self.dims
    }

    fn predecessors(&self, p: GridPos, out: &mut Vec<GridPos>) {
        if p.row > 0 {
            out.push(GridPos::new(p.row - 1, p.col));
        }
        if p.col > 0 {
            out.push(GridPos::new(p.row, p.col - 1));
        }
        if p.row > 0 && p.col > 0 {
            out.push(GridPos::new(p.row - 1, p.col - 1));
        }
    }

    fn data_footprint(&self, reader: TileRegion, source: TileRegion) -> TileRegion {
        stencil_halo(reader, source)
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Wavefront2D
    }

    fn coarsen(&self, tile: GridDims) -> Arc<dyn DagPattern> {
        // A wavefront of tiles is again a wavefront: tile (R, C) needs its
        // west, north and north-west neighbour tiles.
        Arc::new(Wavefront2D::new(self.dims.tiled_by(tile)))
    }

    fn vertex_count(&self) -> u64 {
        self.dims.area()
    }
}

/// The part of `source` in the one-cell halo north and west of `reader`:
/// everything a west/north/north-west stencil reads outside `reader`. For
/// block tiles that is the last row of a tile above, the last column of a
/// tile to the left and the corner cell of the diagonal tile.
pub(crate) fn stencil_halo(reader: TileRegion, source: TileRegion) -> TileRegion {
    source.intersect(&TileRegion::new(
        reader.row_start.saturating_sub(1),
        reader.row_end,
        reader.col_start.saturating_sub(1),
        reader.col_end,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn preds(p: &Wavefront2D, pos: (u32, u32)) -> Vec<GridPos> {
        let mut v = Vec::new();
        p.predecessors(pos.into(), &mut v);
        v
    }

    #[test]
    fn corner_has_no_predecessors() {
        let p = Wavefront2D::new(GridDims::square(4));
        assert!(preds(&p, (0, 0)).is_empty());
    }

    #[test]
    fn edges_have_one_predecessor() {
        let p = Wavefront2D::new(GridDims::square(4));
        assert_eq!(preds(&p, (0, 2)), vec![GridPos::new(0, 1)]);
        assert_eq!(preds(&p, (2, 0)), vec![GridPos::new(1, 0)]);
    }

    #[test]
    fn interior_has_three_predecessors() {
        let p = Wavefront2D::new(GridDims::square(4));
        let got = preds(&p, (2, 3));
        assert_eq!(
            got,
            vec![GridPos::new(1, 3), GridPos::new(2, 2), GridPos::new(1, 2)]
        );
    }

    #[test]
    fn coarsen_preserves_shape() {
        let p = Wavefront2D::new(GridDims::new(10, 8));
        let c = p.coarsen(GridDims::new(3, 3));
        assert_eq!(c.dims(), GridDims::new(4, 3));
        assert_eq!(c.kind(), PatternKind::Wavefront2D);
    }

    #[test]
    fn coarsen_matches_generic_scan() {
        let p = Wavefront2D::new(GridDims::new(7, 9));
        let tile = GridDims::new(2, 3);
        let fast = p.coarsen(tile);
        let slow = crate::pattern::coarsen_by_scan(&p, tile);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for tp in fast.dims().iter() {
            a.clear();
            b.clear();
            fast.predecessors(tp, &mut a);
            slow.predecessors(tp, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "tile {tp}");
        }
    }
}
