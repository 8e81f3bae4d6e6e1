//! Row-above-prefix lookback pattern ("1.5D" recurrences like knapsack).

use crate::geom::{GridDims, GridPos, TileRegion};
use crate::pattern::{DagPattern, PatternKind};
use std::sync::Arc;

/// A recurrence where cell `(i, j)` reads only cells of the *previous row*
/// at arbitrary columns up to `j` — the 0/1-knapsack shape
/// `V[i,w] = max(V[i-1,w], V[i-1, w - w_i] + v_i)`.
///
/// Topologically a wavefront suffices (the west edge chains make the whole
/// previous-row prefix an ancestor), but the data-communication level must
/// carry the full prefix of the row above, because the lookback distance
/// `w_i` is data-dependent and unbounded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowLookback2D {
    dims: GridDims,
}

impl RowLookback2D {
    /// Pattern over a `dims` grid.
    pub fn new(dims: GridDims) -> Self {
        Self { dims }
    }
}

impl DagPattern for RowLookback2D {
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
    }

    fn data_dependencies(&self, p: GridPos, out: &mut Vec<GridPos>) {
        // Full prefix of the previous row, inclusive of the same column.
        if p.row > 0 {
            for c in 0..=p.col {
                out.push(GridPos::new(p.row - 1, c));
            }
        }
    }

    fn data_footprint(&self, reader: TileRegion, source: TileRegion) -> TileRegion {
        // Rows `r0..r1` read rows `r0-1..r1-1`, columns up to their own.
        source.intersect(&TileRegion::new(
            reader.row_start.saturating_sub(1),
            reader.row_end.saturating_sub(1),
            0,
            reader.col_end,
        ))
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Custom
    }

    fn coarsen(&self, tile: GridDims) -> Arc<dyn DagPattern> {
        Arc::new(CoarseRowLookback2D {
            grid: self.dims,
            tile,
        })
    }

    fn vertex_count(&self) -> u64 {
        self.dims.area()
    }
}

/// Tile-level shape of [`RowLookback2D`]: a tile reads the whole previous
/// row band up to its own column, plus (when its own band is taller than
/// one row) its own row band strictly to the left.
#[derive(Clone, Copy, Debug)]
struct CoarseRowLookback2D {
    grid: GridDims,
    tile: GridDims,
}

impl CoarseRowLookback2D {
    fn band_rows(&self, band: u32) -> u32 {
        let start = band * self.tile.rows;
        (start + self.tile.rows).min(self.grid.rows) - start
    }
}

impl DagPattern for CoarseRowLookback2D {
    fn dims(&self) -> GridDims {
        self.grid.tiled_by(self.tile)
    }

    fn predecessors(&self, p: GridPos, out: &mut Vec<GridPos>) {
        if p.row > 0 {
            out.push(GridPos::new(p.row - 1, p.col));
        }
        if p.col > 0 {
            out.push(GridPos::new(p.row, p.col - 1));
        }
    }

    fn data_dependencies(&self, p: GridPos, out: &mut Vec<GridPos>) {
        if p.row > 0 {
            for c in 0..=p.col {
                out.push(GridPos::new(p.row - 1, c));
            }
        }
        if self.band_rows(p.row) >= 2 {
            for c in 0..p.col {
                out.push(GridPos::new(p.row, c));
            }
        }
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Custom
    }

    fn coarsen(&self, tile: GridDims) -> Arc<dyn DagPattern> {
        Arc::new(CoarseRowLookback2D {
            grid: self.grid,
            tile: GridDims::new(self.tile.rows * tile.rows, self.tile.cols * tile.cols),
        })
    }

    fn vertex_count(&self) -> u64 {
        self.dims().area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::coarsen_by_scan;

    #[test]
    fn cell_data_deps_are_previous_row_prefix() {
        let p = RowLookback2D::new(GridDims::new(3, 5));
        let mut v = Vec::new();
        p.data_dependencies(GridPos::new(2, 3), &mut v);
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|q| q.row == 1 && q.col <= 3));
        v.clear();
        p.data_dependencies(GridPos::new(0, 4), &mut v);
        assert!(v.is_empty(), "first row has no lookback");
    }

    #[test]
    fn validates_as_dag() {
        crate::dag::TaskDag::from_pattern(&RowLookback2D::new(GridDims::new(6, 8)))
            .validate()
            .unwrap();
    }

    fn assert_coarsen_matches_scan(grid: GridDims, tile: GridDims) {
        let p = RowLookback2D::new(grid);
        let fast = p.coarsen(tile);
        let scan = coarsen_by_scan(&p, tile);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for tp in fast.dims().iter() {
            a.clear();
            b.clear();
            fast.data_dependencies(tp, &mut a);
            scan.data_dependencies(tp, &mut b);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "grid {grid} tile {tile}: data deps of tile {tp}");
        }
    }

    #[test]
    fn coarse_matches_scan() {
        assert_coarsen_matches_scan(GridDims::new(8, 8), GridDims::new(2, 2));
        assert_coarsen_matches_scan(GridDims::new(9, 7), GridDims::new(2, 3));
        assert_coarsen_matches_scan(GridDims::new(6, 5), GridDims::new(1, 2));
        assert_coarsen_matches_scan(GridDims::new(5, 6), GridDims::new(5, 2));
    }

    #[test]
    fn coarse_dag_validates() {
        let p = RowLookback2D::new(GridDims::new(40, 60));
        let c = p.coarsen(GridDims::new(7, 9));
        crate::dag::TaskDag::from_pattern(c.as_ref())
            .validate()
            .unwrap();
    }
}
