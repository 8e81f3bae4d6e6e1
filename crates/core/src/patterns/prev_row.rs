//! Full-previous-row pattern (Viterbi-style row barriers).

use crate::geom::{GridDims, GridPos, TileRegion};
use crate::pattern::{DagPattern, PatternKind};

/// A recurrence where every cell of row `t` reads the *entire* row `t-1`
/// (Viterbi trellises, power-iteration-style sweeps). Rows are barriers:
/// cells within a row are mutually independent, but no cell of row `t`
/// may start before all of row `t-1` finished.
///
/// Partitioning caveat: splitting both rows *and* columns makes sibling
/// column tiles of one band depend on each other (each holds part of the
/// previous row the other needs), which is a cycle. The generic coarsening
/// faithfully produces that cycle, and
/// [`crate::TaskDag::validate`]/[`crate::TaskDag::topological_order`]
/// reject it — partition this pattern by rows only (tile `cols >= grid
/// cols`), or with single-row bands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrevRow2D {
    dims: GridDims,
}

impl PrevRow2D {
    /// Pattern over a `dims` grid.
    pub fn new(dims: GridDims) -> Self {
        Self { dims }
    }
}

impl DagPattern for PrevRow2D {
    fn dims(&self) -> GridDims {
        self.dims
    }

    fn predecessors(&self, p: GridPos, out: &mut Vec<GridPos>) {
        if p.row > 0 {
            for c in 0..self.dims.cols {
                out.push(GridPos::new(p.row - 1, c));
            }
        }
    }

    fn data_footprint(&self, reader: TileRegion, source: TileRegion) -> TileRegion {
        // Rows `r0..r1` read the whole of rows `r0-1..r1-1`.
        source.intersect(&TileRegion::new(
            reader.row_start.saturating_sub(1),
            reader.row_end.saturating_sub(1),
            0,
            self.dims.cols,
        ))
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Custom
    }

    fn vertex_count(&self) -> u64 {
        self.dims.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TaskDag;

    #[test]
    fn rows_are_barriers() {
        let p = PrevRow2D::new(GridDims::new(3, 4));
        let dag = TaskDag::from_pattern(&p);
        dag.validate().unwrap();
        // Row 0 cells are sources; every row-1 cell has 4 preds.
        assert_eq!(dag.sources().len(), 4);
        let v = dag.vertex_at(GridPos::new(1, 2)).unwrap();
        assert_eq!(dag.vertex(v).preds.len(), 4);
    }

    #[test]
    fn row_partition_coarsens_to_a_chain() {
        let p = PrevRow2D::new(GridDims::new(12, 6));
        let c = p.coarsen(GridDims::new(3, 6)); // full-row tiles
        let dag = TaskDag::from_pattern(c.as_ref());
        dag.validate().unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.edge_count(), 3, "a pure chain of row bands");
    }

    #[test]
    fn single_row_bands_with_column_splits_are_fine() {
        let p = PrevRow2D::new(GridDims::new(6, 8));
        let c = p.coarsen(GridDims::new(1, 3));
        TaskDag::from_pattern(c.as_ref()).validate().unwrap();
    }

    #[test]
    fn column_splitting_multi_row_bands_is_rejected_as_cyclic() {
        let p = PrevRow2D::new(GridDims::new(6, 8));
        let c = p.coarsen(GridDims::new(2, 4));
        let dag = TaskDag::from_pattern(c.as_ref());
        assert!(
            dag.topological_order().is_err(),
            "sibling column tiles must form a detectable cycle"
        );
    }
}
