//! 1D chain pattern.

use crate::geom::{GridDims, GridPos, TileRegion};
use crate::pattern::{DagPattern, PatternKind};
use std::sync::Arc;

/// A 1D chain of `n` stages: stage `i` depends on stage `i-1`. Useful for
/// staged reductions and as the degenerate pattern in tests; also the shape
/// of 1D DP recurrences with `O(1)` lookback.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Linear1D {
    n: u32,
}

impl Linear1D {
    /// Chain of `n` stages.
    pub fn new(n: u32) -> Self {
        Self { n }
    }

    /// Number of stages.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// True when the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl DagPattern for Linear1D {
    fn dims(&self) -> GridDims {
        GridDims::new(1, self.n)
    }

    fn predecessors(&self, p: GridPos, out: &mut Vec<GridPos>) {
        if p.col > 0 {
            out.push(GridPos::new(0, p.col - 1));
        }
    }

    fn data_footprint(&self, reader: TileRegion, source: TileRegion) -> TileRegion {
        // Stages `c0..c1` read stages `c0-1..c1-1`.
        source.intersect(&TileRegion::new(
            0,
            1,
            reader.col_start.saturating_sub(1),
            reader.col_end.saturating_sub(1),
        ))
    }

    fn kind(&self) -> PatternKind {
        PatternKind::Linear1D
    }

    fn coarsen(&self, tile: GridDims) -> Arc<dyn DagPattern> {
        Arc::new(Linear1D::new(self.n.div_ceil(tile.cols)))
    }

    fn vertex_count(&self) -> u64 {
        self.n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_dependencies() {
        let p = Linear1D::new(5);
        let mut v = Vec::new();
        p.predecessors(GridPos::new(0, 0), &mut v);
        assert!(v.is_empty());
        p.predecessors(GridPos::new(0, 3), &mut v);
        assert_eq!(v, vec![GridPos::new(0, 2)]);
    }

    #[test]
    fn coarsen_shortens_chain() {
        let p = Linear1D::new(10);
        let c = p.coarsen(GridDims::new(1, 4));
        assert_eq!(c.dims(), GridDims::new(1, 3));
        assert_eq!(c.kind(), PatternKind::Linear1D);
    }
}
