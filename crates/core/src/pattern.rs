//! The DAG Pattern Model: reusable dependency shapes for DP recurrences.
//!
//! A pattern describes, for every cell of a grid, which other cells must be
//! finished first (*topological level*) and which cells' values it reads
//! (*data communication level*). Section IV of the paper defines these two
//! levels; for many recurrences the topological predecessors are a small
//! subset of the data dependencies (e.g. a 2D/1D recurrence reads a whole
//! row prefix but is unblocked as soon as its left and upper neighbours are
//! done, because those transitively dominate the rest).
//!
//! Patterns are *scale free*: the same shape describes the cell-level DAG and
//! the tile-level "abstract DAG" obtained by task partition (paper Fig. 6).
//! [`DagPattern::coarsen`] produces the abstract pattern.

use crate::geom::{GridDims, GridPos, TileRegion};
use std::fmt;
use std::sync::Arc;

/// Classification of a pattern following Galil & Park's `tD/eD` taxonomy
/// (paper §IV-C): a problem is `tD/eD` when its matrix has `O(n^t)` cells and
/// each cell depends on `O(n^e)` others.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PatternKind {
    /// 2D/0D rectangular wavefront: each cell depends on its west, north and
    /// north-west neighbours (edit distance, LCS, affine-gap Smith-Waterman).
    Wavefront2D,
    /// 2D/1D rectangular: unblocked by west/north neighbours, but reads the
    /// full row and column prefixes (Smith-Waterman with a general gap
    /// function).
    RowColumn2D1D,
    /// 2D/1D upper-triangular: cell `(i, j)` with `i <= j` depends on
    /// `(i, j-1)` and `(i+1, j)` and reads the row segment `(i, i..j)` plus
    /// the column segment `(i+1..=j, j)` (Nussinov, matrix-chain
    /// multiplication, optimal BST).
    TriangularGap,
    /// 2D/2D rectangular: each cell reads every cell strictly north-west of
    /// it.
    Full2D2D,
    /// 1D chain: cell `i` depends on cell `i-1`.
    Linear1D,
    /// User-defined pattern with explicit dependency closures or edge lists.
    Custom,
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PatternKind::Wavefront2D => "wavefront-2D/0D",
            PatternKind::RowColumn2D1D => "rowcol-2D/1D",
            PatternKind::TriangularGap => "triangular-2D/1D",
            PatternKind::Full2D2D => "full-2D/2D",
            PatternKind::Linear1D => "linear-1D",
            PatternKind::Custom => "custom",
        };
        f.write_str(s)
    }
}

/// A DAG Pattern Model (paper §IV-A): the dependency shape of a DP
/// recurrence over a grid of cells or tiles.
///
/// Implementations must be consistent:
/// * every position returned by [`predecessors`](Self::predecessors) or
///   [`data_dependencies`](Self::data_dependencies) must satisfy
///   [`contains`](Self::contains);
/// * the predecessor relation must be acyclic;
/// * the transitive closure of the predecessor relation must include every
///   data dependency (a cell may only read values that are guaranteed
///   finished when it becomes computable).
pub trait DagPattern: Send + Sync + fmt::Debug {
    /// Grid extent (the paper's `dag_size`, or `rect_size` for an abstract
    /// pattern).
    fn dims(&self) -> GridDims;

    /// Whether `p` is a real vertex of the DAG. Rectangular patterns contain
    /// every in-bounds position; triangular ones only `col >= row`.
    fn contains(&self, p: GridPos) -> bool {
        self.dims().contains(p)
    }

    /// Topological-level predecessors of `p` (pushed into `out`, which the
    /// caller has cleared). These gate when `p` becomes computable.
    fn predecessors(&self, p: GridPos, out: &mut Vec<GridPos>);

    /// Data-communication-level dependencies of `p`: every vertex whose
    /// output `p` reads. Defaults to the topological predecessors, which is
    /// exact for 2D/0D patterns.
    fn data_dependencies(&self, p: GridPos, out: &mut Vec<GridPos>) {
        self.predecessors(p, out);
    }

    /// The data communication level at region granularity: the bounding
    /// box of the cells of `source` that cells of `reader` read (both in
    /// cell coordinates, disjoint). This is what the master ships of a
    /// dependency tile with an ASSIGN.
    ///
    /// Must contain every [`data_dependencies`](Self::data_dependencies)
    /// entry of a `reader` cell that lies in `source`. The default is all
    /// of `source`, which is right for any pattern; patterns whose reads
    /// stay next to the cell override it with an `O(1)` box.
    fn data_footprint(&self, _reader: TileRegion, source: TileRegion) -> TileRegion {
        source
    }

    /// The tD/eD classification of this pattern.
    fn kind(&self) -> PatternKind;

    /// Build the abstract pattern over `tile`-sized blocks (paper Fig. 6c).
    ///
    /// Built-in patterns are closed under square blocking and return the same
    /// shape at the coarser granularity; the default implementation derives
    /// the abstract DAG by scanning cell dependencies, which is correct for
    /// any pattern but costs `O(cells x degree)`.
    fn coarsen(&self, tile: GridDims) -> Arc<dyn DagPattern> {
        Arc::new(coarsen_by_scan(self, tile))
    }

    /// Number of vertices actually present (`contains` == true). Rectangular
    /// patterns override with `dims().area()`.
    fn vertex_count(&self) -> u64 {
        self.dims().iter().filter(|&p| self.contains(p)).count() as u64
    }
}

/// Generic coarsening: maps every cell-level dependency to the tile level
/// and deduplicates. Produces an explicit [`CustomPattern`].
pub(crate) fn coarsen_by_scan(
    pattern: &(impl DagPattern + ?Sized),
    tile: GridDims,
) -> crate::patterns::CustomPattern {
    let grid = pattern.dims();
    let tiles = grid.tiled_by(tile);
    let tile_of = |p: GridPos| GridPos::new(p.row / tile.rows, p.col / tile.cols);

    let mut present = vec![false; tiles.area() as usize];
    let mut preds: Vec<Vec<GridPos>> = vec![Vec::new(); tiles.area() as usize];
    let mut data: Vec<Vec<GridPos>> = vec![Vec::new(); tiles.area() as usize];

    let mut buf = Vec::new();
    for cell in grid.iter() {
        if !pattern.contains(cell) {
            continue;
        }
        let t = tile_of(cell);
        let ti = tiles.linear(t);
        present[ti] = true;
        buf.clear();
        pattern.predecessors(cell, &mut buf);
        for &dep in &buf {
            let dt = tile_of(dep);
            if dt != t && !preds[ti].contains(&dt) {
                preds[ti].push(dt);
            }
        }
        buf.clear();
        pattern.data_dependencies(cell, &mut buf);
        for &dep in &buf {
            let dt = tile_of(dep);
            if dt != t && !data[ti].contains(&dt) {
                data[ti].push(dt);
            }
        }
    }
    for v in preds.iter_mut().chain(data.iter_mut()) {
        v.sort_unstable();
    }
    crate::patterns::CustomPattern::from_parts(tiles, present, preds, data)
}

/// Tile region helper: cell extent of tile `tp` when `grid` is partitioned
/// into `tile`-sized blocks.
pub fn tile_region(grid: GridDims, tile: GridDims, tp: GridPos) -> TileRegion {
    TileRegion::of_tile(grid, tile, tp)
}
