//! Grid geometry for DP matrices and their tilings.
//!
//! The paper's Table I describes sizes and positions with `SizeT(row,col)`
//! and `PosT(x,y)`; we mirror those as [`GridDims`] and [`GridPos`].

use std::fmt;

/// Position of a cell (or tile) in a DP grid. `(row, col)` with `(0, 0)` the
/// upper-left corner, matching the paper's `dag_pos`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GridPos {
    /// Row index (0-based from the top).
    pub row: u32,
    /// Column index (0-based from the left).
    pub col: u32,
}

impl GridPos {
    /// Create a position from row and column indices.
    #[inline]
    pub const fn new(row: u32, col: u32) -> Self {
        Self { row, col }
    }

    /// Manhattan anti-diagonal index (`row + col`), the wavefront number.
    #[inline]
    pub const fn diagonal(self) -> u32 {
        self.row + self.col
    }
}

impl fmt::Debug for GridPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

impl fmt::Display for GridPos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

impl From<(u32, u32)> for GridPos {
    fn from((row, col): (u32, u32)) -> Self {
        Self { row, col }
    }
}

/// Rectangular extent of a grid, the paper's `SizeT(row, col)` (`dag_size`,
/// `partition_size`, `rect_size`).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDims {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
}

impl GridDims {
    /// Create an extent from row and column counts.
    #[inline]
    pub const fn new(rows: u32, cols: u32) -> Self {
        Self { rows, cols }
    }

    /// Square grid `n x n`.
    #[inline]
    pub const fn square(n: u32) -> Self {
        Self { rows: n, cols: n }
    }

    /// Total number of cells in the full rectangle.
    #[inline]
    pub const fn area(self) -> u64 {
        self.rows as u64 * self.cols as u64
    }

    /// Whether `p` lies inside the rectangle.
    #[inline]
    pub const fn contains(self, p: GridPos) -> bool {
        p.row < self.rows && p.col < self.cols
    }

    /// Row-major linear index of `p`; caller must ensure `self.contains(p)`.
    #[inline]
    pub const fn linear(self, p: GridPos) -> usize {
        p.row as usize * self.cols as usize + p.col as usize
    }

    /// Inverse of [`Self::linear`].
    #[inline]
    pub const fn from_linear(self, idx: usize) -> GridPos {
        GridPos {
            row: (idx / self.cols as usize) as u32,
            col: (idx % self.cols as usize) as u32,
        }
    }

    /// Iterate all positions in row-major order.
    pub fn iter(self) -> impl Iterator<Item = GridPos> {
        (0..self.rows).flat_map(move |r| (0..self.cols).map(move |c| GridPos::new(r, c)))
    }

    /// Number of tiles of size `tile` needed to cover this grid in each
    /// dimension (ceiling division). Panics if `tile` has a zero dimension.
    pub fn tiled_by(self, tile: GridDims) -> GridDims {
        assert!(tile.rows > 0 && tile.cols > 0, "tile dims must be nonzero");
        GridDims {
            rows: self.rows.div_ceil(tile.rows),
            cols: self.cols.div_ceil(tile.cols),
        }
    }
}

impl fmt::Debug for GridDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

impl fmt::Display for GridDims {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.rows, self.cols)
    }
}

impl From<(u32, u32)> for GridDims {
    fn from((rows, cols): (u32, u32)) -> Self {
        Self { rows, cols }
    }
}

/// A half-open rectangular region of cells: rows `row_start..row_end`,
/// columns `col_start..col_end`. This is the cell extent a tile covers after
/// task partition.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct TileRegion {
    /// First row (inclusive).
    pub row_start: u32,
    /// Past-the-end row (exclusive).
    pub row_end: u32,
    /// First column (inclusive).
    pub col_start: u32,
    /// Past-the-end column (exclusive).
    pub col_end: u32,
}

impl TileRegion {
    /// Create a region from half-open row and column ranges.
    pub const fn new(row_start: u32, row_end: u32, col_start: u32, col_end: u32) -> Self {
        Self {
            row_start,
            row_end,
            col_start,
            col_end,
        }
    }

    /// The region covered by tile `tile_pos` when `grid` is partitioned into
    /// `tile`-sized blocks (the last row/column of tiles may be ragged).
    pub fn of_tile(grid: GridDims, tile: GridDims, tile_pos: GridPos) -> Self {
        let row_start = tile_pos.row * tile.rows;
        let col_start = tile_pos.col * tile.cols;
        Self {
            row_start,
            row_end: (row_start + tile.rows).min(grid.rows),
            col_start,
            col_end: (col_start + tile.cols).min(grid.cols),
        }
    }

    /// Height of the region in cells.
    #[inline]
    pub const fn rows(&self) -> u32 {
        self.row_end - self.row_start
    }

    /// Width of the region in cells.
    #[inline]
    pub const fn cols(&self) -> u32 {
        self.col_end - self.col_start
    }

    /// Number of cells in the region.
    #[inline]
    pub const fn area(&self) -> u64 {
        self.rows() as u64 * self.cols() as u64
    }

    /// Whether `p` lies inside the region.
    #[inline]
    pub const fn contains(&self, p: GridPos) -> bool {
        p.row >= self.row_start
            && p.row < self.row_end
            && p.col >= self.col_start
            && p.col < self.col_end
    }

    /// Whether the region contains no cells.
    #[inline]
    pub const fn is_empty(&self) -> bool {
        self.row_start >= self.row_end || self.col_start >= self.col_end
    }

    /// Iterate the cells of the region in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = GridPos> + '_ {
        (self.row_start..self.row_end)
            .flat_map(move |r| (self.col_start..self.col_end).map(move |c| GridPos::new(r, c)))
    }

    /// Intersection with another region. An empty intersection keeps
    /// `end >= start` on both axes, so [`Self::area`] of it is 0.
    pub fn intersect(&self, other: &TileRegion) -> TileRegion {
        let row_start = self.row_start.max(other.row_start);
        let col_start = self.col_start.max(other.col_start);
        TileRegion {
            row_start,
            row_end: self.row_end.min(other.row_end).max(row_start),
            col_start,
            col_end: self.col_end.min(other.col_end).max(col_start),
        }
    }
}

impl fmt::Debug for TileRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{})x[{}..{})",
            self.row_start, self.row_end, self.col_start, self.col_end
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_roundtrip() {
        let d = GridDims::new(7, 5);
        for p in d.iter() {
            assert_eq!(d.from_linear(d.linear(p)), p);
        }
        assert_eq!(d.area(), 35);
    }

    #[test]
    fn diagonal_is_wavefront_index() {
        assert_eq!(GridPos::new(0, 0).diagonal(), 0);
        assert_eq!(GridPos::new(2, 3).diagonal(), 5);
    }

    #[test]
    fn tiled_by_rounds_up() {
        let g = GridDims::new(10, 10);
        assert_eq!(g.tiled_by(GridDims::new(3, 3)), GridDims::new(4, 4));
        assert_eq!(g.tiled_by(GridDims::new(5, 2)), GridDims::new(2, 5));
        assert_eq!(g.tiled_by(GridDims::new(10, 10)), GridDims::new(1, 1));
        assert_eq!(g.tiled_by(GridDims::new(20, 20)), GridDims::new(1, 1));
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn tiled_by_zero_panics() {
        GridDims::new(4, 4).tiled_by(GridDims::new(0, 1));
    }

    #[test]
    fn ragged_tile_regions_cover_grid_exactly() {
        let grid = GridDims::new(10, 7);
        let tile = GridDims::new(4, 3);
        let tiles = grid.tiled_by(tile);
        let mut seen = vec![0u8; grid.area() as usize];
        for tp in tiles.iter() {
            let region = TileRegion::of_tile(grid, tile, tp);
            assert!(!region.is_empty());
            for cell in region.iter() {
                seen[grid.linear(cell)] += 1;
            }
        }
        assert!(
            seen.iter().all(|&n| n == 1),
            "each cell covered exactly once"
        );
    }

    #[test]
    fn region_intersection() {
        let a = TileRegion::new(0, 5, 0, 5);
        let b = TileRegion::new(3, 8, 2, 4);
        let i = a.intersect(&b);
        assert_eq!(i, TileRegion::new(3, 5, 2, 4));
        let disjoint = TileRegion::new(6, 9, 0, 5);
        assert!(a.intersect(&disjoint).is_empty());
        assert_eq!(a.intersect(&disjoint).area(), 0);
        assert_eq!(disjoint.intersect(&a).area(), 0);
    }

    #[test]
    fn region_contains_and_iter_agree() {
        let r = TileRegion::new(2, 4, 1, 4);
        let cells: Vec<_> = r.iter().collect();
        assert_eq!(cells.len(), r.area() as usize);
        for c in &cells {
            assert!(r.contains(*c));
        }
        assert!(!r.contains(GridPos::new(4, 1)));
        assert!(!r.contains(GridPos::new(2, 0)));
    }
}
