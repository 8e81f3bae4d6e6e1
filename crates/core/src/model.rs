//! The DAG Data Driven Model (paper §IV): a cell-level pattern plus the two
//! partition sizes of the multilevel environment, with the data-mapping
//! function tying DAG vertices to matrix blocks.
//!
//! The builder mirrors the paper's Table I: `dag_size`,
//! `process_partition_size`, `thread_partition_size`, the pattern (library
//! or user-defined) and the `data_mapping_function`.

use crate::dag::TaskDag;
use crate::geom::{GridDims, GridPos, TileRegion};
use crate::pattern::{DagPattern, PatternKind};
use crate::patterns::{self, AntiWavefront2D, RestrictedPattern, TriangularGap};
use std::sync::Arc;

/// Maps an abstract-DAG vertex to the block of matrix cells it computes
/// (the paper's `data_mapping_function`).
pub type DataMappingFn = Arc<dyn Fn(GridPos) -> TileRegion + Send + Sync>;

/// A fully-initialized DAG Data Driven Model: everything the master and
/// slave schedulers need to partition, order and route data for one DP
/// problem.
#[derive(Clone)]
pub struct DagDataDrivenModel {
    cell_pattern: Arc<dyn DagPattern>,
    process_partition: GridDims,
    thread_partition: GridDims,
    mapping: DataMappingFn,
}

impl std::fmt::Debug for DagDataDrivenModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DagDataDrivenModel")
            .field("dag_size", &self.cell_pattern.dims())
            .field("kind", &self.cell_pattern.kind())
            .field("process_partition_size", &self.process_partition)
            .field("thread_partition_size", &self.thread_partition)
            .finish()
    }
}

impl DagDataDrivenModel {
    /// Start building a model around a cell-level pattern.
    pub fn builder(pattern: Arc<dyn DagPattern>) -> ModelBuilder {
        ModelBuilder {
            pattern,
            process_partition: None,
            thread_partition: None,
            mapping: None,
        }
    }

    /// Convenience: build from a library pattern kind and grid size with
    /// both partition sizes.
    pub fn from_library(
        kind: PatternKind,
        dag_size: GridDims,
        process_partition: GridDims,
        thread_partition: GridDims,
    ) -> Self {
        let pattern = patterns::builtin(kind, dag_size)
            .expect("library pattern kind required; build Custom patterns via builder()");
        Self::builder(pattern)
            .process_partition_size(process_partition)
            .thread_partition_size(thread_partition)
            .build()
    }

    /// The cell-level pattern (`dag_size` is its `dims()`).
    pub fn cell_pattern(&self) -> &Arc<dyn DagPattern> {
        &self.cell_pattern
    }

    /// The cell grid extent (paper's `dag_size`).
    pub fn dag_size(&self) -> GridDims {
        self.cell_pattern.dims()
    }

    /// Sub-task block size at process level.
    pub fn process_partition_size(&self) -> GridDims {
        self.process_partition
    }

    /// Sub-sub-task block size at thread level.
    pub fn thread_partition_size(&self) -> GridDims {
        self.thread_partition
    }

    /// Extent of the abstract (master-level) DAG grid — the paper's
    /// `rect_size`.
    pub fn rect_size(&self) -> GridDims {
        self.dag_size().tiled_by(self.process_partition)
    }

    /// The abstract master pattern over process-level tiles (Fig. 6c).
    pub fn master_pattern(&self) -> Arc<dyn DagPattern> {
        self.cell_pattern.coarsen(self.process_partition)
    }

    /// Materialized master DAG.
    pub fn master_dag(&self) -> TaskDag {
        TaskDag::from_pattern(self.master_pattern().as_ref())
    }

    /// Cell region computed by master tile `tile` (the data mapping).
    pub fn tile_region(&self, tile: GridPos) -> TileRegion {
        (self.mapping)(tile)
    }

    /// Cells of master tile `dep` that master tile `tile` reads: the
    /// cell pattern's [`DagPattern::data_footprint`] of the two tile
    /// regions. An ASSIGN for `tile` carries this region of each data
    /// dependency `dep`.
    pub fn input_region(&self, tile: GridPos, dep: GridPos) -> TileRegion {
        self.cell_pattern
            .data_footprint(self.tile_region(tile), self.tile_region(dep))
    }

    /// The slave-level pattern inside master tile `tile`: the cell pattern
    /// restricted to the tile's region, coarsened by
    /// `thread_partition_size`.
    ///
    /// Built-in patterns use analytic shapes (a tile of a wavefront is a
    /// wavefront; an off-diagonal tile of a triangular problem is an
    /// anti-wavefront); anything else goes through the generic
    /// [`RestrictedPattern`] scan.
    pub fn slave_pattern(&self, tile: GridPos) -> Arc<dyn DagPattern> {
        let region = self.tile_region(tile);
        let rdims = GridDims::new(region.rows(), region.cols());
        match self.cell_pattern.kind() {
            PatternKind::Wavefront2D | PatternKind::RowColumn2D1D | PatternKind::Full2D2D => {
                patterns::builtin(self.cell_pattern.kind(), rdims)
                    .expect("builtin kind")
                    .coarsen(self.thread_partition)
            }
            PatternKind::Linear1D => patterns::builtin(PatternKind::Linear1D, rdims)
                .expect("builtin kind")
                .coarsen(self.thread_partition),
            PatternKind::TriangularGap => {
                let square = self.process_partition.rows == self.process_partition.cols;
                if square && tile.row == tile.col && rdims.rows == rdims.cols {
                    // Diagonal tile: locally triangular.
                    Arc::new(TriangularGap::new(rdims.rows)).coarsen(self.thread_partition)
                } else if region.col_start >= region.row_end.saturating_sub(1) {
                    // Entirely above the diagonal: every cell valid, sweep
                    // from the bottom-left corner.
                    Arc::new(AntiWavefront2D::new(rdims)).coarsen(self.thread_partition)
                } else {
                    Arc::new(RestrictedPattern::new(self.cell_pattern.clone(), region))
                        .coarsen(self.thread_partition)
                }
            }
            PatternKind::Custom => {
                Arc::new(RestrictedPattern::new(self.cell_pattern.clone(), region))
                    .coarsen(self.thread_partition)
            }
        }
    }

    /// Materialized slave DAG for master tile `tile`.
    pub fn slave_dag(&self, tile: GridPos) -> TaskDag {
        TaskDag::from_pattern(self.slave_pattern(tile).as_ref())
    }

    /// Cell region (in *global* matrix coordinates) of sub-sub-task `sub`
    /// within master tile `tile`.
    pub fn sub_region(&self, tile: GridPos, sub: GridPos) -> TileRegion {
        let region = self.tile_region(tile);
        let rdims = GridDims::new(region.rows(), region.cols());
        let local = TileRegion::of_tile(rdims, self.thread_partition, sub);
        TileRegion::new(
            region.row_start + local.row_start,
            region.row_start + local.row_end,
            region.col_start + local.col_start,
            region.col_start + local.col_end,
        )
    }
}

/// Builder mirroring the paper's Table I knobs.
pub struct ModelBuilder {
    pattern: Arc<dyn DagPattern>,
    process_partition: Option<GridDims>,
    thread_partition: Option<GridDims>,
    mapping: Option<DataMappingFn>,
}

impl ModelBuilder {
    /// Size of sub-tasks divided at process level.
    pub fn process_partition_size(mut self, size: impl Into<GridDims>) -> Self {
        self.process_partition = Some(size.into());
        self
    }

    /// Size of sub-sub-tasks divided at thread level.
    pub fn thread_partition_size(mut self, size: impl Into<GridDims>) -> Self {
        self.thread_partition = Some(size.into());
        self
    }

    /// Override the data-mapping function (tile position -> cell region).
    /// The default maps tile `(R, C)` to the block
    /// `[R*pr, (R+1)*pr) x [C*pc, (C+1)*pc)` clipped to the grid, which is
    /// correct for every library pattern.
    pub fn data_mapping_function(
        mut self,
        f: impl Fn(GridPos) -> TileRegion + Send + Sync + 'static,
    ) -> Self {
        self.mapping = Some(Arc::new(f));
        self
    }

    /// Finalize the model; unset partitions default to the whole grid.
    pub fn build(self) -> DagDataDrivenModel {
        let dag_size = self.pattern.dims();
        let process_partition = self.process_partition.unwrap_or(dag_size);
        let thread_partition = self.thread_partition.unwrap_or(process_partition);
        assert!(
            process_partition.rows > 0 && process_partition.cols > 0,
            "process_partition_size must be nonzero"
        );
        assert!(
            thread_partition.rows > 0 && thread_partition.cols > 0,
            "thread_partition_size must be nonzero"
        );
        let mapping = self.mapping.unwrap_or_else(|| {
            Arc::new(move |tile: GridPos| TileRegion::of_tile(dag_size, process_partition, tile))
        });
        DagDataDrivenModel {
            cell_pattern: self.pattern,
            process_partition,
            thread_partition,
            mapping,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::TaskDag;
    use crate::patterns::{TriangularGap, Wavefront2D};

    fn wavefront_model() -> DagDataDrivenModel {
        DagDataDrivenModel::from_library(
            PatternKind::Wavefront2D,
            GridDims::square(100),
            GridDims::square(20),
            GridDims::square(5),
        )
    }

    #[test]
    fn rect_size_is_tile_grid() {
        let m = wavefront_model();
        assert_eq!(m.rect_size(), GridDims::square(5));
        assert_eq!(m.master_dag().len(), 25);
    }

    #[test]
    fn tile_regions_partition_the_matrix() {
        let m = wavefront_model();
        let mut count = vec![0u8; m.dag_size().area() as usize];
        for tile in m.rect_size().iter() {
            for cell in m.tile_region(tile).iter() {
                count[m.dag_size().linear(cell)] += 1;
            }
        }
        assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn sub_regions_partition_each_tile() {
        let m = wavefront_model();
        let tile = GridPos::new(2, 3);
        let region = m.tile_region(tile);
        let slave = m.slave_dag(tile);
        let mut covered = 0u64;
        for (_, v) in slave.iter() {
            let sub = m.sub_region(tile, v.pos);
            covered += sub.area();
            // Sub-regions stay inside the tile region.
            assert_eq!(sub.intersect(&region), sub);
        }
        assert_eq!(covered, region.area());
    }

    #[test]
    fn slave_dag_of_wavefront_is_wavefront() {
        let m = wavefront_model();
        let slave = m.slave_dag(GridPos::new(1, 1));
        assert_eq!(slave.dims(), GridDims::square(4));
        assert_eq!(slave.sources().len(), 1);
        slave.validate().unwrap();
    }

    #[test]
    fn triangular_slave_dags_match_generic_restriction() {
        let m = DagDataDrivenModel::builder(Arc::new(TriangularGap::new(24)))
            .process_partition_size(GridDims::square(8))
            .thread_partition_size(GridDims::square(4))
            .build();
        let master = m.master_dag();
        for (_, v) in master.iter() {
            let fast = m.slave_dag(v.pos);
            let generic = TaskDag::from_pattern(
                RestrictedPattern::new(m.cell_pattern().clone(), m.tile_region(v.pos))
                    .coarsen(m.thread_partition_size())
                    .as_ref(),
            );
            assert_eq!(fast.len(), generic.len(), "tile {}", v.pos);
            fast.validate().unwrap();
            // Same per-vertex predecessor sets.
            for (_, fv) in fast.iter() {
                let gid = generic.vertex_at(fv.pos).expect("same vertices");
                let mut fp: Vec<_> = fv.preds.iter().map(|p| fast.vertex(*p).pos).collect();
                let mut gp: Vec<_> = generic
                    .vertex(gid)
                    .preds
                    .iter()
                    .map(|p| generic.vertex(*p).pos)
                    .collect();
                fp.sort_unstable();
                gp.sort_unstable();
                assert_eq!(fp, gp, "tile {} sub {}", v.pos, fv.pos);
            }
        }
    }

    #[test]
    fn default_partitions_cover_whole_grid() {
        let m =
            DagDataDrivenModel::builder(Arc::new(Wavefront2D::new(GridDims::square(7)))).build();
        assert_eq!(m.rect_size(), GridDims::square(1));
        assert_eq!(m.tile_region(GridPos::new(0, 0)).area(), 49);
    }

    #[test]
    fn custom_data_mapping_is_used() {
        let m = DagDataDrivenModel::builder(Arc::new(Wavefront2D::new(GridDims::square(8))))
            .process_partition_size(GridDims::square(4))
            .thread_partition_size(GridDims::square(2))
            .data_mapping_function(|tile| {
                TileRegion::new(
                    tile.row * 4,
                    tile.row * 4 + 4,
                    tile.col * 4,
                    tile.col * 4 + 4,
                )
            })
            .build();
        assert_eq!(
            m.tile_region(GridPos::new(1, 1)),
            TileRegion::new(4, 8, 4, 8)
        );
    }

    #[test]
    fn ragged_grid_regions_clip() {
        let m = DagDataDrivenModel::from_library(
            PatternKind::Wavefront2D,
            GridDims::new(10, 10),
            GridDims::new(4, 4),
            GridDims::new(3, 3),
        );
        assert_eq!(m.rect_size(), GridDims::new(3, 3));
        let last = m.tile_region(GridPos::new(2, 2));
        assert_eq!(last, TileRegion::new(8, 10, 8, 10));
        let slave = m.slave_dag(GridPos::new(2, 2));
        assert_eq!(
            slave.len(),
            1,
            "2x2 region with 3x3 thread tiles is one sub-task"
        );
    }
}
