//! Property-based tests for the DAG Data Driven Model invariants.

use easyhps_core::patterns::{
    AntiWavefront2D, Banded2D, CustomPattern, Full2D2D, Linear1D, PrevRow2D, RestrictedPattern,
    RowColumn2D1D, RowLookback2D, TriangularGap, Wavefront2D,
};
use easyhps_core::{
    DagDataDrivenModel, DagParser, DagPattern, GridDims, GridPos, PatternKind, TaskDag, TileRegion,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy producing an arbitrary built-in pattern with modest dims,
/// plus whether its fast coarsening produces *exactly* the projected
/// edges (Banded2D documents a sound superset at band corners).
fn arb_pattern_ex() -> impl Strategy<Value = (Arc<dyn DagPattern>, bool)> {
    (1u32..14, 1u32..14, 0usize..8, 0u32..6).prop_map(|(rows, cols, kind, band)| {
        let dims = GridDims::new(rows, cols);
        let n = rows.max(cols);
        match kind {
            0 => (
                Arc::new(Wavefront2D::new(dims)) as Arc<dyn DagPattern>,
                true,
            ),
            1 => (
                Arc::new(RowColumn2D1D::new(dims)) as Arc<dyn DagPattern>,
                true,
            ),
            2 => (Arc::new(TriangularGap::new(n)) as Arc<dyn DagPattern>, true),
            3 => (Arc::new(Full2D2D::new(dims)) as Arc<dyn DagPattern>, true),
            4 => (Arc::new(Linear1D::new(cols)) as Arc<dyn DagPattern>, true),
            5 => (
                Arc::new(AntiWavefront2D::new(dims)) as Arc<dyn DagPattern>,
                true,
            ),
            6 => (
                Arc::new(RowLookback2D::new(dims)) as Arc<dyn DagPattern>,
                true,
            ),
            // The band must keep the last row/col reachable from (0,0).
            _ => (
                Arc::new(Banded2D::new(
                    GridDims::square(n),
                    band + rows.abs_diff(cols),
                )) as Arc<dyn DagPattern>,
                false,
            ),
        }
    })
}

/// Arbitrary pattern, shape only.
fn arb_pattern() -> impl Strategy<Value = Arc<dyn DagPattern>> {
    arb_pattern_ex().prop_map(|(p, _)| p)
}

proptest! {
    /// Every built-in pattern materializes to a valid DAG: acyclic, with
    /// data dependencies dominated by topological predecessors.
    #[test]
    fn builtin_patterns_validate(pattern in arb_pattern()) {
        let dag = TaskDag::from_pattern(pattern.as_ref());
        prop_assert!(dag.validate().is_ok());
        prop_assert_eq!(dag.len() as u64, pattern.vertex_count());
    }

    /// The parser drains every vertex exactly once in a topological order.
    #[test]
    fn parser_drains_in_topo_order(pattern in arb_pattern()) {
        let dag = TaskDag::from_pattern(pattern.as_ref());
        let mut seen = vec![false; dag.len()];
        DagParser::drain_sequential(&dag, |v| {
            assert!(!seen[v.index()]);
            for p in &dag.vertex(v).preds {
                assert!(seen[p.index()]);
            }
            seen[v.index()] = true;
        });
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Coarsening preserves acyclicity and covers every cell exactly once.
    #[test]
    fn coarsening_is_sound(
        pattern in arb_pattern(),
        tr in 1u32..5,
        tc in 1u32..5,
    ) {
        let tile = GridDims::new(tr, tc);
        let coarse = pattern.coarsen(tile);
        let cdag = TaskDag::from_pattern(coarse.as_ref());
        prop_assert!(cdag.validate().is_ok());

        // Every present cell belongs to exactly one present tile, and every
        // present tile contains at least one present cell.
        let grid = pattern.dims();
        for cell in grid.iter() {
            if !pattern.contains(cell) { continue; }
            let tp = GridPos::new(cell.row / tr, cell.col / tc);
            prop_assert!(coarse.contains(tp), "cell {} in absent tile {}", cell, tp);
        }
        for (_, v) in cdag.iter() {
            let region = TileRegion::of_tile(grid, tile, v.pos);
            prop_assert!(
                region.iter().any(|c| pattern.contains(c)),
                "tile {} contains no present cell", v.pos
            );
        }
    }

    /// Coarse edges are exactly the projections of fine edges: if tile A
    /// precedes tile B, some cell of A is a predecessor of some cell of B.
    /// (Banded2D is excluded: its fast coarsening documents a sound
    /// superset of the projected edges at band corners.)
    #[test]
    fn coarse_edges_project_fine_edges(
        (pattern, exact) in arb_pattern_ex(),
        t in 1u32..4,
    ) {
        prop_assume!(exact);
        let tile = GridDims::square(t);
        let coarse = pattern.coarsen(tile);
        let grid = pattern.dims();
        let cdag = TaskDag::from_pattern(coarse.as_ref());
        let mut buf = Vec::new();
        for (_, v) in cdag.iter() {
            for p in &v.preds {
                let pred_pos = cdag.vertex(*p).pos;
                let region = TileRegion::of_tile(grid, tile, v.pos);
                let found = region.iter().filter(|c| pattern.contains(*c)).any(|c| {
                    buf.clear();
                    pattern.predecessors(c, &mut buf);
                    buf.iter().any(|d| d.row / t == pred_pos.row && d.col / t == pred_pos.col)
                });
                prop_assert!(found, "coarse edge {} -> {} has no fine witness", pred_pos, v.pos);
            }
        }
    }

    /// Multilevel partition: master tiles' regions partition the grid, and
    /// each tile's sub-regions partition the tile.
    #[test]
    fn multilevel_partition_is_exact(
        n in 4u32..40,
        pp in 2u32..10,
        tp in 1u32..5,
        triangular in proptest::bool::ANY,
    ) {
        let pattern: Arc<dyn DagPattern> = if triangular {
            Arc::new(TriangularGap::new(n))
        } else {
            Arc::new(Wavefront2D::new(GridDims::square(n)))
        };
        let model = DagDataDrivenModel::builder(pattern)
            .process_partition_size(GridDims::square(pp))
            .thread_partition_size(GridDims::square(tp))
            .build();

        let mut cover = vec![0u8; (n as usize) * (n as usize)];
        let master = model.master_dag();
        for (_, v) in master.iter() {
            let slave = model.slave_dag(v.pos);
            slave.validate().unwrap();
            for (_, sv) in slave.iter() {
                for cell in model.sub_region(v.pos, sv.pos).iter() {
                    cover[model.dag_size().linear(cell)] += 1;
                }
            }
        }
        // Present cells covered exactly once...
        let expected: u64 = if triangular { (n as u64) * (n as u64 + 1) / 2 } else { (n as u64) * (n as u64) };
        let mut covered = 0u64;
        for (idx, &c) in cover.iter().enumerate() {
            let pos = model.dag_size().from_linear(idx);
            if model.cell_pattern().contains(pos) {
                // Cells of present tiles are covered exactly once (absent
                // cells inside diagonal tiles are covered zero or one time
                // depending on sub-tile shape, so only check present ones).
                prop_assert!(c >= 1, "present cell {} uncovered", pos);
                covered += 1;
            }
        }
        prop_assert_eq!(covered, expected);
    }

    /// Random custom DAGs: edges sampled forward over a shuffled order are
    /// always acyclic and drain fully.
    #[test]
    fn random_custom_dags_drain(
        rows in 1u32..6,
        cols in 1u32..6,
        edge_seed in proptest::collection::vec((0u32..36, 0u32..36), 0..40),
    ) {
        let dims = GridDims::new(rows, cols);
        let n = dims.area() as u32;
        let mut b = CustomPattern::builder(dims);
        for (a, c) in edge_seed {
            let (a, c) = (a % n, c % n);
            // Orient edges by linear index to guarantee acyclicity.
            if a == c { continue; }
            let (from, to) = if a < c { (a, c) } else { (c, a) };
            b = b
                .dependency(dims.from_linear(to as usize), dims.from_linear(from as usize))
                .unwrap();
        }
        let p = b.finish().unwrap();
        let dag = TaskDag::from_pattern(&p);
        let mut count = 0;
        DagParser::drain_sequential(&dag, |_| count += 1);
        prop_assert_eq!(count, dag.len());
    }

    /// Restricting a pattern to a region keeps it a valid DAG and keeps all
    /// local coordinates in range.
    #[test]
    fn restriction_is_sound(
        pattern in arb_pattern(),
        r0 in 0u32..8,
        c0 in 0u32..8,
        h in 1u32..8,
        w in 1u32..8,
    ) {
        let dims = pattern.dims();
        let region = TileRegion::new(
            r0.min(dims.rows.saturating_sub(1)),
            (r0 + h).min(dims.rows).max(r0.min(dims.rows.saturating_sub(1)) + 1).min(dims.rows),
            c0.min(dims.cols.saturating_sub(1)),
            (c0 + w).min(dims.cols).max(c0.min(dims.cols.saturating_sub(1)) + 1).min(dims.cols),
        );
        prop_assume!(!region.is_empty());
        let restricted = RestrictedPattern::new(pattern, region);
        let dag = TaskDag::from_pattern(&restricted);
        prop_assert!(dag.validate().is_ok());
        for (_, v) in dag.iter() {
            prop_assert!(v.pos.row < region.rows() && v.pos.col < region.cols());
        }
    }

    /// fail() then re-complete never loses or duplicates tasks.
    #[test]
    fn fail_requeue_preserves_conservation(
        n in 2u32..10,
        fail_mask in proptest::collection::vec(proptest::bool::ANY, 100),
    ) {
        let dag = TaskDag::from_pattern(&TriangularGap::new(n));
        let mut parser = DagParser::new(&dag);
        let mut completions = vec![0u32; dag.len()];
        let mut step = 0usize;
        while let Some(v) = parser.pop_computable() {
            if fail_mask[step % fail_mask.len()] && completions[v.index()] == 0 && step.is_multiple_of(3) {
                parser.fail(&dag, v).unwrap();
            } else {
                parser.complete(&dag, v, None).unwrap();
                completions[v.index()] += 1;
            }
            step += 1;
        }
        prop_assert!(parser.is_done());
        prop_assert!(completions.iter().all(|&c| c == 1));
    }
}

/// A pattern for the footprint property, with its process partition:
/// every built-in pattern, and a `coarsen_by_scan` product (a banded
/// wavefront blocked by non-square tiles) used as a cell pattern.
/// [`PrevRow2D`] is partitioned by rows only, as its docs require.
fn footprint_case(
    kind: usize,
    rows: u32,
    cols: u32,
    band: u32,
    tile: GridDims,
) -> (Arc<dyn DagPattern>, GridDims) {
    let dims = GridDims::new(rows, cols);
    let n = rows.max(cols);
    let pattern: Arc<dyn DagPattern> = match kind {
        0 => Arc::new(Wavefront2D::new(dims)),
        1 => Arc::new(RowColumn2D1D::new(dims)),
        2 => Arc::new(TriangularGap::new(n)),
        3 => Arc::new(Full2D2D::new(dims)),
        4 => Arc::new(Linear1D::new(cols)),
        5 => Arc::new(AntiWavefront2D::new(dims)),
        6 => Arc::new(RowLookback2D::new(dims)),
        7 => Arc::new(Banded2D::new(GridDims::square(n), band)),
        8 => {
            return (
                Arc::new(PrevRow2D::new(dims)),
                GridDims::new(tile.rows, cols),
            )
        }
        _ => Banded2D::new(GridDims::square(n), band).coarsen(GridDims::new(1, 2)),
    };
    (pattern, tile)
}

proptest! {
    /// The data communication level at tile granularity: every cell a
    /// tile reads outside itself lies in a data-dependency tile, inside
    /// the footprint the pattern declares for that pair (which is what an
    /// ASSIGN ships). Footprints stay inside their source tile.
    #[test]
    fn data_footprints_cover_cell_reads(
        kind in 0usize..10,
        rows in 1u32..12,
        cols in 1u32..12,
        band in 0u32..4,
        tr in 1u32..5,
        tc in 1u32..5,
    ) {
        let (pattern, tile) = footprint_case(kind, rows, cols, band, GridDims::new(tr, tc));
        let model = DagDataDrivenModel::builder(pattern.clone())
            .process_partition_size(tile)
            .build();
        let dag = model.master_dag();
        let mut buf = Vec::new();
        for (_, v) in dag.iter() {
            let reader = model.tile_region(v.pos);
            let inputs: Vec<_> = v
                .data_deps
                .iter()
                .map(|d| {
                    let dep = dag.vertex(*d).pos;
                    (model.tile_region(dep), model.input_region(v.pos, dep))
                })
                .collect();
            for (source, fp) in &inputs {
                prop_assert_eq!(fp.intersect(source), *fp, "footprint leaves its source");
            }
            for cell in reader.iter().filter(|c| pattern.contains(*c)) {
                buf.clear();
                pattern.data_dependencies(cell, &mut buf);
                for dd in buf.iter().filter(|dd| !reader.contains(**dd)) {
                    let hit = inputs.iter().find(|(source, _)| source.contains(*dd));
                    prop_assert!(hit.is_some(), "{} reads {} outside every dependency", cell, dd);
                    let (source, fp) = hit.unwrap();
                    prop_assert!(
                        fp.contains(*dd),
                        "{} reads {} of {:?} outside footprint {:?}", cell, dd, source, fp
                    );
                }
            }
        }
    }

    /// A wavefront tile ships exactly the one-cell halo: the last row of
    /// the tile above, the last column of the tile to the left, the
    /// corner of the diagonal tile — on ragged partitions too.
    #[test]
    fn wavefront_footprints_are_exact_halo_strips(
        rows in 1u32..20,
        cols in 1u32..20,
        tr in 1u32..6,
        tc in 1u32..6,
    ) {
        let model = DagDataDrivenModel::builder(Arc::new(Wavefront2D::new(GridDims::new(rows, cols))))
            .process_partition_size(GridDims::new(tr, tc))
            .build();
        let dag = model.master_dag();
        for (_, v) in dag.iter() {
            for d in &v.data_deps {
                let dep = dag.vertex(*d).pos;
                let s = model.tile_region(dep);
                let want = match (v.pos.row - dep.row, v.pos.col - dep.col) {
                    (1, 0) => TileRegion::new(s.row_end - 1, s.row_end, s.col_start, s.col_end),
                    (0, 1) => TileRegion::new(s.row_start, s.row_end, s.col_end - 1, s.col_end),
                    (1, 1) => TileRegion::new(s.row_end - 1, s.row_end, s.col_end - 1, s.col_end),
                    other => panic!("wavefront dependency at offset {other:?}"),
                };
                prop_assert_eq!(model.input_region(v.pos, dep), want);
            }
        }
    }
}

#[test]
fn library_lookup_covers_all_builtin_kinds() {
    use easyhps_core::patterns::builtin;
    for kind in [
        PatternKind::Wavefront2D,
        PatternKind::RowColumn2D1D,
        PatternKind::TriangularGap,
        PatternKind::Full2D2D,
        PatternKind::Linear1D,
    ] {
        let p = builtin(kind, GridDims::square(6)).expect("library kind");
        assert_eq!(p.kind(), kind);
        TaskDag::from_pattern(p.as_ref()).validate().unwrap();
    }
    assert!(builtin(PatternKind::Custom, GridDims::square(4)).is_none());
}
