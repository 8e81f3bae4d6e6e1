//! The kernel read contract of [`DpProblem::compute_region`]: a kernel
//! reads only the cells its pattern declares, which for a tile means the
//! cells of its data-dependency tiles inside the footprints an ASSIGN
//! ships ([`DagDataDrivenModel::input_region`]), plus cells of the tile it
//! has already written.
//!
//! A slave's node matrix outlives each tile, so every other cell holds
//! whatever an earlier tile left there. Each check below computes a tile
//! on a matrix that holds the true solution only in the tile's footprints
//! and the solution of a *different* instance of the same dims everywhere
//! else (the tile's own cells included); the tile must still come out
//! bit-identical to `solve_sequential`.

use easyhps_core::{DagDataDrivenModel, GridDims, GridPos, PatternKind};
use easyhps_dp::algos::Grammar;
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{
    BandedEditDistance, ClosureProblem, CykParser, DpProblem, EditDistance, Hmm, Knapsack, Lcs,
    LongestPalindrome, MatrixChain, NeedlemanWunsch, Nussinov, OptimalBst, Quadrant2D2D,
    SemiGlobal, SmithWatermanAffine, SmithWatermanGeneralGap, Viterbi,
};

/// Compute each of `tiles` of `problem` over `decoy`'s solution with only
/// the footprints overwritten by the truth, and compare the tile's bytes
/// with the sequential solution.
fn check_tiles<P: DpProblem>(problem: &P, decoy: &P, partition: GridDims, tiles: &[(u32, u32)]) {
    assert_eq!(problem.dims(), decoy.dims(), "decoy must share the dims");
    let truth = problem.solve_sequential();
    let stale = decoy.solve_sequential();
    assert_ne!(truth, stale, "{}: decoy equals the truth", problem.name());
    let model = DagDataDrivenModel::builder(problem.pattern())
        .process_partition_size(partition)
        .build();
    let dag = model.master_dag();
    for &tile in tiles {
        let tile = GridPos::from(tile);
        let v = dag.vertex_at(tile).expect("tile in the master DAG");
        let mut m = stale.clone();
        for d in &dag.vertex(v).data_deps {
            m.copy_region_from(&truth, model.input_region(tile, dag.vertex(*d).pos));
        }
        let region = model.tile_region(tile);
        problem.compute_region(&mut m, region);
        assert!(
            m.encode_region(region) == truth.encode_region(region),
            "{}: tile {tile} {region:?} read a cell outside its footprints",
            problem.name()
        );
    }
}

fn dna(len: usize, seed: u64) -> Vec<u8> {
    random_sequence(Alphabet::Dna, len, seed)
}

/// 29 × 27 grids in 8 × 8 tiles: an interior tile, the ragged corner and
/// a ragged bottom-edge tile.
const RECT: [(u32, u32); 3] = [(2, 1), (3, 3), (3, 1)];
/// 29 × 29 triangles in 8 × 8 tiles: an off-diagonal tile, a diagonal
/// tile and a ragged right-edge tile.
const TRI: [(u32, u32); 3] = [(1, 2), (2, 2), (1, 3)];

fn tile8() -> GridDims {
    GridDims::square(8)
}

#[test]
fn edit_distance() {
    let p = EditDistance::new(dna(28, 1), dna(26, 2));
    check_tiles(
        &p,
        &EditDistance::new(dna(28, 3), dna(26, 4)),
        tile8(),
        &RECT,
    );
}

#[test]
fn banded_edit_distance() {
    let p = BandedEditDistance::new(dna(28, 1), dna(26, 2), 10);
    let decoy = BandedEditDistance::new(dna(28, 3), dna(26, 4), 10);
    // Tiles that straddle the band edge.
    check_tiles(&p, &decoy, tile8(), &[(1, 2), (2, 1), (3, 3), (3, 2)]);
}

#[test]
fn lcs() {
    let p = Lcs::new(dna(28, 1), dna(26, 2));
    check_tiles(&p, &Lcs::new(dna(28, 3), dna(26, 4)), tile8(), &RECT);
}

#[test]
fn needleman_wunsch() {
    let p = NeedlemanWunsch::dna(dna(28, 1), dna(26, 2));
    let decoy = NeedlemanWunsch::dna(dna(28, 3), dna(26, 4));
    check_tiles(&p, &decoy, tile8(), &RECT);
}

#[test]
fn semi_global() {
    let p = SemiGlobal::dna(dna(28, 1), dna(26, 2));
    let decoy = SemiGlobal::dna(dna(28, 3), dna(26, 4));
    check_tiles(&p, &decoy, tile8(), &RECT);
}

#[test]
fn smith_waterman_affine() {
    let p = SmithWatermanAffine::dna(dna(28, 1), dna(26, 2));
    let decoy = SmithWatermanAffine::dna(dna(28, 3), dna(26, 4));
    check_tiles(&p, &decoy, tile8(), &RECT);
}

#[test]
fn smith_waterman_general_gap() {
    let p = SmithWatermanGeneralGap::dna(dna(28, 1), dna(26, 2));
    let decoy = SmithWatermanGeneralGap::dna(dna(28, 3), dna(26, 4));
    check_tiles(&p, &decoy, tile8(), &RECT);
}

#[test]
fn quadrant_2d2d() {
    let p = Quadrant2D2D::new(28, 1);
    check_tiles(
        &p,
        &Quadrant2D2D::new(28, 2),
        tile8(),
        &[(2, 1), (3, 3), (3, 2)],
    );
}

#[test]
fn knapsack() {
    let items = |seed: u64| -> Vec<(u32, u64)> {
        (0..20u64)
            .map(|i| {
                (
                    1 + ((i * 7 + seed * 3) % 9) as u32,
                    1 + (i * 13 + seed) % 50,
                )
            })
            .collect()
    };
    let p = Knapsack::new(&items(1), 40);
    let decoy = Knapsack::new(&items(2), 40);
    // 21 × 41 in 6 × 8 tiles.
    check_tiles(&p, &decoy, GridDims::new(6, 8), &[(1, 2), (3, 5), (3, 1)]);
}

#[test]
fn viterbi() {
    let obs = |seed: u64| -> Vec<u32> { (0..29u64).map(|t| ((t * 5 + seed) % 4) as u32).collect() };
    let p = Viterbi::new(Hmm::random(6, 4, 1), obs(1));
    // Every log-probability 0: each decoy cell outscores every true one
    // (all negative), so a stray read of the max kernel always shows.
    let certain = Hmm {
        states: 6,
        symbols: 4,
        log_init: vec![0.0; 6],
        log_trans: vec![0.0; 36],
        log_emit: vec![0.0; 24],
    };
    let decoy = Viterbi::new(certain, obs(2));
    // Row bands only, as the pattern requires; the last band is ragged.
    check_tiles(&p, &decoy, GridDims::new(8, 6), &[(1, 0), (3, 0)]);
}

#[test]
fn nussinov() {
    let rna = |seed| random_sequence(Alphabet::Rna, 29, seed);
    check_tiles(
        &Nussinov::new(rna(1)),
        &Nussinov::new(rna(2)),
        tile8(),
        &TRI,
    );
}

#[test]
fn longest_palindrome() {
    let p = LongestPalindrome::new(dna(29, 1));
    check_tiles(&p, &LongestPalindrome::new(dna(29, 2)), tile8(), &TRI);
}

#[test]
fn cyk() {
    let word = |seed: u64| -> Vec<u8> {
        (0..29u64)
            .map(|i| {
                if (i * 7 + seed).is_multiple_of(3) {
                    b')'
                } else {
                    b'('
                }
            })
            .collect()
    };
    let p = CykParser::new(Grammar::balanced_parens(), word(1));
    let decoy = CykParser::new(Grammar::balanced_parens(), word(2));
    check_tiles(&p, &decoy, tile8(), &TRI);
}

#[test]
fn matrix_chain() {
    let dims = |seed: u64| -> Vec<u64> { (0..30u64).map(|i| 2 + (i * 11 + seed) % 29).collect() };
    let p = MatrixChain::new(dims(1));
    check_tiles(&p, &MatrixChain::new(dims(2)), tile8(), &TRI);
}

#[test]
fn optimal_bst() {
    let freq = |seed: u64| -> Vec<u64> { (0..29u64).map(|i| 1 + (i * 17 + seed) % 40).collect() };
    let p = OptimalBst::new(freq(1));
    check_tiles(&p, &OptimalBst::new(freq(2)), tile8(), &TRI);
}

#[test]
fn closure_wavefront() {
    let closure_edit = |a: Vec<u8>, b: Vec<u8>| {
        let dims = GridDims::new(a.len() as u32 + 1, b.len() as u32 + 1);
        ClosureProblem::<i32>::builder("closure-edit", dims, PatternKind::Wavefront2D)
            .cell(move |ctx, p| {
                if p.row == 0 {
                    p.col as i32
                } else if p.col == 0 {
                    p.row as i32
                } else {
                    let sub = i32::from(a[p.row as usize - 1] != b[p.col as usize - 1]);
                    (ctx.get(p.row - 1, p.col) + 1)
                        .min(ctx.get(p.row, p.col - 1) + 1)
                        .min(ctx.get(p.row - 1, p.col - 1) + sub)
                }
            })
            .build()
    };
    let p = closure_edit(dna(28, 1), dna(26, 2));
    check_tiles(&p, &closure_edit(dna(28, 3), dna(26, 4)), tile8(), &RECT);
}

#[test]
fn closure_linear() {
    let chain = |seed: i64| {
        ClosureProblem::<i64>::builder("closure-chain", (1, 29), PatternKind::Linear1D)
            .cell(move |ctx, p| {
                if p.col == 0 {
                    seed
                } else {
                    (ctx.get(0, p.col - 1) * 3 + i64::from(p.col)) % 1_000_003
                }
            })
            .build()
    };
    check_tiles(&chain(1), &chain(2), GridDims::new(1, 8), &[(0, 1), (0, 3)]);
}
