//! Shared helpers for the paper-figure binary and the figure-shape tests.
//!
//! Two scales are used throughout:
//!
//! * **paper scale** — the evaluation parameters of §VI (`seq_len = 10000`,
//!   `process_partition_size = 200`, `thread_partition_size = 10`), used by
//!   the `figures` binary to regenerate each figure's full data series;
//! * **bench scale** — a 5x reduced instance with the same tile geometry
//!   (`seq_len = 2000`, `pps = 100`, `tps = 10`), small enough for the
//!   figure-shape tests under `tests/` while preserving the DAG shapes.

use easyhps_sim::{CostModel, SimWorkload};

/// The paper's SWGG evaluation instance.
pub fn paper_swgg() -> SimWorkload {
    SimWorkload::swgg(10_000, 200, 10)
}

/// The paper's Nussinov evaluation instance.
pub fn paper_nussinov() -> SimWorkload {
    SimWorkload::nussinov(10_000, 200, 10)
}

/// Reduced SWGG instance for the figure-shape tests.
pub fn bench_swgg() -> SimWorkload {
    SimWorkload::swgg(2_000, 100, 10)
}

/// Reduced Nussinov instance for the figure-shape tests.
pub fn bench_nussinov() -> SimWorkload {
    SimWorkload::nussinov(2_000, 100, 10)
}

/// The calibration used for every figure.
pub fn cost() -> CostModel {
    CostModel::tianhe1a()
}

/// The total-core counts shared by several node deployments, used for the
/// Fig. 15 comparison (the paper highlights 20 and 40).
pub const FIG15_CORE_COUNTS: [u32; 6] = [14, 20, 27, 33, 40, 46];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_share_tile_geometry() {
        // Same 10x10 sub-tiles per tile and 20-21 tile rows per side ratio.
        assert_eq!(
            paper_swgg().model.thread_partition_size(),
            bench_swgg().model.thread_partition_size()
        );
        assert_eq!(paper_nussinov().model.rect_size().rows, 50);
        assert_eq!(bench_nussinov().model.rect_size().rows, 20);
    }
}
