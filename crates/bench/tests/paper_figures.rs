//! The paper's §VI figure shapes at bench scale (`bench_swgg`,
//! `bench_nussinov`): the Fig 15 node-grouping crossover, Fig 16 speedup
//! growth and Fig 17 BCW/EasyHPS ratio. The `figures` binary prints the
//! same series at paper scale.

use easyhps_bench::{bench_nussinov, bench_swgg, cost, FIG15_CORE_COUNTS};
use easyhps_sim::{bcw_ratio_series, node_comparison_series, speedup_series};

/// Fig 15: at 20 total cores fewer nodes win; at 40, more nodes win.
#[test]
fn fig15_node_grouping_crossover() {
    for (name, workload) in [("swgg", bench_swgg()), ("nussinov", bench_nussinov())] {
        let series = node_comparison_series(&workload, cost(), &FIG15_CORE_COUNTS);
        let at = |nodes: f64, cores: f64| {
            series
                .iter()
                .find(|s| s.label.starts_with(&format!("{nodes}")))
                .and_then(|s| s.y_at(cores))
        };
        // At bench scale the gap can shrink to a tie; allow 2% slack.
        if let (Some(a4), Some(a5)) = (at(4.0, 20.0), at(5.0, 20.0)) {
            assert!(
                a4 < a5 * 1.02,
                "{name}: at 20 cores, 4 nodes must beat 5 ({a4} vs {a5})"
            );
        }
        if let (Some(b4), Some(b5)) = (at(4.0, 40.0), at(5.0, 40.0)) {
            assert!(
                b5 < b4 * 1.02,
                "{name}: at 40 cores, 5 nodes must beat 4 ({b5} vs {b4})"
            );
        }
    }
}

/// Fig 16: best-grouping speedup keeps growing toward 50 cores.
#[test]
fn fig16_speedup_grows() {
    for (name, workload) in [("swgg", bench_swgg()), ("nussinov", bench_nussinov())] {
        let (_, speedup) = speedup_series(&workload, cost(), 53);
        let s50 = speedup.y_at(50.0).expect("50-core point");
        let s10 = speedup.y_at(10.0).expect("10-core point");
        assert!(
            s50 > s10 * 2.0,
            "{name}: speedup should keep growing ({s10} -> {s50})"
        );
    }
}

/// Fig 17: almost all BCW/EasyHPS ratios lie above the 1.00 line.
#[test]
fn fig17_bcw_ratio_mostly_above_one() {
    for (name, workload) in [("swgg", bench_swgg()), ("nussinov", bench_nussinov())] {
        let all: Vec<f64> = bcw_ratio_series(&workload, cost())
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.1))
            .collect();
        let above = all.iter().filter(|&&r| r >= 1.0).count();
        assert!(
            above * 10 >= all.len() * 9,
            "{name}: expected >=90% of ratios above 1.0, got {above}/{}",
            all.len()
        );
    }
}
