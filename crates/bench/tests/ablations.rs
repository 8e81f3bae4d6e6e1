//! Ablations of the design choices DESIGN.md calls out, on the simulator
//! at bench scale: partition size, execution jitter, strip volume and
//! fault-tolerance overhead. Run with `-- --nocapture` to print each
//! sweep as a table.

use easyhps_bench::cost;
use easyhps_core::ScheduleMode;
use easyhps_sim::{render_table, simulate, Series, SimConfig, SimWorkload};

/// Too-coarse tiles starve nodes: a finer partition beats one giant tile.
#[test]
fn partition_size_sweep_beats_the_coarsest_tile() {
    let mut series = Series::new("elapsed (s)");
    for pps in [50u32, 100, 200, 400, 1000] {
        let w = SimWorkload::swgg(2_000, pps, 10);
        let r = simulate(&w, &SimConfig::uniform(4, 8));
        series.push(pps as f64, r.seconds());
    }
    println!(
        "{}",
        render_table(
            "Ablation: SWGG(2000) elapsed vs process_partition_size (4 nodes x 8 threads)",
            "pps",
            &[series.clone()]
        )
    );
    let best = series.points.iter().map(|p| p.1).fold(f64::MAX, f64::min);
    let coarse = series.y_at(1000.0).unwrap();
    assert!(best < coarse, "a finer partition must beat one-giant-tile");
}

/// Under heavy execution jitter the tuned static schedule must not beat
/// the dynamic pool.
#[test]
fn static_schedule_does_not_beat_dynamic_under_jitter() {
    let mut dynamic = Series::new("dynamic (s)");
    let mut bcw = Series::new("static bcw1 (s)");
    for jitter in [0u32, 10, 20, 40] {
        let w = SimWorkload::nussinov(2_000, 100, 10);
        let mut cfg = SimConfig::uniform(4, 6);
        cfg.cost = cost();
        cfg.cost.jitter_pct = jitter;
        dynamic.push(jitter as f64, simulate(&w, &cfg).seconds());
        cfg.process_mode = ScheduleMode::BlockCyclic { block: 1 };
        cfg.thread_mode = ScheduleMode::BlockCyclic { block: 1 };
        bcw.push(jitter as f64, simulate(&w, &cfg).seconds());
    }
    println!(
        "{}",
        render_table(
            "Ablation: dynamic vs tuned-static elapsed under execution jitter",
            "jitter%",
            &[dynamic.clone(), bcw.clone()]
        )
    );
    let (d40, b40) = (dynamic.y_at(40.0).unwrap(), bcw.y_at(40.0).unwrap());
    assert!(
        b40 >= d40 * 0.98,
        "static should not beat dynamic under noise"
    );
}

/// The 2D/1D data-communication level ships far more bytes than 2D/0D at
/// the same matrix size.
#[test]
fn row_column_prefixes_dominate_boundary_strips() {
    let cfg = SimConfig::uniform(3, 4);
    let rw = simulate(&SimWorkload::wavefront(2_000, 100, 10), &cfg);
    let rs = simulate(&SimWorkload::swgg(2_000, 100, 10), &cfg);
    println!(
        "# Ablation: bytes moved, 2D/0D wavefront {} MB vs 2D/1D SWGG {} MB (same 2001^2 matrix)\n",
        rw.bytes_moved / 1_000_000,
        rs.bytes_moved / 1_000_000
    );
    assert!(
        rs.bytes_moved > 5 * rw.bytes_moved,
        "row/column prefixes must dominate boundary strips"
    );
}

/// Losing 1 of 4 nodes inflates the makespan, but never doubles it, and
/// never speeds the run up beyond what greedy scheduling luck explains.
#[test]
fn node_crash_inflation_is_bounded() {
    let w = SimWorkload::swgg(2_000, 100, 10);
    let healthy = simulate(&w, &SimConfig::uniform(4, 6));

    let mut by_crash_time = Series::new("makespan inflation (x)");
    for frac in [10u64, 30, 50, 70, 90] {
        let mut cfg = SimConfig::uniform(4, 6).fail_node(2, healthy.makespan_ns * frac / 100);
        cfg.task_timeout_ns = healthy.makespan_ns / 20;
        let r = simulate(&w, &cfg);
        by_crash_time.push(
            frac as f64,
            r.makespan_ns as f64 / healthy.makespan_ns as f64,
        );
    }
    println!(
        "{}",
        render_table(
            "Ablation: makespan inflation vs crash time (% of healthy makespan; 1 of 4 nodes lost)",
            "crash%",
            &[by_crash_time.clone()]
        )
    );
    for (_, inflation) in &by_crash_time.points {
        // Greedy LIFO scheduling is not optimal, so a crash that forces a
        // reshuffle of the tail can occasionally *luckily* beat the healthy
        // schedule by a couple of percent; anything beyond that, or a
        // doubling, would be a fault-tolerance bug.
        assert!(*inflation >= 0.95, "implausible speedup from losing a node");
        assert!(
            *inflation < 2.0,
            "losing 1 of 4 nodes must not double the makespan"
        );
    }

    let mut by_timeout = Series::new("makespan (s)");
    for timeout_ms in [5u64, 20, 80, 320] {
        let mut cfg = SimConfig::uniform(4, 6).fail_node(2, healthy.makespan_ns / 3);
        cfg.task_timeout_ns = timeout_ms * 1_000_000;
        by_timeout.push(timeout_ms as f64, simulate(&w, &cfg).seconds());
    }
    println!(
        "{}",
        render_table(
            "Ablation: recovery time vs fault-tolerance timeout",
            "timeout_ms",
            &[by_timeout]
        )
    );
}
