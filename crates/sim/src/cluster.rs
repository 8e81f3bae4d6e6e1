//! Process-level discrete-event simulation of the multilevel runtime.
//!
//! Mirrors the master/slave protocol of `easyhps-runtime` in virtual time:
//! the master serializes assignment and completion processing (it is one
//! scheduling thread), input strips and results pay latency + bandwidth,
//! and each node's tile execution time is the makespan of a nested
//! thread-pool simulation over the slave DAG — the same two-level
//! structure as the real system, priced by [`CostModel`].

use crate::cost::CostModel;
use crate::pool_sim::{simulate_pool, PoolOutcome};
use crate::workload::SimWorkload;
use easyhps_core::sched::pick_task;
use easyhps_core::Trace;
use easyhps_core::{DagParser, ScheduleMode, TaskDag, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Cluster shape and policies for one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Computing threads per node (`threads[i]` for node `i`); the length
    /// is the number of computing nodes (the paper's `X - 1`).
    pub threads: Vec<usize>,
    /// Process-level scheduling policy.
    pub process_mode: ScheduleMode,
    /// Thread-level scheduling policy.
    pub thread_mode: ScheduleMode,
    /// Hardware calibration.
    pub cost: CostModel,
    /// Per-node speed in percent of the reference core (100 = nominal).
    /// Models heterogeneous clusters and stragglers: a node at 50 takes
    /// twice the reference time for the same tile.
    pub node_speed_pct: Vec<u32>,
    /// Virtual time at which each node crashes (`None` = healthy). A tile
    /// in flight on a crashed node never completes; the master's fault
    /// tolerance times it out, redistributes it, and excludes the node —
    /// the same policy as the real runtime.
    pub node_fail_at: Vec<Option<u64>>,
    /// Fault-tolerance timeout: how long after dispatch the master presumes
    /// a silent sub-task lost.
    pub task_timeout_ns: u64,
}

impl SimConfig {
    /// Uniform cluster: `nodes` computing nodes with `ct` threads each,
    /// dynamic scheduling at both levels.
    pub fn uniform(nodes: usize, ct: usize) -> Self {
        Self {
            threads: vec![ct; nodes],
            process_mode: ScheduleMode::Dynamic,
            thread_mode: ScheduleMode::Dynamic,
            cost: CostModel::tianhe1a(),
            node_speed_pct: vec![100; nodes],
            node_fail_at: vec![None; nodes],
            task_timeout_ns: 5_000_000_000,
        }
    }

    /// Set node `node` to run at `pct`% of nominal speed.
    pub fn node_speed(mut self, node: usize, pct: u32) -> Self {
        assert!(pct > 0, "speed must be positive");
        self.node_speed_pct[node] = pct;
        self
    }

    /// Crash node `node` at virtual time `at_ns`.
    pub fn fail_node(mut self, node: usize, at_ns: u64) -> Self {
        self.node_fail_at[node] = Some(at_ns);
        self
    }

    /// Distribute `computing_cores` over `nodes` as evenly as possible
    /// (first nodes get the extra core), clamped to the per-node maximum
    /// of 11 the paper's hardware imposes.
    pub fn spread(nodes: usize, computing_cores: usize) -> Self {
        assert!(nodes > 0);
        let base = computing_cores / nodes;
        let extra = computing_cores % nodes;
        let threads = (0..nodes)
            .map(|i| (base + usize::from(i < extra)).clamp(1, 11))
            .collect();
        Self {
            threads,
            ..Self::uniform(nodes, 1)
        }
    }
}

/// Result of one simulated run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimResult {
    /// Virtual makespan of the whole computation.
    pub makespan_ns: u64,
    /// Sum over tiles of slave-pool busy time (pure compute).
    pub compute_ns: u64,
    /// Time each node spent executing tiles.
    pub node_busy_ns: Vec<u64>,
    /// Master occupancy (assign + completion processing).
    pub master_busy_ns: u64,
    /// Total bytes moved (inputs + results).
    pub bytes_moved: u64,
    /// Messages exchanged.
    pub msgs: u64,
    /// Master-level tiles executed.
    pub tiles: u64,
    /// Tiles re-dispatched after a fault-tolerance timeout.
    pub redispatched: u64,
    /// Nodes excluded as dead.
    pub dead_nodes: u64,
}

impl SimResult {
    /// Makespan in (virtual) seconds.
    pub fn seconds(&self) -> f64 {
        self.makespan_ns as f64 / 1e9
    }
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ev {
    /// Assignment arrives at a node.
    Assign { node: usize, task: u32 },
    /// Result arrives back at the master.
    Done { node: usize, task: u32 },
    /// The master's fault-tolerance timeout fires for a lost sub-task.
    Timeout { node: usize, task: u32 },
}

/// Simulate one full run of `workload` on `config`.
pub fn simulate(workload: &SimWorkload, config: &SimConfig) -> SimResult {
    simulate_impl(workload, config, None)
}

/// Like [`simulate`], additionally recording a [`Trace`] of master
/// occupancy and per-node tile executions for Gantt rendering.
pub fn simulate_traced(workload: &SimWorkload, config: &SimConfig) -> (SimResult, Trace) {
    let mut trace = Trace::new();
    let res = simulate_impl(workload, config, Some(&mut trace));
    (res, trace)
}

fn simulate_impl(
    workload: &SimWorkload,
    config: &SimConfig,
    mut trace: Option<&mut Trace>,
) -> SimResult {
    let nodes = config.threads.len();
    assert!(nodes > 0, "need at least one computing node");
    let model = &workload.model;
    let dag = model.master_dag();
    let tile_cols = dag.dims().cols;
    let mut parser = DagParser::new(&dag);

    let mut events: BinaryHeap<Reverse<(u64, u64, Ev)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut idle = vec![true; nodes];
    let mut dead = vec![false; nodes];
    let mut master_free_at = 0u64;
    let mut res = SimResult {
        node_busy_ns: vec![0; nodes],
        ..SimResult::default()
    };

    // Cache of per-tile slave-pool outcomes (each tile runs once).
    let slave_outcome = |task: VertexId, node: usize| -> PoolOutcome {
        let tile = dag.vertex(task).pos;
        let sdag: TaskDag = model.slave_dag(tile);
        let speed = *config.node_speed_pct.get(node).unwrap_or(&100) as u64;
        simulate_pool(
            &sdag,
            config.threads[node],
            config.thread_mode,
            |v| {
                let region = model.sub_region(tile, sdag.vertex(v).pos);
                let base = config.cost.compute_ns(workload.region_work(region));
                // Jitter keyed by the sub-task's global cell position.
                let key = (region.row_start as u64) << 32 | region.col_start as u64;
                config.cost.jittered_ns(base, key) * 100 / speed.max(1)
            },
            config.cost.thread_overhead_ns,
        )
    };

    // The same strips the real master's ASSIGN carries.
    let input_bytes = |task: VertexId| -> u64 {
        let tile = dag.vertex(task).pos;
        dag.vertex(task)
            .data_deps
            .iter()
            .map(|d| model.input_region(tile, dag.vertex(*d).pos).area() * workload.cell_bytes + 20)
            .sum::<u64>()
            + 64
    };

    macro_rules! dispatch {
        () => {
            loop {
                let mut assigned = false;
                for node in 0..nodes {
                    if !idle[node] || dead[node] {
                        continue;
                    }
                    // The same placement decision as the real master —
                    // including the orphan fallback for tiles statically
                    // owned by an excluded node. The DES used to carry its
                    // own copy of this policy without the fallback, so a
                    // static-mode run with a crashed node deadlocked here
                    // while the runtime survived; see
                    // `static_mode_crash_redistributes_orphans`.
                    let picked = pick_task(
                        &mut parser,
                        &dag,
                        config.process_mode,
                        tile_cols,
                        nodes as u32,
                        node as u32,
                        Some(&|owner: u32| dead[owner as usize]),
                    );
                    let Some(v) = picked else { continue };
                    let bytes = input_bytes(v);
                    // Master occupancy is the scheduling decision only; the
                    // strip transfer itself is RDMA-offloaded (Infiniband)
                    // and overlaps with scheduling, paying latency +
                    // bandwidth on the wire instead.
                    if let Some(tr) = trace.as_deref_mut() {
                        tr.record(
                            "master",
                            "a",
                            master_free_at,
                            master_free_at + config.cost.assign_overhead_ns,
                        );
                    }
                    master_free_at += config.cost.assign_overhead_ns;
                    res.master_busy_ns += config.cost.assign_overhead_ns;
                    res.bytes_moved += bytes;
                    res.msgs += 1;
                    let arrive = master_free_at + config.cost.transfer_ns(bytes);
                    // Fault injection is deterministic, so the fate of this
                    // dispatch is known now: if the node crashes before the
                    // result would leave it, the master hears nothing and
                    // its overtime queue fires instead.
                    let outcome = slave_outcome(VertexId(v.0), node);
                    let completes_at = arrive + outcome.makespan_ns;
                    let lost =
                        config.node_fail_at[node].is_some_and(|f| arrive >= f || completes_at > f);
                    if lost {
                        events.push(Reverse((
                            master_free_at + config.task_timeout_ns,
                            seq,
                            Ev::Timeout { node, task: v.0 },
                        )));
                    } else {
                        events.push(Reverse((arrive, seq, Ev::Assign { node, task: v.0 })));
                    }
                    seq += 1;
                    idle[node] = false;
                    assigned = true;
                }
                if !assigned {
                    break;
                }
            }
        };
    }

    dispatch!();

    while let Some(Reverse((t, _, ev))) = events.pop() {
        match ev {
            Ev::Assign { node, task } => {
                let outcome = slave_outcome(VertexId(task), node);
                if let Some(tr) = trace.as_deref_mut() {
                    let pos = dag.vertex(VertexId(task)).pos;
                    tr.record(
                        format!("node{node}"),
                        format!("{}", (b'A' + (pos.diagonal() % 26) as u8) as char),
                        t,
                        t + outcome.makespan_ns,
                    );
                }
                res.compute_ns += outcome.busy_ns;
                res.node_busy_ns[node] += outcome.makespan_ns;
                res.tiles += 1;
                let region = model.tile_region(dag.vertex(VertexId(task)).pos);
                let result_bytes = region.area() * workload.cell_bytes + 24;
                res.bytes_moved += result_bytes;
                res.msgs += 1;
                let done_at = t + outcome.makespan_ns + config.cost.transfer_ns(result_bytes);
                events.push(Reverse((done_at, seq, Ev::Done { node, task })));
                seq += 1;
            }
            Ev::Timeout { node, task } => {
                // Step g of the paper's master workflow: cancel, requeue,
                // exclude the node.
                let start = master_free_at.max(t);
                master_free_at = start + config.cost.complete_overhead_ns;
                res.master_busy_ns += config.cost.complete_overhead_ns;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.record("master", "t", start, master_free_at);
                }
                parser
                    .fail(&dag, VertexId(task))
                    .expect("timed-out tile was running");
                res.redispatched += 1;
                if !dead[node] {
                    dead[node] = true;
                    res.dead_nodes += 1;
                }
                assert!(
                    dead.iter().any(|d| !d),
                    "every node crashed before the computation finished"
                );
                dispatch!();
            }
            Ev::Done { node, task } => {
                // Master serializes completion processing.
                let start = master_free_at.max(t);
                master_free_at = start + config.cost.complete_overhead_ns;
                res.master_busy_ns += config.cost.complete_overhead_ns;
                if let Some(tr) = trace.as_deref_mut() {
                    tr.record("master", "d", start, master_free_at);
                }
                parser
                    .complete(&dag, VertexId(task), None)
                    .expect("simulated completion of a running tile");
                idle[node] = true;
                dispatch!();
            }
        }
    }

    assert!(
        parser.is_done(),
        "simulation drained its event queue with tasks remaining"
    );
    res.makespan_ns = master_free_at;
    res
}

/// Sequential baseline: the whole problem on one core, no overheads.
pub fn sequential_ns(workload: &SimWorkload, cost: &CostModel) -> u64 {
    cost.compute_ns(workload.total_work())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_swgg() -> SimWorkload {
        SimWorkload::swgg(400, 50, 10)
    }

    #[test]
    fn runs_to_completion_and_conserves_tiles() {
        let w = small_swgg();
        let r = simulate(&w, &SimConfig::uniform(3, 4));
        assert_eq!(r.tiles, w.model.master_dag().len() as u64);
        assert!(r.makespan_ns > 0);
        assert_eq!(r.msgs, 2 * r.tiles);
    }

    #[test]
    fn deterministic() {
        let w = small_swgg();
        let a = simulate(&w, &SimConfig::uniform(2, 3));
        let b = simulate(&w, &SimConfig::uniform(2, 3));
        assert_eq!(a, b);
    }

    #[test]
    fn more_threads_help() {
        let w = small_swgg();
        let t1 = simulate(&w, &SimConfig::uniform(2, 1)).makespan_ns;
        let t4 = simulate(&w, &SimConfig::uniform(2, 4)).makespan_ns;
        let t8 = simulate(&w, &SimConfig::uniform(2, 8)).makespan_ns;
        assert!(t4 < t1);
        assert!(t8 < t4);
    }

    #[test]
    fn more_nodes_help_at_fixed_threads() {
        let w = small_swgg();
        let n1 = simulate(&w, &SimConfig::uniform(1, 4)).makespan_ns;
        let n3 = simulate(&w, &SimConfig::uniform(3, 4)).makespan_ns;
        assert!(n3 < n1);
    }

    #[test]
    fn parallel_beats_sequential_baseline() {
        let w = small_swgg();
        let seq = sequential_ns(&w, &CostModel::tianhe1a());
        let par = simulate(&w, &SimConfig::uniform(4, 8)).makespan_ns;
        assert!(par < seq, "parallel {par} vs sequential {seq}");
    }

    #[test]
    fn makespan_bounded_below_by_compute_over_cores() {
        let w = small_swgg();
        let cfg = SimConfig::uniform(3, 4);
        let r = simulate(&w, &cfg);
        let cores: u64 = cfg.threads.iter().map(|&t| t as u64).sum();
        assert!(r.makespan_ns >= r.compute_ns / cores);
    }

    #[test]
    fn bcw_is_no_faster_than_dynamic() {
        // With execution jitter a perfectly-tuned static schedule can edge
        // out the greedy pool by a hair on one instance (the paper's own
        // Fig. 17 has a few points below the 1.00 line); anything beyond a
        // few percent, or any advantage for a coarse block, is a bug.
        let w = SimWorkload::nussinov(400, 50, 10);
        let mut cfg = SimConfig::uniform(3, 4);
        let dynamic = simulate(&w, &cfg).makespan_ns;
        cfg.process_mode = ScheduleMode::BlockCyclic { block: 1 };
        cfg.thread_mode = ScheduleMode::BlockCyclic { block: 1 };
        let bcw = simulate(&w, &cfg).makespan_ns;
        assert!(
            bcw as f64 >= dynamic as f64 * 0.95,
            "tuned bcw {bcw} implausibly beats dynamic {dynamic}"
        );
        cfg.process_mode = ScheduleMode::BlockCyclic { block: 2 };
        cfg.thread_mode = ScheduleMode::BlockCyclic { block: 2 };
        let coarse = simulate(&w, &cfg).makespan_ns;
        assert!(coarse > dynamic, "coarse bcw {coarse} vs dynamic {dynamic}");
    }

    #[test]
    fn spread_distributes_and_clamps() {
        let c = SimConfig::spread(3, 10);
        assert_eq!(c.threads, vec![4, 3, 3]);
        let c = SimConfig::spread(2, 40);
        assert_eq!(
            c.threads,
            vec![11, 11],
            "clamped to the 11-thread hardware cap"
        );
        let c = SimConfig::spread(3, 1);
        assert_eq!(c.threads, vec![1, 1, 1], "at least one thread per node");
    }
}

#[cfg(test)]
mod failure_tests {
    use super::*;

    fn workload() -> SimWorkload {
        SimWorkload::swgg(400, 50, 10)
    }

    #[test]
    fn node_crash_is_survived_with_redispatch() {
        let w = workload();
        let healthy = simulate(&w, &SimConfig::uniform(3, 4));
        let mut cfg = SimConfig::uniform(3, 4);
        cfg.task_timeout_ns = 20_000_000; // 20 ms
                                          // Crash node 1 a third of the way through the healthy makespan.
        cfg = cfg.fail_node(1, healthy.makespan_ns / 3);
        let r = simulate(&w, &cfg);
        assert_eq!(
            r.tiles,
            w.model.master_dag().len() as u64,
            "every tile still computed"
        );
        assert_eq!(r.dead_nodes, 1);
        assert!(r.redispatched >= 1);
        assert!(
            r.makespan_ns > healthy.makespan_ns,
            "losing a node costs time"
        );
    }

    #[test]
    fn crash_at_time_zero_excludes_node_immediately() {
        let w = workload();
        let mut cfg = SimConfig::uniform(2, 4).fail_node(0, 0);
        cfg.task_timeout_ns = 10_000_000;
        let r = simulate(&w, &cfg);
        assert_eq!(r.dead_nodes, 1);
        assert_eq!(r.tiles, w.model.master_dag().len() as u64);
        // All real work done by the surviving node.
        assert_eq!(r.node_busy_ns[0], 0);
        assert!(r.node_busy_ns[1] > 0);
    }

    #[test]
    fn static_mode_crash_redistributes_orphans() {
        // Pinned runtime↔sim divergence: the DES used to carry its own
        // copy of the pick policy without the orphan fallback, so a
        // static-mode run with a crashed node drained its event queue
        // with the dead node's columns still pending and panicked, while
        // the real master finished the run on the survivor. Both now ask
        // `easyhps_core::sched::pick_task` and agree.
        let w = workload();
        let mut cfg = SimConfig::uniform(2, 4).fail_node(0, 0);
        cfg.task_timeout_ns = 10_000_000;
        cfg.process_mode = ScheduleMode::ColumnWavefront;
        let r = simulate(&w, &cfg);
        assert_eq!(
            r.tiles,
            w.model.master_dag().len() as u64,
            "the survivor adopts the dead node's columns"
        );
        assert_eq!(r.dead_nodes, 1);
        assert_eq!(r.node_busy_ns[0], 0);
        assert!(r.node_busy_ns[1] > 0);
    }

    #[test]
    #[should_panic(expected = "every node crashed")]
    fn all_nodes_crashing_panics() {
        let w = workload();
        let mut cfg = SimConfig::uniform(2, 2).fail_node(0, 0).fail_node(1, 0);
        cfg.task_timeout_ns = 1_000_000;
        simulate(&w, &cfg);
    }

    #[test]
    fn failure_injection_is_deterministic() {
        let w = workload();
        let mk = || {
            let mut c = SimConfig::uniform(3, 3).fail_node(2, 5_000_000);
            c.task_timeout_ns = 15_000_000;
            simulate(&w, &c)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn shorter_timeout_recovers_faster() {
        let w = workload();
        let run = |timeout: u64| {
            let mut c = SimConfig::uniform(3, 4).fail_node(1, 1_000_000);
            c.task_timeout_ns = timeout;
            simulate(&w, &c).makespan_ns
        };
        assert!(
            run(5_000_000) <= run(500_000_000),
            "long timeouts delay recovery"
        );
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;

    #[test]
    fn traced_run_matches_untraced() {
        let w = SimWorkload::swgg(300, 50, 10);
        let cfg = SimConfig::uniform(3, 4);
        let plain = simulate(&w, &cfg);
        let (traced, trace) = simulate_traced(&w, &cfg);
        assert_eq!(plain, traced, "tracing must not perturb the schedule");
        // One execution span per tile plus master chunks.
        let node_spans = trace
            .spans
            .iter()
            .filter(|s| s.lane.starts_with("node"))
            .count() as u64;
        assert_eq!(node_spans, traced.tiles);
        // Node busy time in the trace equals the result's accounting.
        for (lane, busy) in trace.busy_by_lane() {
            if let Some(idx) = lane.strip_prefix("node") {
                let idx: usize = idx.parse().unwrap();
                assert_eq!(busy, traced.node_busy_ns[idx], "{lane}");
            }
        }
        // The Gantt renders all lanes, and no node runs two tiles at once.
        let g = trace.gantt(60);
        assert!(g.contains("master"));
        assert!(g.contains("node0"));
        assert!(
            !trace.has_lane_overlaps(),
            "node executing two tiles at once:\n{g}"
        );
    }
}

#[cfg(test)]
mod heterogeneity_tests {
    use super::*;

    #[test]
    fn slow_node_slows_the_run_proportionally_less_under_dynamic() {
        // One straggler at 40% speed: the dynamic pool routes work away
        // from it, so it degrades the makespan far less than the static
        // baseline, where the straggler's columns gate the wavefront.
        let w = SimWorkload::nussinov(1_000, 100, 10);
        let base = SimConfig::uniform(4, 4);
        let healthy_dyn = simulate(&w, &base).makespan_ns;

        let straggler_dyn = simulate(&w, &base.clone().node_speed(1, 40)).makespan_ns;

        let mut bcw = base.clone().node_speed(1, 40);
        bcw.process_mode = ScheduleMode::BlockCyclic { block: 1 };
        bcw.thread_mode = ScheduleMode::BlockCyclic { block: 1 };
        let straggler_bcw = simulate(&w, &bcw).makespan_ns;

        assert!(
            straggler_dyn > healthy_dyn,
            "a straggler always costs something"
        );
        assert!(
            straggler_bcw > straggler_dyn,
            "static scheduling must suffer more from a straggler: bcw {straggler_bcw} vs dyn {straggler_dyn}"
        );
        // Dynamic keeps the inflation well under the 2.5x a naive
        // work-split would suffer.
        assert!(straggler_dyn < healthy_dyn * 2, "dyn inflation too high");
    }

    #[test]
    fn uniform_speedup_scales_inversely() {
        let w = SimWorkload::swgg(400, 50, 10);
        let normal = simulate(&w, &SimConfig::uniform(2, 4)).makespan_ns;
        let double = {
            let cfg = SimConfig::uniform(2, 4)
                .node_speed(0, 200)
                .node_speed(1, 200);
            simulate(&w, &cfg).makespan_ns
        };
        // Compute halves; thread dispatch, network and the master don't,
        // and at this small scale those overheads are a third of the run.
        let ratio = normal as f64 / double as f64;
        assert!((1.25..=2.05).contains(&ratio), "ratio {ratio}");
    }
}
