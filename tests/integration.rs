//! Cross-crate integration tests: the facade API, runtime/simulator
//! agreement, and fault paths that cross the net/runtime boundary.

use easyhps::dp::sequence::{parse_fasta, random_sequence, to_fasta, Alphabet};
use easyhps::dp::{DpProblem, Nussinov, SmithWatermanGeneralGap};
use easyhps::net::FaultPlan;
use easyhps::sim::{simulate, SimConfig, SimWorkload};
use easyhps::{EasyHps, ScheduleMode, TransportKind};
use std::time::Duration;

#[test]
fn facade_reexports_compose() {
    // Build a model through the facade types end to end.
    let model = easyhps::DagDataDrivenModel::from_library(
        easyhps::PatternKind::Wavefront2D,
        easyhps::GridDims::square(30),
        easyhps::GridDims::square(10),
        easyhps::GridDims::square(5),
    );
    let dag: easyhps::TaskDag = model.master_dag();
    assert_eq!(dag.len(), 9);
    let mut count = 0;
    easyhps::DagParser::drain_sequential(&dag, |_| count += 1);
    assert_eq!(count, 9);
}

#[test]
fn fasta_to_alignment_pipeline() {
    // FASTA in, alignment out — the workflow a bioinformatics user runs.
    let records = vec![
        ("query".to_string(), random_sequence(Alphabet::Dna, 50, 1)),
        ("subject".to_string(), random_sequence(Alphabet::Dna, 55, 2)),
    ];
    let fasta = to_fasta(&records);
    let parsed = parse_fasta(&fasta);
    assert_eq!(parsed.len(), 2);

    let problem = SmithWatermanGeneralGap::dna(parsed[0].1.clone(), parsed[1].1.clone());
    let reference = problem.solve_sequential();
    let out = EasyHps::new(SmithWatermanGeneralGap::dna(
        parsed[0].1.clone(),
        parsed[1].1.clone(),
    ))
    .process_partition((12, 12))
    .thread_partition((4, 4))
    .slaves(2)
    .threads_per_slave(2)
    .run()
    .unwrap();
    assert_eq!(out.matrix, reference);
}

#[test]
fn runtime_and_simulator_agree_on_task_counts() {
    // The real runtime and the simulator must execute the same number of
    // tiles for the same model, and the simulator's per-tile work must sum
    // to the problem's total work.
    let len = 120u32;
    let (pps, tps) = (30u32, 10u32);
    let rna = random_sequence(Alphabet::Rna, len as usize, 7);
    let out = EasyHps::new(Nussinov::new(rna))
        .process_partition((pps, pps))
        .thread_partition((tps, tps))
        .slaves(3)
        .threads_per_slave(2)
        .run()
        .unwrap();

    let workload = SimWorkload::nussinov(len, pps, tps);
    let sim = simulate(&workload, &SimConfig::uniform(3, 2));

    assert_eq!(out.report.master.completed, sim.tiles);
    // Sub-sub-task counts agree too: both partition each tile the same way.
    let mut sim_subtasks = 0u64;
    let dag = workload.model.master_dag();
    for (_, v) in dag.iter() {
        sim_subtasks += workload.model.slave_dag(v.pos).len() as u64;
    }
    assert_eq!(out.report.total_subtasks(), sim_subtasks);
}

#[test]
fn lossy_slave_is_survived() {
    // Slave 1 silently drops 60% of its outgoing messages (results and
    // idle signals vanish). The master's timeout-based fault tolerance
    // must route around it and still finish exactly.
    let a = random_sequence(Alphabet::Dna, 40, 3);
    let b = random_sequence(Alphabet::Dna, 40, 4);
    let problem = easyhps::dp::EditDistance::new(a, b);
    let reference = problem.solve_sequential();
    let out = EasyHps::new(problem)
        .process_partition((10, 10))
        .thread_partition((5, 5))
        .slaves(3)
        .threads_per_slave(1)
        .task_timeout(Duration::from_millis(250))
        .inject_fault(1, FaultPlan::lossy(0.6, 99))
        .run()
        .expect("lossy slave must not sink the run");
    assert_eq!(out.matrix, reference);
}

#[test]
fn mixed_modes_between_levels() {
    // Dynamic across nodes, static block-cyclic across threads (and vice
    // versa) — both must stay correct.
    let rna = random_sequence(Alphabet::Rna, 60, 5);
    let reference = Nussinov::new(rna.clone()).solve_sequential();
    for (pm, tm) in [
        (
            ScheduleMode::Dynamic,
            ScheduleMode::BlockCyclic { block: 1 },
        ),
        (
            ScheduleMode::BlockCyclic { block: 2 },
            ScheduleMode::Dynamic,
        ),
        (
            ScheduleMode::ColumnWavefront,
            ScheduleMode::BlockCyclic { block: 2 },
        ),
    ] {
        let p = Nussinov::new(rna.clone());
        let pattern = p.pattern();
        let out = EasyHps::new(p)
            .process_partition((12, 12))
            .thread_partition((4, 4))
            .slaves(2)
            .threads_per_slave(3)
            .process_mode(pm)
            .thread_mode(tm)
            .run()
            .unwrap();
        for pos in reference.dims().iter() {
            if pattern.contains(pos) {
                assert_eq!(
                    out.matrix.at(pos),
                    reference.at(pos),
                    "{pm:?}/{tm:?} cell {pos}"
                );
            }
        }
    }
}

#[test]
fn deployment_core_accounting_is_exposed() {
    let p = easyhps::dp::EditDistance::new(b"ab".to_vec(), b"cd".to_vec());
    let e = EasyHps::new(p).slaves(4).threads_per_slave(11);
    // X = 5 nodes, ct = 11: the paper's Experiment_5_53.
    assert_eq!(e.deployment().total_cores(), 53);
}

#[test]
fn socket_transports_match_sequential_and_publish_link_counters() {
    // Fixed and elastic membership over both socket kinds: every run is
    // bit-identical to the sequential solve, and the master publishes
    // per-link socket counters into the run's registry.
    let a = random_sequence(Alphabet::Dna, 60, 11);
    let b = random_sequence(Alphabet::Dna, 52, 12);
    let reference = easyhps::dp::EditDistance::new(a.clone(), b.clone()).solve_sequential();
    for transport in [TransportKind::Uds, TransportKind::Tcp] {
        for reconnect in [None, Some(Duration::from_secs(2))] {
            let mut run = EasyHps::new(easyhps::dp::EditDistance::new(a.clone(), b.clone()))
                .process_partition((15, 15))
                .thread_partition((5, 5))
                .slaves(2)
                .threads_per_slave(2)
                .transport(transport)
                .metrics(true);
            if let Some(window) = reconnect {
                run = run.reconnect(window);
            }
            let out = run.run().unwrap();
            assert_eq!(
                out.matrix, reference,
                "{transport:?} reconnect={reconnect:?}"
            );
            let sent = out
                .metrics
                .expect("metrics were enabled")
                .snapshot()
                .counter(r#"socket_frames_sent{link="1"}"#)
                .unwrap_or(0);
            assert!(
                sent > 0,
                "{transport:?} reconnect={reconnect:?}: no frames on link 1"
            );
        }
    }
}
