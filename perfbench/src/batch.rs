//! The one-shot workloads: each job is one `EasyHps::run` on a fresh
//! 2-slave x 1-thread virtual cluster.
//!
//! - `swgg-compute`: SWGG (general gap, DNA), n = 1200, process
//!   partition 150, thread partition 25, in-process channels — 81 tiles,
//!   the kernel does most of the work (the paper's Fig 13 workload).
//! - `edit-fine-uds`: edit distance, n = 3000, both partitions 50, over
//!   Unix-domain sockets — 3721 tiles, per-tile overhead dominates.

use crate::job::{matrix_crc, Job, Runner};
use crate::layers::{self, Link};
use crate::serve;
use crate::stats::{median, peak_rss_mb, quantile, since, timed, Metrics, Tally};
use crate::{Ctx, Outcome};
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::{DpProblem, EditDistance, SmithWatermanGeneralGap};
use easyhps_runtime::remote::{GapSpec, RemoteProblem, SubSpec};
use easyhps_runtime::TransportKind;
use std::hint::black_box;
use std::time::Instant;

/// Set-up repetitions before the first job, and after each measured
/// job; `setup_s` is the median of all of them, so it samples the host
/// over the whole run like the jobs do.
const SETUP_REPS: usize = 11;
const SETUP_REPS_PER_JOB: usize = 3;

#[derive(Clone, Copy)]
enum Kind {
    Swgg,
    Edit,
}

/// A one-shot workload's shape.
pub struct Batch {
    kind: Kind,
    /// Sequence length of both inputs.
    n: usize,
    /// Process partition side.
    pp: u32,
    /// Thread partition side.
    tp: u32,
    transport: TransportKind,
}

/// `swgg-compute`.
pub const SWGG_COMPUTE: Batch = Batch {
    kind: Kind::Swgg,
    n: 1200,
    pp: 150,
    tp: 25,
    transport: TransportKind::InProcess,
};

/// `edit-fine-uds`.
pub const EDIT_FINE_UDS: Batch = Batch {
    kind: Kind::Edit,
    n: 3000,
    pp: 50,
    tp: 50,
    transport: TransportKind::Uds,
};

/// Run a one-shot workload.
pub fn run(b: &Batch, ctx: &Ctx) -> Result<Outcome, String> {
    let (pp, tp) = (b.pp, b.tp);
    match b.kind {
        Kind::Swgg => run_with(b, ctx, |x, y| {
            let remote = RemoteProblem::Swgg {
                a: x.clone(),
                b: y.clone(),
                sub: SubSpec::dna(),
                gap: GapSpec::Logarithmic(4, 2),
            };
            Job::new(SmithWatermanGeneralGap::dna(x, y), remote, pp, tp)
        }),
        Kind::Edit => run_with(b, ctx, |x, y| {
            let remote = RemoteProblem::EditDistance {
                a: x.clone(),
                b: y.clone(),
            };
            Job::new(EditDistance::new(x, y), remote, pp, tp)
        }),
    }
}

fn run_with<P: DpProblem<Cell = i32>>(
    b: &Batch,
    ctx: &Ctx,
    make: impl Fn(Vec<u8>, Vec<u8>) -> Job<P>,
) -> Result<Outcome, String> {
    // Set-up: draw the inputs, build the problem and its TaskDag — what
    // a caller pays before the first job can be submitted.
    let build = || {
        let x = random_sequence(Alphabet::Dna, b.n, ctx.seed);
        let y = random_sequence(Alphabet::Dna, b.n, ctx.seed ^ 0x5EED_5EED);
        let job = make(x, y);
        black_box(job.model().master_dag());
        job
    };
    let mut setups = Vec::new();
    let mut setup = || {
        let (j, s) = timed(build);
        setups.push(s);
        j
    };
    let job = (1..SETUP_REPS).fold(setup(), |_, _| setup());

    let (reference, seq_s) = timed(|| job.problem.solve_sequential());
    let want = matrix_crc(&reference);
    eprintln!(
        "perfbench: {} cells, {} tiles, sequential reference {seq_s:.4} s, matrix-crc {want:#010x}",
        job.matrix_cells(),
        job.model().master_dag().len()
    );
    let mut tally = Tally::default();
    let mut runner = Runner::OneShot(b.transport);
    let mut metrics = Metrics::default();

    if ctx.trace {
        let link = match b.transport {
            TransportKind::Uds => Link::Uds,
            _ => Link::Channel,
        };
        metrics.extend(layers::ladder(
            ctx,
            &job,
            &mut runner,
            &reference,
            seq_s,
            link,
            &mut tally,
        ));
        metrics.extend(serve::probe(ctx, &job.spec, want, &mut tally));
    } else {
        let secs = measure(&mut runner, &job, want, ctx, &mut tally, || {
            for _ in 0..SETUP_REPS_PER_JOB {
                setup();
            }
        });
        let total: f64 = secs.iter().sum();
        let n = secs.len() as f64;
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("job_s_p50", median(&secs), "s");
        metrics.put(
            "cells_per_s",
            job.matrix_cells() as f64 * n / total,
            "cells/s",
        );
        metrics.put("submit_done_ms_p90", 1e3 * quantile(&secs, 0.9), "ms");
        metrics.put("jobs_per_s", n / total, "jobs/s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        eprintln!(
            "perfbench: {} verified jobs in {total:.2} s of job time",
            secs.len()
        );
    }
    runner.shutdown();
    Ok(Outcome { tally, metrics })
}

/// One verified warm-up job, then back-to-back jobs for the budget,
/// calling `between` after each. Returns the wall times of the verified
/// ones.
fn measure<P: DpProblem<Cell = i32>>(
    runner: &mut Runner,
    job: &Job<P>,
    want: u32,
    ctx: &Ctx,
    tally: &mut Tally,
    mut between: impl FnMut(),
) -> Vec<f64> {
    let _ = layers::verified(runner, job, false, want, tally);
    let t0 = Instant::now();
    let mut secs = Vec::new();
    let mut tries = 0;
    while (secs.is_empty() && tries < 3) || since(t0) < ctx.budget.as_secs_f64() {
        tries += 1;
        if let Some(r) = layers::verified(runner, job, false, want, tally) {
            secs.push(r.secs);
        }
        between();
    }
    let ms: Vec<String> = secs.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    eprintln!("perfbench: job ms: {}", ms.join(" "));
    secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The benchmark's self-test: fed a wrong reference, every job counts
    /// as failed against the number attempted, and the run goes on.
    #[test]
    fn wrong_reference_is_counted_not_fatal() {
        let x = random_sequence(Alphabet::Dna, 120, 1);
        let y = random_sequence(Alphabet::Dna, 130, 2);
        let remote = RemoteProblem::EditDistance {
            a: x.clone(),
            b: y.clone(),
        };
        let job = Job::new(EditDistance::new(x, y), remote, 40, 20);
        let want = matrix_crc(&job.problem.solve_sequential());
        let ctx = Ctx {
            seed: 1,
            budget: Duration::from_millis(300),
            trace: false,
            work: std::env::temp_dir(),
        };
        let mut runner = Runner::OneShot(TransportKind::InProcess);

        let mut tally = Tally::default();
        assert_eq!(
            measure(&mut runner, &job, want, &ctx, &mut tally, || ()).len() as u64,
            tally.attempted - 1
        );
        assert_eq!(tally.failed, 0, "the true reference verifies");

        let mut tally = Tally::default();
        let secs = measure(&mut runner, &job, want ^ 1, &ctx, &mut tally, || ());
        assert!(secs.is_empty(), "no unverified job is timed");
        assert!(tally.attempted >= 2, "the run went on after a failure");
        assert_eq!(tally.failed, tally.attempted, "every mismatch counted");
    }
}
