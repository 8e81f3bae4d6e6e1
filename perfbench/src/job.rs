//! One workload job — the problem, its transportable spec — and the two
//! ways the benchmark executes it: a one-shot `EasyHps::run`, or a job
//! on a persistent `Fleet` (the serve daemon's path).

use easyhps_core::{DagDataDrivenModel, GridDims, GridPos, TileRegion};
use easyhps_dp::{DpMatrix, DpProblem};
use easyhps_runtime::remote::JobSpec;
use easyhps_runtime::{
    CheckpointPolicy, EasyHps, Fleet, JobOptions, ObsConfig, Registry, RunReport, TransportKind,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Slave ranks of every runtime the benchmark starts.
pub const SLAVES: usize = 2;
/// Compute threads per slave: `SLAVES * THREADS` equals the 2 vCPUs the
/// benchmark is sized for.
pub const THREADS: usize = 1;
/// Durable checkpoint cadence, in tiles, of a checkpointed job with
/// `tiles` master tiles: every 4 tiles, or 64 flushes per job when that
/// is rarer (each flush is an fsync; a 3721-tile job flushing every 4
/// tiles would spend half a minute in them).
pub fn checkpoint_every(tiles: u64) -> u64 {
    (tiles / 64).max(4)
}

/// CRC-32C over the full-matrix `encode_region` — the digest the CLI
/// prints as `matrix-crc:` and the serve daemon returns in `Done`.
pub fn matrix_crc(m: &DpMatrix<i32>) -> u32 {
    let d = m.dims();
    easyhps_net::crc32c(&m.encode_region(TileRegion::new(0, d.rows, 0, d.cols)))
}

/// A workload's job: the concrete problem (for the kernel-level rungs)
/// and the same problem as a spec (for fleets and the daemon).
pub struct Job<P: DpProblem<Cell = i32>> {
    /// The problem, shared with every run.
    pub problem: Arc<P>,
    /// The problem as the runtime ships it, with both partition sizes.
    pub spec: JobSpec,
}

impl<P: DpProblem<Cell = i32>> Job<P> {
    /// Pair `problem` with partition sizes `pp`/`tp`; `remote` must
    /// describe the same problem (results are checked against each other).
    pub fn new(
        problem: P,
        remote: easyhps_runtime::remote::RemoteProblem,
        pp: u32,
        tp: u32,
    ) -> Self {
        Job {
            problem: Arc::new(problem),
            spec: JobSpec::new(remote, GridDims::square(pp), GridDims::square(tp)),
        }
    }

    /// Matrix cells (`rows * cols`), the unit of `cells_per_s`.
    pub fn matrix_cells(&self) -> u64 {
        self.problem.dims().area()
    }

    /// Cells the pattern actually computes (the upper triangle for
    /// triangular problems), the unit of the kernel rungs.
    pub fn present_cells(&self) -> u64 {
        let d = self.problem.dims();
        let pattern = self.problem.pattern();
        (0..d.rows)
            .map(|r| {
                (0..d.cols)
                    .filter(|&c| pattern.contains(GridPos::new(r, c)))
                    .count() as u64
            })
            .sum()
    }

    /// Process-level tiles of the job's master DAG.
    pub fn tiles(&self) -> u64 {
        self.model().master_dag().len() as u64
    }

    /// The DAG Data Driven Model a run of this job builds (the same
    /// construction as `EasyHps::model`).
    pub fn model(&self) -> DagDataDrivenModel {
        DagDataDrivenModel::builder(self.problem.pattern())
            .process_partition_size(self.spec.pp)
            .thread_partition_size(self.spec.tp)
            .build()
    }
}

/// What one measured run of a job produced.
pub struct JobRun {
    /// Wall time of the run call, seconds.
    pub secs: f64,
    /// `matrix-crc` of the computed matrix.
    pub crc: u32,
    /// The runtime's own report (master counters, per-slave stats).
    pub report: RunReport,
    /// The run's metrics registry when metrics were collected.
    pub registry: Option<Arc<Registry>>,
}

/// How a job executes.
pub enum Runner {
    /// A fresh virtual cluster per job over the given transport.
    OneShot(TransportKind),
    /// A persistent local fleet, reused across jobs.
    Fleet(Box<Fleet>),
}

impl Runner {
    /// Run `job` once. `metrics` shares a registry with the caller;
    /// `checkpoint` turns durable checkpointing on into that directory.
    pub fn run<P: DpProblem<Cell = i32>>(
        &mut self,
        job: &Job<P>,
        metrics: bool,
        checkpoint: Option<PathBuf>,
    ) -> Result<JobRun, String> {
        let registry = metrics.then(|| Arc::new(Registry::new()));
        let every = checkpoint_every(job.tiles());
        let policy = checkpoint.map(|d| CheckpointPolicy::new(d).with_every_tiles(every));
        let t0 = Instant::now();
        let (matrix, report) = match self {
            Runner::OneShot(transport) => {
                let mut e = EasyHps::new_shared(job.problem.clone())
                    .process_partition(job.spec.pp)
                    .thread_partition(job.spec.tp)
                    .slaves(SLAVES)
                    .threads_per_slave(THREADS)
                    .transport(*transport);
                if let Some(r) = &registry {
                    e = e.metrics_registry(r.clone());
                }
                if let Some(p) = policy {
                    e = e.checkpoint(p);
                }
                let out = e.run().map_err(|e| e.to_string())?;
                (out.matrix, out.report)
            }
            Runner::Fleet(fleet) => {
                let opts = JobOptions {
                    obs: ObsConfig {
                        metrics: registry.clone(),
                        recorder: None,
                    },
                    checkpoint: policy,
                    ..JobOptions::default()
                };
                let out = fleet.run_job(&job.spec, opts).map_err(|e| e.to_string())?;
                (out.matrix, out.report)
            }
        };
        let secs = t0.elapsed().as_secs_f64();
        Ok(JobRun {
            secs,
            crc: matrix_crc(&matrix),
            report,
            registry,
        })
    }

    /// Release the runner's resources (joins a fleet's slave threads).
    pub fn shutdown(self) {
        if let Runner::Fleet(f) = self {
            f.shutdown();
        }
    }
}
