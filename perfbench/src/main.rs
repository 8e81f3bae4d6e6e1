//! `perfbench` — the EasyHPS benchmark: three seeded workloads, every
//! result verified against the sequential kernel, end-to-end metrics in
//! an untraced run and a per-layer ladder in a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload swgg-compute --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Progress and breakdowns go to standard error. See `README.md` in this
//! directory for every metric, its unit and what it should move.

mod batch;
mod job;
mod layers;
mod serve;
mod stats;

use stats::{Metrics, Tally};
use std::path::{Path, PathBuf};
use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload <swgg-compute|edit-fine-uds|serve-durable-mix> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Everything a workload needs from the command line.
pub struct Ctx {
    /// Workload seed: all inputs are drawn from it.
    pub seed: u64,
    /// Measuring time of one run.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Scratch directory for state, checkpoints and sockets.
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh, empty directory under the scratch root.
    pub fn subdir(&self, name: &str) -> PathBuf {
        let d = self.work.join(name);
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("scratch directory is writable");
        d
    }
}

/// What a workload returns: the tally of verified operations and the
/// metrics to print.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// The scratch root, `.perfbench_work/<pid>` under the working directory,
/// removed when dropped. Relative on purpose: Unix-socket paths built
/// under it stay short however deep the checkout is.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only removes the parent once no concurrent run uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: creating the scratch directory: {e}");
            std::process::exit(1);
        }
    };
    // The runtime puts its Unix sockets under the temp dir; keep them
    // (and everything else the run writes) inside the scratch root. Set
    // before any thread exists.
    std::env::set_var("TMPDIR", &work.0);
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace: args.trace,
        work: work.0.clone(),
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let out = match args.workload.as_str() {
        "swgg-compute" => batch::run(&batch::SWGG_COMPUTE, &ctx),
        "edit-fine-uds" => batch::run(&batch::EDIT_FINE_UDS, &ctx),
        "serve-durable-mix" => serve::run(&ctx),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    drop(work);
    match out {
        Ok(out) => {
            eprintln!(
                "perfbench: {} of {} operations failed",
                out.tally.failed, out.tally.attempted
            );
            out.metrics.log();
            println!("{}", stats::result_json(&out.tally, &out.metrics));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
