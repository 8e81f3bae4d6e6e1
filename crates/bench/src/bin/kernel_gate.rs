//! `kernel_gate` — the tile-kernel regression gate. Every row is a speedup
//! ratio, baseline min ÷ kernel min, with both sides measured in the same
//! run in alternating batches (A B A B …), so host speed and host drift
//! cancel out of the ratio:
//!
//! * edit distance 64x64 tile: bit-parallel Myers vs a per-cell `get`/`set`
//!   kernel, and vs the scalar slice sweep;
//! * NW / LCS 64x64 tiles: anti-diagonal sweep vs scalar slice sweep;
//! * SWGG 64x64 tile and Nussinov-256 full triangle: the slice-scan kernels
//!   vs per-cell `get`-based kernels;
//! * Nussinov-1024: cache-oblivious recursive tiling vs the iterative sweep.
//!
//! Report mode also prints two ungated end-to-end pairs, hand-set default
//! partitions vs `.autotune(..)`, which are too scheduler-noisy to gate.
//!
//! ```text
//! kernel_gate [--out PATH] [--iters N]
//! kernel_gate --check crates/bench/kernel_ratios.json [--iters N]
//! ```
//!
//! `--check` fails a row whose measured ratio is below 0.9 × its committed
//! ratio, or that has no finite committed ratio.

use easyhps_core::{GridDims, TileRegion};
use easyhps_dp::sequence::{random_sequence, rna_pairs, Alphabet};
use easyhps_dp::{
    DpMatrix, DpProblem, EditDistance, GapPenalty, Lcs, NeedlemanWunsch, Nussinov,
    SmithWatermanGeneralGap, Substitution,
};
use easyhps_obs::json::{self, JsonValue};
use easyhps_runtime::EasyHps;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// A row fails `--check` when its measured ratio is below this share of
/// the committed one.
const TOLERANCE: f64 = 0.9;

/// The pass/fail rule of `--check` for one row.
fn check_row(measured: f64, committed: Option<f64>) -> Result<(), String> {
    let Some(committed) = committed else {
        return Err("no committed ratio".into());
    };
    if !measured.is_finite() || !committed.is_finite() {
        return Err(format!(
            "non-finite ratio: measured {measured}, committed {committed}"
        ));
    }
    if measured < TOLERANCE * committed {
        return Err(format!(
            "measured {measured:.2}x is below {TOLERANCE} x committed {committed:.2}x"
        ));
    }
    Ok(())
}

/// Each row's samples are taken in this many passes over all rows,
/// with a pause after each pass. That spreads them over about ten
/// seconds, so a burst of contention from other tenants of the host,
/// which slows vectorized kernels more than scalar ones, leaves
/// uncontended passes for both sides of every row.
const PASSES: usize = 10;
const PASS_PAUSE: Duration = Duration::from_millis(300);

/// `(min, median)` of a sample set.
fn min_median(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_unstable_by(f64::total_cmp);
    let n = samples.len();
    let median = if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    };
    (samples[0], median)
}

/// Calls per timed batch for each op: about 2 ms of calls, which keeps
/// microsecond-scale kernels clear of timer granularity. Runs one
/// discarded warm-up batch of each op.
fn batch_sizes(ops: &mut [Box<dyn FnMut() + '_>]) -> Vec<u64> {
    ops.iter_mut()
        .map(|op| {
            let t0 = Instant::now();
            op();
            let probe = t0.elapsed().as_nanos().max(1);
            let batch = (2_000_000 / probe).clamp(1, 1 << 20) as u64;
            for _ in 0..batch {
                op();
            }
            batch
        })
        .collect()
}

/// Time `rounds` rounds of one batch of every op in turn (A B A B …), so
/// drift hits all ops of a row alike, appending ns per call to `times`.
fn sample_rounds(
    rounds: usize,
    ops: &mut [Box<dyn FnMut() + '_>],
    batches: &[u64],
    times: &mut [Vec<f64>],
) {
    for _ in 0..rounds {
        for ((op, &batch), t) in ops.iter_mut().zip(batches).zip(times.iter_mut()) {
            let t0 = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
}

/// An op that runs `kernel` on a matrix of its own.
fn on_matrix<'a>(
    dims: GridDims,
    mut kernel: impl FnMut(&mut DpMatrix<i32>) + 'a,
) -> Box<dyn FnMut() + 'a> {
    let mut m = DpMatrix::new(dims);
    Box::new(move || {
        kernel(&mut m);
        black_box(&mut m);
    })
}

/// Per-cell edit distance as the original tile kernel computed it: one
/// bounds-checked `get`/`set` per dependency and cell.
fn edit_percell(a: &[u8], b: &[u8], m: &mut DpMatrix<i32>, region: TileRegion) {
    for i in region.row_start..region.row_end {
        for j in region.col_start..region.col_end {
            let v = if i == 0 {
                j as i32
            } else if j == 0 {
                i as i32
            } else {
                let sub = (a[i as usize - 1] != b[j as usize - 1]) as i32;
                (m.get(i - 1, j) + 1)
                    .min(m.get(i, j - 1) + 1)
                    .min(m.get(i - 1, j - 1) + sub)
            };
            m.set(i, j, v);
        }
    }
}

/// Per-cell SWGG: every row and column prefix scanned through `get`, the
/// gap cost evaluated per term.
fn swgg_percell(
    (a, b): (&[u8], &[u8]),
    (sub, gap): (&Substitution, &GapPenalty),
    m: &mut DpMatrix<i32>,
    region: TileRegion,
) {
    for i in region.row_start..region.row_end {
        for j in region.col_start..region.col_end {
            let v = if i == 0 || j == 0 {
                0
            } else {
                let s = sub.score(a[i as usize - 1], b[j as usize - 1]);
                let mut best = 0.max(m.get(i - 1, j - 1) + s);
                for k in 1..=j {
                    best = best.max(m.get(i, j - k) - gap.cost(k));
                }
                for k in 1..=i {
                    best = best.max(m.get(i - k, j) - gap.cost(k));
                }
                best
            };
            m.set(i, j, v);
        }
    }
}

/// Per-cell Nussinov (minimum loop 1, as `Nussinov::new`): bottom-up rows,
/// the bifurcation scanned through `get`.
fn nussinov_percell(seq: &[u8], m: &mut DpMatrix<i32>, region: TileRegion) {
    for i in (region.row_start..region.row_end).rev() {
        for j in region.col_start.max(i)..region.col_end {
            let v = if j == i {
                0
            } else {
                let mut best = m.get(i + 1, j).max(m.get(i, j - 1));
                if j - i > 1 && rna_pairs(seq[i as usize], seq[j as usize]) {
                    best = best.max(m.get(i + 1, j - 1) + 1);
                }
                for k in (i + 1)..j {
                    best = best.max(m.get(i, k) + m.get(k + 1, j));
                }
                best
            };
            m.set(i, j, v);
        }
    }
}

/// One gated row: a baseline and a kernel computing the same cells.
struct Row {
    name: &'static str,
    baseline: &'static str,
    /// `(min, median)` ns per call.
    base: (f64, f64),
    kernel: (f64, f64),
}

impl Row {
    fn ratio(&self) -> f64 {
        self.base.0 / self.kernel.0
    }
}

/// Measure every gated row. Each comparison is a group of ops sampled
/// back to back; each pass takes `samples / PASSES` rounds of every
/// group. `samples` trades runtime for stability.
fn measure_kernels(samples: usize) -> Vec<Row> {
    let a = random_sequence(Alphabet::Dna, 512, 1);
    let b = random_sequence(Alphabet::Dna, 512, 2);
    // The 64x64 corner tile with its boundary row and column, so every
    // kernel computes the same cells from a fresh matrix.
    let tile = TileRegion::new(0, 65, 0, 65);
    let edit = EditDistance::new(a.clone(), b.clone());
    let nw = NeedlemanWunsch::dna(a.clone(), b.clone());
    let lcs = Lcs::new(a.clone(), b.clone());
    let (sub, gap) = (
        Substitution::dna_default(),
        GapPenalty::Logarithmic { a: 4, b: 2 },
    );
    let swgg = SmithWatermanGeneralGap::new(a.clone(), b.clone(), sub.clone(), gap.clone());
    let rna = random_sequence(Alphabet::Rna, 256, 3);
    let nus = Nussinov::new(rna.clone());
    let tri = TileRegion::new(0, 256, 0, 256);
    let big = Nussinov::new(random_sequence(Alphabet::Rna, 1024, 4));
    let big_tri = TileRegion::new(0, 1024, 0, 1024);

    let mut groups = [
        vec![
            on_matrix(edit.dims(), |m| edit_percell(&a, &b, m, tile)),
            on_matrix(edit.dims(), |m| edit.compute_region_scalar(m, tile)),
            on_matrix(edit.dims(), |m| edit.compute_region(m, tile)),
        ],
        vec![
            on_matrix(nw.dims(), |m| nw.compute_region_scalar(m, tile)),
            on_matrix(nw.dims(), |m| nw.compute_region(m, tile)),
        ],
        vec![
            on_matrix(lcs.dims(), |m| lcs.compute_region_scalar(m, tile)),
            on_matrix(lcs.dims(), |m| lcs.compute_region(m, tile)),
        ],
        vec![
            on_matrix(swgg.dims(), |m| {
                swgg_percell((&a, &b), (&sub, &gap), m, tile)
            }),
            on_matrix(swgg.dims(), |m| swgg.compute_region(m, tile)),
        ],
        vec![
            on_matrix(nus.dims(), |m| nussinov_percell(&rna, m, tri)),
            on_matrix(nus.dims(), |m| nus.compute_region(m, tri)),
        ],
        vec![
            on_matrix(big.dims(), |m| big.compute_region_iterative(m, big_tri)),
            on_matrix(big.dims(), |m| big.compute_region(m, big_tri)),
        ],
    ];
    let batches: Vec<Vec<u64>> = groups.iter_mut().map(|g| batch_sizes(g)).collect();
    let mut times: Vec<Vec<Vec<f64>>> = groups.iter().map(|g| vec![vec![]; g.len()]).collect();
    for _ in 0..PASSES {
        for ((g, batch), t) in groups.iter_mut().zip(&batches).zip(&mut times) {
            sample_rounds(samples.div_ceil(PASSES), g, batch, t);
        }
        std::thread::sleep(PASS_PAUSE);
    }
    let mut row = |name, baseline, group: usize, base: usize, kernel: usize| Row {
        name,
        baseline,
        base: min_median(&mut times[group][base]),
        kernel: min_median(&mut times[group][kernel]),
    };
    vec![
        row("edit_64x64/myers_vs_percell", "per-cell get/set", 0, 0, 2),
        row("edit_64x64/myers_vs_slice", "scalar slice sweep", 0, 1, 2),
        row("nw_64x64/adiag_vs_slice", "scalar slice sweep", 1, 0, 1),
        row("lcs_64x64/adiag_vs_slice", "scalar slice sweep", 2, 0, 1),
        row("swgg_64x64/slice_vs_percell", "per-cell get/set", 3, 0, 1),
        row("nussinov_256/slice_vs_percell", "per-cell get/set", 4, 0, 1),
        row("nussinov_1024/recursive_vs_iterative", "iterative", 5, 0, 1),
    ]
}

/// One end-to-end run; `autotune_table = Some(path)` leaves partitions to
/// the tuner, `None` uses the hand-set defaults. Returns elapsed ns.
fn e2e_run<P: DpProblem + Clone + Send + Sync + 'static>(
    problem: &P,
    autotune_table: Option<&std::path::Path>,
) -> f64 {
    let mut hps = EasyHps::new(problem.clone()).slaves(2).threads_per_slave(2);
    if let Some(path) = autotune_table {
        hps = hps.autotune(path);
    }
    let t0 = Instant::now();
    let out = hps.run().unwrap();
    let elapsed = t0.elapsed().as_nanos() as f64;
    black_box(out.report.master.completed);
    elapsed
}

/// Interleaved default-vs-autotuned `(min, median)` pairs for one problem.
/// The tuning table is warmed first, so the sampled autotuned runs
/// exercise the load-and-apply path, not the calibration.
fn e2e_row<P: DpProblem + Clone + Send + Sync + 'static>(
    name: &'static str,
    problem: P,
    iters: usize,
    table: &std::path::Path,
) -> Row {
    e2e_run(&problem, None);
    e2e_run(&problem, Some(table));
    let (mut before, mut after) = (Vec::new(), Vec::new());
    for _ in 0..iters {
        before.push(e2e_run(&problem, None));
        after.push(e2e_run(&problem, Some(table)));
    }
    Row {
        name,
        baseline: "hand-set default partitions",
        base: min_median(&mut before),
        kernel: min_median(&mut after),
    }
}

fn render_rows(rows: &[Row]) -> String {
    let lines: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{ \"baseline\": \"{}\", \"baseline_min_ns\": {:.1}, \"baseline_median_ns\": {:.1}, \"kernel_min_ns\": {:.1}, \"kernel_median_ns\": {:.1}, \"ratio\": {:.3} }}",
                r.name, r.baseline, r.base.0, r.base.1, r.kernel.0, r.kernel.1, r.ratio()
            )
        })
        .collect();
    lines.join(",\n")
}

fn render_report(iters: usize, kernels: &[Row], e2e: &[Row]) -> String {
    format!(
        r#"{{
  "harness": "kernel_gate: {iters} auto-batched samples per side in {PASSES} passes, each row's sides alternating (warm-up discarded); ratio = baseline min / kernel min",
  "kernels": {{
{}
  }},
  "end_to_end": {{
{}
  }}
}}
"#,
        render_rows(kernels),
        render_rows(e2e)
    )
}

/// Re-measure the kernels and hold each row to its committed ratio.
fn check(path: &str, iters: usize) -> ExitCode {
    let committed = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
    {
        Ok(doc) => match doc.get("ratios") {
            Some(JsonValue::Obj(entries)) => entries.clone(),
            _ => {
                eprintln!("error: {path}: missing \"ratios\" object");
                return ExitCode::FAILURE;
            }
        },
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("re-measuring kernel ratios ({iters} samples each)...");
    let rows = measure_kernels(iters);
    let mut failed = false;
    for r in &rows {
        let want = committed
            .iter()
            .find(|(name, _)| name == r.name)
            .and_then(|(_, v)| v.as_f64());
        let verdict = check_row(r.ratio(), want);
        failed |= verdict.is_err();
        eprintln!(
            "  {:>6}  {:<38} measured {:.2}x vs committed {}  {}",
            if verdict.is_ok() { "ok" } else { "FAILED" },
            r.name,
            r.ratio(),
            want.map_or("-".into(), |w| format!("{w:.2}x")),
            verdict.err().unwrap_or_default()
        );
    }
    for (name, _) in &committed {
        if !rows.iter().any(|r| r.name == name) {
            eprintln!("  FAILED  {name}: committed but not measured");
            failed = true;
        }
    }
    if failed {
        eprintln!("kernel gate FAILED against {path}");
        ExitCode::FAILURE
    } else {
        eprintln!("kernel gate passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let usage = "usage: kernel_gate [--out PATH] [--iters N] [--check PATH]";
    let (mut out_path, mut check_path) = (None, None);
    let mut iters = 50usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("{usage}");
            return ExitCode::FAILURE;
        };
        match flag.as_str() {
            "--out" => out_path = Some(value),
            "--check" => check_path = Some(value),
            "--iters" => match value.parse() {
                Ok(n) if n > 0 => iters = n,
                _ => {
                    eprintln!("error: --iters: bad number '{value}'");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("error: unknown flag '{other}'\n{usage}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = check_path {
        return check(&path, iters);
    }

    eprintln!("measuring kernel ratios ({iters} samples each)...");
    let kernels = measure_kernels(iters);

    eprintln!("measuring end-to-end autotuning deltas...");
    let table = std::env::temp_dir().join(format!("kernel-gate-tune-{}.txt", std::process::id()));
    std::fs::remove_file(&table).ok();
    let (a, b) = (
        random_sequence(Alphabet::Dna, 200, 7),
        random_sequence(Alphabet::Dna, 200, 8),
    );
    let e2e_iters = iters.min(15);
    let mut e2e = vec![e2e_row(
        "edit_distance_200/autotuned_vs_default",
        EditDistance::new(a, b),
        e2e_iters,
        &table,
    )];
    let (a, b) = (
        random_sequence(Alphabet::Dna, 256, 9),
        random_sequence(Alphabet::Dna, 256, 10),
    );
    e2e.push(e2e_row(
        "swgg_256/autotuned_vs_default",
        SmithWatermanGeneralGap::dna(a, b),
        e2e_iters,
        &table,
    ));
    std::fs::remove_file(&table).ok();

    let report = render_report(iters, &kernels, &e2e);
    print!("{report}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_passes_at_exactly_the_tolerance_and_fails_below() {
        assert_eq!(check_row(1.8, Some(2.0)), Ok(()));
        assert_eq!(check_row(2.5, Some(2.0)), Ok(()));
        let below = check_row(1.79, Some(2.0)).unwrap_err();
        assert!(
            below.contains("1.79x") && below.contains("2.00x"),
            "{below}"
        );
    }

    #[test]
    fn rule_fails_a_missing_row() {
        assert!(check_row(3.0, None).is_err());
    }

    #[test]
    fn rule_fails_non_finite_ratios() {
        for (measured, committed) in [
            (f64::NAN, 1.0),
            (f64::INFINITY, 1.0),
            (1.0, f64::NAN),
            (1.0, f64::INFINITY),
        ] {
            assert!(check_row(measured, Some(committed)).is_err());
        }
    }

    /// The per-cell baselines compute the same cells as the kernels they
    /// are timed against.
    #[test]
    fn percell_baselines_match_the_kernels() {
        let a = random_sequence(Alphabet::Dna, 40, 1);
        let b = random_sequence(Alphabet::Dna, 33, 2);
        let region = TileRegion::new(0, 30, 0, 25);

        let edit = EditDistance::new(a.clone(), b.clone());
        let (mut want, mut got) = (DpMatrix::new(edit.dims()), DpMatrix::new(edit.dims()));
        edit.compute_region(&mut want, region);
        edit_percell(&a, &b, &mut got, region);
        assert_eq!(got, want, "edit");

        let (sub, gap) = (
            Substitution::dna_default(),
            GapPenalty::Logarithmic { a: 4, b: 2 },
        );
        let swgg = SmithWatermanGeneralGap::new(a.clone(), b.clone(), sub.clone(), gap.clone());
        let (mut want, mut got) = (DpMatrix::new(swgg.dims()), DpMatrix::new(swgg.dims()));
        swgg.compute_region(&mut want, region);
        swgg_percell((&a, &b), (&sub, &gap), &mut got, region);
        assert_eq!(got, want, "swgg");

        let rna = random_sequence(Alphabet::Rna, 70, 3);
        let nus = Nussinov::new(rna.clone());
        let full = TileRegion::new(0, 70, 0, 70);
        let (mut want, mut got) = (DpMatrix::new(nus.dims()), DpMatrix::new(nus.dims()));
        nus.compute_region(&mut want, full);
        nussinov_percell(&rna, &mut got, full);
        assert_eq!(got, want, "nussinov");
    }
}
