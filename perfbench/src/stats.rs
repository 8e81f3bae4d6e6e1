//! Sampling statistics, the verified-operation tally and the result line.

use std::time::{Duration, Instant};

/// Linearly interpolated quantile (`q` in `[0, 1]`) of `xs`; NaN when
/// `xs` is empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs`; NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Seconds elapsed since `t0`.
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Time `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, since(t0))
}

/// Repeat `round` until at least `min_rounds` rounds ran and `min_time`
/// passed, and return the median of the rates the rounds report. Each
/// round returns `(units, seconds)`; the rate is units per second.
pub fn median_rate(
    min_rounds: usize,
    min_time: Duration,
    mut round: impl FnMut() -> (f64, f64),
) -> f64 {
    let t0 = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < min_rounds || t0.elapsed() < min_time {
        let (units, secs) = round();
        rates.push(units / secs.max(1e-12));
    }
    median(&rates)
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

/// SplitMix64: the workload generator's seeded stream. The program under
/// test only ever sees the inputs drawn from it.
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Count of verified operations: every job or request the benchmark
/// issues is one attempt; a wrong result, an error or a refusal is one
/// failure. Failures never abort a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that failed verification, errored or were refused.
    pub failed: u64,
}

impl Tally {
    /// Record one operation; `Err` describes why it failed.
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}: {e}");
        }
    }

    /// Record one result digest against its reference.
    pub fn check_crc(&mut self, what: &str, got: u32, want: u32) {
        let outcome = if got == want {
            Ok(())
        } else {
            Err(format!("matrix-crc {got:#010x}, reference {want:#010x}"))
        };
        self.record(what, outcome);
    }
}

/// Named metrics with units, in print order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Add (or replace) metric `name`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.retain(|(n, _, _)| n != name);
        self.0.push((name.to_string(), value, unit));
    }

    /// Append every metric of `other`.
    pub fn extend(&mut self, other: Metrics) {
        for (n, v, u) in other.0 {
            self.put(&n, v, u);
        }
    }

    /// One line per metric, for the human-readable log.
    pub fn log(&self) {
        for (n, v, u) in &self.0 {
            eprintln!("perfbench:   {n:<34} {v:>16.6} {u}");
        }
    }
}

/// The last line of standard output: the tally and the metrics as one
/// JSON object. A metric that could not be measured (no samples) makes
/// the run incorrect and is printed as 0.
pub fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let mut correct = tally.failed == 0 && tally.attempted > 0;
    let mut body = Vec::new();
    for (n, v, u) in &metrics.0 {
        let v = if v.is_finite() {
            *v
        } else {
            eprintln!("perfbench: metric {n} has no value");
            correct = false;
            0.0
        };
        body.push(format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_marks_missing_values_incorrect() {
        let tally = Tally {
            attempted: 2,
            failed: 0,
        };
        let mut m = Metrics::default();
        m.put("a_s", 1.5, "s");
        assert_eq!(
            result_json(&tally, &m),
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        m.put("b_s", f64::NAN, "s");
        assert!(result_json(&tally, &m).starts_with("{\"correct\": false"));
    }
}
