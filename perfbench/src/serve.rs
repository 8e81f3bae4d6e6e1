//! `serve-durable-mix`: one serve `Daemon` (local fleet of 2 slaves x 1
//! thread, durable `state_dir`, checkpoint every few tiles) under a
//! seeded job mix — ~50% tiny edit-distance jobs (batched sequential
//! path), ~30% repeats (cache hit or coalesce), ~20% Nussinov n = 600
//! (fleet path, triangular DAG, checkpoint appends), in exact proportion
//! per block of ten requests.
//!
//! Two phases, both on at most 2 connections and 2 load threads:
//! - an **open loop** at a fixed offered rate: one thread submits on
//!   schedule (`wait = false`), the other polls `status` for completions.
//!   Every request is timed from when it was *due*, and the generator's
//!   own lateness is recorded;
//! - a **closed loop** of 2 connections submitting and waiting, for
//!   capacity.
//!
//! Every `Done` CRC is compared with the sequential reference of its
//! spec, computed after the phase so it does not load the daemon.

use crate::job::{checkpoint_every, matrix_crc, Job, Runner, SLAVES, THREADS};
use crate::layers::{self, Link};
use crate::stats::{median, peak_rss_mb, quantile, since, timed, Metrics, Rng, Tally};
use crate::{Ctx, Outcome};
use easyhps_core::GridDims;
use easyhps_dp::sequence::{random_sequence, Alphabet};
use easyhps_dp::Nussinov;
use easyhps_net::NetAddr;
use easyhps_runtime::remote::{JobSpec, RemoteProblem};
use easyhps_runtime::Fleet;
use easyhps_serve::{Admission, Client, Daemon, FleetSpec, JobState, Response, ServeConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Set-ups before the phases, and again after them; `setup_s` is the
/// median of all.
const SETUP_REPS: usize = 6;
/// Offered rate of the open loop, requests per second.
const OPEN_RATE: f64 = 10.0;
/// Completion-poll interval of the open loop's second connection; the
/// resolution of open-loop latencies.
const POLL: Duration = Duration::from_millis(1);
/// How long the open loop waits for stragglers after its last arrival.
const DRAIN: Duration = Duration::from_secs(60);
/// Nussinov length and partitions of fleet jobs.
const FLEET_LEN: usize = 600;
const FLEET_PP: u32 = 100;
const FLEET_TP: u32 = 25;
/// Edit-distance length range of tiny (batched) jobs.
const TINY_LEN: (u64, u64) = (40, 100);

/// The daemon under test; fleet jobs flush a checkpoint every
/// `every` tiles.
fn daemon_config(state: PathBuf, every: u64) -> ServeConfig {
    let mut cfg = ServeConfig::new(NetAddr::parse("127.0.0.1:0").expect("loopback address parses"));
    cfg.fleet = FleetSpec::Local {
        slaves: SLAVES,
        threads: Some(THREADS),
    };
    cfg.state_dir = Some(state);
    cfg.checkpoint_every = every;
    cfg
}

/// Jobs at or below this many cells take the daemon's batched path.
fn batch_max_cells() -> u64 {
    daemon_config(PathBuf::new(), 0).batch_max_cells
}

fn nussinov_spec(len: usize, seed: u64) -> JobSpec {
    JobSpec::new(
        RemoteProblem::Nussinov {
            seq: random_sequence(Alphabet::Rna, len, seed),
            min_loop: 1,
        },
        GridDims::square(FLEET_PP),
        GridDims::square(FLEET_TP),
    )
}

fn tiny_spec(rng: &mut Rng) -> JobSpec {
    let (la, lb) = (
        rng.range(TINY_LEN.0, TINY_LEN.1),
        rng.range(TINY_LEN.0, TINY_LEN.1),
    );
    JobSpec::new(
        RemoteProblem::EditDistance {
            a: random_sequence(Alphabet::Dna, la as usize, rng.next_u64()),
            b: random_sequence(Alphabet::Dna, lb as usize, rng.next_u64()),
        },
        GridDims::square(32),
        GridDims::square(16),
    )
}

/// A seeded mix: distinct specs and the request sequence over them.
struct Mix {
    specs: Vec<JobSpec>,
    reqs: Vec<usize>,
}

/// Request kinds of one block of ten: the mix's exact proportions, so
/// that runs with different seeds differ in inputs and order only.
const BLOCK: [Kind; 10] = {
    use Kind::*;
    [
        Tiny, Tiny, Tiny, Tiny, Tiny, Repeat, Repeat, Repeat, Fleet, Fleet,
    ]
};

#[derive(Clone, Copy)]
enum Kind {
    Tiny,
    Repeat,
    Fleet,
}

fn gen_mix(rng: &mut Rng, n: usize) -> Mix {
    let mut mix = Mix {
        specs: Vec::new(),
        reqs: Vec::with_capacity(n),
    };
    let mut block = BLOCK;
    while mix.reqs.len() < n {
        // Fisher-Yates: each block of ten in a seeded order.
        for i in (1..block.len()).rev() {
            block.swap(i, rng.range(0, i as u64) as usize);
        }
        for &kind in &block {
            let idx = match kind {
                // A repeat: half the time of the latest distinct job
                // (often still in flight, so it coalesces), otherwise of
                // one of the last eight (often finished: a cache hit).
                Kind::Repeat if !mix.specs.is_empty() => {
                    let back = if rng.unit() < 0.5 {
                        0
                    } else {
                        rng.range(0, 7.min(mix.specs.len() as u64 - 1)) as usize
                    };
                    mix.specs.len() - 1 - back
                }
                Kind::Fleet => {
                    mix.specs.push(nussinov_spec(FLEET_LEN, rng.next_u64()));
                    mix.specs.len() - 1
                }
                Kind::Tiny | Kind::Repeat => {
                    mix.specs.push(tiny_spec(rng));
                    mix.specs.len() - 1
                }
            };
            mix.reqs.push(idx);
        }
    }
    mix.reqs.truncate(n);
    mix
}

/// A daemon on a fresh state directory, and the seconds until its fleet
/// had completed a first job: `Daemon::start` (state-dir open, recovery
/// scan, fleet spawn) plus a readiness job just past the batching
/// threshold, so it must take the fleet path.
fn start_ready(
    ctx: &Ctx,
    name: &str,
    every: u64,
    tally: &mut Tally,
) -> Result<(Daemon, f64), String> {
    let side = (batch_max_cells() as f64).sqrt() as usize + 1;
    let probe = JobSpec::new(
        RemoteProblem::EditDistance {
            a: random_sequence(Alphabet::Dna, side, 11),
            b: random_sequence(Alphabet::Dna, side, 12),
        },
        GridDims::square(side as u32 / 2 + 1),
        GridDims::square(side as u32 / 2 + 1),
    );
    let want = matrix_crc(&probe.problem.solve_sequential());
    let state = ctx.subdir(name);
    let t0 = Instant::now();
    let daemon = Daemon::start(daemon_config(state, every))
        .map_err(|e| format!("starting the daemon: {e}"))?;
    let outcome = Client::connect(daemon.addr()).and_then(|mut c| c.submit_wait("setup", probe));
    let secs = since(t0);
    match outcome {
        Ok(Response::Done { result, .. }) => tally.check_crc("readiness job", result.crc, want),
        Ok(other) => tally.record("readiness job", Err(format!("{other:?}"))),
        Err(e) => tally.record("readiness job", Err(e.to_string())),
    }
    Ok((daemon, secs))
}

/// One request's life, in seconds since its phase started.
#[derive(Clone, Debug, Default)]
struct Req {
    spec: usize,
    due: f64,
    sent: f64,
    accepted: f64,
    admission: Option<Admission>,
    done: Option<f64>,
    crc: Option<u32>,
    error: Option<String>,
}

impl Req {
    fn latency(&self) -> Option<f64> {
        self.done.map(|d| d - self.due)
    }
}

/// Lock a table the two load threads share; neither panics holding it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("no load thread panics while holding a lock")
}

/// Open loop: `arrivals` are `(due seconds, spec)`. Returns every
/// request and the number outstanding right after each submission.
fn open_loop(
    addr: &NetAddr,
    specs: &[JobSpec],
    arrivals: &[(f64, usize)],
) -> (Vec<Req>, Vec<usize>) {
    let reqs: Mutex<Vec<Req>> = Mutex::new(
        arrivals
            .iter()
            .map(|&(due, spec)| Req {
                spec,
                due,
                ..Req::default()
            })
            .collect(),
    );
    let pending: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
    let submitted = AtomicBool::new(false);
    let mut backlog = Vec::with_capacity(arrivals.len());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        // Completion poller on the second connection.
        s.spawn(|| {
            let mut c = Client::connect(addr);
            let mut drain_start = None;
            loop {
                let batch = lock(&pending).clone();
                if batch.is_empty() && submitted.load(Ordering::SeqCst) {
                    return;
                }
                for (i, job) in batch {
                    let state = match &mut c {
                        Ok(c) => c.status(job).map_err(|e| e.to_string()),
                        Err(e) => Err(format!("connecting: {e}")),
                    };
                    let now = since(t0);
                    let finished = {
                        let r = &mut lock(&reqs)[i];
                        match state {
                            Ok(Response::Status {
                                state: JobState::Queued { .. } | JobState::Running,
                                ..
                            }) => false,
                            Ok(Response::Status {
                                state: JobState::Done(res),
                                ..
                            }) => {
                                r.done = Some(now);
                                r.crc = Some(res.crc);
                                true
                            }
                            Ok(other) => {
                                r.error = Some(format!("status: {other:?}"));
                                true
                            }
                            Err(e) => {
                                r.error = Some(e);
                                true
                            }
                        }
                    };
                    if finished {
                        lock(&pending).retain(|p| p.0 != i);
                    }
                }
                if submitted.load(Ordering::SeqCst) {
                    let since_drain = *drain_start.get_or_insert_with(Instant::now);
                    if since_drain.elapsed() > DRAIN {
                        for (i, _) in lock(&pending).drain(..) {
                            lock(&reqs)[i].error =
                                Some(format!("not done {DRAIN:?} after the last arrival"));
                        }
                        return;
                    }
                }
                std::thread::sleep(POLL);
            }
        });

        // Submitter on the first connection, on schedule.
        let mut c = Client::connect(addr).map_err(|e| e.to_string());
        for (i, &(due, spec)) in arrivals.iter().enumerate() {
            if let Some(wait) = Duration::from_secs_f64(due).checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent = since(t0);
            let resp = match &mut c {
                Ok(c) => c
                    .submit(&format!("tenant-{}", i % 8), false, specs[spec].clone())
                    .map_err(|e| e.to_string()),
                Err(e) => Err(format!("connecting: {e}")),
            };
            let accepted = since(t0);
            let mut done = None;
            let result = match resp {
                Ok(Response::Accepted { job, admission }) => {
                    if admission == Admission::CacheHit {
                        // A cache hit's Done follows on the same exchange.
                        done = Some(match c.as_mut().map(|c| c.read_response()) {
                            Ok(Ok(Response::Done { result, .. })) => Ok((since(t0), result.crc)),
                            Ok(Ok(other)) => Err(format!("after a cache hit: {other:?}")),
                            Ok(Err(e)) => Err(e.to_string()),
                            Err(e) => Err(e.clone()),
                        });
                    } else {
                        lock(&pending).push((i, job));
                    }
                    Ok(admission)
                }
                Ok(other) => Err(format!("{other:?}")),
                Err(e) => Err(e),
            };
            {
                let r = &mut lock(&reqs)[i];
                r.sent = sent;
                r.accepted = accepted;
                match result {
                    Ok(a) => r.admission = Some(a),
                    Err(e) => r.error = Some(e),
                }
                match done {
                    Some(Ok((t, crc))) => {
                        r.done = Some(t);
                        r.crc = Some(crc);
                    }
                    Some(Err(e)) => r.error = Some(e),
                    None => {}
                }
            }
            backlog.push(lock(&pending).len());
        }
        submitted.store(true, Ordering::SeqCst);
    });
    (reqs.into_inner().expect("load threads joined"), backlog)
}

/// Closed loop: 2 connections, each submitting `order`'s requests (its
/// half) and waiting for `Done`, until `dur` passed. Returns the requests
/// and the seconds until both streams stopped.
fn closed_loop(
    addr: &NetAddr,
    specs: &[JobSpec],
    order: &[usize],
    dur: Duration,
) -> (Vec<Req>, f64) {
    const STREAMS: usize = 2;
    let t0 = Instant::now();
    let reqs = std::thread::scope(|s| {
        let streams: Vec<_> = (0..STREAMS)
            .map(|k| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut c = match Client::connect(addr) {
                        Ok(c) => c,
                        Err(e) => {
                            out.push(Req {
                                error: Some(format!("connecting: {e}")),
                                ..Req::default()
                            });
                            return out;
                        }
                    };
                    for &spec in order.iter().skip(k).step_by(STREAMS) {
                        if t0.elapsed() >= dur {
                            return out;
                        }
                        let sent = since(t0);
                        let mut r = Req {
                            spec,
                            due: sent,
                            sent,
                            ..Req::default()
                        };
                        let resp = c
                            .submit(&format!("closed-{k}"), true, specs[spec].clone())
                            .and_then(|first| match first {
                                Response::Accepted { admission, .. } => {
                                    r.admission = Some(admission);
                                    c.read_response()
                                }
                                other => Ok(other),
                            });
                        match resp {
                            Ok(Response::Done { result, .. }) => {
                                r.done = Some(since(t0));
                                r.crc = Some(result.crc);
                            }
                            Ok(other) => r.error = Some(format!("{other:?}")),
                            Err(e) => r.error = Some(e.to_string()),
                        }
                        out.push(r);
                    }
                    eprintln!("perfbench: closed-loop stream {k} ran out of generated requests");
                    out
                })
            })
            .collect();
        streams
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop stream panicked"))
            .collect::<Vec<_>>()
    });
    (reqs, since(t0))
}

/// Check every request's result against its spec's sequential reference
/// (`refs` memoizes by spec index). Returns which requests verified.
fn verify(
    specs: &[JobSpec],
    reqs: &[Req],
    refs: &mut HashMap<usize, u32>,
    tally: &mut Tally,
    what: &str,
) -> Vec<bool> {
    reqs.iter()
        .map(|r| match (&r.error, r.crc) {
            (Some(e), _) => {
                tally.record(what, Err(e.clone()));
                false
            }
            (None, Some(crc)) => {
                let want = *refs
                    .entry(r.spec)
                    .or_insert_with(|| matrix_crc(&specs[r.spec].problem.solve_sequential()));
                tally.check_crc(what, crc, want);
                crc == want
            }
            (None, None) => {
                tally.record(what, Err("no result".into()));
                false
            }
        })
        .collect()
}

/// The serve layer's metrics from one open loop, and the generator's
/// honesty: how late it ran and whether the backlog grew.
/// `serve.coalesced` also counts the `closed` loop's followers: at the
/// open loop's rate a repeat rarely finds its original still in flight.
fn serve_layer(
    m: &mut Metrics,
    specs: &[JobSpec],
    reqs: &[Req],
    ok: &[bool],
    backlog: &[usize],
    closed: &[Req],
) {
    let thr = batch_max_cells();
    let class = |pred: &dyn Fn(&Req) -> bool| -> Vec<f64> {
        reqs.iter()
            .zip(ok)
            .filter(|(r, &ok)| ok && pred(r))
            .filter_map(|(r, _)| r.latency())
            .map(|s| s * 1e3)
            .collect()
    };
    let new = |r: &Req| r.admission == Some(Admission::New);
    let small = |r: &Req| specs[r.spec].problem.cells() <= thr;
    let accept: Vec<f64> = reqs
        .iter()
        .filter(|r| new(r))
        .map(|r| (r.accepted - r.sent) * 1e3)
        .collect();
    let hits = reqs
        .iter()
        .filter(|r| r.admission == Some(Admission::CacheHit))
        .count();
    let coalesced = reqs
        .iter()
        .chain(closed)
        .filter(|r| r.admission == Some(Admission::Coalesced))
        .count();
    let late: Vec<f64> = reqs.iter().map(|r| (r.sent - r.due) * 1e3).collect();
    // The open loop's all-class median: on a shared virtual disk it
    // tracks fsync latency (two durable writes per batched job) and
    // swings up to 2x between runs, so it is a rung, not a gated
    // end-to-end metric; the p90 (fleet jobs) is gated.
    m.put("serve.submit_done_ms_p50", median(&class(&|_| true)), "ms");
    m.put("serve.accept_ms_p50", median(&accept), "ms");
    m.put(
        "serve.cache_hit_ms_p50",
        median(&class(&|r| r.admission == Some(Admission::CacheHit))),
        "ms",
    );
    m.put(
        "serve.batched_ms_p50",
        median(&class(&|r| new(r) && small(r))),
        "ms",
    );
    m.put(
        "serve.fleet_ms_p50",
        median(&class(&|r| new(r) && !small(r))),
        "ms",
    );
    m.put(
        "serve.cache_hit_frac",
        hits as f64 / reqs.len() as f64,
        "ratio",
    );
    m.put("serve.coalesced", coalesced as f64, "count");
    m.put("loadgen.late_ms_p99", quantile(&late, 0.99), "ms");
    let third = (backlog.len() / 3).max(1);
    let mean = |xs: &[usize]| xs.iter().sum::<usize>() as f64 / xs.len().max(1) as f64;
    let (first, last) = (
        mean(&backlog[..third.min(backlog.len())]),
        mean(&backlog[backlog.len().saturating_sub(third)..]),
    );
    m.put("loadgen.backlog_growth", last - first, "jobs");
    eprintln!(
        "perfbench: open loop: {} requests (cache_hit_frac base), {} new, {hits} cache hits; \
         {coalesced} coalesced over both loops; backlog first third {first:.2}, last third {last:.2}{}",
        reqs.len(),
        reqs.iter().filter(|r| new(r)).count(),
        if last > 2.0 * first + 2.0 { " — BACKLOG GREW: offered rate above capacity" } else { "" }
    );
}

/// Run `serve-durable-mix`.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let budget = ctx.budget.as_secs_f64();
    let mut rng = Rng::new(ctx.seed, 0x5E_AE);
    let open_s = budget * if ctx.trace { 0.35 } else { 0.55 };
    let closed = Duration::from_secs_f64(budget * if ctx.trace { 0.2 } else { 0.3 });
    let open_n = (OPEN_RATE * open_s).ceil() as usize;
    let mix = gen_mix(
        &mut rng,
        open_n + (closed.as_secs_f64() * 1000.0) as usize + 100,
    );
    let arrivals: Vec<(f64, usize)> = (0..open_n)
        .map(|i| (i as f64 / OPEN_RATE, mix.reqs[i]))
        .collect();

    // Fleet jobs are Nussinov n = 600: 21 master tiles.
    let fleet_every =
        checkpoint_every(nussinov_spec(FLEET_LEN, 0).model().master_dag().len() as u64);
    // Set-up, sampled before and after the phases (a fresh state
    // directory each time); the last daemon started first serves them.
    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..if ctx.trace { 1 } else { SETUP_REPS } {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let (d, s) = start_ready(ctx, &format!("state-{k}"), fleet_every, &mut tally)?;
        setups.push(s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let mut refs = HashMap::new();

    let (open, backlog) = open_loop(daemon.addr(), &mix.specs, &arrivals);
    let computed = || {
        daemon
            .registry()
            .snapshot()
            .counter("serve_cells_computed")
            .unwrap_or(0)
    };
    let cells_before = computed();
    let (closed_reqs, closed_s) =
        closed_loop(daemon.addr(), &mix.specs, &mix.reqs[open_n..], closed);
    let closed_cells = computed() - cells_before;
    daemon.stop();
    for k in 0..if ctx.trace { 0 } else { SETUP_REPS } {
        let (d, s) = start_ready(ctx, &format!("state-after-{k}"), fleet_every, &mut tally)?;
        setups.push(s);
        d.stop();
    }
    let open_ok = verify(
        &mix.specs,
        &open,
        &mut refs,
        &mut tally,
        "open-loop request",
    );
    let closed_ok = verify(
        &mix.specs,
        &closed_reqs,
        &mut refs,
        &mut tally,
        "closed-loop request",
    );

    let mut layer = Metrics::default();
    serve_layer(
        &mut layer,
        &mix.specs,
        &open,
        &open_ok,
        &backlog,
        &closed_reqs,
    );
    if ctx.trace {
        metrics.extend(layer);
        metrics.extend(fleet_ladder(ctx, &mut tally)?);
    } else {
        let lat: Vec<f64> = open
            .iter()
            .zip(&open_ok)
            .filter(|(_, &ok)| ok)
            .filter_map(|(r, _)| r.latency())
            .collect();
        let deciles: Vec<String> = (1..10)
            .map(|d| format!("{:.2}", 1e3 * quantile(&lat, d as f64 / 10.0)))
            .collect();
        eprintln!(
            "perfbench: open-loop latency deciles ms: {}",
            deciles.join(" ")
        );
        let done: Vec<&Req> = closed_reqs
            .iter()
            .zip(&closed_ok)
            .filter(|(_, &ok)| ok)
            .map(|(r, _)| r)
            .collect();
        // A serve "job" is a fleet job the daemon computed (not a cache
        // hit, a follower or a batched tiny job).
        let thr = batch_max_cells();
        let job_s: Vec<f64> = done
            .iter()
            .filter(|r| {
                r.admission == Some(Admission::New) && mix.specs[r.spec].problem.cells() > thr
            })
            .filter_map(|r| r.latency())
            .collect();
        metrics.put("setup_s", median(&setups), "s");
        metrics.put("job_s_p50", median(&job_s), "s");
        metrics.put("cells_per_s", closed_cells as f64 / closed_s, "cells/s");
        metrics.put("submit_done_ms_p90", 1e3 * quantile(&lat, 0.9), "ms");
        metrics.put("jobs_per_s", done.len() as f64 / closed_s, "jobs/s");
        metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
        // An untraced run puts the serve rungs, including the open
        // loop's honesty (lateness, backlog), in the log only.
        layer.log();
        eprintln!(
            "perfbench: open loop {} requests at {OPEN_RATE}/s; closed loop {} jobs ({} computed fleet jobs) in {closed_s:.2} s",
            open.len(),
            done.len(),
            job_s.len()
        );
    }
    Ok(Outcome { tally, metrics })
}

/// The per-layer ladder on the workload's fleet job (a Nussinov n = 600
/// from the seed) run the daemon's way: `Fleet::run_job` on a local
/// fleet.
fn fleet_ladder(ctx: &Ctx, tally: &mut Tally) -> Result<Metrics, String> {
    let seq = random_sequence(Alphabet::Rna, FLEET_LEN, ctx.seed);
    let job = Job::new(
        Nussinov::with_min_loop(seq.clone(), 1),
        RemoteProblem::Nussinov { seq, min_loop: 1 },
        FLEET_PP,
        FLEET_TP,
    );
    let (reference, seq_s) =
        timed(|| easyhps_dp::DpProblem::solve_sequential(job.problem.as_ref()));
    let fleet =
        Fleet::local(SLAVES, Some(THREADS)).map_err(|e| format!("starting a fleet: {e}"))?;
    let mut runner = Runner::Fleet(Box::new(fleet));
    let m = layers::ladder(
        ctx,
        &job,
        &mut runner,
        &reference,
        seq_s,
        Link::Channel,
        tally,
    );
    runner.shutdown();
    Ok(m)
}

/// The serve layer for a one-shot workload's traced run: a fresh daemon
/// fed a mix built from the workload's own job `spec` (known
/// `matrix-crc` `want`) in two open-loop phases, 100 ms apart per
/// request. First the job twice back to back (the second coalesces),
/// then alternately a tiny batched job and a repeat of the job
/// (coalesced while it runs); once that drained, the same alternation
/// again, where every repeat is a cache hit.
pub fn probe(ctx: &Ctx, spec: &JobSpec, want: u32, tally: &mut Tally) -> Metrics {
    let mut m = Metrics::default();
    let every = checkpoint_every(spec.model().master_dag().len() as u64);
    let (daemon, _) = match start_ready(ctx, "probe-state", every, tally) {
        Ok(d) => d,
        Err(e) => {
            tally.record("serve probe", Err(e));
            return m;
        }
    };
    let mut rng = Rng::new(ctx.seed, 0x9B0B);
    let mut specs = vec![spec.clone()];
    let mut phase = |first: Vec<(f64, usize)>| {
        let mut arrivals = first;
        for k in 0..10 {
            let idx = if k % 2 == 0 {
                specs.push(tiny_spec(&mut rng));
                specs.len() - 1
            } else {
                0
            };
            arrivals.push((0.1 + 0.1 * k as f64, idx));
        }
        open_loop(daemon.addr(), &specs, &arrivals)
    };
    let (mut reqs, mut backlog) = phase(vec![(0.0, 0), (0.05, 0)]);
    let (warm, warm_backlog) = phase(Vec::new());
    reqs.extend(warm);
    backlog.extend(warm_backlog);
    daemon.stop();
    let mut refs = HashMap::from([(0, want)]);
    let ok = verify(&specs, &reqs, &mut refs, tally, "serve probe request");
    serve_layer(&mut m, &specs, &reqs, &ok, &backlog, &[]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fed a wrong reference for one spec, exactly that spec's requests
    /// (first submission and repeat) count as failed; the others verify.
    #[test]
    fn wrong_reference_fails_only_its_requests() {
        let work =
            std::env::temp_dir().join(format!("perfbench-serve-test-{}", std::process::id()));
        let ctx = Ctx {
            seed: 1,
            budget: Duration::from_secs(1),
            trace: false,
            work,
        };
        let mut tally = Tally::default();
        let (daemon, _) = start_ready(&ctx, "state", 4, &mut tally).expect("daemon starts");
        let mut rng = Rng::new(3, 0);
        let specs = vec![tiny_spec(&mut rng), tiny_spec(&mut rng)];
        let (reqs, _) = open_loop(daemon.addr(), &specs, &[(0.0, 0), (0.01, 1), (0.02, 0)]);
        daemon.stop();
        let good = matrix_crc(&specs[0].problem.solve_sequential());
        let mut refs = HashMap::from([(0, good ^ 1)]);
        let ok = verify(&specs, &reqs, &mut refs, &mut tally, "request");
        let _ = std::fs::remove_dir_all(&ctx.work);
        assert_eq!(ok, vec![false, true, false]);
        assert_eq!(
            (tally.attempted, tally.failed),
            (4, 2),
            "readiness job + 3 requests"
        );
    }
}
