//! The per-layer ladder of a traced run. Every rung times calls into one
//! crate's public functions from outside, or reads counters the program
//! already exports; nothing here adds tracing inside the program.
//!
//! Rungs, by crate: `dp` (sequential and tiled kernels, cell codec),
//! `net` (CRC frames, link round trips), `core` (DAG build, master
//! scheduler), `runtime` (counters of real jobs, checkpoint appends),
//! `obs` (metrics on vs off), `sim` (cost-model calibration). The rungs
//! then add up to `runtime.layer_sum_s`; see [`layer_sum`].

use crate::job::{matrix_crc, Job, JobRun, Runner, SLAVES, THREADS};
use crate::stats::{median, median_rate, quantile, since, timed, Metrics, Tally};
use crate::Ctx;
use bytes::Bytes;
use easyhps_core::sched::{MasterAction, MasterEvent, MasterSched, SchedParams};
use easyhps_core::{DagDataDrivenModel, ScheduleMode, TaskDag, TileRegion};
use easyhps_dp::{DpMatrix, DpProblem};
use easyhps_net::socket::{connect, SocketConfig, SocketListener};
use easyhps_net::{frame, Endpoint, NetAddr, Network, Rank, ReliableEndpoint, RetryPolicy, Tag};
use easyhps_obs::labeled;
use easyhps_runtime::{Autotuner, DoneMsg, ProblemClass, TuneProfile};
use easyhps_sim::{simulate, SimConfig, SimWorkload};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

const MIB: f64 = (1u64 << 20) as f64;
/// Round trips per link rung (after a short warm-up).
const ROUND_TRIPS: usize = 1000;
/// Tag of the ping-pong payload and of the final "stop" message.
const PING: Tag = Tag(3);
const STOP: Tag = Tag(4);

/// Which link carries the workload's runtime traffic — the round trip
/// the layer sum charges per message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Link {
    /// In-process channels (one-shot in-process runs, local fleets).
    Channel,
    /// Unix-domain sockets.
    Uds,
}

/// Run the whole ladder for `job` executed by `runner`. `reference` is
/// the sequential solve, which took `seq_s`. Jobs are verified into
/// `tally`; the rungs take about half of the run's budget.
pub fn ladder<P: DpProblem<Cell = i32>>(
    ctx: &Ctx,
    job: &Job<P>,
    runner: &mut Runner,
    reference: &DpMatrix<i32>,
    seq_s: f64,
    link: Link,
    tally: &mut Tally,
) -> Metrics {
    let t0 = Instant::now();
    let want = matrix_crc(reference);
    let model = job.model();
    let dag = model.master_dag();
    let tiles = dag.len() as f64;
    let present = job.present_cells() as f64;
    let mut m = Metrics::default();

    // -- dp --------------------------------------------------------
    let kernel_s = tiled_solve(job, &model, &dag, want, tally);
    let tile_ns_per_cell = kernel_s * 1e9 / present;
    let regions: Vec<TileRegion> = dag.iter().map(|(_, v)| model.tile_region(v.pos)).collect();
    let (enc, dec) = codec_rates(reference, &regions);

    // -- net -------------------------------------------------------
    let done = DoneMsg {
        task: 0,
        epoch: 0,
        region: regions[0],
        output: reference.encode_region(regions[0]),
    }
    .encode();
    let (seal, check) = frame_rates(&done, tally);
    let chan = rtt_us(tally, "channel round trip", || channel_rtt(&done));
    let uds = rtt_us(tally, "uds round trip", || uds_rtt(ctx, &done, false));
    let reli = rtt_us(tally, "reliable uds round trip", || {
        uds_rtt(ctx, &done, true)
    });

    // -- runtime + obs: interleaved untraced / metrics-on jobs -------
    let _ = verified(runner, job, false, want, tally); // warm-up
    let (mut off, mut on, mut sample) = (Vec::new(), Vec::new(), None);
    let deadline = t0 + ctx.budget.mul_f64(0.6);
    let mut pair = 0;
    while (off.len() < 3 || Instant::now() < deadline) && pair < 64 {
        // Alternate which side of the pair runs first.
        for metrics in [pair % 2 == 1, pair % 2 == 0] {
            if let Some(r) = verified(runner, job, metrics, want, tally) {
                if metrics {
                    on.push(r.secs);
                    sample = Some(r);
                } else {
                    off.push(r.secs);
                }
            }
        }
        pair += 1;
    }
    let job_s = median(&off);
    let ckpt_us_per_tile = checkpointed(ctx, runner, job, want, tally) / tiles;

    // -- core ------------------------------------------------------
    let dag_build_ms = 1e3
        * median(
            &(0..15)
                .map(|_| timed(|| black_box(job.model().master_dag())).1)
                .collect::<Vec<_>>(),
        );
    let step_ns = (job_s * 1e9 / tiles).max(1.0) as u64;
    let (sched_ns_per_event, events_per_tile) = sched_rung(&dag, step_ns, tally);

    m.put("dp.seq_s", seq_s, "s");
    m.put("dp.tile_ns_per_cell", tile_ns_per_cell, "ns/cell");
    m.put("dp.seq_share", seq_s / job_s, "ratio");
    m.put("dp.codec_encode_mib_s", enc, "MiB/s");
    m.put("dp.codec_decode_mib_s", dec, "MiB/s");
    m.put("net.frame_seal_mib_s", seal, "MiB/s");
    m.put("net.frame_check_mib_s", check, "MiB/s");
    m.put("net.chan_rtt_us_p50", quantile(&chan, 0.5), "us");
    m.put("net.chan_rtt_us_p99", quantile(&chan, 0.99), "us");
    m.put("net.uds_rtt_us_p50", quantile(&uds, 0.5), "us");
    m.put("net.uds_rtt_us_p99", quantile(&uds, 0.99), "us");
    m.put("net.reli_uds_rtt_us_p50", quantile(&reli, 0.5), "us");
    m.put("core.dag_build_ms", dag_build_ms, "ms");
    m.put("core.sched_ns_per_event", sched_ns_per_event, "ns");
    m.put("core.sched_events_per_tile", events_per_tile, "events");
    m.put("obs.overhead_frac", median(&on) / job_s - 1.0, "ratio");
    m.put("runtime.checkpoint_us_per_tile", ckpt_us_per_tile, "us");
    eprintln!(
        "perfbench: dp.seq_share base: job_s_p50 {job_s:.4} s over {} untraced jobs; \
         obs.overhead_frac base: {} metrics-on jobs (budget 0.02: {})",
        off.len(),
        on.len(),
        if median(&on) / job_s - 1.0 <= 0.02 {
            "within"
        } else {
            "OVER"
        }
    );

    match &sample {
        Some(r) => {
            runtime_counters(&mut m, r, job.matrix_cells() as f64, tiles);
            let rtt_p50 = match link {
                Link::Channel => quantile(&chan, 0.5),
                Link::Uds => quantile(&uds, 0.5),
            };
            let sum = layer_sum(&LayerTerms {
                kernel_s,
                wire_bytes: (r.report.master.bytes_sent + r.report.master.bytes_recv) as f64,
                codec_mib_s: (enc, dec),
                frame_mib_s: (seal, check),
                msgs: (r.report.master.msgs_sent + r.report.master.msgs_recv) as f64,
                rtt_us: rtt_p50,
                events: events_per_tile * tiles,
                sched_ns_per_event,
            });
            m.put("runtime.layer_sum_s", sum, "s");
            m.put("runtime.unexplained_s", job_s - sum, "s");
            let predicted = sim_predict(ctx, job, r);
            m.put("sim.predicted_s", predicted, "s");
            m.put("sim.err_frac", (predicted - job_s).abs() / job_s, "ratio");
        }
        None => eprintln!("perfbench: no metrics-on job succeeded; runtime rungs missing"),
    }
    eprintln!("perfbench: ladder took {:.1} s", since(t0));
    m
}

/// Run one job and verify it; `None` (counted as a failure) on error.
pub fn verified<P: DpProblem<Cell = i32>>(
    runner: &mut Runner,
    job: &Job<P>,
    metrics: bool,
    want: u32,
    tally: &mut Tally,
) -> Option<JobRun> {
    match runner.run(job, metrics, None) {
        Ok(r) => {
            let ok = r.crc == want;
            tally.check_crc("job", r.crc, want);
            ok.then_some(r)
        }
        Err(e) => {
            tally.record("job", Err(e));
            None
        }
    }
}

/// Total `checkpoint_write_us` of one durably checkpointed job.
fn checkpointed<P: DpProblem<Cell = i32>>(
    ctx: &Ctx,
    runner: &mut Runner,
    job: &Job<P>,
    want: u32,
    tally: &mut Tally,
) -> f64 {
    match runner.run(job, true, Some(ctx.subdir("checkpoint"))) {
        Ok(r) => {
            tally.check_crc("checkpointed job", r.crc, want);
            r.registry
                .and_then(|reg| reg.snapshot().histogram("checkpoint_write_us"))
                .map_or(f64::NAN, |h| h.sum as f64)
        }
        Err(e) => {
            tally.record("checkpointed job", Err(e));
            f64::NAN
        }
    }
}

/// Solve the job sequentially tile by tile — master tiles in DAG order,
/// each split into its thread tiles exactly as a slave splits it — and
/// return the seconds spent inside `compute_region`. The result must
/// equal the reference.
fn tiled_solve<P: DpProblem<Cell = i32>>(
    job: &Job<P>,
    model: &DagDataDrivenModel,
    dag: &TaskDag,
    want: u32,
    tally: &mut Tally,
) -> f64 {
    let mut m = DpMatrix::new(job.problem.dims());
    let mut secs = 0.0;
    for v in dag.topological_order().expect("master DAG is acyclic") {
        let tile = dag.vertex(v).pos;
        let sub = model.slave_dag(tile);
        for s in sub.topological_order().expect("slave DAG is acyclic") {
            let region = model.sub_region(tile, sub.vertex(s).pos);
            let t = Instant::now();
            job.problem.compute_region(&mut m, region);
            secs += since(t);
        }
    }
    tally.check_crc("tiled sequential solve", matrix_crc(&m), want);
    secs
}

/// `DpMatrix::encode_region` / `decode_region` throughput over every
/// process tile of the job (the strip shapes ASSIGN and DONE carry).
fn codec_rates(reference: &DpMatrix<i32>, regions: &[TileRegion]) -> (f64, f64) {
    let enc = median_rate(5, Duration::from_millis(250), || {
        let (bytes, s) = timed(|| {
            regions
                .iter()
                .map(|r| black_box(reference.encode_region(*r)).len())
                .sum::<usize>()
        });
        (bytes as f64, s)
    });
    let encoded: Vec<Vec<u8>> = regions
        .iter()
        .map(|r| reference.encode_region(*r))
        .collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let mut scratch = DpMatrix::<i32>::new(reference.dims());
    let dec = median_rate(5, Duration::from_millis(250), || {
        let ((), s) = timed(|| {
            for (r, b) in regions.iter().zip(&encoded) {
                scratch.decode_region(*r, b);
            }
            black_box(&scratch);
        });
        (bytes as f64, s)
    });
    (enc / MIB, dec / MIB)
}

/// `frame::seal_data` / `frame::check` throughput on a DONE payload.
fn frame_rates(done: &Bytes, tally: &mut Tally) -> (f64, f64) {
    const BATCH: u64 = 64;
    let per_round = (BATCH as usize * done.len()) as f64;
    let seal = median_rate(5, Duration::from_millis(200), || {
        let ((), s) = timed(|| {
            for seq in 0..BATCH {
                black_box(frame::seal_data(seq, done));
            }
        });
        (per_round, s)
    });
    let sealed = frame::seal_data(7, done);
    tally.record(
        "frame check",
        match frame::check(&sealed) {
            Ok(frame::Frame::Data { seq: 7 }) => Ok(()),
            other => Err(format!("sealed DATA frame checked as {other:?}")),
        },
    );
    let check = median_rate(5, Duration::from_millis(200), || {
        let ((), s) = timed(|| {
            for _ in 0..BATCH {
                let _ = black_box(frame::check(black_box(&sealed)));
            }
        });
        (per_round, s)
    });
    (seal / MIB, check / MIB)
}

/// Run one round-trip rung, recording a failure instead of samples.
fn rtt_us(
    tally: &mut Tally,
    what: &str,
    rung: impl FnOnce() -> Result<Vec<f64>, String>,
) -> Vec<f64> {
    let out = rung();
    match out {
        Ok(v) => {
            tally.record(what, Ok(()));
            v
        }
        Err(e) => {
            tally.record(what, Err(e));
            Vec::new()
        }
    }
}

/// Echo every PING back to its sender until STOP.
fn echo(ep: &mut Endpoint) -> Result<(), String> {
    loop {
        let env = ep.recv().map_err(|e| e.to_string())?;
        if env.tag == STOP {
            return Ok(());
        }
        ep.send(env.src, env.tag, env.payload)
            .map_err(|e| e.to_string())?;
    }
}

/// Time `ROUND_TRIPS` ping-pongs of `payload` to rank 1, in µs.
fn ping(ep: &mut Endpoint, payload: &Bytes) -> Result<Vec<f64>, String> {
    let mut us = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS + 100 {
        let t = Instant::now();
        ep.send(Rank(1), PING, payload.clone())
            .map_err(|e| e.to_string())?;
        ep.recv().map_err(|e| e.to_string())?;
        if i >= 100 {
            us.push(since(t) * 1e6);
        }
    }
    ep.send(Rank(1), STOP, Bytes::new())
        .map_err(|e| e.to_string())?;
    Ok(us)
}

/// Raw `Endpoint` round trip over in-process channels.
fn channel_rtt(payload: &Bytes) -> Result<Vec<f64>, String> {
    let mut eps = Network::new(2);
    let mut b = eps.pop().expect("two ranks");
    let mut a = eps.pop().expect("two ranks");
    std::thread::scope(|s| {
        let echoer = s.spawn(move || echo(&mut b));
        let out = ping(&mut a, payload);
        echoer
            .join()
            .map_err(|_| "echo thread panicked".to_string())??;
        out
    })
}

/// `Endpoint` (or `ReliableEndpoint`) round trip over a Unix-domain
/// socket between two threads.
fn uds_rtt(ctx: &Ctx, payload: &Bytes, reliable: bool) -> Result<Vec<f64>, String> {
    let path = ctx.subdir("rtt").join("rtt.sock");
    let cfg = SocketConfig::default();
    let listener =
        SocketListener::bind(&NetAddr::Uds(path), cfg.clone()).map_err(|e| e.to_string())?;
    let addr = listener.local_addr();
    std::thread::scope(|s| {
        let echoer = s.spawn(move || -> Result<(), String> {
            let (ep, _) = connect(&addr, Some(1), cfg, None).map_err(|e| e.to_string())?;
            if reliable {
                reliable_echo(ReliableEndpoint::new(ep, RetryPolicy::default()))
            } else {
                let mut ep = ep;
                echo(&mut ep)
            }
        });
        let out = listener
            .accept_ranks(1, None)
            .map_err(|e| e.to_string())
            .and_then(|(mut ep, _)| {
                if reliable {
                    reliable_ping(ReliableEndpoint::new(ep, RetryPolicy::default()), payload)
                } else {
                    ping(&mut ep, payload)
                }
            });
        echoer
            .join()
            .map_err(|_| "echo thread panicked".to_string())??;
        out
    })
}

const RECV: Duration = Duration::from_secs(10);

fn reliable_echo(mut ep: ReliableEndpoint) -> Result<(), String> {
    loop {
        let env = ep.recv_timeout(RECV).map_err(|e| e.to_string())?;
        if env.tag == STOP {
            ep.drain_pending(Duration::from_secs(1));
            return Ok(());
        }
        ep.send_reliable(env.src, env.tag, env.payload)
            .map_err(|e| e.to_string())?;
    }
}

fn reliable_ping(mut ep: ReliableEndpoint, payload: &Bytes) -> Result<Vec<f64>, String> {
    let mut us = Vec::with_capacity(ROUND_TRIPS);
    for i in 0..ROUND_TRIPS + 100 {
        let t = Instant::now();
        ep.send_reliable(Rank(1), PING, payload.clone())
            .map_err(|e| e.to_string())?;
        ep.recv_timeout(RECV).map_err(|e| e.to_string())?;
        if i >= 100 {
            us.push(since(t) * 1e6);
        }
    }
    ep.send_reliable(Rank(1), STOP, Bytes::new())
        .map_err(|e| e.to_string())?;
    ep.drain_pending(Duration::from_secs(5));
    Ok(us)
}

/// Drive a fresh `MasterSched` fault-free over `dag` the way the master
/// loop does — per DONE: one `Heard` per slave, an `FtTick` whenever
/// `ft_poll` of virtual time passed, a `Tick`, the `Done` — with DONEs
/// arriving `step_ns` apart. Repeated for 200 ms; returns the median ns
/// per `on_event` call and the events per tile.
fn sched_rung(dag: &TaskDag, step_ns: u64, tally: &mut Tally) -> (f64, f64) {
    let params = SchedParams::default();
    let ft_ns = params.ft_poll.as_nanos() as u64;
    let mut per_event = Vec::new();
    let mut events_per_tile = f64::NAN;
    let t0 = Instant::now();
    while per_event.len() < 5 || t0.elapsed() < Duration::from_millis(200) {
        let mut s = MasterSched::new(dag, SLAVES, ScheduleMode::Dynamic, &params, None);
        let (mut events, mut secs) = (0u64, 0.0);
        let mut feed = |s: &mut MasterSched, ev: MasterEvent| {
            events += 1;
            let t = Instant::now();
            let out = s.on_event(dag, ev);
            secs += since(t);
            out
        };
        let mut inflight = VecDeque::new();
        let (mut now, mut last_ft) = (0u64, 0u64);
        let outcome = (|| -> Result<(), String> {
            for slave in 0..SLAVES {
                feed(&mut s, MasterEvent::Idle { slave }).map_err(|e| e.to_string())?;
            }
            loop {
                for slave in 0..SLAVES {
                    feed(&mut s, MasterEvent::Heard { slave, at_ns: now })
                        .map_err(|e| e.to_string())?;
                }
                if now - last_ft >= ft_ns {
                    last_ft = now;
                    feed(&mut s, MasterEvent::FtTick { now_ns: now }).map_err(|e| e.to_string())?;
                }
                for a in
                    feed(&mut s, MasterEvent::Tick { now_ns: now }).map_err(|e| e.to_string())?
                {
                    match a {
                        MasterAction::Assign { slave, task } => inflight.push_back((slave, task)),
                        MasterAction::Finished => return Ok(()),
                        other => return Err(format!("fault-free tick emitted {other:?}")),
                    }
                }
                let (slave, task) = inflight
                    .pop_front()
                    .ok_or("scheduler stalled with nothing in flight")?;
                for a in
                    feed(&mut s, MasterEvent::Done { slave, task }).map_err(|e| e.to_string())?
                {
                    if !matches!(a, MasterAction::Accept { .. }) {
                        return Err(format!("fault-free DONE emitted {a:?}"));
                    }
                }
                now += step_ns;
            }
        })();
        let complete = s.counters().completed == dag.len() as u64;
        if let Err(e) = outcome.and_then(|()| {
            complete
                .then_some(())
                .ok_or("not every tile accepted".into())
        }) {
            tally.record("scheduler replay", Err(e));
            return (f64::NAN, f64::NAN);
        }
        per_event.push(secs * 1e9 / events as f64);
        events_per_tile = events as f64 / dag.len() as f64;
    }
    tally.record("scheduler replay", Ok(()));
    (median(&per_event), events_per_tile)
}

/// Counters of one metrics-on job, per cell, tile and second.
fn runtime_counters(m: &mut Metrics, r: &JobRun, cells: f64, tiles: f64) {
    let ms = &r.report.master;
    let acks = r.registry.as_ref().map_or(f64::NAN, |reg| {
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.counter(&labeled(name, &[("role", "master")]))
                .unwrap_or(0)
        };
        (get("net_acks_sent") + get("net_acks_recv")) as f64
    });
    let wire = (ms.bytes_sent + ms.bytes_recv) as f64;
    m.put("runtime.wire_bytes_per_cell", wire / cells, "B/cell");
    m.put(
        "runtime.msgs_per_tile",
        (ms.msgs_sent + ms.msgs_recv) as f64 / tiles,
        "msgs",
    );
    m.put("runtime.acks_per_tile", acks / tiles, "msgs");
    m.put(
        "runtime.slave_busy_frac",
        r.report.total_busy_ns() as f64 / (r.secs * 1e9 * (SLAVES * THREADS) as f64),
        "ratio",
    );
    m.put(
        "runtime.dispatch_useful_frac",
        ms.completed as f64 / ms.dispatched as f64,
        "ratio",
    );
}

/// The measured rungs one job's time should add up to.
pub struct LayerTerms {
    /// Seconds inside `compute_region` for the whole job (tiled solve).
    pub kernel_s: f64,
    /// Bytes the master sent plus received.
    pub wire_bytes: f64,
    /// Cell codec encode / decode rates, MiB/s.
    pub codec_mib_s: (f64, f64),
    /// Frame seal / check rates, MiB/s.
    pub frame_mib_s: (f64, f64),
    /// Messages the master sent plus received.
    pub msgs: f64,
    /// Round trip of the workload's link at DONE size, µs.
    pub rtt_us: f64,
    /// Master-scheduler events per job.
    pub events: f64,
    /// Nanoseconds per scheduler event.
    pub sched_ns_per_event: f64,
}

/// `layer_sum_s = kernel_s / (slaves * threads)
///              + wire_bytes * (1/enc + 1/dec + 1/seal + 1/check)
///              + msgs * rtt / 2
///              + events * sched_ns_per_event`
///
/// Every wire byte is charged one encode, one decode, one seal and one
/// check; every message half a round trip. The remainder
/// `job_s_p50 - layer_sum_s` is what no measured rung explains.
pub fn layer_sum(t: &LayerTerms) -> f64 {
    let mib = t.wire_bytes / MIB;
    let terms = [
        (
            "kernel / compute threads",
            t.kernel_s / (SLAVES * THREADS) as f64,
        ),
        ("cell codec", mib / t.codec_mib_s.0 + mib / t.codec_mib_s.1),
        ("crc frames", mib / t.frame_mib_s.0 + mib / t.frame_mib_s.1),
        ("link (msgs x rtt/2)", t.msgs * t.rtt_us * 0.5e-6),
        ("master scheduler", t.events * t.sched_ns_per_event * 1e-9),
    ];
    eprintln!("perfbench: layer sum = kernel/threads + wire*(1/enc+1/dec+1/seal+1/check) + msgs*rtt/2 + events*ns_per_event");
    for (name, s) in &terms {
        eprintln!("perfbench:   {name:<26} {s:>10.6} s");
    }
    terms.iter().map(|(_, s)| s).sum()
}

/// Price the job's exact configuration with `easyhps-sim` under the
/// autotuner's cost model, calibrated from the run's own metrics the way
/// `EasyHps::autotune` calibrates it; returns predicted seconds.
fn sim_predict<P: DpProblem<Cell = i32>>(ctx: &Ctx, job: &Job<P>, r: &JobRun) -> f64 {
    let Some(reg) = &r.registry else {
        return f64::NAN;
    };
    let class = ProblemClass::of(job.problem.as_ref(), SLAVES, THREADS);
    let mut tuner = Autotuner::load(ctx.work.join("autotune.table"));
    tuner.calibrate(&class, job.spec.pp, &reg.snapshot());
    let n = class.dims.rows.max(class.dims.cols);
    let (pp, tp) = (job.spec.pp.rows, job.spec.tp.rows);
    let wl = match class.profile {
        TuneProfile::Uniform => SimWorkload::wavefront(n - 1, pp, tp),
        TuneProfile::RowCol => SimWorkload::swgg(n - 1, pp, tp),
        TuneProfile::Triangular => SimWorkload::nussinov(n, pp, tp),
    };
    let cfg = SimConfig {
        cost: tuner.table().cost,
        ..SimConfig::uniform(SLAVES, THREADS)
    };
    simulate(&wl, &cfg).makespan_ns as f64 / 1e9
}
