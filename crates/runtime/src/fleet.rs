//! The slave fleet: the one place a master gathers its slaves and runs.
//!
//! A [`Fleet`] owns the root endpoint of a set of rank-assigned slaves
//! and the [`FleetControl`] every job's master shares. Each way of
//! running a master goes through it:
//!
//! - [`EasyHps::run`](crate::EasyHps::run) spawns one-shot slave threads,
//!   wraps its channel network (or [`Fleet::accept`]s its socket slaves)
//!   and runs a single job;
//! - `easyhps master` [`Fleet::accept`]s remote slaves, ships them one
//!   [`JobSpec`] with [`Fleet::run_job`] and shuts the fleet down;
//! - the serve daemon keeps a [`Fleet::local`] or
//!   [`Fleet::accept_elastic`] fleet and calls [`Fleet::run_job`] for
//!   every job.
//!
//! Every job runs on a per-job [`Endpoint::fork`] of the root endpoint
//! carrying the fleet's master fault plan, so dropping the job's endpoint
//! leaves the connections open (a socket writer thread exits only when
//! the last `TxLink` clone is gone). After the master loop returns, the
//! job's share of each socket link's counters is published into the
//! job's registry.
//!
//! Membership is decided here and nowhere else: [`Fleet::accept`] is
//! elastic — reconnection, mid-run join, drain — iff the listener's
//! [`SocketConfig::reconnect_window`](easyhps_net::SocketConfig::reconnect_window)
//! is set, and fixed (links fail for good on the first error) otherwise;
//! [`Fleet::accept_elastic`] is always elastic.
//!
//! [`Fleet::run_job`] slaves run the matching loop
//! ([`serve_slave_jobs`](crate::remote::serve_slave_jobs)): wait for a
//! [`tags::JOB`] frame, run the ordinary slave loop on a fork of their
//! connection, repeat until [`tags::SHUTDOWN`] arrives or the master
//! disappears. [`Fleet::local`] runs the same loop on threads over
//! channel links — the serve daemon's default fleet.
//!
//! Fault injection composes with one-shot runs only: a fault plan
//! replays from its first clause on every forked endpoint, and a job
//! that dies mid-run can leave slaves executing stale work, so a fleet
//! that will run more than one job must not inject faults.

use crate::checkpoint::Checkpoint;
use crate::config::{Deployment, ObsConfig, RunReport};
use crate::durable::CheckpointPolicy;
use crate::master::{run_master_fleet, FleetControl};
use crate::protocol::tags;
use crate::remote::{
    slave_job_loop, with_problem, JobSpec, RemoteOutput, RemoteProblem, SlaveServeSummary,
};
use crate::{RunOutput, RuntimeError};
use easyhps_core::DagDataDrivenModel;
use easyhps_dp::{
    DpProblem, EditDistance, Lcs, NeedlemanWunsch, Nussinov, SmithWatermanGeneralGap,
};
use easyhps_net::socket::{LinkSnapshot, SocketInfo, SocketListener};
use easyhps_net::{frame, Endpoint, FaultPlan, FleetAcceptor, Network, Rank};
use easyhps_obs::{labeled, Registry};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-job knobs for [`Fleet::run_job`].
#[derive(Debug, Default)]
pub struct JobOptions {
    /// Observability wiring for this job (a daemon hands each job its
    /// own registry and republishes it with `job=`/`tenant=` labels).
    pub obs: ObsConfig,
    /// Durable checkpoint policy for this job.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Resume from a previously captured checkpoint.
    pub resume: Option<Checkpoint>,
    /// Stop after this many tile completions and return a checkpoint.
    pub tile_budget: Option<u64>,
}

enum FleetSlaves {
    /// Remote slaves over sockets: every link the fleet has held, and
    /// the counters of each already published into job registries.
    Remote {
        info: SocketInfo,
        published: Vec<LinkSnapshot>,
    },
    /// In-process slave threads over channel links (none when a one-shot
    /// run owns its slave threads itself).
    Local(Vec<JoinHandle<Result<SlaveServeSummary, RuntimeError>>>),
}

/// A set of connected, rank-assigned slaves that stays usable across
/// jobs. Create with [`Fleet::accept`] (sockets), [`Fleet::accept_elastic`]
/// (sockets, always elastic) or [`Fleet::local`] (threads), run any
/// number of jobs, then [`Fleet::shutdown`].
pub struct Fleet {
    root: Endpoint,
    n_slaves: usize,
    fault: Option<FaultPlan>,
    slaves: FleetSlaves,
    /// Shared with every job's master: drain requests flow in, released
    /// ranks flow out, and the elastic acceptor (if any) rides along.
    control: FleetControl,
    /// Ranks no longer part of a *fixed-membership* fleet (drained and
    /// released, or found dead between jobs); indexed by rank, 0 unused.
    /// Elastic fleets derive membership from the acceptor instead — a
    /// released rank there may be re-issued to the next joiner.
    retired: Vec<bool>,
}

impl Fleet {
    fn new(
        root: Endpoint,
        n_slaves: usize,
        fault: Option<FaultPlan>,
        slaves: FleetSlaves,
        acceptor: Option<FleetAcceptor>,
    ) -> Fleet {
        Fleet {
            root,
            n_slaves,
            fault,
            slaves,
            control: FleetControl::new(acceptor.map(Arc::new)),
            retired: vec![false; n_slaves + 1],
        }
    }

    /// Accept `n_slaves` socket connections on an already-bound listener
    /// and perform the rank handshake. Membership is elastic (see
    /// [`Fleet::accept_elastic`]) iff the listener's reconnect window is
    /// set. `fault` configures the master's fault injection for drills —
    /// see the module docs for why a faulty fleet must stay single-job.
    pub fn accept(
        listener: SocketListener,
        n_slaves: usize,
        fault: Option<FaultPlan>,
    ) -> Result<Fleet, RuntimeError> {
        let elastic = listener.config().reconnect_window.is_some();
        Fleet::accept_with(listener, n_slaves, fault, elastic)
    }

    /// [`Fleet::accept`] with *elastic* membership whatever the listener's
    /// config: the listener stays open in a background acceptor that
    /// splices reconnecting slaves, fences new incarnations under a bumped
    /// fleet epoch, and admits brand-new slaves mid-run (shipping them the
    /// current job). Set
    /// [`SocketConfig::reconnect_window`](easyhps_net::SocketConfig::reconnect_window)
    /// on the listener (and the slaves) to let severed links heal by
    /// redial.
    pub fn accept_elastic(
        listener: SocketListener,
        n_slaves: usize,
    ) -> Result<Fleet, RuntimeError> {
        Fleet::accept_with(listener, n_slaves, None, true)
    }

    fn accept_with(
        listener: SocketListener,
        n_slaves: usize,
        fault: Option<FaultPlan>,
        elastic: bool,
    ) -> Result<Fleet, RuntimeError> {
        if n_slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        let accepted = if elastic {
            listener
                .accept_fleet(n_slaves, None)
                .map(|(root, info, acc)| (root, info, Some(acc)))
        } else {
            listener
                .accept_ranks(n_slaves, None)
                .map(|(root, info)| (root, info, None))
        };
        let (root, info, acceptor) =
            accepted.map_err(|e| RuntimeError::InvalidConfig(format!("accepting slaves: {e}")))?;
        let published = vec![LinkSnapshot::default(); info.links.len()];
        let slaves = FleetSlaves::Remote { info, published };
        Ok(Fleet::new(root, n_slaves, fault, slaves, acceptor))
    }

    /// An in-process fleet: `n_slaves` threads running the multi-job
    /// slave loop over channel links. `threads` overrides each job's
    /// `threads_per_slave` when set.
    pub fn local(n_slaves: usize, threads: Option<usize>) -> Result<Fleet, RuntimeError> {
        if n_slaves == 0 {
            return Err(RuntimeError::NoSlaves);
        }
        let mut eps = Network::new(n_slaves + 1);
        let root = eps.remove(0);
        let handles = eps
            .into_iter()
            .enumerate()
            .map(|(i, ep)| {
                std::thread::Builder::new()
                    .name(format!("fleet-slave-{}", i + 1))
                    .spawn(move || slave_job_loop(ep, threads, None))
                    .expect("spawn fleet slave")
            })
            .collect();
        Ok(Fleet::new(
            root,
            n_slaves,
            None,
            FleetSlaves::Local(handles),
            None,
        ))
    }

    /// A fixed fleet over rank 0 of a channel network whose slave ranks
    /// the caller drives itself (one-shot runs and tests).
    pub(crate) fn over_channels(
        root: Endpoint,
        n_slaves: usize,
        fault: Option<FaultPlan>,
    ) -> Fleet {
        Fleet::new(root, n_slaves, fault, FleetSlaves::Local(Vec::new()), None)
    }

    /// Number of slave slots in the fleet (the high-water rank; retired
    /// or currently-dark slots included).
    pub fn n_slaves(&self) -> usize {
        self.n_slaves
    }

    /// The control surface shared with every job's master. Clone it to
    /// feed drain requests in from another thread (the serve daemon's
    /// RPC handler does).
    pub fn control(&self) -> &FleetControl {
        &self.control
    }

    /// The elastic acceptor, when this fleet was created with
    /// [`Fleet::accept_elastic`].
    pub fn acceptor(&self) -> Option<&Arc<FleetAcceptor>> {
        self.control.acceptor.as_ref()
    }

    /// Ask the running (or next) job's master to gracefully drain
    /// `rank`: stop assigning it work, let its in-flight sub-tasks land,
    /// then release the rank back to the fleet.
    pub fn drain(&self, rank: u32) {
        self.control.request_drain(rank);
    }

    /// Fold membership changes into the fleet's own bookkeeping at a job
    /// boundary: retire ranks the previous job's master released, grow
    /// the slot count to cover mid-run joiners, and re-request drains
    /// for ranks that must stay out of the next job's schedule (each
    /// job's scheduler starts fresh, so a released slot must be drained
    /// again — the request releases an idle slot instantly).
    fn sync_membership(&mut self) {
        for rank in std::mem::take(&mut *self.control.released.lock().unwrap()) {
            if let Some(f) = self.retired.get_mut(rank as usize) {
                *f = true;
            }
        }
        if let Some(acc) = &self.control.acceptor {
            self.n_slaves = self.n_slaves.max(acc.n_ranks().saturating_sub(1));
            for r in 1..=self.n_slaves as u32 {
                // Slot empty in the acceptor: released and not re-issued.
                if acc.link_stats(r).is_none() {
                    self.control.request_drain(r);
                }
            }
        } else {
            for r in 1..=self.n_slaves {
                if self.retired[r] {
                    self.control.request_drain(r as u32);
                }
            }
        }
        if self.retired.len() < self.n_slaves + 1 {
            self.retired.resize(self.n_slaves + 1, false);
        }
    }

    /// The ranks the next job should treat as members: currently-linked
    /// ranks for an elastic fleet (a dark rank may relink mid-job and is
    /// left to the heartbeat deadline), non-retired ranks otherwise.
    fn expected_ranks(&self) -> Vec<u32> {
        match &self.control.acceptor {
            Some(acc) => acc.live_ranks(),
            None => (1..=self.n_slaves as u32)
                .filter(|r| !self.retired[*r as usize])
                .collect(),
        }
    }

    /// Lifetime counters of every socket link the fleet has held, as of
    /// the last finished job (links admitted mid-run included); `None`
    /// for an in-process fleet.
    pub fn socket_info(&self) -> Option<&SocketInfo> {
        match &self.slaves {
            FleetSlaves::Remote { info, .. } => Some(info),
            FleetSlaves::Local(_) => None,
        }
    }

    /// Job-boundary barrier: consume one READY per slave before the
    /// next JOB ships. A slave announces READY when it enters its idle
    /// loop (on connect and after each finished job); until then its
    /// previous job's reliable teardown may still be lingering, and the
    /// linger ACKs-and-discards unexpected frames — a JOB sent early
    /// would be silently lost. Stray heartbeats and late ACKs queued
    /// between jobs are discarded along the way.
    fn await_ready(&mut self) -> Result<Vec<u32>, RuntimeError> {
        const READY_TIMEOUT: Duration = Duration::from_secs(60);
        const PROBE_EVERY: Duration = Duration::from_millis(200);
        let deadline = Instant::now() + READY_TIMEOUT;
        let mut pending: BTreeSet<u32> = self.expected_ranks().into_iter().collect();
        let mut ready: Vec<u32> = Vec::new();
        let mut last_probe = Instant::now();
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RuntimeError::InvalidConfig(format!(
                    "timed out waiting for {} slave(s) to finish their previous job",
                    pending.len()
                )));
            }
            match self.root.recv_timeout(left.min(Duration::from_millis(50))) {
                Ok(env) if env.tag == tags::READY => {
                    let r = env.src.0;
                    if pending.remove(&r) {
                        ready.push(r);
                    }
                }
                Ok(_) => {} // stray heartbeat / late ACK between jobs
                Err(easyhps_net::NetError::Timeout) => {}
                Err(e) => return Err(e.into()),
            }
            // A slave that died between jobs is a *membership change*,
            // not a reason to burn the whole readiness deadline: probe
            // the silent ranks and retire any whose link is already
            // gone. (An elastic fleet's links queue across outages
            // instead of failing; there the reconnect window and the
            // in-job heartbeat deadline govern.)
            if last_probe.elapsed() >= PROBE_EVERY && !pending.is_empty() {
                last_probe = Instant::now();
                let probe = frame::seal_raw(&[]);
                let root = &mut self.root;
                let retired = &mut self.retired;
                pending.retain(|r| {
                    if root.send(Rank(*r), tags::HEARTBEAT, probe.clone()).is_err() {
                        if let Some(f) = retired.get_mut(*r as usize) {
                            *f = true;
                        }
                        false
                    } else {
                        true
                    }
                });
            }
        }
        Ok(ready)
    }

    /// Ship `spec` to every slave and run the master loop over a per-job
    /// fork of the fleet's endpoint. The connections stay open when the
    /// job finishes, ready for the next call.
    pub fn run_job(
        &mut self,
        spec: &JobSpec,
        opts: JobOptions,
    ) -> Result<RemoteOutput, RuntimeError> {
        self.sync_membership();
        let ready = self.await_ready()?;
        if ready.is_empty() {
            return Err(RuntimeError::NoSlaves);
        }
        let payload = frame::seal_raw(&spec.encode());
        // Mid-run joiners (and re-incarnated slaves) must learn the job
        // too: the acceptor ships this to everyone it admits from now on.
        if let Some(acc) = &self.control.acceptor {
            acc.set_join_payload(tags::JOB.0, payload.to_vec());
        }
        for r in &ready {
            // A link that died since the readiness barrier fails here;
            // the master's send-failure path excludes the slot.
            let _ = self.root.send(Rank(*r), tags::JOB, payload.clone());
        }
        let mut deployment = spec.deployment(self.n_slaves, None);
        deployment.obs = opts.obs;
        deployment.checkpoint = opts.checkpoint;
        let model = spec.model();
        let out = with_problem!(&spec.problem, p => {
            self.run(&p, &model, &deployment, opts.resume.as_ref(), opts.tile_budget)
        });
        // Clear before propagating any error: a stale payload would ship
        // yesterday's job to tomorrow's joiners.
        if let Some(acc) = &self.control.acceptor {
            acc.clear_join_payload();
        }
        let out = out?;
        Ok(RemoteOutput {
            matrix: out.matrix,
            report: out.report,
            checkpoint: out.checkpoint,
            socket: self.socket_info().cloned(),
        })
    }

    /// Run one job's master loop, its slaves already running the job:
    /// fork the root endpoint with the fleet's master fault plan, drive
    /// the loop with the fleet's control, publish the job's share of the
    /// socket counters into its registry, and build the run report.
    pub(crate) fn run<P: DpProblem>(
        &mut self,
        problem: &P,
        model: &DagDataDrivenModel,
        deployment: &Deployment,
        resume: Option<&Checkpoint>,
        tile_budget: Option<u64>,
    ) -> Result<RunOutput<P::Cell>, RuntimeError> {
        let ep = self.root.fork(self.fault.clone());
        let out = run_master_fleet(
            ep,
            problem,
            model,
            deployment,
            resume,
            tile_budget,
            Some(&self.control),
        )?;
        self.publish_socket_stats(deployment.obs.metrics.as_deref());
        Ok(RunOutput {
            matrix: out.matrix,
            report: RunReport {
                elapsed: out.elapsed,
                master: out.stats,
                slaves: out.slave_stats,
                trace: out.trace,
            },
            checkpoint: out.checkpoint,
            metrics: deployment.obs.metrics.clone(),
        })
    }

    /// Add the links the acceptor admitted since the last job to the
    /// fleet's link table, then export each link's counters accrued since
    /// the last job into `reg`, one series set per link. Per-job deltas
    /// keep a registry shared by several jobs — or one registry per job —
    /// from counting a frame twice.
    fn publish_socket_stats(&mut self, reg: Option<&Registry>) {
        let FleetSlaves::Remote { info, published } = &mut self.slaves else {
            return;
        };
        if let Some(acc) = &self.control.acceptor {
            for r in 1..acc.n_ranks() as u32 {
                let Some(stats) = acc.link_stats(r) else {
                    continue;
                };
                if !info.links.iter().any(|(_, s)| Arc::ptr_eq(s, &stats)) {
                    info.links.push((Rank(r), stats));
                    published.push(LinkSnapshot::default());
                }
            }
            info.n_ranks = info.n_ranks.max(acc.n_ranks());
        }
        for ((rank, stats), last) in info.links.iter().zip(published.iter_mut()) {
            let now = stats.snapshot();
            if let Some(reg) = reg {
                let peer = rank.0.to_string();
                let l = |name: &str| labeled(name, &[("link", &peer)]);
                reg.gauge(&l("socket_bytes_queued"))
                    .set(now.bytes_queued as i64);
                for (name, total, seen) in [
                    ("socket_frames_sent", now.frames_sent, last.frames_sent),
                    ("socket_bytes_sent", now.bytes_sent, last.bytes_sent),
                    ("socket_frames_recv", now.frames_recv, last.frames_recv),
                    ("socket_bytes_recv", now.bytes_recv, last.bytes_recv),
                    (
                        "socket_frames_rejected",
                        now.frames_rejected,
                        last.frames_rejected,
                    ),
                    ("socket_reconnects", now.reconnects, last.reconnects),
                    ("socket_disconnects", now.disconnects, last.disconnects),
                ] {
                    reg.counter(&l(name)).add(total - seen);
                }
            }
            *last = now;
        }
    }

    /// Send SHUTDOWN to every slave and tear the fleet down. Local slave
    /// threads are joined and their per-slave service summaries
    /// returned; remote slaves exit their own processes' loops.
    pub fn shutdown(self) -> Vec<SlaveServeSummary> {
        let Fleet {
            mut root,
            slaves,
            n_slaves,
            control,
            ..
        } = self;
        let bye = frame::seal_raw(&[]);
        for r in 1..=n_slaves as u32 {
            let _ = root.send(Rank(r), tags::SHUTDOWN, bye.clone());
        }
        // Drop the root *before* joining: a slave that was still mid-
        // teardown when SHUTDOWN flew past it (discarded by its linger)
        // only notices the fleet is gone when its next READY/heartbeat
        // send fails — which requires the master side of the links to
        // actually close. Socket writers flush queued frames (the
        // SHUTDOWN) before closing.
        drop(root);
        // The elastic acceptor holds a clone of the link table: it must
        // go too (stopping the accept thread and closing Await-mode
        // conns) or the socket writers would never exit.
        drop(control);
        match slaves {
            FleetSlaves::Remote { .. } => Vec::new(),
            FleetSlaves::Local(handles) => handles
                .into_iter()
                .filter_map(|h| h.join().ok().and_then(|r| r.ok()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AssignMsg, DoneMsg, SlaveStatsMsg};
    use bytes::Bytes;
    use easyhps_core::GridDims;
    use easyhps_dp::sequence::{random_sequence, Alphabet};
    use easyhps_dp::DpMatrix;
    use easyhps_net::{NetError, ReliableEndpoint, RetryPolicy};

    fn editdist_spec(a: &[u8], b: &[u8]) -> JobSpec {
        JobSpec::new(
            RemoteProblem::EditDistance {
                a: a.to_vec(),
                b: b.to_vec(),
            },
            GridDims::new(8, 8),
            GridDims::new(4, 4),
        )
    }

    fn job_metrics(reg: &Arc<Registry>) -> JobOptions {
        JobOptions {
            obs: ObsConfig {
                metrics: Some(reg.clone()),
                recorder: None,
            },
            ..JobOptions::default()
        }
    }

    fn frames_sent(reg: &Registry, link: u32) -> u64 {
        let name = labeled("socket_frames_sent", &[("link", &link.to_string())]);
        reg.snapshot().counter(&name).unwrap_or(0)
    }

    /// One fleet runs two different jobs
    /// back to back over the same links, both bit-identical to their
    /// sequential references.
    #[test]
    fn local_fleet_reuses_slaves_across_jobs() {
        let mut fleet = Fleet::local(2, None).unwrap();
        let specs = [
            editdist_spec(b"kitten sat on the mat", b"sitting on the hat"),
            editdist_spec(b"abcdefghij", b"jihgfedcba"),
        ];
        for spec in &specs {
            let out = fleet.run_job(spec, JobOptions::default()).unwrap();
            let reference = spec.problem.solve_sequential();
            let d = reference.dims();
            assert_eq!(
                out.matrix.get(d.rows - 1, d.cols - 1),
                reference.get(d.rows - 1, d.cols - 1)
            );
        }
        let summaries = fleet.shutdown();
        assert_eq!(summaries.len(), 2);
        assert_eq!(
            summaries.iter().map(|s| s.jobs).sum::<u64>(),
            4,
            "each slave served both jobs"
        );
    }

    /// Regression: a slave that dies *between* jobs is a membership
    /// change, not a 60-second readiness stall. The barrier probes the
    /// silent rank, finds the link gone, retires it, and the next job
    /// completes promptly on the survivor.
    #[test]
    fn slave_death_between_jobs_is_a_membership_change() {
        let mut eps = Network::new(3);
        let root = eps.remove(0);
        let mut kills = Vec::new();
        let handles = eps
            .into_iter()
            .map(|ep| {
                kills.push(ep.kill_handle());
                std::thread::spawn(move || slave_job_loop(ep, None, None))
            })
            .collect();
        let mut fleet = Fleet::new(root, 2, None, FleetSlaves::Local(handles), None);

        let spec = editdist_spec(b"a job for two slaves", b"before one dies");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        assert_eq!(out.report.master.dead_slaves, 0);

        // Kill slave 2 between jobs: its loop observes the kill within
        // one liveness slice, exits, and drops its endpoint.
        kills[1].kill();
        std::thread::sleep(Duration::from_millis(50));

        let t = Instant::now();
        let spec = editdist_spec(b"the survivor finishes", b"this one alone");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        let reference = spec.problem.solve_sequential();
        let d = reference.dims();
        assert_eq!(
            out.matrix.get(d.rows - 1, d.cols - 1),
            reference.get(d.rows - 1, d.cols - 1)
        );
        assert!(
            t.elapsed() < Duration::from_secs(30),
            "readiness barrier burned the deadline on a dead slave: {:?}",
            t.elapsed()
        );
        assert!(fleet.retired[2], "dead rank must be retired");
        fleet.shutdown();
    }

    /// Elastic fleet over TCP: a second slave joins *between* jobs and
    /// serves the next one; draining it afterwards releases its rank and
    /// the remaining jobs still complete.
    #[test]
    fn elastic_fleet_admits_joiner_and_drains_it() {
        use crate::remote::{serve_slave_jobs, RemoteSlaveOptions};
        use easyhps_net::socket::SocketConfig;
        use easyhps_net::NetAddr;

        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let first = {
            let mut o = RemoteSlaveOptions::new(addr.clone());
            o.want_rank = Some(1);
            std::thread::spawn(move || serve_slave_jobs(o))
        };
        let mut fleet = Fleet::accept_elastic(listener, 1).unwrap();

        let spec = editdist_spec(b"one slave to begin with", b"the fleet grows later");
        fleet.run_job(&spec, JobOptions::default()).unwrap();

        // A new slave walks up between jobs (wildcard rank: the acceptor
        // assigns the next free one).
        let second = {
            let o = RemoteSlaveOptions::new(addr);
            std::thread::spawn(move || serve_slave_jobs(o))
        };
        // Wait for admission so the next barrier counts it.
        let acc = fleet.acceptor().unwrap().clone();
        let t = Instant::now();
        while acc.live_ranks().len() < 2 && t.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(acc.live_ranks().len(), 2, "joiner not admitted");

        let spec = editdist_spec(b"now two slaves share it", b"the job after the join");
        let reg = Arc::new(Registry::new());
        let out = fleet.run_job(&spec, job_metrics(&reg)).unwrap();
        assert_eq!(fleet.n_slaves(), 2);
        // The joiner's link is published even though it is not one of
        // the links the fleet was accepted with.
        assert!(
            frames_sent(&reg, 2) > 0,
            "the joiner's link must be published: {}",
            reg.snapshot().render_text()
        );
        let reference = spec.problem.solve_sequential();
        let d = reference.dims();
        assert_eq!(
            out.matrix.get(d.rows - 1, d.cols - 1),
            reference.get(d.rows - 1, d.cols - 1)
        );

        // Drain rank 2: the request is consumed by the next job's
        // master, which releases the idle rank at once and computes the
        // whole job on rank 1.
        fleet.drain(2);
        let spec = editdist_spec(b"drained back down to one", b"the last job of the test");
        let out = fleet.run_job(&spec, JobOptions::default()).unwrap();
        let reference = spec.problem.solve_sequential();
        let d = reference.dims();
        assert_eq!(
            out.matrix.get(d.rows - 1, d.cols - 1),
            reference.get(d.rows - 1, d.cols - 1)
        );
        assert!(
            !acc.live_ranks().contains(&2),
            "drained rank must be released: {:?}",
            acc.live_ranks()
        );

        fleet.shutdown();
        first.join().unwrap().unwrap();
        // The drained slave's loop exits once its link closes — possibly
        // with a net error if release caught it mid-recv, which is fine.
        let _ = second.join().unwrap();
    }

    /// Same over real TCP: the socket connections survive the first job.
    #[test]
    fn tcp_fleet_reuses_connections_across_jobs() {
        use crate::remote::{serve_slave_jobs, RemoteSlaveOptions};
        use easyhps_net::socket::SocketConfig;
        use easyhps_net::NetAddr;

        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let slaves: Vec<_> = (1..=2u32)
            .map(|r| {
                let mut o = RemoteSlaveOptions::new(addr.clone());
                o.want_rank = Some(r);
                std::thread::spawn(move || serve_slave_jobs(o))
            })
            .collect();
        let mut fleet = Fleet::accept(listener, 2, None).unwrap();
        let mut regs = Vec::new();
        for text in ["the first job of the fleet", "and a different second one"] {
            let spec = editdist_spec(text.as_bytes(), b"a shared reference string");
            let reg = Arc::new(Registry::new());
            let out = fleet.run_job(&spec, job_metrics(&reg)).unwrap();
            let reference = spec.problem.solve_sequential();
            let d = reference.dims();
            assert_eq!(
                out.matrix.get(d.rows - 1, d.cols - 1),
                reference.get(d.rows - 1, d.cols - 1)
            );
            let m = &out.report.master;
            assert_eq!(m.completed, m.dispatched + m.resumed - m.redispatched);
            regs.push(reg);
        }
        // Each job's registry holds that job's frames only: together they
        // cannot exceed what the link has carried in its lifetime.
        let lifetime = fleet
            .socket_info()
            .and_then(|info| info.link(Rank(1)))
            .unwrap()
            .snapshot()
            .frames_sent;
        let (first, second) = (frames_sent(&regs[0], 1), frames_sent(&regs[1], 1));
        assert!(first > 0 && second > 0, "both jobs used link 1");
        assert!(
            first + second <= lifetime,
            "job 2 counted job 1's frames again: {first} + {second} > {lifetime}"
        );
        fleet.shutdown();
        for s in slaves {
            let summary = s.join().unwrap().unwrap();
            assert_eq!(summary.jobs, 2, "slave must have served both jobs");
        }
    }

    #[test]
    fn budget_stop_drains_in_flight_completions_into_the_checkpoint() {
        // Two slaves each take one of Nussinov's initially computable
        // diagonal tiles; the budget is 1. The first DONE reaches the budget;
        // the second arrives during teardown and must land in the matrix and
        // checkpoint instead of being discarded (pre-fix: finished_len == 1
        // and the tile is recomputed on resume).
        let problem = Nussinov::new(random_sequence(Alphabet::Rna, 40, 150));
        let model = DagDataDrivenModel::builder(problem.pattern())
            .process_partition_size(GridDims::square(10))
            .thread_partition_size(GridDims::square(4))
            .build();
        let dims = model.dag_size();
        let config = Deployment::local(2, 1);

        let mut eps = Network::new(3);
        let ep_b = eps.pop().unwrap();
        let ep_a = eps.pop().unwrap();
        let master_ep = eps.pop().unwrap();

        let mut rep_a = ReliableEndpoint::new(ep_a, RetryPolicy::default());
        let mut rep_b = ReliableEndpoint::new(ep_b, RetryPolicy::default());
        // Both IDLEs are queued before the master starts, so both slaves get
        // an assignment before the first completion can reach the budget.
        rep_a
            .send_reliable(Rank(0), tags::IDLE, Bytes::new())
            .unwrap();
        rep_b
            .send_reliable(Rank(0), tags::IDLE, Bytes::new())
            .unwrap();

        let serve = move |mut rep: ReliableEndpoint| {
            let zeros = DpMatrix::<i32>::new(dims);
            loop {
                match rep.recv_timeout(Duration::from_millis(20)) {
                    Ok(env) if env.tag == tags::ASSIGN => {
                        let msg = AssignMsg::decode(&env.payload).unwrap();
                        let done = DoneMsg {
                            task: msg.task,
                            epoch: msg.epoch,
                            region: msg.region,
                            output: zeros.encode_region(msg.region),
                        };
                        rep.send_reliable(Rank(0), tags::DONE, done.encode())
                            .unwrap();
                    }
                    Ok(env) if env.tag == tags::END => {
                        rep.send_reliable(Rank(0), tags::STATS, SlaveStatsMsg::default().encode())
                            .unwrap();
                        rep.drain_pending(Duration::from_secs(1));
                        return;
                    }
                    Ok(_) | Err(NetError::Timeout) => {}
                    Err(_) => return,
                }
            }
        };

        let out = std::thread::scope(|s| {
            s.spawn(move || serve(rep_a));
            s.spawn(move || serve(rep_b));
            let mut fleet = Fleet::over_channels(master_ep, 2, None);
            fleet.run(&problem, &model, &config, None, Some(1)).unwrap()
        });

        assert_eq!(
            out.report.master.dispatched, 2,
            "both diagonal tiles dispatched before the budget hit; none after"
        );
        assert_eq!(
            out.report.master.completed, 2,
            "the in-flight completion was accepted during teardown"
        );
        let cp = out.checkpoint.expect("budget stop yields a checkpoint");
        assert_eq!(
            cp.finished_len(),
            2,
            "teardown-drained DONE is in the checkpoint, not recomputed later"
        );
    }
}
