//! Socket transport: master and slaves as separate OS processes.
//!
//! Replaces the in-process crossbeam links with real TCP or Unix-domain
//! connections while keeping the [`Endpoint`](crate::Endpoint) API,
//! fault injection and statistics identical — `ReliableEndpoint` and the
//! CRC frame layer run on top unchanged.
//!
//! ## Topology
//!
//! The runtime is a star: every message flows master (rank 0) ↔ slave.
//! The master listens, accepts one connection per slave and assigns
//! ranks; each slave holds exactly one connection (to the master) and
//! [`TxLink::Unrouted`](crate::transport::TxLink) stubs for its siblings.
//!
//! ## Wire format
//!
//! Every message is one length-prefixed frame:
//!
//! ```text
//! [len u32 LE] [src u32 LE] [dst u32 LE] [tag u32 LE] [payload …]
//! ```
//!
//! `len` counts everything after itself (12-byte header + payload) and
//! is bounded by [`SocketConfig::max_frame`]; an out-of-range length
//! desynchronises the stream and is treated as a fatal connection error.
//! Payload integrity is *not* this layer's job — the sealed CRC-32C
//! frames from [`crate::frame`] ride inside the payload exactly as they
//! do in-process.
//!
//! ## Backpressure
//!
//! Each connection owns a bounded outbound queue drained by a writer
//! thread. `send` blocks once [`SocketConfig::outbound_hwm`] bytes are
//! queued (a single frame larger than the high-water mark is admitted
//! when the queue is empty, so the mark can be tuned below the largest
//! strip without deadlocking). A reader thread feeds received envelopes
//! into the endpoint's ordinary channel.
//!
//! ## Failure mapping
//!
//! Socket errors collapse onto the existing [`NetError`] semantics: a
//! closed or errored connection makes every subsequent send to that peer
//! return [`NetError::Disconnected`] (which the runtime's fault
//! tolerance already treats as "peer unreachable"), receives simply stop
//! yielding messages from that peer (heartbeat silence), and
//! [`KillHandle`](crate::KillHandle) / timeouts behave exactly as over
//! channels.

use crate::fault::FaultPlan;
use crate::message::{Envelope, Rank, Tag};
use crate::transport::{Endpoint, NetError, TxLink};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Sender};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Handshake magic: `"EHPS"` little-endian.
const MAGIC: u32 = 0x5350_4845;
/// Wire protocol version; bumped on any incompatible frame change.
/// Version 2 added the per-incarnation session id to the hello and the
/// fleet epoch to the welcome.
const VERSION: u8 = 2;
/// `want_rank` wildcard: let the master pick.
pub const ANY_RANK: u32 = u32::MAX;
/// Bytes of a frame header past the length prefix (src, dst, tag).
const FRAME_HEADER: usize = 12;

/// A fresh per-incarnation session id: unique across processes and across
/// `connect` calls within one process, never zero. The id is what lets
/// the master tell a resumed link (same session — splice, no fencing)
/// from a restarted slave (new session — fence the old incarnation).
fn fresh_session() -> u64 {
    static CTR: AtomicU64 = AtomicU64::new(0);
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_nanos() as u64;
    let mut x = t
        ^ ((std::process::id() as u64) << 32)
        ^ CTR
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // splitmix64 finalizer: spreads the entropy over all 64 bits.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) | 1
}

/// Knobs for the socket backend.
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Maximum accepted frame length (header + payload). Oversized
    /// frames are a fatal connection error on both send and receive.
    pub max_frame: usize,
    /// Outbound queue high-water mark in bytes; sends block past it.
    pub outbound_hwm: usize,
    /// How long a slave keeps retrying its initial connect (the master
    /// may not be up yet).
    pub connect_timeout: Duration,
    /// How long the master waits for all slaves to join.
    pub accept_timeout: Duration,
    /// Disable Nagle's algorithm on TCP links (small protocol messages
    /// dominate; latency matters more than packet count).
    pub nodelay: bool,
    /// When set, a broken link is not terminal: the slave side re-dials
    /// the master with exponential backoff (resuming its rank and session)
    /// for up to this window before giving up, and queued sends wait out
    /// the outage instead of failing. `None` (the default) keeps the v1
    /// semantics: the first link error makes every later send return
    /// [`NetError::Disconnected`].
    pub reconnect_window: Option<Duration>,
}

impl Default for SocketConfig {
    fn default() -> Self {
        SocketConfig {
            max_frame: 64 << 20,
            outbound_hwm: 8 << 20,
            connect_timeout: Duration::from_secs(30),
            accept_timeout: Duration::from_secs(60),
            nodelay: true,
            reconnect_window: None,
        }
    }
}

/// A transport address: `tcp:host:port` (or bare `host:port`) or
/// `uds:/path/to.sock`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetAddr {
    /// TCP endpoint, `host:port`.
    Tcp(String),
    /// Unix-domain socket path.
    Uds(PathBuf),
}

impl NetAddr {
    /// Parse an address spec. Accepted forms: `tcp:HOST:PORT`,
    /// `HOST:PORT`, `uds:PATH`, `unix:PATH`.
    pub fn parse(spec: &str) -> Result<NetAddr, String> {
        if let Some(rest) = spec.strip_prefix("tcp:") {
            return Ok(NetAddr::Tcp(rest.to_string()));
        }
        if let Some(rest) = spec
            .strip_prefix("uds:")
            .or_else(|| spec.strip_prefix("unix:"))
        {
            return Ok(NetAddr::Uds(PathBuf::from(rest)));
        }
        if spec.contains(':') {
            return Ok(NetAddr::Tcp(spec.to_string()));
        }
        Err(format!(
            "bad address {spec:?}: expected tcp:HOST:PORT, HOST:PORT or uds:PATH"
        ))
    }
}

impl fmt::Display for NetAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetAddr::Tcp(hp) => write!(f, "tcp:{hp}"),
            NetAddr::Uds(p) => write!(f, "uds:{}", p.display()),
        }
    }
}

/// Per-link socket counters, shared with the reader/writer threads and
/// exported by the runtime's observability layer.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Bytes currently sitting in the outbound queue (gauge).
    pub bytes_queued: AtomicU64,
    /// Frames handed to the writer thread.
    pub frames_sent: AtomicU64,
    /// Bytes written to the socket (including length prefixes).
    pub bytes_sent: AtomicU64,
    /// Frames received and forwarded to the endpoint.
    pub frames_recv: AtomicU64,
    /// Bytes read from the socket (including length prefixes).
    pub bytes_recv: AtomicU64,
    /// Frames rejected: oversized/undersized length prefix (fatal) or a
    /// destination mismatch (dropped).
    pub frames_rejected: AtomicU64,
    /// Connect attempts beyond the first (slave-side retry loop).
    pub reconnects: AtomicU64,
    /// Times the connection was observed closed or errored.
    pub disconnects: AtomicU64,
}

/// A point-in-time copy of [`LinkStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// See [`LinkStats::bytes_queued`].
    pub bytes_queued: u64,
    /// See [`LinkStats::frames_sent`].
    pub frames_sent: u64,
    /// See [`LinkStats::bytes_sent`].
    pub bytes_sent: u64,
    /// See [`LinkStats::frames_recv`].
    pub frames_recv: u64,
    /// See [`LinkStats::bytes_recv`].
    pub bytes_recv: u64,
    /// See [`LinkStats::frames_rejected`].
    pub frames_rejected: u64,
    /// See [`LinkStats::reconnects`].
    pub reconnects: u64,
    /// See [`LinkStats::disconnects`].
    pub disconnects: u64,
}

impl LinkStats {
    /// Copy the counters.
    pub fn snapshot(&self) -> LinkSnapshot {
        LinkSnapshot {
            bytes_queued: self.bytes_queued.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            frames_recv: self.frames_recv.load(Ordering::Relaxed),
            bytes_recv: self.bytes_recv.load(Ordering::Relaxed),
            frames_rejected: self.frames_rejected.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
        }
    }
}

/// What a socket endpoint knows about its links, returned alongside the
/// [`Endpoint`] so callers can export per-link counters.
#[derive(Clone, Debug)]
pub struct SocketInfo {
    /// This endpoint's assigned rank.
    pub rank: Rank,
    /// Total ranks in the job (slaves + master).
    pub n_ranks: usize,
    /// `(peer rank, counters)` for every socket link this endpoint owns.
    pub links: Vec<(Rank, Arc<LinkStats>)>,
    /// The fleet epoch the handshake reported. Fenced fleets
    /// ([`SocketListener::accept_fleet`]) start at 1; plain
    /// [`SocketListener::accept_ranks`] / [`connect`] clusters report 0,
    /// matching the in-process transport's epochless runs.
    pub epoch: u64,
}

impl SocketInfo {
    /// Counters for the link to `peer`, if one exists.
    pub fn link(&self, peer: Rank) -> Option<&Arc<LinkStats>> {
        self.links.iter().find(|(r, _)| *r == peer).map(|(_, s)| s)
    }
}

// ---------------------------------------------------------------------
// Streams
// ---------------------------------------------------------------------

/// A connected byte stream of either flavour.
#[derive(Debug)]
pub(crate) enum SocketStream {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl SocketStream {
    fn try_clone(&self) -> io::Result<SocketStream> {
        Ok(match self {
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
            SocketStream::Uds(s) => SocketStream::Uds(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        let _ = match self {
            SocketStream::Tcp(s) => s.shutdown(Shutdown::Both),
            SocketStream::Uds(s) => s.shutdown(Shutdown::Both),
        };
    }

    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.set_read_timeout(t),
            SocketStream::Uds(s) => s.set_read_timeout(t),
        }
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.read(buf),
            SocketStream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            SocketStream::Tcp(s) => s.write(buf),
            SocketStream::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            SocketStream::Tcp(s) => s.flush(),
            SocketStream::Uds(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Outbound queue + writer/reader threads
// ---------------------------------------------------------------------

/// Mutable half of a connection's outbound queue.
#[derive(Default)]
struct OutQueue {
    frames: VecDeque<Vec<u8>>,
    queued_bytes: usize,
    /// Connection observed broken (IO error or peer EOF): sends fail.
    closed: bool,
    /// Every `SocketTx` clone for this connection has been dropped:
    /// writer flushes and exits.
    tx_dropped: bool,
}

/// How a connection reacts to a broken stream.
enum RelinkMode {
    /// v1 semantics: the first link error closes the connection for good.
    Terminal,
    /// Slave side: re-dial the master with exponential backoff, resuming
    /// the same rank and session, for up to `window`.
    Dial {
        addr: NetAddr,
        rank: u32,
        session: u64,
        window: Duration,
        cfg: SocketConfig,
    },
    /// Master side: hold the link open and wait for the fleet acceptor to
    /// splice a replacement stream in when the slave reconnects.
    Await,
}

/// The mutable link half of a connection: the current stream (if any)
/// and a generation counter bumped on every splice, so reader and writer
/// threads can tell a healed link from the one they saw break.
#[derive(Default)]
struct LinkState {
    gen: u64,
    stream: Option<SocketStream>,
    /// Sever-imposed downtime: the dialer must not re-establish before
    /// this instant.
    hold_until: Option<Instant>,
}

/// State shared between one connection's `SocketTx`, writer and reader.
struct Conn {
    q: Mutex<OutQueue>,
    cv: Condvar,
    link: Mutex<LinkState>,
    link_cv: Condvar,
    mode: RelinkMode,
    hwm: usize,
    max_frame: usize,
    stats: Arc<LinkStats>,
}

impl Conn {
    fn mark_closed(&self) {
        let mut q = self.q.lock().unwrap();
        if !q.closed {
            q.closed = true;
            self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.cv.notify_all();
        drop(q);
        // Wake anyone parked on the link state too (dialer, writer).
        let mut l = self.link.lock().unwrap();
        if let Some(s) = l.stream.take() {
            s.shutdown();
        }
        self.link_cv.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.q.lock().unwrap().closed
    }

    /// Closed, or every sender is gone with the endpoint: nobody wants
    /// the link back, so a dialer must not resurrect it.
    fn is_abandoned(&self) -> bool {
        let q = self.q.lock().unwrap();
        q.closed || q.tx_dropped
    }

    /// Install `stream` as the link's current stream, waking the reader
    /// and writer. Counts a reconnect for every splice after the first
    /// installation.
    fn splice(&self, stream: SocketStream) {
        let mut l = self.link.lock().unwrap();
        if let Some(old) = l.stream.take() {
            old.shutdown();
        }
        if l.gen > 0 {
            self.stats.reconnects.fetch_add(1, Ordering::Relaxed);
        }
        l.gen += 1;
        l.stream = Some(stream);
        l.hold_until = None;
        self.link_cv.notify_all();
        self.cv.notify_all();
    }

    /// A reader or writer hit an IO error on generation `gen`: tear the
    /// stream down (once) and, in terminal mode, close the connection.
    fn link_broken(&self, gen: u64) {
        let terminal = {
            let mut l = self.link.lock().unwrap();
            if l.gen == gen && l.stream.is_some() {
                l.stream.take().unwrap().shutdown();
                self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                self.link_cv.notify_all();
                matches!(self.mode, RelinkMode::Terminal)
            } else {
                false
            }
        };
        if terminal {
            self.mark_closed();
        }
    }

    /// Hard-close the current stream (fault injection) and keep the link
    /// down for `down_for` before redial attempts may succeed. In
    /// terminal mode a severed link is gone for good.
    fn sever(&self, down_for: Duration) {
        {
            let mut l = self.link.lock().unwrap();
            if let Some(s) = l.stream.take() {
                s.shutdown();
                self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
            }
            l.hold_until = Some(Instant::now() + down_for);
            self.link_cv.notify_all();
        }
        if matches!(self.mode, RelinkMode::Terminal) {
            self.mark_closed();
        }
    }

    /// Block until a stream is available, returning a clone of it plus
    /// its generation. `None` means the connection is closed (or the
    /// sender half is gone while the link is down) and the caller should
    /// give up.
    fn wait_stream(&self) -> Option<(SocketStream, u64)> {
        self.wait_stream_after(0)
    }

    /// Like [`Conn::wait_stream`], but only returns a stream of a
    /// generation strictly greater than `after` — the reader uses this to
    /// wait for a *new* stream after the one it was reading broke.
    fn wait_stream_after(&self, after: u64) -> Option<(SocketStream, u64)> {
        let mut l = self.link.lock().unwrap();
        loop {
            if l.gen > after {
                if let Some(s) = &l.stream {
                    if let Ok(c) = s.try_clone() {
                        return Some((c, l.gen));
                    }
                    // Un-clonable stream: treat as broken.
                    l.stream.take().unwrap().shutdown();
                    self.stats.disconnects.fetch_add(1, Ordering::Relaxed);
                }
            }
            {
                let q = self.q.lock().unwrap();
                if q.closed || (q.tx_dropped && l.stream.is_none()) {
                    return None;
                }
            }
            l = self
                .link_cv
                .wait_timeout(l, Duration::from_millis(100))
                .unwrap()
                .0;
        }
    }
}

/// Sending half of a socket link, held inside an endpoint's `TxLink`.
/// Clones share the connection; the writer thread is told to flush and
/// exit only when the *last* clone drops (see [`TxGuard`]), so a
/// persistent fleet endpoint keeps the link open while per-job endpoint
/// forks are created and dropped freely.
#[derive(Clone)]
pub(crate) struct SocketTx {
    conn: Arc<Conn>,
    _guard: Arc<TxGuard>,
}

/// Drop token shared by every clone of one connection's `SocketTx`.
struct TxGuard {
    conn: Arc<Conn>,
}

impl Drop for TxGuard {
    fn drop(&mut self) {
        let mut q = self.conn.q.lock().unwrap();
        q.tx_dropped = true;
        self.conn.cv.notify_all();
    }
}

impl SocketTx {
    /// Encode and enqueue one envelope, blocking while the outbound
    /// queue sits above the high-water mark.
    pub(crate) fn send(&self, env: &Envelope) -> Result<(), NetError> {
        let frame = encode_frame(env);
        if frame.len() - 4 > self.conn.max_frame {
            self.conn
                .stats
                .frames_rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(NetError::Disconnected);
        }
        let mut q = self.conn.q.lock().unwrap();
        loop {
            if q.closed {
                return Err(NetError::Disconnected);
            }
            // Admit when under the mark, or unconditionally when the
            // queue is empty (a lone giant frame must not deadlock).
            if q.queued_bytes + frame.len() <= self.conn.hwm || q.frames.is_empty() {
                break;
            }
            q = self
                .conn
                .cv
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap()
                .0;
        }
        q.queued_bytes += frame.len();
        self.conn
            .stats
            .bytes_queued
            .store(q.queued_bytes as u64, Ordering::Relaxed);
        self.conn.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
        q.frames.push_back(frame);
        self.conn.cv.notify_all();
        Ok(())
    }

    /// Hard-close the connection's stream (fault injection), keeping it
    /// down for `down_for` before the reconnect path may heal it.
    pub(crate) fn sever(&self, down_for: Duration) {
        self.conn.sever(down_for);
    }
}

fn encode_frame(env: &Envelope) -> Vec<u8> {
    let len = (FRAME_HEADER + env.payload.len()) as u32;
    let mut v = Vec::with_capacity(4 + len as usize);
    v.extend_from_slice(&len.to_le_bytes());
    v.extend_from_slice(&env.src.0.to_le_bytes());
    v.extend_from_slice(&env.dst.0.to_le_bytes());
    v.extend_from_slice(&env.tag.0.to_le_bytes());
    v.extend_from_slice(&env.payload);
    v
}

/// Writer thread: drain the outbound queue onto the current stream.
/// Exits when the connection breaks terminally or when the endpoint is
/// gone and the queue is flushed (so teardown messages like END still
/// reach the peer). Under a relinkable mode a write error re-targets the
/// same frame at the next spliced stream instead of giving up; the
/// reliable layer's dedup absorbs the rare frame written twice across a
/// break.
fn writer_loop(conn: Arc<Conn>) {
    'frames: loop {
        let frame = {
            let mut q = conn.q.lock().unwrap();
            loop {
                if let Some(f) = q.frames.pop_front() {
                    q.queued_bytes -= f.len();
                    conn.stats
                        .bytes_queued
                        .store(q.queued_bytes as u64, Ordering::Relaxed);
                    conn.cv.notify_all();
                    break Some(f);
                }
                if q.closed || q.tx_dropped {
                    break None;
                }
                q = conn
                    .cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .unwrap()
                    .0;
            }
        };
        let Some(frame) = frame else { break };
        loop {
            let Some((mut stream, gen)) = conn.wait_stream() else {
                break 'frames;
            };
            if stream
                .write_all(&frame)
                .and_then(|()| stream.flush())
                .is_ok()
            {
                conn.stats
                    .bytes_sent
                    .fetch_add(frame.len() as u64, Ordering::Relaxed);
                continue 'frames;
            }
            conn.link_broken(gen);
            if conn.is_closed() {
                break 'frames;
            }
        }
    }
    let l = conn.link.lock().unwrap();
    if let Some(s) = &l.stream {
        s.shutdown();
    }
}

/// Reader thread: decode length-prefixed frames from the current stream
/// and forward them into the endpoint's channel. On EOF or error the
/// behaviour depends on the relink mode: terminal links are marked closed
/// (subsequent sends fail with `Disconnected`); relinkable links wait for
/// the next spliced stream and resume.
fn reader_loop(conn: Arc<Conn>, peer: Rank, me: Rank, out: Sender<Envelope>) {
    let mut seen_gen = 0;
    'link: loop {
        let Some((mut stream, gen)) = conn.wait_stream_after(seen_gen) else {
            break;
        };
        seen_gen = gen;
        loop {
            let mut lenb = [0u8; 4];
            if stream.read_exact(&mut lenb).is_err() {
                break;
            }
            let len = u32::from_le_bytes(lenb) as usize;
            if len < FRAME_HEADER || len > conn.max_frame {
                // The stream is desynchronised; nothing after this length
                // can be trusted. Fatal for this stream.
                conn.stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                break;
            }
            let mut body = vec![0u8; len];
            if stream.read_exact(&mut body).is_err() {
                break;
            }
            conn.stats
                .bytes_recv
                .fetch_add(4 + len as u64, Ordering::Relaxed);
            let dst = Rank(u32::from_le_bytes(body[4..8].try_into().unwrap()));
            let tag = Tag(u32::from_le_bytes(body[8..12].try_into().unwrap()));
            if dst != me {
                // Mis-addressed frame; the boundary is intact so just
                // drop it.
                conn.stats.frames_rejected.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let env = Envelope {
                // The connection, not the wire, is the source of truth
                // for the sender's identity.
                src: peer,
                dst,
                tag,
                payload: Bytes::from(body).slice(FRAME_HEADER..),
            };
            conn.stats.frames_recv.fetch_add(1, Ordering::Relaxed);
            if out.send(env).is_err() {
                break 'link; // endpoint dropped
            }
        }
        conn.link_broken(gen);
        if conn.is_closed() {
            break;
        }
    }
    conn.mark_closed();
}

/// Supervisor thread for slave-side relinkable connections: whenever the
/// link drops (and the endpoint still holds the connection), re-dial the master
/// with exponential backoff, resuming the same rank under the same
/// session, then splice the fresh stream in. Gives up — closing the
/// connection — when a whole reconnect window passes without success.
fn dial_loop(conn: Arc<Conn>) {
    let RelinkMode::Dial {
        addr,
        rank,
        session,
        window,
        cfg,
    } = &conn.mode
    else {
        return;
    };
    loop {
        // Park until the link is down.
        let hold = {
            let mut l = conn.link.lock().unwrap();
            while l.stream.is_some() {
                l = conn
                    .link_cv
                    .wait_timeout(l, Duration::from_millis(200))
                    .unwrap()
                    .0;
                if conn.is_abandoned() {
                    return;
                }
            }
            l.hold_until
        };
        if conn.is_abandoned() {
            return;
        }
        // Respect a sever's enforced downtime.
        if let Some(h) = hold {
            while Instant::now() < h {
                if conn.is_abandoned() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let deadline = Instant::now() + *window;
        let mut backoff = Duration::from_millis(10);
        loop {
            if conn.is_abandoned() {
                return;
            }
            match redial(addr, cfg, *rank, *session) {
                Ok(s) => {
                    conn.splice(s);
                    break;
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(500));
                }
                Err(_) => {
                    conn.mark_closed();
                    return;
                }
            }
        }
    }
}

/// One reconnect attempt: dial, handshake the same rank and session,
/// verify the master agreed.
fn redial(addr: &NetAddr, cfg: &SocketConfig, rank: u32, session: u64) -> io::Result<SocketStream> {
    let mut s = connect_once(addr, cfg)?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    write_hello(&mut s, rank, session)?;
    let (got, _n_ranks, _epoch) = read_welcome(&mut s)?;
    if got != rank {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("master re-assigned rank {got}, wanted {rank}"),
        ));
    }
    s.set_read_timeout(None)?;
    Ok(s)
}

fn spawn_link(
    stream: SocketStream,
    peer: Rank,
    me: Rank,
    cfg: &SocketConfig,
    out: Sender<Envelope>,
    stats: Arc<LinkStats>,
    mode: RelinkMode,
) -> io::Result<SocketTx> {
    let dial = matches!(mode, RelinkMode::Dial { .. });
    let conn = Arc::new(Conn {
        q: Mutex::new(OutQueue::default()),
        cv: Condvar::new(),
        link: Mutex::new(LinkState::default()),
        link_cv: Condvar::new(),
        mode,
        hwm: cfg.outbound_hwm,
        max_frame: cfg.max_frame,
        stats,
    });
    conn.splice(stream);
    let wc = conn.clone();
    std::thread::Builder::new()
        .name(format!("sock-wr-{}", peer.0))
        .spawn(move || writer_loop(wc))
        .expect("spawn socket writer");
    let rc = conn.clone();
    std::thread::Builder::new()
        .name(format!("sock-rd-{}", peer.0))
        .spawn(move || reader_loop(rc, peer, me, out))
        .expect("spawn socket reader");
    if dial {
        let dc = conn.clone();
        std::thread::Builder::new()
            .name(format!("sock-dial-{}", peer.0))
            .spawn(move || dial_loop(dc))
            .expect("spawn socket dialer");
    }
    let guard = Arc::new(TxGuard { conn: conn.clone() });
    Ok(SocketTx {
        conn,
        _guard: guard,
    })
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

/// Hello (slave → master), 17 bytes: magic, version, `want_rank`, and the
/// slave's per-incarnation session id.
fn write_hello(s: &mut SocketStream, want_rank: u32, session: u64) -> io::Result<()> {
    let mut buf = [0u8; 17];
    buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4] = VERSION;
    buf[5..9].copy_from_slice(&want_rank.to_le_bytes());
    buf[9..17].copy_from_slice(&session.to_le_bytes());
    s.write_all(&buf).and_then(|()| s.flush())
}

fn read_hello(s: &mut SocketStream) -> io::Result<(u32, u64)> {
    let mut buf = [0u8; 17];
    s.read_exact(&mut buf)?;
    check_magic_version(&buf)?;
    Ok((
        u32::from_le_bytes(buf[5..9].try_into().unwrap()),
        u64::from_le_bytes(buf[9..17].try_into().unwrap()),
    ))
}

/// Welcome (master → slave), 21 bytes: magic, version, assigned rank,
/// cluster size, and the fleet epoch this admission happened under.
fn write_welcome(s: &mut SocketStream, rank: u32, n_ranks: u32, epoch: u64) -> io::Result<()> {
    let mut buf = [0u8; 21];
    buf[..4].copy_from_slice(&MAGIC.to_le_bytes());
    buf[4] = VERSION;
    buf[5..9].copy_from_slice(&rank.to_le_bytes());
    buf[9..13].copy_from_slice(&n_ranks.to_le_bytes());
    buf[13..21].copy_from_slice(&epoch.to_le_bytes());
    s.write_all(&buf).and_then(|()| s.flush())
}

fn read_welcome(s: &mut SocketStream) -> io::Result<(u32, u32, u64)> {
    let mut buf = [0u8; 21];
    s.read_exact(&mut buf)?;
    check_magic_version(&buf)?;
    Ok((
        u32::from_le_bytes(buf[5..9].try_into().unwrap()),
        u32::from_le_bytes(buf[9..13].try_into().unwrap()),
        u64::from_le_bytes(buf[13..21].try_into().unwrap()),
    ))
}

fn check_magic_version(buf: &[u8]) -> io::Result<()> {
    if u32::from_le_bytes(buf[..4].try_into().unwrap()) != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not an easyhps peer (bad magic)",
        ));
    }
    if buf[4] != VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "protocol version mismatch: peer {}, ours {}",
                buf[4], VERSION
            ),
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Master: listen + accept
// ---------------------------------------------------------------------

enum ListenerInner {
    Tcp(TcpListener),
    Uds(UnixListener, PathBuf),
}

/// A bound listener; call [`SocketListener::accept_ranks`] to gather the
/// slave connections and build the master endpoint. Binding is split
/// from accepting so callers can learn the actual address (ephemeral TCP
/// port) before starting slaves.
pub struct SocketListener {
    inner: ListenerInner,
    cfg: SocketConfig,
}

impl SocketListener {
    /// Bind to `addr`. For `tcp:host:0` the OS picks a port; read the
    /// result back with [`SocketListener::local_addr`].
    pub fn bind(addr: &NetAddr, cfg: SocketConfig) -> io::Result<SocketListener> {
        let inner = match addr {
            NetAddr::Tcp(hp) => ListenerInner::Tcp(TcpListener::bind(hp)?),
            NetAddr::Uds(path) => {
                // A stale socket file from a crashed run blocks bind.
                let _ = std::fs::remove_file(path);
                ListenerInner::Uds(UnixListener::bind(path)?, path.clone())
            }
        };
        Ok(SocketListener { inner, cfg })
    }

    /// The socket knobs this listener was bound with.
    pub fn config(&self) -> &SocketConfig {
        &self.cfg
    }

    /// The address actually bound (port resolved for TCP).
    pub fn local_addr(&self) -> NetAddr {
        match &self.inner {
            ListenerInner::Tcp(l) => NetAddr::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?".into()),
            ),
            ListenerInner::Uds(_, path) => NetAddr::Uds(path.clone()),
        }
    }

    fn accept_one(&self, deadline: Instant) -> io::Result<SocketStream> {
        // Poll non-blocking accepts so a missing slave cannot park the
        // master past its accept timeout.
        match &self.inner {
            ListenerInner::Tcp(l) => l.set_nonblocking(true)?,
            ListenerInner::Uds(l, _) => l.set_nonblocking(true)?,
        }
        loop {
            let got = match &self.inner {
                ListenerInner::Tcp(l) => l.accept().map(|(s, _)| SocketStream::Tcp(s)),
                ListenerInner::Uds(l, _) => l.accept().map(|(s, _)| SocketStream::Uds(s)),
            };
            match got {
                Ok(s) => {
                    if let SocketStream::Tcp(t) = &s {
                        let _ = t.set_nodelay(self.cfg.nodelay);
                    }
                    return Ok(s);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "timed out waiting for slaves to connect",
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Accept `n_slaves` connections, assign ranks `1..=n_slaves`
    /// (honouring a slave's `want_rank` when it is free) and return the
    /// master endpoint plus per-link counters.
    pub fn accept_ranks(
        self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
    ) -> io::Result<(Endpoint, SocketInfo)> {
        let (ep, info, ..) = self.accept_initial(n_slaves, plan, false)?;
        Ok((ep, info))
    }

    /// Like [`SocketListener::accept_ranks`], but for a long-lived,
    /// *elastic* fleet: after the initial `n_slaves` are admitted the
    /// listener stays alive on a background acceptor thread that
    ///
    /// - **splices** a reconnecting slave (same rank, same session id)
    ///   back onto its existing link without any membership change,
    /// - **fences** a restarted slave (same rank, new session id) by
    ///   bumping the fleet epoch and reporting
    ///   [`MembershipEvent::Rejoined`] so the scheduler can roll back the
    ///   old incarnation's in-flight work,
    /// - **admits** brand-new slaves mid-run ([`MembershipEvent::Joined`]),
    ///   assigning ranks from the released free-list or growing the
    ///   cluster, and shipping them the configured join payload (the
    ///   sealed job spec).
    ///
    /// The returned links are held open across slave outages
    /// (`RelinkMode::Await`): a send to a temporarily-dark slave queues
    /// instead of failing, and heartbeat silence — not link state — is
    /// what excludes it from scheduling.
    pub fn accept_fleet(
        self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
    ) -> io::Result<(Endpoint, SocketInfo, FleetAcceptor)> {
        let (ep, info, slots, env_tx) = self.accept_initial(n_slaves, plan, true)?;
        let shared = Arc::new(AcceptorShared {
            events: Mutex::new(VecDeque::new()),
            epoch: AtomicU64::new(INITIAL_EPOCH),
            stop: AtomicBool::new(false),
            join_payload: Mutex::new(None),
            slots: Mutex::new(slots),
            links: ep.shared_links(),
            env_tx,
            cfg: self.cfg.clone(),
        });
        let thread_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("fleet-acceptor".into())
            .spawn(move || acceptor_loop(self, thread_shared))
            .expect("spawn fleet acceptor");
        let acceptor = FleetAcceptor {
            shared,
            handle: Some(handle),
        };
        Ok((ep, info, acceptor))
    }

    /// The accept loop both entry points share: admit `n_slaves`
    /// connections and build the master endpoint over them, returning it
    /// with the per-rank admission records and the inbound queue's sender
    /// (for links a fleet acceptor installs later). An `elastic` fleet's
    /// links wait for a splice when their stream breaks and its members
    /// start at [`INITIAL_EPOCH`]; a fixed cluster's links close for good
    /// on the first error and report epoch 0.
    #[allow(clippy::type_complexity)] // private; the two callers destructure it
    fn accept_initial(
        &self,
        n_slaves: usize,
        plan: Option<FaultPlan>,
        elastic: bool,
    ) -> io::Result<(
        Endpoint,
        SocketInfo,
        Vec<Option<RankSlot>>,
        Sender<Envelope>,
    )> {
        assert!(n_slaves > 0, "a socket cluster needs at least one slave");
        let n_ranks = n_slaves + 1;
        let epoch = if elastic { INITIAL_EPOCH } else { 0 };
        let deadline = Instant::now() + self.cfg.accept_timeout;
        let (env_tx, env_rx) = unbounded();
        let mut links: Vec<TxLink> = (0..n_ranks).map(|_| TxLink::Unrouted).collect();
        links[0] = TxLink::Channel(env_tx.clone()); // loopback
        let mut slots: Vec<Option<RankSlot>> = (0..n_ranks).map(|_| None).collect();
        let mut info_links = Vec::with_capacity(n_slaves);
        while info_links.len() < n_slaves {
            let mut stream = self.accept_one(deadline)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            let (want, session) = match read_hello(&mut stream) {
                Ok(w) => w,
                Err(_) => continue, // garbage peer: drop the connection
            };
            let free = |slots: &[Option<RankSlot>]| slots[1..].iter().position(|s| s.is_none());
            let rank =
                match (want as usize) < n_ranks && want != 0 && slots[want as usize].is_none() {
                    true => want as usize,
                    false => match free(&slots) {
                        Some(i) => i + 1,
                        None => break,
                    },
                };
            write_welcome(&mut stream, rank as u32, n_ranks as u32, epoch)?;
            stream.set_read_timeout(None)?;
            let stats = Arc::new(LinkStats::default());
            let tx = spawn_link(
                stream,
                Rank(rank as u32),
                Rank(0),
                &self.cfg,
                env_tx.clone(),
                stats.clone(),
                if elastic {
                    RelinkMode::Await
                } else {
                    RelinkMode::Terminal
                },
            )?;
            slots[rank] = Some(RankSlot {
                conn: tx.conn.clone(),
                session,
                stats: stats.clone(),
            });
            links[rank] = TxLink::Socket(tx);
            info_links.push((Rank(rank as u32), stats));
        }
        info_links.sort_by_key(|(r, _)| r.0);
        let ep = Endpoint::from_parts(Rank(0), links, env_rx, plan);
        let info = SocketInfo {
            rank: Rank(0),
            n_ranks,
            links: info_links,
            epoch,
        };
        Ok((ep, info, slots, env_tx))
    }
}

/// The epoch every initial member of a fenced fleet is admitted under.
const INITIAL_EPOCH: u64 = 1;

/// A membership change observed by the fleet acceptor, to be drained
/// with [`FleetAcceptor::poll_events`] and fed to the master scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipEvent {
    /// A slave's link dropped and the *same incarnation* reconnected: the
    /// stream was spliced, nothing was lost, no fencing is needed.
    Relinked {
        /// The resuming slave's rank.
        rank: u32,
    },
    /// A *new incarnation* of an existing rank connected: the fleet epoch
    /// was bumped and anything the old incarnation still held must be
    /// rolled back and its late DONEs fenced.
    Rejoined {
        /// The rank being taken over.
        rank: u32,
        /// The new fleet epoch the incarnation was admitted under.
        epoch: u64,
    },
    /// A brand-new slave was admitted mid-run (fresh rank from the
    /// free-list, or the cluster grew).
    Joined {
        /// The new slave's rank.
        rank: u32,
        /// The fleet epoch it was admitted under.
        epoch: u64,
    },
}

/// Per-rank admission record the acceptor keeps for splice/fence
/// decisions.
struct RankSlot {
    conn: Arc<Conn>,
    session: u64,
    stats: Arc<LinkStats>,
}

struct AcceptorShared {
    events: Mutex<VecDeque<MembershipEvent>>,
    epoch: AtomicU64,
    stop: AtomicBool,
    /// `(tag, pre-sealed payload)` shipped to every newly admitted or
    /// re-incarnated slave, so a joiner learns the job it walked into.
    join_payload: Mutex<Option<(u32, Vec<u8>)>>,
    slots: Mutex<Vec<Option<RankSlot>>>,
    links: Arc<RwLock<Vec<TxLink>>>,
    env_tx: Sender<Envelope>,
    cfg: SocketConfig,
}

/// Handle to the background acceptor keeping an elastic fleet's listener
/// alive. Dropping it stops the thread and closes every fleet link.
pub struct FleetAcceptor {
    shared: Arc<AcceptorShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetAcceptor {
    /// Drain membership events observed since the last poll, in order.
    pub fn poll_events(&self) -> Vec<MembershipEvent> {
        self.shared.events.lock().unwrap().drain(..).collect()
    }

    /// The current fleet epoch.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::SeqCst)
    }

    /// Current cluster size (master + highest admitted rank).
    pub fn n_ranks(&self) -> usize {
        self.shared.slots.lock().unwrap().len()
    }

    /// Set the payload shipped to every slave admitted from now on (a
    /// sealed JOB frame, so a mid-run joiner knows what to compute).
    pub fn set_join_payload(&self, tag: u32, payload: Vec<u8>) {
        *self.shared.join_payload.lock().unwrap() = Some((tag, payload));
    }

    /// Stop shipping a join payload (between jobs).
    pub fn clear_join_payload(&self) {
        *self.shared.join_payload.lock().unwrap() = None;
    }

    /// Per-link counters for `rank` (including links installed for
    /// mid-run joiners, which are not in the original `SocketInfo`).
    pub fn link_stats(&self, rank: u32) -> Option<Arc<LinkStats>> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .get(rank as usize)
            .and_then(|s| s.as_ref())
            .map(|s| s.stats.clone())
    }

    /// Ranks that are admitted *and* currently linked (stream up). A rank
    /// missing from this list is either released or dark — dark ranks may
    /// still come back within the run.
    pub fn live_ranks(&self) -> Vec<u32> {
        let slots = self.shared.slots.lock().unwrap();
        slots
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(r, s)| {
                let s = s.as_ref()?;
                s.conn
                    .link
                    .lock()
                    .unwrap()
                    .stream
                    .is_some()
                    .then_some(r as u32)
            })
            .collect()
    }

    /// Release `rank`: close its link and return the rank to the
    /// free-list, so a future joiner can take it. The caller is expected
    /// to have drained the slave first (graceful drain) — anything still
    /// in flight is lost and will be redispatched by fault tolerance.
    pub fn release_rank(&self, rank: u32) {
        let slot = {
            let mut slots = self.shared.slots.lock().unwrap();
            slots.get_mut(rank as usize).and_then(|s| s.take())
        };
        if let Some(slot) = slot {
            slot.conn.mark_closed();
        }
    }

    /// Stop the acceptor thread (idempotent). New connections are no
    /// longer admitted; existing links stay up.
    pub fn stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }
}

impl Drop for FleetAcceptor {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        // Close every fleet link: Await-mode conns would otherwise wait
        // forever for a splice that can no longer happen.
        let mut slots = self.shared.slots.lock().unwrap();
        for slot in slots.iter_mut().filter_map(|s| s.take()) {
            slot.conn.mark_closed();
        }
    }
}

/// The background acceptor: admit reconnections, re-incarnations and
/// mid-run joiners until stopped.
fn acceptor_loop(listener: SocketListener, shared: Arc<AcceptorShared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        let deadline = Instant::now() + Duration::from_millis(100);
        let mut stream = match listener.accept_one(deadline) {
            Ok(s) => s,
            Err(e) if e.kind() == io::ErrorKind::TimedOut => continue,
            Err(_) => break,
        };
        if stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .is_err()
        {
            continue;
        }
        let Ok((want, session)) = read_hello(&mut stream) else {
            continue; // garbage peer: drop the connection
        };
        let _ = admit(stream, want, session, &shared);
    }
}

/// Admit one handshaken connection per the fleet membership rules.
fn admit(
    mut stream: SocketStream,
    want: u32,
    session: u64,
    shared: &Arc<AcceptorShared>,
) -> io::Result<()> {
    let mut slots = shared.slots.lock().unwrap();
    let n_ranks = slots.len();
    let existing = (want as usize) < n_ranks && want != 0 && slots[want as usize].is_some();
    if existing {
        let rank = want as usize;
        let slot = slots[rank].as_mut().unwrap();
        if slot.session == session {
            // Same incarnation resuming after a link blip: splice, no
            // membership change, no fencing.
            write_welcome(
                &mut stream,
                rank as u32,
                n_ranks as u32,
                shared.epoch.load(Ordering::SeqCst),
            )?;
            stream.set_read_timeout(None)?;
            slot.conn.splice(stream);
            shared
                .events
                .lock()
                .unwrap()
                .push_back(MembershipEvent::Relinked { rank: rank as u32 });
            return Ok(());
        }
        // New incarnation of an existing rank: fence the old one. The
        // event is queued *before* the welcome goes out, so the master
        // shell processes the Rejoined before any frame of the new
        // incarnation can arrive.
        let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        shared
            .events
            .lock()
            .unwrap()
            .push_back(MembershipEvent::Rejoined {
                rank: rank as u32,
                epoch,
            });
        write_welcome(&mut stream, rank as u32, n_ranks as u32, epoch)?;
        stream.set_read_timeout(None)?;
        slot.session = session;
        slot.conn.splice(stream);
        let tx = {
            let links = shared.links.read().unwrap();
            match links.get(rank) {
                Some(TxLink::Socket(tx)) => Some(tx.clone()),
                _ => None,
            }
        };
        drop(slots);
        ship_join_payload(shared, tx, rank as u32);
        return Ok(());
    }
    // Brand-new admission: reuse a released rank or grow the cluster.
    let rank = match slots[1..].iter().position(|s| s.is_none()) {
        Some(i) => i + 1,
        None => {
            slots.push(None);
            shared.links.write().unwrap().push(TxLink::Unrouted);
            slots.len() - 1
        }
    };
    let n_ranks = slots.len();
    let epoch = shared.epoch.fetch_add(1, Ordering::SeqCst) + 1;
    shared
        .events
        .lock()
        .unwrap()
        .push_back(MembershipEvent::Joined {
            rank: rank as u32,
            epoch,
        });
    write_welcome(&mut stream, rank as u32, n_ranks as u32, epoch)?;
    stream.set_read_timeout(None)?;
    let stats = Arc::new(LinkStats::default());
    let tx = spawn_link(
        stream,
        Rank(rank as u32),
        Rank(0),
        &shared.cfg,
        shared.env_tx.clone(),
        stats.clone(),
        RelinkMode::Await,
    )?;
    slots[rank] = Some(RankSlot {
        conn: tx.conn.clone(),
        session,
        stats,
    });
    shared.links.write().unwrap()[rank] = TxLink::Socket(tx.clone());
    drop(slots);
    ship_join_payload(shared, Some(tx), rank as u32);
    Ok(())
}

/// Queue the configured join payload (sealed JOB spec) on a freshly
/// admitted slave's link.
fn ship_join_payload(shared: &Arc<AcceptorShared>, tx: Option<SocketTx>, rank: u32) {
    let payload = shared.join_payload.lock().unwrap().clone();
    if let (Some(tx), Some((tag, bytes))) = (tx, payload) {
        let _ = tx.send(&Envelope {
            src: Rank(0),
            dst: Rank(rank),
            tag: Tag(tag),
            payload: Bytes::from(bytes),
        });
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        if let ListenerInner::Uds(_, path) = &self.inner {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------
// Slave: connect
// ---------------------------------------------------------------------

fn connect_once(addr: &NetAddr, cfg: &SocketConfig) -> io::Result<SocketStream> {
    match addr {
        NetAddr::Tcp(hp) => {
            let s = TcpStream::connect(hp)?;
            let _ = s.set_nodelay(cfg.nodelay);
            Ok(SocketStream::Tcp(s))
        }
        NetAddr::Uds(path) => Ok(SocketStream::Uds(UnixStream::connect(path)?)),
    }
}

/// Connect to a listening master, handshake a rank, and return the slave
/// endpoint. Retries the connect with backoff until
/// [`SocketConfig::connect_timeout`] so slaves may start before the
/// master; retries are counted in [`LinkStats::reconnects`].
pub fn connect(
    addr: &NetAddr,
    want_rank: Option<u32>,
    cfg: SocketConfig,
    plan: Option<FaultPlan>,
) -> io::Result<(Endpoint, SocketInfo)> {
    let stats = Arc::new(LinkStats::default());
    let deadline = Instant::now() + cfg.connect_timeout;
    let mut backoff = Duration::from_millis(10);
    let mut stream = loop {
        match connect_once(addr, &cfg) {
            Ok(s) => break s,
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(e);
                }
                stats.reconnects.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_millis(500));
            }
        }
    };
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let session = fresh_session();
    write_hello(&mut stream, want_rank.unwrap_or(ANY_RANK), session)?;
    let (rank, n_ranks, epoch) = read_welcome(&mut stream)?;
    stream.set_read_timeout(None)?;
    let (env_tx, env_rx) = unbounded();
    let mut links: Vec<TxLink> = (0..n_ranks as usize).map(|_| TxLink::Unrouted).collect();
    let mode = match cfg.reconnect_window {
        Some(window) => RelinkMode::Dial {
            addr: addr.clone(),
            rank,
            session,
            window,
            cfg: cfg.clone(),
        },
        None => RelinkMode::Terminal,
    };
    let tx = spawn_link(
        stream,
        Rank(0),
        Rank(rank),
        &cfg,
        env_tx.clone(),
        stats.clone(),
        mode,
    )?;
    links[0] = TxLink::Socket(tx);
    links[rank as usize] = TxLink::Channel(env_tx); // loopback
    let ep = Endpoint::from_parts(Rank(rank), links, env_rx, plan);
    let info = SocketInfo {
        rank: Rank(rank),
        n_ranks: n_ranks as usize,
        links: vec![(Rank(0), stats)],
        epoch,
    };
    Ok((ep, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Tag;

    fn b(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }

    fn tcp_pair(n_slaves: usize) -> (Endpoint, SocketInfo, Vec<(Endpoint, SocketInfo)>) {
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let handles: Vec<_> = (1..=n_slaves)
            .map(|r| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    connect(&addr, Some(r as u32), SocketConfig::default(), None).unwrap()
                })
            })
            .collect();
        let (master, minfo) = listener.accept_ranks(n_slaves, None).unwrap();
        let slaves = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (master, minfo, slaves)
    }

    #[test]
    fn addr_parse_forms() {
        assert_eq!(
            NetAddr::parse("tcp:1.2.3.4:99").unwrap(),
            NetAddr::Tcp("1.2.3.4:99".into())
        );
        assert_eq!(
            NetAddr::parse("1.2.3.4:99").unwrap(),
            NetAddr::Tcp("1.2.3.4:99".into())
        );
        assert_eq!(
            NetAddr::parse("uds:/tmp/x.sock").unwrap(),
            NetAddr::Uds("/tmp/x.sock".into())
        );
        assert_eq!(
            NetAddr::parse("unix:/tmp/x.sock").unwrap(),
            NetAddr::Uds("/tmp/x.sock".into())
        );
        assert!(NetAddr::parse("nonsense").is_err());
    }

    #[test]
    fn tcp_ping_pong_with_rank_assignment() {
        let (mut master, minfo, mut slaves) = tcp_pair(2);
        assert_eq!(minfo.n_ranks, 3);
        for (ep, info) in &slaves {
            assert_eq!(ep.rank(), info.rank);
            assert_eq!(ep.n_ranks(), 3);
        }
        for (ref mut ep, _) in &mut slaves {
            ep.send(Rank(0), Tag(1), b("hello")).unwrap();
        }
        for _ in 0..2 {
            let env = master.recv().unwrap();
            assert_eq!(env.tag, Tag(1));
            assert_eq!(&env.payload[..], b"hello");
            master.send(env.src, Tag(2), b("world")).unwrap();
        }
        for (ref mut ep, _) in &mut slaves {
            let env = ep.recv().unwrap();
            assert_eq!(env.src, Rank(0));
            assert_eq!(&env.payload[..], b"world");
        }
    }

    #[test]
    fn uds_ping_pong() {
        let path = std::env::temp_dir().join(format!("easyhps-test-{}.sock", std::process::id()));
        let listener =
            SocketListener::bind(&NetAddr::Uds(path.clone()), SocketConfig::default()).unwrap();
        let addr = listener.local_addr();
        let h = std::thread::spawn(move || {
            connect(&addr, None, SocketConfig::default(), None).unwrap()
        });
        let (mut master, _info) = listener.accept_ranks(1, None).unwrap();
        let (mut slave, _sinfo) = h.join().unwrap();
        slave.send(Rank(0), Tag(7), b("ping")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"ping");
        master.send(slave.rank(), Tag(8), b("pong")).unwrap();
        assert_eq!(&slave.recv().unwrap().payload[..], b"pong");
        drop(master);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn slave_to_slave_is_unrouted() {
        let (_master, _minfo, mut slaves) = tcp_pair(2);
        let (ref mut s1, _) = slaves[0];
        assert_eq!(
            s1.send(Rank(2), Tag(0), Bytes::new()).unwrap_err(),
            NetError::Disconnected
        );
    }

    #[test]
    fn peer_death_fails_sends_promptly() {
        let (mut master, _minfo, slaves) = tcp_pair(1);
        drop(slaves); // slave endpoints drop: connections close
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match master.send(Rank(1), Tag(0), b("x")) {
                Err(NetError::Disconnected) => break,
                Ok(()) => {
                    assert!(Instant::now() < deadline, "send must start failing");
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn per_pair_ordering_over_tcp() {
        let (mut master, _minfo, mut slaves) = tcp_pair(1);
        for i in 0..200u32 {
            master.send(Rank(1), Tag(i), Bytes::new()).unwrap();
        }
        let (ref mut slave, _) = slaves[0];
        for i in 0..200u32 {
            assert_eq!(slave.recv().unwrap().tag, Tag(i));
        }
    }

    #[test]
    fn oversized_send_is_rejected() {
        let cfg = SocketConfig {
            max_frame: 1024,
            ..SocketConfig::default()
        };
        let listener =
            SocketListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap(), cfg.clone()).unwrap();
        let addr = listener.local_addr();
        let ccfg = cfg.clone();
        let h = std::thread::spawn(move || connect(&addr, None, ccfg, None).unwrap());
        let (mut master, minfo) = listener.accept_ranks(1, None).unwrap();
        let (_slave, _sinfo) = h.join().unwrap();
        let big = Bytes::from(vec![0u8; 4096]);
        assert_eq!(
            master.send(Rank(1), Tag(0), big).unwrap_err(),
            NetError::Disconnected
        );
        let snap = minfo.link(Rank(1)).unwrap().snapshot();
        assert_eq!(snap.frames_rejected, 1);
    }

    #[test]
    fn fault_plans_apply_over_sockets() {
        // A lossy master drops deterministically even over TCP: the
        // fault layer sits above the link.
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let h = std::thread::spawn(move || {
            connect(&addr, None, SocketConfig::default(), None).unwrap()
        });
        let plan = FaultPlan::lossy(0.5, 42);
        let (mut master, _minfo) = listener.accept_ranks(1, Some(plan)).unwrap();
        let (mut slave, _sinfo) = h.join().unwrap();
        for _ in 0..100 {
            master.send(Rank(1), Tag(3), Bytes::new()).unwrap();
        }
        let mut got = 0u64;
        while slave.recv_timeout(Duration::from_millis(500)).is_ok() {
            got += 1;
        }
        let dropped = master.stats().dropped_msgs;
        assert_eq!(got + dropped, 100);
        assert!(
            dropped > 20 && dropped < 80,
            "drop rate wildly off: {dropped}"
        );
    }

    /// Fleet helper: elastic master with `n` initial slaves, each slave
    /// connecting with a reconnect window (so severed links re-dial).
    fn fleet_pair(
        n_slaves: usize,
        slave_plans: Vec<Option<FaultPlan>>,
    ) -> (
        Endpoint,
        SocketInfo,
        FleetAcceptor,
        NetAddr,
        Vec<(Endpoint, SocketInfo)>,
    ) {
        let listener = SocketListener::bind(
            &NetAddr::parse("127.0.0.1:0").unwrap(),
            SocketConfig::default(),
        )
        .unwrap();
        let addr = listener.local_addr();
        let handles: Vec<_> = slave_plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let cfg = SocketConfig {
                        reconnect_window: Some(Duration::from_secs(10)),
                        ..SocketConfig::default()
                    };
                    connect(&addr, Some(i as u32 + 1), cfg, plan).unwrap()
                })
            })
            .collect();
        let (master, minfo, acceptor) = listener.accept_fleet(n_slaves, None).unwrap();
        let slaves = handles.into_iter().map(|h| h.join().unwrap()).collect();
        (master, minfo, acceptor, addr, slaves)
    }

    #[test]
    fn severed_link_heals_by_redial() {
        // The slave's 2nd send pulls the cable for 30ms; the dialer must
        // re-establish the same session and every queued frame must still
        // arrive, in order.
        let plan = FaultPlan::default().with_link_sever(2, Duration::from_millis(30));
        let (mut master, _minfo, acceptor, _addr, mut slaves) = fleet_pair(1, vec![Some(plan)]);
        let (ref mut slave, ref sinfo) = slaves[0];
        slave.send(Rank(0), Tag(1), b("warm")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"warm");
        for i in 0..10u32 {
            slave.send(Rank(0), Tag(10 + i), b("x")).unwrap();
        }
        for i in 0..10u32 {
            let env = master
                .recv_timeout(Duration::from_secs(10))
                .expect("frame survives the sever");
            assert_eq!(env.tag, Tag(10 + i), "order preserved across splice");
        }
        let snap = sinfo.link(Rank(0)).unwrap().snapshot();
        assert!(snap.reconnects >= 1, "redial counted: {snap:?}");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let evs = acceptor.poll_events();
            if evs.contains(&MembershipEvent::Relinked { rank: 1 }) {
                break;
            }
            assert!(
                evs.iter()
                    .all(|e| matches!(e, MembershipEvent::Relinked { .. })),
                "same session must splice, not fence: {evs:?}"
            );
            assert!(Instant::now() < deadline, "Relinked event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Same incarnation: the epoch must not have moved.
        assert_eq!(acceptor.epoch(), 1);
    }

    #[test]
    fn new_incarnation_is_fenced_with_a_new_epoch() {
        let (mut master, minfo, acceptor, addr, mut slaves) = fleet_pair(1, vec![None]);
        assert_eq!(minfo.epoch, 1);
        let (mut slave, sinfo) = slaves.pop().unwrap();
        assert_eq!(sinfo.epoch, 1);
        slave.send(Rank(0), Tag(1), b("inc1")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"inc1");
        drop(slave); // incarnation 1 dies; master's link goes dark, not dead
        let (mut slave2, sinfo2) = connect(&addr, Some(1), SocketConfig::default(), None).unwrap();
        assert_eq!(sinfo2.rank, Rank(1));
        assert_eq!(sinfo2.epoch, 2, "restart bumps the fleet epoch");
        assert_eq!(acceptor.epoch(), 2);
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let evs = acceptor.poll_events();
            if evs.contains(&MembershipEvent::Rejoined { rank: 1, epoch: 2 }) {
                break;
            }
            assert!(Instant::now() < deadline, "Rejoined event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The resumed rank is fully usable in both directions.
        slave2.send(Rank(0), Tag(2), b("inc2")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"inc2");
        master.send(Rank(1), Tag(3), b("hi")).unwrap();
        assert_eq!(&slave2.recv().unwrap().payload[..], b"hi");
    }

    #[test]
    fn mid_run_join_grows_cluster_and_ships_payload() {
        let (mut master, _minfo, acceptor, addr, _slaves) = fleet_pair(1, vec![None]);
        acceptor.set_join_payload(7, b"jobspec".to_vec());
        let (mut joiner, jinfo) = connect(&addr, None, SocketConfig::default(), None).unwrap();
        assert_eq!(jinfo.rank, Rank(2), "fresh rank past the initial fleet");
        assert_eq!(jinfo.n_ranks, 3);
        assert_eq!(jinfo.epoch, 2, "join bumps the epoch");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let evs = acceptor.poll_events();
            if evs.contains(&MembershipEvent::Joined { rank: 2, epoch: 2 }) {
                break;
            }
            assert!(Instant::now() < deadline, "Joined event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        // The joiner got the configured payload without asking.
        let env = joiner.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(env.tag, Tag(7));
        assert_eq!(&env.payload[..], b"jobspec");
        // The master's route table grew: it can address the new rank.
        assert_eq!(master.n_ranks(), 3);
        master.send(Rank(2), Tag(9), b("task")).unwrap();
        assert_eq!(&joiner.recv().unwrap().payload[..], b"task");
        joiner.send(Rank(0), Tag(10), b("done")).unwrap();
        assert_eq!(&master.recv().unwrap().payload[..], b"done");
        assert!(acceptor.link_stats(2).is_some());
    }

    #[test]
    fn released_rank_is_reused_by_next_joiner() {
        let (_master, _minfo, acceptor, addr, _slaves) = fleet_pair(2, vec![None, None]);
        acceptor.release_rank(1);
        let (joiner, jinfo) = connect(&addr, None, SocketConfig::default(), None).unwrap();
        assert_eq!(jinfo.rank, Rank(1), "freed rank comes off the free-list");
        assert_eq!(jinfo.n_ranks, 3, "cluster did not grow");
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if acceptor
                .poll_events()
                .iter()
                .any(|e| matches!(e, MembershipEvent::Joined { rank: 1, .. }))
            {
                break;
            }
            assert!(Instant::now() < deadline, "Joined event never surfaced");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(acceptor.live_ranks().contains(&1));
        drop(joiner);
    }
}
