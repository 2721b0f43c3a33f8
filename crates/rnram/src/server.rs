//! The network-RAM server: the process that *exports* its memory.
//!
//! The paper's server process "runs in the remote node and is responsible
//! for accepting requests (remote malloc and free) and manipulating its
//! main memory (exporting physical memory segments and freeing them when
//! necessary)". This module is the TCP incarnation of that process; segment
//! bookkeeping is shared with the simulated backend through
//! [`NodeMemory`].
//!
//! # Event-driven request loop
//!
//! [`Server::start`] runs a single event-loop thread over nonblocking
//! sockets (readiness via `poll(2)`, no extra dependencies): one thread
//! serves every connection and every multiplexed session, so fan-in is
//! bounded by sockets and admission slots rather than OS threads. Requests
//! beyond the shared in-flight window ([`AdmissionConfig::max_inflight`])
//! queue up to [`AdmissionConfig::max_queue`] and are then refused with a
//! typed [`Response::Overloaded`] — never silently dropped, never
//! reordered: every request gets exactly one response, in receipt order
//! per connection.

use std::collections::{BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use perseas_sci::{NodeMemory, SciError, SegmentId};

use crate::metrics::ServerMetrics;
use crate::protocol::{crc32, frame_bytes, Request, Response, MAX_FRAME};
use crate::RnError;

/// Readiness notification without new dependencies: a thin shim over the
/// libc `poll(2)` that std already links. The non-unix fallback claims
/// readiness after a short sleep and relies on nonblocking sockets
/// returning `WouldBlock`, trading latency for portability.
#[cfg(unix)]
mod readiness {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[cfg(target_os = "macos")]
    type NfdsT = u32;
    #[cfg(not(target_os = "macos"))]
    type NfdsT = std::os::raw::c_ulong;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: i32) -> i32;
    }

    /// Waits for readiness on `fds` for at most `timeout_ms`. EINTR and
    /// other failures report as "nothing ready"; callers retry.
    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        if fds.is_empty() {
            std::thread::sleep(std::time::Duration::from_millis(
                timeout_ms.clamp(0, 25) as u64
            ));
            return 0;
        }
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        n.max(0)
    }
}

#[cfg(not(unix))]
mod readiness {
    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        std::thread::sleep(std::time::Duration::from_millis(
            timeout_ms.clamp(0, 5) as u64
        ));
        for f in fds.iter_mut() {
            f.revents = f.events | POLLIN;
        }
        fds.len() as i32
    }
}

#[cfg(unix)]
fn fd_of<T: std::os::unix::io::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    0
}

/// Shared admission-control limits for the event-driven server.
///
/// `max_inflight` bounds how many requests may be applied with their
/// responses still in flight (the shared window pool across every
/// connection and session); `max_queue` bounds how many further requests
/// may wait for a slot before the server answers [`Response::Overloaded`].
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// Applied-but-unacknowledged requests allowed at once, across all
    /// connections.
    pub max_inflight: usize,
    /// Requests allowed to wait for an admission slot before refusal.
    pub max_queue: usize,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_inflight: 1024,
            max_queue: 4096,
        }
    }
}

/// A running network-RAM server.
///
/// Dropping the handle keeps the server running until the process exits;
/// call [`ServerHandle::shutdown`] for an orderly stop.
///
/// # Examples
///
/// ```
/// use perseas_rnram::{server::Server, RemoteMemory, TcpRemote};
///
/// # fn main() -> Result<(), perseas_rnram::RnError> {
/// let server = Server::bind("mirror", "127.0.0.1:0")?.start();
/// let mut client = TcpRemote::connect(server.addr())?;
/// let seg = client.remote_malloc(64, 1)?;
/// client.remote_write(seg.id, 0, b"over the wire")?;
/// server.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Server {
    node: NodeMemory,
    listener: TcpListener,
    addr: SocketAddr,
    latency: Duration,
    metrics: Option<Arc<ServerMetrics>>,
    admission: AdmissionConfig,
}

/// Handle to a server running on a background thread.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    node: NodeMemory,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds a server named `name` to `addr` (use port 0 for an ephemeral
    /// port).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(name: impl Into<String>, addr: impl ToSocketAddrs) -> Result<Server, RnError> {
        Server::with_node(NodeMemory::new(name), addr)
    }

    /// Binds a server exporting an existing [`NodeMemory`] — lets tests and
    /// the availability example pre-populate or share the exported memory.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn with_node(node: NodeMemory, addr: impl ToSocketAddrs) -> Result<Server, RnError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            node,
            listener,
            addr,
            latency: Duration::ZERO,
            metrics: None,
            admission: AdmissionConfig::default(),
        })
    }

    /// Installs metrics: per-opcode request counts and service latency,
    /// frame bytes in/out, connection churn, open sessions, and admission
    /// queue/window occupancy are registered in `registry` (see
    /// `docs/OBSERVABILITY.md` for the names). Without this call the
    /// request loop pays one `Option` branch per frame.
    pub fn with_metrics(mut self, registry: &perseas_obs::Registry) -> Server {
        self.metrics = Some(Arc::new(ServerMetrics::new(registry)));
        self
    }

    /// Injects `latency` between receiving each request and sending its
    /// response, modelling network round-trip time for deterministic
    /// benchmarking. The request is *applied* to memory immediately on
    /// admission — only its acknowledgement is delayed — so delays of
    /// posted requests overlap the way propagation delay does on a real
    /// link, while a client that waits for each answer pays `latency` per
    /// operation.
    pub fn with_request_latency(mut self, latency: Duration) -> Server {
        self.latency = latency;
        self
    }

    /// Overrides the shared admission limits (see [`AdmissionConfig`]).
    /// Tests shrink these to force [`RnError::Overloaded`] refusals
    /// deterministically.
    pub fn with_admission(mut self, admission: AdmissionConfig) -> Server {
        self.admission = admission;
        self
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The exported memory.
    pub fn node(&self) -> &NodeMemory {
        &self.node
    }

    /// Starts the event-driven request loop on one background thread.
    ///
    /// Every connection — and every multiplexed session within one — is
    /// served by this single thread; see the module docs for the
    /// admission-control and ordering guarantees.
    pub fn start(self) -> ServerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let addr = self.addr;
        let node = self.node.clone();
        let ev = EventLoop {
            listener: self.listener,
            conns: Vec::new(),
            next_admit: 0,
            ctx: Ctx {
                node: self.node,
                stop: stop.clone(),
                latency: self.latency,
                metrics: self.metrics,
                admission: self.admission,
                inflight: 0,
                queued: 0,
                scratch: vec![0; 64 * 1024],
            },
        };
        let thread = thread::spawn(move || ev.run());
        ServerHandle {
            addr,
            node,
            stop,
            thread: Some(thread),
        }
    }
}

impl ServerHandle {
    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The exported memory (inspectable from tests).
    pub fn node(&self) -> &NodeMemory {
        &self.node
    }

    /// Stops the server and joins its loop thread. In-flight responses are
    /// flushed (bounded by a grace period); requests not yet applied are
    /// dropped with their connections, so clients see the server as down
    /// rather than racing one last answer out of a dying handler. No
    /// self-connection trick is needed: the loop observes the stop flag
    /// directly.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn sci_error_msg(e: &SciError) -> String {
    e.to_string()
}

/// Shared event-loop state that is disjoint from the connection list, so
/// per-connection work can borrow one connection mutably alongside it.
struct Ctx {
    node: NodeMemory,
    stop: Arc<AtomicBool>,
    latency: Duration,
    metrics: Option<Arc<ServerMetrics>>,
    admission: AdmissionConfig,
    /// Admission slots held: applied requests whose responses are not yet
    /// fully written.
    inflight: usize,
    /// `Entry::Waiting` requests across all connections.
    queued: usize,
    /// Where `read` lands before the bytes join a connection's buffer.
    scratch: Vec<u8>,
}

impl Ctx {
    fn gauge_inflight(&self, d: i64) {
        if let Some(m) = self.metrics.as_deref() {
            m.mux_inflight.add(d);
        }
    }

    fn gauge_queue(&self, d: i64) {
        if let Some(m) = self.metrics.as_deref() {
            m.mux_queue_depth.add(d);
        }
    }

    fn gauge_sessions(&self, d: i64) {
        if let Some(m) = self.metrics.as_deref() {
            m.sessions.add(d);
        }
    }
}

/// One response owed to a connection, in receipt order. `Waiting` holds a
/// decoded request parked in the admission queue; `Ready` holds the full
/// wire frame of a produced response, due no earlier than its deadline.
/// `slot` marks entries holding an admission slot (released when the
/// frame finishes writing, or when the connection dies).
enum Entry {
    Waiting {
        req: Request,
        received: Instant,
        op: &'static str,
    },
    Ready {
        frame: Vec<u8>,
        due: Instant,
        written: usize,
        slot: bool,
    },
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    rpos: usize,
    queue: VecDeque<Entry>,
    /// `Entry::Waiting` count in `queue` (the first Waiting always has only
    /// Ready entries before it, so admitting it preserves apply order).
    waiting: usize,
    /// Sessions opened on this connection (for the sessions gauge).
    sessions: BTreeSet<u64>,
    eof: bool,
    dead: bool,
    errored: bool,
    write_blocked: bool,
}

struct EventLoop {
    listener: TcpListener,
    conns: Vec<Conn>,
    /// Round-robin cursor for fair admission across connections.
    next_admit: usize,
    ctx: Ctx,
}

impl EventLoop {
    fn run(mut self) {
        let _ = self.listener.set_nonblocking(true);
        let mut draining = false;
        let mut grace = Instant::now();
        loop {
            if !draining && self.ctx.stop.load(Ordering::SeqCst) {
                draining = true;
                grace = Instant::now() + self.ctx.latency + Duration::from_millis(500);
                self.begin_drain();
            }
            if draining {
                self.sweep(true);
                let done = self.conns.iter().all(|c| c.queue.is_empty());
                if done || Instant::now() >= grace {
                    break;
                }
            }
            let timeout = self.poll_timeout_ms();
            let mut fds = Vec::with_capacity(self.conns.len() + 1);
            if !draining {
                fds.push(readiness::PollFd {
                    fd: fd_of(&self.listener),
                    events: readiness::POLLIN,
                    revents: 0,
                });
            }
            for conn in &self.conns {
                let mut events = if draining { 0 } else { readiness::POLLIN };
                if conn.write_blocked {
                    events |= readiness::POLLOUT;
                }
                fds.push(readiness::PollFd {
                    fd: fd_of(&conn.stream),
                    events,
                    revents: 0,
                });
            }
            readiness::poll_fds(&mut fds, timeout);
            let conn_fds = if draining { &fds[..] } else { &fds[1..] };
            let readable: Vec<bool> = conn_fds.iter().map(|f| f.revents != 0).collect();
            if !draining {
                if fds[0].revents != 0 {
                    self.accept_ready();
                }
                for (i, was_ready) in readable.iter().enumerate() {
                    if *was_ready && i < self.conns.len() {
                        read_ready(&mut self.conns[i], &mut self.ctx);
                    }
                }
            }
            // Two admit/write rounds so slots released by completed writes
            // are re-used for queued requests within the same iteration.
            for _ in 0..2 {
                if !draining {
                    Self::admit_pump(&mut self.conns, &mut self.ctx, &mut self.next_admit);
                }
                let now = Instant::now();
                for conn in &mut self.conns {
                    write_pump(conn, &mut self.ctx, now);
                }
            }
            self.sweep(draining);
        }
        // Gauge hygiene for shared registries: account every survivor.
        for conn in std::mem::take(&mut self.conns) {
            release_conn(conn, &mut self.ctx);
        }
    }

    /// Milliseconds until the earliest pending response deadline, capped at
    /// a heartbeat that keeps the stop flag observed.
    fn poll_timeout_ms(&self) -> i32 {
        let mut t: u128 = 25;
        let now = Instant::now();
        for conn in &self.conns {
            if conn.write_blocked {
                continue; // POLLOUT will wake us.
            }
            if let Some(Entry::Ready { due, .. }) = conn.queue.front() {
                let ms = due.saturating_duration_since(now).as_millis();
                t = t.min(ms + u128::from(ms > 0));
            }
        }
        t as i32
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nonblocking(true);
                    let _ = stream.set_nodelay(true);
                    if let Some(m) = self.ctx.metrics.as_deref() {
                        m.connections_total.inc();
                        m.connections.add(1);
                    }
                    self.conns.push(Conn {
                        stream,
                        rbuf: Vec::new(),
                        rpos: 0,
                        queue: VecDeque::new(),
                        waiting: 0,
                        sessions: BTreeSet::new(),
                        eof: false,
                        dead: false,
                        errored: false,
                        write_blocked: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
    }

    /// Admits parked requests round-robin across connections while slots
    /// are free. Within one connection only the first `Waiting` entry is
    /// ever admitted, preserving per-connection apply order.
    fn admit_pump(conns: &mut [Conn], ctx: &mut Ctx, start: &mut usize) {
        if conns.is_empty() {
            return;
        }
        let n = conns.len();
        let mut progressed = true;
        while progressed && ctx.inflight < ctx.admission.max_inflight && ctx.queued > 0 {
            progressed = false;
            for k in 0..n {
                if ctx.inflight >= ctx.admission.max_inflight || ctx.queued == 0 {
                    break;
                }
                let i = (*start + k) % n;
                let conn = &mut conns[i];
                if conn.waiting == 0 || conn.dead {
                    continue;
                }
                let pos = conn
                    .queue
                    .iter()
                    .position(|e| matches!(e, Entry::Waiting { .. }))
                    .expect("waiting count matches queue");
                let placeholder = Entry::Ready {
                    frame: Vec::new(),
                    due: Instant::now(),
                    written: 0,
                    slot: false,
                };
                let taken = std::mem::replace(&mut conn.queue[pos], placeholder);
                let Entry::Waiting { req, received, op } = taken else {
                    unreachable!("position() returned a Waiting entry");
                };
                conn.waiting -= 1;
                ctx.queued -= 1;
                ctx.gauge_queue(-1);
                conn.queue[pos] = apply_now(conn, req, received, op, ctx);
                progressed = true;
            }
            *start = (*start + 1) % n;
        }
    }

    /// On shutdown: drop every request that has not been applied yet. The
    /// connections close without answering them, so clients observe an
    /// outage instead of a half-served window.
    fn begin_drain(&mut self) {
        for conn in &mut self.conns {
            if conn.waiting > 0 {
                conn.queue.retain(|e| matches!(e, Entry::Ready { .. }));
                self.ctx.queued -= conn.waiting;
                self.ctx.gauge_queue(-(conn.waiting as i64));
                conn.waiting = 0;
            }
            conn.rbuf.clear();
            conn.rpos = 0;
        }
    }

    /// Removes finished connections: dead ones immediately, EOF'd ones once
    /// their pending responses are flushed. During drain any empty queue
    /// retires its connection.
    fn sweep(&mut self, draining: bool) {
        let mut i = 0;
        while i < self.conns.len() {
            let c = &self.conns[i];
            let remove = c.dead || (c.queue.is_empty() && (c.eof || draining));
            if remove {
                let conn = self.conns.swap_remove(i);
                release_conn(conn, &mut self.ctx);
            } else {
                i += 1;
            }
        }
    }
}

/// Drains the socket's receive buffer and parses complete frames.
fn read_ready(conn: &mut Conn, ctx: &mut Ctx) {
    loop {
        match conn.stream.read(&mut ctx.scratch) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&ctx.scratch[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                conn.errored = true;
                break;
            }
        }
    }
    parse_frames(conn, ctx);
}

/// Splits complete frames out of the connection's read buffer, enforcing
/// the same length and CRC rules as [`read_frame`]: a violation kills this
/// connection (and only this connection).
fn parse_frames(conn: &mut Conn, ctx: &mut Ctx) {
    // The buffer steps out of the connection while frames are cut from
    // it, so each body is checked and decoded where it lies.
    let rbuf = std::mem::take(&mut conn.rbuf);
    while !conn.dead && !ctx.stop.load(Ordering::SeqCst) {
        let buf = &rbuf[conn.rpos..];
        if buf.len() < 4 {
            break;
        }
        let len = u32::from_le_bytes(buf[..4].try_into().expect("4-byte slice")) as usize;
        if len > MAX_FRAME {
            conn.dead = true;
            conn.errored = true;
            break;
        }
        if buf.len() < len + 8 {
            break;
        }
        let body = &buf[4..4 + len];
        let crc = u32::from_le_bytes(buf[4 + len..len + 8].try_into().expect("4-byte slice"));
        if crc != crc32(body) {
            conn.dead = true;
            conn.errored = true;
            break;
        }
        conn.rpos += len + 8;
        ingest(conn, body, ctx);
    }
    conn.rbuf = rbuf;
    if conn.rpos > 0 && (conn.rpos >= conn.rbuf.len() || conn.rpos > 64 * 1024) {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
}

/// The admission decision for one received frame: apply now if a slot is
/// free and nothing earlier is parked, park it if the queue has room, else
/// refuse it. Every path enqueues exactly one entry at receipt position,
/// so responses stay in request order.
fn ingest(conn: &mut Conn, body: &[u8], ctx: &mut Ctx) {
    let received = Instant::now();
    if let Some(m) = ctx.metrics.as_deref() {
        m.bytes_in.add(body.len() as u64);
    }
    let entry = match Request::decode(body) {
        Err(e) => ready_response(Response::Err(e.to_string()), "decode_error", received, ctx),
        Ok(req) => {
            let op = op_name(&req);
            if conn.waiting == 0 && ctx.inflight < ctx.admission.max_inflight {
                apply_now(conn, req, received, op, ctx)
            } else if ctx.queued < ctx.admission.max_queue {
                ctx.queued += 1;
                ctx.gauge_queue(1);
                conn.waiting += 1;
                Entry::Waiting { req, received, op }
            } else {
                if let Some(m) = ctx.metrics.as_deref() {
                    m.admission_refusals.inc();
                }
                ready_response(refusal_for(&req), op, received, ctx)
            }
        }
    };
    conn.queue.push_back(entry);
}

/// Applies `req` to memory and builds its `Ready` response entry, holding
/// an admission slot until the frame is fully written.
fn apply_now(
    conn: &mut Conn,
    req: Request,
    received: Instant,
    op: &'static str,
    ctx: &mut Ctx,
) -> Entry {
    track_sessions(conn, &req, ctx);
    let resp = handle_request(req, &ctx.node, &ctx.stop);
    let mut entry = ready_response(resp, op, received, ctx);
    if let Entry::Ready { slot, .. } = &mut entry {
        *slot = true;
    }
    ctx.inflight += 1;
    ctx.gauge_inflight(1);
    entry
}

/// Encodes `resp` into a slotless `Ready` entry due after the injected
/// latency, recording the per-opcode metrics.
fn ready_response(resp: Response, op: &'static str, received: Instant, ctx: &Ctx) -> Entry {
    let body = resp.encode();
    if let Some(m) = ctx.metrics.as_deref() {
        m.bytes_out.add(body.len() as u64);
        let o = m.op(op);
        o.requests.inc();
        o.latency.record_wall(received.elapsed());
    }
    Entry::Ready {
        frame: frame_bytes(&body),
        due: received + ctx.latency,
        written: 0,
        slot: false,
    }
}

/// Session bookkeeping on apply: a `Mux` frame opens its session on first
/// sight; a `Mux`-wrapped `SessClose` retires it.
fn track_sessions(conn: &mut Conn, req: &Request, ctx: &Ctx) {
    if let Request::Mux { session, inner, .. } = req {
        if matches!(**inner, Request::SessClose) {
            if conn.sessions.remove(session) {
                ctx.gauge_sessions(-1);
            }
        } else if conn.sessions.insert(*session) {
            ctx.gauge_sessions(1);
        }
    }
}

/// An admission refusal shaped like its request, so a client can route
/// it by session and seq.
fn refusal_for(req: &Request) -> Response {
    match req {
        Request::Mux { session, seq, .. } => Response::Mux {
            session: *session,
            seq: *seq,
            inner: Box::new(Response::Overloaded),
        },
        Request::Seq { seq, .. } => Response::Tagged {
            seq: *seq,
            inner: Box::new(Response::Overloaded),
        },
        _ => Response::Overloaded,
    }
}

/// Writes due responses front-to-back until the socket would block. The
/// admission slot of a fully-written response is released here. During
/// drain, deadlines are still honored (they model propagation delay) but
/// parked entries no longer exist.
fn write_pump(conn: &mut Conn, ctx: &mut Ctx, now: Instant) {
    conn.write_blocked = false;
    while !conn.dead {
        let Some(front) = conn.queue.front_mut() else {
            break;
        };
        let Entry::Ready {
            frame,
            due,
            written,
            slot,
        } = front
        else {
            break;
        };
        if *due > now {
            break;
        }
        match conn.stream.write(&frame[*written..]) {
            Ok(0) => {
                conn.dead = true;
                conn.errored = true;
            }
            Ok(n) => {
                *written += n;
                if *written == frame.len() {
                    if *slot {
                        ctx.inflight -= 1;
                        ctx.gauge_inflight(-1);
                    }
                    conn.queue.pop_front();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.write_blocked = true;
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                conn.errored = true;
            }
        }
    }
}

/// Returns a connection's shared-state accounting on removal: parked
/// requests leave the queue count, held slots return to the pool, its
/// sessions close.
fn release_conn(conn: Conn, ctx: &mut Ctx) {
    let mut waiting = 0usize;
    let mut slots = 0usize;
    for e in &conn.queue {
        match e {
            Entry::Waiting { .. } => waiting += 1,
            Entry::Ready { slot: true, .. } => slots += 1,
            Entry::Ready { .. } => {}
        }
    }
    ctx.queued -= waiting;
    ctx.inflight -= slots;
    if waiting > 0 {
        ctx.gauge_queue(-(waiting as i64));
    }
    if slots > 0 {
        ctx.gauge_inflight(-(slots as i64));
    }
    if !conn.sessions.is_empty() {
        ctx.gauge_sessions(-(conn.sessions.len() as i64));
    }
    if let Some(m) = ctx.metrics.as_deref() {
        m.connections.add(-1);
        if conn.errored {
            m.connections_dropped.inc();
        }
    }
}

/// The metrics label for a request's opcode. `Seq` and `Mux` wrappers are
/// attributed to the operation they carry.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Seq { inner, .. } | Request::Mux { inner, .. } => op_name(inner),
        Request::Malloc { .. } => "malloc",
        Request::Free { .. } => "free",
        Request::Write { .. } => "write",
        Request::Read { .. } => "read",
        Request::ReadV { .. } => "read_v",
        Request::WriteV { .. } => "write_v",
        Request::Connect { .. } => "connect",
        Request::Info { .. } => "info",
        Request::Name => "name",
        Request::Ping => "ping",
        Request::Shutdown => "shutdown",
        Request::SessClose => "sess_close",
    }
}

fn handle_request(req: Request, node: &NodeMemory, stop: &AtomicBool) -> Response {
    match req {
        Request::Seq { seq, inner } => Response::Tagged {
            seq,
            inner: Box::new(handle_request(*inner, node, stop)),
        },
        Request::Mux {
            session,
            seq,
            inner,
        } => Response::Mux {
            session,
            seq,
            inner: Box::new(handle_request(*inner, node, stop)),
        },
        // Session retirement is connection-level bookkeeping (see
        // `track_sessions`); the memory side has nothing to undo.
        Request::SessClose => Response::Ok,
        Request::Malloc { len, tag } => match node.export_segment(len as usize, tag) {
            Ok(id) => segment_response(node, id),
            Err(e) => Response::Err(sci_error_msg(&e)),
        },
        Request::Free { seg } => match node.free_segment(SegmentId::from_raw(seg)) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Err(sci_error_msg(&e)),
        },
        Request::Write { seg, offset, data } => {
            match node.write(SegmentId::from_raw(seg), offset as usize, &data) {
                Ok(()) => Response::Ok,
                Err(e) => Response::Err(sci_error_msg(&e)),
            }
        }
        Request::Read { seg, offset, len } => {
            // Bound the allocation before trusting the wire: a hostile or
            // corrupt length must not abort the server.
            if len > MAX_FRAME as u64 {
                return Response::Err(format!("read of {len} bytes exceeds frame limit"));
            }
            let mut buf = vec![0u8; len as usize];
            match node.read(SegmentId::from_raw(seg), offset as usize, &mut buf) {
                Ok(()) => Response::Data(buf),
                Err(e) => Response::Err(sci_error_msg(&e)),
            }
        }
        Request::ReadV { reads } => {
            // The whole batch is served here, between any two writes from
            // other sessions — that single-threaded cut is the atomicity
            // a snapshot-taking replica relies on. Bound the total
            // allocation before trusting the wire.
            let total: u64 = reads.iter().map(|&(_, _, len)| len).sum();
            if total > MAX_FRAME as u64 {
                return Response::Err(format!(
                    "vectored read of {total} bytes exceeds frame limit"
                ));
            }
            let mut bufs = Vec::with_capacity(reads.len());
            for (seg, offset, len) in reads {
                let mut buf = vec![0u8; len as usize];
                if let Err(e) = node.read(SegmentId::from_raw(seg), offset as usize, &mut buf) {
                    return Response::Err(sci_error_msg(&e));
                }
                bufs.push(buf);
            }
            Response::DataV(bufs)
        }
        Request::WriteV { ranges } => {
            // Ranges apply in order; the first failure stops the batch and
            // leaves the earlier ranges applied (torn-prefix semantics, as
            // a real gathered burst would behave).
            for (seg, offset, data) in &ranges {
                if let Err(e) = node.write(SegmentId::from_raw(*seg), *offset as usize, data) {
                    return Response::Err(sci_error_msg(&e));
                }
            }
            Response::Ok
        }
        Request::Connect { tag } => match node.find_by_tag(tag) {
            Some(info) => segment_response(node, info.id),
            None => Response::Err(format!("no segment with tag {tag}")),
        },
        Request::Info { seg } => segment_response(node, SegmentId::from_raw(seg)),
        Request::Name => Response::Name(node.name()),
        Request::Ping => Response::Ok,
        Request::Shutdown => {
            stop.store(true, Ordering::SeqCst);
            Response::Ok
        }
    }
}

fn segment_response(node: &NodeMemory, id: SegmentId) -> Response {
    match node.segment_info(id) {
        Ok(info) => Response::Segment {
            seg: info.id.as_raw(),
            len: info.len as u64,
            tag: info.tag,
            base_addr: info.base_addr,
        },
        Err(e) => Response::Err(sci_error_msg(&e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_frame, write_frame};
    use crate::{RemoteMemory, TcpRemote};

    #[test]
    fn server_reports_name_and_serves_requests() {
        let server = Server::bind("wire-node", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        assert_eq!(c.fetch_name().unwrap(), "wire-node");
        let seg = c.remote_malloc(128, 5).unwrap();
        c.remote_write(seg.id, 3, &[7, 8, 9]).unwrap();
        let mut buf = [0u8; 3];
        c.remote_read(seg.id, 3, &mut buf).unwrap();
        assert_eq!(buf, [7, 8, 9]);
        server.shutdown();
    }

    #[test]
    fn two_clients_share_the_node() {
        let server = Server::bind("shared", "127.0.0.1:0").unwrap().start();
        let mut a = TcpRemote::connect(server.addr()).unwrap();
        let mut b = TcpRemote::connect(server.addr()).unwrap();
        let seg = a.remote_malloc(16, 9).unwrap();
        a.remote_write(seg.id, 0, b"hello").unwrap();
        // Client b reconnects by tag — the availability scenario.
        let found = b.connect_segment(9).unwrap();
        let mut buf = [0u8; 5];
        b.remote_read(found.id, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        server.shutdown();
    }

    #[test]
    fn remote_errors_are_reported() {
        let server = Server::bind("err", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(8, 0).unwrap();
        let err = c.remote_write(seg.id, 6, &[0; 8]).unwrap_err();
        assert!(matches!(err, RnError::Remote(_)));
        let err = c.connect_segment(404).unwrap_err();
        assert!(matches!(err, RnError::TagNotFound(404)));
        server.shutdown();
    }

    #[test]
    fn shutdown_without_any_connection_returns_promptly() {
        // The old accept loop needed a dummy self-connection to unblock;
        // the event loop must exit on the stop flag alone.
        let server = Server::bind("idle", "127.0.0.1:0").unwrap().start();
        let t0 = Instant::now();
        server.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn admission_overflow_is_refused_in_order() {
        // One slot, two queue places: of five pipelined pings the first
        // three are served and the last two refused, all in seq order.
        // The bare `Seq` frame is still answered for compatibility.
        let server = Server::bind("narrow", "127.0.0.1:0")
            .unwrap()
            .with_admission(AdmissionConfig {
                max_inflight: 1,
                max_queue: 2,
            })
            .with_request_latency(Duration::from_millis(150))
            .start();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        for seq in 0..5u64 {
            let ping = Request::Seq {
                seq,
                inner: Box::new(Request::Ping),
            };
            write_frame(&mut s, &ping.encode()).unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            let body = read_frame(&mut s).unwrap();
            match Response::decode(&body).unwrap() {
                Response::Tagged { seq, inner } => got.push((seq, *inner)),
                other => panic!("unexpected response {other:?}"),
            }
        }
        let seqs: Vec<u64> = got.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4], "responses out of order");
        assert!(matches!(got[0].1, Response::Ok));
        assert!(matches!(got[1].1, Response::Ok));
        assert!(matches!(got[2].1, Response::Ok));
        assert!(matches!(got[3].1, Response::Overloaded));
        assert!(matches!(got[4].1, Response::Overloaded));
        server.shutdown();
    }

    #[test]
    fn shutdown_request_is_acked_then_connection_closes() {
        let server = Server::bind("bye", "127.0.0.1:0").unwrap().start();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        write_frame(&mut s, &Request::Shutdown.encode()).unwrap();
        let body = read_frame(&mut s).unwrap();
        assert!(matches!(Response::decode(&body).unwrap(), Response::Ok));
        // The fixed post-shutdown window: a later request is never served.
        // Either the server has already closed the socket and the write
        // itself is refused, or the request goes out and no answer comes.
        let refused =
            write_frame(&mut s, &Request::Ping.encode()).is_err() || read_frame(&mut s).is_err();
        assert!(refused, "served a request after stop");
        server.shutdown();
    }

    #[test]
    fn mux_sessions_are_tracked_and_interleaved() {
        let registry = perseas_obs::Registry::new();
        let server = Server::bind("mux", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&registry)
            .start();
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let malloc = Request::Malloc { len: 64, tag: 1 };
        write_frame(&mut s, &crate::protocol::encode_mux(1, 0, &malloc)).unwrap();
        write_frame(&mut s, &crate::protocol::encode_mux(2, 0, &Request::Ping)).unwrap();
        let mut seg = 0;
        for want in [(1u64, 0u64), (2, 0)] {
            let body = read_frame(&mut s).unwrap();
            match Response::decode(&body).unwrap() {
                Response::Mux {
                    session,
                    seq,
                    inner,
                } => {
                    assert_eq!((session, seq), want);
                    if let Response::Segment { seg: id, .. } = *inner {
                        seg = id;
                    }
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        assert!(registry.render().contains("perseas_server_sessions 2"));
        // Write through session 1, read through session 2: same memory.
        let data = b"cross-session".to_vec();
        write_frame(
            &mut s,
            &crate::protocol::encode_write_mux(1, 1, seg, 0, &data),
        )
        .unwrap();
        let read = Request::Read {
            seg,
            offset: 0,
            len: data.len() as u64,
        };
        write_frame(&mut s, &crate::protocol::encode_mux(2, 1, &read)).unwrap();
        let _ack = read_frame(&mut s).unwrap();
        let body = read_frame(&mut s).unwrap();
        match Response::decode(&body).unwrap() {
            Response::Mux { session, inner, .. } => {
                assert_eq!(session, 2);
                assert_eq!(*inner, Response::Data(data));
            }
            other => panic!("unexpected response {other:?}"),
        }
        // Closing a session drops the gauge.
        write_frame(
            &mut s,
            &crate::protocol::encode_mux(1, 2, &Request::SessClose),
        )
        .unwrap();
        let _ = read_frame(&mut s).unwrap();
        assert!(registry.render().contains("perseas_server_sessions 1"));
        server.shutdown();
    }
}
