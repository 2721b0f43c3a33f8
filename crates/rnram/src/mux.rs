//! Client-side session multiplexing: many logical [`RemoteMemory`]
//! sessions over one shared pipelined TCP connection.
//!
//! The paper's deployment model has *many* workstation clients per memory
//! server; giving each its own socket multiplies file descriptors and
//! server threads. [`SessionMux`] owns one socket and hands out
//! [`MuxSession`] handles — each a full [`RemoteMemory`] with its own
//! sequence space, posted-write window, and refusal queue — whose frames
//! are wrapped in `Mux { session, seq, .. }` (see `docs/PROTOCOL.md`).
//!
//! Concurrency model: one mutex guards the shared socket. The thread
//! holding it while awaiting its own response *routes* every frame it
//! reads — acks of other sessions' posted writes resolve against their
//! windows. Since an RPC holds the lock until its answer arrives, at most
//! one RPC response can ever be in flight, so no parked-response storage
//! is needed; per-session FIFO is the server's ordering guarantee.
//!
//! A dead socket poisons the whole mux: every session's operation returns
//! an unavailable error, and each session's outstanding window stays
//! visible through `in_flight()` so [`crate::ReconnectingRemote`] reports
//! the lost window instead of silently re-dialing. Dropping a
//! [`MuxSession`] sends a best-effort `SessClose` so the server retires
//! the session from its gauge; its straggler acks are ignored by seqless
//! routing of unknown sessions.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use perseas_sci::SegmentId;

use crate::protocol::{
    encode_mux, encode_write_mux, encode_write_v_mux, read_frame, write_frame, Request, Response,
};
use crate::tcp::{env_enables_pipeline, PipelineConfig};
use crate::{FlushStats, RemoteMemory, RemoteSegment, RnError, TcpRemote};

/// Environment variable read by [`AnyRemote::connect_auto`]: set it to
/// `1`, `true`, `on`, or `yes` to multiplex logical sessions over shared
/// sockets (one per server address, process-wide); anything else — or
/// unset — selects a dedicated [`TcpRemote`] per connection (whose mode
/// is in turn governed by [`crate::PIPELINE_ENV`]).
pub const MUX_ENV: &str = "PERSEAS_TCP_MUX";

fn lock(io: &Mutex<MuxIo>) -> MutexGuard<'_, MuxIo> {
    io.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dead_err() -> RnError {
    RnError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "multiplexed connection is dead",
    ))
}

fn unexpected(resp: Response) -> RnError {
    RnError::Protocol(format!("unexpected response: {resp:?}"))
}

/// A typed refusal owed to a posted write, surfaced at the flush barrier.
#[derive(Debug)]
enum Refusal {
    Remote(String),
    Overloaded,
}

impl Refusal {
    fn into_error(self) -> RnError {
        match self {
            Refusal::Remote(m) => RnError::Remote(m),
            Refusal::Overloaded => RnError::Overloaded,
        }
    }
}

/// Per-session pipelining state, the mux twin of the dedicated
/// connection's window bookkeeping.
#[derive(Debug)]
struct SessState {
    cfg: PipelineConfig,
    next_seq: u64,
    /// `(seq, payload_bytes)` of posted writes, oldest first.
    outstanding: VecDeque<(u64, usize)>,
    outstanding_bytes: usize,
    /// Typed refusals earned by posted writes, one surfaced per flush.
    refusals: VecDeque<Refusal>,
}

/// The shared socket and the routing table over it.
#[derive(Debug)]
struct MuxIo {
    stream: TcpStream,
    peer: SocketAddr,
    dead: bool,
    sessions: HashMap<u64, SessState>,
    next_session: u64,
}

impl MuxIo {
    fn take_seq(&mut self, session: u64) -> u64 {
        let st = self.sessions.get_mut(&session).expect("open session");
        let seq = st.next_seq;
        st.next_seq += 1;
        seq
    }

    fn send(&mut self, body: &[u8]) -> Result<(), RnError> {
        if self.dead {
            return Err(dead_err());
        }
        write_frame(&mut self.stream, body).inspect_err(|_| self.dead = true)
    }

    fn read_mux(&mut self) -> Result<(u64, u64, Response), RnError> {
        let body = read_frame(&mut self.stream).inspect_err(|_| self.dead = true)?;
        match Response::decode(&body) {
            Ok(Response::Mux {
                session,
                seq,
                inner,
            }) => Ok((session, seq, *inner)),
            Ok(other) => {
                self.dead = true;
                Err(RnError::Protocol(format!(
                    "expected a mux response, got {other:?}"
                )))
            }
            Err(e) => {
                self.dead = true;
                Err(e)
            }
        }
    }

    /// Reads one frame and routes it: acks of posted writes resolve
    /// against their session's window (refusals queued for that session's
    /// flush); everything else — necessarily the caller's awaited RPC
    /// answer, or a straggler of a closed session (`None`) — is returned.
    fn route_one(&mut self) -> Result<Option<(u64, u64, Response)>, RnError> {
        let (session, seq, inner) = self.read_mux()?;
        let Some(st) = self.sessions.get_mut(&session) else {
            // A closed session's stragglers, including its SessClose ack.
            return Ok(None);
        };
        if let Some(&(front, bytes)) = st.outstanding.front() {
            if seq == front {
                st.outstanding.pop_front();
                st.outstanding_bytes -= bytes;
                match inner {
                    Response::Ok => {}
                    Response::Err(m) => st.refusals.push_back(Refusal::Remote(m)),
                    Response::Overloaded => st.refusals.push_back(Refusal::Overloaded),
                    other => {
                        self.dead = true;
                        return Err(RnError::Protocol(format!(
                            "unexpected posted-write ack payload: {other:?}"
                        )));
                    }
                }
                return Ok(None);
            }
        }
        Ok(Some((session, seq, inner)))
    }

    /// One synchronous request/response exchange for `session`, routing
    /// other sessions' acks along the way.
    fn rpc(&mut self, session: u64, req: &Request) -> Result<Response, RnError> {
        if self.dead {
            return Err(dead_err());
        }
        let seq = self.take_seq(session);
        self.send(&encode_mux(session, seq, req))?;
        loop {
            match self.route_one()? {
                None => {}
                Some((s, q, resp)) if s == session && q == seq => return Ok(resp),
                Some((s, q, _)) => {
                    self.dead = true;
                    return Err(RnError::Protocol(format!(
                        "response for session {s} seq {q} while awaiting \
                         session {session} seq {seq}"
                    )));
                }
            }
        }
    }

    /// Posts an already-encoded, mux-wrapped write without waiting for
    /// its acknowledgement, draining acks (of any session) until this
    /// session's window has room.
    fn post(&mut self, session: u64, body: &[u8], seq: u64, bytes: usize) -> Result<(), RnError> {
        if self.dead {
            return Err(dead_err());
        }
        loop {
            let st = self.sessions.get(&session).expect("open session");
            let fits = st.outstanding.len() < st.cfg.max_ops
                && (st.outstanding.is_empty() || st.outstanding_bytes + bytes <= st.cfg.max_bytes);
            if fits {
                break;
            }
            if let Some((s, q, _)) = self.route_one()? {
                self.dead = true;
                return Err(RnError::Protocol(format!(
                    "unsolicited response for session {s} seq {q}"
                )));
            }
        }
        self.send(body)?;
        let st = self.sessions.get_mut(&session).expect("open session");
        st.outstanding.push_back((seq, bytes));
        st.outstanding_bytes += bytes;
        Ok(())
    }

    /// The ack barrier for one session: drains until its window is empty,
    /// then surfaces one queued refusal. On a socket error the window
    /// stays recorded so `in_flight()` keeps reporting the lost writes.
    fn flush_session(&mut self, session: u64) -> Result<FlushStats, RnError> {
        let st = self.sessions.get(&session).expect("open session");
        let stats = FlushStats {
            posted: st.outstanding.len(),
            bytes: st.outstanding_bytes,
        };
        while !self.sessions[&session].outstanding.is_empty() {
            if self.dead {
                return Err(dead_err());
            }
            if let Some((s, q, _)) = self.route_one()? {
                self.dead = true;
                return Err(RnError::Protocol(format!(
                    "unsolicited response for session {s} seq {q} during flush"
                )));
            }
        }
        let st = self.sessions.get_mut(&session).expect("open session");
        if let Some(r) = st.refusals.pop_front() {
            return Err(r.into_error());
        }
        Ok(stats)
    }

    /// Retires a session: its straggler acks will be ignored, and the
    /// server is told (best-effort) so its sessions gauge drops.
    fn close_session(&mut self, session: u64) {
        if let Some(st) = self.sessions.remove(&session) {
            if !self.dead {
                let _ = self.send(&encode_mux(session, st.next_seq, &Request::SessClose));
            }
        }
    }
}

/// One shared multiplexed connection; hand out per-session
/// [`RemoteMemory`] handles with [`SessionMux::session`].
#[derive(Debug, Clone)]
pub struct SessionMux {
    io: Arc<Mutex<MuxIo>>,
}

impl SessionMux {
    /// Dials a dedicated multiplexed connection to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<SessionMux, RnError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(SessionMux {
            io: Arc::new(Mutex::new(MuxIo {
                stream,
                peer,
                dead: false,
                sessions: HashMap::new(),
                next_session: 0,
            })),
        })
    }

    /// Returns the process-wide shared mux for `addr`, dialing one if none
    /// exists (or if the cached one is dead). This is how
    /// `ConcurrentPerseas` threads and `ShardedPerseas` shard connections
    /// end up sharing sockets instead of multiplying them.
    ///
    /// # Errors
    ///
    /// Propagates socket and address-resolution errors.
    pub fn shared(addr: impl ToSocketAddrs) -> Result<SessionMux, RnError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            RnError::Io(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ))
        })?;
        let reg = mux_registry();
        let mut reg = reg.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = reg.get(&addr).and_then(Weak::upgrade) {
            if !lock(&existing).dead {
                return Ok(SessionMux { io: existing });
            }
        }
        let mux = SessionMux::connect(addr)?;
        reg.insert(addr, Arc::downgrade(&mux.io));
        Ok(mux)
    }

    /// Opens a logical session with the default posted-write window.
    pub fn session(&self) -> MuxSession {
        self.session_with(PipelineConfig::default())
    }

    /// Opens a logical session with an explicit window configuration.
    pub fn session_with(&self, cfg: PipelineConfig) -> MuxSession {
        let mut g = lock(&self.io);
        let session = g.next_session;
        g.next_session += 1;
        g.sessions.insert(
            session,
            SessState {
                cfg: PipelineConfig {
                    max_ops: cfg.max_ops.max(1),
                    max_bytes: cfg.max_bytes.max(1),
                },
                next_seq: 0,
                outstanding: VecDeque::new(),
                outstanding_bytes: 0,
                refusals: VecDeque::new(),
            },
        );
        MuxSession {
            io: self.io.clone(),
            session,
            cached_name: None,
        }
    }

    /// The server address the shared socket is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        lock(&self.io).peer
    }

    /// Whether the shared socket has failed (every session sees errors).
    pub fn is_dead(&self) -> bool {
        lock(&self.io).dead
    }

    /// Currently open logical sessions on this connection.
    pub fn open_sessions(&self) -> usize {
        lock(&self.io).sessions.len()
    }
}

/// The process-wide `addr -> shared mux` table behind
/// [`SessionMux::shared`]. Weak entries let an unused mux close its
/// socket; a dead one is replaced on the next lookup.
fn mux_registry() -> &'static Mutex<HashMap<SocketAddr, Weak<Mutex<MuxIo>>>> {
    static REG: OnceLock<Mutex<HashMap<SocketAddr, Weak<Mutex<MuxIo>>>>> = OnceLock::new();
    REG.get_or_init(Mutex::default)
}

/// One logical client session multiplexed over a shared socket: a full
/// [`RemoteMemory`] with its own sequence space, posted-write window, and
/// refusal queue. Created by [`SessionMux::session`]; dropping it retires
/// the session on the server.
#[derive(Debug)]
pub struct MuxSession {
    io: Arc<Mutex<MuxIo>>,
    session: u64,
    cached_name: Option<String>,
}

impl MuxSession {
    fn guard(&self) -> MutexGuard<'_, MuxIo> {
        lock(&self.io)
    }

    /// This session's id on the wire.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// The server address of the shared socket.
    pub fn peer_addr(&self) -> SocketAddr {
        self.guard().peer
    }

    /// Whether the shared socket's peer has hung up (see
    /// [`crate::tcp::peer_hung_up`]); if so the mux is marked dead, so the
    /// next [`SessionMux::shared`] dials a fresh one.
    pub(crate) fn hung_up(&self) -> bool {
        let mut g = self.guard();
        g.dead = g.dead || crate::tcp::peer_hung_up(&g.stream);
        g.dead
    }

    /// Sends a liveness probe through this session.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn ping(&mut self) -> Result<(), RnError> {
        match self.guard().rpc(self.session, &Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Fetches and caches the server's node name.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn fetch_name(&mut self) -> Result<String, RnError> {
        let resp = self.guard().rpc(self.session, &Request::Name)?;
        match resp {
            Response::Name(n) => {
                self.cached_name = Some(n.clone());
                Ok(n)
            }
            Response::Err(m) => Err(RnError::Remote(m)),
            other => Err(unexpected(other)),
        }
    }

    fn expect_segment(&mut self, req: &Request) -> Result<RemoteSegment, RnError> {
        match self.guard().rpc(self.session, req)? {
            Response::Segment {
                seg,
                len,
                tag,
                base_addr,
            } => Ok(RemoteSegment {
                id: SegmentId::from_raw(seg),
                len: len as usize,
                tag,
                base_addr,
            }),
            Response::Err(m) => Err(RnError::Remote(m)),
            Response::Overloaded => Err(RnError::Overloaded),
            other => Err(unexpected(other)),
        }
    }
}

impl Drop for MuxSession {
    fn drop(&mut self) {
        self.guard().close_session(self.session);
    }
}

impl RemoteMemory for MuxSession {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.expect_segment(&Request::Malloc {
            len: len as u64,
            tag,
        })
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        match self
            .guard()
            .rpc(self.session, &Request::Free { seg: seg.as_raw() })?
        {
            Response::Ok => Ok(()),
            Response::Err(m) => Err(RnError::Remote(m)),
            Response::Overloaded => Err(RnError::Overloaded),
            other => Err(unexpected(other)),
        }
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        // Posted, like the dedicated pipelined transport: the frame is
        // encoded straight from the borrowed payload and confirmed at the
        // flush barrier.
        let mut g = self.guard();
        if g.dead {
            return Err(dead_err());
        }
        let seq = g.take_seq(self.session);
        let body = encode_write_mux(self.session, seq, seg.as_raw(), offset as u64, data);
        g.post(self.session, &body, seq, data.len())
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        let ranges: Vec<(u64, u64, &[u8])> = writes
            .iter()
            .map(|&(seg, offset, data)| (seg.as_raw(), offset as u64, data))
            .collect();
        let mut g = self.guard();
        if g.dead {
            return Err(dead_err());
        }
        let seq = g.take_seq(self.session);
        let body = encode_write_v_mux(self.session, seq, &ranges);
        let bytes = ranges.iter().map(|(_, _, d)| d.len()).sum();
        g.post(self.session, &body, seq, bytes)
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        self.guard().flush_session(self.session)
    }

    fn in_flight(&self) -> usize {
        self.guard()
            .sessions
            .get(&self.session)
            .map_or(0, |st| st.outstanding.len())
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        match self.guard().rpc(
            self.session,
            &Request::Read {
                seg: seg.as_raw(),
                offset: offset as u64,
                len: buf.len() as u64,
            },
        )? {
            Response::Data(d) if d.len() == buf.len() => {
                buf.copy_from_slice(&d);
                Ok(())
            }
            Response::Data(d) => Err(RnError::Protocol(format!(
                "short read: wanted {} bytes, got {}",
                buf.len(),
                d.len()
            ))),
            Response::Err(m) => Err(RnError::Remote(m)),
            Response::Overloaded => Err(RnError::Overloaded),
            other => Err(unexpected(other)),
        }
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        match self.guard().rpc(
            self.session,
            &Request::ReadV {
                reads: reads
                    .iter()
                    .map(|&(seg, offset, len)| (seg.as_raw(), offset as u64, len as u64))
                    .collect(),
            },
        )? {
            Response::DataV(bufs) => crate::tcp::check_data_v(reads, bufs),
            Response::Err(m) => Err(RnError::Remote(m)),
            Response::Overloaded => Err(RnError::Overloaded),
            other => Err(unexpected(other)),
        }
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.expect_segment(&Request::Connect { tag })
            .map_err(|e| match e {
                RnError::Remote(_) => RnError::TagNotFound(tag),
                other => other,
            })
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.expect_segment(&Request::Info { seg: seg.as_raw() })
    }

    fn node_name(&self) -> String {
        self.cached_name
            .clone()
            .unwrap_or_else(|| format!("mux://{}#{}", self.guard().peer, self.session))
    }
}

/// Whether [`MUX_ENV`] selects the multiplexed transport.
pub(crate) fn env_enables_mux() -> bool {
    env_enables_pipeline(std::env::var(MUX_ENV).ok().as_deref())
}

/// Either transport behind one [`RemoteMemory`] value: a dedicated
/// [`TcpRemote`] (synchronous or pipelined, per [`crate::PIPELINE_ENV`])
/// or a [`MuxSession`] on the process-wide shared mux (per [`MUX_ENV`]).
/// The hook the test suites use to run the same scenarios over every
/// transport.
#[derive(Debug)]
pub enum AnyRemote {
    /// A dedicated socket.
    Tcp(TcpRemote),
    /// A logical session on a shared multiplexed socket.
    Mux(MuxSession),
}

impl AnyRemote {
    /// Connects in the mode selected by [`MUX_ENV`] and
    /// [`crate::PIPELINE_ENV`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_auto(addr: impl ToSocketAddrs) -> Result<AnyRemote, RnError> {
        if env_enables_mux() {
            Ok(AnyRemote::Mux(SessionMux::shared(addr)?.session()))
        } else {
            Ok(AnyRemote::Tcp(TcpRemote::connect_auto(addr)?))
        }
    }

    /// Whether this handle rides a shared multiplexed socket.
    pub fn is_mux(&self) -> bool {
        matches!(self, AnyRemote::Mux(_))
    }

    pub(crate) fn hung_up(&self) -> bool {
        match self {
            AnyRemote::Tcp(c) => c.hung_up(),
            AnyRemote::Mux(c) => c.hung_up(),
        }
    }

    /// Fetches the server's node name over the wire (and caches it as
    /// the connection's [`RemoteMemory::node_name`]).
    ///
    /// # Errors
    ///
    /// Propagates transport errors.
    pub fn fetch_name(&mut self) -> Result<String, RnError> {
        match self {
            AnyRemote::Tcp(c) => c.fetch_name(),
            AnyRemote::Mux(c) => c.fetch_name(),
        }
    }
}

impl RemoteMemory for AnyRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        match self {
            AnyRemote::Tcp(c) => c.remote_malloc(len, tag),
            AnyRemote::Mux(c) => c.remote_malloc(len, tag),
        }
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        match self {
            AnyRemote::Tcp(c) => c.remote_free(seg),
            AnyRemote::Mux(c) => c.remote_free(seg),
        }
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        match self {
            AnyRemote::Tcp(c) => c.remote_write(seg, offset, data),
            AnyRemote::Mux(c) => c.remote_write(seg, offset, data),
        }
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        match self {
            AnyRemote::Tcp(c) => c.remote_write_v(writes),
            AnyRemote::Mux(c) => c.remote_write_v(writes),
        }
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        match self {
            AnyRemote::Tcp(c) => c.flush(),
            AnyRemote::Mux(c) => c.flush(),
        }
    }

    fn in_flight(&self) -> usize {
        match self {
            AnyRemote::Tcp(c) => c.in_flight(),
            AnyRemote::Mux(c) => c.in_flight(),
        }
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        match self {
            AnyRemote::Tcp(c) => c.remote_read(seg, offset, buf),
            AnyRemote::Mux(c) => c.remote_read(seg, offset, buf),
        }
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        match self {
            AnyRemote::Tcp(c) => c.remote_read_v(reads),
            AnyRemote::Mux(c) => c.remote_read_v(reads),
        }
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        match self {
            AnyRemote::Tcp(c) => c.connect_segment(tag),
            AnyRemote::Mux(c) => c.connect_segment(tag),
        }
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        match self {
            AnyRemote::Tcp(c) => c.segment_info(seg),
            AnyRemote::Mux(c) => c.segment_info(seg),
        }
    }

    fn node_name(&self) -> String {
        match self {
            AnyRemote::Tcp(c) => c.node_name(),
            AnyRemote::Mux(c) => c.node_name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    #[test]
    fn two_sessions_share_one_socket() {
        let registry = perseas_obs::Registry::new();
        let server = Server::bind("muxed", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&registry)
            .start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut a = mux.session();
        let mut b = mux.session();
        assert_ne!(a.session_id(), b.session_id());
        assert_eq!(mux.open_sessions(), 2);

        let seg = a.remote_malloc(64, 7).unwrap();
        a.remote_write(seg.id, 0, b"from a").unwrap();
        a.flush().unwrap();
        // Session b observes a's writes through the shared memory.
        let found = b.connect_segment(7).unwrap();
        let mut buf = [0u8; 6];
        b.remote_read(found.id, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"from a");
        assert_eq!(b.fetch_name().unwrap(), "muxed");

        // Both sessions rode exactly one TCP connection.
        let text = registry.render();
        assert!(
            text.contains("perseas_server_connections_total 1"),
            "expected one accepted connection: {text}"
        );
        drop(a);
        drop(b);
        server.shutdown();
    }

    #[test]
    fn posted_refusals_stay_with_their_session() {
        let server = Server::bind("routes", "127.0.0.1:0").unwrap().start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut a = mux.session();
        let mut b = mux.session();
        let seg = a.remote_malloc(8, 0).unwrap();
        // a posts an out-of-bounds write; b posts a valid one.
        a.remote_write(seg.id, 100, &[1]).unwrap();
        b.remote_write(seg.id, 0, &[2]).unwrap();
        // b's barrier is clean even though a's refusal is in the pipe.
        b.flush().unwrap();
        assert!(matches!(a.flush(), Err(RnError::Remote(_))));
        a.flush().unwrap();
        let mut buf = [0u8; 1];
        b.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [2]);
        server.shutdown();
    }

    #[test]
    fn rpc_routes_other_sessions_posted_acks() {
        let server = Server::bind("routing", "127.0.0.1:0").unwrap().start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut a = mux.session();
        let mut b = mux.session();
        let seg = a.remote_malloc(128, 0).unwrap();
        for i in 0..16u8 {
            a.remote_write(seg.id, usize::from(i), &[i]).unwrap();
        }
        assert!(a.in_flight() > 0);
        // b's synchronous read arrives behind a's posted writes on the
        // wire; their acks are routed to a's window while b waits.
        let mut buf = [0u8; 16];
        b.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf[15], 15);
        assert_eq!(a.in_flight(), 0, "b's wait drained a's acks");
        a.flush().unwrap();
        server.shutdown();
    }

    #[test]
    fn session_window_is_bounded_independently() {
        let server = Server::bind("window", "127.0.0.1:0").unwrap().start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut small = mux.session_with(PipelineConfig {
            max_ops: 2,
            max_bytes: 1 << 20,
        });
        let seg = small.remote_malloc(64, 0).unwrap();
        for i in 0..10u8 {
            small.remote_write(seg.id, usize::from(i), &[i]).unwrap();
            assert!(small.in_flight() <= 2, "window stays bounded");
        }
        small.flush().unwrap();
        let mut buf = [0u8; 10];
        small.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        server.shutdown();
    }

    #[test]
    fn dropping_a_session_mid_window_leaves_others_unaffected() {
        let server = Server::bind("dropper", "127.0.0.1:0").unwrap().start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut doomed = mux.session();
        let mut survivor = mux.session();
        let seg = survivor.remote_malloc(64, 0).unwrap();
        doomed.remote_write(seg.id, 0, &[9; 8]).unwrap();
        assert_eq!(doomed.in_flight(), 1);
        drop(doomed); // dies with its window in flight
        survivor.remote_write(seg.id, 8, &[3; 8]).unwrap();
        survivor.flush().unwrap();
        let mut buf = [0u8; 8];
        survivor.remote_read(seg.id, 8, &mut buf).unwrap();
        assert_eq!(buf, [3; 8]);
        assert_eq!(mux.open_sessions(), 1);
        server.shutdown();
    }

    #[test]
    fn dead_socket_keeps_the_window_visible() {
        let server = Server::bind("dies", "127.0.0.1:0").unwrap().start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut s = mux.session();
        let seg = s.remote_malloc(64, 0).unwrap();
        server.shutdown();
        let mut posted = 0;
        for i in 0..4u8 {
            if s.remote_write(seg.id, usize::from(i), &[i]).is_ok() {
                posted += 1;
            }
        }
        if posted > 0 {
            let err = s.flush().unwrap_err();
            assert!(err.is_unavailable(), "barrier reports the dead link: {err}");
            assert!(s.in_flight() > 0, "lost window stays visible");
            assert!(mux.is_dead());
        }
        // Every later operation on the dead mux fails fast.
        assert!(s.ping().unwrap_err().is_unavailable());
    }

    #[test]
    fn shared_registry_reuses_live_connections() {
        let registry = perseas_obs::Registry::new();
        let server = Server::bind("pool", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&registry)
            .start();
        let m1 = SessionMux::shared(server.addr()).unwrap();
        let m2 = SessionMux::shared(server.addr()).unwrap();
        let mut a = m1.session();
        let mut b = m2.session();
        a.ping().unwrap();
        b.ping().unwrap();
        assert!(registry
            .render()
            .contains("perseas_server_connections_total 1"));
        drop((a, b, m1, m2));
        server.shutdown();
    }

    #[test]
    fn shared_registry_redials_after_death() {
        let server = Server::bind("phoenix", "127.0.0.1:0").unwrap().start();
        let addr = server.addr();
        let node = server.node().clone();
        let m1 = SessionMux::shared(addr).unwrap();
        let mut s1 = m1.session();
        s1.ping().unwrap();
        server.shutdown();
        assert!(s1.ping().is_err());
        assert!(m1.is_dead());
        // A new server on the same port: the registry replaces the corpse.
        let server2 = Server::with_node(node, addr).unwrap().start();
        let m2 = SessionMux::shared(addr).unwrap();
        let mut s2 = m2.session();
        s2.ping().unwrap();
        server2.shutdown();
    }

    #[test]
    fn overload_surfaces_as_typed_refusal_through_sessions() {
        let server = Server::bind("tight", "127.0.0.1:0")
            .unwrap()
            .with_admission(crate::server::AdmissionConfig {
                max_inflight: 1,
                max_queue: 1,
            })
            .with_request_latency(std::time::Duration::from_millis(150))
            .start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut s = mux.session();
        let seg = s.remote_malloc(64, 0).unwrap();
        // Burst past inflight+queue: the overflow is refused typed, and
        // the refusal surfaces at the barrier as RnError::Overloaded.
        for i in 0..6u8 {
            s.remote_write(seg.id, usize::from(i), &[i]).unwrap();
        }
        let mut overloaded = 0;
        loop {
            match s.flush() {
                Ok(_) => break,
                Err(RnError::Overloaded) => overloaded += 1,
                Err(e) => panic!("unexpected flush error: {e}"),
            }
        }
        assert!(overloaded > 0, "burst should overflow the admission queue");
        // Relief: after the queue drains, new work is admitted again.
        s.remote_write(seg.id, 6, &[6]).unwrap();
        s.flush().unwrap();
        server.shutdown();
    }
}
