//! The connection under every [`TcpRemote`]: logical sessions over one
//! TCP socket.
//!
//! The paper's deployment model has *many* workstation clients per memory
//! server; giving each its own socket multiplies file descriptors. A
//! [`SessionMux`] owns one socket and a routing table of sessions, each
//! with its own sequence space, posted-write window, and refusal queue,
//! whose frames are wrapped in `Mux { session, seq, .. }` (see
//! `docs/PROTOCOL.md`). A dedicated connection ([`TcpRemote::connect`]
//! and friends) is a mux with one session; [`SessionMux::session`] hands
//! out many handles on one socket.
//!
//! Concurrency model: one mutex guards the socket. The thread holding it
//! while awaiting its own response *routes* every frame it reads — acks
//! of other sessions' posted writes resolve against their windows. Since
//! an RPC holds the lock until its answer arrives, at most one RPC
//! response can ever be in flight, so no parked-response storage is
//! needed; per-session FIFO is the server's ordering guarantee.
//!
//! A dead socket poisons the whole mux: every session's operation returns
//! an unavailable error, and each session's outstanding window stays
//! visible through `in_flight()` so [`crate::ReconnectingRemote`] reports
//! the lost window instead of silently re-dialing. Dropping a handle on a
//! shared socket sends a best-effort `SessClose` so the server retires the
//! session from its gauge; its straggler acks are ignored by the routing
//! of unknown sessions.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use crate::protocol::{encode_mux, read_frame, write_frame, Request, Response};
use crate::tcp::Kind;
use crate::{FlushStats, PipelineConfig, RnError, TcpRemote};

pub(crate) fn lock(io: &Mutex<MuxIo>) -> MutexGuard<'_, MuxIo> {
    io.lock().unwrap_or_else(PoisonError::into_inner)
}

fn dead_err() -> RnError {
    RnError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "multiplexed connection is dead",
    ))
}

/// Per-session pipelining state.
#[derive(Debug)]
struct SessState {
    cfg: PipelineConfig,
    next_seq: u64,
    /// `(seq, payload_bytes)` of posted writes, oldest first.
    outstanding: VecDeque<(u64, usize)>,
    outstanding_bytes: usize,
    /// Typed refusals earned by posted writes, one surfaced per flush.
    refusals: VecDeque<RnError>,
}

/// The socket and the routing table over it.
#[derive(Debug)]
pub(crate) struct MuxIo {
    stream: TcpStream,
    peer: SocketAddr,
    dead: bool,
    sessions: BTreeMap<u64, SessState>,
    next_session: u64,
}

impl MuxIo {
    fn state(&mut self, session: u64) -> &mut SessState {
        self.sessions.get_mut(&session).expect("open session")
    }

    pub(crate) fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Registers a new session with window `cfg` and returns its id.
    pub(crate) fn open_session(&mut self, cfg: PipelineConfig) -> u64 {
        let session = self.next_session;
        self.next_session += 1;
        self.sessions.insert(
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
        session
    }

    pub(crate) fn take_seq(&mut self, session: u64) -> u64 {
        let st = self.state(session);
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
                    Response::Err(m) => st.refusals.push_back(RnError::Remote(m)),
                    Response::Overloaded => st.refusals.push_back(RnError::Overloaded),
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

    /// Reads and routes one frame that must be an ack of a posted write.
    fn route_ack(&mut self) -> Result<(), RnError> {
        match self.route_one()? {
            None => Ok(()),
            Some((s, q, _)) => {
                self.dead = true;
                Err(RnError::Protocol(format!(
                    "unsolicited response for session {s} seq {q}"
                )))
            }
        }
    }

    /// One request/response exchange for `session` from its encoded,
    /// mux-wrapped `body`, routing other sessions' acks along the way. A
    /// refusal is this call's error.
    pub(crate) fn rpc(&mut self, session: u64, seq: u64, body: &[u8]) -> Result<Response, RnError> {
        self.send(body)?;
        loop {
            match self.route_one()? {
                None => {}
                Some((s, q, resp)) if s == session && q == seq => {
                    return match resp {
                        Response::Err(m) => Err(RnError::Remote(m)),
                        Response::Overloaded => Err(RnError::Overloaded),
                        other => Ok(other),
                    };
                }
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

    /// Posts an encoded, mux-wrapped write without waiting for its
    /// acknowledgement, draining acks (of any session) until this
    /// session's window has room. Returns whether it had to wait.
    pub(crate) fn post(
        &mut self,
        session: u64,
        body: &[u8],
        seq: u64,
        bytes: usize,
    ) -> Result<bool, RnError> {
        let mut stalled = false;
        loop {
            let st = self.state(session);
            let fits = st.outstanding.len() < st.cfg.max_ops
                && (st.outstanding.is_empty() || st.outstanding_bytes + bytes <= st.cfg.max_bytes);
            if fits {
                break;
            }
            stalled = true;
            if self.dead {
                return Err(dead_err());
            }
            self.route_ack()?;
        }
        self.send(body)?;
        let st = self.state(session);
        st.outstanding.push_back((seq, bytes));
        st.outstanding_bytes += bytes;
        Ok(stalled)
    }

    /// Drains `session`'s window and reports what it held. On a socket
    /// error the window stays recorded so `in_flight()` keeps reporting
    /// the lost writes.
    pub(crate) fn drain(&mut self, session: u64) -> Result<FlushStats, RnError> {
        let st = self.state(session);
        let stats = FlushStats {
            posted: st.outstanding.len(),
            bytes: st.outstanding_bytes,
        };
        while !self.state(session).outstanding.is_empty() {
            if self.dead {
                return Err(dead_err());
            }
            self.route_ack()?;
        }
        Ok(stats)
    }

    /// The oldest refusal a posted write of `session` earned, if any.
    pub(crate) fn take_refusal(&mut self, session: u64) -> Option<RnError> {
        self.state(session).refusals.pop_front()
    }

    /// Forgets `session`'s window after its owner reported the loss.
    pub(crate) fn abandon(&mut self, session: u64) {
        let st = self.state(session);
        st.outstanding.clear();
        st.outstanding_bytes = 0;
    }

    pub(crate) fn in_flight(&self, session: u64) -> usize {
        self.sessions
            .get(&session)
            .map_or(0, |st| st.outstanding.len())
    }

    /// Retires a session: its straggler acks will be ignored. With
    /// `notify` the server is told (best-effort) so its sessions gauge
    /// drops.
    pub(crate) fn close_session(&mut self, session: u64, notify: bool) {
        if let Some(st) = self.sessions.remove(&session) {
            if notify && !self.dead {
                let _ = self.send(&encode_mux(session, st.next_seq, &Request::SessClose));
            }
        }
    }

    /// Whether the peer has closed or reset the socket, asked without
    /// blocking; if so the mux is marked dead, so the next
    /// [`SessionMux::shared`] dials a fresh one. A frame is one `write`,
    /// and the local socket accepts a write to a peer that has already
    /// hung up, so a posted write cannot find this out by itself;
    /// [`crate::ReconnectingRemote`] asks before it opens a new window on
    /// an idle connection.
    pub(crate) fn hung_up(&mut self) -> bool {
        if !self.dead {
            let s = &self.stream;
            let verdict = s.set_nonblocking(true).is_err()
                || match s.peek(&mut [0u8; 1]) {
                    Ok(0) => true,
                    Ok(_) => false,
                    Err(e) => e.kind() != io::ErrorKind::WouldBlock,
                };
            self.dead = s.set_nonblocking(false).is_err() || verdict;
        }
        self.dead
    }
}

/// One multiplexed connection; hand out per-session [`TcpRemote`]
/// handles with [`SessionMux::session`].
#[derive(Debug, Clone)]
pub struct SessionMux {
    pub(crate) io: Arc<Mutex<MuxIo>>,
}

impl SessionMux {
    /// Dials a multiplexed connection to `addr`.
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
                sessions: BTreeMap::new(),
                next_session: 0,
            })),
        })
    }

    /// Returns the process-wide shared mux for `addr`, dialing one if none
    /// exists (or if the cached one is dead). This is how threads and
    /// shard connections end up sharing sockets instead of multiplying
    /// them.
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
    pub fn session(&self) -> TcpRemote {
        self.session_with(PipelineConfig::default())
    }

    /// Opens a logical session with an explicit window configuration.
    pub fn session_with(&self, cfg: PipelineConfig) -> TcpRemote {
        TcpRemote::open(self, Kind::Shared, cfg)
    }

    /// The server address the socket is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        lock(&self.io).peer
    }

    /// Whether the socket has failed (every session sees errors).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::RemoteMemory;

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
