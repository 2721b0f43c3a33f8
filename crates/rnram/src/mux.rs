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
//! visible through `in_flight()` so a redialing handle
//! ([`TcpRemote::connect_redialing`]) reports the lost window instead of
//! silently re-dialing. Dropping a handle whose socket outlives it sends a
//! best-effort `SessClose` so the server retires the session from its
//! gauge; its straggler acks are ignored by the routing of unknown
//! sessions.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::protocol::{
    encode_mux, read_frame_into, write_frame, Request, Response, Sink, WriteFrame, MAX_FRAME,
};
use crate::{FlushStats, PipelineConfig, RnError, TcpRemote};

pub(crate) fn lock(io: &Mutex<MuxIo>) -> MutexGuard<'_, MuxIo> {
    io.lock().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn dead_err() -> RnError {
    RnError::Io(io::Error::new(
        io::ErrorKind::BrokenPipe,
        "multiplexed connection is dead",
    ))
}

/// What routing one frame produced.
enum Routed {
    /// An ack resolved against its session's window, or a closed
    /// session's straggler.
    Absorbed,
    /// The awaited `Data` answer, its payload already in the caller's
    /// buffer.
    Landed,
    /// A response for `(session, seq)` that is not a posted write's ack.
    Answer(u64, u64, Response),
}

/// Per-session pipelining state.
#[derive(Debug)]
struct SessState {
    cfg: PipelineConfig,
    next_seq: u64,
    /// `(seq, payload_bytes)` of posted writes, oldest first.
    outstanding: VecDeque<(u64, usize)>,
    outstanding_bytes: usize,
    /// Typed refusals earned by posted writes, with the refused write's
    /// seq, one surfaced per flush.
    refusals: VecDeque<(u64, RnError)>,
}

/// The socket and the routing table over it.
#[derive(Debug)]
pub(crate) struct MuxIo {
    stream: TcpStream,
    peer: SocketAddr,
    pub(crate) dead: bool,
    sessions: BTreeMap<u64, SessState>,
    next_session: u64,
    /// The head buffer of the last [`WriteFrame`], kept for the next.
    head: Vec<u8>,
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
        self.send_with(|s| write_frame(s, body))
    }

    fn send_with(
        &mut self,
        write: impl FnOnce(&mut TcpStream) -> Result<(), RnError>,
    ) -> Result<(), RnError> {
        if self.dead {
            return Err(dead_err());
        }
        write(&mut self.stream).inspect_err(|_| self.dead = true)
    }

    /// The buffer a new [`WriteFrame`] builds its head in.
    pub(crate) fn take_head(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.head)
    }

    /// Keeps a sent [`WriteFrame`]'s head buffer for the next one.
    pub(crate) fn keep_head(&mut self, head: Vec<u8>) {
        self.head = head;
    }

    /// Reads one frame, which must be a mux response. With `sink`, the
    /// awaited `Data` answer lands in the caller's buffer (see
    /// [`read_frame_into`]) and reads as `None`.
    fn read_mux(
        &mut self,
        sink: Option<Sink<'_>>,
    ) -> Result<Option<(u64, u64, Response)>, RnError> {
        let Some(body) =
            read_frame_into(&mut self.stream, sink).inspect_err(|_| self.dead = true)?
        else {
            return Ok(None);
        };
        match Response::decode(&body) {
            Ok(Response::Mux {
                session,
                seq,
                inner,
            }) => Ok(Some((session, seq, *inner))),
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
    /// flush); a closed session's stragglers, including its SessClose
    /// ack, are dropped. Everything else — necessarily the caller's
    /// awaited RPC answer — is returned, with `Landed` for a `Data` answer
    /// whose payload went straight into `sink`.
    fn route_one(&mut self, sink: Option<Sink<'_>>) -> Result<Routed, RnError> {
        let Some((session, seq, inner)) = self.read_mux(sink)? else {
            return Ok(Routed::Landed);
        };
        let Some(st) = self.sessions.get_mut(&session) else {
            return Ok(Routed::Absorbed);
        };
        if let Some(&(front, bytes)) = st.outstanding.front() {
            if seq == front {
                st.outstanding.pop_front();
                st.outstanding_bytes -= bytes;
                match inner {
                    Response::Ok => {}
                    Response::Err(m) => st.refusals.push_back((seq, RnError::Remote(m))),
                    Response::Overloaded => st.refusals.push_back((seq, RnError::Overloaded)),
                    other => {
                        self.dead = true;
                        return Err(RnError::Protocol(format!(
                            "unexpected posted-write ack payload: {other:?}"
                        )));
                    }
                }
                return Ok(Routed::Absorbed);
            }
        }
        Ok(Routed::Answer(session, seq, inner))
    }

    /// Reads and routes one frame that must be an ack of a posted write.
    fn route_ack(&mut self) -> Result<(), RnError> {
        match self.route_one(None)? {
            Routed::Absorbed => Ok(()),
            Routed::Landed => unreachable!("no sink to land in"),
            Routed::Answer(s, q, _) => {
                self.dead = true;
                Err(RnError::Protocol(format!(
                    "unsolicited response for session {s} seq {q}"
                )))
            }
        }
    }

    /// One request/response exchange for `session` from its encoded,
    /// mux-wrapped `body`, routing other sessions' acks along the way. A
    /// refusal is this call's error. With `sink` the request must be a
    /// read of `sink.len()` bytes: its payload lands in `sink` and the
    /// answer reads as [`Response::Ok`]; any answer but that or a refusal
    /// kills the connection.
    pub(crate) fn rpc(
        &mut self,
        session: u64,
        seq: u64,
        body: &[u8],
        mut sink: Option<&mut [u8]>,
    ) -> Result<Response, RnError> {
        self.send(body)?;
        loop {
            let landing = sink.as_deref_mut().map(|buf| Sink { session, seq, buf });
            let resp = match self.route_one(landing)? {
                Routed::Absorbed => continue,
                Routed::Landed => return Ok(Response::Ok),
                Routed::Answer(s, q, resp) if s == session && q == seq => resp,
                Routed::Answer(s, q, _) => {
                    self.dead = true;
                    return Err(RnError::Protocol(format!(
                        "response for session {s} seq {q} while awaiting \
                         session {session} seq {seq}"
                    )));
                }
            };
            return match (resp, sink) {
                (Response::Err(m), _) => Err(RnError::Remote(m)),
                (Response::Overloaded, _) => Err(RnError::Overloaded),
                (other, None) => Ok(other),
                (other, Some(buf)) => {
                    self.dead = true;
                    let got = match other {
                        Response::Data(d) => format!("{} bytes", d.len()),
                        _ => "no data".into(),
                    };
                    Err(RnError::Protocol(format!(
                        "read of {} bytes answered with {got}",
                        buf.len()
                    )))
                }
            };
        }
    }

    /// Posts a write frame without waiting for its acknowledgement,
    /// draining acks (of any session) until this session's window has
    /// room. Returns whether it had to wait. A frame whose body exceeds
    /// [`MAX_FRAME`], which the server would refuse by hanging up, is
    /// refused here before a byte is sent.
    pub(crate) fn post(
        &mut self,
        session: u64,
        frame: &WriteFrame<'_>,
        seq: u64,
        bytes: usize,
    ) -> Result<bool, RnError> {
        if frame.body_len() > MAX_FRAME {
            return Err(RnError::Protocol(format!(
                "write frame of {} bytes exceeds frame limit",
                frame.body_len()
            )));
        }
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
        self.send_with(|s| frame.write_to(s))?;
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
        self.state(session).refusals.pop_front().map(|(_, e)| e)
    }

    /// Drains `session`'s window, whose newest write is `seq`, and tells
    /// whether that write was refused. Its refusal, if any, stays queued
    /// for the next barrier.
    pub(crate) fn confirm(&mut self, session: u64, seq: u64) -> Result<bool, RnError> {
        self.drain(session)?;
        let st = self.state(session);
        Ok(st
            .refusals
            .back()
            .is_some_and(|&(refused, _)| refused == seq))
    }

    pub(crate) fn in_flight(&self, session: u64) -> usize {
        self.sessions
            .get(&session)
            .map_or(0, |st| st.outstanding.len())
    }

    /// `session`'s posted writes that no barrier has reported yet: those
    /// in flight and those whose refusal waits in the queue.
    pub(crate) fn unreported(&self, session: u64) -> usize {
        self.sessions
            .get(&session)
            .map_or(0, |st| st.outstanding.len() + st.refusals.len())
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
    /// blocking; if so the mux is marked dead. A frame is one `write`, and
    /// the local socket accepts a write to a peer that has already hung
    /// up, so a posted write cannot find this out by itself; a redialing
    /// [`TcpRemote`] asks before it opens a new window on an idle
    /// connection.
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
                head: Vec::new(),
            })),
        })
    }

    /// Opens a logical session with the default posted-write window.
    pub fn session(&self) -> TcpRemote {
        self.session_with(PipelineConfig::default())
    }

    /// Opens a logical session with an explicit window configuration.
    pub fn session_with(&self, cfg: PipelineConfig) -> TcpRemote {
        TcpRemote::open(self, cfg)
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

    /// Reads land in their caller's buffer while another session's posted
    /// acks, one of them a refusal, are routed around them: at lengths
    /// around the 18-byte mux head (a 0-byte read's answer is exactly as
    /// long as a write's ack) and at sizes that take many socket reads.
    #[test]
    fn reads_land_while_posted_acks_route() {
        const BIG: usize = 33 << 20;
        let server = Server::bind("landing", "127.0.0.1:0").unwrap().start();
        let mux = SessionMux::connect(server.addr()).unwrap();
        let mut a = mux.session();
        let mut b = mux.session();
        let aseg = a.remote_malloc(64, 0).unwrap();
        let bseg = b.remote_malloc(BIG + 8, 1).unwrap();
        let image: Vec<u8> = (0..BIG + 8).map(|i| (i % 251) as u8).collect();
        b.remote_write(bseg.id, 0, &image).unwrap();
        b.flush().unwrap();
        for (round, len) in [0, 1, 17, 18, 19, 1 << 20, BIG].into_iter().enumerate() {
            let v = round as u8 + 1;
            a.remote_write(aseg.id, 0, &[v; 8]).unwrap();
            a.remote_write(aseg.id, 60, &[v; 8]).unwrap(); // out of bounds
            a.remote_write(aseg.id, 8, &[v; 8]).unwrap();
            assert_eq!(a.in_flight(), 3);
            let offset = round + 1;
            let mut buf = vec![0xEE; len];
            b.remote_read(bseg.id, offset, &mut buf).unwrap();
            assert!(buf == image[offset..offset + len], "{len}-byte read");
            // b's read came back behind a's acks, which it routed in order.
            assert_eq!(a.in_flight(), 0, "{len}-byte read");
            assert!(matches!(a.flush(), Err(RnError::Remote(_))));
            a.flush().unwrap();
            let mut got = [0u8; 16];
            a.remote_read(aseg.id, 0, &mut got).unwrap();
            assert_eq!(got, [v; 16]);
        }
        assert_eq!((a.in_flight(), b.in_flight()), (0, 0));
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
