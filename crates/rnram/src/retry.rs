//! Automatic reconnection for TCP-backed deployments.
//!
//! A transient network blip between the primary and its mirror should not
//! force a full database recovery. [`ReconnectingRemote`] wraps
//! [`TcpRemote`] and transparently re-dials the server when a socket-level
//! failure occurs, retrying the operation a bounded number of times.
//!
//! Only *connection* failures are retried. Remote refusals (bad segment,
//! out of bounds, unknown tag) are real answers and pass straight
//! through; and because every PERSEAS remote write is idempotent (it
//! writes bytes at an absolute offset), retrying a possibly-delivered
//! write is safe.
//!
//! Every connection posts its writes, which adds one hard rule: a
//! connection that dies with posted writes no barrier has reported yet is
//! **never** silently re-dialed, and [`RemoteMemory::flush`] is **never**
//! retried. Those writes are the ones in flight (`in_flight() > 0`) and
//! the ones whose refusal the client has already read (an ack routed
//! during an RPC, or a long write's piece confirmation) but not yet
//! reported. The lost window cannot be replayed — this wrapper does not
//! buffer the posted frames — and flushing a freshly dialed connection
//! would vacuously succeed while the writes it was supposed to confirm
//! died, or were refused, on the old socket. Both paths surface
//! `Unavailable` instead and leave re-dialing to the next operation, so
//! the caller (the mirror fault-fencing layer) decides what the lost
//! window means.
//!
//! The converse case is kept transparent: a connection that died while
//! *idle* lost nothing. A frame is one `write`, which the local socket
//! accepts even after the peer has closed, so before a posted write opens
//! a new window the wrapper asks the socket (without blocking) whether the
//! peer has hung up, and re-dials first if so — otherwise that write would
//! be reported at the next barrier as a lost window.
//!
//! Attempts are paced by a [`BackoffPolicy`]: exponential delays with
//! deterministic jitter, so a briefly-rebooting server is not hammered by
//! a tight re-dial loop. Tests pace against a [`SimClock`]
//! ([`ReconnectingRemote::pace_with_clock`]) so the waits are virtual and
//! the schedule is exactly reproducible.

use std::net::{SocketAddr, ToSocketAddrs};

use perseas_sci::SegmentId;
use perseas_simtime::{SimClock, SimDuration};

use crate::tcp::Kind;
use crate::{BackoffPolicy, FlushStats, RemoteMemory, RemoteSegment, RnError, TcpRemote};

/// A TCP-backed [`RemoteMemory`] that re-dials the server on socket
/// failures. The connection is a [`TcpRemote`] on a private socket or a
/// session on the process-wide shared socket
/// ([`crate::SessionMux::shared`]); either posts its writes and confirms
/// them at [`RemoteMemory::flush`], and a re-dial always reproduces the
/// original kind.
#[derive(Debug)]
pub struct ReconnectingRemote {
    addr: SocketAddr,
    inner: Option<TcpRemote>,
    kind: Kind,
    max_attempts: usize,
    policy: BackoffPolicy,
    pace: Option<SimClock>,
}

impl ReconnectingRemote {
    /// Connects to `addr` with a [`TcpRemote::connect`] connection, whose
    /// writes are posted and confirmed at [`RemoteMemory::flush`],
    /// retrying each future operation up to `max_attempts` times across
    /// reconnects, paced by the default [`BackoffPolicy`] (1 ms doubling
    /// to a 500 ms cap).
    ///
    /// # Errors
    ///
    /// Fails if the initial connection cannot be established.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn connect(addr: impl ToSocketAddrs, max_attempts: usize) -> Result<Self, RnError> {
        ReconnectingRemote::with_backoff(addr, max_attempts, BackoffPolicy::default())
    }

    /// Like [`ReconnectingRemote::connect`] but with an explicit pacing
    /// policy.
    ///
    /// # Errors
    ///
    /// Fails if the initial connection cannot be established.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn with_backoff(
        addr: impl ToSocketAddrs,
        max_attempts: usize,
        policy: BackoffPolicy,
    ) -> Result<Self, RnError> {
        ReconnectingRemote::dial_first(addr, max_attempts, policy, Kind::Private)
    }

    /// Opens a session on the process-wide shared socket for `addr` (see
    /// [`crate::SessionMux::shared`]) instead of a private socket, with
    /// the same retry semantics: a dead shared socket is re-dialed for
    /// new work, but a session that dies with posted writes in flight
    /// surfaces the loss instead of silently retrying.
    ///
    /// # Errors
    ///
    /// Fails if the initial connection cannot be established.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero.
    pub fn connect_mux(addr: impl ToSocketAddrs, max_attempts: usize) -> Result<Self, RnError> {
        ReconnectingRemote::dial_first(addr, max_attempts, BackoffPolicy::default(), Kind::Shared)
    }

    fn dial_first(
        addr: impl ToSocketAddrs,
        max_attempts: usize,
        policy: BackoffPolicy,
        kind: Kind,
    ) -> Result<Self, RnError> {
        assert!(max_attempts > 0, "at least one attempt is required");
        let inner = TcpRemote::dial(addr, kind)?;
        Ok(ReconnectingRemote {
            addr: inner.peer_addr(),
            inner: Some(inner),
            kind,
            max_attempts,
            policy,
            pace: None,
        })
    }

    /// The server address.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The pacing policy between reconnect attempts.
    pub fn backoff(&self) -> BackoffPolicy {
        self.policy
    }

    /// Charges backoff delays to `clock` (virtual time) instead of
    /// sleeping the thread — the retry schedule becomes deterministic
    /// and instantaneous, for tests and simulated deployments.
    pub fn pace_with_clock(&mut self, clock: SimClock) {
        self.pace = Some(clock);
    }

    fn pause(&self, nanos: u64) {
        if nanos == 0 {
            return;
        }
        match &self.pace {
            Some(clock) => {
                clock.advance(SimDuration::from_nanos(nanos));
            }
            None => std::thread::sleep(std::time::Duration::from_nanos(nanos)),
        }
    }

    /// Called before a posted write: an idle connection whose peer hung up
    /// in the meantime is dropped here, so the write goes out on a fresh
    /// dial. Posted onto the dead socket it would be accepted locally and
    /// the barrier would report a lost window, although nothing was in
    /// flight when the connection died. A connection with a refusal still
    /// to report is not idle: it is kept, and that barrier reports the
    /// loss.
    fn drop_if_hung_up(&mut self) {
        if let Some(conn) = self.inner.as_ref() {
            if conn.unreported() == 0 && conn.hung_up() {
                self.inner = None;
            }
        }
    }

    fn with_conn<T>(
        &mut self,
        mut op: impl FnMut(&mut TcpRemote) -> Result<T, RnError>,
    ) -> Result<T, RnError> {
        let mut last_err: Option<RnError> = None;
        for attempt in 0..self.max_attempts {
            if attempt > 0 {
                // Pause between attempts, never after the last one.
                self.pause(self.policy.delay_nanos(attempt as u32 - 1));
            }
            if self.inner.is_none() {
                match TcpRemote::dial(self.addr, self.kind) {
                    Ok(c) => self.inner = Some(c),
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            let conn = self.inner.as_mut().expect("present");
            match op(conn) {
                Ok(v) => return Ok(v),
                Err(e) if e.is_unavailable() => {
                    // The socket is suspect: drop it. But a connection
                    // that died with posted writes unreported (in flight,
                    // or refused) took a window we cannot replay —
                    // retrying the *current* operation on a fresh socket
                    // would silently skip the lost ones, so that loss
                    // must surface.
                    let lost = conn.unreported();
                    self.inner = None;
                    if lost > 0 {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or_else(|| RnError::Protocol("no attempts made".into())))
    }
}

impl RemoteMemory for ReconnectingRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.with_conn(|c| c.remote_malloc(len, tag))
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.with_conn(|c| c.remote_free(seg))
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        self.drop_if_hung_up();
        self.with_conn(|c| c.remote_write(seg, offset, data))
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        // Safe to retry for the same reason single writes are: every range
        // lands at an absolute offset, so re-sending a possibly-delivered
        // batch is idempotent.
        self.drop_if_hung_up();
        self.with_conn(|c| c.remote_write_v(writes))
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        // Never retried: the barrier confirms writes posted on *this*
        // connection, and a re-dial-then-flush would vacuously succeed
        // while the real window died with the old socket. With no live
        // connection nothing is posted (a lost window was already
        // surfaced by the operation that dropped it), so the barrier is
        // trivially clean.
        let Some(conn) = self.inner.as_mut() else {
            return Ok(FlushStats::default());
        };
        match conn.flush() {
            Ok(stats) => Ok(stats),
            Err(e) => {
                if e.is_unavailable() {
                    self.inner = None;
                }
                Err(e)
            }
        }
    }

    fn in_flight(&self) -> usize {
        self.inner.as_ref().map_or(0, |c| c.in_flight())
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        self.with_conn(|c| c.remote_read(seg, offset, buf))
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        self.with_conn(|c| c.remote_read_v(reads))
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.with_conn(|c| c.connect_segment(tag))
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.with_conn(|c| c.segment_info(seg))
    }

    fn node_name(&self) -> String {
        self.inner.as_ref().map_or_else(
            || {
                let scheme = if self.kind == Kind::Shared {
                    "mux"
                } else {
                    "tcp"
                };
                format!("{scheme}://{}", self.addr)
            },
            RemoteMemory::node_name,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    #[test]
    fn survives_a_server_restart_on_the_same_port() {
        let server = Server::bind("blinky", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();

        let mut r = ReconnectingRemote::connect(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[1; 8]).unwrap();
        r.flush().unwrap();

        // The server process restarts on the same port with the same
        // exported memory.
        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();

        // The wrapped client re-dials transparently.
        r.remote_write(seg.id, 8, &[2; 8]).unwrap();
        let mut buf = [0u8; 16];
        r.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[1; 8]);
        assert_eq!(&buf[8..], &[2; 8]);
        server2.shutdown();
    }

    #[test]
    fn remote_refusals_are_not_retried() {
        let server = Server::bind("r", "127.0.0.1:0").unwrap().start();
        let mut r = ReconnectingRemote::connect(server.addr(), 3).unwrap();
        let seg = r.remote_malloc(8, 0).unwrap();
        // Out-of-bounds is a real answer, not a transport failure.
        r.remote_write(seg.id, 6, &[0; 8]).unwrap();
        let err = r.flush().unwrap_err();
        assert!(matches!(err, RnError::Remote(_)));
        // Connection is still the original one and healthy.
        r.remote_write(seg.id, 0, &[1; 4]).unwrap();
        r.flush().unwrap();
        server.shutdown();
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let server = Server::bind("gone", "127.0.0.1:0").unwrap().start();
        let addr = server.addr();
        let mut r = ReconnectingRemote::connect(addr, 2).unwrap();
        server.shutdown(); // nobody listening any more
        let err = r.remote_malloc(8, 0).unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert_eq!(r.peer_addr(), addr);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let server = Server::bind("z", "127.0.0.1:0").unwrap().start();
        let _ = ReconnectingRemote::connect(server.addr(), 0);
    }

    #[test]
    fn retry_pacing_is_bounded_and_deterministic() {
        let server = Server::bind("paced", "127.0.0.1:0").unwrap().start();
        let policy = BackoffPolicy::from_millis(5, 20).with_seed(7);
        let mut r = ReconnectingRemote::with_backoff(server.addr(), 4, policy).unwrap();
        let clock = SimClock::new();
        r.pace_with_clock(clock.clone());
        server.shutdown(); // every attempt will fail

        let t0 = clock.now();
        let err = r.remote_malloc(8, 0).unwrap_err();
        assert!(err.is_unavailable(), "{err}");

        // 4 attempts means exactly 3 pauses — delays 0, 1 and 2 of the
        // policy — charged entirely to the virtual clock.
        let waited = clock.now().duration_since(t0).as_nanos();
        assert_eq!(waited, policy.total_nanos(3));
        // Bounded: no single delay exceeds the cap, so the total is under
        // (attempts - 1) * cap.
        assert!(waited <= 3 * 20_000_000, "unbounded pacing: {waited} ns");
        assert!(waited > 0, "backoff must actually pace the loop");

        // The schedule is a pure function of the policy: a second run
        // waits the identical virtual time.
        let server2 = Server::bind("paced2", "127.0.0.1:0").unwrap().start();
        let mut r2 = ReconnectingRemote::with_backoff(server2.addr(), 4, policy).unwrap();
        let clock2 = SimClock::new();
        r2.pace_with_clock(clock2.clone());
        server2.shutdown();
        let t0 = clock2.now();
        let _ = r2.remote_malloc(8, 0).unwrap_err();
        assert_eq!(clock2.now().duration_since(t0).as_nanos(), waited);
    }

    #[test]
    fn pipelined_wrapper_redials_pipelined() {
        let server = Server::bind("redial", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();
        let mut r = ReconnectingRemote::connect(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[1; 8]).unwrap();
        r.flush().unwrap();

        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();

        // The window was clean at the drop, so re-dialing is safe — and
        // the replacement connection must post its writes again.
        let mut buf = [0u8; 8];
        r.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 8]);
        r.remote_write(seg.id, 8, &[2; 8]).unwrap();
        assert!(r.in_flight() > 0, "re-dialed connection posts writes");
        r.flush().unwrap();
        server2.shutdown();
    }

    #[test]
    fn a_post_onto_an_idle_dead_connection_redials_first() {
        let server = Server::bind("idle", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();
        let mut r = ReconnectingRemote::connect(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[1; 8]).unwrap();
        r.flush().unwrap();

        server.shutdown();
        let server2 = Server::with_node(node.clone(), addr).unwrap().start();

        // The first operation after the restart is a posted write: the
        // old socket would take it, and only the barrier would find out.
        r.remote_write(seg.id, 8, &[2; 8]).unwrap();
        r.flush().unwrap();
        let mut got = [0u8; 16];
        node.read(seg.id, 0, &mut got).unwrap();
        assert_eq!(got, [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]);
        server2.shutdown();
    }

    /// A scripted server for the lost-window tests: answers everything on
    /// the first connection until a posted write arrives,
    /// then hangs up with that write unacknowledged. Every *later*
    /// connection is served fully — so if the wrapper ever silently
    /// re-dialed and retried, the retried operation would succeed and the
    /// tests below would catch it.
    fn spawn_window_dropper() -> SocketAddr {
        use crate::protocol::{read_frame, write_frame, Request, Response};

        fn reply(req: &Request<&[u8]>) -> Response {
            match req {
                Request::Mux {
                    session,
                    seq,
                    inner,
                } => Response::Mux {
                    session: *session,
                    seq: *seq,
                    inner: Box::new(reply(inner)),
                },
                Request::Malloc { len, tag } => Response::Segment {
                    seg: 1,
                    len: *len,
                    tag: *tag,
                    base_addr: 0,
                },
                Request::Info { seg } => Response::Segment {
                    seg: *seg,
                    len: 16,
                    tag: 1,
                    base_addr: 0,
                },
                _ => Response::Ok,
            }
        }

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                while let Ok(body) = read_frame(&mut s) {
                    let req = Request::decode(&body).unwrap();
                    let posted_write = matches!(
                        &req,
                        Request::Mux { inner, .. }
                            if matches!(**inner, Request::Write { .. } | Request::WriteV { .. })
                    );
                    if posted_write {
                        // Hang up the first connection (leaving the write
                        // unacknowledged) before serving replacements.
                        let _ = s.shutdown(std::net::Shutdown::Both);
                        return_window(listener);
                        return;
                    }
                    if write_frame(&mut s, &reply(&req).encode()).is_err() {
                        break;
                    }
                }
            }

            fn return_window(listener: std::net::TcpListener) {
                while let Ok((mut s, _)) = listener.accept() {
                    while let Ok(body) = read_frame(&mut s) {
                        let req = Request::decode(&body).unwrap();
                        if write_frame(&mut s, &reply(&req).encode()).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn lost_window_fails_the_op_instead_of_silently_retrying() {
        let addr = spawn_window_dropper();
        let mut r = ReconnectingRemote::connect(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        // The scripted server reads this posted write and hangs up
        // without acknowledging it.
        r.remote_write(seg.id, 0, &[9; 8]).unwrap();
        assert_eq!(r.in_flight(), 1);

        // The next operation trips over the corpse while the window is
        // unconfirmed. A fully working replacement server is accepting on
        // the same address, so a silent retry would *succeed* — the
        // Unavailable below is proof no retry happened.
        let err = r.segment_info(seg.id).unwrap_err();
        assert!(err.is_unavailable(), "lost window surfaces: {err}");
        assert_eq!(r.in_flight(), 0, "the loss was reported and cleared");

        // With the loss on record, re-dialing for new work is fair game.
        assert_eq!(r.segment_info(seg.id).unwrap().id, seg.id);
    }

    #[test]
    fn flush_is_never_retried() {
        let addr = spawn_window_dropper();
        let mut r = ReconnectingRemote::connect(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[9; 8]).unwrap();

        // The barrier discovers the dead socket. Flushing a re-dialed
        // connection would vacuously pass (the replacement server answers
        // everything), so Unavailable is proof the barrier never retried.
        let err = r.flush().unwrap_err();
        assert!(err.is_unavailable(), "lost window surfaces: {err}");
        // The loss has been surfaced; a second barrier has nothing
        // outstanding to confirm.
        assert_eq!(r.flush().unwrap(), FlushStats::default());
    }

    #[test]
    fn mux_wrapper_survives_a_server_restart_on_the_same_port() {
        let server = Server::bind("muxblinky", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();

        let mut r = ReconnectingRemote::connect_mux(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[1; 8]).unwrap();
        r.flush().unwrap();

        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();

        // The window was clean at the drop: the wrapper re-dials the
        // shared mux transparently and the replacement is a mux session
        // again.
        r.remote_write(seg.id, 8, &[2; 8]).unwrap();
        r.flush().unwrap();
        let mut buf = [0u8; 16];
        r.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[1; 8]);
        assert_eq!(&buf[8..], &[2; 8]);
        assert!(r.node_name().starts_with("mux://"), "{}", r.node_name());
        server2.shutdown();
    }

    #[test]
    fn mux_lost_window_fails_the_op_instead_of_silently_retrying() {
        let addr = spawn_window_dropper();
        let mut r = ReconnectingRemote::connect_mux(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        // The scripted server reads this posted (mux-wrapped) write and
        // hangs up without acknowledging it.
        r.remote_write(seg.id, 0, &[9; 8]).unwrap();
        assert_eq!(r.in_flight(), 1);

        // A fully working replacement is accepting on the same address,
        // so a silent retry would succeed — Unavailable is proof the
        // lost session window surfaced instead.
        let err = r.segment_info(seg.id).unwrap_err();
        assert!(err.is_unavailable(), "lost window surfaces: {err}");
        assert_eq!(r.in_flight(), 0, "the loss was reported and cleared");

        // With the loss on record, re-dialing for new work is fair game.
        assert_eq!(r.segment_info(seg.id).unwrap().id, seg.id);
    }

    #[test]
    fn mux_flush_is_never_retried() {
        let addr = spawn_window_dropper();
        let mut r = ReconnectingRemote::connect_mux(addr, 5).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[9; 8]).unwrap();

        // The barrier discovers the dead shared socket; a re-dialed
        // flush would vacuously pass, so Unavailable proves it did not.
        let err = r.flush().unwrap_err();
        assert!(err.is_unavailable(), "lost window surfaces: {err}");
        assert_eq!(r.flush().unwrap(), FlushStats::default());
    }

    #[test]
    fn successful_ops_do_not_pause() {
        let server = Server::bind("fast", "127.0.0.1:0").unwrap().start();
        let policy = BackoffPolicy::from_millis(1_000, 1_000); // would be visible
        let mut r = ReconnectingRemote::with_backoff(server.addr(), 3, policy).unwrap();
        let clock = SimClock::new();
        r.pace_with_clock(clock.clone());
        let t0 = clock.now();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[9; 16]).unwrap();
        assert_eq!(
            clock.now().duration_since(t0),
            SimDuration::ZERO,
            "first-attempt successes never back off"
        );
        server.shutdown();
    }
}
