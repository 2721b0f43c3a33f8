//! TCP client backend: network RAM on a genuinely separate process.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use perseas_sci::SegmentId;
use perseas_simtime::{SimClock, SimDuration};

use crate::metrics::ClientMetrics;
use crate::mux::{dead_err, lock, MuxIo};
use crate::protocol::{
    encode_mux, Request, Response, WriteFrame, MAX_PIECE, RANGE_HEAD, WRITE_HEAD, WRITE_V_HEAD,
};
use crate::{BackoffPolicy, FlushStats, RemoteMemory, RemoteSegment, RnError, SessionMux};

/// Bounds on the pipelined in-flight window: how many write operations
/// may be posted without an acknowledgement, and how many payload bytes
/// they may carry in total. A write larger than `max_bytes` is still
/// accepted — it just flies alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Maximum posted-but-unacknowledged operations (at least 1).
    pub max_ops: usize,
    /// Maximum payload bytes in flight at once.
    pub max_bytes: usize,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            max_ops: 64,
            max_bytes: 4 << 20,
        }
    }
}

/// How a [`TcpRemote::connect_redialing`] handle retries: each
/// operation gets up to `attempts` tries, paced by `policy` on the wall
/// clock or on `pace`.
#[derive(Debug)]
struct Redial {
    attempts: usize,
    policy: BackoffPolicy,
    pace: Option<SimClock>,
}

impl Redial {
    /// Waits out backoff delay number `n`.
    fn pause(&self, n: u32) {
        let nanos = self.policy.delay_nanos(n);
        match &self.pace {
            Some(clock) => {
                clock.advance(SimDuration::from_nanos(nanos));
            }
            None => std::thread::sleep(std::time::Duration::from_nanos(nanos)),
        }
    }
}

/// A [`RemoteMemory`] that talks to a [`crate::server::Server`] over TCP.
///
/// Latency here is real wall-clock network latency; use this backend for
/// actual deployments and the two-process examples, and [`crate::SimRemote`]
/// for reproducing the paper's virtual-time figures.
///
/// Every handle is one session of a [`SessionMux`] connection, and every
/// write is *posted*: `remote_write` and `remote_write_v` return as soon
/// as the frame is on the wire (within a bounded window), and
/// [`RemoteMemory::flush`] is the only ack barrier that confirms them —
/// the paper's "write now, confirm at the commit point" shape over a real
/// network. A posted write's refusal never surfaces through another
/// operation's result; it is queued and reported by `flush`, one per call.
///
/// - [`TcpRemote::connect`] / [`TcpRemote::connect_with`] dial a private
///   socket, with the default or an explicit window.
/// - [`TcpRemote::connect_redialing`] dials a private socket that re-dials
///   itself after a socket failure, when no posted write is lost by it.
/// - [`SessionMux::session`] hands out handles sharing one socket.
///
/// No write frame's body and no read is longer than [`MAX_PIECE`]. A
/// longer `remote_read` is a sequence of reads, each landing in its own
/// slice of the caller's buffer. A longer `remote_write` or
/// `remote_write_v` is cut into pieces, each its own frame, and each
/// piece but the last is confirmed before the next is sent.
/// `remote_read_v` is always one frame: the server serves it as one
/// atomic cut, and replicas rely on that.
#[derive(Debug)]
pub struct TcpRemote {
    io: Arc<Mutex<MuxIo>>,
    session: u64,
    peer: SocketAddr,
    cached_name: Option<String>,
    metrics: Option<ClientMetrics>,
    redial: Option<Redial>,
}

impl TcpRemote {
    /// Connects to a network-RAM server on a private socket with the
    /// default posted-write window ([`PipelineConfig::default`]: 64 ops /
    /// 4 MiB).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        TcpRemote::connect_with(addr, PipelineConfig::default())
    }

    /// The same as [`TcpRemote::connect`]. Its one caller is
    /// `benchmark/src/run.rs`; it goes when that call moves to `connect`.
    #[doc(hidden)]
    pub fn connect_pipelined(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        TcpRemote::connect(addr)
    }

    /// Connects on a private socket with an explicit window configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: PipelineConfig,
    ) -> Result<TcpRemote, RnError> {
        let mux = SessionMux::connect(addr)?;
        Ok(TcpRemote::open(&mux, cfg))
    }

    /// Connects on a private socket with the default window, like
    /// [`TcpRemote::connect`], and re-dials `addr` when the socket fails,
    /// giving each operation up to `attempts` tries paced by `backoff`.
    ///
    /// Only socket failures are retried; a refusal is a real answer and
    /// passes straight through. Every remote write lands at an absolute
    /// offset, so re-sending one that may have been delivered is safe.
    /// But posted writes that no barrier has reported yet (in flight, or
    /// refused) die with their socket and cannot be replayed: an
    /// operation that finds them lost fails `Unavailable` instead of
    /// re-dialing, and [`RemoteMemory::flush`] is never retried, since a
    /// barrier on a fresh socket would vacuously pass. Either clears the
    /// lost window, so the next operation re-dials. An operation that
    /// kills the socket with any other error, such as a corrupt frame,
    /// fails with that error, and the next one reports the window the
    /// socket held as lost in the same way. A socket that died
    /// idle lost nothing; before a posted write opens a new window on
    /// one, the handle asks the socket, without blocking, whether the
    /// peer has hung up, and re-dials first if so.
    ///
    /// # Errors
    ///
    /// Fails if the first connection cannot be established.
    ///
    /// # Panics
    ///
    /// Panics if `attempts` is zero.
    pub fn connect_redialing(
        addr: impl ToSocketAddrs,
        attempts: usize,
        backoff: BackoffPolicy,
    ) -> Result<TcpRemote, RnError> {
        assert!(attempts > 0, "at least one attempt is required");
        let mut conn = TcpRemote::connect(addr)?;
        conn.redial = Some(Redial {
            attempts,
            policy: backoff,
            pace: None,
        });
        Ok(conn)
    }

    /// Opens a new session with window `cfg` on `mux`.
    pub(crate) fn open(mux: &SessionMux, cfg: PipelineConfig) -> TcpRemote {
        let mut g = lock(&mux.io);
        TcpRemote {
            io: mux.io.clone(),
            session: g.open_session(cfg),
            peer: g.peer(),
            cached_name: None,
            metrics: None,
            redial: None,
        }
    }

    /// Charges a redialing handle's backoff delays to `clock` (virtual
    /// time) instead of sleeping the thread, so the retry schedule is
    /// deterministic and instantaneous. No effect on a handle that does
    /// not redial.
    pub fn pace_with_clock(&mut self, clock: SimClock) {
        if let Some(r) = self.redial.as_mut() {
            r.pace = Some(clock);
        }
    }

    /// Installs metrics: round trips, posted writes, frame bytes, window
    /// stalls, flush barriers, and window occupancy are registered in
    /// `registry` (names in `docs/OBSERVABILITY.md`). They belong to the
    /// handle, so a redialing handle keeps counting across re-dials.
    /// Without this call the transport pays one `Option` branch per
    /// operation.
    pub fn set_metrics(&mut self, registry: &perseas_obs::Registry) {
        self.metrics = Some(ClientMetrics::new(registry));
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// This handle's session id on the wire.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Runs `op`; on a redialing handle, retries it across re-dials as
    /// [`TcpRemote::connect_redialing`] describes.
    fn redialing<T>(
        &mut self,
        mut op: impl FnMut(&TcpRemote) -> Result<T, RnError>,
    ) -> Result<T, RnError> {
        let Some(attempts) = self.redial.as_ref().map(|r| r.attempts) else {
            return op(self);
        };
        let mut last_err = None;
        for attempt in 0..attempts {
            // Pause between attempts, never after the last one.
            if let (Some(r), Some(n)) = (&self.redial, attempt.checked_sub(1)) {
                r.pause(n as u32);
            }
            let lost = {
                let io = lock(&self.io);
                io.dead.then(|| io.unreported(self.session))
            };
            if let Some(lost) = lost {
                // A socket killed by an error that passed through (a
                // corrupt or unexpected frame) may still hold a window.
                if lost > 0 {
                    self.forget_socket();
                    return Err(dead_err());
                }
                if let Err(e) = self.reopen() {
                    last_err = Some(e);
                    continue;
                }
            }
            match op(self) {
                Err(e) if e.is_unavailable() => {
                    // A window lost with the socket cannot be replayed:
                    // retrying this operation on a fresh one would skip
                    // it silently, so the loss surfaces.
                    let lost = lock(&self.io).unreported(self.session);
                    self.forget_socket();
                    if lost > 0 {
                        return Err(e);
                    }
                    last_err = Some(e);
                }
                done => return done,
            }
        }
        Err(last_err.expect("every attempt failed"))
    }

    /// Marks the socket dead and gives this handle an empty session on it,
    /// so its lost window is reported once and cleared: the handle is
    /// idle until the next operation re-dials.
    fn forget_socket(&mut self) {
        let mut io = lock(&self.io);
        io.close_session(self.session, false);
        io.dead = true;
        self.session = io.open_session(PipelineConfig::default());
    }

    /// Replaces the dead socket with a fresh one to the same peer.
    fn reopen(&mut self) -> Result<(), RnError> {
        let mux = SessionMux::connect(self.peer)?;
        self.session = lock(&mux.io).open_session(PipelineConfig::default());
        self.io = mux.io;
        Ok(())
    }

    /// Called by a redialing handle before a posted write: an idle socket
    /// whose peer hung up is marked dead here, so the write goes out on a
    /// fresh dial. Posted onto the dead socket it would be accepted
    /// locally and the barrier would report a lost window, although
    /// nothing was in flight when the socket died. A handle with a refusal
    /// still to report is not idle: its barrier reports the loss.
    fn redial_if_hung_up(&mut self) {
        if self.redial.is_some() {
            let mut io = lock(&self.io);
            if io.unreported(self.session) == 0 {
                io.hung_up();
            }
        }
    }

    /// Sends a liveness probe.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn ping(&mut self) -> Result<(), RnError> {
        self.rpc(&Request::Ping, None).and_then(expect_ok)
    }

    /// Asks the server to stop accepting new connections.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn shutdown_server(&mut self) -> Result<(), RnError> {
        self.rpc(&Request::Shutdown, None).and_then(expect_ok)
    }

    /// Fetches and caches the server's node name.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn fetch_name(&mut self) -> Result<String, RnError> {
        match self.rpc(&Request::Name, None)? {
            Response::Name(n) => {
                self.cached_name = Some(n.clone());
                Ok(n)
            }
            other => Err(unexpected(other)),
        }
    }

    fn gauge_in_flight(&self, io: &MuxIo) {
        if let Some(m) = self.metrics.as_ref() {
            m.in_flight.set(io.in_flight(self.session) as i64);
        }
    }

    /// One request/response exchange; a refusal is its error. A read
    /// passes its destination as `sink` (see [`MuxIo::rpc`]).
    fn rpc(&self, req: &Request, sink: Option<&mut [u8]>) -> Result<Response, RnError> {
        let mut io = lock(&self.io);
        let seq = io.take_seq(self.session);
        let body = encode_mux(self.session, seq, req);
        if let Some(m) = self.metrics.as_ref() {
            m.ops.inc();
            m.bytes.add(body.len() as u64);
        }
        let resp = io.rpc(self.session, seq, &body, sink);
        self.gauge_in_flight(&io);
        resp
    }

    /// Posts the write frame `build` makes from a reused head buffer and
    /// a sequence number, charging `bytes` of payload against the window,
    /// and returns its sequence number.
    fn post<'a>(
        &self,
        bytes: usize,
        build: impl FnOnce(Vec<u8>, u64) -> WriteFrame<'a>,
    ) -> Result<u64, RnError> {
        let mut io = lock(&self.io);
        let seq = io.take_seq(self.session);
        let frame = build(io.take_head(), seq);
        let body_len = frame.body_len();
        let posted = io.post(self.session, &frame, seq, bytes);
        io.keep_head(frame.into_head());
        let stalled = posted?;
        if let Some(m) = self.metrics.as_ref() {
            m.posted.inc();
            m.bytes.add(body_len as u64);
            if stalled {
                m.window_stalls.inc();
            }
        }
        self.gauge_in_flight(&io);
        Ok(seq)
    }

    /// Sends a write too long for one frame as the `pieces` [`cut`] made,
    /// in order, each its own `WriteV` frame. Each piece but the last is
    /// confirmed before the next is sent, and the first refused piece
    /// ends the write, its refusal queued for the barrier like any posted
    /// write's. A refused write has so applied the pieces before the
    /// refused one and nothing after it: a write whose last range is a
    /// commit record keeps PROTOCOL.md's rule that a refused record was
    /// not applied. Posting the pieces without the confirmations would
    /// let admission refuse one piece and then apply the next.
    fn post_pieces(&self, pieces: Vec<Vec<Range<'_>>>) -> Result<(), RnError> {
        let session = self.session;
        let last = pieces.len() - 1;
        for (i, piece) in pieces.iter().enumerate() {
            let bytes = piece.iter().map(|&(_, _, d)| d.len()).sum();
            let seq = self.post(bytes, |head, seq| {
                WriteFrame::write_v(head, session, seq, piece.iter().copied())
            })?;
            if i < last && lock(&self.io).confirm(session, seq)? {
                break;
            }
        }
        Ok(())
    }

    /// One `Read` round trip, its payload landing in `buf`.
    fn read_piece(&self, seg: SegmentId, offset: usize, buf: &mut [u8]) -> Result<(), RnError> {
        let req = Request::Read {
            seg: seg.as_raw(),
            offset: offset as u64,
            len: buf.len() as u64,
        };
        self.rpc(&req, Some(buf)).and_then(expect_ok)
    }

    /// The ack barrier: drains this session's window, then surfaces one
    /// queued refusal.
    fn barrier(&self, io: &mut MuxIo) -> Result<FlushStats, RnError> {
        let stats = io.drain(self.session)?;
        if let Some(m) = self.metrics.as_ref() {
            m.flush_barriers.inc();
            m.flush_posted.add(stats.posted as u64);
            m.flush_bytes.add(stats.bytes as u64);
        }
        self.gauge_in_flight(io);
        match io.take_refusal(self.session) {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }

    fn segment(&self, req: &Request) -> Result<RemoteSegment, RnError> {
        match self.rpc(req, None)? {
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
            other => Err(unexpected(other)),
        }
    }
}

impl Drop for TcpRemote {
    fn drop(&mut self) {
        // A socket closing with its last handle retires the session on
        // the server by itself; one that outlives this handle, held by a
        // sibling session or its `SessionMux`, is told with `SessClose`.
        let outlived = Arc::strong_count(&self.io) > 1;
        lock(&self.io).close_session(self.session, outlived);
    }
}

/// One range of a write on the wire: segment, offset and data.
type Range<'a> = (u64, u64, &'a [u8]);

/// Cuts a write's `ranges` into the pieces it travels in when one frame
/// would pass [`MAX_PIECE`]: each piece is a `WriteV` frame whose body
/// fits in `MAX_PIECE`, and the pieces hold the ranges in order. A range
/// that does not fit in what is left of a piece goes on in the next, so
/// cuts fall between ranges and inside long ones.
fn cut<'a>(ranges: impl IntoIterator<Item = Range<'a>>) -> Vec<Vec<Range<'a>>> {
    let mut pieces = Vec::new();
    let mut piece = Vec::new();
    let mut room = MAX_PIECE - WRITE_V_HEAD;
    for (seg, mut offset, mut data) in ranges {
        loop {
            // A range starts in a piece with room for its header and, if
            // it has any, one byte of its data.
            if room < RANGE_HEAD + usize::from(!data.is_empty()) {
                pieces.push(std::mem::take(&mut piece));
                room = MAX_PIECE - WRITE_V_HEAD;
            }
            let (now, rest) = data.split_at(data.len().min(room - RANGE_HEAD));
            piece.push((seg, offset, now));
            room -= RANGE_HEAD + now.len();
            if rest.is_empty() {
                break;
            }
            offset += now.len() as u64;
            data = rest;
        }
    }
    pieces.push(piece);
    pieces
}

fn unexpected(resp: Response) -> RnError {
    RnError::Protocol(format!("unexpected response: {resp:?}"))
}

fn expect_ok(resp: Response) -> Result<(), RnError> {
    match resp {
        Response::Ok => Ok(()),
        other => Err(unexpected(other)),
    }
}

/// Validates a [`Response::DataV`] against the ranges that were requested:
/// exactly one buffer per range, each of the requested length.
fn check_data_v(
    reads: &[(SegmentId, usize, usize)],
    bufs: Vec<Vec<u8>>,
) -> Result<Vec<Vec<u8>>, RnError> {
    if bufs.len() != reads.len() {
        return Err(RnError::Protocol(format!(
            "vectored read: wanted {} buffers, got {}",
            reads.len(),
            bufs.len()
        )));
    }
    for (i, (buf, &(_, _, len))) in bufs.iter().zip(reads).enumerate() {
        if buf.len() != len {
            return Err(RnError::Protocol(format!(
                "vectored read: range {i} wanted {len} bytes, got {}",
                buf.len()
            )));
        }
    }
    Ok(bufs)
}

impl RemoteMemory for TcpRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        let req = Request::Malloc {
            len: len as u64,
            tag,
        };
        self.redialing(|c| c.segment(&req))
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        let req = Request::Free { seg: seg.as_raw() };
        self.redialing(|c| c.rpc(&req, None).and_then(expect_ok))
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        // The payload goes to the socket from `data` itself, gathered
        // behind the frame's head (see `WriteFrame`).
        let range = (seg.as_raw(), offset as u64, data);
        self.redial_if_hung_up();
        self.redialing(|c| {
            if WRITE_HEAD + data.len() > MAX_PIECE {
                return c.post_pieces(cut([range]));
            }
            c.post(data.len(), |head, seq| {
                WriteFrame::write(head, c.session, seq, range)
            })
            .map(drop)
        })
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        // A batch that fits rides in one frame and is confirmed by one
        // ack; each long range goes to the socket from the caller's buffer.
        let bytes: usize = writes.iter().map(|(_, _, d)| d.len()).sum();
        let ranges = || {
            writes
                .iter()
                .map(|&(seg, offset, data)| (seg.as_raw(), offset as u64, data))
        };
        self.redial_if_hung_up();
        self.redialing(|c| {
            if WRITE_V_HEAD + RANGE_HEAD * writes.len() + bytes > MAX_PIECE {
                return c.post_pieces(cut(ranges()));
            }
            c.post(bytes, |head, seq| {
                WriteFrame::write_v(head, c.session, seq, ranges())
            })
            .map(drop)
        })
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        // Never retried. On a socket error the window stays recorded, so
        // `in_flight()` keeps reporting the lost operations; a redialing
        // handle reports them here and forgets them with the socket.
        let done = self.barrier(&mut lock(&self.io));
        if self.redial.is_some() && done.as_ref().is_err_and(RnError::is_unavailable) {
            self.forget_socket();
        }
        done
    }

    fn in_flight(&self) -> usize {
        lock(&self.io).in_flight(self.session)
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        // The payload is read from the socket straight into `buf`, one
        // slice of at most `MAX_PIECE` bytes per round trip.
        self.redialing(|c| {
            if buf.len() <= MAX_PIECE {
                return c.read_piece(seg, offset, buf);
            }
            for (i, piece) in buf.chunks_mut(MAX_PIECE).enumerate() {
                c.read_piece(seg, offset.saturating_add(i * MAX_PIECE), piece)?;
            }
            Ok(())
        })
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        let req = Request::ReadV {
            reads: reads
                .iter()
                .map(|&(seg, offset, len)| (seg.as_raw(), offset as u64, len as u64))
                .collect(),
        };
        self.redialing(|c| match c.rpc(&req, None)? {
            Response::DataV(bufs) => check_data_v(reads, bufs),
            other => Err(unexpected(other)),
        })
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        let req = Request::Connect { tag };
        self.redialing(|c| c.segment(&req)).map_err(|e| match e {
            RnError::Remote(_) => RnError::TagNotFound(tag),
            other => other,
        })
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        let req = Request::Info { seg: seg.as_raw() };
        self.redialing(|c| c.segment(&req))
    }

    fn node_name(&self) -> String {
        self.cached_name
            .clone()
            .unwrap_or_else(|| match self.session {
                0 => format!("tcp://{}", self.peer),
                n => format!("tcp://{}#{n}", self.peer),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

    /// What a recording peer saw of each request frame: the body's length
    /// and, for a `Read`, the length it asks for.
    type Seen = Arc<Mutex<Vec<(usize, u64)>>>;

    /// Spawns a peer in front of the server at `upstream` that forwards
    /// every frame both ways and records what it saw of each request
    /// frame a client sends it. Its thread ends when the client hangs up.
    fn recording_peer(upstream: SocketAddr) -> (SocketAddr, Seen, std::thread::JoinHandle<()>) {
        use crate::protocol::{read_frame, write_frame};
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let kept = Arc::clone(&seen);
        let peer = std::thread::spawn(move || {
            let (mut client, _) = listener.accept().unwrap();
            let mut server = TcpStream::connect(upstream).unwrap();
            let (mut down, mut back) = (server.try_clone().unwrap(), client.try_clone().unwrap());
            let pump = std::thread::spawn(move || std::io::copy(&mut down, &mut back));
            while let Ok(body) = read_frame(&mut client) {
                let read = match Request::decode(&body) {
                    Ok(Request::Mux { inner, .. }) => match *inner {
                        Request::Read { len, .. } => len,
                        _ => 0,
                    },
                    _ => 0,
                };
                kept.lock().unwrap().push((body.len(), read));
                if write_frame(&mut server, &body).is_err() {
                    break;
                }
            }
            let _ = server.shutdown(std::net::Shutdown::Both);
            let _ = pump.join();
        });
        (addr, seen, peer)
    }

    /// Writes and reads of every length reach the server in frames of at
    /// most `MAX_PIECE` bytes of body, and in one frame when they fit in
    /// one, and every byte reads back: writes of no ranges, of empty
    /// ranges, of thousands of 1-byte ranges whose headers alone pass the
    /// bound, of ranges that straddle it, and reads of lengths around its
    /// multiples.
    #[test]
    fn long_transfers_travel_in_bounded_frames() {
        const SEG: usize = 4 * MAX_PIECE;
        let server = Server::bind("pieces", "127.0.0.1:0").unwrap().start();
        let (addr, seen, _peer) = recording_peer(server.addr());
        let mut c = TcpRemote::connect(addr).unwrap();
        let seg = c.remote_malloc(SEG, 0).unwrap().id;
        let mut model = vec![0u8; SEG];
        // Each write sends a slice of this, starting at a drawn shift.
        let pattern: Vec<u8> = (0..SEG + 4096).map(|i| (i % 251) as u8).collect();
        let mut runner = proptest::test_runner::TestRunner::new(
            proptest::test_runner::ProptestConfig::with_cases(256),
        );
        runner.run_named("long_transfers_travel_in_bounded_frames", |rng| {
            let mut draw = |n: usize| (rng.next_u64() % n as u64) as usize;
            // Lengths around `k` bounds: `k * MAX_PIECE - less`, give or
            // take two bytes.
            let near =
                |k: usize, less: usize, d: usize| (k * MAX_PIECE + d).saturating_sub(less + 2);
            let shift = draw(4096);
            seen.lock().unwrap().clear();
            let (mut lo, mut hi) = (SEG, 0);
            let one_frame;
            match draw(6) {
                0 => {
                    let len = near(1 + draw(3), WRITE_HEAD, draw(5)).min(SEG);
                    let at = draw(SEG - len + 1);
                    let data = &pattern[shift..shift + len];
                    c.remote_write(seg, at, data).unwrap();
                    model[at..at + len].copy_from_slice(data);
                    (lo, hi) = (at, at + len);
                    one_frame = WRITE_HEAD + len <= MAX_PIECE;
                }
                5 => {
                    let len = near(draw(4), 0, draw(5)).min(SEG);
                    let at = draw(SEG - len + 1);
                    let mut buf = vec![0u8; len];
                    c.remote_read(seg, at, &mut buf).unwrap();
                    proptest::prop_assert!(buf[..] == model[at..at + len], "{len}-byte read");
                    one_frame = len <= MAX_PIECE;
                }
                shape => {
                    // (offset, length) of each range, by shape.
                    let spans: Vec<(usize, usize)> = match shape {
                        1 => Vec::new(),
                        2 => (0..draw(60_000)).map(|_| (draw(SEG), 0)).collect(),
                        3 => {
                            let at = draw(SEG - 50_000);
                            (0..MAX_PIECE / RANGE_HEAD + draw(2_000))
                                .map(|_| (at + draw(50_000), 1))
                                .collect()
                        }
                        _ => (0..1 + draw(4))
                            .map(|_| {
                                let len = match draw(3) {
                                    0 => draw(64),
                                    1 => near(1, WRITE_V_HEAD + RANGE_HEAD, draw(5)),
                                    _ => near(1 + draw(2), draw(MAX_PIECE / 2), draw(5)),
                                };
                                (draw(SEG - len + 1), len)
                            })
                            .collect(),
                    };
                    let writes: Vec<(SegmentId, usize, &[u8])> = spans
                        .iter()
                        .enumerate()
                        .map(|(r, &(at, len))| {
                            let from = (shift + r) % 4096;
                            (seg, at, &pattern[from..from + len])
                        })
                        .collect();
                    c.remote_write_v(&writes).unwrap();
                    for &(_, at, d) in &writes {
                        model[at..at + d.len()].copy_from_slice(d);
                        (lo, hi) = (lo.min(at), hi.max(at + d.len()));
                    }
                    let bytes: usize = spans.iter().map(|&(_, len)| len).sum();
                    one_frame = WRITE_V_HEAD + RANGE_HEAD * spans.len() + bytes <= MAX_PIECE;
                }
            }
            c.flush().unwrap();
            let frames = std::mem::take(&mut *seen.lock().unwrap());
            for &(body, read) in &frames {
                proptest::prop_assert!(body <= MAX_PIECE, "a {body}-byte frame body");
                proptest::prop_assert!(read <= MAX_PIECE as u64, "a {read}-byte read");
            }
            proptest::prop_assert!(!frames.is_empty());
            proptest::prop_assert_eq!(frames.len() == 1, one_frame);
            if lo < hi {
                let mut back = vec![0u8; hi - lo];
                c.remote_read(seg, lo, &mut back).unwrap();
                proptest::prop_assert!(back[..] == model[lo..hi], "bytes {lo}..{hi} read back");
            }
            Ok(())
        });
        server.shutdown();
    }

    #[test]
    fn ping_and_name() {
        let server = Server::bind("pinger", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        c.ping().unwrap();
        assert_eq!(c.fetch_name().unwrap(), "pinger");
        assert_eq!(c.node_name(), "pinger");
        server.shutdown();
    }

    #[test]
    fn node_name_falls_back_to_address() {
        let server = Server::bind("x", "127.0.0.1:0").unwrap().start();
        let c = TcpRemote::connect(server.addr()).unwrap();
        assert!(c.node_name().starts_with("tcp://127.0.0.1"));
        server.shutdown();
    }

    #[test]
    fn large_transfer_roundtrips() {
        let server = Server::bind("big", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(1 << 20, 0).unwrap();
        let data: Vec<u8> = (0..1 << 20).map(|i| (i % 251) as u8).collect();
        c.remote_write(seg.id, 0, &data).unwrap();
        let mut back = vec![0u8; 1 << 20];
        c.remote_read(seg.id, 0, &mut back).unwrap();
        assert_eq!(back, data);
        server.shutdown();
    }

    #[test]
    fn vectored_write_roundtrips_over_the_wire() {
        let server = Server::bind("vec", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let a = c.remote_malloc(256, 0).unwrap();
        let b = c.remote_malloc(64, 1).unwrap();
        c.remote_write_v(&[
            (a.id, 0, &[1; 32]),
            (b.id, 8, &[2; 8]),
            (a.id, 200, &[3; 56]),
        ])
        .unwrap();
        let mut buf = [0u8; 56];
        c.remote_read(a.id, 200, &mut buf).unwrap();
        assert_eq!(buf, [3; 56]);
        let mut buf = [0u8; 8];
        c.remote_read(b.id, 8, &mut buf).unwrap();
        assert_eq!(buf, [2; 8]);
        server.shutdown();
    }

    #[test]
    fn vectored_write_applies_prefix_before_failing_range() {
        let server = Server::bind("vec-err", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(64, 0).unwrap();
        // Second range is out of bounds; the first must still be applied
        // (torn-prefix semantics). The refusal surfaces at the barrier.
        c.remote_write_v(&[(seg.id, 0, &[5; 16]), (seg.id, 60, &[6; 8])])
            .unwrap();
        let err = c.flush().unwrap_err();
        assert!(matches!(err, RnError::Remote(_)));
        let mut buf = [0u8; 16];
        c.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [5; 16]);
        server.shutdown();
    }

    #[test]
    fn free_round_trips_errors() {
        let server = Server::bind("f", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(8, 0).unwrap();
        c.remote_free(seg.id).unwrap();
        assert!(matches!(c.remote_free(seg.id), Err(RnError::Remote(_))));
        server.shutdown();
    }

    #[test]
    fn pipelined_writes_flush_at_the_barrier() {
        let server = Server::bind("pipe", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(64, 0).unwrap();
        for i in 0..8u8 {
            c.remote_write(seg.id, i as usize * 4, &[i; 4]).unwrap();
        }
        assert!(c.in_flight() > 0, "writes are posted, not confirmed");
        let stats = c.flush().unwrap();
        assert_eq!(stats.posted, 8);
        assert_eq!(stats.bytes, 32);
        assert_eq!(c.in_flight(), 0);
        // A second barrier with nothing outstanding is free.
        assert_eq!(c.flush().unwrap(), FlushStats::default());
        let mut buf = [0u8; 4];
        c.remote_read(seg.id, 28, &mut buf).unwrap();
        assert_eq!(buf, [7; 4]);
        server.shutdown();
    }

    #[test]
    fn metrics_count_ops_posts_stalls_and_flushes() {
        let server_registry = perseas_obs::Registry::new();
        let client_registry = perseas_obs::Registry::new();
        let server = Server::bind("met", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&server_registry)
            .start();
        let mut c = TcpRemote::connect_with(
            server.addr(),
            PipelineConfig {
                max_ops: 2,
                max_bytes: 1 << 20,
            },
        )
        .unwrap();
        c.set_metrics(&client_registry);
        let seg = c.remote_malloc(64, 0).unwrap();
        for i in 0..6u8 {
            c.remote_write(seg.id, i as usize * 4, &[i; 4]).unwrap();
        }
        c.flush().unwrap();
        let mut buf = [0u8; 4];
        c.remote_read(seg.id, 0, &mut buf).unwrap();

        let client = perseas_obs::parse_exposition(&client_registry.render()).unwrap();
        let get = |name: &str| {
            client
                .iter()
                .find(|s| s.name == name)
                .map_or(0.0, |s| s.value)
        };
        assert_eq!(get("perseas_client_posted_total"), 6.0);
        // Posts 3..6 each found the 2-slot window full and drained an ack.
        assert_eq!(get("perseas_client_window_stalls_total"), 4.0);
        assert_eq!(get("perseas_client_flush_barriers_total"), 1.0);
        assert_eq!(get("perseas_client_flush_posted_total"), 2.0);
        // malloc + read are round trips.
        assert_eq!(get("perseas_client_ops_total"), 2.0);
        assert_eq!(get("perseas_client_in_flight"), 0.0);

        // Scrape the server after shutdown so connection accounting is done.
        drop(c);
        server.shutdown();
        let samples = perseas_obs::parse_exposition(&server_registry.render()).unwrap();
        let op_count = |op: &str| {
            samples
                .iter()
                .find(|s| s.name == "perseas_server_requests_total" && s.label("op") == Some(op))
                .map_or(0.0, |s| s.value)
        };
        assert_eq!(op_count("malloc"), 1.0);
        assert_eq!(op_count("write"), 6.0);
        assert_eq!(op_count("read"), 1.0);
        assert_eq!(op_count("sess_close"), 0.0, "a private socket just closes");
    }

    #[test]
    fn window_limit_drains_oldest_acks_first() {
        let server = Server::bind("win", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect_with(
            server.addr(),
            PipelineConfig {
                max_ops: 2,
                max_bytes: 1 << 20,
            },
        )
        .unwrap();
        let seg = c.remote_malloc(256, 0).unwrap();
        for i in 0..10u8 {
            c.remote_write(seg.id, i as usize, &[i]).unwrap();
            assert!(c.in_flight() <= 2, "window stays bounded");
        }
        let stats = c.flush().unwrap();
        assert!(stats.posted <= 2);
        let mut buf = [0u8; 10];
        c.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        server.shutdown();
    }

    #[test]
    fn byte_budget_bounds_the_window() {
        let server = Server::bind("bytes", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect_with(
            server.addr(),
            PipelineConfig {
                max_ops: 64,
                max_bytes: 16,
            },
        )
        .unwrap();
        let seg = c.remote_malloc(256, 0).unwrap();
        c.remote_write(seg.id, 0, &[1; 10]).unwrap();
        // 10 + 10 > 16: posting drains the first ack before sending.
        c.remote_write(seg.id, 10, &[2; 10]).unwrap();
        assert_eq!(c.in_flight(), 1);
        // Larger than the whole budget: still accepted, flies alone.
        c.remote_write(seg.id, 20, &[3; 32]).unwrap();
        c.flush().unwrap();
        let mut buf = [0u8; 52];
        c.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(&buf[..10], &[1; 10]);
        assert_eq!(&buf[10..20], &[2; 10]);
        assert_eq!(&buf[20..], &[3; 32]);
        server.shutdown();
    }

    #[test]
    fn posted_refusals_surface_one_per_flush() {
        let server = Server::bind("refuse", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(8, 0).unwrap();
        // Two out-of-bounds writes: both post fine, both are refused.
        c.remote_write(seg.id, 100, &[1]).unwrap();
        c.remote_write(seg.id, 200, &[2]).unwrap();
        c.remote_write(seg.id, 0, &[3]).unwrap();
        assert!(matches!(c.flush(), Err(RnError::Remote(_))));
        assert_eq!(c.in_flight(), 0, "barrier drained everything");
        assert!(matches!(c.flush(), Err(RnError::Remote(_))));
        c.flush().unwrap();
        let mut buf = [0u8; 1];
        c.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [3], "in-bounds write landed despite neighbours");
        server.shutdown();
    }

    #[test]
    fn rpcs_resolve_earlier_posted_acks_in_order() {
        let server = Server::bind("mix", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(16, 7).unwrap();
        c.remote_write(seg.id, 0, b"abcd").unwrap();
        c.remote_write(seg.id, 99, &[1]).unwrap(); // refused later
                                                   // A read immediately after posted writes: FIFO means it observes
                                                   // them, and its result is never polluted by their refusals.
        let mut buf = [0u8; 4];
        c.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"abcd");
        assert_eq!(c.in_flight(), 0, "the read resolved the posted acks");
        // The refusal is still waiting at the barrier.
        assert!(matches!(c.flush(), Err(RnError::Remote(_))));
        c.flush().unwrap();
        // Other RPC kinds work between posted writes too.
        assert_eq!(c.connect_segment(7).unwrap().id, seg.id);
        c.ping().unwrap();
        assert_eq!(c.fetch_name().unwrap(), "mix");
        server.shutdown();
    }

    #[test]
    fn dead_server_leaves_the_window_in_flight() {
        let server = Server::bind("die", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(64, 0).unwrap();
        server.shutdown();
        // The post lands in the OS buffer or fails; either way the
        // barrier must report the connection as unavailable and keep the
        // lost window visible through in_flight().
        let mut posted = 0;
        for i in 0..4u8 {
            if c.remote_write(seg.id, i as usize, &[i]).is_ok() {
                posted += 1;
            }
        }
        if posted > 0 {
            let err = c.flush().unwrap_err();
            assert!(err.is_unavailable(), "barrier reports the dead link: {err}");
            assert!(c.in_flight() > 0, "lost window stays visible");
        }
    }

    #[test]
    fn survives_a_server_restart_on_the_same_port() {
        let server = Server::bind("blinky", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();

        let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[1; 8]).unwrap();
        r.flush().unwrap();

        // The server process restarts on the same port with the same
        // exported memory.
        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();

        // The client re-dials transparently.
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
        let mut r =
            TcpRemote::connect_redialing(server.addr(), 3, BackoffPolicy::default()).unwrap();
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
        let mut r = TcpRemote::connect_redialing(addr, 2, BackoffPolicy::default()).unwrap();
        server.shutdown(); // nobody listening any more
        let err = r.remote_malloc(8, 0).unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert_eq!(r.peer_addr(), addr);
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let server = Server::bind("z", "127.0.0.1:0").unwrap().start();
        let _ = TcpRemote::connect_redialing(server.addr(), 0, BackoffPolicy::default());
    }

    #[test]
    fn retry_pacing_is_bounded_and_deterministic() {
        let server = Server::bind("paced", "127.0.0.1:0").unwrap().start();
        let policy = BackoffPolicy::from_millis(5, 20).with_seed(7);
        let mut r = TcpRemote::connect_redialing(server.addr(), 4, policy).unwrap();
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
        let mut r2 = TcpRemote::connect_redialing(server2.addr(), 4, policy).unwrap();
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
        let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
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
        let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
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
    /// the first connection until a posted write arrives, then hangs up
    /// with that write unacknowledged. With `corrupt_reads` it leaves the
    /// write unacknowledged and stays up instead, answering each read with
    /// a frame whose CRC is wrong. Every *later* connection is served
    /// fully — so if the handle ever silently re-dialed and retried, the
    /// retried operation would succeed and the tests below would catch it.
    fn spawn_window_dropper(corrupt_reads: bool) -> SocketAddr {
        use crate::protocol::{frame_bytes, read_frame, write_frame, Request, Response};
        use std::io::Write;

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
                Request::Read { len, .. } => Response::Data(vec![0; *len as usize]),
                _ => Response::Ok,
            }
        }

        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                while let Ok(body) = read_frame(&mut s) {
                    let req = Request::decode(&body).unwrap();
                    let Request::Mux { inner, .. } = &req else {
                        panic!("a client sends only mux frames: {req:?}");
                    };
                    match (&**inner, corrupt_reads) {
                        (Request::Write { .. } | Request::WriteV { .. }, false) => {
                            // Hang up the first connection (leaving the
                            // write unacknowledged) before serving
                            // replacements.
                            let _ = s.shutdown(std::net::Shutdown::Both);
                            break;
                        }
                        (Request::Write { .. } | Request::WriteV { .. }, true) => continue,
                        (Request::Read { .. }, true) => {
                            let mut frame = frame_bytes(&reply(&req).encode());
                            *frame.last_mut().unwrap() ^= 0xff;
                            if s.write_all(&frame).is_err() {
                                break;
                            }
                            continue;
                        }
                        _ => {}
                    }
                    if write_frame(&mut s, &reply(&req).encode()).is_err() {
                        break;
                    }
                }
            }
            while let Ok((mut s, _)) = listener.accept() {
                while let Ok(body) = read_frame(&mut s) {
                    let req = Request::decode(&body).unwrap();
                    if write_frame(&mut s, &reply(&req).encode()).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    #[test]
    fn lost_window_fails_the_op_instead_of_silently_retrying() {
        let addr = spawn_window_dropper(false);
        let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
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
        let addr = spawn_window_dropper(false);
        let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
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

    /// A socket killed by a corrupt frame rather than a socket error
    /// fails that operation with the protocol error; the window it held
    /// is still reported lost before anything re-dials, whether the next
    /// operation is a write or the barrier.
    #[test]
    fn a_window_on_a_corrupted_socket_is_reported_before_a_redial() {
        for next_is_flush in [false, true] {
            let addr = spawn_window_dropper(true);
            let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
            let seg = r.remote_malloc(16, 1).unwrap();
            r.remote_write(seg.id, 0, &[9; 8]).unwrap();
            let mut buf = [0u8; 8];
            let err = r.remote_read(seg.id, 0, &mut buf).unwrap_err();
            assert!(matches!(err, RnError::Protocol(_)), "{err}");
            assert_eq!(r.in_flight(), 1, "the window outlives the protocol error");

            // The replacement server answers everything, so a re-dial
            // here would pass and hide the lost write.
            let err = match next_is_flush {
                false => r.remote_write(seg.id, 8, &[7; 8]).unwrap_err(),
                true => r.flush().unwrap_err(),
            };
            assert!(err.is_unavailable(), "lost window surfaces: {err}");
            assert_eq!(r.in_flight(), 0, "the loss was reported and cleared");

            // With the loss on record, the next operation re-dials.
            r.remote_write(seg.id, 8, &[7; 8]).unwrap();
            assert_eq!(r.flush().unwrap().posted, 1);
        }
    }

    #[test]
    fn successful_ops_do_not_pause() {
        let server = Server::bind("fast", "127.0.0.1:0").unwrap().start();
        let policy = BackoffPolicy::from_millis(1_000, 1_000); // would be visible
        let mut r = TcpRemote::connect_redialing(server.addr(), 3, policy).unwrap();
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

    /// A value from `registry`'s exposition, 0 if absent.
    fn sample(registry: &perseas_obs::Registry, name: &str, op: Option<&str>) -> f64 {
        perseas_obs::parse_exposition(&registry.render())
            .unwrap()
            .iter()
            .find(|s| s.name == name && (op.is_none() || s.label("op") == op))
            .map_or(0.0, |s| s.value)
    }

    /// A handle dropped while its socket lives on, held by its
    /// `SessionMux` or a sibling session, retires its session with
    /// `SessClose`; the last handle on a socket just closes it and sends
    /// nothing.
    #[test]
    fn a_dropped_handle_closes_its_session_only_on_a_living_socket() {
        let registry = perseas_obs::Registry::new();
        let server = Server::bind("closer", "127.0.0.1:0")
            .unwrap()
            .with_metrics(&registry)
            .start();
        let (addr, seen, peer) = recording_peer(server.addr());
        let sessions = || sample(&registry, "perseas_server_sessions", None);
        let mux = SessionMux::connect(addr).unwrap();
        let (mut a, mut b, mut c) = (mux.session(), mux.session(), mux.session());
        for s in [&mut a, &mut b, &mut c] {
            s.ping().unwrap();
        }
        assert_eq!(sessions(), 3.0);
        // The mux and two siblings live on. Frames are served in order,
        // so the next ping's answer comes after the close was applied.
        drop(a);
        b.ping().unwrap();
        assert_eq!(sessions(), 2.0);
        // Only a sibling holds the socket now.
        drop(mux);
        drop(b);
        c.ping().unwrap();
        assert_eq!(sessions(), 1.0);
        // The last handle: its socket closes with it.
        drop(c);
        peer.join().unwrap();
        assert_eq!(seen.lock().unwrap().len(), 7, "5 pings and 2 closes");
        server.shutdown();
        assert_eq!(
            sample(
                &registry,
                "perseas_server_requests_total",
                Some("sess_close")
            ),
            2.0
        );
        assert_eq!(
            sample(&registry, "perseas_server_requests_total", Some("ping")),
            5.0
        );
    }

    /// Metrics belong to the handle: a redialing handle keeps counting on
    /// the socket it re-dials.
    #[test]
    fn metrics_keep_counting_across_a_redial() {
        let server = Server::bind("counted", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let addr = server.addr();
        let registry = perseas_obs::Registry::new();
        let posted = || sample(&registry, "perseas_client_posted_total", None);
        let mut r = TcpRemote::connect_redialing(addr, 5, BackoffPolicy::default()).unwrap();
        r.set_metrics(&registry);
        let seg = r.remote_malloc(16, 1).unwrap();
        r.remote_write(seg.id, 0, &[1; 8]).unwrap();
        r.flush().unwrap();
        assert_eq!(posted(), 1.0);

        server.shutdown();
        let server2 = Server::with_node(node, addr).unwrap().start();
        r.remote_write(seg.id, 8, &[2; 8]).unwrap();
        r.flush().unwrap();
        assert_eq!(posted(), 2.0);
        let mut buf = [0u8; 16];
        r.remote_read(seg.id, 0, &mut buf).unwrap();
        assert_eq!(buf, [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2]);
        assert_eq!(
            sample(&registry, "perseas_client_flush_barriers_total", None),
            2.0
        );
        server2.shutdown();
    }
}
