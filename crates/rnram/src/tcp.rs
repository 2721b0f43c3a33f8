//! TCP client backend: network RAM on a genuinely separate process.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use perseas_sci::SegmentId;

use crate::metrics::ClientMetrics;
use crate::mux::{lock, MuxIo};
use crate::protocol::{
    encode_mux, Request, Response, WriteFrame, MAX_PIECE, RANGE_HEAD, WRITE_HEAD, WRITE_V_HEAD,
};
use crate::{FlushStats, RemoteMemory, RemoteSegment, RnError, SessionMux};

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

/// How a [`TcpRemote`] was opened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    /// The only session on a private socket.
    Private,
    /// One of many sessions on a [`SessionMux`] socket.
    Shared,
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
    kind: Kind,
    peer: SocketAddr,
    cached_name: Option<String>,
    metrics: Option<ClientMetrics>,
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
        Ok(TcpRemote::open(&mux, Kind::Private, cfg))
    }

    /// Dials a fresh handle of `kind` with the default window (used by
    /// the reconnect wrapper).
    pub(crate) fn dial(addr: impl ToSocketAddrs, kind: Kind) -> Result<TcpRemote, RnError> {
        match kind {
            Kind::Private => TcpRemote::connect(addr),
            Kind::Shared => Ok(SessionMux::shared(addr)?.session()),
        }
    }

    /// Opens a new session of `kind` with window `cfg` on `mux`.
    pub(crate) fn open(mux: &SessionMux, kind: Kind, cfg: PipelineConfig) -> TcpRemote {
        let mut g = lock(&mux.io);
        TcpRemote {
            io: mux.io.clone(),
            session: g.open_session(cfg),
            kind,
            peer: g.peer(),
            cached_name: None,
            metrics: None,
        }
    }

    /// Installs metrics: round trips, posted writes, frame bytes, window
    /// stalls, flush barriers, and window occupancy are registered in
    /// `registry` (names in `docs/OBSERVABILITY.md`). Without this call
    /// the transport pays one `Option` branch per operation.
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

    /// See [`MuxIo::hung_up`].
    pub(crate) fn hung_up(&self) -> bool {
        lock(&self.io).hung_up()
    }

    /// See [`MuxIo::unreported`]. Dropping a handle loses them.
    pub(crate) fn unreported(&self) -> usize {
        lock(&self.io).unreported(self.session)
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
        // A private socket closes with its only handle, which retires the
        // session on the server without a `SessClose`.
        lock(&self.io).close_session(self.session, self.kind == Kind::Shared);
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
        self.segment(&Request::Malloc {
            len: len as u64,
            tag,
        })
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        self.rpc(&Request::Free { seg: seg.as_raw() }, None)
            .and_then(expect_ok)
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        // The payload goes to the socket from `data` itself, gathered
        // behind the frame's head (see `WriteFrame`).
        let range = (seg.as_raw(), offset as u64, data);
        if WRITE_HEAD + data.len() > MAX_PIECE {
            return self.post_pieces(cut([range]));
        }
        let session = self.session;
        self.post(data.len(), |head, seq| {
            WriteFrame::write(head, session, seq, range)
        })
        .map(drop)
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        // A batch that fits rides in one frame and is confirmed by one
        // ack; each long range goes to the socket from the caller's buffer.
        let bytes: usize = writes.iter().map(|(_, _, d)| d.len()).sum();
        let ranges = writes
            .iter()
            .map(|&(seg, offset, data)| (seg.as_raw(), offset as u64, data));
        if WRITE_V_HEAD + RANGE_HEAD * writes.len() + bytes > MAX_PIECE {
            return self.post_pieces(cut(ranges));
        }
        let session = self.session;
        self.post(bytes, |head, seq| {
            WriteFrame::write_v(head, session, seq, ranges)
        })
        .map(drop)
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        // On a socket error the outstanding window stays recorded, so
        // `in_flight()` keeps reporting the lost operations and a
        // reconnect wrapper knows it must not silently re-dial.
        self.barrier(&mut lock(&self.io))
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
        if buf.len() <= MAX_PIECE {
            return self.read_piece(seg, offset, buf);
        }
        for (i, piece) in buf.chunks_mut(MAX_PIECE).enumerate() {
            self.read_piece(seg, offset.saturating_add(i * MAX_PIECE), piece)?;
        }
        Ok(())
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
        match self.rpc(&req, None)? {
            Response::DataV(bufs) => check_data_v(reads, bufs),
            other => Err(unexpected(other)),
        }
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.segment(&Request::Connect { tag })
            .map_err(|e| match e {
                RnError::Remote(_) => RnError::TagNotFound(tag),
                other => other,
            })
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        self.segment(&Request::Info { seg: seg.as_raw() })
    }

    fn node_name(&self) -> String {
        self.cached_name.clone().unwrap_or_else(|| match self.kind {
            Kind::Shared => format!("mux://{}#{}", self.peer, self.session),
            Kind::Private => format!("tcp://{}", self.peer),
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
    /// frame a client sends it.
    fn recording_peer(upstream: SocketAddr) -> (SocketAddr, Seen) {
        use crate::protocol::{read_frame, write_frame};
        use std::net::{TcpListener, TcpStream};

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let kept = Arc::clone(&seen);
        std::thread::spawn(move || {
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
        (addr, seen)
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
        let (addr, seen) = recording_peer(server.addr());
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
}
