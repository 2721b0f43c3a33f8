//! TCP client backend: network RAM on a genuinely separate process.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex};

use perseas_sci::SegmentId;

use crate::metrics::ClientMetrics;
use crate::mux::{lock, MuxIo};
use crate::protocol::{encode_mux, encode_write_mux, encode_write_v_mux, Request, Response};
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
    /// The only session on a private socket; every operation is confirmed
    /// before it returns.
    Confirmed,
    /// The only session on a private socket, posting writes.
    Pipelined,
    /// One of many sessions on a [`SessionMux`] socket, posting writes.
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
/// [`RemoteMemory::flush`] is the ack barrier that confirms them — the
/// paper's "write now, confirm at the commit point" shape over a real
/// network. A posted write's refusal never surfaces through another
/// operation's result; it is queued and reported by `flush`, one per call.
///
/// - [`TcpRemote::connect`] dials a private socket and runs the barrier
///   after every write, so each operation is confirmed before it returns
///   and a refusal is that call's error.
/// - [`TcpRemote::connect_pipelined`] / [`TcpRemote::connect_with`] dial
///   a private socket and leave confirmation to `flush`.
/// - [`SessionMux::session`] hands out handles sharing one socket.
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
    /// Connects to a network-RAM server on a private socket, confirming
    /// every operation before it returns.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        let mux = SessionMux::connect(addr)?;
        Ok(TcpRemote::open(
            &mux,
            Kind::Confirmed,
            PipelineConfig::default(),
        ))
    }

    /// Connects on a private socket with the default posted-write window
    /// ([`PipelineConfig::default`]: 64 ops / 4 MiB).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_pipelined(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        TcpRemote::connect_with(addr, PipelineConfig::default())
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
        Ok(TcpRemote::open(&mux, Kind::Pipelined, cfg))
    }

    /// Dials a fresh handle of `kind` with the default window (used by
    /// the reconnect wrapper).
    pub(crate) fn dial(addr: impl ToSocketAddrs, kind: Kind) -> Result<TcpRemote, RnError> {
        match kind {
            Kind::Confirmed => TcpRemote::connect(addr),
            Kind::Pipelined => TcpRemote::connect_pipelined(addr),
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

    /// Sends a liveness probe.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn ping(&mut self) -> Result<(), RnError> {
        self.rpc(&Request::Ping).and_then(expect_ok)
    }

    /// Asks the server to stop accepting new connections.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn shutdown_server(&mut self) -> Result<(), RnError> {
        self.rpc(&Request::Shutdown).and_then(expect_ok)
    }

    /// Fetches and caches the server's node name.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn fetch_name(&mut self) -> Result<String, RnError> {
        match self.rpc(&Request::Name)? {
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

    /// One request/response exchange; a refusal is its error.
    fn rpc(&self, req: &Request) -> Result<Response, RnError> {
        let mut io = lock(&self.io);
        let seq = io.take_seq(self.session);
        let body = encode_mux(self.session, seq, req);
        if let Some(m) = self.metrics.as_ref() {
            m.ops.inc();
            m.bytes.add(body.len() as u64);
        }
        let resp = io.rpc(self.session, seq, &body);
        self.gauge_in_flight(&io);
        resp
    }

    /// Posts the write `encode` builds for a sequence number, charging
    /// `bytes` of payload against the window. A confirmed handle then
    /// runs the barrier: its window holds only this write, so a failure
    /// is this call's error and leaves nothing in flight.
    fn post(&self, bytes: usize, encode: impl FnOnce(u64) -> Vec<u8>) -> Result<(), RnError> {
        let mut io = lock(&self.io);
        let seq = io.take_seq(self.session);
        let body = encode(seq);
        let stalled = io.post(self.session, &body, seq, bytes)?;
        if let Some(m) = self.metrics.as_ref() {
            m.posted.inc();
            m.bytes.add(body.len() as u64);
            if stalled {
                m.window_stalls.inc();
            }
        }
        if self.kind == Kind::Confirmed {
            return self
                .barrier(&mut io)
                .map(drop)
                .inspect_err(|_| io.abandon(self.session));
        }
        self.gauge_in_flight(&io);
        Ok(())
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
        match self.rpc(req)? {
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
        self.rpc(&Request::Free { seg: seg.as_raw() })
            .and_then(expect_ok)
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        // The frame is encoded straight from the borrowed payload: one
        // allocation, one copy, no intermediate `data.to_vec()`.
        let session = self.session;
        self.post(data.len(), |seq| {
            encode_write_mux(session, seq, seg.as_raw(), offset as u64, data)
        })
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        // The whole batch rides in one frame and is confirmed by one ack;
        // the frame is encoded straight from the borrowed ranges.
        let ranges: Vec<(u64, u64, &[u8])> = writes
            .iter()
            .map(|&(seg, offset, data)| (seg.as_raw(), offset as u64, data))
            .collect();
        let bytes = ranges.iter().map(|(_, _, d)| d.len()).sum();
        let session = self.session;
        self.post(bytes, |seq| encode_write_v_mux(session, seq, &ranges))
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
        match self.rpc(&Request::Read {
            seg: seg.as_raw(),
            offset: offset as u64,
            len: buf.len() as u64,
        })? {
            Response::Data(d) if d.len() == buf.len() => {
                buf.copy_from_slice(&d);
                Ok(())
            }
            Response::Data(d) => Err(RnError::Protocol(format!(
                "short read: wanted {} bytes, got {}",
                buf.len(),
                d.len()
            ))),
            other => Err(unexpected(other)),
        }
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        match self.rpc(&Request::ReadV {
            reads: reads
                .iter()
                .map(|&(seg, offset, len)| (seg.as_raw(), offset as u64, len as u64))
                .collect(),
        })? {
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
            _ => format!("tcp://{}", self.peer),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;

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
        // (torn-prefix semantics).
        let err = c
            .remote_write_v(&[(seg.id, 0, &[5; 16]), (seg.id, 60, &[6; 8])])
            .unwrap_err();
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
        let mut c = TcpRemote::connect_pipelined(server.addr()).unwrap();
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
        let mut c = TcpRemote::connect_pipelined(server.addr()).unwrap();
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
        let mut c = TcpRemote::connect_pipelined(server.addr()).unwrap();
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
        let mut c = TcpRemote::connect_pipelined(server.addr()).unwrap();
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
    fn sync_mode_flush_is_a_noop() {
        // A confirmed connection's barrier ran inside each write, so the
        // caller's barrier finds nothing posted.
        let server = Server::bind("sync", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(8, 0).unwrap();
        c.remote_write(seg.id, 0, &[1]).unwrap();
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.flush().unwrap(), FlushStats::default());
        server.shutdown();
    }

    #[test]
    fn a_confirmed_write_on_a_dead_server_leaves_nothing_in_flight() {
        let server = Server::bind("gone", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        let seg = c.remote_malloc(8, 0).unwrap();
        server.shutdown();
        let err = c.remote_write(seg.id, 0, &[1]).unwrap_err();
        assert!(err.is_unavailable(), "{err}");
        assert_eq!(c.in_flight(), 0, "the failure was this call's error");
    }
}
