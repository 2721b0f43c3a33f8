//! TCP client backend: network RAM on a genuinely separate process.

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use perseas_sci::SegmentId;

use crate::metrics::ClientMetrics;
use crate::protocol::{
    encode_seq, encode_write, encode_write_v, read_frame, write_frame, Request, Response,
};
use crate::{FlushStats, RemoteMemory, RemoteSegment, RnError};

/// Environment variable read by [`TcpRemote::connect_auto`]: set it to
/// `1`, `true`, `on`, or `yes` to get a pipelined connection, anything
/// else (or unset) for the synchronous one.
pub const PIPELINE_ENV: &str = "PERSEAS_TCP_PIPELINE";

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

/// Client-side pipelining state: the FIFO of posted-but-unacknowledged
/// sequence numbers and the refusals their acks carried back.
#[derive(Debug)]
struct PipelineState {
    cfg: PipelineConfig,
    next_seq: u64,
    /// `(seq, payload_bytes)` of posted writes, oldest first. The server
    /// answers in FIFO order, so the next tagged response always matches
    /// the front (or a synchronous RPC posted after all of them).
    outstanding: VecDeque<(u64, usize)>,
    outstanding_bytes: usize,
    /// Typed refusals earned by posted writes, surfaced one per
    /// [`RemoteMemory::flush`] call.
    refusals: VecDeque<String>,
}

/// A [`RemoteMemory`] that talks to a [`crate::server::Server`] over TCP.
///
/// Latency here is real wall-clock network latency; use this backend for
/// actual deployments and the two-process examples, and [`crate::SimRemote`]
/// for reproducing the paper's virtual-time figures.
///
/// Two modes share the connection logic:
///
/// - [`TcpRemote::connect`] acknowledges every operation inline — one
///   round trip per call, errors surface at the call that earned them.
/// - [`TcpRemote::connect_pipelined`] *posts* writes: `remote_write` and
///   `remote_write_v` return as soon as the frame is on the wire (within
///   a bounded window), and [`RemoteMemory::flush`] is the ack barrier
///   that confirms them — the paper's "write now, confirm at the commit
///   point" shape over a real network. A posted write's refusal never
///   surfaces through another operation's result; it is queued and
///   reported by `flush`, one per call.
#[derive(Debug)]
pub struct TcpRemote {
    stream: TcpStream,
    peer: SocketAddr,
    cached_name: Option<String>,
    pipeline: Option<PipelineState>,
    metrics: Option<ClientMetrics>,
}

impl TcpRemote {
    /// Connects to a network-RAM server in synchronous (one round trip
    /// per operation) mode.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(TcpRemote {
            stream,
            peer,
            cached_name: None,
            pipeline: None,
            metrics: None,
        })
    }

    /// Installs metrics: round trips, posted writes, frame bytes, window
    /// stalls, flush barriers, and window occupancy are registered in
    /// `registry` (names in `docs/OBSERVABILITY.md`). Without this call
    /// the transport pays one `Option` branch per operation.
    pub fn set_metrics(&mut self, registry: &perseas_obs::Registry) {
        self.metrics = Some(ClientMetrics::new(registry));
    }

    /// Updates the window-occupancy gauge (no-op without metrics).
    fn gauge_in_flight(&self) {
        if let Some(m) = self.metrics.as_ref() {
            m.in_flight
                .set(self.pipeline.as_ref().map_or(0, |p| p.outstanding.len()) as i64);
        }
    }

    /// Connects in pipelined mode with the default window
    /// ([`PipelineConfig::default`]: 64 ops / 4 MiB).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_pipelined(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        TcpRemote::connect_with(addr, PipelineConfig::default())
    }

    /// Connects in pipelined mode with an explicit window configuration.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        cfg: PipelineConfig,
    ) -> Result<TcpRemote, RnError> {
        let mut conn = TcpRemote::connect(addr)?;
        conn.enable_pipeline(cfg);
        Ok(conn)
    }

    /// Switches an idle connection into pipelined mode (used by the
    /// reconnect wrapper so enabling pipelining does not re-dial).
    pub(crate) fn enable_pipeline(&mut self, cfg: PipelineConfig) {
        debug_assert_eq!(self.in_flight(), 0, "enable on an idle connection");
        self.pipeline = Some(PipelineState {
            cfg: PipelineConfig {
                max_ops: cfg.max_ops.max(1),
                max_bytes: cfg.max_bytes.max(1),
            },
            next_seq: 0,
            outstanding: VecDeque::new(),
            outstanding_bytes: 0,
            refusals: VecDeque::new(),
        });
    }

    /// Connects in the mode selected by the [`PIPELINE_ENV`] environment
    /// variable — the hook the test suites use to run the same scenarios
    /// over both transports.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect_auto(addr: impl ToSocketAddrs) -> Result<TcpRemote, RnError> {
        if env_enables_pipeline(std::env::var(PIPELINE_ENV).ok().as_deref()) {
            TcpRemote::connect_pipelined(addr)
        } else {
            TcpRemote::connect(addr)
        }
    }

    /// Whether this connection posts writes (pipelined mode).
    pub fn is_pipelined(&self) -> bool {
        self.pipeline.is_some()
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// See [`peer_hung_up`].
    pub(crate) fn hung_up(&self) -> bool {
        peer_hung_up(&self.stream)
    }

    /// Sends a liveness probe.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn ping(&mut self) -> Result<(), RnError> {
        match self.call(&Request::Ping)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to stop accepting new connections.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn shutdown_server(&mut self) -> Result<(), RnError> {
        match self.call(&Request::Shutdown)? {
            Response::Ok => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    fn call(&mut self, req: &Request) -> Result<Response, RnError> {
        if self.pipeline.is_some() {
            let seq = self.take_seq();
            let body = encode_seq(seq, req);
            if let Some(m) = self.metrics.as_ref() {
                m.ops.inc();
                m.bytes.add(body.len() as u64);
            }
            write_frame(&mut self.stream, &body)?;
            let resp = self.await_tagged(seq);
            self.gauge_in_flight();
            return resp;
        }
        self.sync_roundtrip(&req.encode())
    }

    /// One synchronous request/response exchange from an already-encoded
    /// frame body.
    fn sync_roundtrip(&mut self, body: &[u8]) -> Result<Response, RnError> {
        if let Some(m) = self.metrics.as_ref() {
            m.ops.inc();
            m.bytes.add(body.len() as u64);
        }
        write_frame(&mut self.stream, body)?;
        let resp = read_frame(&mut self.stream)?;
        Response::decode(&resp)
    }

    /// Allocates the next sequence number (pipelined mode only).
    fn take_seq(&mut self) -> u64 {
        let p = self.pipeline.as_mut().expect("pipelined mode");
        let seq = p.next_seq;
        p.next_seq += 1;
        seq
    }

    /// Posts an already-encoded, seq-wrapped write without waiting for
    /// its acknowledgement, draining old acks first if the window is
    /// full. `bytes` is the payload size charged against the window.
    fn post(&mut self, body: Vec<u8>, seq: u64, bytes: usize) -> Result<(), RnError> {
        let mut stalled = false;
        loop {
            let p = self.pipeline.as_ref().expect("pipelined mode");
            let fits = p.outstanding.len() < p.cfg.max_ops
                && (p.outstanding.is_empty() || p.outstanding_bytes + bytes <= p.cfg.max_bytes);
            if fits {
                break;
            }
            stalled = true;
            self.drain_one()?;
        }
        write_frame(&mut self.stream, &body)?;
        let p = self.pipeline.as_mut().expect("pipelined mode");
        p.outstanding.push_back((seq, bytes));
        p.outstanding_bytes += bytes;
        if let Some(m) = self.metrics.as_ref() {
            m.posted.inc();
            m.bytes.add(body.len() as u64);
            if stalled {
                m.window_stalls.inc();
            }
        }
        self.gauge_in_flight();
        Ok(())
    }

    /// Reads one tagged response and resolves it against the oldest
    /// outstanding posted write; a refusal is queued for [`Self::flush`],
    /// never returned here.
    fn drain_one(&mut self) -> Result<(), RnError> {
        let body = read_frame(&mut self.stream)?;
        let resp = Response::decode(&body)?;
        let Response::Tagged { seq, inner } = resp else {
            return Err(unexpected(resp));
        };
        let p = self.pipeline.as_mut().expect("pipelined mode");
        let Some(&(front, bytes)) = p.outstanding.front() else {
            return Err(RnError::Protocol(format!("unsolicited ack for seq {seq}")));
        };
        if seq != front {
            return Err(RnError::Protocol(format!(
                "ack for seq {seq} arrived while seq {front} is oldest in flight"
            )));
        }
        p.outstanding.pop_front();
        p.outstanding_bytes -= bytes;
        match *inner {
            Response::Ok => Ok(()),
            Response::Err(m) => {
                p.refusals.push_back(m);
                Ok(())
            }
            other => Err(unexpected(other)),
        }
    }

    /// Reads tagged responses until the one for `want` arrives, resolving
    /// acknowledgements of earlier posted writes along the way (the
    /// server answers in FIFO order, so they all precede `want`).
    fn await_tagged(&mut self, want: u64) -> Result<Response, RnError> {
        loop {
            let body = read_frame(&mut self.stream)?;
            let resp = Response::decode(&body)?;
            let Response::Tagged { seq, inner } = resp else {
                return Err(unexpected(resp));
            };
            let p = self.pipeline.as_mut().expect("pipelined mode");
            if let Some(&(front, bytes)) = p.outstanding.front() {
                if seq == front {
                    p.outstanding.pop_front();
                    p.outstanding_bytes -= bytes;
                    match *inner {
                        Response::Ok => continue,
                        Response::Err(m) => {
                            p.refusals.push_back(m);
                            continue;
                        }
                        other => return Err(unexpected(other)),
                    }
                }
            }
            if seq == want {
                return Ok(*inner);
            }
            return Err(RnError::Protocol(format!(
                "response for seq {seq} out of order (awaiting {want})"
            )));
        }
    }

    fn expect_segment(&mut self, req: &Request) -> Result<RemoteSegment, RnError> {
        match self.call(req)? {
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
            other => Err(unexpected(other)),
        }
    }
}

fn unexpected(resp: Response) -> RnError {
    RnError::Protocol(format!("unexpected response: {resp:?}"))
}

/// Whether the peer has closed or reset `stream`, asked without blocking.
/// A frame is one `write`, and the local socket accepts a write to a
/// peer that has already hung up, so a posted write cannot find this out
/// by itself; [`crate::ReconnectingRemote`] asks before it opens a new
/// window on an idle connection.
pub(crate) fn peer_hung_up(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let verdict = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => e.kind() != std::io::ErrorKind::WouldBlock,
    };
    stream.set_nonblocking(false).is_err() || verdict
}

/// Validates a [`Response::DataV`] against the ranges that were requested:
/// exactly one buffer per range, each of the requested length. Shared by
/// the plain TCP client and mux sessions.
pub(crate) fn check_data_v(
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

/// Interprets the [`PIPELINE_ENV`] value: `1`/`true`/`on`/`yes`
/// (case-insensitive) enable pipelining, anything else — including
/// unset — selects the synchronous transport.
pub(crate) fn env_enables_pipeline(value: Option<&str>) -> bool {
    matches!(
        value.map(str::trim).map(str::to_ascii_lowercase).as_deref(),
        Some("1") | Some("true") | Some("on") | Some("yes")
    )
}

impl RemoteMemory for TcpRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        self.expect_segment(&Request::Malloc {
            len: len as u64,
            tag,
        })
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        match self.call(&Request::Free { seg: seg.as_raw() })? {
            Response::Ok => Ok(()),
            Response::Err(m) => Err(RnError::Remote(m)),
            other => Err(unexpected(other)),
        }
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        // The frame is encoded straight from the borrowed payload: one
        // allocation, one copy, no intermediate `data.to_vec()`.
        if self.pipeline.is_some() {
            let seq = self.take_seq();
            let body = encode_write(Some(seq), seg.as_raw(), offset as u64, data);
            return self.post(body, seq, data.len());
        }
        let body = encode_write(None, seg.as_raw(), offset as u64, data);
        match self.sync_roundtrip(&body)? {
            Response::Ok => Ok(()),
            Response::Err(m) => Err(RnError::Remote(m)),
            other => Err(unexpected(other)),
        }
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        // The whole batch rides in one frame and is confirmed by one ack;
        // the frame is encoded straight from the borrowed ranges.
        let ranges: Vec<(u64, u64, &[u8])> = writes
            .iter()
            .map(|&(seg, offset, data)| (seg.as_raw(), offset as u64, data))
            .collect();
        if self.pipeline.is_some() {
            let seq = self.take_seq();
            let body = encode_write_v(Some(seq), &ranges);
            let bytes = ranges.iter().map(|(_, _, d)| d.len()).sum();
            return self.post(body, seq, bytes);
        }
        let body = encode_write_v(None, &ranges);
        match self.sync_roundtrip(&body)? {
            Response::Ok => Ok(()),
            Response::Err(m) => Err(RnError::Remote(m)),
            other => Err(unexpected(other)),
        }
    }

    fn flush(&mut self) -> Result<FlushStats, RnError> {
        if self.pipeline.is_none() {
            return Ok(FlushStats::default());
        }
        let stats = {
            let p = self.pipeline.as_ref().expect("pipelined mode");
            FlushStats {
                posted: p.outstanding.len(),
                bytes: p.outstanding_bytes,
            }
        };
        while !self
            .pipeline
            .as_ref()
            .expect("pipelined mode")
            .outstanding
            .is_empty()
        {
            // On a socket error the outstanding window stays recorded, so
            // `in_flight()` keeps reporting the lost operations and a
            // reconnect wrapper knows it must not silently re-dial.
            self.drain_one()?;
        }
        if let Some(m) = self.metrics.as_ref() {
            m.flush_barriers.inc();
            m.flush_posted.add(stats.posted as u64);
            m.flush_bytes.add(stats.bytes as u64);
        }
        self.gauge_in_flight();
        let p = self.pipeline.as_mut().expect("pipelined mode");
        if let Some(m) = p.refusals.pop_front() {
            return Err(RnError::Remote(m));
        }
        Ok(stats)
    }

    fn in_flight(&self) -> usize {
        self.pipeline.as_ref().map_or(0, |p| p.outstanding.len())
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        match self.call(&Request::Read {
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
            Response::Err(m) => Err(RnError::Remote(m)),
            other => Err(unexpected(other)),
        }
    }

    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        match self.call(&Request::ReadV {
            reads: reads
                .iter()
                .map(|&(seg, offset, len)| (seg.as_raw(), offset as u64, len as u64))
                .collect(),
        })? {
            Response::DataV(bufs) => check_data_v(reads, bufs),
            Response::Err(m) => Err(RnError::Remote(m)),
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
            .unwrap_or_else(|| format!("tcp://{}", self.peer))
    }
}

impl TcpRemote {
    /// Fetches and caches the server's node name.
    ///
    /// # Errors
    ///
    /// Fails if the server is unreachable.
    pub fn fetch_name(&mut self) -> Result<String, RnError> {
        match self.call(&Request::Name)? {
            Response::Name(n) => {
                self.cached_name = Some(n.clone());
                Ok(n)
            }
            Response::Err(m) => Err(RnError::Remote(m)),
            other => Err(unexpected(other)),
        }
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
        assert!(c.is_pipelined());
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
        // malloc + read are synchronous (tagged) round trips.
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
        // Other RPC kinds work seq-wrapped too.
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
    fn env_toggle_parses_truthy_values_only() {
        assert!(env_enables_pipeline(Some("1")));
        assert!(env_enables_pipeline(Some("true")));
        assert!(env_enables_pipeline(Some("ON")));
        assert!(env_enables_pipeline(Some(" yes ")));
        assert!(!env_enables_pipeline(Some("0")));
        assert!(!env_enables_pipeline(Some("off")));
        assert!(!env_enables_pipeline(Some("")));
        assert!(!env_enables_pipeline(None));
    }

    #[test]
    fn sync_mode_flush_is_a_noop() {
        let server = Server::bind("sync", "127.0.0.1:0").unwrap().start();
        let mut c = TcpRemote::connect(server.addr()).unwrap();
        assert!(!c.is_pipelined());
        let seg = c.remote_malloc(8, 0).unwrap();
        c.remote_write(seg.id, 0, &[1]).unwrap();
        assert_eq!(c.in_flight(), 0);
        assert_eq!(c.flush().unwrap(), FlushStats::default());
        server.shutdown();
    }
}
