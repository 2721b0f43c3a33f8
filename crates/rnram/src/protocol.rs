//! Wire protocol of the TCP network-RAM backend.
//!
//! Frames are length-prefixed and CRC-protected:
//!
//! ```text
//! +----------------+----------------------+----------------+
//! | body_len: u32  | body (op + payload)  | crc32 of body  |
//! +----------------+----------------------+----------------+
//! ```
//!
//! All integers are little-endian. The CRC is the IEEE 802.3 CRC-32.

use std::io::{self, IoSlice, Read, Write};

use crate::RnError;

/// Upper bound on a frame body; a malloc of the node's whole 64 MB plus
/// slack.
pub const MAX_FRAME: usize = 96 << 20;

/// Upper bound on the body of a `Write` or `WriteV` frame a
/// [`crate::TcpRemote`] sends, and on the bytes one of its `Read`s asks
/// for. A longer transfer travels as a sequence of frames of at most this
/// size, so no frame outgrows the caches its copy, CRC and socket passes
/// run through, and neither side holds a buffer as large as the transfer.
/// 256 KiB measured best of 256 KiB, 512 KiB, 1 MiB and 4 MiB
/// (EXPERIMENTS.md has the sweep).
pub const MAX_PIECE: usize = 256 << 10;

/// Requests a client may send. `P` holds a write's payload: a client
/// builds requests over owned `Vec<u8>`s, and [`Request::decode`] yields
/// them over `&[u8]`s borrowed from the frame body it parses, so a server
/// copies a written byte once, when it applies it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request<P = Vec<u8>> {
    /// Allocate `len` bytes tagged `tag`.
    Malloc { len: u64, tag: u64 },
    /// Free a segment.
    Free { seg: u64 },
    /// Write `data` at `offset` of `seg`.
    Write { seg: u64, offset: u64, data: P },
    /// Read `len` bytes at `offset` of `seg`.
    Read { seg: u64, offset: u64, len: u64 },
    /// Read several `(seg, offset, len)` ranges as one message with one
    /// answer (the wire form of a vectored `remote_read_v`). The
    /// event-driven server serves the whole batch atomically with
    /// respect to other sessions' writes, which is what lets a read
    /// replica take an untearable snapshot cut.
    ReadV {
        /// The `(seg, offset, len)` ranges, read in order.
        reads: Vec<(u64, u64, u64)>,
    },
    /// Find a segment by tag (recovery).
    Connect { tag: u64 },
    /// Fetch metadata of a segment.
    Info { seg: u64 },
    /// Write several `(seg, offset, data)` ranges as one message with one
    /// acknowledgement (the wire form of a vectored `remote_write_v`).
    /// Ranges are applied in order; on a mid-batch failure the earlier
    /// ranges stay applied, mirroring a torn SCI burst.
    WriteV {
        /// The `(seg, offset, data)` ranges, applied in order.
        ranges: Vec<(u64, u64, P)>,
    },
    /// Ask the server for its node name.
    Name,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting connections.
    Shutdown,
    /// A multiplexed request: `inner` belongs to the logical client
    /// session `session` and carries that session's sequence number
    /// `seq`. Many sessions share one socket; the server answers with
    /// [`Response::Mux`] echoing both identifiers so the client can
    /// route the acknowledgement to the right session. Per-session
    /// ordering is FIFO (the server answers a connection's requests in
    /// receipt order, and a session's frames are a subsequence of the
    /// connection's). Nesting is rejected: a `Mux` may not wrap another
    /// `Mux`.
    Mux {
        /// The logical session this request belongs to.
        session: u64,
        /// The session's sequence number, echoed in the response.
        seq: u64,
        /// The wrapped request.
        inner: Box<Request<P>>,
    },
    /// Retires the wrapping [`Request::Mux`]'s session: the server
    /// forgets the session id (gauge bookkeeping only — sessions hold no
    /// server-side state beyond their count). Sent best-effort when a
    /// client session handle is dropped.
    SessClose,
}

/// Responses the server returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Generic success.
    Ok,
    /// Segment metadata (for malloc/connect/info).
    Segment {
        /// Raw segment id.
        seg: u64,
        /// Segment length in bytes.
        len: u64,
        /// Client tag.
        tag: u64,
        /// Base physical address on the server.
        base_addr: u64,
    },
    /// Read payload.
    Data(Vec<u8>),
    /// Vectored read payload: one buffer per requested range, in request
    /// order (answers a [`Request::ReadV`]).
    DataV(Vec<Vec<u8>>),
    /// The server's node name.
    Name(String),
    /// Request refused; human-readable reason.
    Err(String),
    /// Response to a [`Request::Mux`]: `inner` tagged with the session id
    /// and the session's sequence number, so a client multiplexing many
    /// sessions over one socket can route each acknowledgement. Nesting
    /// is rejected.
    Mux {
        /// The logical session the answered request belonged to.
        session: u64,
        /// The sequence number of the request this answers.
        seq: u64,
        /// The wrapped response.
        inner: Box<Response>,
    },
    /// Typed admission refusal: the server's shared service pool and its
    /// bounded overflow queue are both full, so the request was refused
    /// *without being applied*. Clients surface this as
    /// [`crate::RnError::Overloaded`]; retrying after backoff is safe.
    Overloaded,
}

const OP_MALLOC: u8 = 1;
const OP_FREE: u8 = 2;
const OP_WRITE: u8 = 3;
const OP_READ: u8 = 4;
const OP_CONNECT: u8 = 5;
const OP_INFO: u8 = 6;
const OP_NAME: u8 = 7;
const OP_PING: u8 = 8;
const OP_SHUTDOWN: u8 = 9;
const OP_WRITE_V: u8 = 10;
const OP_MUX: u8 = 12;
const OP_SESS_CLOSE: u8 = 13;
const OP_READ_V: u8 = 14;

const RE_OK: u8 = 128;
const RE_SEGMENT: u8 = 129;
const RE_DATA: u8 = 130;
const RE_NAME: u8 = 131;
const RE_ERR: u8 = 132;
const RE_MUX: u8 = 134;
const RE_OVERLOADED: u8 = 135;
const RE_DATA_V: u8 = 136;

use perseas_sci::crc32 as crc_state;
/// Computes the IEEE CRC-32 of `data`.
pub use perseas_sci::crc32::checksum as crc32;
use perseas_sci::crc32::checksum_parts as crc32_parts;

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64, RnError> {
    let end = *pos + 8;
    let bytes = buf
        .get(*pos..end)
        .ok_or_else(|| RnError::Protocol("truncated integer".into()))?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

impl Request {
    /// Serializes the request into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request(self, &mut out);
        out
    }
}

/// Appends `req`'s frame body to `out`, whatever holds its payloads.
fn encode_request<P: AsRef<[u8]>>(req: &Request<P>, out: &mut Vec<u8>) {
    match req {
        Request::Malloc { len, tag } => {
            out.push(OP_MALLOC);
            put_u64(out, *len);
            put_u64(out, *tag);
        }
        Request::Free { seg } => {
            out.push(OP_FREE);
            put_u64(out, *seg);
        }
        Request::Write { seg, offset, data } => {
            out.push(OP_WRITE);
            put_u64(out, *seg);
            put_u64(out, *offset);
            out.extend_from_slice(data.as_ref());
        }
        Request::Read { seg, offset, len } => {
            out.push(OP_READ);
            put_u64(out, *seg);
            put_u64(out, *offset);
            put_u64(out, *len);
        }
        Request::Connect { tag } => {
            out.push(OP_CONNECT);
            put_u64(out, *tag);
        }
        Request::Info { seg } => {
            out.push(OP_INFO);
            put_u64(out, *seg);
        }
        Request::WriteV { ranges } => {
            out.push(OP_WRITE_V);
            put_u64(out, ranges.len() as u64);
            for (seg, offset, data) in ranges {
                let data = data.as_ref();
                put_u64(out, *seg);
                put_u64(out, *offset);
                put_u64(out, data.len() as u64);
                out.extend_from_slice(data);
            }
        }
        Request::ReadV { reads } => {
            out.push(OP_READ_V);
            put_u64(out, reads.len() as u64);
            for (seg, offset, len) in reads {
                put_u64(out, *seg);
                put_u64(out, *offset);
                put_u64(out, *len);
            }
        }
        Request::Name => out.push(OP_NAME),
        Request::Ping => out.push(OP_PING),
        Request::Shutdown => out.push(OP_SHUTDOWN),
        Request::Mux {
            session,
            seq,
            inner,
        } => {
            out.push(OP_MUX);
            put_u64(out, *session);
            put_u64(out, *seq);
            encode_request(inner, out);
        }
        Request::SessClose => out.push(OP_SESS_CLOSE),
    }
}

/// A decoded request equals an owned one when both encode to the same
/// frame body.
impl PartialEq<Request> for Request<&[u8]> {
    fn eq(&self, other: &Request) -> bool {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        encode_request(self, &mut a);
        encode_request(other, &mut b);
        a == b
    }
}

impl<'a> Request<&'a [u8]> {
    /// Parses a frame body into a request whose write payloads borrow
    /// from `body`.
    ///
    /// # Errors
    ///
    /// Returns [`RnError::Protocol`] on malformed input.
    pub fn decode(body: &'a [u8]) -> Result<Request<&'a [u8]>, RnError> {
        let (&op, rest) = body
            .split_first()
            .ok_or_else(|| RnError::Protocol("empty frame".into()))?;
        let mut pos = 0;
        let req = match op {
            OP_MALLOC => Request::Malloc {
                len: get_u64(rest, &mut pos)?,
                tag: get_u64(rest, &mut pos)?,
            },
            OP_FREE => Request::Free {
                seg: get_u64(rest, &mut pos)?,
            },
            OP_WRITE => {
                let seg = get_u64(rest, &mut pos)?;
                let offset = get_u64(rest, &mut pos)?;
                Request::Write {
                    seg,
                    offset,
                    data: &rest[pos..],
                }
            }
            OP_READ => Request::Read {
                seg: get_u64(rest, &mut pos)?,
                offset: get_u64(rest, &mut pos)?,
                len: get_u64(rest, &mut pos)?,
            },
            OP_CONNECT => Request::Connect {
                tag: get_u64(rest, &mut pos)?,
            },
            OP_INFO => Request::Info {
                seg: get_u64(rest, &mut pos)?,
            },
            OP_WRITE_V => {
                let count = get_u64(rest, &mut pos)?;
                // Each range needs at least its 24-byte header; reject
                // counts the frame cannot possibly hold before allocating.
                if count > (rest.len() as u64) / 24 {
                    return Err(RnError::Protocol(format!(
                        "vectored write claims {count} ranges in a {} byte frame",
                        rest.len()
                    )));
                }
                let mut ranges = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let seg = get_u64(rest, &mut pos)?;
                    let offset = get_u64(rest, &mut pos)?;
                    let len = get_u64(rest, &mut pos)? as usize;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= rest.len())
                        .ok_or_else(|| RnError::Protocol("truncated range data".into()))?;
                    ranges.push((seg, offset, &rest[pos..end]));
                    pos = end;
                }
                Request::WriteV { ranges }
            }
            OP_READ_V => {
                let count = get_u64(rest, &mut pos)?;
                // Each range is exactly its 24-byte descriptor; reject
                // counts the frame cannot possibly hold before allocating.
                if count > (rest.len() as u64) / 24 {
                    return Err(RnError::Protocol(format!(
                        "vectored read claims {count} ranges in a {} byte frame",
                        rest.len()
                    )));
                }
                let mut reads = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let seg = get_u64(rest, &mut pos)?;
                    let offset = get_u64(rest, &mut pos)?;
                    let len = get_u64(rest, &mut pos)?;
                    reads.push((seg, offset, len));
                }
                Request::ReadV { reads }
            }
            OP_NAME => Request::Name,
            OP_PING => Request::Ping,
            OP_SHUTDOWN => Request::Shutdown,
            OP_MUX => {
                let session = get_u64(rest, &mut pos)?;
                let seq = get_u64(rest, &mut pos)?;
                let inner = Request::decode(&rest[pos..])?;
                if matches!(inner, Request::Mux { .. }) {
                    // Depth one only: unbounded nesting would let a
                    // hostile frame recurse the decoder off the stack.
                    return Err(RnError::Protocol("nested mux frame".into()));
                }
                Request::Mux {
                    session,
                    seq,
                    inner: Box::new(inner),
                }
            }
            OP_SESS_CLOSE => Request::SessClose,
            other => return Err(RnError::Protocol(format!("unknown opcode {other}"))),
        };
        Ok(req)
    }
}

/// Encodes a `WriteV` request body straight from borrowed ranges — the
/// frame body is built in one allocation with one copy per range, instead
/// of the copy-into-`Vec`-then-copy-into-frame of constructing a
/// [`Request::WriteV`]. With `seq`, the body is the [`Request::Mux`]
/// wrapping of the write as session 0's number `seq`: the frame a
/// socket's first session sends.
pub fn encode_write_v(seq: Option<u64>, ranges: &[(u64, u64, &[u8])]) -> Vec<u8> {
    let payload: usize = ranges.iter().map(|(_, _, d)| d.len()).sum();
    let mut out = Vec::with_capacity(payload + RANGE_HEAD * ranges.len() + WRITE_V_HEAD);
    if let Some(s) = seq {
        out.push(OP_MUX);
        put_u64(&mut out, 0);
        put_u64(&mut out, s);
    }
    out.push(OP_WRITE_V);
    put_u64(&mut out, ranges.len() as u64);
    for &(seg, offset, data) in ranges {
        put_u64(&mut out, seg);
        put_u64(&mut out, offset);
        put_u64(&mut out, data.len() as u64);
        out.extend_from_slice(data);
    }
    out
}

/// Encodes `req` wrapped in a [`Request::Mux`] body without cloning the
/// request.
pub fn encode_mux(session: u64, seq: u64, req: &Request) -> Vec<u8> {
    let inner = req.encode();
    let mut out = Vec::with_capacity(inner.len() + 17);
    out.push(OP_MUX);
    put_u64(&mut out, session);
    put_u64(&mut out, seq);
    out.extend_from_slice(&inner);
    out
}

/// A range at least this long rides in a [`WriteFrame`] as an iovec of
/// its own, straight from the caller's buffer; a shorter one is copied
/// into the frame's head, where the copy costs less than the iovec.
const GATHER_MIN: usize = 1024;

/// Bytes of a session's `Write` frame body besides its data: the mux
/// head, the opcode, the segment and the offset.
pub(crate) const WRITE_HEAD: usize = 34;
/// Bytes of a session's `WriteV` frame body besides its ranges: the mux
/// head, the opcode and the range count.
pub(crate) const WRITE_V_HEAD: usize = 26;
/// Bytes of a `WriteV` range besides its data: segment, offset, length.
pub(crate) const RANGE_HEAD: usize = 24;

/// A session's `Write` or `WriteV` frame in gathered form: `head` holds
/// the mux head, every range header and every range shorter than
/// [`GATHER_MIN`], and each longer range stays in the caller's buffer,
/// spliced in after the head byte it follows. The wire bytes are those of
/// [`encode_mux`] over the owned request, framed by [`write_frame`].
pub(crate) struct WriteFrame<'a> {
    head: Vec<u8>,
    /// `(head offset, range)`, in body order.
    spliced: Vec<(usize, &'a [u8])>,
}

impl<'a> WriteFrame<'a> {
    fn open(mut head: Vec<u8>, session: u64, seq: u64, op: u8) -> WriteFrame<'a> {
        head.clear();
        head.push(OP_MUX);
        put_u64(&mut head, session);
        put_u64(&mut head, seq);
        head.push(op);
        WriteFrame {
            head,
            spliced: Vec::new(),
        }
    }

    /// Session `session`'s write number `seq` of `data` at `offset` of
    /// `seg`, built in the reused buffer `head`.
    pub(crate) fn write(
        head: Vec<u8>,
        session: u64,
        seq: u64,
        (seg, offset, data): (u64, u64, &'a [u8]),
    ) -> WriteFrame<'a> {
        let mut f = WriteFrame::open(head, session, seq, OP_WRITE);
        put_u64(&mut f.head, seg);
        put_u64(&mut f.head, offset);
        f.push_data(data);
        f
    }

    /// Session `session`'s vectored write number `seq` of `ranges`, built
    /// in the reused buffer `head`.
    pub(crate) fn write_v(
        head: Vec<u8>,
        session: u64,
        seq: u64,
        ranges: impl ExactSizeIterator<Item = (u64, u64, &'a [u8])>,
    ) -> WriteFrame<'a> {
        let mut f = WriteFrame::open(head, session, seq, OP_WRITE_V);
        put_u64(&mut f.head, ranges.len() as u64);
        for (seg, offset, data) in ranges {
            put_u64(&mut f.head, seg);
            put_u64(&mut f.head, offset);
            put_u64(&mut f.head, data.len() as u64);
            f.push_data(data);
        }
        f
    }

    fn push_data(&mut self, data: &'a [u8]) {
        if data.len() >= GATHER_MIN {
            self.spliced.push((self.head.len(), data));
        } else {
            self.head.extend_from_slice(data);
        }
    }

    /// The body's length on the wire.
    pub(crate) fn body_len(&self) -> usize {
        self.head.len() + self.spliced.iter().map(|(_, d)| d.len()).sum::<usize>()
    }

    /// The head buffer, for the next frame.
    pub(crate) fn into_head(self) -> Vec<u8> {
        self.head
    }

    /// Writes the frame — length prefix, body parts, CRC — as one
    /// gathered write (see [`write_frame`]). The caller has checked the
    /// body against [`MAX_FRAME`].
    pub(crate) fn write_to<W: Write>(&self, w: &mut W) -> Result<(), RnError> {
        debug_assert!(self.body_len() <= MAX_FRAME);
        if self.spliced.is_empty() {
            return write_frame(w, &self.head);
        }
        let len = (self.body_len() as u32).to_le_bytes();
        let mut parts = Vec::with_capacity(2 * self.spliced.len() + 3);
        parts.push(IoSlice::new(&len));
        let mut at = 0;
        for &(cut, data) in &self.spliced {
            parts.push(IoSlice::new(&self.head[at..cut]));
            parts.push(IoSlice::new(data));
            at = cut;
        }
        parts.push(IoSlice::new(&self.head[at..]));
        let state = parts[1..]
            .iter()
            .fold(crc_state::INIT, |s, p| crc_state::update(s, p));
        let crc = crc_state::finish(state).to_le_bytes();
        parts.push(IoSlice::new(&crc));
        write_parts(w, &mut parts)
    }
}

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the response's frame body to `out`: the one response
    /// encoder. Wrappers write their head and encode their inner response
    /// in place, so a whole frame is built in one buffer.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Ok => out.push(RE_OK),
            Response::Segment {
                seg,
                len,
                tag,
                base_addr,
            } => {
                out.push(RE_SEGMENT);
                put_u64(out, *seg);
                put_u64(out, *len);
                put_u64(out, *tag);
                put_u64(out, *base_addr);
            }
            Response::Data(d) => {
                out.push(RE_DATA);
                out.extend_from_slice(d);
            }
            Response::DataV(bufs) => {
                out.reserve(9 + bufs.iter().map(|b| 8 + b.len()).sum::<usize>());
                out.push(RE_DATA_V);
                put_u64(out, bufs.len() as u64);
                for b in bufs {
                    put_u64(out, b.len() as u64);
                    out.extend_from_slice(b);
                }
            }
            Response::Name(n) => {
                out.push(RE_NAME);
                out.extend_from_slice(n.as_bytes());
            }
            Response::Err(m) => {
                out.push(RE_ERR);
                out.extend_from_slice(m.as_bytes());
            }
            Response::Mux {
                session,
                seq,
                inner,
            } => {
                put_mux_head(out, *session, *seq);
                inner.encode_into(out);
            }
            Response::Overloaded => out.push(RE_OVERLOADED),
        }
    }

    /// Parses a frame body into a response.
    ///
    /// # Errors
    ///
    /// Returns [`RnError::Protocol`] on malformed input.
    pub fn decode(body: &[u8]) -> Result<Response, RnError> {
        let (&op, rest) = body
            .split_first()
            .ok_or_else(|| RnError::Protocol("empty frame".into()))?;
        let mut pos = 0;
        let resp = match op {
            RE_OK => Response::Ok,
            RE_SEGMENT => Response::Segment {
                seg: get_u64(rest, &mut pos)?,
                len: get_u64(rest, &mut pos)?,
                tag: get_u64(rest, &mut pos)?,
                base_addr: get_u64(rest, &mut pos)?,
            },
            RE_DATA => Response::Data(rest.to_vec()),
            RE_DATA_V => {
                let count = get_u64(rest, &mut pos)?;
                // Each buffer needs at least its 8-byte length prefix.
                if count > (rest.len() as u64) / 8 {
                    return Err(RnError::Protocol(format!(
                        "vectored data claims {count} buffers in a {} byte frame",
                        rest.len()
                    )));
                }
                let mut bufs = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let len = get_u64(rest, &mut pos)? as usize;
                    let end = pos
                        .checked_add(len)
                        .filter(|&e| e <= rest.len())
                        .ok_or_else(|| RnError::Protocol("truncated buffer data".into()))?;
                    bufs.push(rest[pos..end].to_vec());
                    pos = end;
                }
                Response::DataV(bufs)
            }
            RE_NAME => Response::Name(
                String::from_utf8(rest.to_vec())
                    .map_err(|_| RnError::Protocol("name not UTF-8".into()))?,
            ),
            RE_ERR => Response::Err(
                String::from_utf8(rest.to_vec())
                    .map_err(|_| RnError::Protocol("error message not UTF-8".into()))?,
            ),
            RE_MUX => {
                let session = get_u64(rest, &mut pos)?;
                let seq = get_u64(rest, &mut pos)?;
                let inner = Response::decode(&rest[pos..])?;
                if matches!(inner, Response::Mux { .. }) {
                    return Err(RnError::Protocol("nested mux response".into()));
                }
                Response::Mux {
                    session,
                    seq,
                    inner: Box::new(inner),
                }
            }
            RE_OVERLOADED => Response::Overloaded,
            other => return Err(RnError::Protocol(format!("unknown response tag {other}"))),
        };
        Ok(resp)
    }
}

/// Writes one frame (length prefix + body + CRC) as one gathered write,
/// without copying the body: on a `TCP_NODELAY` socket every write call
/// is a segment and a wake-up of the peer, so the three parts must not be
/// three calls. Short writes are continued where they stopped.
///
/// # Errors
///
/// Propagates socket errors.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> Result<(), RnError> {
    let len = (body.len() as u32).to_le_bytes();
    let crc = crc32(body).to_le_bytes();
    write_parts(
        w,
        &mut [IoSlice::new(&len), IoSlice::new(body), IoSlice::new(&crc)],
    )
}

/// Writes `parts` in order with as few `write_vectored` calls as the
/// writer allows: a short write, or a cap on the iovecs one call takes
/// (`IOV_MAX`), is continued where it stopped.
fn write_parts<W: Write>(w: &mut W, mut parts: &mut [IoSlice<'_>]) -> Result<(), RnError> {
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// The full wire encoding of one frame (length prefix + body + CRC) as a
/// single buffer. The event-driven server builds these up front so it can
/// write them incrementally as the socket drains.
pub fn frame_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = open_frame(body.len());
    out.extend_from_slice(body);
    seal_frame(&mut out);
    out
}

/// Bytes a frame carries around its body: the length prefix and the CRC.
const FRAME_PREFIX: usize = 4;
const FRAME_CRC: usize = 4;

/// A frame under construction: the length prefix reserved, room for
/// `body` bytes (at least a mux ack's) and the CRC. Append the body, then
/// [`seal_frame`].
pub(crate) fn open_frame(body: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_PREFIX + body.max(MUX_HEAD) + FRAME_CRC);
    out.extend_from_slice(&[0; FRAME_PREFIX]);
    out
}

/// How many more body bytes the open `frame` may take before its body
/// exceeds [`MAX_FRAME`], which the reader would refuse.
pub(crate) fn body_room(frame: &[u8]) -> usize {
    (FRAME_PREFIX + MAX_FRAME).saturating_sub(frame.len())
}

/// Finishes an [`open_frame`]: patches the length prefix and appends the
/// CRC of the body.
pub(crate) fn seal_frame(frame: &mut Vec<u8>) {
    let body = &frame[FRAME_PREFIX..];
    let len = (body.len() as u32).to_le_bytes();
    let crc = crc32(body).to_le_bytes();
    frame[..FRAME_PREFIX].copy_from_slice(&len);
    frame.extend_from_slice(&crc);
}

/// The whole wire frame of `resp`, encoded in one buffer.
pub(crate) fn response_frame(resp: &Response) -> Vec<u8> {
    let mut frame = open_frame(0);
    resp.encode_into(&mut frame);
    seal_frame(&mut frame);
    frame
}

/// Appends the head of a [`Response::Mux`] to `out`; its inner response
/// follows.
pub(crate) fn put_mux_head(out: &mut Vec<u8>, session: u64, seq: u64) {
    out.push(RE_MUX);
    put_u64(out, session);
    put_u64(out, seq);
}

/// Appends a [`Response::Data`] whose `len`-byte payload `fill` appends
/// to `out`, so the bytes are copied once, into the frame, and the frame
/// is not zero-filled first. Room for the payload and the sealing CRC is
/// reserved up front, so neither the fill nor sealing moves the frame. If
/// `fill` fails, `out` is left as it was and the error returned.
pub(crate) fn put_data<E>(
    out: &mut Vec<u8>,
    len: usize,
    fill: impl FnOnce(&mut Vec<u8>) -> Result<(), E>,
) -> Result<(), E> {
    let start = out.len();
    out.reserve_exact(1 + len + FRAME_CRC);
    out.push(RE_DATA);
    fill(out).inspect_err(|_| out.truncate(start))?;
    debug_assert_eq!(out.len(), start + 1 + len, "the fill appends the payload");
    Ok(())
}

/// Bytes of a [`Response::Mux`] body before its inner payload: the tag,
/// session, seq and the inner response's tag.
const MUX_HEAD: usize = 18;

/// A caller's buffer awaiting the [`Response::Data`] answer to
/// `(session, seq)`: [`read_frame_into`] reads that payload straight into
/// `buf`.
pub(crate) struct Sink<'a> {
    pub session: u64,
    pub seq: u64,
    pub buf: &'a mut [u8],
}

impl Sink<'_> {
    /// The body head of the awaited answer.
    fn head(&self) -> [u8; MUX_HEAD] {
        let mut head = Vec::with_capacity(MUX_HEAD);
        put_mux_head(&mut head, self.session, self.seq);
        head.push(RE_DATA);
        head.try_into().expect("mux data head")
    }
}

/// Reads one frame, verifying length bounds and CRC: one read for the
/// length prefix, one for body and CRC together when the bytes are there.
///
/// # Errors
///
/// Returns [`RnError::Protocol`] on oversized frames or CRC mismatch, and
/// propagates socket errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, RnError> {
    let len = read_frame_len(r)?;
    read_frame_body(r, len, &[])
}

/// Reads one frame like [`read_frame`], except that the awaited answer of
/// `sink` — a mux-wrapped `Data` frame for its session and seq, exactly
/// `sink.buf` long — has its payload read straight into `sink.buf` and
/// yields `None`. Its frame CRC is checked over head and payload before
/// `None` is returned; on an error `sink.buf` holds unspecified bytes.
/// Any other frame is read whole and returned.
///
/// # Errors
///
/// As [`read_frame`].
pub(crate) fn read_frame_into<R: Read>(
    r: &mut R,
    sink: Option<Sink<'_>>,
) -> Result<Option<Vec<u8>>, RnError> {
    let len = read_frame_len(r)?;
    let Some(sink) = sink.filter(|s| len == MUX_HEAD + s.buf.len()) else {
        return read_frame_body(r, len, &[]).map(Some);
    };
    let mut head = [0u8; MUX_HEAD];
    r.read_exact(&mut head)?;
    if head != sink.head() {
        return read_frame_body(r, len, &head).map(Some);
    }
    r.read_exact(sink.buf)?;
    let mut crc = [0u8; FRAME_CRC];
    r.read_exact(&mut crc)?;
    if u32::from_le_bytes(crc) != crc32_parts(&[&head, sink.buf]) {
        return Err(RnError::Protocol("CRC mismatch".into()));
    }
    Ok(None)
}

fn read_frame_len<R: Read>(r: &mut R) -> Result<usize, RnError> {
    let mut len_buf = [0u8; FRAME_PREFIX];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(RnError::Protocol(format!("frame of {len} bytes too large")));
    }
    Ok(len)
}

/// Reads the rest of a `len`-byte body whose first bytes, `head`, were
/// already read, and its CRC.
fn read_frame_body<R: Read>(r: &mut R, len: usize, head: &[u8]) -> Result<Vec<u8>, RnError> {
    let mut body = Vec::with_capacity(len + FRAME_CRC);
    body.extend_from_slice(head);
    body.resize(len + FRAME_CRC, 0);
    r.read_exact(&mut body[head.len()..])?;
    let crc = u32::from_le_bytes(body[len..].try_into().expect("4-byte tail"));
    body.truncate(len);
    if crc != crc32(&body) {
        return Err(RnError::Protocol("CRC mismatch".into()));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The canonical check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Malloc { len: 10, tag: 3 },
            Request::Free { seg: 7 },
            Request::Write {
                seg: 1,
                offset: 5,
                data: vec![1, 2, 3],
            },
            Request::Read {
                seg: 2,
                offset: 0,
                len: 9,
            },
            Request::Connect { tag: 11 },
            Request::Info { seg: 4 },
            Request::Name,
            Request::Ping,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn response_roundtrips() {
        let resps = [
            Response::Ok,
            Response::Segment {
                seg: 1,
                len: 2,
                tag: 3,
                base_addr: 64,
            },
            Response::Data(vec![9; 100]),
            Response::Name("node".into()),
            Response::Err("nope".into()),
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn empty_write_data_roundtrips() {
        let r = Request::Write {
            seg: 1,
            offset: 0,
            data: vec![],
        };
        assert_eq!(Request::decode(&r.encode()).unwrap(), r);
    }

    #[test]
    fn vectored_write_roundtrips() {
        let reqs = [
            Request::WriteV { ranges: vec![] },
            Request::WriteV {
                ranges: vec![(1, 0, vec![9; 3])],
            },
            Request::WriteV {
                ranges: vec![(1, 0, vec![1, 2]), (2, 64, vec![]), (1, 128, vec![3; 100])],
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn vectored_write_rejects_lying_lengths() {
        // Claimed range count larger than the frame can hold.
        let mut body = vec![OP_WRITE_V];
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Request::decode(&body).is_err());

        // Range data length pointing past the end of the frame.
        let mut body = vec![OP_WRITE_V];
        body.extend_from_slice(&1u64.to_le_bytes()); // one range
        body.extend_from_slice(&1u64.to_le_bytes()); // seg
        body.extend_from_slice(&0u64.to_le_bytes()); // offset
        body.extend_from_slice(&100u64.to_le_bytes()); // len, but no data
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn vectored_read_roundtrips() {
        let reqs = [
            Request::ReadV { reads: vec![] },
            Request::ReadV {
                reads: vec![(1, 0, 8)],
            },
            Request::ReadV {
                reads: vec![(1, 0, 2), (2, 64, 0), (7, 4096, 512)],
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }

        let resps = [
            Response::DataV(vec![]),
            Response::DataV(vec![vec![1, 2, 3]]),
            Response::DataV(vec![vec![9; 100], vec![], vec![0, 1]]),
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn vectored_read_rejects_lying_lengths() {
        // Claimed range count larger than the frame can hold.
        let mut body = vec![OP_READ_V];
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Request::decode(&body).is_err());

        // Claimed buffer count larger than the frame can hold.
        let mut body = vec![RE_DATA_V];
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Response::decode(&body).is_err());

        // Buffer length pointing past the end of the frame.
        let mut body = vec![RE_DATA_V];
        body.extend_from_slice(&1u64.to_le_bytes()); // one buffer
        body.extend_from_slice(&100u64.to_le_bytes()); // len, but no data
        assert!(Response::decode(&body).is_err());
    }

    #[test]
    fn mux_frames_roundtrip() {
        let reqs = [
            Request::Mux {
                session: 0,
                seq: 0,
                inner: Box::new(Request::Ping),
            },
            Request::Mux {
                session: u64::MAX,
                seq: 3,
                inner: Box::new(Request::Write {
                    seg: 3,
                    offset: 9,
                    data: vec![7; 40],
                }),
            },
            Request::Mux {
                session: 12,
                seq: 17,
                inner: Box::new(Request::WriteV {
                    ranges: vec![(1, 0, vec![1, 2]), (2, 8, vec![])],
                }),
            },
            Request::Mux {
                session: 5,
                seq: 1,
                inner: Box::new(Request::SessClose),
            },
            Request::SessClose,
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
        let resps = [
            Response::Mux {
                session: 5,
                seq: 7,
                inner: Box::new(Response::Ok),
            },
            Response::Mux {
                session: 5,
                seq: 8,
                inner: Box::new(Response::Err("bounds".into())),
            },
            Response::Mux {
                session: 9,
                seq: 0,
                inner: Box::new(Response::Overloaded),
            },
            Response::Overloaded,
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
    }

    #[test]
    fn nested_mux_frames_rejected() {
        // Mux in Mux is a depth violation.
        let mux_ping = Request::Mux {
            session: 1,
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        let outer = Request::Mux {
            session: 2,
            seq: 9,
            inner: Box::new(mux_ping),
        };
        assert!(Request::decode(&outer.encode()).is_err());
        let mux_ok = Response::Mux {
            session: 1,
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        let outer = Response::Mux {
            session: 2,
            seq: 9,
            inner: Box::new(mux_ok),
        };
        assert!(Response::decode(&outer.encode()).is_err());

        // Truncated mux headers.
        assert!(Request::decode(&[OP_MUX, 1, 2, 3]).is_err());
        assert!(Response::decode(&[RE_MUX, 1]).is_err());
        // Mux with an empty inner body.
        let mut body = vec![OP_MUX];
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&4u64.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    /// The wire bytes of a gathered frame, written through `w`.
    fn gathered<W: Write>(frame: &WriteFrame<'_>, mut w: W) -> W {
        frame.write_to(&mut w).unwrap();
        w
    }

    #[test]
    fn write_frame_heads_are_as_declared() {
        let data = [7u8; 5];
        let f = WriteFrame::write(Vec::new(), 1, 2, (3, 4, &data));
        assert_eq!(f.body_len(), WRITE_HEAD + data.len());
        let ranges = [(3, 4, &data[..]), (5, 6, &[][..])];
        let f = WriteFrame::write_v(Vec::new(), 1, 2, ranges.into_iter());
        assert_eq!(f.body_len(), WRITE_V_HEAD + 2 * RANGE_HEAD + data.len());
    }

    #[test]
    fn borrowed_mux_encoders_match_the_owned_forms() {
        let data = [5u8; GATHER_MIN + 3];
        for data in [&data[..33], &data[..]] {
            let frame = WriteFrame::write(Vec::new(), 6, 9, (4, 12, data));
            let owned = encode_mux(
                6,
                9,
                &Request::Write {
                    seg: 4,
                    offset: 12,
                    data: data.to_vec(),
                },
            );
            assert_eq!(frame.body_len(), owned.len());
            assert_eq!(gathered(&frame, Vec::new()), frame_bytes(&owned));
        }
        let ranges: [(u64, u64, &[u8]); 3] =
            [(1, 0, &data[..2]), (2, 64, &data[..0]), (3, 8, &data[..])];
        let owned = Request::WriteV {
            ranges: ranges.iter().map(|&(s, o, d)| (s, o, d.to_vec())).collect(),
        };
        let frame = WriteFrame::write_v(vec![0xEE; 7], 6, 3, ranges.into_iter());
        assert_eq!(
            gathered(&frame, Vec::new()),
            frame_bytes(&encode_mux(6, 3, &owned))
        );
    }

    /// The retired `Seq` request (opcode 11) and `Tagged` response (tag
    /// 133) decode as unknown, alone, nested or inside a `Mux`.
    #[test]
    fn nested_seq_frames_rejected() {
        let seq = |inner: &[u8]| [&[11][..], &9u64.to_le_bytes(), inner].concat();
        let tagged = |inner: &[u8]| [&[133][..], &9u64.to_le_bytes(), inner].concat();
        let ping = Request::Ping.encode();
        for body in [
            seq(&ping),
            seq(&seq(&ping)),
            encode_mux(1, 2, &Request::Ping)[..17]
                .iter()
                .copied()
                .chain(seq(&ping))
                .collect(),
        ] {
            let err = Request::decode(&body).unwrap_err();
            assert!(err.to_string().contains("unknown opcode 11"), "{err}");
        }
        let ok = Response::Ok.encode();
        for body in [tagged(&ok), tagged(&tagged(&ok))] {
            let err = Response::decode(&body).unwrap_err();
            assert!(
                err.to_string().contains("unknown response tag 133"),
                "{err}"
            );
        }
    }

    #[test]
    fn borrowed_encoders_match_the_owned_forms() {
        let data = [5u8; 33];
        let ranges: [(u64, u64, &[u8]); 2] = [(1, 0, &data[..2]), (2, 64, &data[..0])];
        let owned = Request::WriteV {
            ranges: ranges.iter().map(|&(s, o, d)| (s, o, d.to_vec())).collect(),
        };
        assert_eq!(encode_write_v(None, &ranges), owned.encode());
        assert_eq!(encode_write_v(Some(3), &ranges), encode_mux(0, 3, &owned));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[255]).is_err());
        assert!(Response::decode(&[0]).is_err());
        // Truncated integer payload.
        assert!(Request::decode(&[OP_MALLOC, 1, 2]).is_err());
    }

    #[test]
    fn frames_roundtrip_and_detect_corruption() {
        let body = Request::Ping.encode();
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let got = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(got, body);

        // Flip a payload bit: CRC must catch it.
        let mut bad = wire.clone();
        bad[4] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(RnError::Protocol(_))
        ));
    }

    /// A reader or writer that counts calls, moves at most `max` bytes per
    /// call and, if asked, fails its first call with `Interrupted`.
    struct Metered<T> {
        inner: T,
        calls: usize,
        max: usize,
        interrupt_first: bool,
    }

    impl<T> Metered<T> {
        fn new(inner: T, max: usize, interrupt_first: bool) -> Self {
            Metered {
                inner,
                calls: 0,
                max,
                interrupt_first,
            }
        }

        fn enter(&mut self) -> std::io::Result<()> {
            self.calls += 1;
            if std::mem::take(&mut self.interrupt_first) {
                return Err(std::io::ErrorKind::Interrupted.into());
            }
            Ok(())
        }
    }

    /// Gathers like a socket does: one call takes from as many parts as
    /// `max` allows.
    impl Write for Metered<Vec<u8>> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.enter()?;
            let before = self.inner.len();
            for buf in bufs {
                let room = self.max - (self.inner.len() - before);
                self.inner.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.inner.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for Metered<&[u8]> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.enter()?;
            let n = buf.len().min(self.max);
            self.inner.read(&mut buf[..n])
        }
    }

    #[test]
    fn a_frame_is_one_write_and_at_most_two_reads() {
        for len in [10, 100 << 10] {
            let body = vec![0x5A; len];
            let mut w = Metered::new(Vec::new(), usize::MAX, false);
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.calls, 1, "{len}-byte body");
            assert_eq!(w.inner, frame_bytes(&body));

            let mut r = Metered::new(w.inner.as_slice(), usize::MAX, false);
            assert_eq!(read_frame(&mut r).unwrap(), body);
            assert!(r.calls <= 2, "{len}-byte body took {} reads", r.calls);
        }
    }

    #[test]
    fn short_and_interrupted_io_still_round_trips() {
        let body: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let mut w = Metered::new(Vec::new(), 1, true);
        write_frame(&mut w, &body).unwrap();
        assert_eq!(w.inner, frame_bytes(&body));
        let mut r = Metered::new(w.inner.as_slice(), 1, true);
        assert_eq!(read_frame(&mut r).unwrap(), body);
        assert_eq!(r.calls, 1 + w.inner.len());
    }

    /// The response encoder as it stood before responses were encoded in
    /// place: each wrapper encodes its inner response into a temporary
    /// and copies it. Tags are spelled as numbers so the oracle shares
    /// nothing with the code under test.
    fn reference_encode(resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        let u64s = |out: &mut Vec<u8>, vs: &[u64]| {
            for v in vs {
                out.extend_from_slice(&v.to_le_bytes());
            }
        };
        match resp {
            Response::Ok => out.push(128),
            Response::Segment {
                seg,
                len,
                tag,
                base_addr,
            } => {
                out.push(129);
                u64s(&mut out, &[*seg, *len, *tag, *base_addr]);
            }
            Response::Data(d) => {
                out.push(130);
                out.extend_from_slice(d);
            }
            Response::DataV(bufs) => {
                out.push(136);
                u64s(&mut out, &[bufs.len() as u64]);
                for b in bufs {
                    u64s(&mut out, &[b.len() as u64]);
                    out.extend_from_slice(b);
                }
            }
            Response::Name(n) => {
                out.push(131);
                out.extend_from_slice(n.as_bytes());
            }
            Response::Err(m) => {
                out.push(132);
                out.extend_from_slice(m.as_bytes());
            }
            Response::Mux {
                session,
                seq,
                inner,
            } => {
                out.push(134);
                u64s(&mut out, &[*session, *seq]);
                out.extend_from_slice(&reference_encode(inner));
            }
            Response::Overloaded => out.push(135),
        }
        out
    }

    /// Every response variant, wrapped in up to two `Mux` layers
    /// (the encoder nests freely; only the decoder refuses depth two).
    fn arb_response() -> impl proptest::strategy::Strategy<Value = Response> {
        use proptest::prelude::*;
        let bytes = || prop::collection::vec(any::<u8>(), 0..48);
        // Invalid UTF-8 comes back with multi-byte replacement characters.
        let text = || bytes().prop_map(|b| String::from_utf8_lossy(&b).into_owned());
        let leaf = prop_oneof![
            Just(Response::Ok),
            Just(Response::Overloaded),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(seg, len, tag, base_addr)| Response::Segment {
                    seg,
                    len,
                    tag,
                    base_addr
                }
            ),
            bytes().prop_map(Response::Data),
            prop::collection::vec(bytes(), 0..4).prop_map(Response::DataV),
            text().prop_map(Response::Name),
            text().prop_map(Response::Err),
        ];
        let wraps = prop::collection::vec((any::<u64>(), any::<u64>()), 0..3);
        (leaf, wraps).prop_map(|(leaf, wraps)| {
            wraps
                .into_iter()
                .fold(leaf, |inner, (session, seq)| Response::Mux {
                    session,
                    seq,
                    inner: Box::new(inner),
                })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The one-buffer encoder writes the same bytes as the old
        /// encode-then-frame path, for every variant and nesting, and so
        /// does a `Data` answer filled in place behind a mux head.
        #[test]
        fn one_buffer_frames_match_the_reference_encoding(
            resp in arb_response(),
            session in proptest::prelude::any::<u64>(),
            seq in proptest::prelude::any::<u64>(),
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
        ) {
            let want = frame_bytes(&reference_encode(&resp));
            proptest::prop_assert_eq!(response_frame(&resp), want.clone());
            proptest::prop_assert_eq!(frame_bytes(&resp.encode()), want);

            let read = Response::Mux { session, seq, inner: Box::new(Response::Data(data.clone())) };
            let mut frame = open_frame(0);
            put_mux_head(&mut frame, session, seq);
            put_data(&mut frame, data.len(), |out| {
                out.extend_from_slice(&data);
                Ok::<(), ()>(())
            })
            .unwrap();
            let cap = frame.capacity();
            seal_frame(&mut frame);
            proptest::prop_assert_eq!(frame.capacity(), cap, "sealing moved the frame");
            proptest::prop_assert_eq!(frame, frame_bytes(&reference_encode(&read)));
        }
    }

    /// `encode_write_v_mux` as it stood before write frames were
    /// gathered: one buffer holding every byte of the body.
    fn reference_write_v_mux(session: u64, seq: u64, ranges: &[(u64, u64, &[u8])]) -> Vec<u8> {
        let payload: usize = ranges.iter().map(|(_, _, d)| d.len()).sum();
        let mut out = Vec::with_capacity(payload + 24 * ranges.len() + 26);
        out.push(OP_MUX);
        put_u64(&mut out, session);
        put_u64(&mut out, seq);
        out.push(OP_WRITE_V);
        put_u64(&mut out, ranges.len() as u64);
        for &(seg, offset, data) in ranges {
            put_u64(&mut out, seg);
            put_u64(&mut out, offset);
            put_u64(&mut out, data.len() as u64);
            out.extend_from_slice(data);
        }
        out
    }

    /// `frame_bytes` as it stood: prefix, body, CRC in one buffer.
    fn reference_frame(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out
    }

    /// A writer that passes a socket's `IOV_MAX` of parts per call on to
    /// `W`, as the kernel would take them.
    struct IovCapped<W>(W);

    impl<W: Write> Write for IovCapped<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.write(buf)
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.0.write_vectored(&bufs[..bufs.len().min(1024)])
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.0.flush()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// A gathered write frame is byte for byte the frame the old
        /// one-buffer encoder built: with no ranges, with empty ones, with
        /// ranges on both sides of `GATHER_MIN`, with more parts than one
        /// vectored write takes, and through short writes.
        #[test]
        fn gathered_frames_match_the_one_buffer_encoding(
            session in proptest::prelude::any::<u64>(),
            seq in proptest::prelude::any::<u64>(),
            shape in proptest::collection::vec(
                (proptest::prelude::any::<u64>(), proptest::prelude::any::<u64>(), 0u8..4, 0usize..64),
                0..6,
            ),
            wide in 0u8..8,
            max in 1usize..1 << 20,
        ) {
            let lens = |(class, extra): (u8, usize)| match class {
                0 => 0,
                1 => extra,
                2 => GATHER_MIN - 1 + extra % 3,
                _ => GATHER_MIN + 16 * extra,
            };
            let mut shape: Vec<(u64, u64, usize)> =
                shape.into_iter().map(|(s, o, c, e)| (s, o, lens((c, e)))).collect();
            if wide == 0 {
                // Over 1 024 parts: 600 spliced ranges, two iovecs each.
                shape.extend((0..600u64).map(|i| (i, i * 8, GATHER_MIN)));
            }
            let data: Vec<Vec<u8>> = shape
                .iter()
                .enumerate()
                .map(|(i, &(_, _, len))| (0..len).map(|b| (b * 7 + i) as u8).collect())
                .collect();
            let ranges: Vec<(u64, u64, &[u8])> = shape
                .iter()
                .zip(&data)
                .map(|(&(s, o, _), d)| (s, o, d.as_slice()))
                .collect();
            let body = reference_write_v_mux(session, seq, &ranges);
            let frame = WriteFrame::write_v(vec![9; 40], session, seq, ranges.iter().copied());
            proptest::prop_assert_eq!(frame.body_len(), body.len());
            let wire = gathered(&frame, IovCapped(Metered::new(Vec::new(), max, false)));
            proptest::prop_assert!(wire.0.inner == reference_frame(&body));
        }
    }

    #[test]
    fn a_failed_fill_leaves_the_frame_as_it_was() {
        let mut frame = open_frame(0);
        put_mux_head(&mut frame, 1, 2);
        let before = frame.clone();
        let fill = |out: &mut Vec<u8>| {
            out.push(1);
            Err("refused")
        };
        assert_eq!(put_data(&mut frame, 9, fill), Err("refused"));
        assert_eq!(frame, before);
    }

    /// The wire bytes of `Mux { session, seq, Data(data) }`.
    fn data_frame(session: u64, seq: u64, data: &[u8]) -> Vec<u8> {
        response_frame(&Response::Mux {
            session,
            seq,
            inner: Box::new(Response::Data(data.to_vec())),
        })
    }

    #[test]
    fn only_the_awaited_data_frame_lands_in_the_sink() {
        let payload: Vec<u8> = (0..40u8).collect();
        fn sink(buf: &mut [u8]) -> Option<Sink<'_>> {
            Some(Sink {
                session: 3,
                seq: 7,
                buf,
            })
        }

        // The awaited answer: payload in the buffer, nothing returned.
        let mut buf = [0u8; 40];
        let wire = data_frame(3, 7, &payload);
        assert_eq!(
            read_frame_into(&mut wire.as_slice(), sink(&mut buf)).unwrap(),
            None
        );
        assert_eq!(buf[..], payload[..]);

        // Same length, other session or seq, or not data: read whole.
        let others = [
            data_frame(4, 7, &payload),
            data_frame(3, 8, &payload),
            response_frame(&Response::Mux {
                session: 3,
                seq: 7,
                inner: Box::new(Response::Err("x".repeat(40))),
            }),
            data_frame(3, 7, &payload[..39]),
            response_frame(&Response::Ok),
        ];
        for wire in others {
            let mut buf = [0u8; 40];
            let body = read_frame_into(&mut wire.as_slice(), sink(&mut buf)).unwrap();
            assert_eq!(body.as_deref(), Some(&wire[4..wire.len() - 4]));
        }

        // A flipped payload bit or a flipped head bit is caught by the
        // frame CRC, whichever way the frame was read.
        for at in [4 + 1, 4 + 18, wire.len() - 5] {
            let mut bad = wire.clone();
            bad[at] ^= 0x10;
            let mut buf = [0u8; 40];
            assert!(matches!(
                read_frame_into(&mut bad.as_slice(), sink(&mut buf)),
                Err(RnError::Protocol(_))
            ));
        }
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut wire.as_slice()),
            Err(RnError::Protocol(_))
        ));
    }
}
