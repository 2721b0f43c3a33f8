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

/// Requests a client may send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Allocate `len` bytes tagged `tag`.
    Malloc { len: u64, tag: u64 },
    /// Free a segment.
    Free { seg: u64 },
    /// Write `data` at `offset` of `seg`.
    Write {
        seg: u64,
        offset: u64,
        data: Vec<u8>,
    },
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
        ranges: Vec<(u64, u64, Vec<u8>)>,
    },
    /// Ask the server for its node name.
    Name,
    /// Liveness probe.
    Ping,
    /// Ask the server to stop accepting connections.
    Shutdown,
    /// A sequenced request: `inner` tagged with the sequence number
    /// `seq`. The server answers with [`Response::Tagged`] carrying the
    /// same `seq`. Still answered for compatibility, but no client in
    /// this crate sends it: [`Request::Mux`] with one session is the same
    /// thing. Nesting is rejected: a `Seq` may not wrap another `Seq` or
    /// a [`Request::Mux`].
    Seq {
        /// Client-chosen sequence number echoed in the response.
        seq: u64,
        /// The wrapped request.
        inner: Box<Request>,
    },
    /// A multiplexed request: `inner` belongs to the logical client
    /// session `session` and carries that session's sequence number
    /// `seq`. Many sessions share one socket; the server answers with
    /// [`Response::Mux`] echoing both identifiers so the client can
    /// route the acknowledgement to the right session. Per-session
    /// ordering is FIFO (the server answers a connection's requests in
    /// receipt order, and a session's frames are a subsequence of the
    /// connection's). Nesting is rejected: a `Mux` may not wrap a `Seq`
    /// or another `Mux`.
    Mux {
        /// The logical session this request belongs to.
        session: u64,
        /// The session's sequence number, echoed in the response.
        seq: u64,
        /// The wrapped request.
        inner: Box<Request>,
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
    /// Response to a [`Request::Seq`]: `inner` tagged with the request's
    /// sequence number. Nesting is rejected.
    Tagged {
        /// The sequence number of the request this answers.
        seq: u64,
        /// The wrapped response.
        inner: Box<Response>,
    },
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
const OP_SEQ: u8 = 11;
const OP_MUX: u8 = 12;
const OP_SESS_CLOSE: u8 = 13;
const OP_READ_V: u8 = 14;

const RE_OK: u8 = 128;
const RE_SEGMENT: u8 = 129;
const RE_DATA: u8 = 130;
const RE_NAME: u8 = 131;
const RE_ERR: u8 = 132;
const RE_TAGGED: u8 = 133;
const RE_MUX: u8 = 134;
const RE_OVERLOADED: u8 = 135;
const RE_DATA_V: u8 = 136;

/// Computes the IEEE CRC-32 of `data`.
pub use perseas_sci::crc32::checksum as crc32;

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
        match self {
            Request::Malloc { len, tag } => {
                out.push(OP_MALLOC);
                put_u64(&mut out, *len);
                put_u64(&mut out, *tag);
            }
            Request::Free { seg } => {
                out.push(OP_FREE);
                put_u64(&mut out, *seg);
            }
            Request::Write { seg, offset, data } => {
                out.push(OP_WRITE);
                put_u64(&mut out, *seg);
                put_u64(&mut out, *offset);
                out.extend_from_slice(data);
            }
            Request::Read { seg, offset, len } => {
                out.push(OP_READ);
                put_u64(&mut out, *seg);
                put_u64(&mut out, *offset);
                put_u64(&mut out, *len);
            }
            Request::Connect { tag } => {
                out.push(OP_CONNECT);
                put_u64(&mut out, *tag);
            }
            Request::Info { seg } => {
                out.push(OP_INFO);
                put_u64(&mut out, *seg);
            }
            Request::WriteV { ranges } => {
                out.push(OP_WRITE_V);
                put_u64(&mut out, ranges.len() as u64);
                for (seg, offset, data) in ranges {
                    put_u64(&mut out, *seg);
                    put_u64(&mut out, *offset);
                    put_u64(&mut out, data.len() as u64);
                    out.extend_from_slice(data);
                }
            }
            Request::ReadV { reads } => {
                out.push(OP_READ_V);
                put_u64(&mut out, reads.len() as u64);
                for (seg, offset, len) in reads {
                    put_u64(&mut out, *seg);
                    put_u64(&mut out, *offset);
                    put_u64(&mut out, *len);
                }
            }
            Request::Name => out.push(OP_NAME),
            Request::Ping => out.push(OP_PING),
            Request::Shutdown => out.push(OP_SHUTDOWN),
            Request::Seq { seq, inner } => {
                out.push(OP_SEQ);
                put_u64(&mut out, *seq);
                out.extend_from_slice(&inner.encode());
            }
            Request::Mux {
                session,
                seq,
                inner,
            } => {
                out.push(OP_MUX);
                put_u64(&mut out, *session);
                put_u64(&mut out, *seq);
                out.extend_from_slice(&inner.encode());
            }
            Request::SessClose => out.push(OP_SESS_CLOSE),
        }
        out
    }

    /// Parses a frame body into a request.
    ///
    /// # Errors
    ///
    /// Returns [`RnError::Protocol`] on malformed input.
    pub fn decode(body: &[u8]) -> Result<Request, RnError> {
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
                    data: rest[pos..].to_vec(),
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
                    ranges.push((seg, offset, rest[pos..end].to_vec()));
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
            OP_SEQ => {
                let seq = get_u64(rest, &mut pos)?;
                let inner = Request::decode(&rest[pos..])?;
                if matches!(inner, Request::Seq { .. } | Request::Mux { .. }) {
                    // Depth one only: unbounded nesting would let a
                    // hostile frame recurse the decoder off the stack.
                    return Err(RnError::Protocol("nested seq frame".into()));
                }
                Request::Seq {
                    seq,
                    inner: Box::new(inner),
                }
            }
            OP_MUX => {
                let session = get_u64(rest, &mut pos)?;
                let seq = get_u64(rest, &mut pos)?;
                let inner = Request::decode(&rest[pos..])?;
                if matches!(inner, Request::Seq { .. } | Request::Mux { .. }) {
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
/// [`Request::WriteV`]. With `seq`, the body is the [`Request::Seq`]
/// wrapping of the write.
pub fn encode_write_v(seq: Option<u64>, ranges: &[(u64, u64, &[u8])]) -> Vec<u8> {
    let payload: usize = ranges.iter().map(|(_, _, d)| d.len()).sum();
    let mut out = Vec::with_capacity(payload + 24 * ranges.len() + 18);
    if let Some(s) = seq {
        out.push(OP_SEQ);
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

/// Encodes a session-wrapped `Write` body straight from a borrowed
/// payload: one allocation, one copy of `data`.
pub fn encode_write_mux(session: u64, seq: u64, seg: u64, offset: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 42);
    out.push(OP_MUX);
    put_u64(&mut out, session);
    put_u64(&mut out, seq);
    out.push(OP_WRITE);
    put_u64(&mut out, seg);
    put_u64(&mut out, offset);
    out.extend_from_slice(data);
    out
}

/// Encodes a session-wrapped `WriteV` body straight from borrowed ranges
/// (the [`Request::Mux`] counterpart of [`encode_write_v`]).
pub fn encode_write_v_mux(session: u64, seq: u64, ranges: &[(u64, u64, &[u8])]) -> Vec<u8> {
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

impl Response {
    /// Serializes the response into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Ok => out.push(RE_OK),
            Response::Segment {
                seg,
                len,
                tag,
                base_addr,
            } => {
                out.push(RE_SEGMENT);
                put_u64(&mut out, *seg);
                put_u64(&mut out, *len);
                put_u64(&mut out, *tag);
                put_u64(&mut out, *base_addr);
            }
            Response::Data(d) => {
                out.push(RE_DATA);
                out.extend_from_slice(d);
            }
            Response::DataV(bufs) => {
                out.push(RE_DATA_V);
                put_u64(&mut out, bufs.len() as u64);
                for b in bufs {
                    put_u64(&mut out, b.len() as u64);
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
            Response::Tagged { seq, inner } => {
                out.push(RE_TAGGED);
                put_u64(&mut out, *seq);
                out.extend_from_slice(&inner.encode());
            }
            Response::Mux {
                session,
                seq,
                inner,
            } => {
                out.push(RE_MUX);
                put_u64(&mut out, *session);
                put_u64(&mut out, *seq);
                out.extend_from_slice(&inner.encode());
            }
            Response::Overloaded => out.push(RE_OVERLOADED),
        }
        out
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
            RE_TAGGED => {
                let seq = get_u64(rest, &mut pos)?;
                let inner = Response::decode(&rest[pos..])?;
                if matches!(inner, Response::Tagged { .. } | Response::Mux { .. }) {
                    return Err(RnError::Protocol("nested tagged response".into()));
                }
                Response::Tagged {
                    seq,
                    inner: Box::new(inner),
                }
            }
            RE_MUX => {
                let session = get_u64(rest, &mut pos)?;
                let seq = get_u64(rest, &mut pos)?;
                let inner = Response::decode(&rest[pos..])?;
                if matches!(inner, Response::Tagged { .. } | Response::Mux { .. }) {
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
    let mut parts = [IoSlice::new(&len), IoSlice::new(body), IoSlice::new(&crc)];
    let mut parts = &mut parts[..];
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
    let mut out = Vec::with_capacity(body.len() + 8);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Reads one frame, verifying length bounds and CRC: one read for the
/// length prefix, one for body and CRC together when the bytes are there.
///
/// # Errors
///
/// Returns [`RnError::Protocol`] on oversized frames or CRC mismatch, and
/// propagates socket errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, RnError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(RnError::Protocol(format!("frame of {len} bytes too large")));
    }
    let mut body = vec![0u8; len + 4];
    r.read_exact(&mut body)?;
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
    fn seq_and_tagged_roundtrip() {
        let reqs = [
            Request::Seq {
                seq: 0,
                inner: Box::new(Request::Ping),
            },
            Request::Seq {
                seq: u64::MAX,
                inner: Box::new(Request::Write {
                    seg: 3,
                    offset: 9,
                    data: vec![7; 40],
                }),
            },
            Request::Seq {
                seq: 17,
                inner: Box::new(Request::WriteV {
                    ranges: vec![(1, 0, vec![1, 2]), (2, 8, vec![])],
                }),
            },
        ];
        for r in reqs {
            assert_eq!(Request::decode(&r.encode()).unwrap(), r);
        }
        let resps = [
            Response::Tagged {
                seq: 5,
                inner: Box::new(Response::Ok),
            },
            Response::Tagged {
                seq: 6,
                inner: Box::new(Response::Err("bounds".into())),
            },
            Response::Tagged {
                seq: 7,
                inner: Box::new(Response::Data(vec![4; 12])),
            },
        ];
        for r in resps {
            assert_eq!(Response::decode(&r.encode()).unwrap(), r);
        }
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
        // Mux in Mux, Seq in Mux, Mux in Seq: all depth violations.
        let mux_ping = Request::Mux {
            session: 1,
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        let seq_ping = Request::Seq {
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        for (outer_session, inner) in [(Some(2), mux_ping.clone()), (Some(2), seq_ping.clone())] {
            let outer = Request::Mux {
                session: outer_session.unwrap(),
                seq: 9,
                inner: Box::new(inner),
            };
            assert!(Request::decode(&outer.encode()).is_err());
        }
        let seq_wrapping_mux = Request::Seq {
            seq: 9,
            inner: Box::new(mux_ping),
        };
        assert!(Request::decode(&seq_wrapping_mux.encode()).is_err());

        let mux_ok = Response::Mux {
            session: 1,
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        let tagged_ok = Response::Tagged {
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        for inner in [mux_ok.clone(), tagged_ok] {
            let outer = Response::Mux {
                session: 2,
                seq: 9,
                inner: Box::new(inner),
            };
            assert!(Response::decode(&outer.encode()).is_err());
        }
        let tagged_wrapping_mux = Response::Tagged {
            seq: 9,
            inner: Box::new(mux_ok),
        };
        assert!(Response::decode(&tagged_wrapping_mux.encode()).is_err());

        // Truncated mux headers.
        assert!(Request::decode(&[OP_MUX, 1, 2, 3]).is_err());
        assert!(Response::decode(&[RE_MUX, 1]).is_err());
        // Mux with an empty inner body.
        let mut body = vec![OP_MUX];
        body.extend_from_slice(&9u64.to_le_bytes());
        body.extend_from_slice(&4u64.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn borrowed_mux_encoders_match_the_owned_forms() {
        let data = [5u8; 33];
        assert_eq!(
            encode_write_mux(6, 9, 4, 12, &data),
            Request::Mux {
                session: 6,
                seq: 9,
                inner: Box::new(Request::Write {
                    seg: 4,
                    offset: 12,
                    data: data.to_vec(),
                }),
            }
            .encode()
        );
        let ranges: [(u64, u64, &[u8]); 2] = [(1, 0, &data[..2]), (2, 64, &data[..0])];
        let owned = Request::WriteV {
            ranges: ranges.iter().map(|&(s, o, d)| (s, o, d.to_vec())).collect(),
        };
        assert_eq!(
            encode_write_v_mux(6, 3, &ranges),
            Request::Mux {
                session: 6,
                seq: 3,
                inner: Box::new(owned.clone()),
            }
            .encode()
        );
        assert_eq!(
            encode_mux(6, 8, &owned),
            Request::Mux {
                session: 6,
                seq: 8,
                inner: Box::new(owned),
            }
            .encode()
        );
    }

    #[test]
    fn nested_seq_frames_rejected() {
        let inner = Request::Seq {
            seq: 1,
            inner: Box::new(Request::Ping),
        };
        let outer = Request::Seq {
            seq: 2,
            inner: Box::new(inner),
        };
        assert!(Request::decode(&outer.encode()).is_err());

        let inner = Response::Tagged {
            seq: 1,
            inner: Box::new(Response::Ok),
        };
        let outer = Response::Tagged {
            seq: 2,
            inner: Box::new(inner),
        };
        assert!(Response::decode(&outer.encode()).is_err());

        // Truncated seq header.
        assert!(Request::decode(&[OP_SEQ, 1, 2, 3]).is_err());
        assert!(Response::decode(&[RE_TAGGED, 1]).is_err());
        // Seq with an empty inner body.
        let mut body = vec![OP_SEQ];
        body.extend_from_slice(&9u64.to_le_bytes());
        assert!(Request::decode(&body).is_err());
    }

    #[test]
    fn borrowed_encoders_match_the_owned_forms() {
        let data = [5u8; 33];
        let ranges: [(u64, u64, &[u8]); 2] = [(1, 0, &data[..2]), (2, 64, &data[..0])];
        let owned = Request::WriteV {
            ranges: ranges.iter().map(|&(s, o, d)| (s, o, d.to_vec())).collect(),
        };
        assert_eq!(encode_write_v(None, &ranges), owned.encode());
        assert_eq!(
            encode_write_v(Some(3), &ranges),
            Request::Seq {
                seq: 3,
                inner: Box::new(owned),
            }
            .encode()
        );
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
