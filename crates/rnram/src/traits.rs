//! The client-side interface to a remote node's memory.

use serde::{Deserialize, Serialize};

use perseas_sci::{SegmentId, SegmentInfo};
use perseas_simtime::SimClock;

use crate::RnError;

/// A remote memory segment as seen by the client after `remote_malloc` or
/// `connect_segment` (the paper's mapping of remote physical memory into
/// the local virtual address space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteSegment {
    /// Identifier used in subsequent operations.
    pub id: SegmentId,
    /// Length in bytes.
    pub len: usize,
    /// The client-chosen tag (recovery handle).
    pub tag: u64,
    /// Base "physical" address on the remote node; determines SCI buffer
    /// alignment and therefore write latency.
    pub base_addr: u64,
}

impl From<SegmentInfo> for RemoteSegment {
    fn from(i: SegmentInfo) -> Self {
        RemoteSegment {
            id: i.id,
            len: i.len,
            tag: i.tag,
            base_addr: i.base_addr,
        }
    }
}

/// What a [`RemoteMemory::flush`] barrier confirmed: how many previously
/// posted (unacknowledged) operations it awaited and how many payload
/// bytes they carried. Backends that acknowledge every operation inline,
/// such as the simulated SCI mapping, never have anything posted, so
/// their barriers report zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Operations that were in flight when the barrier started.
    pub posted: usize,
    /// Payload bytes those operations carried.
    pub bytes: usize,
}

/// The reliable-network-RAM operations of the paper, Section 3:
/// remote malloc, remote free, remote memory copy (split into its write and
/// read directions), plus the recovery-time `sci_connect_segment`.
///
/// Implementations: [`crate::SimRemote`] (simulated SCI, virtual time) and
/// [`crate::TcpRemote`] (real sockets).
pub trait RemoteMemory: Send {
    /// Allocates a zero-filled remote segment of `len` bytes, tagging it
    /// with `tag` so it can be found again after a local crash.
    ///
    /// Every implementation must zero-fill, also when the node reuses
    /// the memory of a freed segment: the engine relies on it and ships
    /// only the non-zero pages of a region into a fresh segment.
    ///
    /// # Errors
    ///
    /// Fails if the remote node is out of memory or unreachable.
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError>;

    /// Releases remote segment `seg`.
    ///
    /// # Errors
    ///
    /// Fails if the segment is unknown or the node is unreachable.
    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError>;

    /// Copies `data` into the remote segment at `offset` (local → remote
    /// direction of the paper's *remote memory copy*).
    ///
    /// # Errors
    ///
    /// Fails on bounds violations or if the node is unreachable; on a cut
    /// link a prefix of the data may have been delivered.
    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError>;

    /// Scatter-gather write: copies several `(segment, offset, data)`
    /// ranges to the remote node as one operation.
    ///
    /// Backends that can coalesce (the simulated SCI link, the TCP wire
    /// protocol) send the whole batch as a single message with a single
    /// acknowledgement; the default implementation degrades to one
    /// [`RemoteMemory::remote_write`] per range. Ranges are applied in
    /// order, so a failure mid-batch leaves every earlier range fully
    /// applied and later ranges untouched — the same torn-prefix contract
    /// as a cut link.
    ///
    /// # Errors
    ///
    /// Fails on bounds violations or if the node is unreachable; a prefix
    /// of the batch may have been delivered.
    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        for &(seg, offset, data) in writes {
            self.remote_write(seg, offset, data)?;
        }
        Ok(())
    }

    /// Ack barrier: blocks until every operation this backend has
    /// *posted* without waiting for its acknowledgement is confirmed by
    /// the remote node (the paper's "write now, confirm at the commit
    /// point" shape over a real network).
    ///
    /// Backends that confirm every operation inline — the simulated SCI
    /// mapping — have nothing outstanding, so the default implementation
    /// is a free no-op reporting zero posted operations.
    /// [`crate::TcpRemote`] overrides it to drain its in-flight window.
    ///
    /// # Errors
    ///
    /// Fails `Unavailable` when the connection died with operations still
    /// unconfirmed (the caller must treat the whole window as lost), or
    /// with the first typed refusal a posted operation earned; each call
    /// surfaces one queued refusal, so callers loop until `Ok` to drain
    /// them all.
    fn flush(&mut self) -> Result<FlushStats, RnError> {
        Ok(FlushStats::default())
    }

    /// Number of posted operations not yet confirmed (zero for backends
    /// that acknowledge inline). A client that re-dials must never silently
    /// re-dial a connection that dies with `in_flight() > 0`: the lost
    /// window cannot be replayed.
    fn in_flight(&self) -> usize {
        0
    }

    /// The virtual clock this backend charges latency to, if it is a
    /// simulated backend. Real-network backends return `None`.
    ///
    /// Callers fanning one logical operation out to several mirrors use
    /// this to model the mirrors as parallel: charge the shared clock the
    /// *maximum* of the per-mirror latencies rather than their sum.
    fn virtual_clock(&self) -> Option<SimClock> {
        None
    }

    /// Copies remote bytes at `offset` into `buf` (remote → local).
    ///
    /// # Errors
    ///
    /// Fails on bounds violations or if the node is unreachable. On an
    /// error `buf`'s contents are unspecified: a transport may land bytes
    /// in it before it finds the answer corrupt.
    fn remote_read(&mut self, seg: SegmentId, offset: usize, buf: &mut [u8])
        -> Result<(), RnError>;

    /// Gather read: copies several `(segment, offset, len)` ranges from
    /// the remote node as one operation, returning one buffer per range.
    ///
    /// Backends with a wire protocol (TCP, mux sessions) send the whole
    /// batch as a single request, which the event-driven server answers
    /// atomically with respect to other sessions' writes — the read
    /// counterpart of [`RemoteMemory::remote_write_v`], used by read
    /// replicas to take untearable snapshot cuts. The default
    /// implementation degrades to one [`RemoteMemory::remote_read`] per
    /// range (already atomic on the single-threaded simulated backend).
    ///
    /// # Errors
    ///
    /// Fails on bounds violations or if the node is unreachable; nothing
    /// is returned on failure.
    fn remote_read_v(
        &mut self,
        reads: &[(SegmentId, usize, usize)],
    ) -> Result<Vec<Vec<u8>>, RnError> {
        let mut bufs = Vec::with_capacity(reads.len());
        for &(seg, offset, len) in reads {
            let mut buf = vec![0u8; len];
            self.remote_read(seg, offset, &mut buf)?;
            bufs.push(buf);
        }
        Ok(bufs)
    }

    /// Re-maps an existing remote segment by tag after a local crash
    /// (the paper's `sci_connect_segment`).
    ///
    /// # Errors
    ///
    /// Returns [`RnError::TagNotFound`] if no segment carries `tag`.
    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError>;

    /// Metadata for a known segment.
    ///
    /// # Errors
    ///
    /// Fails if the segment does not exist.
    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError>;

    /// Human-readable name of the remote node (for diagnostics).
    fn node_name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_segment_from_info() {
        let info = SegmentInfo {
            id: SegmentId::from_raw(4),
            len: 128,
            tag: 9,
            base_addr: 640,
        };
        let seg = RemoteSegment::from(info);
        assert_eq!(seg.id, SegmentId::from_raw(4));
        assert_eq!(seg.len, 128);
        assert_eq!(seg.tag, 9);
        assert_eq!(seg.base_addr, 640);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_: &mut dyn RemoteMemory) {}
    }

    /// Minimal backend that only implements the required methods, to pin
    /// down the default `remote_write_v` loop and `virtual_clock`.
    struct Scalar {
        mem: Vec<u8>,
        writes: usize,
        reads: usize,
    }

    impl RemoteMemory for Scalar {
        fn remote_malloc(&mut self, _len: usize, _tag: u64) -> Result<RemoteSegment, RnError> {
            unimplemented!()
        }
        fn remote_free(&mut self, _seg: SegmentId) -> Result<(), RnError> {
            unimplemented!()
        }
        fn remote_write(
            &mut self,
            _seg: SegmentId,
            offset: usize,
            data: &[u8],
        ) -> Result<(), RnError> {
            self.mem[offset..offset + data.len()].copy_from_slice(data);
            self.writes += 1;
            Ok(())
        }
        fn remote_read(
            &mut self,
            _seg: SegmentId,
            offset: usize,
            buf: &mut [u8],
        ) -> Result<(), RnError> {
            let len = buf.len();
            buf.copy_from_slice(&self.mem[offset..offset + len]);
            self.reads += 1;
            Ok(())
        }
        fn connect_segment(&mut self, _tag: u64) -> Result<RemoteSegment, RnError> {
            unimplemented!()
        }
        fn segment_info(&mut self, _seg: SegmentId) -> Result<RemoteSegment, RnError> {
            unimplemented!()
        }
        fn node_name(&self) -> String {
            "scalar".into()
        }
    }

    #[test]
    fn default_vectored_write_degrades_to_per_range_writes() {
        let mut s = Scalar {
            mem: vec![0; 16],
            writes: 0,
            reads: 0,
        };
        let seg = SegmentId::from_raw(0);
        s.remote_write_v(&[(seg, 0, &[1, 2]), (seg, 8, &[3, 4])])
            .unwrap();
        assert_eq!(s.writes, 2, "default impl loops over ranges");
        assert_eq!(&s.mem[..2], &[1, 2]);
        assert_eq!(&s.mem[8..10], &[3, 4]);
        assert!(
            s.virtual_clock().is_none(),
            "real backends have no sim clock"
        );
    }

    #[test]
    fn default_flush_is_a_free_noop() {
        let mut s = Scalar {
            mem: vec![0; 4],
            writes: 0,
            reads: 0,
        };
        assert_eq!(s.in_flight(), 0, "inline-ack backends post nothing");
        assert_eq!(s.flush().unwrap(), FlushStats::default());
    }

    #[test]
    fn default_vectored_read_degrades_to_per_range_reads() {
        let mut s = Scalar {
            mem: (0u8..16).collect(),
            writes: 0,
            reads: 0,
        };
        let seg = SegmentId::from_raw(0);
        let bufs = s
            .remote_read_v(&[(seg, 0, 2), (seg, 8, 3), (seg, 4, 0)])
            .unwrap();
        assert_eq!(s.reads, 3, "default impl loops over ranges");
        assert_eq!(bufs, vec![vec![0, 1], vec![8, 9, 10], vec![]]);
    }
}
