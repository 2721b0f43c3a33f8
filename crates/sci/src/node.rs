//! The remote node's exported memory — the "network RAM" of the paper.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};
use serde::{Deserialize, Serialize};

use crate::SciError;

/// Identifier of an exported remote memory segment.
///
/// Segment ids are issued by the owning [`NodeMemory`] and are never reused,
/// so a stale id after a `free` reliably reports
/// [`SciError::SegmentNotFound`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SegmentId(u64);

impl SegmentId {
    /// Builds a segment id from its raw integer representation (used when
    /// reconnecting after a crash, where ids are read back from remote
    /// metadata).
    pub const fn from_raw(raw: u64) -> Self {
        SegmentId(raw)
    }

    /// The raw integer representation.
    pub const fn as_raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg#{}", self.0)
    }
}

/// Metadata describing one exported segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentInfo {
    /// The segment's identifier.
    pub id: SegmentId,
    /// Length in bytes.
    pub len: usize,
    /// Client-chosen tag used to relocate segments after a crash
    /// (`sci_connect_segment` in the paper).
    pub tag: u64,
    /// Base "physical" address of the segment on the remote node; remote
    /// write latency depends on how the address range maps onto SCI
    /// buffers.
    pub base_addr: u64,
}

#[derive(Debug)]
struct Segment {
    data: Vec<u8>,
    tag: u64,
    base_addr: u64,
}

impl Segment {
    fn info(&self, id: SegmentId) -> SegmentInfo {
        SegmentInfo {
            id,
            len: self.data.len(),
            tag: self.tag,
            base_addr: self.base_addr,
        }
    }
}

#[derive(Debug)]
struct Inner {
    name: String,
    segments: BTreeMap<SegmentId, Segment>,
    next_id: u64,
    next_addr: u64,
    capacity: usize,
    used: usize,
    crashed: bool,
}

/// The main memory a remote workstation exports as network RAM.
///
/// Cloning a `NodeMemory` yields a handle to the same node. The structure
/// deliberately lives *outside* any primary-node state: when the primary
/// "crashes" in tests, its `NodeMemory` handles remain valid, modelling the
/// paper's independent power supplies.
///
/// # Examples
///
/// ```
/// use perseas_sci::NodeMemory;
///
/// # fn main() -> Result<(), perseas_sci::SciError> {
/// let node = NodeMemory::new("mirror-a");
/// let seg = node.export_segment(32, 7)?;
/// node.write(seg, 0, &[1, 2, 3])?;
/// let mut buf = [0u8; 3];
/// node.read(seg, 0, &mut buf)?;
/// assert_eq!(buf, [1, 2, 3]);
/// assert_eq!(node.find_by_tag(7).unwrap().id, seg);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NodeMemory {
    inner: Arc<Mutex<Inner>>,
}

impl NodeMemory {
    /// Default exportable memory per node: 64 MB, matching the paper's PCs.
    pub const DEFAULT_CAPACITY: usize = 64 << 20;

    /// Creates a node exporting [`NodeMemory::DEFAULT_CAPACITY`] bytes.
    pub fn new(name: impl Into<String>) -> Self {
        NodeMemory::with_capacity(name, Self::DEFAULT_CAPACITY)
    }

    /// Creates a node exporting at most `capacity` bytes.
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        NodeMemory {
            inner: Arc::new(Mutex::new(Inner {
                name: name.into(),
                segments: BTreeMap::new(),
                next_id: 1,
                next_addr: 0,
                capacity,
                used: 0,
                crashed: false,
            })),
        }
    }

    /// The node's name (for diagnostics).
    pub fn name(&self) -> String {
        self.inner.lock().name.clone()
    }

    /// Exports a fresh zero-filled segment of `len` bytes with client tag
    /// `tag` (the paper's *remote malloc*, server side).
    ///
    /// # Errors
    ///
    /// Returns [`SciError::NodeCrashed`] if the node is down and
    /// [`SciError::OutOfMemory`] if capacity is exhausted.
    pub fn export_segment(&self, len: usize, tag: u64) -> Result<SegmentId, SciError> {
        self.export(len, tag).map(|info| info.id)
    }

    /// [`NodeMemory::export_segment`], returning the new segment's
    /// metadata.
    ///
    /// # Errors
    ///
    /// As [`NodeMemory::export_segment`].
    pub fn export(&self, len: usize, tag: u64) -> Result<SegmentInfo, SciError> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(SciError::NodeCrashed);
        }
        if g.used
            .checked_add(len)
            .is_none_or(|total| total > g.capacity)
        {
            return Err(SciError::OutOfMemory {
                requested: len,
                available: g.capacity - g.used,
            });
        }
        let id = SegmentId(g.next_id);
        g.next_id += 1;
        // Segments are laid out contiguously on 64-byte boundaries, like
        // the pinned physical chunks the real driver exports.
        let base_addr = crate::addr::align_up(g.next_addr);
        g.next_addr = base_addr + len as u64;
        g.used += len;
        let seg = Segment {
            data: crate::image::zeroed(len),
            tag,
            base_addr,
        };
        let info = seg.info(id);
        g.segments.insert(id, seg);
        Ok(info)
    }

    /// Frees an exported segment (the paper's *remote free*).
    ///
    /// # Errors
    ///
    /// Returns [`SciError::SegmentNotFound`] for unknown ids and
    /// [`SciError::NodeCrashed`] if the node is down.
    pub fn free_segment(&self, id: SegmentId) -> Result<(), SciError> {
        let mut g = self.inner.lock();
        if g.crashed {
            return Err(SciError::NodeCrashed);
        }
        match g.segments.remove(&id) {
            Some(seg) => {
                g.used -= seg.data.len();
                Ok(())
            }
            None => Err(SciError::SegmentNotFound(id)),
        }
    }

    /// Writes `data` into segment `id` at byte `offset`.
    ///
    /// # Errors
    ///
    /// Fails with [`SciError::SegmentNotFound`], [`SciError::OutOfBounds`],
    /// or [`SciError::NodeCrashed`].
    pub fn write(&self, id: SegmentId, offset: usize, data: &[u8]) -> Result<(), SciError> {
        self.lock()?
            .range(id, offset, data.len())?
            .1
            .copy_from_slice(data);
        Ok(())
    }

    /// Reads `buf.len()` bytes from segment `id` at byte `offset`.
    ///
    /// # Errors
    ///
    /// Fails with [`SciError::SegmentNotFound`], [`SciError::OutOfBounds`],
    /// or [`SciError::NodeCrashed`].
    pub fn read(&self, id: SegmentId, offset: usize, buf: &mut [u8]) -> Result<(), SciError> {
        buf.copy_from_slice(self.lock()?.range(id, offset, buf.len())?.1);
        Ok(())
    }

    /// Appends `len` bytes of segment `id` at byte `offset` to `out`,
    /// copied once from the segment under its lock; on an error `out` is
    /// left as it was.
    ///
    /// # Errors
    ///
    /// As [`NodeMemory::read`].
    pub fn read_append(
        &self,
        id: SegmentId,
        offset: usize,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), SciError> {
        out.extend_from_slice(self.lock()?.range(id, offset, len)?.1);
        Ok(())
    }

    /// The node under its lock, once it is known to be up: an operation
    /// checks, charges and copies under this one lock.
    pub(crate) fn lock(&self) -> Result<Locked<'_>, SciError> {
        let g = self.inner.lock();
        if g.crashed {
            return Err(SciError::NodeCrashed);
        }
        Ok(Locked(g))
    }

    /// Metadata for segment `id`.
    ///
    /// # Errors
    ///
    /// Fails with [`SciError::SegmentNotFound`] or [`SciError::NodeCrashed`].
    pub fn segment_info(&self, id: SegmentId) -> Result<SegmentInfo, SciError> {
        let g = self.inner.lock();
        if g.crashed {
            return Err(SciError::NodeCrashed);
        }
        g.segments
            .get(&id)
            .map(|s| s.info(id))
            .ok_or(SciError::SegmentNotFound(id))
    }

    /// Lists all exported segments in id order.
    ///
    /// # Errors
    ///
    /// Fails with [`SciError::NodeCrashed`] if the node is down.
    pub fn list_segments(&self) -> Result<Vec<SegmentInfo>, SciError> {
        let g = self.inner.lock();
        if g.crashed {
            return Err(SciError::NodeCrashed);
        }
        Ok(g.segments.iter().map(|(&id, s)| s.info(id)).collect())
    }

    /// Finds the first segment carrying client tag `tag` (the lookup behind
    /// the paper's `sci_connect_segment` recovery path).
    pub fn find_by_tag(&self, tag: u64) -> Option<SegmentInfo> {
        let g = self.inner.lock();
        if g.crashed {
            return None;
        }
        g.segments
            .iter()
            .find(|(_, s)| s.tag == tag)
            .map(|(&id, s)| s.info(id))
    }

    /// Bytes currently exported.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used
    }

    /// Total exportable capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.inner.lock().capacity
    }

    /// Simulates a crash of *this* node: all exported memory is lost.
    pub fn crash(&self) {
        let mut g = self.inner.lock();
        g.crashed = true;
        g.segments.clear();
        g.used = 0;
    }

    /// Reboots a crashed node with empty memory.
    pub fn restart(&self) {
        self.inner.lock().crashed = false;
    }

    /// `true` if the node is currently down.
    pub fn is_crashed(&self) -> bool {
        self.inner.lock().crashed
    }

    /// `true` if `other` is a handle to the same node.
    pub fn same_node(&self, other: &NodeMemory) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

/// A node held under its lock (see [`NodeMemory::lock`]).
pub(crate) struct Locked<'a>(MutexGuard<'a, Inner>);

impl Locked<'_> {
    /// The physical address and the bytes of the `len` bytes of segment
    /// `id` at `offset`, once the range is checked.
    pub(crate) fn range(
        &mut self,
        id: SegmentId,
        offset: usize,
        len: usize,
    ) -> Result<(u64, &mut [u8]), SciError> {
        let seg = self
            .0
            .segments
            .get_mut(&id)
            .ok_or(SciError::SegmentNotFound(id))?;
        let end = offset
            .checked_add(len)
            .filter(|&e| e <= seg.data.len())
            .ok_or(SciError::OutOfBounds {
                segment: id,
                offset,
                len,
                segment_len: seg.data.len(),
            })?;
        Ok((seg.base_addr + offset as u64, &mut seg.data[offset..end]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_write_read_roundtrip() {
        let n = NodeMemory::new("n");
        let s = n.export_segment(16, 0).unwrap();
        n.write(s, 4, &[9, 8, 7]).unwrap();
        let mut buf = [0u8; 3];
        n.read(s, 4, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7]);
    }

    #[test]
    fn read_append_extends_or_leaves_the_vec() {
        let n = NodeMemory::new("n");
        let s = n.export_segment(16, 0).unwrap();
        n.write(s, 4, &[9, 8, 7]).unwrap();
        let mut out = vec![1];
        n.read_append(s, 4, 3, &mut out).unwrap();
        assert_eq!(out, [1, 9, 8, 7]);
        assert!(n.read_append(s, 14, 3, &mut out).is_err());
        assert_eq!(out, [1, 9, 8, 7]);
    }

    #[test]
    fn segments_start_zeroed() {
        let n = NodeMemory::new("n");
        let s = n.export_segment(8, 0).unwrap();
        let mut buf = [1u8; 8];
        n.read(s, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 8]);
    }

    #[test]
    fn out_of_bounds_reports_details() {
        let n = NodeMemory::new("n");
        let s = n.export_segment(8, 0).unwrap();
        let err = n.write(s, 6, &[0; 4]).unwrap_err();
        assert_eq!(
            err,
            SciError::OutOfBounds {
                segment: s,
                offset: 6,
                len: 4,
                segment_len: 8
            }
        );
    }

    #[test]
    fn offset_overflow_is_out_of_bounds() {
        let n = NodeMemory::new("n");
        let s = n.export_segment(8, 0).unwrap();
        assert!(matches!(
            n.write(s, usize::MAX, &[1]),
            Err(SciError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn freed_segments_are_gone_and_ids_not_reused() {
        let n = NodeMemory::new("n");
        let a = n.export_segment(8, 0).unwrap();
        n.free_segment(a).unwrap();
        assert_eq!(n.free_segment(a), Err(SciError::SegmentNotFound(a)));
        let b = n.export_segment(8, 0).unwrap();
        assert_ne!(a, b);
        assert_eq!(n.used_bytes(), 8);
    }

    #[test]
    fn capacity_is_enforced() {
        let n = NodeMemory::with_capacity("n", 100);
        let _ = n.export_segment(80, 0).unwrap();
        let err = n.export_segment(30, 0).unwrap_err();
        assert_eq!(
            err,
            SciError::OutOfMemory {
                requested: 30,
                available: 20
            }
        );
    }

    #[test]
    fn tags_find_segments_after_reconnect() {
        let n = NodeMemory::new("n");
        let _ = n.export_segment(8, 1).unwrap();
        let b = n.export_segment(8, 42).unwrap();
        assert_eq!(n.find_by_tag(42).unwrap().id, b);
        assert!(n.find_by_tag(99).is_none());
    }

    #[test]
    fn base_addresses_are_64_byte_aligned_and_disjoint() {
        let n = NodeMemory::new("n");
        let a = n.export_segment(100, 0).unwrap();
        let b = n.export_segment(100, 0).unwrap();
        let ia = n.segment_info(a).unwrap();
        let ib = n.segment_info(b).unwrap();
        assert_eq!(ia.base_addr % 64, 0);
        assert_eq!(ib.base_addr % 64, 0);
        assert!(ib.base_addr >= ia.base_addr + 100);
    }

    #[test]
    fn crash_loses_memory_restart_starts_empty() {
        let n = NodeMemory::new("n");
        let s = n.export_segment(8, 5).unwrap();
        n.crash();
        assert!(n.is_crashed());
        assert_eq!(n.write(s, 0, &[1]), Err(SciError::NodeCrashed));
        assert!(n.find_by_tag(5).is_none());
        n.restart();
        assert!(!n.is_crashed());
        assert!(n.list_segments().unwrap().is_empty());
    }

    #[test]
    fn clones_share_state() {
        let n = NodeMemory::new("n");
        let m = n.clone();
        let s = n.export_segment(4, 0).unwrap();
        m.write(s, 0, &[5]).unwrap();
        let mut b = [0u8; 1];
        n.read(s, 0, &mut b).unwrap();
        assert_eq!(b, [5]);
        assert!(n.same_node(&m));
        assert!(!n.same_node(&NodeMemory::new("x")));
    }

    #[test]
    fn list_segments_in_id_order() {
        let n = NodeMemory::new("n");
        let ids: Vec<_> = (0..5).map(|i| n.export_segment(4, i).unwrap()).collect();
        let listed: Vec<_> = n.list_segments().unwrap().iter().map(|s| s.id).collect();
        assert_eq!(ids, listed);
    }
}
