//! The simulated SCI backend.

use perseas_sci::{NodeMemory, SciLink, SciParams, SegmentId};
use perseas_simtime::SimClock;

use crate::{RemoteMemory, RemoteSegment, RnError};

/// A [`RemoteMemory`] backed by the simulated PCI-SCI link.
///
/// All latencies are charged to the link's virtual clock; all bytes really
/// land in the remote [`NodeMemory`], which survives local crashes.
///
/// # Examples
///
/// ```
/// use perseas_rnram::{RemoteMemory, SimRemote};
///
/// # fn main() -> Result<(), perseas_rnram::RnError> {
/// let mut r = SimRemote::new("mirror");
/// let seg = r.remote_malloc(64, 1)?;
/// r.remote_write(seg.id, 0, &[1, 2, 3])?;
/// assert!(r.clock().now().as_nanos() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimRemote {
    link: SciLink,
}

impl SimRemote {
    /// Creates a fresh remote node named `name` with its own clock and the
    /// default 1998 timing parameters.
    pub fn new(name: impl Into<String>) -> Self {
        SimRemote::with_parts(
            SimClock::new(),
            NodeMemory::new(name),
            SciParams::dolphin_1998(),
        )
    }

    /// Creates a backend over an existing clock, node, and parameter set —
    /// the form used by experiments that share one virtual timeline between
    /// several components.
    pub fn with_parts(clock: SimClock, node: NodeMemory, params: SciParams) -> Self {
        SimRemote {
            link: SciLink::new(clock, node, params),
        }
    }

    /// Wraps an existing link.
    pub fn from_link(link: SciLink) -> Self {
        SimRemote { link }
    }

    /// The underlying link (for stats and fault injection).
    pub fn link(&self) -> &SciLink {
        &self.link
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        self.link.clock()
    }

    /// The remote node's memory (survives local crashes; crash it to model
    /// mirror failure).
    pub fn node(&self) -> &NodeMemory {
        self.link.node()
    }
}

impl RemoteMemory for SimRemote {
    fn remote_malloc(&mut self, len: usize, tag: u64) -> Result<RemoteSegment, RnError> {
        Ok(self.link.node().export(len, tag)?.into())
    }

    fn remote_free(&mut self, seg: SegmentId) -> Result<(), RnError> {
        Ok(self.link.node().free_segment(seg)?)
    }

    fn remote_write(&mut self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), RnError> {
        Ok(self.link.remote_write(seg, offset, data)?)
    }

    fn remote_write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), RnError> {
        Ok(self.link.remote_write_v(writes)?)
    }

    fn virtual_clock(&self) -> Option<SimClock> {
        Some(self.link.clock().clone())
    }

    /// The simulated SCI mapping confirms every copy inline (the card
    /// stalls the store until the packet is acked), so the barrier is an
    /// explicit no-op: zero posted operations, zero virtual time — the
    /// paper's virtual-time figures are unchanged by barrier placement.
    fn flush(&mut self) -> Result<crate::FlushStats, RnError> {
        Ok(crate::FlushStats::default())
    }

    fn in_flight(&self) -> usize {
        0
    }

    fn remote_read(
        &mut self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), RnError> {
        Ok(self.link.remote_read(seg, offset, buf)?)
    }

    fn connect_segment(&mut self, tag: u64) -> Result<RemoteSegment, RnError> {
        self.link
            .node()
            .find_by_tag(tag)
            .map(RemoteSegment::from)
            .ok_or(RnError::TagNotFound(tag))
    }

    fn segment_info(&mut self, seg: SegmentId) -> Result<RemoteSegment, RnError> {
        Ok(self.link.node().segment_info(seg)?.into())
    }

    fn node_name(&self) -> String {
        self.link.node().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perseas_sci::SciError;

    #[test]
    fn malloc_write_read_roundtrip() {
        let mut r = SimRemote::new("m");
        let seg = r.remote_malloc(32, 0).unwrap();
        assert_eq!(seg.len, 32);
        r.remote_write(seg.id, 8, &[4, 5]).unwrap();
        let mut buf = [0u8; 2];
        r.remote_read(seg.id, 8, &mut buf).unwrap();
        assert_eq!(buf, [4, 5]);
    }

    #[test]
    fn free_then_use_fails() {
        let mut r = SimRemote::new("m");
        let seg = r.remote_malloc(8, 0).unwrap();
        r.remote_free(seg.id).unwrap();
        assert!(matches!(
            r.remote_write(seg.id, 0, &[1]),
            Err(RnError::Sci(SciError::SegmentNotFound(_)))
        ));
    }

    #[test]
    fn connect_by_tag_after_losing_handles() {
        let mut r = SimRemote::new("m");
        let seg = r.remote_malloc(16, 77).unwrap();
        r.remote_write(seg.id, 0, b"persist").unwrap();
        // "Crash": drop every local handle, keep only the backend.
        let found = r.connect_segment(77).unwrap();
        assert_eq!(found.id, seg.id);
        assert_eq!(found.len, 16);
        assert!(matches!(
            r.connect_segment(123),
            Err(RnError::TagNotFound(123))
        ));
    }

    #[test]
    fn writes_cost_virtual_time() {
        let mut r = SimRemote::new("m");
        let seg = r.remote_malloc(64, 0).unwrap();
        let t0 = r.clock().now();
        r.remote_write(seg.id, 0, &[0; 64]).unwrap();
        assert!(r.clock().now() > t0);
    }

    #[test]
    fn vectored_write_is_one_link_message() {
        let mut r = SimRemote::new("m");
        let seg = r.remote_malloc(256, 0).unwrap();
        r.remote_write_v(&[(seg.id, 0, &[1; 64]), (seg.id, 128, &[2; 64])])
            .unwrap();
        assert_eq!(r.link().stats().writes, 1);
        let mut buf = [0u8; 64];
        r.remote_read(seg.id, 128, &mut buf).unwrap();
        assert_eq!(buf, [2; 64]);
        assert!(r.virtual_clock().is_some());
        assert!(
            r.virtual_clock().unwrap().same_clock(r.clock()),
            "reports the link's own clock"
        );
    }

    #[test]
    fn node_name_matches() {
        let r = SimRemote::new("backup-7");
        assert_eq!(r.node_name(), "backup-7");
    }

    #[test]
    fn segment_info_reports_geometry() {
        let mut r = SimRemote::new("m");
        let seg = r.remote_malloc(100, 3).unwrap();
        let info = r.segment_info(seg.id).unwrap();
        assert_eq!(info, seg);
        assert_eq!(info.base_addr % 64, 0);
    }
}
