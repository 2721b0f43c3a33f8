//! A mapped SCI link from the local process onto a remote node's memory.
//!
//! The link counts each burst's packets ([`crate::Burst`]) rather than
//! listing them, so every operation costs O(1) in the burst's length and
//! allocates nothing; [`crate::packetize`] is the listing the tests check
//! it against.

use std::sync::Arc;

use parking_lot::Mutex;

use perseas_simtime::{SimClock, SimDuration};

use crate::latency::{remote_read_latency, remote_write_latency, Message, SciParams};
use crate::node::{NodeMemory, SegmentId};
use crate::packet::{prefix_bytes, Burst};
use crate::SciError;

/// Counters describing traffic on one link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Remote write bursts issued.
    pub writes: u64,
    /// Remote read operations issued.
    pub reads: u64,
    /// Full 64-byte packets transmitted.
    pub packets64: u64,
    /// Partial 16-byte packets transmitted.
    pub packets16: u64,
    /// Payload bytes of the application actually delivered remotely.
    pub bytes_written: u64,
    /// Bytes fetched by remote reads.
    pub bytes_read: u64,
}

#[derive(Debug, Default)]
struct State {
    stats: LinkStats,
    /// Packets that may still be transmitted before the link is cut;
    /// `None` means the link is healthy.
    packets_left: Option<u64>,
}

impl State {
    /// Takes up to `packets` from the fault budget; returns how many go out.
    fn admit(&mut self, packets: u64) -> u64 {
        match &mut self.packets_left {
            None => packets,
            Some(left) => {
                let sent = packets.min(*left);
                *left -= sent;
                sent
            }
        }
    }
}

/// The local side of a PCI-SCI mapping onto one remote node.
///
/// Every remote operation moves real bytes into the [`NodeMemory`] *and*
/// charges the modelled latency to the shared [`SimClock`]. Fault injection
/// cuts the link with packet granularity, so a write interrupted by a crash
/// leaves a realistic torn prefix on the remote node.
///
/// # Examples
///
/// ```
/// use perseas_simtime::SimClock;
/// use perseas_sci::{NodeMemory, SciLink, SciParams};
///
/// # fn main() -> Result<(), perseas_sci::SciError> {
/// let clock = SimClock::new();
/// let node = NodeMemory::new("mirror");
/// let link = SciLink::new(clock.clone(), node.clone(), SciParams::dolphin_1998());
/// let seg = node.export_segment(64, 0)?;
/// link.remote_write(seg, 0, &[7; 64])?;
/// assert_eq!(link.stats().packets64, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SciLink {
    clock: SimClock,
    node: NodeMemory,
    params: SciParams,
    state: Arc<Mutex<State>>,
}

impl SciLink {
    /// Creates a link from the local process onto `node`, charging latency
    /// to `clock` with the timing model `params`.
    pub fn new(clock: SimClock, node: NodeMemory, params: SciParams) -> Self {
        SciLink {
            clock,
            node,
            params,
            state: Arc::default(),
        }
    }

    /// The remote node this link maps.
    pub fn node(&self) -> &NodeMemory {
        &self.node
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The timing parameters in use.
    pub fn params(&self) -> &SciParams {
        &self.params
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> LinkStats {
        self.state.lock().stats
    }

    /// Resets the traffic counters.
    pub fn reset_stats(&self) {
        self.state.lock().stats = LinkStats::default();
    }

    /// Arms fault injection: after `n` more packets the link goes down and
    /// every subsequent operation fails with [`SciError::LinkDown`].
    pub fn cut_after_packets(&self, n: u64) {
        self.state.lock().packets_left = Some(n);
    }

    /// Heals the link after a fault.
    pub fn heal(&self) {
        self.state.lock().packets_left = None;
    }

    /// `true` if the link has been cut.
    pub fn is_down(&self) -> bool {
        matches!(self.state.lock().packets_left, Some(0))
    }

    /// Writes `data` to `offset` within remote segment `seg`.
    ///
    /// Advances the virtual clock by the modelled one-way latency of the
    /// store burst. On an injected fault only the prefix of the burst
    /// covered by whole transmitted packets is delivered.
    ///
    /// # Errors
    ///
    /// Propagates segment errors from the node, before any time, packet or
    /// fault budget is charged; returns [`SciError::LinkDown`] (with the
    /// delivered byte count) if fault injection cut the burst.
    pub fn remote_write(&self, seg: SegmentId, offset: usize, data: &[u8]) -> Result<(), SciError> {
        // A single burst is a message of one range.
        self.remote_write_v(&[(seg, offset, data)])
    }

    /// Reads `buf.len()` bytes from `offset` within remote segment `seg`.
    ///
    /// Remote reads are synchronous round-trips; the clock advances by the
    /// read latency model. Reads are all-or-nothing: a cut link fails the
    /// whole read.
    ///
    /// # Errors
    ///
    /// Propagates segment errors; returns [`SciError::LinkDown`] if the
    /// link is cut.
    pub fn remote_read(
        &self,
        seg: SegmentId,
        offset: usize,
        buf: &mut [u8],
    ) -> Result<(), SciError> {
        if self.is_down() {
            return Err(SciError::LinkDown { delivered: 0 });
        }
        let mut node = self.node.lock()?;
        let (start, src) = node.range(seg, offset, buf.len())?;
        buf.copy_from_slice(src);
        drop(node);
        self.clock
            .advance(remote_read_latency(&self.params, start, buf.len()));
        let mut st = self.state.lock();
        st.stats.reads += 1;
        st.stats.bytes_read += buf.len() as u64;
        Ok(())
    }

    /// Writes several `(segment, offset, data)` ranges as one gathered
    /// message (the vectored form of [`SciLink::remote_write`]).
    ///
    /// The whole batch is charged as a single SCI message: one
    /// [`SciParams::base_ns`] setup, streamed per-packet costs across all
    /// ranges, and at most one partial-flush penalty (see
    /// [`crate::remote_write_v_latency`]). It counts as *one* write in
    /// [`LinkStats`]. Ranges are applied in order; under fault injection
    /// the packet budget spans the concatenated packet sequence, so a cut
    /// delivers every earlier range in full and a packet-aligned prefix of
    /// the range it lands in — later ranges are lost entirely.
    ///
    /// # Errors
    ///
    /// Fails up-front (before any byte moves or any time, packet or fault
    /// budget is charged) if any referenced segment is unknown or any range
    /// is out of bounds; returns [`SciError::LinkDown`] with the total
    /// delivered byte count if fault injection cut the message.
    pub fn remote_write_v(&self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), SciError> {
        let mut node = self.node.lock()?;
        // Validate every range before transmitting, so a malformed batch
        // does not leave a half-applied message.
        let mut packets = 0;
        for &(seg, offset, data) in writes {
            let (start, _) = node.range(seg, offset, data.len())?;
            packets += Burst::new(start, data.len()).packets();
        }
        let mut st = self.state.lock();
        let sent = st.admit(packets);
        // Deliver packet-aligned prefixes range by range, charging one
        // message as we go; once the budget is spent, ranges deliver
        // nothing.
        let mut msg = Message::default();
        let mut budget = sent;
        let mut delivered = 0;
        for &(seg, offset, data) in writes {
            let (start, dst) = node.range(seg, offset, data.len())?;
            let bytes = prefix_bytes(start, data.len(), budget);
            dst[..bytes].copy_from_slice(&data[..bytes]);
            let burst = msg.push(&self.params, start, bytes);
            budget -= burst.packets();
            st.stats.packets64 += burst.full64;
            st.stats.packets16 += burst.line16;
            delivered += bytes;
        }
        st.stats.writes += 1;
        st.stats.bytes_written += delivered as u64;
        drop((st, node));
        self.clock.advance(msg.latency(&self.params));

        if sent < packets {
            Err(SciError::LinkDown { delivered })
        } else {
            Ok(())
        }
    }

    /// The modelled latency a write of `len` bytes at `offset` in `seg`
    /// would incur, without performing it.
    ///
    /// # Errors
    ///
    /// Fails if the segment does not exist.
    pub fn write_latency(
        &self,
        seg: SegmentId,
        offset: usize,
        len: usize,
    ) -> Result<SimDuration, SciError> {
        let info = self.node.segment_info(seg)?;
        Ok(remote_write_latency(
            &self.params,
            info.base_addr + offset as u64,
            len,
        ))
    }

    /// The modelled latency a vectored write of the given
    /// `(segment, offset, len)` ranges would incur, without performing it.
    ///
    /// # Errors
    ///
    /// Fails if any referenced segment does not exist.
    pub fn write_latency_v(
        &self,
        ranges: &[(SegmentId, usize, usize)],
    ) -> Result<SimDuration, SciError> {
        let mut msg = Message::default();
        for &(seg, offset, len) in ranges {
            let start = self.node.segment_info(seg)?.base_addr + offset as u64;
            msg.push(&self.params, start, len);
        }
        Ok(msg.latency(&self.params))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SimClock, NodeMemory, SciLink) {
        let clock = SimClock::new();
        let node = NodeMemory::new("mirror");
        let link = SciLink::new(clock.clone(), node.clone(), SciParams::dolphin_1998());
        (clock, node, link)
    }

    #[test]
    fn write_moves_bytes_and_time() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(64, 0).unwrap();
        link.remote_write(seg, 0, &[1, 2, 3, 4]).unwrap();
        let mut b = [0u8; 4];
        node.read(seg, 0, &mut b).unwrap();
        assert_eq!(b, [1, 2, 3, 4]);
        assert_eq!(clock.now().as_nanos(), 2_500);
    }

    #[test]
    fn stats_count_packets_by_kind() {
        let (_, node, link) = setup();
        let seg = node.export_segment(256, 0).unwrap();
        link.remote_write(seg, 0, &[0; 200]).unwrap();
        let st = link.stats();
        assert_eq!(st.packets64, 3);
        assert_eq!(st.packets16, 1);
        assert_eq!(st.bytes_written, 200);
        link.reset_stats();
        assert_eq!(link.stats(), LinkStats::default());
    }

    #[test]
    fn cut_link_delivers_packet_prefix() {
        let (_, node, link) = setup();
        let seg = node.export_segment(256, 0).unwrap();
        // 200-byte burst = 3 full packets + 1 line packet. Allow 2 packets:
        // exactly 128 bytes arrive.
        link.cut_after_packets(2);
        let err = link.remote_write(seg, 0, &[9; 200]).unwrap_err();
        assert_eq!(err, SciError::LinkDown { delivered: 128 });
        let mut buf = [0u8; 200];
        node.read(seg, 0, &mut buf).unwrap();
        assert!(buf[..128].iter().all(|&b| b == 9));
        assert!(buf[128..].iter().all(|&b| b == 0));
        assert!(link.is_down());
    }

    #[test]
    fn healed_link_works_again() {
        let (_, node, link) = setup();
        let seg = node.export_segment(64, 0).unwrap();
        link.cut_after_packets(0);
        assert!(link.remote_write(seg, 0, &[1]).is_err());
        link.heal();
        link.remote_write(seg, 0, &[1]).unwrap();
    }

    #[test]
    fn cut_with_zero_budget_delivers_nothing() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(64, 0).unwrap();
        let t0 = clock.now();
        let err = link.remote_write(seg, 0, &[1; 64]).map(|_| ());
        assert!(err.is_ok());
        link.cut_after_packets(0);
        let err = link.remote_write(seg, 0, &[2; 64]).unwrap_err();
        assert_eq!(err, SciError::LinkDown { delivered: 0 });
        // No bytes delivered => no additional latency beyond the first write.
        let after_first = remote_write_latency(link.params(), 0, 64);
        assert_eq!(clock.now().duration_since(t0), after_first);
    }

    #[test]
    fn remote_read_roundtrip_costs_more_than_write() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(64, 0).unwrap();
        link.remote_write(seg, 0, &[5; 64]).unwrap();
        let t_after_write = clock.now();
        let mut buf = [0u8; 64];
        link.remote_read(seg, 0, &mut buf).unwrap();
        assert_eq!(buf, [5; 64]);
        let read_cost = clock.now().duration_since(t_after_write);
        let write_cost = t_after_write.duration_since(perseas_simtime::SimInstant::ORIGIN);
        assert!(read_cost > write_cost);
    }

    #[test]
    fn write_latency_predicts_actual_charge() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(128, 0).unwrap();
        let predicted = link.write_latency(seg, 8, 100).unwrap();
        let t0 = clock.now();
        link.remote_write(seg, 8, &[0; 100]).unwrap();
        assert_eq!(clock.now().duration_since(t0), predicted);
    }

    #[test]
    fn segment_base_alignment_gives_same_latency_for_same_offsets() {
        // Two segments both start 64-byte aligned, so identical
        // offset/length pairs cost the same.
        let (_, node, link) = setup();
        let a = node.export_segment(128, 0).unwrap();
        let b = node.export_segment(128, 0).unwrap();
        assert_eq!(
            link.write_latency(a, 4, 32).unwrap(),
            link.write_latency(b, 4, 32).unwrap()
        );
    }

    #[test]
    fn vectored_write_delivers_all_ranges_as_one_message() {
        let (clock, node, link) = setup();
        let a = node.export_segment(128, 0).unwrap();
        let b = node.export_segment(128, 0).unwrap();
        let t0 = clock.now();
        link.remote_write_v(&[(a, 0, &[1; 64]), (b, 32, &[2; 16]), (a, 100, &[3; 8])])
            .unwrap();
        let mut buf = [0u8; 64];
        node.read(a, 0, &mut buf).unwrap();
        assert_eq!(buf, [1; 64]);
        let mut buf = [0u8; 16];
        node.read(b, 32, &mut buf).unwrap();
        assert_eq!(buf, [2; 16]);
        let st = link.stats();
        assert_eq!(st.writes, 1, "one message, not three");
        assert_eq!(st.bytes_written, 64 + 16 + 8);
        let predicted = link
            .write_latency_v(&[(a, 0, 64), (b, 32, 16), (a, 100, 8)])
            .unwrap();
        assert_eq!(clock.now().duration_since(t0), predicted);
    }

    #[test]
    fn vectored_write_cheaper_than_separate_writes() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(1024, 0).unwrap();
        let ranges: Vec<(SegmentId, usize, &[u8])> =
            (0..8).map(|i| (seg, i * 128, &[7u8; 64][..])).collect();
        let t0 = clock.now();
        link.remote_write_v(&ranges).unwrap();
        let batched = clock.now().duration_since(t0);
        let t1 = clock.now();
        for &(s, o, d) in &ranges {
            link.remote_write(s, o, d).unwrap();
        }
        let separate = clock.now().duration_since(t1);
        assert!(batched < separate);
        // Eight ranges amortise seven base setups.
        assert_eq!(
            separate.as_nanos() - batched.as_nanos(),
            7 * link.params().base_ns
        );
    }

    #[test]
    fn vectored_write_cut_delivers_cross_range_packet_prefix() {
        let (_, node, link) = setup();
        let seg = node.export_segment(512, 0).unwrap();
        // Range 1 = 1 full packet, range 2 = 3 full packets + 1 line.
        // Allow 3 packets: range 1 fully, 128 bytes of range 2.
        link.cut_after_packets(3);
        let err = link
            .remote_write_v(&[(seg, 0, &[1; 64]), (seg, 128, &[2; 200])])
            .unwrap_err();
        assert_eq!(
            err,
            SciError::LinkDown {
                delivered: 64 + 128
            }
        );
        let mut buf = [0u8; 512];
        node.read(seg, 0, &mut buf).unwrap();
        assert!(buf[..64].iter().all(|&b| b == 1));
        assert!(buf[128..256].iter().all(|&b| b == 2));
        assert!(buf[256..].iter().all(|&b| b == 0), "tail never arrived");
        assert!(link.is_down());
    }

    #[test]
    fn vectored_write_validates_before_transmitting() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(64, 0).unwrap();
        let t0 = clock.now();
        // Second range is out of bounds: nothing at all must be delivered.
        let err = link
            .remote_write_v(&[(seg, 0, &[1; 32]), (seg, 60, &[2; 8])])
            .unwrap_err();
        assert!(matches!(err, SciError::OutOfBounds { .. }));
        let mut buf = [0u8; 32];
        node.read(seg, 0, &mut buf).unwrap();
        assert_eq!(buf, [0; 32], "batch failed validation, no bytes moved");
        assert_eq!(clock.now(), t0, "no latency charged");
    }

    #[test]
    fn vectored_write_empty_batch_is_free() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(64, 0).unwrap();
        let t0 = clock.now();
        link.remote_write_v(&[]).unwrap();
        link.remote_write_v(&[(seg, 0, &[])]).unwrap();
        assert_eq!(clock.now(), t0);
        assert_eq!(link.stats().bytes_written, 0);
    }

    #[test]
    fn errors_propagate_from_node() {
        let (_, node, link) = setup();
        let seg = node.export_segment(8, 0).unwrap();
        assert!(matches!(
            link.remote_write(seg, 6, &[0; 8]),
            Err(SciError::OutOfBounds { .. })
        ));
        node.crash();
        assert_eq!(link.remote_write(seg, 0, &[0]), Err(SciError::NodeCrashed));
    }

    #[test]
    fn a_refused_write_charges_nothing() {
        let (clock, node, link) = setup();
        let seg = node.export_segment(128, 0).unwrap();
        link.remote_write(seg, 0, &[1; 64]).unwrap();
        // Two packets left: a refused write must not spend them.
        link.cut_after_packets(2);
        let (t0, st0) = (clock.now(), link.stats());
        assert!(matches!(
            link.remote_write(seg, 100, &[2; 64]),
            Err(SciError::OutOfBounds { .. })
        ));
        assert!(matches!(
            link.remote_write_v(&[(seg, 0, &[3; 64]), (seg, 100, &[3; 64])]),
            Err(SciError::OutOfBounds { .. })
        ));
        assert_eq!(clock.now(), t0, "no latency charged");
        assert_eq!(link.stats(), st0, "no packets or bytes counted");
        assert!(!link.is_down());
        // The whole budget is still there: two full packets go out, the
        // third is cut.
        link.remote_write(seg, 0, &[4; 128]).unwrap();
        assert!(link.is_down());
        assert_eq!(
            link.remote_write(seg, 0, &[5; 64]),
            Err(SciError::LinkDown { delivered: 0 })
        );
    }
}
