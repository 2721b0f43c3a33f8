//! Property tests for the SCI model: packetisation, latency, and node
//! memory against reference models. The counted forms the link charges
//! ([`Burst`], [`prefix_bytes`], the latency functions, and the link's cut
//! semantics) are checked against references that walk [`packetize`]'s
//! packet listing.

use std::collections::HashMap;

use proptest::prelude::*;

use perseas_sci::{
    packetize, prefix_bytes, remote_write_latency, remote_write_v_latency, BufferAddr, Burst,
    LinkStats, NodeMemory, PacketKind, SciError, SciLink, SciParams, SegmentId, BUFFER_SIZE,
};
use perseas_simtime::{SimClock, SimDuration};

/// The burst summary and every prefix, read off the packet listing.
fn listed(start: u64, len: usize) -> (Burst, Vec<usize>) {
    let packets = packetize(start, len);
    let mut b = Burst {
        first: packets.first().map(|p| p.kind),
        ..Burst::default()
    };
    let mut prefixes = vec![0];
    for p in &packets {
        match p.kind {
            PacketKind::Full64 => b.full64 += 1,
            PacketKind::Line16 => b.line16 += 1,
        }
        prefixes.push(prefixes.last().unwrap() + p.store_bytes);
    }
    (b, prefixes)
}

/// Checks [`Burst::new`] and [`prefix_bytes`] against the listing, for
/// every budget from 0 to one past the packet count.
fn check_counts(start: u64, len: usize) -> Result<(), TestCaseError> {
    let (b, prefixes) = listed(start, len);
    prop_assert_eq!(Burst::new(start, len), b, "start={} len={}", start, len);
    let n = b.packets();
    for k in 0..=n + 1 {
        let want = prefixes[(k as usize).min(prefixes.len() - 1)];
        prop_assert_eq!(
            prefix_bytes(start, len, k),
            want,
            "start={} len={} k={}",
            start,
            len,
            k
        );
    }
    Ok(())
}

/// A message's latency summed packet by packet over the listing: the first
/// packet at its kind's first cost, every later one streamed, one base
/// setup, and the flush penalty if the last non-empty range ends mid-buffer.
fn listed_latency(p: &SciParams, ranges: &[(u64, usize)]) -> SimDuration {
    let mut ns = 0;
    let mut sent = false;
    let mut partial = false;
    for &(start, len) in ranges.iter().filter(|r| r.1 > 0) {
        for pkt in packetize(start, len) {
            ns += match (pkt.kind, sent) {
                (PacketKind::Full64, false) => p.pkt64_first_ns,
                (PacketKind::Full64, true) => p.pkt64_stream_ns,
                (PacketKind::Line16, false) => p.pkt16_first_ns,
                (PacketKind::Line16, true) => p.pkt16_stream_ns,
            };
            sent = true;
        }
        partial = !BufferAddr::from_phys(start + len as u64 - 1).is_last_word();
    }
    if !sent {
        return SimDuration::ZERO;
    }
    SimDuration::from_nanos(p.base_ns + ns + if partial { p.partial_flush_ns } else { 0 })
}

/// The calibrated card, a faster one, and two asymmetric cards: one whose
/// first packets cost less than streamed ones, one whose cost more.
fn all_params() -> [SciParams; 4] {
    let d = SciParams::dolphin_1998();
    [
        d,
        SciParams::scaled(2.7),
        SciParams {
            pkt64_first_ns: 100,
            pkt64_stream_ns: 700,
            pkt16_first_ns: 40,
            pkt16_stream_ns: 300,
            ..d
        },
        SciParams {
            pkt64_first_ns: 900,
            pkt64_stream_ns: 200,
            pkt16_first_ns: 800,
            pkt16_stream_ns: 90,
            ..d
        },
    ]
}

/// A burst length: mostly up to 4 KiB, sometimes several MiB.
fn burst_len() -> impl Strategy<Value = usize> {
    prop_oneof![9 => 0usize..4096, 1 => (1usize << 20)..(3 << 20)]
}

#[test]
fn counts_match_the_listing_for_every_start_in_two_buffer_wraps() {
    // Every start in 0..1024 (the eight buffers twice over) with every
    // length that reaches a head, a middle and a tail chunk.
    for start in 0..1024 {
        for len in 0..=256 {
            check_counts(start, len).unwrap();
        }
    }
}

/// Segments of the link tests. Their lengths are not multiples of 64, so a
/// range can end in a segment's partly used last chunk.
const SEGMENTS: [usize; 3] = [700, 3000, 190];

/// A reference link that lists its packets: take the fault budget over
/// the concatenated listing, deliver whole packets' bytes, and charge one
/// message for what went out. The tests give it in-bounds ranges only.
struct ListingLink {
    clock: SimClock,
    node: NodeMemory,
    params: SciParams,
    stats: LinkStats,
    packets_left: Option<u64>,
}

impl ListingLink {
    fn write_v(&mut self, writes: &[(SegmentId, usize, &[u8])]) -> Result<(), SciError> {
        let mut plans = Vec::new();
        for &(seg, offset, data) in writes {
            let start = self.node.segment_info(seg)?.base_addr + offset as u64;
            plans.push((seg, offset, data, start, packetize(start, data.len())));
        }
        let total: u64 = plans.iter().map(|p| p.4.len() as u64).sum();
        let allowed = match &mut self.packets_left {
            None => total,
            Some(left) => {
                let a = total.min(*left);
                *left -= a;
                a
            }
        };
        let mut budget = allowed as usize;
        let mut sent = Vec::new();
        let mut delivered = 0;
        for (seg, offset, data, start, packets) in &plans {
            let take = budget.min(packets.len());
            budget -= take;
            for p in &packets[..take] {
                match p.kind {
                    PacketKind::Full64 => self.stats.packets64 += 1,
                    PacketKind::Line16 => self.stats.packets16 += 1,
                }
            }
            let bytes: usize = packets[..take].iter().map(|p| p.store_bytes).sum();
            self.node.write(*seg, *offset, &data[..bytes])?;
            sent.push((*start, bytes));
            delivered += bytes;
        }
        self.stats.writes += 1;
        self.stats.bytes_written += delivered as u64;
        self.clock.advance(listed_latency(&self.params, &sent));
        if allowed < total {
            Err(SciError::LinkDown { delivered })
        } else {
            Ok(())
        }
    }
}

/// Every byte of every segment of `node`.
fn image(node: &NodeMemory, segs: &[SegmentId]) -> Vec<Vec<u8>> {
    segs.iter()
        .zip(SEGMENTS)
        .map(|(&s, len)| {
            let mut b = vec![0; len];
            node.read(s, 0, &mut b).unwrap();
            b
        })
        .collect()
}

/// A range inside one of [`SEGMENTS`]: `(segment index, offset, len)`.
fn range() -> impl Strategy<Value = (usize, usize, usize)> {
    (0..SEGMENTS.len(), any::<usize>(), any::<usize>()).prop_map(|(s, o, l)| {
        let offset = o % (SEGMENTS[s] + 1);
        (s, offset, l % (SEGMENTS[s] - offset + 1))
    })
}

proptest! {
    /// The burst summary and every prefix equal what the listing says.
    #[test]
    fn counts_match_the_listing(start in 0u64..1024, len in burst_len()) {
        check_counts(start, len)?;
    }

    /// Single and vectored write latencies equal the listing's sum, on
    /// every card, including those where a first packet is cheaper than a
    /// streamed one.
    #[test]
    fn latencies_match_the_listing(
        ranges in prop::collection::vec((0u64..1024, burst_len()), 0..8),
    ) {
        for p in &all_params() {
            prop_assert_eq!(remote_write_v_latency(p, &ranges), listed_latency(p, &ranges));
            for &(start, len) in &ranges {
                prop_assert_eq!(
                    remote_write_latency(p, start, len),
                    listed_latency(p, &[(start, len)])
                );
            }
        }
    }

    /// A link cut after `k` packets leaves the same node bytes, error,
    /// clock and counters as the listing link, for single and vectored
    /// writes and a write after the cut.
    #[test]
    fn a_cut_link_matches_the_listing_link(
        batch in prop::collection::vec(range(), 1..8),
        vectored in any::<bool>(),
        k in any::<u64>(),
        p in 0..4usize,
    ) {
        let params = all_params()[p];
        let batch = if vectored { &batch[..] } else { &batch[..1] };
        let link = SciLink::new(SimClock::new(), NodeMemory::new("counted"), params);
        let mut reference = ListingLink {
            clock: SimClock::new(),
            node: NodeMemory::new("listed"),
            params,
            stats: LinkStats::default(),
            packets_left: None,
        };
        let mut segs = Vec::new();
        for n in SEGMENTS {
            let seg = link.node().export_segment(n, 0).unwrap();
            prop_assert_eq!(reference.node.export_segment(n, 0).unwrap(), seg);
            segs.push(seg);
        }
        let data: Vec<Vec<u8>> = (1..).zip(batch).map(|(b, r)| vec![b; r.2]).collect();
        let writes: Vec<(SegmentId, usize, &[u8])> =
            batch.iter().zip(&data).map(|(&(s, o, _), d)| (segs[s], o, &d[..])).collect();
        // Budgets from 0 to one past the message's packet count.
        let total: u64 = writes
            .iter()
            .map(|&(seg, offset, d)| {
                let start = reference.node.segment_info(seg).unwrap().base_addr + offset as u64;
                packetize(start, d.len()).len() as u64
            })
            .sum();
        let k = k % (total + 2);

        link.cut_after_packets(k);
        reference.packets_left = Some(k);
        for _ in 0..2 {
            let got = if vectored {
                link.remote_write_v(&writes)
            } else {
                link.remote_write(writes[0].0, writes[0].1, writes[0].2)
            };
            prop_assert_eq!(got, reference.write_v(&writes));
            prop_assert_eq!(link.clock().now(), reference.clock.now());
            prop_assert_eq!(link.stats(), reference.stats);
            prop_assert_eq!(image(link.node(), &segs), image(&reference.node, &segs));
        }
    }
}

proptest! {
    /// Packetisation conserves bytes, orders packets by address, and
    /// never emits an empty packet.
    #[test]
    fn packetize_conserves_and_orders(start in 0u64..10_000, len in 0usize..5_000) {
        let packets = packetize(start, len);
        let total: usize = packets.iter().map(|p| p.store_bytes).sum();
        prop_assert_eq!(total, len);
        for p in &packets {
            prop_assert!(p.store_bytes > 0 || len == 0);
            prop_assert!(p.store_bytes <= p.kind.payload_len());
        }
        for w in packets.windows(2) {
            prop_assert!(
                (w[0].chunk, w[0].line) < (w[1].chunk, w[1].line)
                    || (w[0].kind == PacketKind::Full64 && w[0].chunk < w[1].chunk)
            );
        }
    }

    /// A fully covered chunk is always one 64-byte packet; partially
    /// covered chunks are always 16-byte packets.
    #[test]
    fn full_chunks_full_packets(start in 0u64..1_000, len in 1usize..2_000) {
        for p in packetize(start, len) {
            let chunk_start = p.chunk * BUFFER_SIZE as u64;
            let chunk_end = chunk_start + BUFFER_SIZE as u64;
            let covered = (start.max(chunk_start)..(start + len as u64).min(chunk_end)).count();
            match p.kind {
                PacketKind::Full64 => prop_assert_eq!(covered, BUFFER_SIZE),
                PacketKind::Line16 => prop_assert!(covered < BUFFER_SIZE),
            }
        }
    }

    /// Latency is positive for non-empty stores and non-decreasing in the
    /// packet count for a fixed start.
    #[test]
    fn latency_positive_and_packet_monotone(start in 0u64..512, len in 1usize..2_000) {
        let p = SciParams::dolphin_1998();
        let lat = remote_write_latency(&p, start, len);
        prop_assert!(lat.as_nanos() >= p.base_ns);
        // Adding 64 bytes can never reduce the packet count, and latency
        // differences are bounded by one packet + the flush penalty.
        let bigger = remote_write_latency(&p, start, len + BUFFER_SIZE);
        prop_assert!(
            bigger.as_nanos() + p.partial_flush_ns >= lat.as_nanos(),
            "adding a chunk reduced latency too much"
        );
    }

    /// The node memory behaves like a flat map of segments.
    #[test]
    fn node_memory_matches_model(ops in prop::collection::vec(
        (0usize..4, 0usize..64, 0usize..64, any::<u8>()), 1..60))
    {
        let node = NodeMemory::with_capacity("prop", 1 << 16);
        let mut segs = Vec::new();
        let mut model: HashMap<usize, Vec<u8>> = HashMap::new();
        for (i, (op, off, len, b)) in ops.into_iter().enumerate() {
            match op {
                0 => {
                    let id = node.export_segment(64, i as u64).unwrap();
                    segs.push(id);
                    model.insert(segs.len() - 1, vec![0; 64]);
                }
                1 if !segs.is_empty() => {
                    let idx = i % segs.len();
                    let end = (off + len.max(1)).min(64);
                    let off = off.min(end - 1);
                    let data = vec![b; end - off];
                    let r = node.write(segs[idx], off, &data);
                    if let Some(m) = model.get_mut(&idx) {
                        prop_assert!(r.is_ok());
                        m[off..end].copy_from_slice(&data);
                    } else {
                        prop_assert!(matches!(r, Err(SciError::SegmentNotFound(_))));
                    }
                }
                2 if !segs.is_empty() => {
                    let idx = i % segs.len();
                    if model.contains_key(&idx) {
                        let mut buf = vec![0u8; 64];
                        node.read(segs[idx], 0, &mut buf).unwrap();
                        prop_assert_eq!(&buf, model.get(&idx).unwrap());
                    }
                }
                3 if !segs.is_empty() => {
                    let idx = i % segs.len();
                    if model.remove(&idx).is_some() {
                        node.free_segment(segs[idx]).unwrap();
                    } else {
                        prop_assert!(node.free_segment(segs[idx]).is_err());
                    }
                }
                _ => {}
            }
        }
    }
}
