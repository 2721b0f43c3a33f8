//! The calibrated latency model reproducing Figure 5 of the paper.

use serde::{Deserialize, Serialize};

use perseas_simtime::SimDuration;

use crate::addr::BufferAddr;
use crate::packet::{Burst, PacketKind};

/// Timing parameters of the PCI-SCI adapter.
///
/// The model charges a fixed setup cost per store burst, a full cost for the
/// first packet, a smaller *streamed* cost for each subsequent packet
/// (buffer streaming overlaps packet creation with transmission of the
/// previous packet), and a flush penalty when the burst does not end on the
/// last word of a buffer (the card then has to time out before flushing the
/// partial buffer; the paper notes that stores involving the last word of a
/// buffer have better latency).
///
/// [`SciParams::dolphin_1998`] is calibrated against the paper's numbers:
/// a 4-byte remote store costs 2.5 µs end-to-end one-way, a 16-byte store
/// crossing a line boundary ~3.1 µs, and whole 64-byte aligned stores are
/// the cheapest way to move ≥32 bytes (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SciParams {
    /// Per-burst setup: PIO store issue + fabric traversal (ns).
    pub base_ns: u64,
    /// Cost of the first 64-byte packet of a burst (ns).
    pub pkt64_first_ns: u64,
    /// Cost of each subsequent (streamed) 64-byte packet (ns).
    pub pkt64_stream_ns: u64,
    /// Cost of the first 16-byte packet of a burst (ns).
    pub pkt16_first_ns: u64,
    /// Cost of each subsequent (streamed) 16-byte packet (ns).
    pub pkt16_stream_ns: u64,
    /// Extra latency when the burst does not end on the last word of an SCI
    /// buffer, so the card flushes on timeout rather than eagerly (ns).
    pub partial_flush_ns: u64,
    /// Remote reads are synchronous round-trips through the read buffers;
    /// they cost this multiple of the equivalent write (fixed-point, in
    /// percent: 200 = 2×).
    pub read_multiplier_pct: u64,
}

impl SciParams {
    /// Parameters calibrated to the Dolphin PCI-SCI rev. B card measured in
    /// the paper (ring topology, 133 MHz Pentium hosts).
    pub fn dolphin_1998() -> Self {
        SciParams {
            base_ns: 1_650,
            pkt64_first_ns: 550,
            pkt64_stream_ns: 550,
            pkt16_first_ns: 550,
            pkt16_stream_ns: 550,
            partial_flush_ns: 300,
            read_multiplier_pct: 220,
        }
    }

    /// A hypothetical interconnect `speedup`× faster than the 1998 card.
    /// Used by the technology-trend ablation (the paper argues network
    /// speed improves 20–45 %/year while disks improve 10–20 %/year).
    ///
    /// # Panics
    ///
    /// Panics if `speedup` is not positive.
    pub fn scaled(speedup: f64) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        let s = |ns: u64| ((ns as f64 / speedup).round() as u64).max(1);
        let d = SciParams::dolphin_1998();
        SciParams {
            base_ns: s(d.base_ns),
            pkt64_first_ns: s(d.pkt64_first_ns),
            pkt64_stream_ns: s(d.pkt64_stream_ns),
            pkt16_first_ns: s(d.pkt16_first_ns),
            pkt16_stream_ns: s(d.pkt16_stream_ns),
            partial_flush_ns: s(d.partial_flush_ns),
            read_multiplier_pct: d.read_multiplier_pct,
        }
    }
}

impl Default for SciParams {
    fn default() -> Self {
        SciParams::dolphin_1998()
    }
}

/// End-to-end one-way latency of a remote store of `len` bytes whose first
/// byte maps to physical address `start` on the remote node.
///
/// # Examples
///
/// ```
/// use perseas_sci::{remote_write_latency, SciParams};
///
/// let p = SciParams::dolphin_1998();
/// // The paper's headline number: a 4-byte remote store takes 2.5 us.
/// assert_eq!(remote_write_latency(&p, 0, 4).as_nanos(), 2_500);
/// ```
pub fn remote_write_latency(params: &SciParams, start: u64, len: usize) -> SimDuration {
    let mut msg = Message::default();
    msg.push(params, start, len);
    msg.latency(params)
}

/// End-to-end one-way latency of a *vectored* remote store: several
/// `(start, len)` ranges gathered into one message.
///
/// The whole batch pays [`SciParams::base_ns`] once — the card keeps
/// streaming packets after the initial PIO issue and fabric traversal, so
/// per-range setup is amortised away. Every packet after the first is
/// charged at the streamed rate regardless of which range it carries.
/// Switching ranges flushes the current buffer eagerly (the next range's
/// stores displace it), so only the final range can leave a partially
/// filled buffer to the timeout flush; the partial-flush penalty is
/// therefore charged at most once, for the last non-empty range.
///
/// # Examples
///
/// ```
/// use perseas_sci::{remote_write_latency, remote_write_v_latency, SciParams};
///
/// let p = SciParams::dolphin_1998();
/// let batched = remote_write_v_latency(&p, &[(0, 64), (256, 64)]);
/// let separate = remote_write_latency(&p, 0, 64) + remote_write_latency(&p, 256, 64);
/// assert!(batched < separate); // base_ns is paid once, not twice
/// ```
pub fn remote_write_v_latency(params: &SciParams, ranges: &[(u64, usize)]) -> SimDuration {
    let mut msg = Message::default();
    for &(start, len) in ranges {
        msg.push(params, start, len);
    }
    msg.latency(params)
}

/// Latency of a remote read of `len` bytes at `start`: a synchronous
/// round-trip through the card's read buffers.
pub fn remote_read_latency(params: &SciParams, start: u64, len: usize) -> SimDuration {
    let w = remote_write_latency(params, start, len);
    SimDuration::from_nanos(w.as_nanos() * params.read_multiplier_pct / 100)
}

/// One SCI message's latency, summed burst by burst in O(1) per burst.
#[derive(Debug, Default)]
pub(crate) struct Message {
    /// Packet costs so far.
    packets_ns: u64,
    /// `true` once a packet was sent: later packets stream.
    sent: bool,
    /// `true` if the last burst did not end on a buffer's last word.
    partial_flush: bool,
}

impl Message {
    /// Adds the store of `len` bytes at `start` and returns its packets.
    /// An empty store adds nothing.
    pub(crate) fn push(&mut self, params: &SciParams, start: u64, len: usize) -> Burst {
        let b = Burst::new(start, len);
        let Some(first) = b.first else { return b };
        let (mut full64, mut line16) = (b.full64, b.line16);
        if !self.sent {
            self.packets_ns += match first {
                PacketKind::Full64 => {
                    full64 -= 1;
                    params.pkt64_first_ns
                }
                PacketKind::Line16 => {
                    line16 -= 1;
                    params.pkt16_first_ns
                }
            };
        }
        self.packets_ns += full64 * params.pkt64_stream_ns + line16 * params.pkt16_stream_ns;
        self.sent = true;
        self.partial_flush = !BufferAddr::from_phys(start + len as u64 - 1).is_last_word();
        b
    }

    /// The message's latency: one [`SciParams::base_ns`], the packets, and
    /// the partial-flush penalty if the last burst ended mid-buffer.
    pub(crate) fn latency(&self, params: &SciParams) -> SimDuration {
        if !self.sent {
            return SimDuration::ZERO;
        }
        let flush = if self.partial_flush {
            params.partial_flush_ns
        } else {
            0
        };
        SimDuration::from_nanos(params.base_ns + self.packets_ns + flush)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(start: u64, len: usize) -> u64 {
        remote_write_latency(&SciParams::dolphin_1998(), start, len).as_nanos()
    }

    #[test]
    fn four_byte_store_is_2_5_us() {
        assert_eq!(lat(0, 4), 2_500);
    }

    #[test]
    fn crossing_a_line_boundary_costs_one_more_streamed_packet() {
        // Paper: <=16-byte stores produce one or two 16-byte packets with
        // latencies around 2.5 and 3.05 us.
        assert_eq!(lat(12, 8), lat(0, 8) + 550);
    }

    #[test]
    fn aligned_64_byte_store_beats_nearby_sizes() {
        // Figure 5: whole 64-byte aligned stores have the lowest latency of
        // all sizes >= 32 bytes.
        let full = lat(0, 64);
        assert!(full < lat(0, 60), "64B should beat 60B");
        assert!(full < lat(0, 68), "64B should beat 68B");
        assert!(full <= lat(0, 48));
    }

    #[test]
    fn ending_on_last_word_is_faster() {
        // 60 bytes ending at byte 63 ends on the last word -> eager flush.
        assert!(lat(4, 60) < lat(0, 60));
    }

    #[test]
    fn latency_grows_roughly_linearly_in_full_chunks() {
        let p = SciParams::dolphin_1998();
        let one = lat(0, 64);
        let two = lat(0, 128);
        let three = lat(0, 192);
        assert_eq!(two - one, p.pkt64_stream_ns);
        assert_eq!(three - two, p.pkt64_stream_ns);
    }

    #[test]
    fn zero_length_is_free() {
        assert_eq!(lat(0, 0), 0);
    }

    #[test]
    fn reads_cost_more_than_writes() {
        let p = SciParams::dolphin_1998();
        for &len in &[4usize, 64, 200] {
            assert!(
                remote_read_latency(&p, 0, len) > remote_write_latency(&p, 0, len),
                "len={len}"
            );
        }
    }

    #[test]
    fn scaled_params_are_faster() {
        let fast = SciParams::scaled(10.0);
        assert!(
            remote_write_latency(&fast, 0, 64) < remote_write_latency(&SciParams::default(), 0, 64)
        );
    }

    #[test]
    #[should_panic(expected = "speedup")]
    fn zero_speedup_rejected() {
        let _ = SciParams::scaled(0.0);
    }

    #[test]
    fn vectored_latency_charges_base_once() {
        let p = SciParams::dolphin_1998();
        let ranges = [(0u64, 64usize), (256, 64), (1024, 64)];
        let batched = remote_write_v_latency(&p, &ranges).as_nanos();
        let separate: u64 = ranges
            .iter()
            .map(|&(s, l)| remote_write_latency(&p, s, l).as_nanos())
            .sum();
        // Three aligned chunks: batched saves exactly two base setups.
        assert_eq!(separate - batched, 2 * p.base_ns);
    }

    #[test]
    fn vectored_latency_single_range_matches_plain_write() {
        let p = SciParams::dolphin_1998();
        for &(s, l) in &[(0u64, 4usize), (12, 8), (0, 64), (32, 128), (7, 200)] {
            assert_eq!(
                remote_write_v_latency(&p, &[(s, l)]),
                remote_write_latency(&p, s, l),
                "start={s} len={l}"
            );
        }
    }

    #[test]
    fn vectored_latency_flush_penalty_follows_last_range() {
        let p = SciParams::dolphin_1998();
        // Last range ends on the final word of a buffer: no flush penalty.
        let eager = remote_write_v_latency(&p, &[(0, 4), (64, 64)]);
        // Same packet mix, but the last range ends mid-buffer.
        let timeout = remote_write_v_latency(&p, &[(0, 64), (64, 4)]);
        assert_eq!(timeout.as_nanos() - eager.as_nanos(), p.partial_flush_ns);
    }

    #[test]
    fn vectored_latency_skips_empty_ranges() {
        let p = SciParams::dolphin_1998();
        assert_eq!(remote_write_v_latency(&p, &[]), SimDuration::ZERO);
        assert_eq!(
            remote_write_v_latency(&p, &[(0, 0), (64, 0)]),
            SimDuration::ZERO
        );
        assert_eq!(
            remote_write_v_latency(&p, &[(0, 0), (0, 4), (64, 0)]),
            remote_write_latency(&p, 0, 4)
        );
    }

    #[test]
    fn figure_5_shape_staircase_with_notches() {
        // Latency is non-decreasing across packet-count boundaries and has
        // local minima exactly at multiples of 64 bytes.
        let l64 = lat(0, 64);
        let l128 = lat(0, 128);
        for sz in (4..=60).step_by(4) {
            assert!(lat(0, sz) >= 2_500);
        }
        for sz in (68..=124).step_by(4) {
            assert!(lat(0, sz) > l64, "size {sz} should cost more than 64B");
        }
        assert!(l128 > l64);
    }
}
