//! Micro loops over the codec and the server's apply step, replaying the
//! write frame the traced pass saw most of a transaction's bytes in.
//! Fixed work, three repetitions, the median reported.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;
use crate::sut::{crc32, encode_write_v, frame_bytes, NodeMemory, Request};

/// Cost of each step a write frame goes through outside the engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct Codec {
    pub crc32_ns_per_kib: f64,
    pub encode_write_v_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    /// `frame_bytes`: length prefix, body copy and CRC.
    pub frame_ns_per_kib: f64,
    /// `NodeMemory::write` of the frame's ranges: what the server does
    /// with a decoded write.
    pub apply_ns_per_kib: f64,
}

/// Bytes each loop moves per repetition; the iteration count follows.
const BYTES_PER_REP: usize = 4 << 20;
/// Frames per repetition at least, so small frames are timed long enough.
const MIN_ITERS: usize = 20_000;
const REPS: usize = 3;

/// Median nanoseconds per call of `f` over [`REPS`] repetitions.
fn ns_per_call(iters: usize, mut f: impl FnMut()) -> f64 {
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        reps.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(&mut reps)
}

/// Times the codec on a frame of `shape` (the lengths of its ranges).
/// An empty shape (nothing was traced) yields zeros.
pub fn codec(shape: &[usize]) -> Codec {
    let payload: usize = shape.iter().sum();
    if payload == 0 {
        return Codec::default();
    }
    let kib = payload as f64 / 1024.0;
    let iters = (BYTES_PER_REP / payload).clamp(8, MIN_ITERS);

    let node = NodeMemory::with_capacity("micro", payload + 4096);
    let seg = node
        .export_segment(payload, 0)
        .expect("capacity covers the segment");
    let data: Vec<u8> = (0..payload).map(|i| (i * 31 + 7) as u8).collect();
    let mut ranges = Vec::with_capacity(shape.len());
    let mut at = 0;
    for &len in shape {
        ranges.push((seg.as_raw(), at as u64, &data[at..at + len]));
        at += len;
    }
    let body = encode_write_v(Some(1), &ranges);
    let body_kib = body.len() as f64 / 1024.0;

    Codec {
        crc32_ns_per_kib: ns_per_call(iters, || {
            black_box(crc32(black_box(&data)));
        }) / kib,
        encode_write_v_ns_per_frame: ns_per_call(iters, || {
            black_box(encode_write_v(Some(1), black_box(&ranges)));
        }),
        decode_ns_per_frame: ns_per_call(iters, || {
            black_box(Request::decode(black_box(&body)).expect("own frame decodes"));
        }),
        frame_ns_per_kib: ns_per_call(iters, || {
            black_box(frame_bytes(black_box(&body)));
        }) / body_kib,
        apply_ns_per_kib: ns_per_call(iters, || {
            for &(_, offset, bytes) in &ranges {
                node.write(seg, offset as usize, black_box(bytes))
                    .expect("range inside the segment");
            }
        }) / kib,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_loops_cover_every_step() {
        let c = codec(&[58, 8, 8, 50]);
        assert!(c.crc32_ns_per_kib > 0.0);
        assert!(c.encode_write_v_ns_per_frame > 0.0);
        assert!(c.decode_ns_per_frame > 0.0);
        assert!(c.frame_ns_per_kib > 0.0);
        assert!(c.apply_ns_per_kib > 0.0);
        assert_eq!(codec(&[]).crc32_ns_per_kib, 0.0);
    }
}
