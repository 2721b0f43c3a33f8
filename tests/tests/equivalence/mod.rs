//! Shared harness of the transport equivalence batteries
//! (`tcp_pipeline_equivalence`, `tcp_mux_equivalence`): random op
//! sequences — writes, vectored writes, reads, flushes, a mix of
//! in-bounds and out-of-bounds — spread over two lanes and run through
//! one way of reaching a server. Two modes are equivalent when they give
//! identical segment ids, identical read outcomes, identical sorted error
//! multisets and byte-identical segment images per lane.
//!
//! Each mode runs against a *twin* server (freshly bound, identical empty
//! state), so segment ids — which refusal messages embed — line up
//! exactly.

use std::net::SocketAddr;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

use perseas_rnram::server::{Server, ServerHandle};
use perseas_rnram::{PipelineConfig, RemoteMemory, SegmentId, SessionMux, TcpRemote};

const SEG_LEN: usize = 128;
/// Offsets range past the segment end so some ops are refused.
const OFF_SPAN: usize = SEG_LEN + 32;

#[derive(Debug, Clone)]
pub enum Op {
    Write { offset: usize, fill: u8, len: usize },
    WriteV { ranges: Vec<(usize, u8, usize)> },
    Read { offset: usize, len: usize },
    Flush,
}

pub fn arb_op() -> impl Strategy<Value = Op> {
    let range = (0usize..OFF_SPAN, any::<u8>(), 0usize..48);
    prop_oneof![
        3 => range.prop_map(|(offset, fill, len)| Op::Write { offset, fill, len }),
        2 => prop::collection::vec((0usize..OFF_SPAN, any::<u8>(), 0usize..24), 1..4)
            .prop_map(|ranges| Op::WriteV { ranges }),
        2 => (0usize..OFF_SPAN, 0usize..48).prop_map(|(offset, len)| Op::Read { offset, len }),
        1 => Just(Op::Flush),
    ]
}

/// The ways a client reaches a server, each opening two lanes. Each
/// battery that includes this module names only the modes it compares.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Two private sockets, each write posted and then confirmed by a
    /// barrier of its own, whose error is the write's.
    ConfirmEachOp,
    /// Two private sockets posting into the given small window.
    SmallWindow,
    /// Two private sockets posting into the default window.
    DefaultWindow,
    /// Two sessions with the given small window on one shared socket.
    TwoSessionsOneSocket,
}

fn open_lanes(mode: Mode, addr: SocketAddr, small: PipelineConfig) -> [TcpRemote; 2] {
    let private = || match mode {
        Mode::SmallWindow => TcpRemote::connect_with(addr, small).unwrap(),
        _ => TcpRemote::connect(addr).unwrap(),
    };
    match mode {
        Mode::TwoSessionsOneSocket => {
            let mux = SessionMux::connect(addr).unwrap();
            [mux.session_with(small), mux.session_with(small)]
        }
        _ => [private(), private()],
    }
}

fn apply<C: RemoteMemory>(
    conn: &mut C,
    seg: SegmentId,
    op: &Op,
    reads: &mut Vec<Result<Vec<u8>, String>>,
    errors: &mut Vec<String>,
) {
    match op {
        Op::Write { offset, fill, len } => {
            if let Err(e) = conn.remote_write(seg, *offset, &vec![*fill; *len]) {
                errors.push(e.to_string());
            }
        }
        Op::WriteV { ranges } => {
            let bufs: Vec<Vec<u8>> = ranges.iter().map(|&(_, f, l)| vec![f; l]).collect();
            let writes: Vec<_> = ranges
                .iter()
                .zip(&bufs)
                .map(|(&(off, _, _), buf)| (seg, off, buf.as_slice()))
                .collect();
            if let Err(e) = conn.remote_write_v(&writes) {
                errors.push(e.to_string());
            }
        }
        Op::Read { offset, len } => {
            let mut buf = vec![0u8; *len];
            reads.push(match conn.remote_read(seg, *offset, &mut buf) {
                Ok(()) => Ok(buf),
                Err(e) => Err(e.to_string()),
            });
        }
        Op::Flush => {
            if let Err(e) = conn.flush() {
                errors.push(e.to_string());
            }
        }
    }
}

/// The segment image as the server holds it.
fn image(server: &ServerHandle, tag: u64) -> Vec<u8> {
    let seg = server.node().find_by_tag(tag).expect("data segment");
    let mut buf = vec![0u8; seg.len];
    server.node().read(seg.id, 0, &mut buf).unwrap();
    buf
}

/// What one lane observed: its reads in order, its sorted refusals, and
/// the image its segment ends with.
type Lane = (Vec<Result<Vec<u8>, String>>, Vec<String>, Vec<u8>);

/// What a whole run observed: the segment ids and both lanes.
type Outcome = (Vec<SegmentId>, Vec<Lane>);

/// Runs `script` (lane `false` is the first, `true` the second) through
/// `mode` against a fresh server.
fn run(mode: Mode, script: &[(bool, Op)], small: PipelineConfig) -> Outcome {
    let server = Server::bind("twin", "127.0.0.1:0").unwrap().start();
    let mut conns = open_lanes(mode, server.addr(), small);
    let segs: Vec<SegmentId> = (0..2)
        .map(|lane| conns[lane].remote_malloc(SEG_LEN, lane as u64).unwrap().id)
        .collect();
    let mut out = [(Vec::new(), Vec::new()), (Vec::new(), Vec::new())];
    for (second, op) in script {
        let lane = usize::from(*second);
        let (reads, errors) = &mut out[lane];
        apply(&mut conns[lane], segs[lane], op, reads, errors);
        let write = matches!(op, Op::Write { .. } | Op::WriteV { .. });
        if write && matches!(mode, Mode::ConfirmEachOp) {
            if let Err(e) = conns[lane].flush() {
                errors.push(e.to_string());
            }
        }
    }
    let mut lanes = Vec::new();
    for (lane, (reads, mut errors)) in out.into_iter().enumerate() {
        // A posted refusal surfaces one per barrier: flush until clean.
        // The op count bounds the number of refusals.
        for _ in 0..=script.len() {
            match conns[lane].flush() {
                Ok(_) => break,
                Err(e) => errors.push(e.to_string()),
            }
        }
        assert_eq!(
            conns[lane].in_flight(),
            0,
            "{mode:?}: drain left the window dirty"
        );
        errors.sort();
        lanes.push((reads, errors, image(&server, lane as u64)));
    }
    drop(conns);
    server.shutdown();
    (segs, lanes)
}

/// Runs `script` through `baseline` and through each of `modes`: every
/// mode must match the baseline's segment ids, and per lane its reads,
/// error multiset and image.
pub fn assert_equivalent(
    baseline: Mode,
    modes: &[Mode],
    script: &[(bool, Op)],
    small: PipelineConfig,
) -> Result<(), TestCaseError> {
    let expected = run(baseline, script, small);
    for mode in modes {
        let got = run(*mode, script, small);
        prop_assert_eq!(
            &got.0,
            &expected.0,
            "{:?}: twin servers must allocate identically",
            mode
        );
        for lane in 0..2 {
            prop_assert_eq!(
                &got.1[lane].0,
                &expected.1[lane].0,
                "{:?} lane {} reads diverged",
                mode,
                lane
            );
            prop_assert_eq!(
                &got.1[lane].1,
                &expected.1[lane].1,
                "{:?} lane {} errors diverged",
                mode,
                lane
            );
            prop_assert_eq!(
                &got.1[lane].2,
                &expected.1[lane].2,
                "{:?} lane {} images diverged",
                mode,
                lane
            );
        }
    }
    Ok(())
}
