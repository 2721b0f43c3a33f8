//! Format-pinning golden test.
//!
//! `GOLDEN` holds bytes produced by the encoders and the engine as they
//! stood before the CRC-32 implementation was replaced (generated at
//! commit a89fb7c, bit-at-a-time CRC); `read_response_frame` was generated
//! at commit 0a6599c, before the server wrote a read's payload straight
//! into its response frame. Today's encoders must reproduce
//! them byte for byte, today's decoders must accept them, and a mirror
//! written by that binary must recover under this one. A failure here
//! means a durable or wire format changed: that needs a version bump and
//! a migration story, never a regenerated table. The one exception is
//! `write_v_frame`, a write in the retired `Seq` frame (opcode 11): no
//! encoder makes it any more, and decoders and a live server must refuse
//! it.
//!
//! The redo log's format moved from `RDO1` to `RDO2` when its segments
//! began to be recycled: a record's CRC now covers its log position too.
//! The `RDO1` lines (`redo_record`, `redo_head`, `redo_dir_header` and
//! `mirror_redo.*`) stay as legacy inputs: no encoder makes them any
//! more, decoders still accept them, and recovery replays the old mirror
//! by the old rule, then migrates it to `RDO2`. The `_v2` lines pin
//! today's encoders and engine.

use perseas_core::{
    decode_decision_slot, decode_group_header, decode_intent_slot, decode_redo_dir_header,
    encode_decision_slot, encode_group_header, encode_intent_slot, encode_redo_dir_header,
    FaultPlan, Perseas, PerseasConfig, RedoFormat, RedoRecord, RegionId, TxnError, UndoRecord,
    META_TAG,
};
use std::io::{Read as _, Write as _};
use std::net::TcpListener;
use std::net::TcpStream;

use perseas_rnram::protocol::{
    encode_mux, encode_write_v, read_frame, write_frame, Request, Response,
};
use perseas_rnram::server::Server;
use perseas_rnram::SimRemote;
use perseas_rnram::{RemoteMemory, SegmentId, TcpRemote};
use perseas_sci::{NodeMemory, SciLink, SciParams};
use perseas_simtime::SimClock;

const GOLDEN: &str = "\
undo_record 00000000004f444e5508070605040302010300000022110000000000000d00000000000000e283ce996265666f72652d696d6167652100000000000000000000
redo_record 00000000004f44455218171615141312110200000044330000000000000c000000000000002f7bbca661667465722d696d616765210000000000000000000000
redo_record_v2 00000000004f44455218171615141312110200000044330000000000000c000000000000004eb4677c61667465722d696d616765210000000000000000000000
redo_head 4f44455218171615141312110200000044330000000000000c000000000000002f7bbca6
redo_head_v2 4f44455218171615141312110200000044330000000000000c000000000000004eb4677c
group_header 505552473412000000000000de0593b8
intent_slot 31544e587ea8f7420700000000000000efcdab00000000000200000000000000
decision_slot 314e4344c2f7c3e1efcdab0000000000
redo_dir_header 314f44524a62222c000010000c000000
redo_dir_header_v2 324f44524a62222c000010000c000000
write_v_frame 6f0000000b07000000000000000a020000000000000001000000000000004000000000000000050000000000000068656c6c6f020000000000000000100000000000002800000000000000a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a51193cd6f
read_response_frame 1d00000086030000000000000009000000000000008262797465732c2072656164947055e3
mux_write_frame 280400000c000000000000000000000000000000000305000000000000001800000000000000030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f26ae497b1d
mux_write_v_frame 8d0400000c000000000000000000000000000000000a040000000000000001000000000000004000000000000000050000000000000068656c6c6f020000000000000000000000000000000000000000000000030000000000000000100000000000000604000000000000030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dce3eaf1f8ff060d141b222930373e454c535a61686f767d848b9299a0a7aeb5bcc3cad1d8dfe6edf4fb020910171e252c333a41484f565d646b727980878e959ca3aab1b8bfc6cdd4dbe2e9f0f7fe050c131a21282f363d444b525960676e757c838a91989fa6adb4bbc2c9d0d7dee5ecf3fa01080f161d242b323940474e555c636a71787f868d949ba2a9b0b7bec5ccd3dae1e8eff6fd040b121920272e353c434a51585f666d747b828990979ea5acb3bac1c8cfd6dde4ebf2f900070e151c232a31383f464d545b626970777e858c939aa1a8afb6bdc4cbd2d9e0e7eef5fc030a11181f26010000000000000008000000000000000800000000000000a5a5a5a5a5a5a5a511a1cb2f
mirror_undo.1 5045525345415331 96 010041535544454d0100000001000000020000000000000000010000000000000100000000000000000000000000000000000000000000000200000000000000030000000000000040
mirror_undo.2 0 256 4f444e5503000000000000000000000004000000000000001000000000000000d5eda3cbaaaaaaaa08090a0b0c0d0e0f101112130000000000000000200000000000000008000000000000004312ab582021222324252627
mirror_undo.3 0 64 aaaaaaaaccccccccccccccccccccccccccccccccdddddddddddddddddddd1e1fbbbbbbbbbbbbbbbb28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f
mirror_batched.1 5045525345415331 96 010041535544454d0100000001000000020000000000000000010000000000000100000000000000000000000000000000000000000000000200000000000000030000000000000040
mirror_batched.2 0 256 4f444e5503000000000000000000000004000000000000001000000000000000d5eda3cbaaaaaaaa08090a0b0c0d0e0f101112130000000000000000200000000000000008000000000000004312ab582021222324252627
mirror_batched.3 0 64 aaaaaaaaccccccccccccccccccccccccccccccccdddddddddddddddddddd1e1fbbbbbbbbbbbbbbbb28292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f
mirror_redo.1 5045525345415331 208 010041535544454d010000000100000002000000000000000001000000000000010000000000000004000000000000000000000000000000020000000000000003000000000000004000000000000000000000000000000000000000000000000400000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000ba000000000000000000000000000000314f44528a43374c0001000004
mirror_redo.2 0 256 -
mirror_redo.3 0 64 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f
mirror_redo.4 0 256 4f4445520100000000000000000000000000000000000000080000000000000034a9e98daaaaaaaaaaaaaaaa4f44455201000000000000000000000020000000000000000800000000000000d264a55bbbbbbbbbbbbbbbbb4f44455202000000000000000000000014000000000000000a00000000000000536579a4dddddddddddddddddddd4f4445520300000000000000000000000400000000000000100000000000000062fa4c27cccccccccccccccccccccccccccccccc
mirror_redo_v2.1 5045525345415331 208 010041535544454d010000000100000002000000000000000001000000000000010000000000000004000000000000000000000000000000020000000000000003000000000000004000000000000000000000000000000000000000000000000400000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000ba000000000000000000000000000000324f44528a43374c0001000004
mirror_redo_v2.2 0 256 -
mirror_redo_v2.3 0 64 000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3d3e3f
mirror_redo_v2.4 0 256 4f4445520100000000000000000000000000000000000000080000000000000010278d96aaaaaaaaaaaaaaaa4f44455201000000000000000000000020000000000000000800000000000000a3bb015bbbbbbbbbbbbbbbbb4f44455202000000000000000000000014000000000000000a000000000000009190a133dddddddddddddddddddd4f44455203000000000000000000000004000000000000001000000000000000c45d735acccccccccccccccccccccccccccccccc
";

const UNDO: UndoRecord = UndoRecord {
    txn_id: 0x0102_0304_0506_0708,
    region: 3,
    offset: 0x1122,
    len: 13,
};
const UNDO_PAYLOAD: &[u8] = b"before-image!";
const REDO: RedoRecord = RedoRecord {
    txn_id: 0x1112_1314_1516_1718,
    region: 2,
    offset: 0x3344,
    len: 12,
};
const REDO_PAYLOAD: &[u8] = b"after-image!";
/// The log position an `RDO2` record is sealed to.
const REDO_POS: u64 = 0x0003_0000_0000_0005;
/// Records are encoded at this offset of a zeroed 64-byte buffer.
const RECORD_AT: usize = 5;
const WRITE_V: [(u64, u64, &[u8]); 2] = [(1, 64, b"hello"), (2, 4096, &[0xA5; 40])];
/// The golden line no encoder makes any more.
const LEGACY: &str = "write_v_frame";
/// The names of the `RDO1` lines, which no encoder makes any more.
const RDO1: [&str; 4] = ["redo_record", "redo_head", "redo_dir_header", "mirror_redo"];

/// Whether golden line (or mirror) `line` is a legacy input.
fn is_legacy(line: &str) -> bool {
    let name = line.split([' ', '.']).next().unwrap_or_default();
    name == LEGACY || RDO1.contains(&name)
}
/// A mirror segment's bytes, and the session read the server answers.
const MIRROR_BYTES: &[u8] = b"mirror bytes, read once";
const READ_SESSION: u64 = 3;
const READ_SEQ: u64 = 9;
const READ_AT: usize = 7;
const READ_LEN: usize = 11;
/// Ranges of the recorded `TcpRemote` writes: short ones, an empty one,
/// and one long enough to be gathered from the caller's buffer. Their
/// golden lines were recorded at commit de04c21, when a write frame was
/// still encoded into one buffer.
const MUX_WRITE_AT: (u64, usize) = (5, 24);
const MUX_WRITE_V: [(u64, usize, &[u8]); 3] = [(1, 64, b"hello"), (2, 0, b""), (1, 8, &[0xA5; 8])];

/// 1 030 bytes of a pattern: longer than any range a frame's head copies.
fn long_payload() -> Vec<u8> {
    (0..1030u32).map(|i| (i * 7 + 3) as u8).collect()
}

/// The frame a fresh private `TcpRemote` session puts on the wire for
/// the one posted write `write` makes, as a recording peer reads it.
fn recorded_write_frame(write: impl FnOnce(&mut TcpRemote)) -> Vec<u8> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = TcpRemote::connect(listener.local_addr().unwrap()).unwrap();
    let (mut peer, _) = listener.accept().unwrap();
    write(&mut client);
    let mut frame = vec![0u8; 4];
    peer.read_exact(&mut frame).unwrap();
    let body = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(4 + body + 4, 0);
    peer.read_exact(&mut frame[4..]).unwrap();
    frame
}

fn mux_write_frame() -> Vec<u8> {
    let (seg, offset) = MUX_WRITE_AT;
    recorded_write_frame(|c| {
        c.remote_write(SegmentId::from_raw(seg), offset, &long_payload())
            .unwrap()
    })
}

fn mux_write_v_frame() -> Vec<u8> {
    let long = long_payload();
    let mut writes: Vec<(SegmentId, usize, &[u8])> = MUX_WRITE_V
        .iter()
        .map(|&(s, o, d)| (SegmentId::from_raw(s), o, d))
        .collect();
    writes.insert(2, (SegmentId::from_raw(3), 4096, &long));
    recorded_write_frame(|c| c.remote_write_v(&writes).unwrap())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The bytes golden line `name` holds.
fn golden(name: &str) -> Vec<u8> {
    let line = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no golden line {name}"));
    unhex(line)
}

/// The wire frame a live server sends back for one session's `Read`.
fn read_response_frame() -> Vec<u8> {
    let node = NodeMemory::new("golden");
    let seg = node.export_segment(MIRROR_BYTES.len(), 0).unwrap();
    node.write(seg, 0, MIRROR_BYTES).unwrap();
    let server = Server::with_node(node, "127.0.0.1:0").unwrap().start();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    let read = Request::Read {
        seg: seg.as_raw(),
        offset: READ_AT as u64,
        len: READ_LEN as u64,
    };
    write_frame(&mut s, &encode_mux(READ_SESSION, READ_SEQ, &read)).unwrap();
    let mut frame = vec![0u8; 4];
    s.read_exact(&mut frame).unwrap();
    let body = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
    frame.resize(4 + body + 4, 0);
    s.read_exact(&mut frame[4..]).unwrap();
    server.shutdown();
    frame
}

/// Every encoder-level artefact, as `name hex` lines.
fn encoded_artefacts() -> Vec<String> {
    let mut undo = [0u8; 64];
    UNDO.encode_into(&mut undo, RECORD_AT, UNDO_PAYLOAD);
    let mut redo = [0u8; 64];
    REDO.encode_into(&mut redo, RECORD_AT, REDO_POS, REDO_PAYLOAD);
    vec![
        format!("undo_record {}", hex(&undo)),
        format!("redo_record_v2 {}", hex(&redo)),
        format!(
            "redo_head_v2 {}",
            hex(&REDO.encode_head(REDO_POS, REDO_PAYLOAD))
        ),
        format!("group_header {}", hex(&encode_group_header(0x1234))),
        format!("intent_slot {}", hex(&encode_intent_slot(7, 0xAB_CDEF, 2))),
        format!("decision_slot {}", hex(&encode_decision_slot(0xAB_CDEF))),
        format!(
            "redo_dir_header_v2 {}",
            hex(&encode_redo_dir_header(1 << 20, 12))
        ),
        format!("read_response_frame {}", hex(&read_response_frame())),
        format!("mux_write_frame {}", hex(&mux_write_frame())),
        format!("mux_write_v_frame {}", hex(&mux_write_v_frame())),
    ]
}

/// How the third transaction dies before its commit record lands.
#[derive(Clone, Copy)]
enum Death {
    /// The primary crashes after this many protocol steps of the
    /// transaction's remote traffic.
    CrashAfter(u64),
    /// The link drops the last packet of the commit, the commit record,
    /// and everything after it.
    RecordCut,
}

/// The engine configurations whose mirrors are pinned: the name their
/// golden lines carry, and how the third transaction dies; the redo
/// configuration twice, for its `RDO1` and its `RDO2` mirror. Undo:
/// before-images and new data are on the mirror, the commit record is
/// not. Redo: the record is in the log and under the tail, the commit
/// record does not cover it. The batched and redo commits ship as one
/// vectored write, so no crash step falls between their data and their
/// record; a link cut inside the write does.
fn mirror_configs() -> [(&'static str, PerseasConfig, Death); 4] {
    let small = PerseasConfig::new()
        .with_max_regions(2)
        .with_initial_undo_capacity(256);
    [
        ("mirror_undo", small, Death::CrashAfter(2)),
        (
            "mirror_batched",
            small.with_batched_commit(true),
            Death::RecordCut,
        ),
        (
            "mirror_redo",
            small.with_redo(true).with_redo_log(256, 4),
            Death::RecordCut,
        ),
        (
            "mirror_redo_v2",
            small.with_redo(true).with_redo_log(256, 4),
            Death::RecordCut,
        ),
    ]
}

const REGION_LEN: usize = 64;

fn initial_image() -> Vec<u8> {
    (0..REGION_LEN).map(|i| i as u8).collect()
}

/// What recovery must yield: transactions 1 and 2 applied, 3 gone.
fn committed_image() -> Vec<u8> {
    let mut v = initial_image();
    v[0..8].fill(0xAA);
    v[32..40].fill(0xBB);
    v[20..30].fill(0xDD);
    v
}

/// A fresh single-mirror database with transactions 1 and 2 committed:
/// the database, its region, and the mirror's node and link.
fn two_commits(cfg: PerseasConfig) -> (Perseas<SimRemote>, RegionId, NodeMemory, SciLink) {
    let backend = SimRemote::new("golden");
    let (node, link) = (backend.node().clone(), backend.link().clone());
    let mut db = Perseas::init(vec![backend], cfg).unwrap();
    let r = db.malloc(REGION_LEN).unwrap();
    db.write(r, 0, &initial_image()).unwrap();
    db.init_remote_db().unwrap();

    db.begin_transaction().unwrap();
    db.set_range(r, 0, 8).unwrap();
    db.write(r, 0, &[0xAA; 8]).unwrap();
    db.set_range(r, 32, 8).unwrap();
    db.write(r, 32, &[0xBB; 8]).unwrap();
    db.commit_transaction().unwrap();

    db.begin_transaction().unwrap();
    db.set_range(r, 20, 10).unwrap();
    db.write(r, 20, &[0xDD; 10]).unwrap();
    db.commit_transaction().unwrap();
    (db, r, node, link)
}

fn third_txn(db: &mut Perseas<SimRemote>, r: RegionId) -> Result<(), TxnError> {
    db.begin_transaction()?;
    db.set_range(r, 4, 16)?;
    db.write(r, 4, &[0xCC; 16])?;
    db.commit_transaction()
}

fn packets(link: &SciLink) -> u64 {
    let st = link.stats();
    st.packets64 + st.packets16
}

/// Two committed transactions, then a third that dies as `death` says;
/// returns the mirror the dead primary leaves behind.
fn build_mirror(cfg: PerseasConfig, death: Death) -> NodeMemory {
    let (mut db, r, node, link) = two_commits(cfg);
    match death {
        Death::CrashAfter(steps) => {
            db.set_fault_plan(FaultPlan::crash_after(steps));
            assert_eq!(third_txn(&mut db, r), Err(TxnError::Crashed));
        }
        Death::RecordCut => {
            // A clean twin counts the commit's packets.
            let (mut twin, tr, _, twin_link) = two_commits(cfg);
            let before = packets(&twin_link);
            third_txn(&mut twin, tr).unwrap();
            link.cut_after_packets(packets(&twin_link) - before - 1);
            let died = third_txn(&mut db, r);
            assert!(matches!(died, Err(TxnError::Unavailable(_))), "{died:?}");
        }
    }
    node
}

/// One `name.id tag len hex` line per segment, trailing zeros trimmed
/// (`-` for a segment of zeros).
fn dump_mirror(name: &str, node: &NodeMemory) -> Vec<String> {
    let mut lines = Vec::new();
    for info in node.list_segments().unwrap() {
        let mut data = vec![0u8; info.len];
        node.read(info.id, 0, &mut data).unwrap();
        let used = data.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
        let data = if used == 0 {
            "-".into()
        } else {
            hex(&data[..used])
        };
        lines.push(format!(
            "{name}.{} {:x} {} {data}",
            info.id.as_raw(),
            info.tag,
            info.len
        ));
    }
    lines
}

/// Rebuilds the mirror the golden lines of `name` describe.
fn load_mirror(name: &str) -> NodeMemory {
    let node = NodeMemory::new("golden");
    let prefix = format!("{name}.");
    for line in GOLDEN.lines().filter(|l| l.starts_with(&prefix)) {
        let fields: Vec<&str> = line[prefix.len()..].split(' ').collect();
        let [id, tag, len, data] = fields[..] else {
            panic!("malformed mirror line {line}");
        };
        let seg = node
            .export_segment(len.parse().unwrap(), u64::from_str_radix(tag, 16).unwrap())
            .unwrap();
        // The metadata names segments by id, so ids must come out as the
        // old binary assigned them.
        assert_eq!(seg.as_raw().to_string(), id, "segment order in {name}");
        if data != "-" {
            node.write(seg, 0, &unhex(data)).unwrap();
        }
    }
    node
}

#[test]
fn encoders_reproduce_the_golden_bytes() {
    let mut lines = encoded_artefacts();
    for (name, cfg, death) in mirror_configs() {
        if !is_legacy(name) {
            lines.extend(dump_mirror(name, &build_mirror(cfg, death)));
        }
    }
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !is_legacy(l)).collect();
    for (got, want) in lines.iter().zip(&golden) {
        assert_eq!(got, want, "a durable or wire format changed");
    }
    assert_eq!(lines.len(), golden.len());
}

#[test]
fn decoders_accept_the_golden_bytes() {
    let (rec, payload) = UndoRecord::decode_at(&golden("undo_record"), RECORD_AT).unwrap();
    assert_eq!(rec, UNDO);
    assert_eq!(&golden("undo_record")[payload], UNDO_PAYLOAD);

    for (suffix, format) in [("", RedoFormat::V1), ("_v2", RedoFormat::V2)] {
        let record = golden(&format!("redo_record{suffix}"));
        let (rec, payload) = RedoRecord::decode_at(&record, RECORD_AT, REDO_POS, format).unwrap();
        assert_eq!(rec, REDO);
        assert_eq!(&record[payload], REDO_PAYLOAD);
        let mut split = golden(&format!("redo_head{suffix}"));
        split.extend_from_slice(REDO_PAYLOAD);
        assert_eq!(
            RedoRecord::decode_at(&split, 0, REDO_POS, format)
                .unwrap()
                .0,
            REDO
        );
    }
    // An `RDO2` record decodes only at its own position, and an `RDO1`
    // record not at all by the `RDO2` rule.
    let record = golden("redo_record_v2");
    assert!(RedoRecord::decode_at(&record, RECORD_AT, REDO_POS + 1, RedoFormat::V2).is_none());
    let record = golden("redo_record");
    assert!(RedoRecord::decode_at(&record, RECORD_AT, REDO_POS, RedoFormat::V2).is_none());

    assert_eq!(decode_group_header(&golden("group_header")), Some(0x1234));
    assert_eq!(
        decode_intent_slot(&golden("intent_slot"), 0),
        Some((7, 0xAB_CDEF, 2))
    );
    assert_eq!(
        decode_decision_slot(&golden("decision_slot"), 0),
        Some(0xAB_CDEF)
    );
    assert_eq!(
        decode_redo_dir_header(&golden("redo_dir_header"), 0),
        Some((1 << 20, 12, RedoFormat::V1))
    );
    assert_eq!(
        decode_redo_dir_header(&golden("redo_dir_header_v2"), 0),
        Some((1 << 20, 12, RedoFormat::V2))
    );

    // The legacy frame is intact, but its opcode is retired.
    let body = read_frame(&mut golden(LEGACY).as_slice()).unwrap();
    let err = Request::decode(&body).unwrap_err();
    assert!(err.to_string().contains("unknown opcode 11"), "{err}");

    let body = read_frame(&mut golden("read_response_frame").as_slice()).unwrap();
    let want = Response::Mux {
        session: READ_SESSION,
        seq: READ_SEQ,
        inner: Box::new(Response::Data(
            MIRROR_BYTES[READ_AT..READ_AT + READ_LEN].to_vec(),
        )),
    };
    assert_eq!(Response::decode(&body).unwrap(), want);
}

/// A live server answers the legacy `Seq` write frame with a typed error,
/// counted under `decode_error`, applies none of it, and serves the next
/// `Mux` request on the same connection.
#[test]
fn a_live_server_refuses_the_legacy_seq_frame() {
    let node = NodeMemory::new("legacy");
    for seg in [1, 2] {
        assert_eq!(node.export_segment(8192, 0).unwrap().as_raw(), seg);
    }
    let hello = || {
        let mut got = [0u8; 5];
        node.read(SegmentId::from_raw(1), 64, &mut got).unwrap();
        got
    };
    let registry = perseas_obs::Registry::new();
    let server = Server::with_node(node.clone(), "127.0.0.1:0")
        .unwrap()
        .with_metrics(&registry)
        .start();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.write_all(&golden(LEGACY)).unwrap();
    let answer = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    assert!(
        matches!(&answer, Response::Err(m) if m.contains("unknown opcode 11")),
        "{answer:?}"
    );
    assert_eq!(hello(), [0; 5], "nothing of the legacy frame applied");
    write_frame(&mut s, &encode_write_v(Some(0), &WRITE_V)).unwrap();
    let answer = Response::decode(&read_frame(&mut s).unwrap()).unwrap();
    let ok = Response::Mux {
        session: 0,
        seq: 0,
        inner: Box::new(Response::Ok),
    };
    assert_eq!(answer, ok);
    server.shutdown();
    let decode_errors = perseas_obs::parse_exposition(&registry.render())
        .unwrap()
        .into_iter()
        .find(|m| {
            m.name == "perseas_server_requests_total" && m.label("op") == Some("decode_error")
        })
        .map_or(0.0, |m| m.value);
    assert_eq!(decode_errors, 1.0);
    assert_eq!(&hello(), b"hello", "the Mux write landed");
}

/// The recorded write frames decode to the session writes that made them.
#[test]
fn the_recorded_write_frames_decode() {
    let long = long_payload();
    let body = read_frame(&mut golden("mux_write_frame").as_slice()).unwrap();
    let (seg, offset) = MUX_WRITE_AT;
    let want = Request::Mux {
        session: 0,
        seq: 0,
        inner: Box::new(Request::Write {
            seg,
            offset: offset as u64,
            data: long.clone(),
        }),
    };
    assert_eq!(Request::decode(&body).unwrap(), want);

    let body = read_frame(&mut golden("mux_write_v_frame").as_slice()).unwrap();
    let mut ranges: Vec<(u64, u64, Vec<u8>)> = MUX_WRITE_V
        .iter()
        .map(|&(s, o, d)| (s, o as u64, d.to_vec()))
        .collect();
    ranges.insert(2, (3, 4096, long));
    let want = Request::Mux {
        session: 0,
        seq: 0,
        inner: Box::new(Request::WriteV { ranges }),
    };
    assert_eq!(Request::decode(&body).unwrap(), want);
}

#[test]
fn a_mirror_written_by_the_old_binary_recovers() {
    for (name, cfg, _) in mirror_configs() {
        let node = load_mirror(name);
        let backend = SimRemote::with_parts(SimClock::new(), node, SciParams::dolphin_1998());
        let (db, report) = Perseas::recover(backend, cfg)
            .unwrap_or_else(|e| panic!("{name}: recovery refused the old mirror: {e}"));
        assert_eq!(
            db.region_snapshot(RegionId::from_raw(0)).unwrap(),
            committed_image(),
            "{name}"
        );
        assert_eq!(report.last_committed, 2, "{name}");
    }
}

/// The format, snapshot position and tail of the redo directory on
/// `node`. The pinned image is legacy and unsharded, so its directory
/// ends the metadata segment: header, then tail, then snapshot lines,
/// from the end backwards.
fn redo_dir(node: &NodeMemory) -> (RedoFormat, u64, u64) {
    let meta = node.find_by_tag(META_TAG).expect("a metadata segment");
    let mut lines = [0u8; 48];
    node.read(meta.id, meta.len - 48, &mut lines).unwrap();
    let (_, _, format) = decode_redo_dir_header(&lines, 32).expect("a redo directory header");
    let word = |at: usize| u64::from_le_bytes(lines[at..at + 8].try_into().unwrap());
    (format, word(0), word(16))
}

/// Recovery migrates the `RDO1` mirror: it replays the old log,
/// tombstones transaction 3 by the old rule, takes a snapshot and
/// restamps the directory `RDO2`. Cut the link after every packet of
/// that work. An `RDO2` directory never has a live suffix behind a cut,
/// and whatever a cut leaves recovers again to the committed image;
/// once migrated, the mirror commits and recovers on the new format.
#[test]
fn an_old_mirror_migrates_through_a_cut_at_every_packet() {
    let (name, cfg, _) = mirror_configs()[2];
    assert_eq!(name, "mirror_redo");
    let sim = |node: &NodeMemory| {
        SimRemote::with_parts(SimClock::new(), node.clone(), SciParams::dolphin_1998())
    };
    let region = RegionId::from_raw(0);
    for cut in 0u64.. {
        assert!(cut < 200, "the migration never completed");
        let node = load_mirror(name);
        assert_eq!(redo_dir(&node).0, RedoFormat::V1);
        let backend = sim(&node);
        backend.link().cut_after_packets(cut);
        let first = Perseas::recover(backend, cfg);
        let (format, snap, tail) = redo_dir(&node);
        if format == RedoFormat::V2 {
            assert_eq!(snap, tail, "cut={cut}: an RDO2 directory over RDO1 records");
        }

        let (mut db, report) = Perseas::recover(sim(&node), cfg)
            .unwrap_or_else(|e| panic!("cut={cut}: recovery after the cut failed: {e}"));
        assert_eq!(
            db.region_snapshot(region).unwrap(),
            committed_image(),
            "cut={cut}"
        );
        assert!(report.last_committed >= 2, "cut={cut}");
        assert_eq!(redo_dir(&node).0, RedoFormat::V2, "cut={cut}");

        db.transaction(|t| t.update(region, 40, &[0xEE; 8]))
            .unwrap();
        let mut want = committed_image();
        want[40..48].fill(0xEE);
        let (again, _) = Perseas::recover(sim(&node), cfg).unwrap();
        assert_eq!(again.region_snapshot(region).unwrap(), want, "cut={cut}");
        if first.is_ok() {
            assert_eq!(
                format,
                RedoFormat::V2,
                "a recovery that succeeds has migrated"
            );
            break;
        }
    }
}
