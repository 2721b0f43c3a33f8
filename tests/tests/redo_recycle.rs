//! The redo log recycles its segments.
//!
//! Each directory slot keeps its remote segment for the life of the log:
//! a snapshot retires the segments it passes, and the next lap of the
//! log writes over their old records. These scenarios put an old lap's
//! bytes where a replay scan lands (a pad, a failed burst's gap, a
//! recovery tombstone's segment) and recover every mirror on its own;
//! the last two count the log's remote segments over many laps, on
//! `SimRemote` and over TCP.

use perseas_core::{Perseas, PerseasConfig, RegionId, TxnError};
use perseas_integration::{reopen, TcpMode};
use perseas_rnram::server::Server;
use perseas_rnram::{RemoteMemory, SimRemote};
use perseas_sci::{NodeMemory, SciLink, SciParams, SegmentId};
use perseas_simtime::SimClock;

/// Bytes per log segment in every scenario.
const SEG: usize = 256;
/// The region: shorter than a log segment, so the log's segments are
/// the only ones `SEG` bytes long.
const LEN: usize = 240;
/// `"REDO"`, the magic opening every redo record.
const REDO_MAGIC: [u8; 4] = *b"ODER";

fn cfg(slots: usize) -> PerseasConfig {
    PerseasConfig::default()
        .with_redo(true)
        .with_redo_log(SEG, slots)
}

fn pre() -> Vec<u8> {
    (0..LEN).map(|i| i as u8).collect()
}

/// A database on two simulated mirrors sharing one clock: the database,
/// its region, and each mirror's node and link.
fn setup(cfg: PerseasConfig) -> (Perseas<SimRemote>, RegionId, [NodeMemory; 2], [SciLink; 2]) {
    let clock = SimClock::new();
    let mirror = |name: &str| {
        SimRemote::with_parts(
            clock.clone(),
            NodeMemory::new(name),
            SciParams::dolphin_1998(),
        )
    };
    let (a, b) = (mirror("a"), mirror("b"));
    let nodes = [a.node().clone(), b.node().clone()];
    let links = [a.link().clone(), b.link().clone()];
    let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock).unwrap();
    let r = db.malloc(LEN).unwrap();
    db.write(r, 0, &pre()).unwrap();
    db.init_remote_db().unwrap();
    (db, r, nodes, links)
}

/// Commits `bytes` at `at`, on the concurrent engine or the legacy one,
/// and applies it to `image`.
fn commit(
    db: &mut Perseas<SimRemote>,
    concurrent: bool,
    r: RegionId,
    at: usize,
    bytes: &[u8],
    image: &mut [u8],
) {
    if concurrent {
        let t = db.begin_concurrent().unwrap();
        db.set_range_t(t, r, at, bytes.len()).unwrap();
        db.write_t(t, r, at, bytes).unwrap();
        db.commit_t(t).unwrap();
    } else {
        db.transaction(|t| t.update(r, at, bytes)).unwrap();
    }
    image[at..at + bytes.len()].copy_from_slice(bytes);
}

/// Commits `n` transactions of 28 bytes — one 64-byte record each, four
/// to a segment — and takes a snapshot, which retires every segment the
/// commits filled. Transaction `i` (from 1) writes `0x10 + i` at
/// `(i - 1) * 28 % 224`.
fn fill_and_snapshot(
    db: &mut Perseas<SimRemote>,
    concurrent: bool,
    r: RegionId,
    n: usize,
    image: &mut [u8],
) {
    for i in 1..=n {
        let at = (i - 1) * 28 % 224;
        commit(db, concurrent, r, at, &[0x10 + i as u8; 28], image);
    }
    db.redo_snapshot().unwrap();
}

/// Recovers `node` on its own and checks the region against `want`.
fn recovers_to(node: &NodeMemory, cfg: PerseasConfig, r: RegionId, want: &[u8], what: &str) {
    let (db, _) = Perseas::recover(reopen(node), cfg)
        .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
    assert_eq!(db.region_snapshot(r).unwrap(), want, "{what}");
}

/// The log's segments on `node`, by id.
fn log_segments(node: &NodeMemory) -> Vec<SegmentId> {
    let mut ids: Vec<SegmentId> = node
        .list_segments()
        .unwrap()
        .into_iter()
        .filter(|s| s.len == SEG)
        .map(|s| s.id)
        .collect();
    ids.sort_unstable_by_key(|id| id.as_raw());
    ids
}

/// Eight commits fill both segments of a two-slot log, and a snapshot
/// retires them. On the next lap a 128-byte record fills offsets 0..128
/// of the first segment, and a 136-byte one does not fit behind it, so
/// it moves to the second segment and leaves offsets 128..256 unwritten.
/// There the first lap's third record still sits, whole and with its
/// CRC intact, and the replay scan reads it at log position 640. It was
/// written at position 128, so it must not decode: replaying it would
/// put `0x13` back over the acked `0xEE`.
#[test]
fn an_old_record_under_a_pad_does_not_replay() {
    for concurrent in [false, true] {
        let cfg = cfg(2).with_concurrent(concurrent);
        let (mut db, r, nodes, _) = setup(cfg);
        let mut image = pre();
        fill_and_snapshot(&mut db, concurrent, r, 8, &mut image);
        let lap1: Vec<_> = nodes.iter().map(log_segments).collect();
        commit(&mut db, concurrent, r, 0, &[0xEE; 92], &mut image);
        commit(&mut db, concurrent, r, 100, &[0xDD; 100], &mut image);
        db.crash();

        for ((name, node), lap1) in ["a", "b"].iter().zip(&nodes).zip(&lap1) {
            let what = format!("concurrent={concurrent} mirror {name}");
            let segs = log_segments(node);
            assert_eq!(&segs, lap1, "{what}: recycled, not new");
            // The first lap's record 3 (log position 128) is under the pad.
            let mut magic = [0u8; 4];
            node.read(segs[0], 128, &mut magic).unwrap();
            assert_eq!(magic, REDO_MAGIC, "{what}: no old record under the pad");
            recovers_to(node, cfg, r, &image, &what);
        }
    }
}

/// The lap-2 version of `aborted_failed_append_never_replays` in
/// `redo_crash_sweep`: with a commit quorum of 2, an append into a
/// recycled segment reaches mirror a whole and mirror b cut after every
/// packet of its burst, so it is refused and aborted. Mirror b rejoins
/// and later commits land past the failed burst's gap, in which mirror a
/// holds the refused records and then the first lap's bytes. Each mirror
/// recovers to the acked image.
#[test]
fn a_failed_burst_on_a_recycled_segment_never_replays() {
    // The append, as the concurrent engine's prepare ships it alone.
    let burst_packets = {
        let (mut db, r, _, links) = setup(cfg(4).with_concurrent(true));
        fill_and_snapshot(&mut db, true, r, 16, &mut pre());
        let before = links[1].stats();
        let t = db.begin_concurrent().unwrap();
        db.set_ranges_t(t, &[(r, 0, 100), (r, 120, 20)]).unwrap();
        db.prepare_t(t).unwrap();
        let after = links[1].stats();
        (after.packets64 + after.packets16) - (before.packets64 + before.packets16)
    };
    assert!(burst_packets > 4, "{burst_packets}");

    for (concurrent, prepare) in [(false, false), (true, false), (true, true)] {
        for cut in 0..burst_packets {
            let cfg = cfg(4).with_concurrent(concurrent).with_commit_quorum(2);
            let (mut db, r, nodes, links) = setup(cfg);
            let mut image = pre();
            fill_and_snapshot(&mut db, concurrent, r, 16, &mut image);

            links[1].cut_after_packets(cut);
            let ranges = [(r, 0, 100), (r, 120, 20)];
            if concurrent {
                let t = db.begin_concurrent().unwrap();
                db.set_ranges_t(t, &ranges).unwrap();
                for (region, at, len) in ranges {
                    db.write_t(t, region, at, &vec![0xAB; len]).unwrap();
                }
                let shipped = if prepare {
                    db.prepare_t(t)
                } else {
                    db.commit_t(t)
                };
                assert!(
                    matches!(shipped, Err(TxnError::Unavailable(_))),
                    "{shipped:?}"
                );
                db.abort_t(t).unwrap();
            } else {
                db.begin_transaction().unwrap();
                db.set_ranges(&ranges).unwrap();
                for (region, at, len) in ranges {
                    db.write(region, at, &vec![0xAB; len]).unwrap();
                }
                let shipped = db.commit_transaction();
                assert!(
                    matches!(shipped, Err(TxnError::Unavailable(_))),
                    "{shipped:?}"
                );
                db.abort_transaction().unwrap();
            }
            links[1].heal();
            db.probe_down_mirrors();
            db.rejoin_mirror(1).unwrap();

            commit(&mut db, concurrent, r, 0, &[0x11; 64], &mut image);
            commit(&mut db, concurrent, r, 0, &[0x22; 120], &mut image);
            db.crash();

            for (name, node) in ["a", "b"].iter().zip(&nodes) {
                let what = format!("concurrent={concurrent} prepare={prepare} cut={cut} {name}");
                recovers_to(node, cfg, r, &image, &what);
            }
        }
    }
}

/// A prepared member's records end at offset 224 of a recycled segment,
/// so the tombstone recovery appends for it does not fit there and goes
/// to the next sequence, whose slot holds a retired segment. Recovery
/// re-points that slot's entry at the new sequence and writes the
/// tombstone into the old segment, allocating nothing; a second recovery
/// finds the tombstone, and the recovered engine goes on committing.
#[test]
fn recovery_tombstones_into_a_retired_slot() {
    let cfg = cfg(2).with_concurrent(true);
    let (mut db, r, nodes, _) = setup(cfg);
    let mut image = pre();
    fill_and_snapshot(&mut db, true, r, 8, &mut image);
    commit(&mut db, true, r, 0, &[0xEE; 92], &mut image);
    let t = db.begin_concurrent().unwrap();
    db.set_range_t(t, r, 120, 60).unwrap();
    db.write_t(t, r, 120, &[0xCC; 60]).unwrap();
    db.prepare_t(t).unwrap();
    db.crash();

    for (name, node) in ["a", "b"].iter().zip(&nodes) {
        let segments = node.list_segments().unwrap();
        let (_, report) = Perseas::recover(reopen(node), cfg)
            .unwrap_or_else(|e| panic!("mirror {name}: recovery failed: {e}"));
        assert_eq!(report.rolled_back_txns.len(), 1, "mirror {name}");
        assert_eq!(
            node.list_segments().unwrap(),
            segments,
            "mirror {name}: the tombstone took a new segment"
        );

        let (mut again, report) = Perseas::recover(reopen(node), cfg).unwrap();
        assert!(report.rolled_back_txns.is_empty(), "mirror {name}");
        assert_eq!(again.region_snapshot(r).unwrap(), image, "mirror {name}");
        let mut image = image.clone();
        commit(&mut again, true, r, 200, &[0x77; 40], &mut image);
        again.redo_snapshot().unwrap();
        commit(&mut again, true, r, 0, &[0x78; 40], &mut image);
        again.crash();
        recovers_to(node, cfg, r, &image, &format!("mirror {name}, later"));
    }
}

/// A mirror allocates the segment of the sequence a commit reaches
/// first, then misses that commit's burst, so no directory on it names
/// the segment. The engine still holds it, and frees it when the mirror
/// rejoins.
#[test]
fn a_rejoin_frees_a_log_segment_no_directory_names() {
    let cfg = cfg(2);
    let (mut db, r, nodes, links) = setup(cfg);
    let mut image = pre();
    for i in 0..4 {
        commit(&mut db, false, r, i * 28, &[i as u8 + 1; 28], &mut image);
    }
    links[1].cut_after_packets(0);
    commit(&mut db, false, r, 112, &[5; 28], &mut image);
    assert_eq!(log_segments(&nodes[1]).len(), 2, "b allocated sequence 1");
    links[1].heal();
    db.probe_down_mirrors();
    db.rejoin_mirror(1).unwrap();
    assert_eq!(
        log_segments(&nodes[1]).len(),
        2,
        "a rejoin leaked a segment"
    );
    db.crash();

    recovers_to(&nodes[1], cfg, r, &image, "mirror b");
    Perseas::scrub_mirror(&mut reopen(&nodes[1]), &cfg).unwrap();
    assert_eq!(nodes[1].used_bytes(), 0, "a scrub left memory");
}

/// Twenty cycles of six commits and a snapshot take the four-slot log
/// round seven times. `check` sees each cycle's remote segments: after
/// the first lap the log's segments stay the same ones.
fn twenty_cycles(
    db: &mut Perseas<impl RemoteMemory>,
    r: RegionId,
    image: &mut [u8],
    mut check: impl FnMut(usize),
) {
    for cycle in 0..20 {
        for i in 0..6 {
            let at = (cycle * 6 + i) * 28 % 224;
            let value = (cycle * 6 + i) as u8;
            db.transaction(|t| t.update(r, at, &[value; 28])).unwrap();
            image[at..at + 28].fill(value);
        }
        db.redo_snapshot().unwrap();
        check(cycle);
    }
}

/// Over twenty snapshot cycles each mirror exports exactly `slots` log
/// segments and frees none; recovery then reads each mirror back, and a
/// scrub leaves its node empty.
#[test]
fn twenty_snapshot_cycles_keep_the_same_log_segments() {
    let cfg = cfg(4);
    let (mut db, r, nodes, _) = setup(cfg);
    let mut image = pre();
    let mut lap1: Vec<Vec<SegmentId>> = Vec::new();
    twenty_cycles(&mut db, r, &mut image, |cycle| {
        // Six 64-byte records a cycle: the fourth segment opens in the
        // third cycle.
        if cycle >= 2 {
            let now: Vec<_> = nodes.iter().map(log_segments).collect();
            if lap1.is_empty() {
                lap1 = now;
            } else {
                assert_eq!(now, lap1, "cycle {cycle}");
            }
        }
    });
    assert!(lap1.iter().all(|segs| segs.len() == 4), "{lap1:?}");
    db.crash();

    for (name, node) in ["a", "b"].iter().zip(&nodes) {
        recovers_to(node, cfg, r, &image, &format!("mirror {name}"));
        assert_eq!(log_segments(node).len(), 4, "mirror {name}");
        Perseas::scrub_mirror(&mut reopen(node), &cfg).unwrap();
        assert_eq!(node.used_bytes(), 0, "mirror {name}: a scrub left memory");
    }
}

/// The same counts with the mirror behind a TCP server, once per way of
/// dialing.
#[test]
fn twenty_snapshot_cycles_over_tcp_keep_the_same_log_segments() {
    for mode in TcpMode::ALL {
        let cfg = cfg(4);
        let server = Server::bind("redo-recycle", "127.0.0.1:0").unwrap().start();
        let node = server.node().clone();
        let mut db = Perseas::init(vec![mode.connect(server.addr())], cfg).unwrap();
        let r = db.malloc(LEN).unwrap();
        db.write(r, 0, &pre()).unwrap();
        db.init_remote_db().unwrap();
        let mut image = pre();
        let mut lap1 = Vec::new();
        twenty_cycles(&mut db, r, &mut image, |cycle| {
            if cycle >= 2 {
                let now = log_segments(&node);
                if lap1.is_empty() {
                    lap1 = now;
                } else {
                    assert_eq!(now, lap1, "{mode:?} cycle {cycle}");
                }
            }
        });
        assert_eq!(lap1.len(), 4, "{mode:?}");
        db.crash();

        let (db2, _) = Perseas::recover(mode.connect(server.addr()), cfg).unwrap();
        assert_eq!(db2.region_snapshot(r).unwrap(), image, "{mode:?}");
        drop(db2);
        Perseas::scrub_mirror(&mut mode.connect(server.addr()), &cfg).unwrap();
        assert_eq!(node.used_bytes(), 0, "{mode:?}: a scrub left memory");
        server.shutdown();
    }
}
