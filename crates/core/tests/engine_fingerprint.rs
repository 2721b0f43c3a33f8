//! Engine fingerprint test.
//!
//! Each of the five commit paths (unbatched, batched, group, prepared,
//! redo) runs one fixed script on two simulated mirrors that share a
//! clock: commits, a rejected declaration, a conflict where the engine
//! has claims, an abort, an undo-log growth, a link cut on mirror `b` in
//! the middle of a commit, degraded commits, then heal, probe and rejoin.
//! The run is reduced to one line: protocol steps taken, the virtual
//! clock, the trace (event count and a CRC of every event), the
//! operation counters, and a CRC over every segment of both mirrors. The
//! same script is then crashed at every protocol step, and the steps,
//! trace length and mirror images each crash leaves behind are folded
//! into one more CRC, which pins where every crash point sits.
//!
//! `PINNED` was generated before the engine's mirror fan-out and range
//! declaration code were consolidated. It was re-pinned once, when the
//! script stopped retaining versions: only the trace (its version-store
//! events went) and the crash digest over it moved. The `redo` row was
//! re-pinned again when the log began to recycle its segments: its
//! compaction stopped zeroing a directory entry and freeing the segment
//! on each mirror (four protocol steps, one 16-byte write per mirror and
//! their virtual time), both mirrors keep the retired segment, and
//! `RedoCompacted` names its byte count `retired_bytes`. A change of
//! behaviour on the wire, in the crash points, or in the trace shows up
//! here; a refactor must reproduce every line unchanged.

use perseas_core::{
    FaultPlan, Perseas, PerseasConfig, RecordingTracer, RegionId, TxnError, TxnToken,
};
use perseas_rnram::SimRemote;
use perseas_sci::crc32::checksum as crc32;
use perseas_sci::{NodeMemory, SciLink, SciParams};
use perseas_simtime::SimClock;

const PINNED: &str = "\
unbatched steps=62 clock_ns=2413229 events=39/7681ab94 stats=e915b180 a=cf610570 b=c2f8f078 crashes=1ebebc0c
batched steps=31 clock_ns=2315329 events=45/66439995 stats=8ed47565 a=cf610570 b=c2f8f078 crashes=3d4f889f
group steps=31 clock_ns=2403177 events=58/4cf70c19 stats=8d80acae a=808d08e3 b=c44634db crashes=f14ed804
prepared steps=51 clock_ns=2464363 events=52/6f3ccd70 stats=b6979818 a=808d08e3 b=3335a7b9 crashes=223c0e7a
redo steps=41 clock_ns=2341019 events=50/7d0f79ab stats=a7cf3f7b a=b9630fd2 b=86fba64c crashes=3cde65dd
";

/// The five commit paths. All of them keep a 64-byte initial undo log,
/// so the 1 KiB range in the script has to grow it. The script opens no
/// snapshot, so no commit keeps a version (`snapshot_prop` pins that
/// capture point on every path).
fn configs() -> [(&'static str, PerseasConfig); 5] {
    let base = PerseasConfig::new()
        .with_max_regions(2)
        .with_initial_undo_capacity(64);
    [
        ("unbatched", base),
        ("batched", base.with_batched_commit(true)),
        ("group", base.with_concurrent(true)),
        ("prepared", base.with_concurrent(true)),
        // Small enough segments that the log opens a second one and
        // the last snapshot retires the first.
        ("redo", base.with_redo(true).with_redo_log(1536, 8)),
    ]
}

struct Rig {
    db: Perseas<SimRemote>,
    tracer: RecordingTracer,
    /// A 4 KiB and a 256-byte region.
    r: RegionId,
    s: RegionId,
    na: NodeMemory,
    nb: NodeMemory,
    lb: SciLink,
}

fn rig(cfg: PerseasConfig, plan: FaultPlan) -> Rig {
    let clock = SimClock::new();
    let a = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("a"),
        SciParams::dolphin_1998(),
    );
    let b = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new("b"),
        SciParams::dolphin_1998(),
    );
    let (na, nb, lb) = (a.node().clone(), b.node().clone(), b.link().clone());
    let mut db = Perseas::init_with_clock(vec![a, b], cfg, clock).unwrap();
    let tracer = RecordingTracer::new();
    db.set_tracer(Box::new(tracer.clone()));
    let r = db.malloc(4096).unwrap();
    let s = db.malloc(256).unwrap();
    let seed: Vec<u8> = (0..4096).map(|i| (i * 7) as u8).collect();
    db.write(r, 0, &seed).unwrap();
    db.init_remote_db().unwrap();
    db.set_fault_plan(plan);
    Rig {
        db,
        tracer,
        r,
        s,
        na,
        nb,
        lb,
    }
}

/// The script for the single-transaction paths (unbatched, batched,
/// redo). Stops at the first error, which only an armed fault plan
/// raises.
fn single_script(x: &mut Rig, redo: bool) -> Result<(), TxnError> {
    let (r, s) = (x.r, x.s);
    let db = &mut x.db;

    db.begin_transaction()?;
    db.set_range(r, 0, 8)?;
    db.write(r, 0, &[1; 8])?;
    db.set_range(s, 16, 8)?;
    db.write(s, 16, &[2; 8])?;
    db.commit_transaction()?;

    // A batch with one range out of bounds declares nothing.
    db.begin_transaction()?;
    assert!(matches!(
        db.set_ranges(&[(r, 0, 8), (r, 4090, 100)]),
        Err(TxnError::OutOfBounds { .. })
    ));
    // Undo growth: 1 KiB of before-image against a 64-byte log.
    db.set_ranges(&[(r, 1024, 1024), (s, 0, 32), (r, 2040, 16)])?;
    db.write(r, 1024, &[3; 1024])?;
    db.write(s, 0, &[4; 32])?;
    db.write(r, 2040, &[5; 16])?;
    db.commit_transaction()?;

    db.begin_transaction()?;
    db.set_range(r, 100, 50)?;
    db.write(r, 100, &[6; 50])?;
    db.abort_transaction()?;
    if redo {
        db.redo_snapshot()?;
    }

    // Mirror b's link dies two packets into the commit.
    db.begin_transaction()?;
    db.set_range(r, 200, 300)?;
    db.write(r, 200, &[7; 300])?;
    db.set_range(s, 100, 8)?;
    db.write(s, 100, &[8; 8])?;
    x.lb.cut_after_packets(2);
    db.commit_transaction()?;

    db.begin_transaction()?;
    db.set_range(r, 600, 64)?;
    db.write(r, 600, &[9; 64])?;
    db.commit_transaction()?;

    rejoin_b(db, &x.lb)?;

    // The second cut lands in the undo push of the declaration on the
    // unbatched path, and in the commit on the others.
    x.lb.cut_after_packets(1);
    db.begin_transaction()?;
    db.set_ranges(&[(r, 700, 16), (s, 200, 16)])?;
    db.write(r, 700, &[10; 16])?;
    db.write(s, 200, &[11; 16])?;
    db.commit_transaction()?;
    rejoin_b(db, &x.lb)?;

    db.begin_transaction()?;
    db.set_range(r, 800, 8)?;
    db.write(r, 800, &[12; 8])?;
    db.commit_transaction()?;
    if redo {
        db.redo_snapshot()?;
    }
    Ok(())
}

/// Heals mirror `b`'s link, probes it and resyncs it.
fn rejoin_b(db: &mut Perseas<SimRemote>, lb: &SciLink) -> Result<(), TxnError> {
    lb.heal();
    db.probe_down_mirrors();
    db.rejoin_mirror(1)
}

/// Opens a concurrent transaction and writes `byte` over each range it
/// declares (one `set_ranges_t` call).
fn fill_t(
    db: &mut Perseas<SimRemote>,
    ranges: &[(RegionId, usize, usize)],
    byte: u8,
) -> Result<TxnToken, TxnError> {
    let t = db.begin_concurrent()?;
    db.set_ranges_t(t, ranges)?;
    for &(region, offset, len) in ranges {
        db.write_t(t, region, offset, &vec![byte; len])?;
    }
    Ok(t)
}

/// The script for the concurrent engine, committing through
/// `commit_group`; with `prepare`, every member is prepared first.
fn group_script(x: &mut Rig, prepare: bool) -> Result<(), TxnError> {
    let (r, s) = (x.r, x.s);
    let db = &mut x.db;
    let commit = |db: &mut Perseas<SimRemote>, ts: &[TxnToken]| -> Result<(), TxnError> {
        if prepare {
            for &t in ts {
                db.prepare_t(t)?;
            }
        }
        db.commit_group(ts)
    };

    let t1 = db.begin_concurrent()?;
    db.set_range_t(t1, r, 0, 8)?;
    db.write_t(t1, r, 0, &[1; 8])?;
    let t2 = fill_t(db, &[(s, 16, 8), (r, 64, 8)], 2)?;
    // Conflicts on t1's claim, single and batched; neither declares.
    assert!(matches!(
        db.set_range_t(t2, r, 4, 8),
        Err(TxnError::Conflict { .. })
    ));
    assert!(matches!(
        db.set_ranges_t(t2, &[(s, 40, 8), (r, 0, 2)]),
        Err(TxnError::Conflict { .. })
    ));
    commit(db, &[t1, t2])?;

    // Undo growth: the arena outgrows 64 bytes at staging time.
    let t3 = fill_t(db, &[(r, 1024, 1024), (s, 0, 32), (r, 2040, 16)], 3)?;
    commit(db, &[t3])?;

    let t4 = fill_t(db, &[(r, 100, 50)], 4)?;
    if prepare {
        // An abort after prepare restores the mirrors and tombstones
        // the shipped records.
        db.prepare_t(t4)?;
    }
    db.abort_t(t4)?;

    let t5 = fill_t(db, &[(r, 200, 300)], 5)?;
    let t6 = fill_t(db, &[(s, 100, 8)], 6)?;
    if prepare {
        for t in [t5, t6] {
            db.prepare_t(t)?;
        }
    }
    // Mirror b's link dies mid-commit.
    x.lb.cut_after_packets(2);
    db.commit_group(&[t5, t6])?;

    let t7 = fill_t(db, &[(r, 600, 64)], 7)?;
    commit(db, &[t7])?;

    rejoin_b(db, &x.lb)?;

    x.lb.cut_after_packets(1);
    let t8 = fill_t(db, &[(r, 700, 16), (s, 200, 16)], 8)?;
    commit(db, &[t8])?;
    rejoin_b(db, &x.lb)?;

    let t9 = fill_t(db, &[(r, 800, 8)], 9)?;
    commit(db, &[t9])
}

fn run_script(name: &str, x: &mut Rig) -> Result<(), TxnError> {
    match name {
        "group" => group_script(x, false),
        "prepared" => group_script(x, true),
        "redo" => single_script(x, true),
        _ => single_script(x, false),
    }
}

/// CRC of `(id, tag, len, crc(contents))` of every segment on `node`.
fn node_digest(node: &NodeMemory) -> u32 {
    let mut text = String::new();
    for info in node.list_segments().unwrap() {
        let mut data = vec![0u8; info.len];
        node.read(info.id, 0, &mut data).unwrap();
        text += &format!(
            "{} {:x} {} {:08x}\n",
            info.id.as_raw(),
            info.tag,
            info.len,
            crc32(&data)
        );
    }
    crc32(text.as_bytes())
}

fn events_digest(tracer: &RecordingTracer) -> (usize, u32) {
    let events = tracer.events();
    let text: String = events.iter().map(|e| format!("{e:?}\n")).collect();
    (events.len(), crc32(text.as_bytes()))
}

/// The fault-free run, as one line, and the protocol steps it took.
fn clean_run(name: &str, cfg: PerseasConfig) -> (String, u64) {
    let mut x = rig(cfg, FaultPlan::none());
    run_script(name, &mut x).unwrap_or_else(|e| panic!("{name}: {e:?}"));
    assert_eq!(x.db.healthy_mirror_count(), 2, "{name}: rejoin failed");
    let (events, ev_crc) = events_digest(&x.tracer);
    let steps = x.db.steps_taken();
    let line = format!(
        "{name} steps={steps} clock_ns={} events={events}/{ev_crc:08x} stats={:08x} a={:08x} b={:08x}",
        x.db.clock().now().as_nanos(),
        crc32(format!("{:?}", x.db.stats()).as_bytes()),
        node_digest(&x.na),
        node_digest(&x.nb),
    );
    (line, steps)
}

/// One CRC over what a crash at each protocol step of the script leaves
/// behind.
fn crash_sweep(name: &str, cfg: PerseasConfig, steps: u64) -> u32 {
    let mut text = String::new();
    for k in 0..steps {
        let mut x = rig(cfg, FaultPlan::crash_after(k));
        let res = run_script(name, &mut x);
        assert_eq!(res, Err(TxnError::Crashed), "{name}: crash at step {k}");
        let (events, ev_crc) = events_digest(&x.tracer);
        text += &format!(
            "{k} {} {events} {ev_crc:08x} {:08x} {:08x}\n",
            x.db.steps_taken(),
            node_digest(&x.na),
            node_digest(&x.nb),
        );
    }
    crc32(text.as_bytes())
}

fn fingerprints() -> Vec<String> {
    configs()
        .into_iter()
        .map(|(name, cfg)| {
            let (line, steps) = clean_run(name, cfg);
            format!("{line} crashes={:08x}", crash_sweep(name, cfg, steps))
        })
        .collect()
}

#[test]
fn every_commit_path_matches_its_pinned_fingerprint() {
    let got = fingerprints();
    let want: Vec<&str> = PINNED.lines().collect();
    for (got, want) in got.iter().zip(&want) {
        assert_eq!(got, want, "engine behaviour changed");
    }
    assert_eq!(got.len(), want.len(), "got:\n{}", got.join("\n"));
}
