//! Redo restart time vs. log length: recovery must scale with the live
//! log tail, not with total history.
//!
//! Two arms over a growing committed history of 1 KB transactions:
//!
//! * `nosnap` — never snapshots; recovery replays the whole log, so its
//!   replay cost grows linearly with history length.
//! * `snap` — takes one snapshot 16 transactions before the crash;
//!   recovery replays only the fixed-size tail, so its cost stays flat
//!   no matter how long the history grew ("instant restart").
//!
//! All times are virtual (simulated SCI link + modeled memcpy), so every
//! number is deterministic and gateable. Writes
//! `results/redo_recovery.csv`; with `--json` also emits
//! `results/BENCH_redo_recovery.json` for the CI bench-regression gate.

use perseas_bench::BenchReport;
use perseas_core::{Perseas, PerseasConfig};
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::SimClock;

const DB_BYTES: usize = 256 << 10;
const WRITE: usize = 1 << 10;
const TAIL: u64 = 16;

struct Arm {
    replayed_records: usize,
    replay_us: f64,
    recover_us: f64,
}

fn run_arm(history: u64, snapshot: bool) -> Arm {
    let cfg = PerseasConfig::default()
        .with_redo(true)
        .with_redo_log(256 << 10, 16);
    let clock = SimClock::new();
    let name = format!(
        "rrec-{}-{history}",
        if snapshot { "snap" } else { "nosnap" }
    );
    let backend = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new(&name),
        SciParams::dolphin_1998(),
    );
    let node = backend.node().clone();
    let mut db = Perseas::init_with_clock(vec![backend], cfg, clock).expect("init");
    let r = db.malloc(DB_BYTES).expect("malloc");
    db.init_remote_db().expect("publish");

    let fill = vec![0xAB; WRITE];
    for i in 0..history {
        let off = (i as usize * (WRITE + 512)) % (DB_BYTES - WRITE);
        db.begin_transaction().expect("begin");
        db.set_range(r, off, WRITE).expect("declare");
        db.write(r, off, &fill).expect("write");
        db.commit_transaction().expect("commit");
        if snapshot && i == history - TAIL - 1 {
            db.redo_snapshot().expect("snapshot");
        }
    }
    db.crash();

    // A recovering workstation attaches with its own clock: the whole
    // restart (metadata scan, region rebuild, log replay) is timed.
    let rclock = SimClock::new();
    let rbackend = SimRemote::with_parts(rclock.clone(), node, SciParams::dolphin_1998());
    let sw = rclock.stopwatch();
    let (db2, report) =
        Perseas::recover(rbackend, PerseasConfig::default().with_redo(true)).expect("recover");
    let recover_us = sw.elapsed().as_micros_f64();
    assert!(db2.last_committed() >= history, "history durable");
    Arm {
        replayed_records: report.replayed_records,
        replay_us: report.replay_virtual_nanos as f64 / 1e3,
        recover_us,
    }
}

fn main() {
    let histories = [64u64, 128, 256, 512];
    let mut csv = String::from("log_txns,arm,replayed_records,replay_us,recover_us\n");
    let mut snap_64 = 0.0f64;
    let mut snap_512 = 0.0f64;
    let mut nosnap_512 = 0.0f64;
    let mut snap_records = Vec::new();
    for &history in &histories {
        let nosnap = run_arm(history, false);
        let snap = run_arm(history, true);
        for (arm, a) in [("nosnap", &nosnap), ("snap", &snap)] {
            csv.push_str(&format!(
                "{history},{arm},{},{:.3},{:.3}\n",
                a.replayed_records, a.replay_us, a.recover_us
            ));
        }
        println!(
            "redo_recovery: {history:>4} txns -> nosnap replay {:>4} recs {:>9.1} us \
             (restart {:>9.1} us), snap replay {:>3} recs {:>7.1} us (restart {:>9.1} us)",
            nosnap.replayed_records,
            nosnap.replay_us,
            nosnap.recover_us,
            snap.replayed_records,
            snap.replay_us,
            snap.recover_us,
        );
        assert_eq!(
            nosnap.replayed_records, history as usize,
            "without snapshots the whole history replays"
        );
        assert_eq!(
            snap.replayed_records, TAIL as usize,
            "with a snapshot only the tail replays"
        );
        snap_records.push(snap.replayed_records);
        if history == 64 {
            snap_64 = snap.recover_us;
        }
        if history == 512 {
            snap_512 = snap.recover_us;
            nosnap_512 = nosnap.recover_us;
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/redo_recovery.csv"
    );
    std::fs::write(path, &csv).expect("write csv");
    println!("redo_recovery: wrote {path}");

    // Flatness: an 8x longer history must not move snapshotted restart
    // time by more than 10% (the tail is the same 16 transactions).
    let flatness = snap_512 / snap_64;
    // And the snapshot must actually pay off against full replay.
    let payoff = nosnap_512 / snap_512;
    if let Some(json) = BenchReport::new("redo_recovery")
        .metric("recover_us_snap_512", snap_512)
        .metric("recover_us_nosnap_512", nosnap_512)
        .metric("snap_flatness_512_over_64", flatness)
        .metric("snap_payoff_512", payoff)
        .gate_duration("recover_us_snap_512")
        .gate_duration("recover_us_nosnap_512")
        .gate_lower("snap_flatness_512_over_64", 10.0)
        .gate_higher("snap_payoff_512", 20.0)
        .write_if_json_mode()
    {
        println!("redo_recovery: wrote {json}");
    }
    assert!(
        flatness <= 1.10,
        "snapshotted restart must be flat in history length (got {flatness:.3}x)"
    );
    assert!(
        payoff >= 1.2,
        "snapshot must beat full replay at 512 txns (got {payoff:.2}x)"
    );
}
