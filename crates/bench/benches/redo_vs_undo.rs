//! REDO vs UNDO commit path, head-to-head on the transaction size sweep.
//!
//! One transaction per round writes `size` bytes at a rotating offset of
//! a 1 MB database — the paper's Figure 6 sweep, restricted to the
//! write-heavy shape where the commit path dominates. The undo arm runs
//! the batched vectored pipeline (the strongest undo configuration); the
//! redo arm appends after-images to the segmented log. Both run on the
//! simulated SCI link, so latency is virtual time and byte counts are
//! exact: the numbers are deterministic and the CI gate is strict.
//!
//! The claim under test: the undo path ships every payload byte twice
//! (before-image + data) while the redo path ships it once (after-image
//! only), so on write-heavy mixes redo commits fewer hot-path bytes —
//! with the advantage growing toward 2x as transactions grow.
//!
//! Writes `results/redo_vs_undo.csv`; with `--json` also emits
//! `results/BENCH_redo_vs_undo.json` for the CI bench-regression gate.

use perseas_bench::BenchReport;
use perseas_core::{Perseas, PerseasConfig, RegionId};
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::SimClock;

const DB_BYTES: usize = 1 << 20;
const TXNS: u64 = 128;

struct Arm {
    commit_us: f64,
    bytes_per_txn: f64,
}

fn build(name: &str, cfg: PerseasConfig) -> (Perseas<SimRemote>, RegionId, SimClock) {
    let clock = SimClock::new();
    let backend = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new(name),
        SciParams::dolphin_1998(),
    );
    let mut db = Perseas::init_with_clock(vec![backend], cfg, clock.clone()).expect("init");
    let r = db.malloc(DB_BYTES).expect("malloc");
    db.init_remote_db().expect("publish");
    (db, r, clock)
}

fn run_arm(size: usize, redo: bool) -> Arm {
    let cfg = if redo {
        // The log holds the whole run, so no snapshot interrupts the
        // hot-path measurement (maintenance costs are redo_recovery's
        // subject).
        PerseasConfig::default()
            .with_redo(true)
            .with_redo_log(4 << 20, 8)
    } else {
        PerseasConfig::default().with_batched_commit(true)
    };
    let name = format!("rvu-{}-{size}", if redo { "redo" } else { "undo" });
    let (mut db, r, clock) = build(&name, cfg);
    let fill = vec![(size % 251) as u8; size];

    let bytes0 = db.stats().remote_write_bytes;
    let sw = clock.stopwatch();
    let mut off = 0usize;
    for _ in 0..TXNS {
        off = (off + size + 4096) % (DB_BYTES - size);
        db.begin_transaction().expect("begin");
        db.set_range(r, off, size).expect("declare");
        db.write(r, off, &fill).expect("write");
        db.commit_transaction().expect("commit");
    }
    let elapsed_us = sw.elapsed().as_micros_f64();
    let bytes = db.stats().remote_write_bytes - bytes0;
    assert_eq!(db.last_committed(), TXNS, "every commit durable");
    Arm {
        commit_us: elapsed_us / TXNS as f64,
        bytes_per_txn: bytes as f64 / TXNS as f64,
    }
}

fn main() {
    let sizes = [64usize, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10];
    let mut csv = String::from("size,arm,txns,commit_us,remote_bytes_per_txn\n");
    let mut report = BenchReport::new("redo_vs_undo");
    let mut ratio_64k = 0.0f64;
    for &size in &sizes {
        let undo = run_arm(size, false);
        let redo = run_arm(size, true);
        for (arm, a) in [("undo", &undo), ("redo", &redo)] {
            csv.push_str(&format!(
                "{size},{arm},{TXNS},{:.3},{:.1}\n",
                a.commit_us, a.bytes_per_txn
            ));
        }
        let ratio = undo.bytes_per_txn / redo.bytes_per_txn;
        println!(
            "redo_vs_undo: {size:>6} B -> undo {:>9.1} B/txn {:>8.2} us, \
             redo {:>9.1} B/txn {:>8.2} us ({ratio:.2}x fewer bytes)",
            undo.bytes_per_txn, undo.commit_us, redo.bytes_per_txn, redo.commit_us,
        );
        if size >= 1 << 10 {
            assert!(
                redo.bytes_per_txn < undo.bytes_per_txn,
                "{size} B: redo must ship fewer hot-path bytes \
                 (redo {} vs undo {})",
                redo.bytes_per_txn,
                undo.bytes_per_txn
            );
        }
        if size == 64 << 10 {
            ratio_64k = ratio;
            report = report
                .metric("undo_bytes_per_txn_64k", undo.bytes_per_txn)
                .metric("redo_bytes_per_txn_64k", redo.bytes_per_txn)
                .metric("undo_redo_byte_ratio_64k", ratio)
                .metric("redo_commit_us_64k", redo.commit_us);
        }
        if size == 4 << 10 {
            report = report.metric("redo_commit_us_4k", redo.commit_us);
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/redo_vs_undo.csv"
    );
    std::fs::write(path, &csv).expect("write csv");
    println!("redo_vs_undo: wrote {path}");

    if let Some(json) = report
        .gate_higher("undo_redo_byte_ratio_64k", 10.0)
        .gate_lower("redo_bytes_per_txn_64k", 5.0)
        .gate_duration("redo_commit_us_64k")
        .gate_duration("redo_commit_us_4k")
        .write_if_json_mode()
    {
        println!("redo_vs_undo: wrote {json}");
    }
    assert!(
        ratio_64k >= 1.5,
        "64 KB transactions: redo must ship at least 1.5x fewer bytes (got {ratio_64k:.2}x)"
    );
}
