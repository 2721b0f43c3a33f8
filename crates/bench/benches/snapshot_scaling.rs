//! Reader scaling under skew: MVCC snapshot reads vs conflict-table
//! claimed reads.
//!
//! A 90/10 hotspot mix over a small account table, with the hot set held
//! by a fixed trio of writers for the whole claim window of every round
//! — the workload where first-claimer-wins hurts readers most. Each
//! round the writers claim and rewrite the hot cells, every reader then
//! attempts one hotspot-sampled read, and the writers group-commit
//! (advancing virtual time). A claimed reader loses its round whenever
//! its target is held; a snapshot reader pins the commit watermark and
//! always completes. Reader throughput is successful reads over the
//! arm's virtual makespan, swept over 1/2/4/8 concurrent readers.
//!
//! Writes `results/snapshot_scaling.csv`; with `--json` also emits
//! `results/BENCH_snapshot_scaling.json` for the CI bench-regression
//! gate. All times are virtual, so the gate is deterministic.

use perseas_bench::BenchReport;
use perseas_core::{Perseas, PerseasConfig, RegionId, TxnError};
use perseas_rnram::SimRemote;
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::{det_rng, SimClock};
use perseas_workloads::Hotspot;

const ACCOUNTS: usize = 64;
const CELL: usize = 64;
const WRITERS: usize = 3;
const ROUNDS: usize = 32;

/// One arm's outcome: successful reads, reader conflicts, and the
/// virtual makespan in microseconds.
struct Arm {
    reads_ok: usize,
    conflicts: usize,
    elapsed_us: f64,
}

impl Arm {
    fn reads_per_sec(&self) -> f64 {
        self.reads_ok as f64 / (self.elapsed_us / 1e6)
    }
}

fn build(name: &str, cfg: PerseasConfig) -> (Perseas<SimRemote>, RegionId, SimClock) {
    let clock = SimClock::new();
    let backend = SimRemote::with_parts(
        clock.clone(),
        NodeMemory::new(name),
        SciParams::dolphin_1998(),
    );
    let mut db = Perseas::init_with_clock(vec![backend], cfg, clock.clone()).expect("init");
    let r = db.malloc(ACCOUNTS * CELL).expect("malloc");
    db.init_remote_db().expect("publish");
    (db, r, clock)
}

/// Runs one arm: `readers` hotspot readers against `WRITERS` writers
/// that hold the entire hot set (cells `0..2*WRITERS`) during every
/// round's claim window. `mvcc` picks snapshot reads over claimed reads.
fn run_arm(readers: usize, mvcc: bool) -> Arm {
    let cfg = PerseasConfig::default().with_concurrent(true);
    let name = format!(
        "snap-bench-{}-{readers}",
        if mvcc { "mvcc" } else { "legacy" }
    );
    let (mut db, r, clock) = build(&name, cfg);
    let hot = Hotspot::ninety_ten(ACCOUNTS);
    assert_eq!(hot.hot_keys(), 2 * WRITERS, "writers cover the hot set");
    let mut rng = det_rng(0x5CA1_E000 + readers as u64);

    let sw = clock.stopwatch();
    let mut reads_ok = 0usize;
    let mut conflicts = 0usize;
    for round in 0..ROUNDS {
        // The writer trio claims the whole hot set, mid-transaction.
        let ws: Vec<_> = (0..WRITERS)
            .map(|w| {
                let t = db.begin_concurrent().expect("begin writer");
                for cell in [2 * w, 2 * w + 1] {
                    db.set_range_t(t, r, cell * CELL, CELL).expect("claim hot");
                    db.write_t(t, r, cell * CELL, &[round as u8 + 1; CELL])
                        .expect("write hot");
                }
                t
            })
            .collect();

        // Every reader attempts one hotspot-sampled read.
        for _ in 0..readers {
            let target = hot.sample(&mut rng) * CELL;
            let mut buf = [0u8; CELL];
            if mvcc {
                let snap = db.begin_snapshot().expect("begin snapshot");
                db.read_s(snap, r, target, &mut buf)
                    .expect("snapshot reads never conflict");
                db.end_snapshot(snap);
                reads_ok += 1;
            } else {
                let t = db.begin_concurrent().expect("begin reader");
                match db.set_range_t(t, r, target, CELL) {
                    Ok(()) => {
                        db.read(r, target, &mut buf).expect("read claimed range");
                        reads_ok += 1;
                    }
                    Err(TxnError::Conflict { .. }) => conflicts += 1,
                    Err(e) => panic!("unexpected claim error: {e}"),
                }
                db.abort_t(t).expect("release reader claim");
            }
        }

        db.commit_group(&ws).expect("commit writer group");
    }
    assert!(db.last_committed() > 0, "writer groups must be durable");
    Arm {
        reads_ok,
        conflicts,
        elapsed_us: sw.elapsed().as_micros_f64(),
    }
}

fn main() {
    let sweep = [1usize, 2, 4, 8];
    let mut csv = String::from("readers,arm,rounds,reads_ok,conflicts,elapsed_us,reads_per_sec\n");
    let mut speedup_r8 = 0.0f64;
    let mut legacy_conflicts_r8 = 0usize;
    let mut mvcc_conflicts = 0usize;
    for &readers in &sweep {
        let legacy = run_arm(readers, false);
        let mvcc = run_arm(readers, true);
        for (arm, a) in [("legacy", &legacy), ("mvcc", &mvcc)] {
            csv.push_str(&format!(
                "{readers},{arm},{ROUNDS},{},{},{:.3},{:.1}\n",
                a.reads_ok,
                a.conflicts,
                a.elapsed_us,
                a.reads_per_sec(),
            ));
        }
        let speedup = mvcc.reads_per_sec() / legacy.reads_per_sec();
        println!(
            "snapshot_scaling: {readers} readers -> legacy {}/{} reads ({} conflicts), \
             mvcc {}/{} reads ({} conflicts), {speedup:.2}x reader throughput",
            legacy.reads_ok,
            readers * ROUNDS,
            legacy.conflicts,
            mvcc.reads_ok,
            readers * ROUNDS,
            mvcc.conflicts,
        );
        mvcc_conflicts += mvcc.conflicts;
        assert_eq!(
            mvcc.reads_ok,
            readers * ROUNDS,
            "{readers} readers: every snapshot read completes"
        );
        assert!(
            legacy.conflicts > 0,
            "{readers} readers: claimed reads must conflict under the hotspot"
        );
        if readers == 8 {
            speedup_r8 = speedup;
            legacy_conflicts_r8 = legacy.conflicts;
        }
    }
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/snapshot_scaling.csv"
    );
    std::fs::write(path, &csv).expect("write csv");
    println!("snapshot_scaling: wrote {path}");

    if let Some(json) = BenchReport::new("snapshot_scaling")
        .metric("reader_speedup_r8", speedup_r8)
        .metric("legacy_conflicts_r8", legacy_conflicts_r8 as f64)
        .metric("mvcc_reader_conflicts", mvcc_conflicts as f64)
        .gate_higher("reader_speedup_r8", 10.0)
        .gate_lower("mvcc_reader_conflicts", 0.0)
        .write_if_json_mode()
    {
        println!("snapshot_scaling: wrote {json}");
    }
    assert_eq!(mvcc_conflicts, 0, "snapshot readers never abort");
    assert!(
        speedup_r8 >= 2.0,
        "MVCC must at least double reader throughput at 8 readers (got {speedup_r8:.2}x)"
    );
}
