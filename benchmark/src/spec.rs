//! The four workloads and the metrics every one of them reports.
//!
//! Sizes are fixed by operation count. `BENCHMARK.json` at the root of
//! the repository carries the same names, units, directions and bounds
//! for the driver; a unit test keeps the two in step.

use crate::sut::{DebitCredit, DebitCreditScale, PerseasConfig, Synthetic, Workload};

/// Where the mirror lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// An in-process `SimRemote`: SCI model, virtual clock, no syscalls.
    Sim,
    /// A spawned `perseas serve` child over loopback TCP.
    Tcp,
}

/// One workload: inputs, engine configuration and fixed sizes.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why this workload is in the benchmark (one line, also in
    /// `BENCHMARK.json`).
    pub why: &'static str,
    pub substrate: Substrate,
    /// `true` for the 64 KiB synthetic stream, `false` for debit-credit.
    pub bulk: bool,
    /// Commit through the redo log, snapshotting every
    /// [`SNAPSHOT_EVERY`] commits.
    pub redo: bool,
    /// Complete set-ups per run; the last one serves the run. More where
    /// a set-up is short, so that their median is as steady as the rest.
    pub setups: usize,
    /// Transactions in one timed epoch.
    pub epoch_txns: u64,
    /// Transactions in one slice of the traced pass (traced and untraced
    /// slices alternate).
    pub slice_txns: u64,
    /// One transaction in this many is traced inside a traced slice; 1
    /// where a transaction dwarfs the clock reads of its spans.
    pub trace_every: u64,
    /// Transactions in the counted pass.
    pub counted_txns: u64,
    /// Transactions run after each recovery.
    pub post_recover_txns: u64,
}

/// Commits between two `redo_snapshot()` calls on a redo workload.
pub const SNAPSHOT_EVERY: u64 = 128;
/// Commits past the last snapshot at which a redo workload crashes.
pub const REDO_CRASH_TAIL: u64 = 64;
/// Crash/recover cycles per run.
pub const RECOVERIES: usize = 9;
/// Timed epochs per second of `--seconds`: an epoch is sized to take
/// about half a second on the 2-core box the benchmark was written on.
pub const EPOCHS_PER_SECOND: u64 = 2;
/// Pairs of untraced/traced slices in a traced run.
pub const SLICE_PAIRS: usize = 12;

/// Memory of a simulated mirror: the largest database, its redo log,
/// metadata and undo log, with room to spare.
pub const SIM_CAPACITY: usize = 96 << 20;

const BULK_DB: usize = 16 << 20;
const BULK_TXN: usize = 64 << 10;
/// One log segment holds 15 records of 64 KiB plus header; 128 commits
/// between snapshots need nine, the tail segment survives compaction,
/// and two spare slots keep the log from ever filling.
const REDO_SEGMENT: usize = 1 << 20;
const REDO_SLOTS: usize = 12;

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "dc_sci",
        why: "debit-credit on an in-process SCI-model mirror: no syscalls, so engine-side changes show and transport changes must not",
        substrate: Substrate::Sim,
        bulk: false,
        redo: false,
        setups: 15,
        epoch_txns: 160_000,
        slice_txns: 8_000,
        trace_every: 16,
        counted_txns: 20_000,
        post_recover_txns: 1_000,
    },
    Spec {
        name: "dc_tcp",
        why: "the same small transactions through a spawned perseas serve over loopback: per-message cost dominates, so transport and server changes show",
        substrate: Substrate::Tcp,
        bulk: false,
        redo: false,
        setups: 5,
        epoch_txns: 4_000,
        slice_txns: 500,
        trace_every: 1,
        counted_txns: 20_000,
        post_recover_txns: 1_000,
    },
    Spec {
        name: "bulk_tcp",
        why: "64 KiB transactions over TCP on the batched undo path: per-byte cost (copy, CRC, encode) dominates and per-message cost vanishes",
        substrate: Substrate::Tcp,
        bulk: true,
        redo: false,
        setups: 5,
        epoch_txns: 256,
        slice_txns: 128,
        trace_every: 1,
        counted_txns: 512,
        post_recover_txns: 64,
    },
    Spec {
        name: "bulk_redo_tcp",
        why: "the same 64 KiB stream through the redo log with a snapshot every 128 commits: a gain for undo that costs redo, or a compaction stall, shows",
        substrate: Substrate::Tcp,
        bulk: true,
        redo: true,
        setups: 5,
        epoch_txns: 128,
        slice_txns: 128,
        trace_every: 1,
        counted_txns: 512,
        post_recover_txns: 64,
    },
];

impl Spec {
    pub fn by_name(name: &str) -> Option<&'static Spec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The engine configuration: the paper's protocol on the simulated
    /// mirror, the batched pipeline over TCP, the redo log on top of it
    /// for the redo workload.
    pub fn config(&self) -> PerseasConfig {
        let cfg = PerseasConfig::new();
        match (self.substrate, self.redo) {
            (Substrate::Sim, _) => cfg,
            (Substrate::Tcp, false) => cfg.with_batched_commit(true),
            (Substrate::Tcp, true) => cfg
                .with_batched_commit(true)
                .with_redo(true)
                .with_redo_log(REDO_SEGMENT, REDO_SLOTS),
        }
    }

    /// The seeded transaction stream.
    pub fn workload(&self, seed: u64) -> Box<dyn Workload> {
        if self.bulk {
            // A few pages fewer per seed: the redo path ships whole
            // images and fixed-size records, so with one database size
            // its virtual time would not depend on the seed at all.
            let db = BULK_DB - 4096 * (seed % 8) as usize;
            Box::new(Synthetic::new(db, BULK_TXN, seed))
        } else {
            // 40 MB of accounts: well past the 4 MiB L2.
            let scale = DebitCreditScale {
                branches: 4,
                tellers_per_branch: 10,
                accounts: 400_000,
                history_slots: 4_096,
            };
            Box::new(DebitCredit::new(scale, seed))
        }
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression.
    pub bound: f64,
    /// Counted, not timed: repeats to the last digit for one seed.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "txn_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "cpu_us_per_txn",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "vt_us_per_txn",
        unit: "us",
        better: Better::Lower,
        bound: 0.005,
        exact: true,
    },
    EndToEnd {
        name: "remote_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.005,
        exact: true,
    },
    EndToEnd {
        name: "recover_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sut::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("valid JSON")
    }

    fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
        obj.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_names_the_same_workloads() {
        let doc = benchmark_json();
        let listed = doc.get("workloads").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (w, spec) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(w, "name"), spec.name);
            assert_eq!(str_of(w, "why"), spec.why);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn benchmark_json_carries_the_same_end_to_end_metrics() {
        let doc = benchmark_json();
        let listed = doc.get("end_to_end").and_then(Json::as_array).unwrap();
        assert_eq!(listed.len(), END_TO_END.len());
        for (m, want) in listed.iter().zip(&END_TO_END) {
            assert_eq!(str_of(m, "name"), want.name);
            assert_eq!(str_of(m, "unit"), want.unit);
            let better = match want.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(str_of(m, "better"), better);
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(want.bound));
        }
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric_once() {
        let doc = benchmark_json();
        let listed: Vec<_> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| (str_of(m, "name"), str_of(m, "unit"), str_of(m, "better")))
            .collect();
        let ours: Vec<_> = crate::layers::PER_LAYER
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (m.name, m.unit, better)
            })
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn redo_sizes_line_up_with_the_snapshot_cadence() {
        for w in WORKLOADS.iter().filter(|w| w.redo) {
            assert_eq!(w.epoch_txns % SNAPSHOT_EVERY, 0, "whole cycles per epoch");
            assert_eq!(w.slice_txns % SNAPSHOT_EVERY, 0);
            assert_eq!(w.counted_txns % SNAPSHOT_EVERY, 0);
        }
        let per_segment = REDO_SEGMENT / (BULK_TXN + 64);
        let needed = (SNAPSHOT_EVERY as usize).div_ceil(per_segment) + 1;
        assert!(REDO_SLOTS > needed, "log never fills between snapshots");
    }
}
