//! Deterministic interleaving harness for the concurrent engine.
//!
//! A schedule-driven executor runs N transactions step-by-step under an
//! explicit interleaving derived from a `simtime` RNG seed — no wall
//! clock, no OS threads — so every failure replays byte-for-byte from
//! the seed printed in its panic message. Each step the executor also
//! predicts, from its own model of the claim table, whether a write's
//! `set_range` or a read's claim must conflict, and with which holder;
//! the engine has to agree. It records the bytes every read observed, and
//! checks each committed transaction's reads against the serial image at
//! its place in the commit order. Used by both the fixed-seed sweep
//! (`tests/interleave.rs`) and the property suite
//! (`tests/concurrency_prop.rs`).

use perseas_core::{Perseas, PerseasConfig, RegionId, TxnError, TxnToken};
use perseas_rnram::SimRemote;
use perseas_sci::NodeMemory;
use perseas_simtime::{det_rng, DetRng};

use crate::reopen;

/// Length of the single shared region every schedule runs over.
pub const REGION_LEN: usize = 512;

/// The configuration every concurrent-engine test uses.
pub fn conc_cfg() -> PerseasConfig {
    PerseasConfig::default().with_concurrent(true)
}

/// Builds a published concurrent-engine instance with one `REGION_LEN`
/// region, returning `(db, region, mirror node)`.
pub fn build_concurrent() -> (Perseas<SimRemote>, RegionId, NodeMemory) {
    let backend = SimRemote::new("mirror");
    let node = backend.node().clone();
    let mut db = Perseas::init(vec![backend], conc_cfg()).unwrap();
    let r = db.malloc(REGION_LEN).unwrap();
    db.init_remote_db().unwrap();
    (db, r, node)
}

/// One step of a planned transaction. Both kinds claim their range.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// Claim-and-write `len` bytes of `fill` at `off`.
    Write { off: usize, len: usize, fill: u8 },
    /// Claim-and-read `len` bytes at `off`.
    Read { off: usize, len: usize },
}

impl Step {
    fn range(self) -> (usize, usize) {
        match self {
            Step::Write { off, len, .. } | Step::Read { off, len } => (off, len),
        }
    }
}

/// One planned transaction: each step in order, then commit or abort.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The claims, executed in order.
    pub steps: Vec<Step>,
    /// Whether the plan ends in a commit (else a voluntary abort).
    pub commit: bool,
}

/// The bytes one read step observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// Plan index of the reading transaction.
    pub txn: usize,
    /// Index of the read among the plan's steps.
    pub step: usize,
    /// How many transactions had committed when the read ran.
    pub commits_before: usize,
    /// The bytes returned.
    pub bytes: Vec<u8>,
}

/// What one schedule did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run {
    /// The recovered mirror image of the region.
    pub image: Vec<u8>,
    /// Committed plan indices, in commit order.
    pub committed: Vec<usize>,
    /// Every read that returned, committed or not, in execution order.
    pub reads: Vec<Observed>,
}

fn gen_plans(rng: &mut DetRng, n: usize) -> Vec<Plan> {
    (0..n)
        .map(|i| {
            let k = 1 + rng.gen_index(3);
            let steps = (0..k)
                .map(|_| {
                    let off = rng.gen_index(REGION_LEN - 1);
                    let len = 1 + rng.gen_index((REGION_LEN - off).min(48));
                    if rng.gen_bool(0.3) {
                        Step::Read { off, len }
                    } else {
                        let fill = 1 + (i as u8 % 250);
                        Step::Write { off, len, fill }
                    }
                })
                .collect();
            Plan {
                steps,
                commit: rng.gen_bool(0.8),
            }
        })
        .collect()
}

enum State {
    NotStarted,
    /// Open with `next` ranges already claimed and written.
    Open(TxnToken, usize),
    /// All ranges written; waiting at the commit point for a group.
    Ready(TxnToken),
    Done,
}

/// Runs one full schedule. Panics (with the seed) on any divergence
/// between the engine and the model: a mispredicted conflict, a wrong
/// holder, a committed transaction's read or final bytes that differ from
/// the serial order of the committed subset.
pub fn run_schedule(seed: u64, ntxns: usize) -> Run {
    let mut rng = det_rng(seed);
    let plans = gen_plans(&mut rng, ntxns);
    let (mut db, r, node) = build_concurrent();

    let mut states: Vec<State> = (0..ntxns).map(|_| State::NotStarted).collect();
    // The harness's own claim table: intervals held by each still-open
    // transaction (claims persist through Ready until the group commits).
    let mut claims: Vec<Vec<(usize, usize)>> = vec![Vec::new(); ntxns];
    let mut committed: Vec<usize> = Vec::new();
    let mut ready: Vec<usize> = Vec::new();
    let mut reads: Vec<Observed> = Vec::new();

    let flush = |db: &mut Perseas<SimRemote>,
                 ready: &mut Vec<usize>,
                 states: &mut [State],
                 claims: &mut [Vec<(usize, usize)>],
                 committed: &mut Vec<usize>| {
        let tokens: Vec<TxnToken> = ready
            .iter()
            .map(|&i| match states[i] {
                State::Ready(t) => t,
                _ => unreachable!("ready list holds Ready states"),
            })
            .collect();
        db.commit_group(&tokens)
            .unwrap_or_else(|e| panic!("seed {seed}: group commit failed: {e}"));
        for &i in ready.iter() {
            states[i] = State::Done;
            claims[i].clear();
            committed.push(i);
        }
        ready.clear();
    };

    loop {
        let active: Vec<usize> = states
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, State::NotStarted | State::Open(_, _)))
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            break;
        }
        if !ready.is_empty() && rng.gen_bool(0.3) {
            flush(
                &mut db,
                &mut ready,
                &mut states,
                &mut claims,
                &mut committed,
            );
        }
        let i = active[rng.gen_index(active.len())];
        match states[i] {
            State::NotStarted => {
                let token = db
                    .begin_concurrent()
                    .unwrap_or_else(|e| panic!("seed {seed}: begin failed: {e}"));
                states[i] = State::Open(token, 0);
            }
            State::Open(token, next) => {
                let step = plans[i].steps[next];
                let (off, len) = step.range();
                // Model prediction: conflict iff any *other* live
                // transaction holds an overlapping claim.
                let predicted = claims
                    .iter()
                    .enumerate()
                    .find(|(j, held)| {
                        *j != i && held.iter().any(|&(s, e)| s < off + len && off < e)
                    })
                    .map(|(j, _)| j);
                let mut bytes = vec![0u8; len];
                let claimed = match step {
                    Step::Write { .. } => db.set_range_t(token, r, off, len),
                    Step::Read { .. } => db.read_t(token, r, off, &mut bytes),
                };
                match claimed {
                    Ok(()) => {
                        assert!(
                            predicted.is_none(),
                            "seed {seed}: txn {i} claimed [{off}, {}) but the model \
                             says txn {:?} holds an overlap",
                            off + len,
                            predicted
                        );
                        match step {
                            Step::Write { fill, .. } => db
                                .write_t(token, r, off, &vec![fill; len])
                                .unwrap_or_else(|e| panic!("seed {seed}: write failed: {e}")),
                            Step::Read { .. } => reads.push(Observed {
                                txn: i,
                                step: next,
                                commits_before: committed.len(),
                                bytes,
                            }),
                        }
                        claims[i].push((off, off + len));
                        if next + 1 == plans[i].steps.len() {
                            if plans[i].commit {
                                states[i] = State::Ready(token);
                                ready.push(i);
                            } else {
                                db.abort_t(token)
                                    .unwrap_or_else(|e| panic!("seed {seed}: abort failed: {e}"));
                                claims[i].clear();
                                states[i] = State::Done;
                            }
                        } else {
                            states[i] = State::Open(token, next + 1);
                        }
                    }
                    Err(TxnError::Conflict { holder, .. }) => {
                        let predicted = predicted.unwrap_or_else(|| {
                            panic!(
                                "seed {seed}: txn {i} got a conflict on [{off}, {}) \
                                 but the model sees no overlapping claim",
                                off + len
                            )
                        });
                        // The engine reports *a* live overlapping holder;
                        // verify the reported one really overlaps.
                        let holder_idx = states
                            .iter()
                            .position(|s| {
                                matches!(s, State::Open(t, _) | State::Ready(t) if t.id() == holder)
                            })
                            .unwrap_or_else(|| {
                                panic!("seed {seed}: reported holder {holder} is not live")
                            });
                        assert!(
                            claims[holder_idx]
                                .iter()
                                .any(|&(s, e)| s < off + len && off < e),
                            "seed {seed}: reported holder txn {holder_idx} does not \
                             overlap [{off}, {}) (model predicted {predicted})",
                            off + len
                        );
                        // Losers abort; their claims must free immediately.
                        db.abort_t(token)
                            .unwrap_or_else(|e| panic!("seed {seed}: loser abort failed: {e}"));
                        claims[i].clear();
                        states[i] = State::Done;
                    }
                    Err(e) => panic!("seed {seed}: unexpected error: {e}"),
                }
            }
            State::Ready(_) | State::Done => unreachable!("not in active set"),
        }
    }
    if !ready.is_empty() {
        flush(
            &mut db,
            &mut ready,
            &mut states,
            &mut claims,
            &mut committed,
        );
    }

    // Serial oracle: the committed subset applied in commit order on a
    // single thread, each read checked against the image at its step.
    // Aborted and conflicted transactions contribute nothing.
    let mut model = vec![0u8; REGION_LEN];
    for &i in &committed {
        for (k, step) in plans[i].steps.iter().enumerate() {
            match *step {
                Step::Write { off, len, fill } => model[off..off + len].fill(fill),
                Step::Read { off, len } => {
                    let seen = reads
                        .iter()
                        .find(|o| o.txn == i && o.step == k)
                        .expect("a committed transaction ran every read");
                    assert_eq!(
                        seen.bytes,
                        model[off..off + len],
                        "seed {seed}: txn {i} read [{off}, {}) differently from \
                         the serial order {committed:?}",
                        off + len
                    );
                }
            }
        }
    }
    assert_eq!(
        db.region_snapshot(r).unwrap(),
        model,
        "seed {seed}: local image diverges from the serial oracle"
    );

    db.crash();
    let (db2, report) = Perseas::recover(reopen(&node), conc_cfg())
        .unwrap_or_else(|e| panic!("seed {seed}: recovery failed: {e}"));
    let recovered = db2.region_snapshot(r).unwrap();
    if recovered != model {
        let diffs: Vec<usize> = (0..REGION_LEN)
            .filter(|&i| recovered[i] != model[i])
            .collect();
        panic!(
            "seed {seed}: mirror bytes diverge from the serial oracle at {} byte(s) \
             (first [{}] = {} want {}; committed plans {:?}; report: rolled_back={:?} \
             records={} last_committed={})",
            diffs.len(),
            diffs[0],
            recovered[diffs[0]],
            model[diffs[0]],
            committed,
            report.rolled_back_txns,
            report.rolled_back_records,
            report.last_committed,
        );
    }
    Run {
        image: recovered,
        committed,
        reads,
    }
}
