//! Serializability property suite for the concurrent engine.
//!
//! Each case derives a full schedule — transaction mix, interleaving,
//! group-commit boundaries — from one seed through the deterministic
//! harness (`perseas_integration::interleave`). The harness panics with
//! the seed in the message, so any failing case replays byte-for-byte
//! with `run_schedule(seed, ntxns)`.

use proptest::prelude::*;

use perseas_integration::interleave::{run_schedule, REGION_LEN};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random mixes of reads and writes over a shared region must match
    /// the serial order of the committed subset: the harness checks the
    /// commit-order oracle on the local image, on the recovered mirror
    /// bytes, and on every committed transaction's reads. Aborted or
    /// conflicted transactions leave no trace in the mirror, and no read —
    /// even one whose transaction later aborts — sees another
    /// transaction's uncommitted bytes.
    #[test]
    fn concurrent_serializability_prop(seed in any::<u64>(), ntxns in 2usize..8) {
        let run = run_schedule(seed, ntxns);
        prop_assert_eq!(run.image.len(), REGION_LEN);
        // The harness's fill bytes are 1 + (plan % 250), so any non-zero
        // byte maps back to the plan that wrote it.
        let writer = |b: u8| (b - 1) as usize;
        // Every byte is either untouched or written by a *committed*
        // transaction.
        for (at, &b) in run.image.iter().enumerate() {
            prop_assert!(
                b == 0 || run.committed.contains(&writer(b)),
                "seed {}: byte {} holds {} from uncommitted txn {}",
                seed, at, b, writer(b)
            );
        }
        // A read sees committed bytes or its own writes: each byte was
        // written by the reader or by a transaction committed before the
        // read ran.
        for read in &run.reads {
            let before = &run.committed[..read.commits_before];
            for &b in &read.bytes {
                prop_assert!(
                    b == 0 || writer(b) == read.txn || before.contains(&writer(b)),
                    "seed {}: txn {}'s read #{} saw {} from txn {}, uncommitted then",
                    seed, read.txn, read.step, b, writer(b)
                );
            }
        }
    }
}
