//! Pipelined-vs-confirmed transport equivalence: random two-lane op
//! sequences through private sockets that confirm each write, post into a
//! small random window, or post into the default window must be
//! observationally identical (harness in `equivalence/mod.rs`).

mod equivalence;

use proptest::prelude::*;

use equivalence::{arb_op, assert_equivalent, Mode};
use perseas_rnram::PipelineConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random sequences: same ops, same server logic, one transport
    /// confirming each op and two posting — one with a deliberately small
    /// window (so sequences wrap it and mid-stream drains happen), one
    /// with the default window. Images, reads and refusals match exactly.
    #[test]
    fn pipelined_and_sync_transports_are_equivalent(
        script in prop::collection::vec((any::<bool>(), arb_op()), 1..32),
        window in 1usize..6,
        byte_budget in 32usize..256,
    ) {
        let small = PipelineConfig { max_ops: window, max_bytes: byte_budget };
        assert_equivalent(
            Mode::ConfirmEachOp,
            &[Mode::SmallWindow, Mode::DefaultWindow],
            &script,
            small,
        )?;
    }
}
