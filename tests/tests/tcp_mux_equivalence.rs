//! Shared-socket-vs-private-socket transport equivalence: random op
//! sequences through sessions of one `SessionMux` socket must be
//! observationally identical to the same sequences through private
//! sockets (harness in `equivalence/mod.rs`).

mod equivalence;

use proptest::prelude::*;

use equivalence::{arb_op, assert_equivalent, Mode};
use perseas_rnram::PipelineConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 256 random single-lane sequences through one session on a shared
    /// socket and through a private socket that confirms each write. The
    /// session's window is deliberately small so the sequences wrap it
    /// and mid-stream drains happen.
    #[test]
    fn mux_session_matches_a_dedicated_connection(
        ops in prop::collection::vec(arb_op(), 1..32),
        window in 1usize..6,
        byte_budget in 32usize..256,
    ) {
        let script: Vec<(bool, _)> = ops.into_iter().map(|op| (false, op)).collect();
        let small = PipelineConfig { max_ops: window, max_bytes: byte_budget };
        assert_equivalent(Mode::ConfirmEachOp, &[Mode::TwoSessionsOneSocket], &script, small)?;
    }

    /// Two sessions interleaved over ONE shared socket versus two private
    /// posting sockets with the same window: each lane matches its twin
    /// exactly even though the shared side's frames interleave on the wire.
    #[test]
    fn interleaved_sessions_match_dedicated_connections(
        script in prop::collection::vec((any::<bool>(), arb_op()), 1..32),
        window in 1usize..6,
    ) {
        let cfg = PipelineConfig { max_ops: window, max_bytes: 1 << 20 };
        assert_equivalent(Mode::SmallWindow, &[Mode::TwoSessionsOneSocket], &script, cfg)?;
    }
}
