//! The system under test, as the benchmark sees it.
//!
//! Every symbol of the repository that `perf_ledger` links against is
//! named in this file and nowhere else, so a change that renames, merges
//! or removes one of them (ROADMAP items 2 and 3) has exactly one place
//! to look at. `README.md` lists them with the signature the benchmark
//! relies on.

use std::path::Path;
use std::process::{Command, Stdio};

pub use perseas_core::{Perseas, PerseasConfig};
pub use perseas_obs::Json;
pub use perseas_rnram::protocol::{crc32, encode_write_v, frame_bytes, Request};
pub use perseas_rnram::{
    FlushStats, RemoteMemory, RemoteSegment, RnError, SegmentId, SimRemote, TcpRemote,
};
pub use perseas_sci::{LinkStats, NodeMemory, SciParams};
pub use perseas_simtime::SimClock;
pub use perseas_txn::{RegionId, SnapshotToken, TransactionalMemory, TxnError, TxnStats};
pub use perseas_workloads::{DebitCredit, DebitCreditScale, Synthetic, Workload};

/// Package of the root workspace whose release build yields the
/// `perseas` binary.
pub const CLI_PACKAGE: &str = "perseas-cli";
/// Name of that binary inside the target directory.
pub const CLI_BINARY: &str = "perseas";

/// The `perseas serve` command line: an ephemeral loopback port, output
/// piped so the harness can read the address the server bound.
pub fn serve_command(cli: &Path, name: &str) -> Command {
    let mut cmd = Command::new(cli);
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--name", name])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    cmd
}

/// Picks the bound address out of the line `perseas serve` prints when it
/// is ready: `mirror 'NAME' exporting memory on HOST:PORT`.
pub fn parse_serve_banner(line: &str) -> Option<&str> {
    line.trim_end()
        .rsplit_once(" exporting memory on ")
        .map(|(_, a)| a)
}

/// A fresh simulated mirror node with room for `capacity` bytes, on its
/// own virtual clock, with the paper's 1998 SCI timing.
pub fn sim_node(name: &str, capacity: usize) -> SimRemote {
    SimRemote::with_parts(
        SimClock::new(),
        NodeMemory::with_capacity(name, capacity),
        SciParams::dolphin_1998(),
    )
}

/// `PERSEAS_init` over one mirror. A simulated mirror shares its virtual
/// clock with the engine, so local copies and link time land on one
/// timeline; a TCP mirror has none and the engine keeps a private clock.
pub fn init<M: RemoteMemory>(mirror: M, cfg: PerseasConfig) -> Result<Perseas<M>, TxnError> {
    let clock = mirror.virtual_clock().unwrap_or_default();
    Perseas::init_with_clock(vec![mirror], cfg, clock)
}

/// `Perseas::recover` over one surviving mirror, sharing the clock as
/// [`init`] does.
pub fn recover<M: RemoteMemory>(mirror: M, cfg: PerseasConfig) -> Result<Perseas<M>, TxnError> {
    let clock = mirror.virtual_clock().unwrap_or_default();
    Perseas::recover_with_clock(mirror, cfg, clock).map(|(db, _report)| db)
}
