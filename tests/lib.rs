//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library builds
//! the systems under test in the configurations the paper evaluates.

use std::net::SocketAddr;

use perseas_baselines::{VistaSystem, WalConfig, WalSystem};
use perseas_core::{Perseas, PerseasConfig};
use perseas_rnram::{ReconnectingRemote, SessionMux, SimRemote, TcpRemote};
use perseas_sci::{NodeMemory, SciParams};
use perseas_simtime::SimClock;
use perseas_txn::TransactionalMemory;

/// Builds a PERSEAS instance whose library and SCI link share one clock,
/// returning the instance and the mirror's node memory (for crash tests).
pub fn perseas_with_node() -> (Perseas<SimRemote>, NodeMemory) {
    let clock = SimClock::new();
    let node = NodeMemory::new("it-mirror");
    let backend = SimRemote::with_parts(clock.clone(), node.clone(), SciParams::dolphin_1998());
    let db = Perseas::init_with_clock(vec![backend], PerseasConfig::default(), clock)
        .expect("init PERSEAS");
    (db, node)
}

/// A fresh backend handle onto `node`, as a recovering workstation opens.
pub fn reopen(node: &NodeMemory) -> SimRemote {
    SimRemote::with_parts(SimClock::new(), node.clone(), SciParams::dolphin_1998())
}

/// Every system of the paper's comparison, each on its own clock.
pub fn all_systems() -> Vec<(&'static str, Box<dyn TransactionalMemory>)> {
    let (perseas, _) = perseas_with_node();
    vec![
        ("perseas", Box::new(perseas) as Box<dyn TransactionalMemory>),
        (
            "rvm",
            Box::new(WalSystem::rvm(SimClock::new(), WalConfig::new())),
        ),
        (
            "rio-rvm",
            Box::new(WalSystem::rio_rvm(SimClock::new(), WalConfig::new())),
        ),
        ("vista", Box::new(VistaSystem::new(SimClock::new()))),
    ]
}

/// The three ways a client reaches a TCP mirror; the TCP suites run every
/// scenario through each of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpMode {
    /// A private socket confirming every operation ([`TcpRemote::connect`]).
    Confirmed,
    /// A private socket posting writes ([`TcpRemote::connect_pipelined`]).
    Pipelined,
    /// A session on the process-wide shared socket ([`SessionMux::shared`]).
    Shared,
}

impl TcpMode {
    /// Every mode, in the order the suites run them.
    pub const ALL: [TcpMode; 3] = [TcpMode::Confirmed, TcpMode::Pipelined, TcpMode::Shared];

    /// Dials `addr` in this mode.
    pub fn connect(self, addr: SocketAddr) -> TcpRemote {
        match self {
            TcpMode::Confirmed => TcpRemote::connect(addr),
            TcpMode::Pipelined => TcpRemote::connect_pipelined(addr),
            TcpMode::Shared => SessionMux::shared(addr).map(|mux| mux.session()),
        }
        .expect("connect")
    }

    /// Dials `addr` in this mode behind a [`ReconnectingRemote`].
    pub fn reconnecting(self, addr: SocketAddr, max_attempts: usize) -> ReconnectingRemote {
        match self {
            TcpMode::Confirmed => ReconnectingRemote::connect(addr, max_attempts),
            TcpMode::Pipelined => ReconnectingRemote::connect_pipelined(addr, max_attempts),
            TcpMode::Shared => ReconnectingRemote::connect_mux(addr, max_attempts),
        }
        .expect("connect")
    }

    /// Whether writes are posted and confirmed only at a barrier.
    pub fn posts_writes(self) -> bool {
        self != TcpMode::Confirmed
    }
}

pub mod interleave;
pub mod shard_harness;
