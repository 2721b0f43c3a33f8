//! Shared helpers for the cross-crate integration tests.
//!
//! The actual tests live in `tests/tests/*.rs`; this small library builds
//! the systems under test in the configurations the paper evaluates.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Mutex, OnceLock, PoisonError};

use perseas_baselines::{VistaSystem, WalConfig, WalSystem};
use perseas_core::{Perseas, PerseasConfig};
use perseas_rnram::{BackoffPolicy, SessionMux, SimRemote, TcpRemote};
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

/// The two ways a client reaches a TCP mirror; the TCP suites run every
/// scenario through each of them. Both post their writes and confirm them
/// at `flush`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpMode {
    /// A private socket ([`TcpRemote::connect`]).
    Private,
    /// A session ([`SessionMux::session`]) on the one socket the harness
    /// keeps open to the address while any of its sessions is.
    Shared,
}

/// The sockets [`TcpMode::Shared`] opens sessions on, by server address.
/// A socket with no open session left, or a dead one, is closed and
/// dialed afresh, so sessions share a socket exactly while they overlap.
fn shared_socket(addr: SocketAddr) -> SessionMux {
    static SOCKETS: OnceLock<Mutex<HashMap<SocketAddr, SessionMux>>> = OnceLock::new();
    let mut sockets = SOCKETS
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    sockets.retain(|_, mux| mux.open_sessions() > 0 && !mux.is_dead());
    if let Some(mux) = sockets.get(&addr) {
        return mux.clone();
    }
    let mux = SessionMux::connect(addr).expect("connect");
    sockets.insert(addr, mux.clone());
    mux
}

impl TcpMode {
    /// Every mode, in the order the suites run them.
    pub const ALL: [TcpMode; 2] = [TcpMode::Private, TcpMode::Shared];

    /// Dials `addr` in this mode.
    pub fn connect(self, addr: SocketAddr) -> TcpRemote {
        match self {
            TcpMode::Private => TcpRemote::connect(addr).expect("connect"),
            TcpMode::Shared => shared_socket(addr).session(),
        }
    }
}

/// Dials `addr` with a handle that re-dials itself
/// ([`TcpRemote::connect_redialing`]), giving each operation up to
/// `max_attempts` tries. Only a private socket re-dials, so the scenarios
/// that use this run once, outside the [`TcpMode`] loop.
pub fn redialing(addr: SocketAddr, max_attempts: usize) -> TcpRemote {
    TcpRemote::connect_redialing(addr, max_attempts, BackoffPolicy::default()).expect("connect")
}

pub mod interleave;
pub mod shard_harness;
