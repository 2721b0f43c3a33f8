//! # PERSEAS — lightweight transactions over reliable network RAM
//!
//! Reproduction of *"Lightweight Transactions on Networks of
//! Workstations"* (Papathanasiou & Markatos, ICS-FORTH TR 209 / ICDCS
//! 1998).
//!
//! PERSEAS is a user-level transaction library for main-memory databases
//! that removes the magnetic disk from the commit path. Database segments
//! are *mirrored* in the main memory of one or more remote workstations
//! over a fast interconnect; a transaction costs three memory copies and
//! zero disk accesses:
//!
//! 1. [`Perseas::set_range`] copies the before-image of the declared range
//!    into the local undo log **and** appends it (one remote write) to the
//!    mirrored undo log;
//! 2. the application updates the local database in place
//!    ([`Perseas::write`]);
//! 3. [`Perseas::commit_transaction`] copies each modified range to the
//!    mirrored database and then publishes a single packet-atomic commit
//!    record. [`Perseas::abort_transaction`] is a purely local memory copy,
//!    exactly as in the paper.
//!
//! After a crash of the primary, [`Perseas::recover`] reconnects the
//! remote metadata segment (`sci_connect_segment`), rolls the mirrored
//! database back from the mirrored undo log if a transaction was in
//! flight, and rebuilds the local image — on *any* workstation, giving the
//! paper's immediate-availability property.
//!
//! # Quick start
//!
//! ```
//! use perseas_core::{Perseas, PerseasConfig};
//! use perseas_rnram::SimRemote;
//!
//! # fn main() -> Result<(), perseas_txn::TxnError> {
//! let mirror = SimRemote::new("mirror");
//! let mut db = Perseas::init(vec![mirror], PerseasConfig::default())?;
//!
//! let accounts = db.malloc(1024)?;          // PERSEAS_malloc
//! db.write(accounts, 0, &100u64.to_le_bytes())?;
//! db.init_remote_db()?;                     // PERSEAS_init_remote_db
//!
//! db.begin_transaction()?;
//! db.set_range(accounts, 0, 8)?;            // log before-image
//! db.write(accounts, 0, &42u64.to_le_bytes())?;
//! db.commit_transaction()?;                 // two remote writes, no disk
//!
//! let mut buf = [0u8; 8];
//! db.read(accounts, 0, &mut buf)?;
//! assert_eq!(u64::from_le_bytes(buf), 42);
//! # Ok(())
//! # }
//! ```

mod archive;
mod conc;
mod concurrent;
mod config;
mod fault;
mod jsonl;
mod layout;
mod metrics;
mod mvcc;
mod perseas;
mod recovery;
mod redo;
mod replica;
mod scope;
mod shard;
mod trace;
mod txn_impl;

pub use conc::TxnToken;
pub use concurrent::{ConcurrentPerseas, TxnHandle};
pub use config::PerseasConfig;
pub use fault::FaultPlan;
pub use jsonl::JsonlTracer;
pub use layout::{
    commit_table_offset, crc32, decode_commit_table, decode_decision_slot, decode_group_header,
    decode_intent_slot, decode_redo_dir_header, decode_region_entry, encode_decision_slot,
    encode_group_header, encode_intent_slot, encode_redo_dir_header, MetaHeader, RedoFormat,
    RedoRecord, UndoRecord, FLAG_SHARDED, META_TAG, OFF_COMMIT, OFF_EPOCH,
};
pub use metrics::{record_recovery, record_shard_recovery};
pub use perseas::{MirrorHealth, MirrorStatus, Perseas};
pub use recovery::RecoveryReport;
pub use replica::ReadReplica;
pub use scope::TxnScope;
pub use shard::{GlobalToken, ShardRecoveryReport, ShardedPerseas};
pub use trace::{RecordingTracer, TraceEvent, Tracer};

pub use perseas_rnram::BackoffPolicy;
pub use perseas_txn::{RegionId, SnapshotToken, TransactionalMemory, TxnError, TxnStats};
