//! Reliable network RAM for the PERSEAS reproduction.
//!
//! The paper builds transactions on three primitives (Section 3):
//!
//! * **remote malloc** — map physical memory of a remote node into the
//!   calling process;
//! * **remote free** — release such a segment;
//! * **remote memory copy** — `memcpy` between local and remote memory.
//!
//! Plus one recovery primitive, **`sci_connect_segment`** (Section 4):
//! re-map a segment that already exists on the remote node after the local
//! node crashed and lost its pointers.
//!
//! This crate exposes those operations behind the [`RemoteMemory`] trait and
//! provides two interchangeable backends:
//!
//! * [`SimRemote`] — a simulated Dolphin PCI-SCI mapping (deterministic
//!   virtual-time latencies; used by every experiment that reproduces a
//!   paper figure);
//! * [`TcpRemote`] / [`server`] — a real client/server deployment over TCP,
//!   for running the mirror on a genuinely separate process or machine.
//!
//! It also implements the paper's `sci_memcpy` optimisation
//! ([`plan_transfer`], [`mirror_copy`]): copies of 32 bytes or more are
//! widened to whole 64-byte-aligned chunks so the card emits full 64-byte
//! packets, and 17–32-byte copies are widened only when the range does not
//! already touch the eagerly-flushed last word of a buffer.
//!
//! # Examples
//!
//! ```
//! use perseas_rnram::{RemoteMemory, SimRemote};
//!
//! # fn main() -> Result<(), perseas_rnram::RnError> {
//! let mut remote = SimRemote::new("mirror");
//! let seg = remote.remote_malloc(1024, 42)?;
//! remote.remote_write(seg.id, 0, b"mirrored bytes")?;
//!
//! // After a local crash, reconnect by tag and read the data back.
//! let seg2 = remote.connect_segment(42)?;
//! assert_eq!(seg2.id, seg.id);
//! let mut buf = [0u8; 14];
//! remote.remote_read(seg2.id, 0, &mut buf)?;
//! assert_eq!(&buf, b"mirrored bytes");
//! # Ok(())
//! # }
//! ```

mod backoff;
mod error;
mod memcpy;
mod metrics;
mod mux;
pub mod protocol;
mod retry;
pub mod server;
mod sim;
mod tcp;
mod traits;

pub use backoff::BackoffPolicy;
pub use error::RnError;
pub use memcpy::{mirror_copy, plan_transfer, TransferPlan, TransferStrategy};
pub use mux::SessionMux;
pub use retry::ReconnectingRemote;
pub use server::AdmissionConfig;
pub use sim::SimRemote;
pub use tcp::{PipelineConfig, TcpRemote};
pub use traits::{FlushStats, RemoteMemory, RemoteSegment};

pub use perseas_sci::SegmentId;
