//! Behavioural model of the Dolphin PCI-SCI cluster adapter used by the
//! PERSEAS paper (Section 4).
//!
//! The physical card divides memory into 64-byte chunks aligned on 64-byte
//! boundaries; each chunk maps to one of eight internal 64-byte write
//! buffers (bits 0–5 of a word's physical address are the offset within a
//! buffer, bits 6–8 select the buffer). Stores to contiguous addresses are
//! *gathered* in the buffers, full buffers are flushed as single 64-byte SCI
//! packets, and partially filled buffers are transmitted as a set of 16-byte
//! packets. Distinct buffers transmit independently (*buffer streaming*), so
//! the per-packet overhead of a long store burst is largely overlapped.
//!
//! This crate models exactly that behaviour on a virtual clock:
//!
//! * [`BufferAddr`] — the address→(buffer, offset) mapping of Figure 4;
//! * [`packetize`] — the store-gathering/packetisation rule, yielding the
//!   SCI packets a write burst generates;
//! * [`Burst`] / [`prefix_bytes`] — the same packets counted from a
//!   burst's two ends in O(1), which is what the link charges;
//! * [`SciParams`] / [`remote_write_latency`] — the calibrated latency model
//!   that reproduces Figure 5;
//! * [`NodeMemory`] — a remote node's exported memory ("network RAM"),
//!   which survives crashes of the *local* node;
//! * [`SciLink`] — a unidirectional mapping from a local process onto a
//!   remote node's memory, with packet-granularity fault injection;
//! * [`image::zeroed`] — the zero-filled, huge-page-advised memory every
//!   database image of the system is allocated in.
//!
//! # Examples
//!
//! ```
//! use perseas_simtime::SimClock;
//! use perseas_sci::{NodeMemory, SciLink, SciParams};
//!
//! # fn main() -> Result<(), perseas_sci::SciError> {
//! let clock = SimClock::new();
//! let remote = NodeMemory::new("mirror");
//! let link = SciLink::new(clock.clone(), remote.clone(), SciParams::dolphin_1998());
//!
//! let seg = remote.export_segment(128, 0)?;
//! link.remote_write(seg, 0, b"hello network RAM")?;
//!
//! let mut buf = [0u8; 17];
//! remote.read(seg, 0, &mut buf)?;
//! assert_eq!(&buf, b"hello network RAM");
//! assert!(clock.now().as_nanos() > 0); // the write cost virtual time
//! # Ok(())
//! # }
//! ```

mod addr;
pub mod crc32;
mod error;
pub mod image;
mod latency;
mod link;
mod node;
mod packet;

pub use addr::{BufferAddr, BUFFER_COUNT, BUFFER_SIZE, LINE_SIZE, WORD_SIZE};
pub use error::SciError;
pub use latency::{remote_read_latency, remote_write_latency, remote_write_v_latency, SciParams};
pub use link::{LinkStats, SciLink};
pub use node::{NodeMemory, SegmentId, SegmentInfo};
pub use packet::{packetize, prefix_bytes, Burst, Packet, PacketKind};
