//! # hmc-packet
//!
//! The HMC 1.1 transaction layer: packets, flits, payload sizes and the
//! identity newtypes (ports, links, tags, addresses) shared by every crate
//! in the `hmc-noc-sim` workspace.
//!
//! The packet protocol is what distinguishes the HMC from JEDEC bus
//! memories (Section II-B of the reproduced paper): every transaction is a
//! packet of 16 B flits with one flit of header/tail overhead, and the
//! asymmetric request/response sizes of Table I shape all the bandwidth
//! results in the evaluation. Table I itself is encoded by
//! [`RequestKind::request_flits`] / [`RequestKind::response_flits`] and
//! locked down by unit tests.
//!
//! ```
//! use hmc_packet::{PayloadSize, RequestKind};
//!
//! // A 128 B read: 1-flit request, 9-flit response (Table I).
//! let read = RequestKind::Read { size: PayloadSize::B128 };
//! assert_eq!(read.request_flits(), 1);
//! assert_eq!(read.response_flits(), 9);
//! assert_eq!(read.round_trip_bytes(), 160);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod flit;
mod packet;
mod size;

pub use address::{Address, AddressOverflow, CubeId, GlobalAddress, LinkId, PortId, Tag};
pub use flit::{flits_to_bytes, FLIT_BYTES, OVERHEAD_FLITS};
pub use packet::{
    LinkSeq, RequestKind, RequestPacket, ResponsePacket, CRC_BITS, RETRY_POINTER_BITS, SEQ_BITS,
};
pub use size::{InvalidPayloadSize, PayloadSize};
