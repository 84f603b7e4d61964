//! Transaction-layer packets and their flit-level sizes (Table I).

use core::fmt;

use crate::address::{Address, CubeId, PortId, Tag};
use crate::flit::{flits_to_bytes, OVERHEAD_FLITS};
use crate::size::PayloadSize;

/// The operation a request packet asks the cube to perform.
///
/// The GUPS firmware can also issue read-modify-write requests
/// (Section III-B), but the paper measures reads and writes only, and so
/// does this model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Read `size` bytes. The request carries no data payload.
    Read {
        /// Bytes of data the response must return.
        size: PayloadSize,
    },
    /// Write `size` bytes. The request carries the data payload.
    Write {
        /// Bytes of data carried by the request.
        size: PayloadSize,
    },
}

impl RequestKind {
    /// The data payload this request's *response* will carry.
    #[inline]
    pub(crate) fn response_data(self) -> Option<PayloadSize> {
        match self {
            RequestKind::Read { size } => Some(size),
            RequestKind::Write { .. } => None,
        }
    }

    /// The data payload size named by the request (read length or write
    /// length), used for DRAM burst accounting.
    #[inline]
    pub fn access_size(self) -> PayloadSize {
        match self {
            RequestKind::Read { size } | RequestKind::Write { size } => size,
        }
    }

    /// `true` for reads (the paper's default traffic).
    #[inline]
    pub fn is_read(self) -> bool {
        matches!(self, RequestKind::Read { .. })
    }

    /// Flits in the request packet, per Table I.
    ///
    /// | Type  | Request          |
    /// |-------|------------------|
    /// | Read  | 1 flit           |
    /// | Write | 2–9 flits        |
    #[inline]
    pub fn request_flits(self) -> u32 {
        match self {
            RequestKind::Read { .. } => OVERHEAD_FLITS,
            RequestKind::Write { size } => OVERHEAD_FLITS + size.data_flits(),
        }
    }

    /// Flits in the matching response packet, per Table I.
    ///
    /// | Type  | Response         |
    /// |-------|------------------|
    /// | Read  | 2–9 flits        |
    /// | Write | 1 flit           |
    #[inline]
    pub fn response_flits(self) -> u32 {
        match self.response_data() {
            Some(size) => OVERHEAD_FLITS + size.data_flits(),
            None => OVERHEAD_FLITS,
        }
    }

    /// Bytes on the request link for this transaction (header + tail +
    /// request payload).
    #[inline]
    pub fn request_bytes(self) -> u64 {
        flits_to_bytes(self.request_flits())
    }

    /// Bytes on the response link for this transaction.
    #[inline]
    pub fn response_bytes(self) -> u64 {
        flits_to_bytes(self.response_flits())
    }

    /// Total bytes moved in both directions by one transaction — the
    /// quantity the paper's bandwidth formula accumulates (Section III-B:
    /// "cumulative size of request and response packets including header,
    /// tail and data payload").
    #[inline]
    pub fn round_trip_bytes(self) -> u64 {
        self.request_bytes() + self.response_bytes()
    }
}

impl fmt::Display for RequestKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestKind::Read { size } => write!(f, "RD{}", size.bytes()),
            RequestKind::Write { size } => write!(f, "WR{}", size.bytes()),
        }
    }
}

/// A request packet travelling from host to cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestPacket {
    /// The port that issued the request (returned in the response SLID).
    pub port: PortId,
    /// The port-local tag identifying this outstanding transaction.
    pub tag: Tag,
    /// The destination cube — the header's CUB field (widened to 6 bits
    /// here; see `DESIGN_CUB64.md`), stamped by the host when the global
    /// address is split. [`CubeId::HOST`] on a single-cube system.
    pub cube: CubeId,
    /// The 34-bit in-cube target address.
    pub addr: Address,
    /// The requested operation.
    pub kind: RequestKind,
}

impl RequestPacket {
    /// Flits occupied on the request link.
    #[inline]
    pub fn flits(&self) -> u32 {
        self.kind.request_flits()
    }
}

impl fmt::Display for RequestPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {} @{}", self.port, self.tag, self.kind, self.addr)
    }
}

/// A response packet travelling from cube to host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponsePacket {
    /// The port the matching request came from.
    pub port: PortId,
    /// The tag of the matching request.
    pub tag: Tag,
    /// The operation the response completes.
    pub kind: RequestKind,
}

impl ResponsePacket {
    /// Builds the response matching `req`.
    pub fn for_request(req: &RequestPacket) -> ResponsePacket {
        ResponsePacket {
            port: req.port,
            tag: req.tag,
            kind: req.kind,
        }
    }

    /// Flits occupied on the response link.
    #[inline]
    pub fn flits(&self) -> u32 {
        self.kind.response_flits()
    }
}

impl fmt::Display for ResponsePacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "resp {} {} {}", self.port, self.tag, self.kind)
    }
}

/// Bits of the per-packet CRC carried in every tail (HMC 2.1). The
/// simulator never computes the checksum — fault injection decides which
/// transmissions fail it — but the field width anchors the link-retry
/// protocol the transmit model implements.
pub const CRC_BITS: u32 = 32;

/// Bits of the tail's link sequence number (SEQ); see [`LinkSeq`].
pub const SEQ_BITS: u32 = 3;

/// Bits of the forward/return retry pointers (FRP/RRP) that index the
/// transmitter's retry buffer.
pub const RETRY_POINTER_BITS: u32 = 8;

/// The link-layer sequence number stamped on every transmitted packet.
///
/// SEQ is a [`SEQ_BITS`]-bit wrapping counter per link direction; the
/// receiver uses it to detect the gap a CRC-dropped packet leaves and to
/// discard duplicates during retransmission, which is what makes the
/// retry protocol loss-, duplication- and reorder-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct LinkSeq(pub u8);

impl LinkSeq {
    /// SEQ wraps modulo this.
    pub const MODULUS: u8 = 1 << SEQ_BITS;

    /// The sequence number following `self`.
    #[inline]
    #[must_use]
    pub fn next(self) -> LinkSeq {
        LinkSeq((self.0 + 1) % LinkSeq::MODULUS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I, all four cells, for every legal payload size.
    #[test]
    fn table_1_flit_counts() {
        for bytes in (16..=128).step_by(16) {
            let size = PayloadSize::new(bytes).unwrap();
            let read = RequestKind::Read { size };
            let write = RequestKind::Write { size };
            // Read request: empty data, 1 flit total.
            assert_eq!(read.request_flits(), 1);
            // Read response: 1..=8 data flits plus overhead → 2..=9.
            assert_eq!(read.response_flits(), 1 + bytes / 16);
            assert!((2..=9).contains(&read.response_flits()));
            // Write request: 2..=9 flits.
            assert_eq!(write.request_flits(), 1 + bytes / 16);
            assert!((2..=9).contains(&write.request_flits()));
            // Write response: 1 flit.
            assert_eq!(write.response_flits(), 1);
        }
    }

    #[test]
    fn round_trip_bytes_match_paper_formula() {
        // A 128 B read moves 16 B of request and 144 B of response.
        let rd128 = RequestKind::Read {
            size: PayloadSize::B128,
        };
        assert_eq!(rd128.request_bytes(), 16);
        assert_eq!(rd128.response_bytes(), 144);
        assert_eq!(rd128.round_trip_bytes(), 160);
        // A 16 B read moves 16 B + 32 B = 48 B.
        let rd16 = RequestKind::Read {
            size: PayloadSize::B16,
        };
        assert_eq!(rd16.round_trip_bytes(), 48);
        // A 64 B write moves 80 B + 16 B = 96 B.
        let wr64 = RequestKind::Write {
            size: PayloadSize::B64,
        };
        assert_eq!(wr64.round_trip_bytes(), 96);
    }

    #[test]
    fn response_mirrors_request_identity() {
        let req = RequestPacket {
            port: PortId(4),
            tag: Tag(17),
            cube: CubeId::HOST,
            addr: Address::new(0x1000),
            kind: RequestKind::Read {
                size: PayloadSize::B32,
            },
        };
        let resp = ResponsePacket::for_request(&req);
        assert_eq!(resp.port, req.port);
        assert_eq!(resp.tag, req.tag);
        assert_eq!(resp.flits(), 3);
    }

    #[test]
    fn link_seq_wraps_modulo_eight() {
        let mut s = LinkSeq::default();
        for _ in 0..LinkSeq::MODULUS {
            let n = s.next();
            assert!(n.0 < LinkSeq::MODULUS);
            s = n;
        }
        assert_eq!(s, LinkSeq::default(), "full cycle returns to start");
        assert_eq!(LinkSeq::MODULUS, 8, "SEQ is a 3-bit field");
    }

    #[test]
    fn reads_identified_as_reads() {
        assert!(RequestKind::Read {
            size: PayloadSize::B16
        }
        .is_read());
        assert!(!RequestKind::Write {
            size: PayloadSize::B16
        }
        .is_read());
    }

    #[test]
    fn display_formats_are_nonempty() {
        let req = RequestPacket {
            port: PortId(0),
            tag: Tag(1),
            cube: CubeId::HOST,
            addr: Address::new(0),
            kind: RequestKind::Write {
                size: PayloadSize::B64,
            },
        };
        assert!(req.to_string().contains("WR64"));
        assert!(ResponsePacket::for_request(&req)
            .to_string()
            .contains("resp"));
    }
}
