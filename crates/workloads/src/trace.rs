//! Memory traces: what the multi-port stream firmware replays.

use hmc_packet::{GlobalAddress, PayloadSize, RequestKind};

/// One operation in a memory trace.
///
/// The multi-port stream implementation "generates requests from memory
/// trace files" (Section III); a trace is an ordered list of these.
///
/// The address is *fabric-global* ([`GlobalAddress`]): every bit the
/// workload produced survives until the port's cube-targeting logic
/// splits it into a CUB field and an in-cube address, so addresses beyond
/// one cube's 34-bit range reach the checked fabric boundary intact
/// instead of silently wrapping here.
///
/// # Examples
///
/// ```
/// use hmc_packet::PayloadSize;
/// use hmc_workloads::TraceOp;
///
/// let op = TraceOp::read(0x1f80u64, PayloadSize::B64);
/// assert!(op.kind.is_read());
/// assert_eq!(op.addr.raw(), 0x1f80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// Target address (fabric-global; split into cube + in-cube address
    /// at the host port).
    pub addr: GlobalAddress,
    /// Operation and size.
    pub kind: RequestKind,
}

impl TraceOp {
    /// A read of `size` bytes at `addr`.
    pub fn read(addr: impl Into<GlobalAddress>, size: PayloadSize) -> TraceOp {
        TraceOp {
            addr: addr.into(),
            kind: RequestKind::Read { size },
        }
    }

    /// A write of `size` bytes at `addr`.
    pub(crate) fn write(addr: impl Into<GlobalAddress>, size: PayloadSize) -> TraceOp {
        TraceOp {
            addr: addr.into(),
            kind: RequestKind::Write { size },
        }
    }
}

/// An ordered memory trace.
///
/// # Examples
///
/// ```
/// use hmc_packet::PayloadSize;
/// use hmc_workloads::{Trace, TraceOp};
///
/// let trace: Trace = (0..2u64)
///     .map(|i| TraceOp::read(i * 128, PayloadSize::B128))
///     .collect();
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Wraps a list of operations.
    pub fn from_ops(ops: Vec<TraceOp>) -> Trace {
        Trace { ops }
    }

    /// The operations, in issue order.
    pub(crate) fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// `true` if the trace has no operations.
    ///
    /// Kept public beside `len`, as clippy's `len_without_is_empty` asks.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl FromIterator<TraceOp> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Trace {
        Trace {
            ops: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_packet::Address;

    #[test]
    fn collect_from_iterator() {
        let trace: Trace = (0..4)
            .map(|i| TraceOp::read(Address::new(i * 128), PayloadSize::B128))
            .collect();
        assert_eq!(trace.len(), 4);
    }
}
