//! Memory traces: the input format of the multi-port stream firmware.

use core::fmt;
use std::str::FromStr;

use hmc_packet::{GlobalAddress, PayloadSize, RequestKind};

/// One operation in a memory trace file.
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
/// use hmc_workloads::TraceOp;
///
/// let op: TraceOp = "R 0x1f80 64".parse()?;
/// assert!(op.kind.is_read());
/// assert_eq!(op.to_string(), "R 0x1f80 64");
/// # Ok::<(), hmc_workloads::ParseTraceError>(())
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

impl fmt::Display for TraceOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            RequestKind::Read { size } => {
                write!(f, "R {:#x} {}", self.addr.raw(), size.bytes())
            }
            RequestKind::Write { size } => {
                write!(f, "W {:#x} {}", self.addr.raw(), size.bytes())
            }
            RequestKind::ReadModifyWrite => write!(f, "A {:#x} 16", self.addr.raw()),
        }
    }
}

/// Error from parsing a trace line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    msg: String,
}

impl ParseTraceError {
    fn new(msg: impl Into<String>) -> ParseTraceError {
        ParseTraceError { msg: msg.into() }
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid trace line: {}", self.msg)
    }
}

impl std::error::Error for ParseTraceError {}

impl FromStr for TraceOp {
    type Err = ParseTraceError;

    /// Parses `"<R|W|A> <addr> <size>"`, address in decimal or `0x` hex.
    fn from_str(s: &str) -> Result<TraceOp, ParseTraceError> {
        let mut parts = s.split_whitespace();
        let op = parts
            .next()
            .ok_or_else(|| ParseTraceError::new("empty line"))?;
        let addr_s = parts
            .next()
            .ok_or_else(|| ParseTraceError::new("missing address"))?;
        let size_s = parts
            .next()
            .ok_or_else(|| ParseTraceError::new("missing size"))?;
        if parts.next().is_some() {
            return Err(ParseTraceError::new("trailing tokens"));
        }
        let raw = if let Some(hex) = addr_s
            .strip_prefix("0x")
            .or_else(|| addr_s.strip_prefix("0X"))
        {
            u64::from_str_radix(hex, 16)
        } else {
            addr_s.parse()
        }
        .map_err(|e| ParseTraceError::new(format!("bad address {addr_s:?}: {e}")))?;
        let bytes: u32 = size_s
            .parse()
            .map_err(|e| ParseTraceError::new(format!("bad size: {e}")))?;
        let size = PayloadSize::new(bytes).map_err(|e| ParseTraceError::new(e.to_string()))?;
        // Deliberately unmasked: a trace address beyond one cube's 34-bit
        // range must reach the fabric boundary intact so the checked
        // split can reject it instead of aliasing it into cube 0.
        let addr = GlobalAddress::new(raw);
        match op {
            "R" | "r" => Ok(TraceOp::read(addr, size)),
            "W" | "w" => Ok(TraceOp::write(addr, size)),
            "A" | "a" => {
                if bytes != 16 {
                    return Err(ParseTraceError::new("atomics are 16 B"));
                }
                Ok(TraceOp {
                    addr,
                    kind: RequestKind::ReadModifyWrite,
                })
            }
            other => Err(ParseTraceError::new(format!("unknown op {other:?}"))),
        }
    }
}

/// An ordered memory trace with text serialization (one op per line, `#`
/// comments and blank lines ignored).
///
/// # Examples
///
/// ```
/// use hmc_workloads::Trace;
///
/// let text = "# two reads\nR 0x0 128\nR 0x80 128\n";
/// let trace = Trace::parse(text)?;
/// assert_eq!(trace.len(), 2);
/// assert!(Trace::parse(&trace.to_text())? == trace);
/// # Ok::<(), hmc_workloads::ParseTraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    ops: Vec<TraceOp>,
}

impl Trace {
    /// Wraps a list of operations.
    pub fn from_ops(ops: Vec<TraceOp>) -> Trace {
        Trace { ops }
    }

    /// Parses the text format.
    ///
    /// # Errors
    ///
    /// Returns the first line that fails to parse, with its line number.
    pub fn parse(text: &str) -> Result<Trace, ParseTraceError> {
        let mut ops = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let op: TraceOp = line.parse().map_err(|e: ParseTraceError| {
                ParseTraceError::new(format!("line {}: {}", i + 1, e.msg))
            })?;
            ops.push(op);
        }
        Ok(Trace { ops })
    }

    /// Renders the text format.
    ///
    /// Kept public as the round-trip oracle of `tests/parse_prop.rs`.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for op in &self.ops {
            out.push_str(&op.to_string());
            out.push('\n');
        }
        out
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

impl Extend<TraceOp> for Trace {
    fn extend<I: IntoIterator<Item = TraceOp>>(&mut self, iter: I) {
        self.ops.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_packet::Address;

    #[test]
    fn parse_and_render_roundtrip() {
        let text = "R 0x80 128\nW 0x100 32\nA 0x40 16\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.to_text(), text);
        assert_eq!(Trace::parse(&trace.to_text()).unwrap(), trace);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n  \nR 0 16\n";
        let trace = Trace::parse(text).unwrap();
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn decimal_addresses_accepted() {
        let op: TraceOp = "R 4096 64".parse().unwrap();
        assert_eq!(op.addr.raw(), 4096);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = Trace::parse("R 0x0 128\nX 0x0 128\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            r#"invalid trace line: line 2: unknown op "X""#
        );
    }

    #[test]
    fn bad_sizes_rejected() {
        assert!("R 0x0 20".parse::<TraceOp>().is_err());
        assert!("A 0x0 32".parse::<TraceOp>().is_err());
        assert!("R 0x0".parse::<TraceOp>().is_err());
        assert!("R 0x0 16 junk".parse::<TraceOp>().is_err());
    }

    #[test]
    fn collect_from_iterator() {
        let trace: Trace = (0..4)
            .map(|i| TraceOp::read(Address::new(i * 128), PayloadSize::B128))
            .collect();
        assert_eq!(trace.len(), 4);
        let mut t2 = Trace::default();
        t2.extend(trace.ops().iter().copied());
        assert_eq!(t2, trace);
    }
}
