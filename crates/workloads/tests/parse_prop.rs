//! Property test: `Trace::parse` is panic-free. Any text assembled from
//! op letters, addresses, sizes and extra tokens, valid or not, glued by
//! arbitrary separators, yields a trace or a one-line error; every trace
//! it yields survives a round trip through `to_text`.

use hmc_workloads::Trace;
use proptest::prelude::*;

/// Op tokens: the six the grammar accepts first, then unknown ones, an
/// empty one (the address becomes the op) and a comment marker.
const OPS: [&str; 10] = ["R", "r", "W", "w", "A", "a", "X", "RW", "", "#"];
const VALID_OPS: usize = 6;

/// Sizes: the eight payload sizes first, then out-of-range, misaligned,
/// overflowing and non-numeric ones.
const SIZES: [&str; 16] = [
    "16",
    "32",
    "48",
    "64",
    "80",
    "96",
    "112",
    "128",
    "0",
    "17",
    "144",
    "256",
    "4294967296",
    "-16",
    "abc",
    "",
];
const VALID_SIZES: usize = 8;

/// Address forms: decimal, `0x` and `0X` hex, then malformed ones (bare
/// prefix, bad digits, sign, fraction, `u64` overflow in both radixes,
/// digit separator, nothing at all).
const BAD_ADDRS: [&str; 8] = [
    "0x",
    "0xg1",
    "-5",
    "1.5",
    "18446744073709551616",
    "0x10000000000000000",
    "0x1_0",
    "",
];
const VALID_ADDRS: usize = 3;

/// What separates tokens (the last, empty one runs two tokens together),
/// what may trail a line, and what ends it.
const TOKEN_SEPS: [&str; 5] = [" ", "\t", "  ", " \t ", ""];
const VALID_SEPS: usize = 4;
const EXTRAS: [&str; 3] = ["", "7", "# trailing"];
const LINE_ENDS: [&str; 4] = ["\n", "\r\n", "\n\n", "\n  \n"];

/// The part of a line drawn from all of its choices, valid or not; every
/// other part is drawn from its valid choices only.
#[derive(Clone, Copy, PartialEq)]
enum Fault {
    None,
    Op,
    Addr,
    Size,
    Tail,
    All,
}

impl Fault {
    fn from_u8(k: u8) -> Fault {
        match k % 10 {
            0..=4 => Fault::None,
            5 => Fault::Op,
            6 => Fault::Addr,
            7 => Fault::Size,
            8 => Fault::Tail,
            _ => Fault::All,
        }
    }

    /// Whether `part` may take an invalid choice.
    fn hits(self, part: Fault) -> bool {
        self == part || self == Fault::All
    }
}

/// Renders one line and the op count it must parse to: `Some(1)` for a
/// well-formed op, `Some(0)` for a comment, `None` when it may be
/// malformed.
fn line(fault: Fault, picks: (u8, u8, u8, u8), a: u64, seps: u16) -> (String, Option<usize>) {
    let (op, addr, size, extra) = picks;
    let pick = |k: u8, part: Fault, valid: usize, all: usize| {
        usize::from(k) % if fault.hits(part) { all } else { valid }
    };
    let op = OPS[pick(op, Fault::Op, VALID_OPS, OPS.len())];
    let addr = match pick(
        addr,
        Fault::Addr,
        VALID_ADDRS,
        VALID_ADDRS + BAD_ADDRS.len(),
    ) {
        0 => a.to_string(),
        1 => format!("{a:#x}"),
        2 => format!("0X{a:X}"),
        k => BAD_ADDRS[k - VALID_ADDRS].to_owned(),
    };
    // Atomics carry exactly 16 B unless the size is a faulty part.
    let size = if op.eq_ignore_ascii_case("a") && !fault.hits(Fault::Size) {
        0
    } else {
        pick(size, Fault::Size, VALID_SIZES, SIZES.len())
    };
    let extra = EXTRAS[pick(extra, Fault::Tail, 1, EXTRAS.len())];
    let sep = |i: u16| {
        let k = (seps >> (3 * i)) as u8 & 7;
        TOKEN_SEPS[pick(k, Fault::Tail, VALID_SEPS, TOKEN_SEPS.len())]
    };
    let text = format!(
        "{}{op}{}{addr}{}{}{}{extra}{}",
        sep(0),
        sep(1),
        sep(2),
        SIZES[size],
        if extra.is_empty() { "" } else { sep(3) },
        LINE_ENDS[usize::from(seps >> 12) % LINE_ENDS.len()],
    );
    let expect = match (op, fault) {
        ("#", _) => Some(0),
        (_, Fault::None) => Some(1),
        _ => None,
    };
    (text, expect)
}

/// Parses `text`, expecting `expected` ops when that is known: an `Ok`
/// trace must render back to itself, an error must be one line.
fn check(text: &str, expected: Option<usize>) {
    match Trace::parse(text) {
        Ok(trace) => {
            if let Some(n) = expected {
                prop_assert_eq!(trace.len(), n, "{text:?}");
            }
            prop_assert_eq!(Trace::parse(&trace.to_text()), Ok(trace), "{text:?}");
        }
        Err(e) => {
            let msg = e.to_string();
            prop_assert!(expected.is_none(), "{text:?} -> {msg:?}");
            prop_assert!(
                !msg.is_empty() && !msg.contains(['\n', '\r']),
                "{text:?} -> {msg:?}"
            );
        }
    }
}

proptest! {
    #[test]
    fn parse_never_panics_and_round_trips(
        lines in prop::collection::vec(
            (0u8..10, (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()), any::<u64>(), 0u32..64, any::<u16>()),
            0..12,
        ),
    ) {
        // Half the lines are well formed, so the `Ok` side is exercised
        // as often as the error side; each line is also parsed alone, so
        // faults behind the first one in a trace are reached too.
        let mut text = String::new();
        let mut expected = Some(0);
        for (fault, picks, a, shift, seps) in lines {
            let (l, n) = line(Fault::from_u8(fault), picks, a >> shift, seps);
            check(&l, n);
            text.push_str(&l);
            expected = expected.zip(n).map(|(a, b)| a + b);
        }
        check(&text, expected);
    }
}
