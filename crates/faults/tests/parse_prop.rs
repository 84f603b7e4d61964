//! Property test: `FaultPlan::parse` is panic-free. Any text assembled
//! from the grammar's fields, filled with arbitrary numbers and glued by
//! arbitrary separators, yields a plan or a one-line error.

use hmc_faults::FaultPlan;
use proptest::prelude::*;

/// Field prefixes of the fault-spec grammar, in `FaultPlan::parse` order.
const FIELDS: [&str; 9] = [
    "all", "half", "link=", "host=", "ber=", "burst=", "down=", "dead=", "degrade=",
];

/// What joins one field to the next: field and clause separators, and
/// none at all (two fields run together into one malformed field).
const SEPARATORS: [&str; 6] = [" ", "; ", ";", "\t", "  ", ""];

/// Time suffixes for `down=` ends, including a missing one.
const UNITS: [&str; 3] = ["ns", "us", ""];

/// Renders one field. `shift` spreads the numbers over every magnitude,
/// from the small values the grammar accepts to full-width `u64`s.
fn field(kind: u8, a: u64, b: u64, shift: u32, pick: u8) -> String {
    let (a, b) = (a >> shift, b >> (63 - shift));
    let prefix = FIELDS[usize::from(kind)];
    let unit = |n: u8| UNITS[usize::from(n) % UNITS.len()];
    let sep = SEPARATORS[usize::from(pick) % SEPARATORS.len()];
    let body = match prefix {
        "all" | "half" => String::new(),
        "link=" => format!("{a}>{b}"),
        "down=" => format!("{a}{}..{b}{}", unit(pick), unit(pick / 3)),
        "dead=" => format!("{a}-{b}"),
        _ => a.to_string(),
    };
    format!("{prefix}{body}{sep}")
}

proptest! {
    #[test]
    fn parse_never_panics_and_errors_are_one_line(
        seed in any::<u64>(),
        fields in prop::collection::vec(
            (0u8..9, any::<u64>(), any::<u64>(), 0u32..64, 0u8..18),
            0..12,
        ),
    ) {
        let spec: String = fields
            .into_iter()
            .map(|(kind, a, b, shift, pick)| field(kind, a, b, shift, pick))
            .collect();
        if let Err(e) = FaultPlan::parse(seed, &spec) {
            prop_assert!(!e.is_empty() && !e.contains('\n'), "{spec:?} -> {e:?}");
        }
    }
}
