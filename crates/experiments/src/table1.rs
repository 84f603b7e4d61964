//! Table I: request/response sizes in flits. Regenerated directly from
//! the packet layer (no simulation), as a consistency check between the
//! implementation and the specification.

use hmc_sim::prelude::*;

/// Renders Table I from the packet-layer encoding.
pub(crate) fn render() -> Table {
    let mut t = Table::new(["type", "read", "write"]);
    let sizes: Vec<PayloadSize> = (1..=8)
        .map(|n| PayloadSize::new(n * 16).expect("legal size"))
        .collect();
    let span = |vals: Vec<u32>| {
        let lo = *vals.iter().min().expect("nonempty");
        let hi = *vals.iter().max().expect("nonempty");
        if lo == hi {
            format!("{lo} flit{}", if lo == 1 { "" } else { "s" })
        } else {
            format!("{lo}~{hi} flits")
        }
    };
    t.row([
        "request".to_owned(),
        span(
            sizes
                .iter()
                .map(|&s| RequestKind::Read { size: s }.request_flits())
                .collect(),
        ),
        span(
            sizes
                .iter()
                .map(|&s| RequestKind::Write { size: s }.request_flits())
                .collect(),
        ),
    ]);
    t.row([
        "response".to_owned(),
        span(
            sizes
                .iter()
                .map(|&s| RequestKind::Read { size: s }.response_flits())
                .collect(),
        ),
        span(
            sizes
                .iter()
                .map(|&s| RequestKind::Write { size: s }.response_flits())
                .collect(),
        ),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regenerates_table_1() {
        let csv = render().to_csv();
        assert!(csv.contains("request,1 flit,2~9 flits"));
        assert!(csv.contains("response,2~9 flits,1 flit"));
    }
}
