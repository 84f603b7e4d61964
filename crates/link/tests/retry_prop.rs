//! Property tests for the link-retry protocol: under any fault spec the
//! delivered stream equals the error-free oracle's stream — no loss, no
//! duplication, no reorder — failures only push delivery times later,
//! and the retry counters account for every corrupted flit exactly.

use hmc_des::Time;
use hmc_faults::{LinkFaultSpec, LinkFaults, LinkKey};
use hmc_link::{LinkConfig, LinkTx, RetryTuning};
use proptest::prelude::*;

/// A token pool deep enough that flow control never interferes: the
/// properties under test are about the retry protocol, not credits.
fn deep_cfg() -> LinkConfig {
    LinkConfig {
        input_buffer_flits: 1 << 20,
        ..LinkConfig::ac510_default()
    }
}

fn armed(seed: u64, spec: LinkFaultSpec, degrade: Option<u64>) -> LinkTx<u32> {
    let cfg = deep_cfg();
    let mut tx: LinkTx<u32> = LinkTx::new(&cfg);
    let inj = LinkFaults::new(seed, LinkKey::edge(0, 1), spec);
    tx.set_faults(inj, RetryTuning::derive(&cfg).with_degrade_after(degrade));
    tx
}

/// Drains `mix` through `tx` in one service call (the eager wire
/// schedule serializes everything sendable) and returns the deliveries.
fn drain(tx: &mut LinkTx<u32>, mix: &[u32]) -> Vec<(Time, u32, u32)> {
    for (i, &flits) in mix.iter().enumerate() {
        tx.enqueue(i as u32, flits);
    }
    tx.service(Time::ZERO)
        .iter()
        .map(|d| (d.at, d.flits, d.payload))
        .collect()
}

proptest! {
    /// Any BER/burst/degrade mix: the faulty link delivers exactly the
    /// oracle's payload stream, never earlier, and the counters balance.
    #[test]
    fn delivered_stream_equals_the_error_free_oracle(
        seed in any::<u64>(),
        ber_milli in 0u64..400,
        burst in 0u32..4,
        degrade_raw in 0u64..16,
        mix in prop::collection::vec(1u32..10, 1..120),
    ) {
        // The shim draws integers; derive the float/Option knobs here.
        let ber = ber_milli as f64 / 1000.0;
        let degrade = (degrade_raw > 0).then_some(degrade_raw);
        let spec = LinkFaultSpec { burst, ..LinkFaultSpec::ber(ber) };
        let mut oracle: LinkTx<u32> = LinkTx::new(&deep_cfg());
        let mut faulty = armed(seed, spec, degrade);
        let clean = drain(&mut oracle, &mix);
        let noisy = drain(&mut faulty, &mix);

        // No loss, duplication or reorder: payloads and lengths match
        // the oracle's stream one for one.
        prop_assert_eq!(clean.len(), noisy.len());
        for (c, n) in clean.iter().zip(noisy.iter()) {
            prop_assert_eq!((c.1, c.2), (n.1, n.2), "stream diverged");
            prop_assert!(n.0 >= c.0, "a failure must never deliver early");
        }

        let s = faulty.stats();
        prop_assert_eq!(s.packets_sent, mix.len() as u64);
        prop_assert_eq!(s.retries, s.crc_errors + s.down_drops);
        prop_assert_eq!(s.down_drops, 0, "no down windows in this spec");
        if ber_milli == 0 {
            prop_assert_eq!(s.retries, 0);
        }
    }

    /// Exact accounting: an independent replay of the injector — one
    /// `corrupt_packet` draw per attempt until it clears, exactly as the
    /// transmitter loops — predicts `crc_errors` and
    /// `retransmitted_flits` to the flit.
    #[test]
    fn retransmitted_flits_match_an_independent_injector_replay(
        seed in any::<u64>(),
        ber_milli in 0u64..400,
        burst in 0u32..4,
        mix in prop::collection::vec(1u32..10, 1..120),
    ) {
        let spec = LinkFaultSpec {
            burst,
            ..LinkFaultSpec::ber(ber_milli as f64 / 1000.0)
        };
        let mut faulty = armed(seed, spec.clone(), None);
        drain(&mut faulty, &mix);

        let mut replay = LinkFaults::new(seed, LinkKey::edge(0, 1), spec);
        let (mut crc, mut retx) = (0u64, 0u64);
        for &flits in &mix {
            while replay.corrupt_packet(flits) {
                crc += 1;
                retx += u64::from(flits);
            }
        }
        let s = faulty.stats();
        prop_assert_eq!(s.crc_errors, crc);
        prop_assert_eq!(s.retransmitted_flits, retx);
        prop_assert_eq!(replay.flit_seq(), faulty.stats().flits_sent + retx,
            "every wire flit consumed exactly one draw");
    }

    /// Down windows stall the wire but still lose nothing, and every
    /// cut transmission is retried after the window closes.
    #[test]
    fn down_windows_stall_but_never_lose(
        seed in any::<u64>(),
        ber_milli in 0u64..100,
        open_ns in 0u64..2_000,
        len_ns in 1u64..5_000,
        mix in prop::collection::vec(1u32..10, 1..80),
    ) {
        let open = Time::from_ns(open_ns);
        let spec = LinkFaultSpec {
            down: vec![(open, open + hmc_des::Delay::from_ns(len_ns))],
            ..LinkFaultSpec::ber(ber_milli as f64 / 1000.0)
        };
        let mut oracle: LinkTx<u32> = LinkTx::new(&deep_cfg());
        let mut faulty = armed(seed, spec, None);
        let clean = drain(&mut oracle, &mix);
        let noisy = drain(&mut faulty, &mix);
        prop_assert_eq!(clean.len(), noisy.len());
        for (c, n) in clean.iter().zip(noisy.iter()) {
            prop_assert_eq!((c.1, c.2), (n.1, n.2));
            prop_assert!(n.0 >= c.0);
        }
        let s = faulty.stats();
        prop_assert_eq!(s.retries, s.crc_errors + s.down_drops);
        prop_assert_eq!(s.packets_sent, mix.len() as u64);
    }
}
