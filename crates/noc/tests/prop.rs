//! Property tests for the NoC building blocks: conservation of packets,
//! credits and flits under arbitrary traffic.

use hmc_des::{Delay, Time};
use hmc_noc::{Credits, Departures, RoundRobinArbiter, SwitchConfig, SwitchCore, SwitchEntry};
use proptest::prelude::*;

proptest! {
    /// Credits are conserved: available + in_flight == max at all times,
    /// under any interleaving of takes and puts.
    #[test]
    fn credit_conservation(max in 0u32..1000, ops in prop::collection::vec((any::<bool>(), 1u32..16), 0..200)) {
        let mut c = Credits::new(max);
        let mut taken: u32 = 0;
        for (is_take, n) in ops {
            if is_take {
                if c.try_take(n) {
                    taken += n;
                }
            } else {
                let back = n.min(taken);
                if back > 0 {
                    c.put(back);
                    taken -= back;
                }
            }
            prop_assert_eq!(c.available() + taken, max);
            prop_assert_eq!(c.in_flight(), taken);
        }
    }

    /// Round-robin never starves a persistent requester: with all
    /// requesters ready, any window of `n` grants contains every index.
    #[test]
    fn round_robin_fairness(n in 1usize..32) {
        let mut arb = RoundRobinArbiter::new(n);
        let mut seen = vec![0u32; n];
        for _ in 0..n * 3 {
            let g = arb.grant(|_| true).expect("all ready");
            seen[g] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            prop_assert_eq!(count, 3, "requester {} granted {} times", i, count);
        }
    }

    /// The bitmask grant picks exactly the winner, pointer, grant count
    /// and conflict count of the closure grant, for every requester count
    /// up to the 64-bit mask width, over dense and sparse ready sets and
    /// the pointer states a random grant history leaves behind.
    #[test]
    fn grant_mask_matches_grant(
        draws in prop::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..48),
    ) {
        for n in 1..=64usize {
            let width = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
            let mut scan = RoundRobinArbiter::new(n);
            let mut mask = RoundRobinArbiter::new(n);
            for &(a, b, sparse) in &draws {
                let ready = if sparse { a & b & width } else { a & width };
                let want = scan.grant(|i| ready >> i & 1 == 1);
                prop_assert_eq!(mask.grant_mask(ready), want, "n={} ready={:#x}", n, ready);
                prop_assert_eq!(&mask, &scan);
            }
        }
    }

    /// Every packet pushed into a switch eventually departs exactly once,
    /// with its flit count intact, provided downstream credits are
    /// returned.
    #[test]
    fn switch_conserves_packets(
        packets in prop::collection::vec((0usize..4, 0usize..4, 1u32..10), 1..60),
    ) {
        let cfg = SwitchConfig {
            inputs: 4,
            outputs: 4,
            input_capacity_flits: 10_000,
            hop_latency: Delay::from_ns(1),
            flit_time: Delay::from_ps(500),
        };
        let mut sw: SwitchCore<usize> = SwitchCore::new(cfg, &[100_000; 4]);
        let mut expected_flits: u64 = 0;
        for (id, &(input, output, flits)) in packets.iter().enumerate() {
            sw.try_enqueue(input, SwitchEntry { output, flits, payload: id })
                .expect("capacity is generous");
            expected_flits += u64::from(flits);
        }
        let mut now = Time::ZERO;
        let mut seen = vec![false; packets.len()];
        let mut got_flits: u64 = 0;
        let mut deps = Departures::new();
        loop {
            sw.service_into(now, &mut deps);
            for d in deps.drain() {
                prop_assert!(!seen[d.payload], "packet departed twice");
                seen[d.payload] = true;
                prop_assert_eq!(d.flits, packets[d.payload].2);
                got_flits += u64::from(d.flits);
            }
            match sw.next_wake(now) {
                Some(t) => now = t,
                None => break,
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "all packets departed");
        prop_assert_eq!(got_flits, expected_flits);
    }

    /// Output serialization: departures through one output never overlap —
    /// consecutive exit times are separated by at least the serialization
    /// time of the later packet.
    #[test]
    fn output_departures_never_overlap(
        flit_counts in prop::collection::vec(1u32..10, 2..40),
    ) {
        let cfg = SwitchConfig {
            inputs: 1,
            outputs: 1,
            input_capacity_flits: 10_000,
            hop_latency: Delay::from_ns(1),
            flit_time: Delay::from_ps(800),
        };
        let mut sw: SwitchCore<u32> = SwitchCore::new(cfg, &[100_000]);
        for (i, &flits) in flit_counts.iter().enumerate() {
            sw.try_enqueue(0, SwitchEntry { output: 0, flits, payload: i as u32 })
                .unwrap();
        }
        let mut now = Time::ZERO;
        let mut exits: Vec<(Time, u32)> = Vec::new();
        let mut deps = Departures::new();
        loop {
            sw.service_into(now, &mut deps);
            for d in deps.drain() {
                exits.push((d.at, d.flits));
            }
            match sw.next_wake(now) {
                Some(t) => now = t,
                None => break,
            }
        }
        prop_assert_eq!(exits.len(), flit_counts.len());
        for pair in exits.windows(2) {
            let (prev_at, _) = pair[0];
            let (next_at, next_flits) = pair[1];
            let min_gap = Delay::from_ps(800) * next_flits;
            prop_assert!(next_at >= prev_at + min_gap,
                "packets overlapped on the output wire");
        }
    }
}
