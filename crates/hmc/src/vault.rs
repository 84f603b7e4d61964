//! One vault controller: ingress buffer, per-bank command queues, bank
//! service engines.

use hmc_des::Time;
use hmc_dram::{DramTiming, VaultMemory};
use hmc_noc::{BoundedQueue, FlitQueue};
use hmc_packet::RequestKind;

use crate::config::VaultTuning;
use crate::transaction::DeviceRequest;

/// Service state of one bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BankEngine {
    /// No request in service.
    Idle,
    /// A request is being serviced; completes at the recorded time.
    InService(DeviceRequest),
    /// Service finished; the response waits for egress space.
    Completed(DeviceRequest),
}

/// Counters for one vault controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VaultStats {
    /// Requests fully serviced (response handed to the NoC).
    pub serviced: u64,
    /// Peak simultaneous resident requests (ingress + queues + in
    /// service + blocked responses).
    pub peak_outstanding: usize,
}

/// The logic-layer controller of one vault.
///
/// Requests arrive through a flit-accounted ingress buffer, distribute into
/// per-bank command queues (the organization the paper infers from the
/// linear bank-count scaling of outstanding requests, Section IV-F /
/// Figure 14), and are serviced one per bank by the closed-page
/// [`VaultMemory`]. Completed responses wait at the bank until the NoC
/// accepts them, so response-plane congestion backpressures into the DRAM
/// — one of the queuing couplings the paper holds responsible for the
/// HMC's loaded latency behaviour.
#[derive(Debug, Clone)]
pub struct VaultCtrl {
    ingress: FlitQueue<DeviceRequest>,
    bank_queues: Vec<BoundedQueue<DeviceRequest>>,
    engines: Vec<BankEngine>,
    memory: VaultMemory,
    stats: VaultStats,
    /// Banks that are idle and have queued work (deduplicated worklist).
    startable: std::collections::VecDeque<usize>,
    startable_flag: Vec<bool>,
    /// Banks holding a completed response, in completion order.
    ready: std::collections::VecDeque<usize>,
}

impl VaultCtrl {
    /// Creates an idle vault controller with `banks` banks.
    pub(crate) fn new(banks: usize, timing: DramTiming, tuning: &VaultTuning) -> VaultCtrl {
        VaultCtrl {
            ingress: FlitQueue::new(tuning.ingress_capacity_flits),
            bank_queues: (0..banks)
                .map(|_| BoundedQueue::new(tuning.bank_queue_capacity))
                .collect(),
            engines: vec![BankEngine::Idle; banks],
            memory: VaultMemory::new(banks, timing),
            stats: VaultStats::default(),
            startable: std::collections::VecDeque::new(),
            startable_flag: vec![false; banks],
            ready: std::collections::VecDeque::new(),
        }
    }

    /// Pushes an arriving request into the ingress buffer.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full — callers must hold NoC credits for the
    /// space, so overflow is a flow-control protocol bug.
    pub(crate) fn push_ingress(&mut self, req: DeviceRequest) {
        let flits = req.pkt.flits();
        self.ingress
            .push(flits, req)
            .unwrap_or_else(|_| panic!("vault ingress overflow: credit protocol violated"));
        self.note_outstanding();
    }

    /// Moves ingress requests into their bank queues until the head blocks
    /// (head-of-line) or the ingress empties. Returns the flits freed from
    /// the ingress buffer, which the caller must return as NoC credits.
    pub(crate) fn pump_ingress(&mut self) -> u32 {
        let mut freed = 0;
        while let Some((flits, head)) = self.ingress.peek() {
            let bank = head.bank.index();
            if self.bank_queues[bank].is_full() {
                break;
            }
            let (_, req) = self.ingress.pop().expect("peeked head exists");
            self.bank_queues[bank].push(req).expect("checked not full");
            freed += flits;
            self.mark_startable(bank);
        }
        freed
    }

    /// Starts service on every idle bank with queued work. Appends
    /// `(bank, completion_time)` for each started request to `started`
    /// (a caller-owned scratch buffer, so steady-state pumps allocate
    /// nothing); the caller schedules the completions.
    pub(crate) fn start_services(&mut self, now: Time, started: &mut Vec<(usize, Time)>) {
        while let Some(bank) = self.startable.pop_front() {
            self.startable_flag[bank] = false;
            if self.engines[bank] != BankEngine::Idle {
                continue;
            }
            let Some(req) = self.bank_queues[bank].pop() else {
                continue;
            };
            let completion = match req.pkt.kind {
                RequestKind::Read { .. } => self.memory.read(now, bank, req.bursts),
                RequestKind::Write { .. } => self.memory.write(now, bank, req.bursts),
            };
            self.engines[bank] = BankEngine::InService(req);
            started.push((bank, completion));
        }
    }

    /// Marks `bank`'s in-service request as completed (its scheduled
    /// completion time arrived).
    ///
    /// # Panics
    ///
    /// Panics if the bank has no request in service.
    pub(crate) fn complete(&mut self, bank: usize) {
        match self.engines[bank] {
            BankEngine::InService(req) => {
                self.engines[bank] = BankEngine::Completed(req);
                self.ready.push_back(bank);
            }
            _ => panic!("completion for a bank with nothing in service"),
        }
    }

    /// The oldest bank holding a response that still needs NoC egress,
    /// with its request. Responses egress in completion order.
    pub(crate) fn ready_response(&self) -> Option<(usize, &DeviceRequest)> {
        let bank = *self.ready.front()?;
        match &self.engines[bank] {
            BankEngine::Completed(req) => Some((bank, req)),
            _ => unreachable!("ready list out of sync with engines"),
        }
    }

    /// Removes the completed request at `bank` (the NoC accepted its
    /// response).
    ///
    /// # Panics
    ///
    /// Panics if the bank has no completed request or is not the oldest
    /// ready response.
    pub(crate) fn take_completed(&mut self, bank: usize) -> DeviceRequest {
        assert_eq!(
            self.ready.front(),
            Some(&bank),
            "responses egress in completion order"
        );
        self.ready.pop_front();
        match std::mem::replace(&mut self.engines[bank], BankEngine::Idle) {
            BankEngine::Completed(req) => {
                self.stats.serviced += 1;
                self.mark_startable(bank);
                req
            }
            other => {
                self.engines[bank] = other;
                panic!("no completed request at bank {bank}")
            }
        }
    }

    fn mark_startable(&mut self, bank: usize) {
        if self.engines[bank] == BankEngine::Idle
            && !self.bank_queues[bank].is_empty()
            && !self.startable_flag[bank]
        {
            self.startable_flag[bank] = true;
            self.startable.push_back(bank);
        }
    }

    /// Requests currently resident in this vault (ingress + bank queues +
    /// in service or blocked).
    pub(crate) fn outstanding(&self) -> usize {
        let queued: usize = self.bank_queues.iter().map(|q| q.len()).sum();
        let busy = self
            .engines
            .iter()
            .filter(|e| **e != BankEngine::Idle)
            .count();
        self.ingress.len() + queued + busy
    }

    /// Counters for this vault.
    pub(crate) fn stats(&self) -> VaultStats {
        self.stats
    }

    fn note_outstanding(&mut self) {
        let now = self.outstanding();
        if now > self.stats.peak_outstanding {
            self.stats.peak_outstanding = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_mapping::{BankId, VaultId};
    use hmc_packet::{Address, LinkId, PayloadSize, PortId, RequestPacket, Tag};

    fn req(bank: u8, tag: u16) -> DeviceRequest {
        DeviceRequest {
            pkt: RequestPacket {
                port: PortId(0),
                tag: Tag(tag),
                cube: hmc_packet::CubeId::HOST,
                addr: Address::new(0),
                kind: RequestKind::Read {
                    size: PayloadSize::B32,
                },
            },
            link: LinkId(0),
            vault: VaultId(0),
            bank: BankId(bank),
            bursts: 1,
        }
    }

    fn vault() -> VaultCtrl {
        VaultCtrl::new(16, DramTiming::hmc_gen2(), &VaultTuning::default())
    }

    /// The services `v` starts at `now`, collected into a fresh buffer.
    fn start(v: &mut VaultCtrl, now: Time) -> Vec<(usize, Time)> {
        let mut started = Vec::new();
        v.start_services(now, &mut started);
        started
    }

    #[test]
    fn request_flows_through_to_completion() {
        let mut v = vault();
        v.push_ingress(req(3, 1));
        assert_eq!(v.pump_ingress(), 1, "a read request is one flit");
        let started = start(&mut v, Time::ZERO);
        assert_eq!(started.len(), 1);
        let (bank, completion) = started[0];
        assert_eq!(bank, 3);
        assert!(completion > Time::ZERO);
        v.complete(bank);
        assert_eq!(v.ready_response().map(|(b, _)| b), Some(bank));
        let done = v.take_completed(bank);
        assert_eq!(done.pkt.tag, Tag(1));
        assert_eq!(v.stats().serviced, 1);
        assert_eq!(v.outstanding(), 0);
    }

    #[test]
    fn one_request_in_service_per_bank() {
        let mut v = vault();
        v.push_ingress(req(0, 1));
        v.push_ingress(req(0, 2));
        v.pump_ingress();
        let started = start(&mut v, Time::ZERO);
        assert_eq!(started.len(), 1, "second request queues behind the first");
        assert_eq!(v.outstanding(), 2);
    }

    #[test]
    fn hol_blocking_at_ingress() {
        let tuning = VaultTuning {
            bank_queue_capacity: 1,
            ..VaultTuning::default()
        };
        let mut v = VaultCtrl::new(2, DramTiming::hmc_gen2(), &tuning);
        // Fill bank 0's queue, then put a bank-0 request in front of a
        // bank-1 request in the ingress.
        v.push_ingress(req(0, 1));
        assert_eq!(v.pump_ingress(), 1);
        v.push_ingress(req(0, 2));
        v.push_ingress(req(1, 3));
        // Head (bank 0) blocks: bank-1 request cannot bypass it.
        assert_eq!(v.pump_ingress(), 0);
        assert_eq!(v.outstanding(), 3);
    }

    #[test]
    fn completed_response_blocks_bank_reuse() {
        let mut v = vault();
        v.push_ingress(req(0, 1));
        v.push_ingress(req(0, 2));
        v.pump_ingress();
        let (bank, _) = start(&mut v, Time::ZERO)[0];
        v.complete(bank);
        // While the response waits, the next request must not start.
        assert!(start(&mut v, Time::from_us(1)).is_empty());
        v.take_completed(bank);
        assert_eq!(start(&mut v, Time::from_us(1)).len(), 1);
    }

    #[test]
    fn ingress_capacity_respected() {
        let tuning = VaultTuning {
            ingress_capacity_flits: 9,
            ..VaultTuning::default()
        };
        let v = VaultCtrl::new(16, DramTiming::hmc_gen2(), &tuning);
        assert!(v.ingress.can_accept(9));
        assert!(!v.ingress.can_accept(10));
    }

    #[test]
    #[should_panic(expected = "credit protocol violated")]
    fn ingress_overflow_panics() {
        let tuning = VaultTuning {
            ingress_capacity_flits: 9,
            ..VaultTuning::default()
        };
        let mut v = VaultCtrl::new(16, DramTiming::hmc_gen2(), &tuning);
        for t in 0..10 {
            v.push_ingress(req(0, t));
        }
    }

    #[test]
    #[should_panic(expected = "nothing in service")]
    fn spurious_completion_panics() {
        let mut v = vault();
        v.complete(0);
    }
}
