//! Shared experiment plumbing: scales, parallel sweeps, run helpers.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use hmc_sim::des::EngineStats;
use hmc_sim::prelude::*;

/// How much work an experiment performs.
///
/// `Quick` reproduces every figure's shape in seconds (sampled sweeps,
/// shorter measurement windows); `Full` runs the paper-sized sweeps
/// (e.g. all C(16,4) = 1820 vault combinations for Figures 10–12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minimal sweeps for unit tests (shapes remain assertable, runs stay
    /// fast even in debug builds).
    Smoke,
    /// Sampled sweeps, short windows.
    Quick,
    /// Paper-sized sweeps.
    Full,
}

/// Aggregate event-engine counters across every simulation a context ran:
/// the run count and the summed [`EngineStats`], behind one lock so
/// parallel sweep jobs can record concurrently. The sums are
/// order-independent, so the tally is thread-count-invariant like
/// everything else an experiment reports.
#[derive(Debug, Default)]
pub struct EngineTally(Mutex<(u64, EngineStats)>);

impl EngineTally {
    /// Adds one finished simulation's counters.
    pub(crate) fn record(&self, stats: EngineStats) {
        let mut tally = self.0.lock().expect("engine tally");
        tally.0 += 1;
        tally.1 += stats;
    }

    /// Clears the tally (the `repro` driver resets it per experiment).
    pub(crate) fn reset(&self) {
        *self.0.lock().expect("engine tally") = Default::default();
    }

    /// `(runs, summed counters)`.
    pub(crate) fn snapshot(&self) -> (u64, EngineStats) {
        *self.0.lock().expect("engine tally")
    }
}

/// Context shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Work scale.
    pub scale: Scale,
    /// Root seed; every run derives its own deterministic seed from it.
    pub seed: u64,
    /// Worker threads for parallel sweeps (`0` = all available cores,
    /// the default). Results are thread-count-invariant: every job owns
    /// its simulation and its derived seed, and sweep order is restored
    /// after the parallel section — the determinism regressions run the
    /// same sweep at different widths and diff the rendered output.
    pub threads: usize,
    /// Engine-domain budget for each *single* multi-cube simulation
    /// (`FabricSim::with_domains`); `1` — the default — runs every
    /// simulation serially. Reports are domain-count-invariant, which
    /// the determinism regressions check by diffing rendered output
    /// across settings.
    pub domains: usize,
    /// Event-engine counter tally every run helper records into; shared
    /// across clones of this context so sweep jobs all feed one sink.
    pub stats: Arc<EngineTally>,
}

impl ExpContext {
    /// A quick-scale context.
    pub fn quick(seed: u64) -> ExpContext {
        ExpContext {
            scale: Scale::Quick,
            seed,
            threads: 0,
            domains: 1,
            stats: Arc::default(),
        }
    }

    /// Runs `f` over `items` on this context's worker-thread budget,
    /// preserving order (see [`parallel_map_with_threads`]).
    pub(crate) fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        parallel_map_with_threads(items, self.threads, f)
    }

    /// Runs `sim`'s GUPS firmware for this context's warmup and
    /// measurement windows on this context's domain budget, recording
    /// its engine counters.
    pub(crate) fn run_gups(&self, sim: FabricSim) -> RunReport {
        let mut sim = sim.with_domains(self.domains);
        let report = sim.run_gups(self.gups_warmup(), self.gups_measure());
        self.stats.record(sim.engine_stats());
        report
    }

    /// Runs `sim`'s stream firmware to completion on this context's
    /// domain budget, recording its engine counters.
    pub(crate) fn run_streams(&self, sim: FabricSim) -> RunReport {
        let mut sim = sim.with_domains(self.domains);
        let report = sim.run_streams();
        self.stats.record(sim.engine_stats());
        report
    }

    /// GUPS warmup window.
    pub fn gups_warmup(&self) -> Delay {
        match self.scale {
            Scale::Smoke => Delay::from_us(10),
            Scale::Quick => Delay::from_us(30),
            Scale::Full => Delay::from_us(100),
        }
    }

    /// GUPS measurement window (the paper ran 10 s on silicon; the
    /// simulated system is stationary after warmup, so hundreds of
    /// microseconds give stable averages).
    pub fn gups_measure(&self) -> Delay {
        match self.scale {
            Scale::Smoke => Delay::from_us(40),
            Scale::Quick => Delay::from_us(120),
            Scale::Full => Delay::from_us(400),
        }
    }

    /// Requests per stream port in the high-contention stream experiments
    /// (Figures 9–12).
    pub(crate) fn stream_reads(&self) -> usize {
        match self.scale {
            Scale::Smoke => 120,
            Scale::Quick => 400,
            Scale::Full => 1_000,
        }
    }

    /// Stride through the C(16,4) combination list (1 = all 1820).
    pub(crate) fn combo_stride(&self) -> usize {
        match self.scale {
            Scale::Smoke => 40,
            Scale::Quick => 7,
            Scale::Full => 1,
        }
    }

    /// Stride through vault ids when averaging "across all vaults"
    /// (Figures 7/8).
    pub(crate) fn vault_stride(&self) -> usize {
        match self.scale {
            Scale::Smoke => 8,
            Scale::Quick => 4,
            Scale::Full => 1,
        }
    }

    /// Step through request counts for Figures 7/8.
    pub(crate) fn request_count_step(&self, max_n: usize) -> usize {
        match self.scale {
            Scale::Smoke => (max_n / 8).max(1),
            Scale::Quick => (max_n / 12).max(1),
            Scale::Full => (max_n / 55).max(1),
        }
    }

    /// A derived seed for job `index` of a named experiment.
    pub(crate) fn seed_for(&self, experiment: &str, index: u64) -> u64 {
        let mut h = self.seed ^ 0x517C_C1B7_2722_0A95;
        for b in experiment.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
        h.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Runs `f` over `items` on `threads` workers (`0` = all available
/// cores), preserving order. Each job builds its own `FabricSim`, so jobs
/// share nothing but the read-only closure environment. Results must not
/// depend on the worker count — the determinism
/// regressions run the same sweep at different widths and diff the output.
///
/// Worker cores are debited from the shared [`hmc_des::pool`] budget, so
/// any `--domains` parallelism *inside* a job sees an exhausted budget
/// and multiplexes instead of oversubscribing. A worker that drains the
/// item queue parks its core back into the budget before the sweep
/// joins, letting a still-running job's domain lease steal it.
pub fn parallel_map_with_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = if threads == 0 {
        hmc_des::pool::budget_total()
    } else {
        threads
    }
    .min(n);
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    let lease = hmc_des::pool::demand(threads);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items = &items;
    let f = &f;
    let next = &next;
    let slots_ref = &slots;
    let lease_ref = &lease;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(move || {
                let mut claimed = 0usize;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if claimed > 0 {
                        hmc_des::pool::note_steal();
                    }
                    claimed += 1;
                    let r = f(&items[i]);
                    *slots_ref[i].lock().expect("result slot") = Some(r);
                }
                lease_ref.park_one();
            });
        }
    });
    drop(lease);
    slots
        .into_iter()
        .map(|m| m.into_inner().expect("slot lock").expect("job completed"))
        .collect()
}

/// Builds one single-cube GUPS system, unrun: `ports` active ports, all
/// generating `op` under `pattern`.
pub(crate) fn gups_sim(seed: u64, pattern: AccessPattern, op: GupsOp, ports: usize) -> FabricSim {
    let cfg = FabricConfig::chain(seed, 1);
    let filter = pattern.filter(&cfg.cube.map);
    let specs = vec![FabricPortSpec::gups(filter, op, CubeId::HOST); ports];
    FabricSim::new(cfg, specs)
}

/// Runs one GUPS experiment ([`gups_sim`]) for the context's warmup +
/// measurement windows.
pub(crate) fn gups_run(
    ctx: &ExpContext,
    seed: u64,
    pattern: AccessPattern,
    op: GupsOp,
    ports: usize,
) -> RunReport {
    ctx.run_gups(gups_sim(seed, pattern, op, ports))
}

/// Runs one multi-port stream experiment from explicit traces.
pub(crate) fn stream_run(ctx: &ExpContext, seed: u64, traces: Vec<Trace>) -> RunReport {
    let cfg = FabricConfig::chain(seed, 1);
    let specs = traces
        .into_iter()
        .map(|trace| FabricPortSpec::stream(trace, CubeId::HOST))
        .collect();
    ctx.run_streams(FabricSim::new(cfg, specs))
}

/// The four request sizes every figure sweeps.
pub(crate) fn paper_sizes() -> [PayloadSize; 4] {
    PayloadSize::PAPER_SWEEP
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order_and_values() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_with_threads(items, 0, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_is_empty() {
        let out: Vec<u32> = parallel_map_with_threads(Vec::<u32>::new(), 0, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn derived_seeds_differ_by_experiment_and_index() {
        let ctx = ExpContext::quick(1);
        assert_ne!(ctx.seed_for("fig6", 0), ctx.seed_for("fig6", 1));
        assert_ne!(ctx.seed_for("fig6", 0), ctx.seed_for("fig13", 0));
        let ctx2 = ExpContext::quick(1);
        assert_eq!(ctx.seed_for("a", 3), ctx2.seed_for("a", 3));
    }

    #[test]
    fn scales_differ() {
        let q = ExpContext::quick(0);
        let f = ExpContext {
            scale: Scale::Full,
            ..ExpContext::quick(0)
        };
        assert!(q.gups_measure() < f.gups_measure());
        assert!(q.combo_stride() > f.combo_stride());
        assert_eq!(f.combo_stride(), 1);
        assert!(q.request_count_step(350) >= 1);
    }
}
