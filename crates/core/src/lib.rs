//! # hmc-sim
//!
//! The public API of the `hmc-noc-sim` reproduction of *"Performance
//! Implications of NoCs on 3D-Stacked Memories: Insights from the Hybrid
//! Memory Cube"* (Hadidi et al., ISPASS 2018).
//!
//! This crate gathers the workspace's substrates — the [`hmc_device`]
//! cube model, the [`hmc_host`] FPGA model, the [`hmc_fabric`] memory
//! network, workload generators and statistics — behind one import. The
//! paper's AC-510 system is the one-cube case of
//! [`FabricSim`](fabric::FabricSim):
//!
//! 1. describe the system with a [`FabricConfig`](fabric::FabricConfig):
//!    `FabricConfig::chain(seed, 1)` is the paper's board (4 GB HMC 1.1,
//!    two half-width 15 Gbps links, 187.5 MHz FPGA with nine ports);
//! 2. describe the traffic with [`FabricPortSpec`](fabric::FabricPortSpec)s
//!    — GUPS address generators behind mask/anti-mask
//!    [`AccessPattern`](mapping::AccessPattern) filters, or trace-driven
//!    stream ports — each targeting a cube
//!    ([`CubeId::HOST`](fabric::CubeId::HOST) on one cube);
//! 3. run [`FabricSim::run_gups`](fabric::FabricSim::run_gups)
//!    (fixed-duration, high contention) or
//!    [`FabricSim::run_streams`](fabric::FabricSim::run_streams) (bounded
//!    traces, tunable load) and read the [`RunReport`].
//!
//! ```
//! use hmc_des::Delay;
//! use hmc_sim::prelude::*;
//!
//! // One port of random 128 B reads over all 16 vaults of one cube.
//! let cfg = FabricConfig::chain(7, 1);
//! let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
//! let port = FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId::HOST);
//! let report = FabricSim::new(cfg, vec![port])
//!     .run_gups(Delay::from_us(5), Delay::from_us(20));
//! assert!(report.total_bandwidth_gbs() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hmc_fabric::{CubeReport, PortReport, RunReport, TransitStats, GUPS_TAGS, STREAM_TAGS};

// Re-export the substrate crates under stable names.
pub use hmc_ddr as ddr;
pub use hmc_des as des;
pub use hmc_device as device;
pub use hmc_dram as dram;
pub use hmc_fabric as fabric;
pub use hmc_host as host;
pub use hmc_link as link;
pub use hmc_mapping as mapping;
pub use hmc_noc as noc;
pub use hmc_packet as packet;
pub use hmc_stats as stats;
pub use hmc_telemetry as telemetry;
pub use hmc_workloads as workloads;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use crate::{RunReport, GUPS_TAGS, STREAM_TAGS};
    pub use hmc_des::{Delay, Time};
    pub use hmc_device::DeviceConfig;
    pub use hmc_fabric::{CubeId, FabricConfig, FabricPortSpec, FabricSim, Topology};
    pub use hmc_host::{GupsOp, HostConfig};
    pub use hmc_mapping::{
        AccessPattern, AddressMap, BankId, CubePolicy, CubeTargeting, FabricAddressMap, Geometry,
        VaultId,
    };
    pub use hmc_packet::{Address, GlobalAddress, PayloadSize, PortId, RequestKind};
    pub use hmc_stats::{Histogram, LatencySketch, Summary, Table};
    pub use hmc_telemetry::{Hub, HubConfig, Probe, SharedHub, Stage};
    pub use hmc_workloads::{
        random_reads_in_banks, random_reads_in_vaults, vault_combinations, Feedback, OffloadSource,
        PointerChase, SourceStep, Trace, TrafficSource,
    };
}
