//! # hmc-fabric
//!
//! Multi-cube HMC memory networks: chain, star and ring topologies of
//! [`hmc_device`] cubes behind one host, with HMC-style source routing.
//!
//! The reproduced paper closes by observing that the HMC's internal NoC —
//! not its DRAM — governs loaded latency, and that the effect compounds
//! once cubes are composed into *memory networks* over their off-chip
//! links (the chaining-capable testbed its companion study measures).
//! This crate models exactly that composition:
//!
//! - [`FabricConfig`] describes the network: identical cubes, a
//!   [`Topology`], per-hop pass-through/link tuning ([`HopTuning`])
//!   derived from the single-cube calibration;
//! - [`RouteTable`] is the static source-routing function (total,
//!   loop-free, deterministic — property-tested);
//! - [`FabricSim`] runs the whole network on the deterministic event
//!   engine. Transit cubes forward packets through a real arbitrated
//!   pass-through crossbar ([`hmc_noc::SwitchCore`]) with finite buffers
//!   and credit flow control, so fabric traffic contends exactly where
//!   the paper says it must: in the NoC.
//!
//! With one cube (`FabricConfig::chain(seed, 1)`) the component graph
//! degenerates to the paper's single-cube AC-510 system.
//!
//! ```
//! use hmc_des::Delay;
//! use hmc_fabric::{CubeId, FabricConfig, FabricPortSpec, FabricSim};
//! use hmc_mapping::AccessPattern;
//! use hmc_host::GupsOp;
//! use hmc_packet::PayloadSize;
//!
//! let cfg = FabricConfig::chain(2018, 3);
//! let filter = AccessPattern::Vaults { count: 16 }.filter(&cfg.cube.map);
//! let port = FabricPortSpec::gups(filter, GupsOp::Read(PayloadSize::B128), CubeId(2));
//! let report = FabricSim::new(cfg, vec![port])
//!     .run_gups(Delay::from_us(5), Delay::from_us(10));
//! assert!(report.cubes[2].device.requests_received > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod domain;
mod report;
mod route;
mod sim;

pub use config::{CubeId, FabricConfig, HopTuning, Topology};
pub use hmc_faults::{FaultPlan, LinkFaultSpec, LinkKey};
pub use hmc_mapping::{CubePolicy, CubeTargeting, FabricAddressMap, SplitError};
pub use report::{CubeReport, LinkFaultTotals, PortReport, RunReport, TransitStats};
pub use route::RouteTable;
pub use sim::{FabricPortSpec, FabricSim, SchedStats, GUPS_TAGS, STREAM_TAGS};
