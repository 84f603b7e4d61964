//! Fabric configuration: cube identity, topology, per-hop tuning.

use core::fmt;

use hmc_des::Delay;
use hmc_device::DeviceConfig;
use hmc_host::HostConfig;
use hmc_link::{LinkConfig, LinkWidth};
use hmc_noc::SwitchConfig;
use hmc_packet::RequestKind;

use crate::route::RouteTable;

/// Identifies one cube of a memory network (the HMC header's CUB field,
/// widened here to 6 bits — see `DESIGN_CUB64.md`). Defined in
/// [`hmc_packet`] — it is a header field the host stamps on every
/// request — and re-exported here for fabric users.
pub use hmc_packet::CubeId;

/// How the cubes of a fabric are wired together with their off-chip links.
///
/// Cube 0 is always the host-attached cube. Chain, star and ring mirror
/// the configurations HMC chaining supports in practice: a daisy chain
/// (what the paper's companion study measures), a star with the root as
/// hub, and a ring closing the chain for path redundancy. The 2-D mesh
/// and torus extend past shipped silicon: with the CUB field widened to
/// 6 bits a 64-cube chain has a 63-hop worst case, while an 8×8 mesh
/// caps the diameter at 14 — the constant-degree grids the scale-out
/// study needs (see `DESIGN_CUB64.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// `0 – 1 – 2 – … – n−1`, each cube linked to its neighbors.
    Chain,
    /// Cube 0 linked to every other cube; leaves two hops apart.
    Star,
    /// The chain with an extra `n−1 – 0` link; shortest direction wins.
    Ring,
    /// A `w × h` grid (row-major cube ids, `w` from
    /// [`Topology::grid_dims`]): cube `c` sits at `(c % w, c / w)` and
    /// links to its up/down/left/right neighbors. Dimension-ordered
    /// (X-then-Y) routing.
    Mesh2D,
    /// The mesh with wrap-around links in both dimensions: every cube
    /// has degree 4 and each dimension routes like a ring (shortest
    /// direction, clockwise on ties).
    Torus2D,
}

impl Topology {
    /// A lowercase label for tables and error messages.
    pub fn label(self) -> &'static str {
        match self {
            Topology::Chain => "chain",
            Topology::Star => "star",
            Topology::Ring => "ring",
            Topology::Mesh2D => "mesh",
            Topology::Torus2D => "torus",
        }
    }

    /// The `(width, height)` of the grid an `n`-cube mesh or torus is
    /// laid out on: the most-square factorization with `width <= height`
    /// (64 → 8×8, 32 → 4×8, 8 → 2×4). A prime `n` degenerates to a
    /// `1 × n` column — a chain (mesh) or ring (torus).
    pub fn grid_dims(n: u8) -> (u8, u8) {
        assert!(n >= 1, "a grid needs at least one cube");
        let w = (1..=n)
            .filter(|&w| n.is_multiple_of(w) && u16::from(w) * u16::from(w) <= u16::from(n))
            .max()
            .expect("1 always divides n");
        (w, n / w)
    }

    /// The fabric neighbors of `cube` in an `n`-cube instance, ascending.
    pub fn neighbors(self, n: u8, cube: CubeId) -> Vec<CubeId> {
        let c = cube.0;
        assert!(c < n, "cube {c} out of range for {n}-cube fabric");
        if n == 1 {
            return Vec::new();
        }
        let mut out = match self {
            Topology::Chain => {
                let mut v = Vec::new();
                if c > 0 {
                    v.push(c - 1);
                }
                if c + 1 < n {
                    v.push(c + 1);
                }
                v
            }
            Topology::Star => {
                if c == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
            Topology::Ring => {
                vec![(c + n - 1) % n, (c + 1) % n]
            }
            Topology::Mesh2D | Topology::Torus2D => {
                let (w, h) = Topology::grid_dims(n);
                let wrap = self == Topology::Torus2D;
                let (x, y) = (c % w, c / w);
                let mut v = Vec::with_capacity(4);
                if w > 1 {
                    if x > 0 {
                        v.push(y * w + (x - 1));
                    } else if wrap {
                        v.push(y * w + (w - 1));
                    }
                    if x + 1 < w {
                        v.push(y * w + (x + 1));
                    } else if wrap {
                        v.push(y * w);
                    }
                }
                if h > 1 {
                    if y > 0 {
                        v.push((y - 1) * w + x);
                    } else if wrap {
                        v.push((h - 1) * w + x);
                    }
                    if y + 1 < h {
                        v.push((y + 1) * w + x);
                    } else if wrap {
                        v.push(x);
                    }
                }
                v
            }
        };
        out.sort_unstable();
        // Wrap-around in a 2-wide dimension reaches the same neighbor
        // twice (ring of two, torus column of two).
        out.dedup();
        out.into_iter().map(CubeId).collect()
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Timing and buffering of one fabric hop: the pass-through crossbar in a
/// transit cube's link layer plus the cube-to-cube serialized link.
///
/// The derivation mirrors the single-cube model: the crossbar reuses the
/// quadrant-switch datapath numbers (the pass-through shares the logic
/// layer's NoC fabric, which is exactly why transit traffic contends with
/// local traffic — the paper's central mechanism), and the link reuses the
/// external [`LinkConfig`] serialization model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopTuning {
    /// Cube-to-cube link: serialization rate, protocol overhead, SerDes
    /// latency. `input_buffer_flits` is overridden per edge by the
    /// receiving cube's pass-through input buffer.
    pub link: LinkConfig,
    /// Pipeline latency of one pass-through crossbar traversal.
    pub passthrough_latency: Delay,
    /// Serialization time per flit on the pass-through datapath.
    pub flit_time: Delay,
    /// Pass-through input buffer per port, in flits — the token pool each
    /// upstream serializer is credited with.
    pub input_capacity_flits: u32,
    /// Egress budget between the crossbar and each outbound serializer,
    /// in flits.
    pub egress_capacity_flits: u32,
}

impl HopTuning {
    /// Derives hop tuning from a cube configuration: the fabric link is a
    /// full-width version of the cube's external link, the pass-through
    /// datapath matches the cube's switch tuning, and the pass-through
    /// inputs are link-RX-buffer sized — they *are* link RX buffers, and
    /// the token loop closes over a 55 ns SerDes flight, so shallow
    /// (switch-sized) buffers would cap a hop at a fraction of wire rate.
    pub(crate) fn derive(cube: &DeviceConfig) -> HopTuning {
        HopTuning {
            link: LinkConfig {
                width: LinkWidth::Full,
                min_packet_time: Delay::ZERO,
                ..cube.link
            },
            passthrough_latency: cube.switch.hop_latency,
            flit_time: cube.switch.flit_time,
            input_capacity_flits: cube.link.input_buffer_flits,
            egress_capacity_flits: cube.switch.link_egress_flits,
        }
    }

    /// Validates the tuning.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub(crate) fn validate(&self) -> Result<(), String> {
        self.link.validate()?;
        if self.flit_time.is_zero() {
            return Err("pass-through flit time must be positive".to_owned());
        }
        if self.input_capacity_flits < 9 {
            return Err("pass-through inputs must hold one max-size packet".to_owned());
        }
        if self.egress_capacity_flits < 9 {
            return Err("pass-through egress must hold one max-size packet".to_owned());
        }
        Ok(())
    }
}

/// Configuration of a multi-cube memory network behind one host.
///
/// All cubes are identical instances of `cube`; cube 0 carries the host
/// links. With `cube_count == 1` the fabric collapses to the single-cube
/// system of the reproduced paper (no pass-through stage at all).
///
/// # Examples
///
/// ```
/// use hmc_fabric::{FabricConfig, Topology};
///
/// let cfg = FabricConfig::chain(7, 4);
/// assert_eq!(cfg.cube_count, 4);
/// cfg.validate().expect("chain of 4 is valid");
/// assert_eq!(cfg.routes().hops(hmc_fabric::CubeId(0), hmc_fabric::CubeId(3)), 3);
/// ```
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Per-cube device configuration (all cubes identical).
    pub cube: DeviceConfig,
    /// Number of cubes (1 to [`FabricConfig::MAX_CUBES`]).
    pub cube_count: u8,
    /// How the cubes are wired.
    pub topology: Topology,
    /// The host attached to cube 0.
    pub host: HostConfig,
    /// Root seed for all randomness.
    pub seed: u64,
    /// Per-hop pass-through and link tuning.
    pub hop: HopTuning,
}

impl FabricConfig {
    /// The widened 6-bit CUB field addresses at most 64 cubes per fabric
    /// (see `DESIGN_CUB64.md`). Derived from [`CubeId::MAX_CUBES`], the
    /// canonical bound.
    pub const MAX_CUBES: u8 = CubeId::MAX_CUBES as u8;

    /// A single-cube fabric — the paper's AC-510 system.
    pub fn single(cube: DeviceConfig, host: HostConfig, seed: u64) -> FabricConfig {
        let hop = HopTuning::derive(&cube);
        FabricConfig {
            cube,
            cube_count: 1,
            topology: Topology::Chain,
            host,
            seed,
            hop,
        }
    }

    /// An `n`-cube fabric of AC-510-class cubes in the given topology.
    pub fn ac510(topology: Topology, cube_count: u8, seed: u64) -> FabricConfig {
        let cube = DeviceConfig::ac510_hmc();
        let hop = HopTuning::derive(&cube);
        FabricConfig {
            cube,
            cube_count,
            topology,
            host: HostConfig::ac510_default(),
            seed,
            hop,
        }
    }

    /// An `n`-cube daisy chain of AC-510-class cubes.
    pub fn chain(seed: u64, cube_count: u8) -> FabricConfig {
        FabricConfig::ac510(Topology::Chain, cube_count, seed)
    }

    /// The source-routing table for this fabric.
    pub fn routes(&self) -> RouteTable {
        RouteTable::for_topology(self.topology, self.cube_count)
    }

    /// The conservative-parallelism lookahead of one fabric edge: the
    /// minimum latency any cube-to-cube message pays crossing it. Both
    /// packet deliveries and link-token returns ride the cube-to-cube
    /// SerDes, so this is the hop link's SerDes latency. The domain
    /// scheduler ([`FabricSim::with_domains`](crate::FabricSim::with_domains))
    /// lets a domain run this far past its neighbors' earliest pending
    /// events per fabric hop of separation; a zero lookahead (degenerate
    /// tunings only) runs the fabric as one domain.
    pub(crate) fn lookahead(&self) -> Delay {
        self.hop.link.serdes_latency
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.cube.validate()?;
        self.host.validate()?;
        self.hop.validate()?;
        if self.cube_count == 0 {
            return Err("a fabric needs at least one cube".to_owned());
        }
        if self.cube_count > FabricConfig::MAX_CUBES {
            return Err("the 6-bit CUB field addresses at most 64 cubes".to_owned());
        }
        if usize::from(self.host.link_count) != self.cube.link_count() {
            return Err("host and cube must agree on link count".to_owned());
        }
        // The crossbar's arbitration masks and egress dirty mask are one
        // u64 each (`SwitchConfig::MAX_PORTS`): every cube's port count
        // (device links + fabric links + host links on cube 0) must fit.
        // Only high-degree hubs can violate this — a star past ~60 cubes;
        // the constant-degree grids never do.
        for c in CubeId::all(self.cube_count) {
            let ports = self.cube.link_count()
                + self.topology.neighbors(self.cube_count, c).len()
                + if c == CubeId::HOST {
                    usize::from(self.host.link_count)
                } else {
                    0
                };
            if ports > SwitchConfig::MAX_PORTS {
                return Err(format!(
                    "{c}'s crossbar needs {ports} ports, above the {}-port \
                     ceiling — use a constant-degree topology (mesh/torus) \
                     for fabrics this large",
                    SwitchConfig::MAX_PORTS
                ));
            }
        }
        self.routes().validate(self.topology)?;
        Ok(())
    }

    /// The extra unloaded round-trip latency one additional fabric hop
    /// adds to a request of the given kind: one pass-through crossbar
    /// traversal and one cube-to-cube link flight in each direction.
    ///
    /// Kept public as the analytic reference `tests/chain_latency.rs`
    /// compares measured chain latencies against.
    pub fn unloaded_hop_delay(&self, kind: RequestKind) -> Delay {
        let req = kind.request_flits();
        let resp = kind.response_flits();
        let crossbar = self.hop.passthrough_latency * 2u32
            + self.hop.flit_time * req
            + self.hop.flit_time * resp;
        let wire = self.hop.link.packet_time(req)
            + self.hop.link.packet_time(resp)
            + self.hop.link.serdes_latency * 2u32;
        crossbar + wire
    }
}

impl Default for FabricConfig {
    fn default() -> FabricConfig {
        FabricConfig::single(DeviceConfig::ac510_hmc(), HostConfig::ac510_default(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_packet::PayloadSize;

    #[test]
    fn defaults_validate_across_topologies() {
        for t in [
            Topology::Chain,
            Topology::Star,
            Topology::Ring,
            Topology::Mesh2D,
            Topology::Torus2D,
        ] {
            for n in 1..=8 {
                FabricConfig::ac510(t, n, 0).validate().unwrap_or_else(|e| {
                    panic!("{} of {n}: {e}", t.label());
                });
            }
        }
        // The widened CUB field: every non-hub topology validates at 64.
        for t in [
            Topology::Chain,
            Topology::Ring,
            Topology::Mesh2D,
            Topology::Torus2D,
        ] {
            FabricConfig::ac510(t, 64, 0)
                .validate()
                .unwrap_or_else(|e| {
                    panic!("{} of 64: {e}", t.label());
                });
        }
    }

    #[test]
    fn validation_rejects_degenerate_fabrics() {
        let mut cfg = FabricConfig::chain(0, 2);
        cfg.cube_count = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = FabricConfig::chain(0, 2);
        cfg.cube_count = 65;
        assert!(cfg.validate().is_err());
        let mut cfg = FabricConfig::chain(0, 2);
        cfg.hop.input_capacity_flits = 2;
        assert!(cfg.validate().is_err());
        let mut cfg = FabricConfig::chain(0, 2);
        cfg.host.link_count = 1;
        assert!(cfg.validate().is_err());
        // A 64-cube star hub would need 63 fabric ports plus its device
        // and host links — past the 64-port crossbar ceiling.
        let err = FabricConfig::ac510(Topology::Star, 64, 0)
            .validate()
            .unwrap_err();
        assert!(err.contains("crossbar"), "{err}");
        FabricConfig::ac510(Topology::Star, 32, 0)
            .validate()
            .unwrap();
    }

    #[test]
    fn grid_dims_pick_the_most_square_factorization() {
        assert_eq!(Topology::grid_dims(64), (8, 8));
        assert_eq!(Topology::grid_dims(32), (4, 8));
        assert_eq!(Topology::grid_dims(16), (4, 4));
        assert_eq!(Topology::grid_dims(8), (2, 4));
        assert_eq!(Topology::grid_dims(12), (3, 4));
        assert_eq!(Topology::grid_dims(7), (1, 7), "prime degenerates");
        assert_eq!(Topology::grid_dims(1), (1, 1));
    }

    #[test]
    fn neighbors_match_topology_shape() {
        let n = 5;
        assert_eq!(
            Topology::Chain.neighbors(n, CubeId(2)),
            vec![CubeId(1), CubeId(3)]
        );
        assert_eq!(Topology::Chain.neighbors(n, CubeId(0)), vec![CubeId(1)]);
        assert_eq!(
            Topology::Star.neighbors(n, CubeId(0)),
            (1..5).map(CubeId).collect::<Vec<_>>()
        );
        assert_eq!(Topology::Star.neighbors(n, CubeId(3)), vec![CubeId(0)]);
        assert_eq!(
            Topology::Ring.neighbors(n, CubeId(0)),
            vec![CubeId(1), CubeId(4)]
        );
        assert_eq!(Topology::Ring.neighbors(2, CubeId(0)), vec![CubeId(1)]);
        // 2×4 mesh of 8: cube 2 sits at (0, 1) — left column, row 1.
        assert_eq!(
            Topology::Mesh2D.neighbors(8, CubeId(2)),
            vec![CubeId(0), CubeId(3), CubeId(4)]
        );
        // Torus wraps both dimensions; the 2-wide x dimension dedups.
        assert_eq!(
            Topology::Torus2D.neighbors(8, CubeId(2)),
            vec![CubeId(0), CubeId(3), CubeId(4)]
        );
        // 8×8 torus: interior degree 4 with wraps for the corner.
        assert_eq!(
            Topology::Torus2D.neighbors(64, CubeId(0)),
            vec![CubeId(1), CubeId(7), CubeId(8), CubeId(56)]
        );
        assert_eq!(
            Topology::Mesh2D.neighbors(64, CubeId(0)),
            vec![CubeId(1), CubeId(8)]
        );
    }

    #[test]
    fn hop_delay_is_positive_and_grows_with_size() {
        let cfg = FabricConfig::chain(0, 2);
        let small = cfg.unloaded_hop_delay(RequestKind::Read {
            size: PayloadSize::B16,
        });
        let large = cfg.unloaded_hop_delay(RequestKind::Read {
            size: PayloadSize::B128,
        });
        assert!(!small.is_zero());
        assert!(large > small, "more flits, more serialization per hop");
        // Two SerDes flights dominate: at least 110 ns per hop.
        assert!(small >= Delay::from_ns(110));
    }
}
