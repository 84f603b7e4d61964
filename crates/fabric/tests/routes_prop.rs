//! Property tests for fabric source routing: route tables are total,
//! loop-free, adjacency-respecting and deterministic.

use hmc_fabric::{CubeId, FabricConfig, RouteTable, Topology};
use proptest::prelude::*;

fn topologies() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Chain),
        Just(Topology::Star),
        Just(Topology::Ring),
        Just(Topology::Mesh2D)
    ]
}
proptest! {
    /// Totality: every (src, dst) pair has a route that terminates at the
    /// destination within n−1 hops.
    #[test]
    fn routes_are_total(topology in topologies(), n in 1u8..65) {
        let table = RouteTable::for_topology(topology, n);
        for src in 0..n {
            for dst in 0..n {
                let path = table.path(CubeId(src), CubeId(dst));
                prop_assert_eq!(*path.first().unwrap(), CubeId(src));
                prop_assert_eq!(*path.last().unwrap(), CubeId(dst));
                prop_assert!(
                    path.len() <= usize::from(n),
                    "{}-cube {}: {}->{} takes {} hops",
                    n, topology.label(), src, dst, path.len() - 1
                );
            }
        }
    }

    /// Loop-freedom and adjacency: validate() accepts every generated
    /// table, i.e. no route revisits a cube and every hop follows a
    /// physical fabric link.
    #[test]
    fn routes_are_loop_free_and_adjacent(topology in topologies(), n in 1u8..65) {
        let table = RouteTable::for_topology(topology, n);
        prop_assert!(table.validate(topology).is_ok());
    }

    /// Determinism: building the table twice yields identical tables, and
    /// the seed plays no role in routing (routes are a pure function of
    /// topology and cube count — two fabrics with different seeds route
    /// identically).
    #[test]
    fn routes_are_deterministic(topology in topologies(), n in 1u8..65, seed_a in any::<u64>(), seed_b in any::<u64>()) {
        let x = RouteTable::for_topology(topology, n);
        let y = RouteTable::for_topology(topology, n);
        prop_assert_eq!(&x, &y);
        let mut fa = FabricConfig::ac510(topology, n, seed_a);
        fa.seed = seed_a;
        let mut fb = FabricConfig::ac510(topology, n, seed_b);
        fb.seed = seed_b;
        prop_assert_eq!(fa.routes(), fb.routes());
    }

    /// Routes are symmetric in length: the hop count from a to b equals
    /// the hop count from b to a in every supported topology (responses
    /// pay exactly what requests paid).
    #[test]
    fn hop_counts_are_symmetric(topology in topologies(), n in 1u8..65) {
        let table = RouteTable::for_topology(topology, n);
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    table.hops(CubeId(a), CubeId(b)),
                    table.hops(CubeId(b), CubeId(a))
                );
            }
        }
    }

    /// The documented even-ring antipodal tie-break: when the two ring
    /// directions to the antipodal cube are equally long, the *clockwise*
    /// (ascending-id, modulo n) direction is chosen — the promise
    /// `RouteTable::for_topology` documents. Locked for every even ring
    /// the 6-bit CUB field allows (n ∈ {2, 4, …, 64}) and every source
    /// cube: the first hop out of `src` toward `src + n/2` is
    /// `(src + 1) % n`, and so is every subsequent hop (the whole route
    /// runs clockwise).
    #[test]
    fn even_ring_antipodal_ties_break_clockwise(half in 1u8..33) {
        let n = half * 2;
        let table = RouteTable::for_topology(Topology::Ring, n);
        for src in 0..n {
            let dst = CubeId((src + half) % n);
            prop_assert_eq!(
                table.next_hop(CubeId(src), dst),
                CubeId((src + 1) % n),
                "{}-ring: antipodal tie from {} must go clockwise", n, src
            );
            let path = table.path(CubeId(src), dst);
            for pair in path.windows(2) {
                prop_assert_eq!(
                    pair[1],
                    CubeId((pair[0].0 + 1) % n),
                    "{}-ring: tie route from {} left the clockwise direction", n, src
                );
            }
            prop_assert_eq!(path.len() as u8, half + 1, "tie route is shortest");
        }
    }

    /// Every hop strictly shrinks the remaining distance (the routes are
    /// shortest-path greedy, so they cannot stall or detour). The
    /// distance matrix is precomputed so the 64-cube cases stay cheap.
    #[test]
    fn hops_strictly_approach_the_destination(topology in topologies(), n in 2u8..65) {
        let table = RouteTable::for_topology(topology, n);
        let nn = usize::from(n);
        let mut dist = vec![vec![0u32; nn]; nn];
        for a in 0..n {
            for b in 0..n {
                dist[usize::from(a)][usize::from(b)] = table.hops(CubeId(a), CubeId(b));
            }
        }
        for src in 0..n {
            for dst in 0..n {
                if src == dst {
                    continue;
                }
                let mut at = CubeId(src);
                while at != CubeId(dst) {
                    let next = table.next_hop(at, CubeId(dst));
                    prop_assert!(
                        dist[next.index()][usize::from(dst)] < dist[at.index()][usize::from(dst)],
                        "{}: hop {}->{} does not approach {}",
                        topology.label(), at, next, dst
                    );
                    at = next;
                }
            }
        }
    }

    /// Mesh routes pay exactly the Manhattan distance of the grid —
    /// dimension-ordered routing is shortest-path on a mesh.
    #[test]
    fn grid_hop_counts_match_the_geometry(n in 1u8..65) {
        let (w, h) = Topology::grid_dims(n);
        let table = RouteTable::for_topology(Topology::Mesh2D, n);
        for a in 0..n {
            for b in 0..n {
                let expected =
                    u32::from((a % w).abs_diff(b % w)) + u32::from((a / w).abs_diff(b / w));
                prop_assert_eq!(
                    table.hops(CubeId(a), CubeId(b)),
                    expected,
                    "mesh: {}->{} (grid {}x{})", a, b, w, h
                );
            }
        }
    }
}
