//! Source-routing tables for multi-cube fabrics.
//!
//! HMC chaining is *source-routed*: the host stamps each request with a
//! CUB field (6 bits here — see `DESIGN_CUB64.md`) and every cube's link
//! layer forwards packets whose CUB
//! does not match its own id toward the destination. The [`RouteTable`]
//! here is the static next-hop function the cubes consult; it is built
//! once per topology and guaranteed total, loop-free and deterministic
//! (the fabric property tests lock those invariants down).

use core::fmt;

use crate::config::{CubeId, Topology};

/// A dense next-hop table: `next_hop(src, dst)` for every cube pair.
///
/// # Examples
///
/// ```
/// use hmc_fabric::{CubeId, RouteTable, Topology};
///
/// let routes = RouteTable::for_topology(Topology::Chain, 4);
/// assert_eq!(routes.next_hop(CubeId(0), CubeId(3)), CubeId(1));
/// assert_eq!(routes.hops(CubeId(0), CubeId(3)), 3);
/// assert_eq!(
///     routes.path(CubeId(3), CubeId(0)),
///     vec![CubeId(3), CubeId(2), CubeId(1), CubeId(0)]
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteTable {
    n: u8,
    /// Flattened `n × n`: `next[src * n + dst]`, with `next[c * n + c] = c`.
    next: Vec<u8>,
}

impl RouteTable {
    /// Builds the deterministic shortest-path table for `topology` over
    /// `n` cubes.
    ///
    /// Tie-breaking is fixed: on a ring with an even cube count, the two
    /// directions to the antipodal cube are equally long and the
    /// clockwise (ascending-id) direction is chosen. The mesh uses
    /// dimension-ordered routing (X fully, then Y).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above [`crate::FabricConfig::MAX_CUBES`].
    pub fn for_topology(topology: Topology, n: u8) -> RouteTable {
        assert!(n >= 1, "a fabric needs at least one cube");
        assert!(
            n <= crate::FabricConfig::MAX_CUBES,
            "the 6-bit CUB field addresses at most 64 cubes"
        );
        let nn = usize::from(n);
        let mut next = vec![0u8; nn * nn];
        for src in 0..n {
            for dst in 0..n {
                next[usize::from(src) * nn + usize::from(dst)] = if src == dst {
                    src
                } else {
                    match topology {
                        Topology::Chain => dim_step(src, dst),
                        Topology::Star => {
                            if src == 0 {
                                dst
                            } else {
                                0
                            }
                        }
                        Topology::Ring => ring_step(src, dst, n),
                        Topology::Mesh2D => {
                            let (w, _) = Topology::grid_dims(n);
                            let (sx, sy) = (src % w, src / w);
                            let (dx, dy) = (dst % w, dst / w);
                            // Dimension-ordered: correct X first, then Y.
                            if sx != dx {
                                sy * w + dim_step(sx, dx)
                            } else {
                                dim_step(sy, dy) * w + sx
                            }
                        }
                    }
                };
            }
        }
        RouteTable { n, next }
    }

    /// Builds a shortest-path table for `topology` over `n` cubes that
    /// avoids the given permanently dead cube-to-cube links (unordered
    /// pairs — a dead link is dead in both directions).
    ///
    /// On a ring or mesh the surviving links usually still connect
    /// every cube, so traffic reroutes around the dead edge. On a chain
    /// or star any dead link disconnects the fabric, and the build fails
    /// loudly instead of silently dropping the stranded cubes' traffic.
    ///
    /// The table is built by per-source BFS with ascending-id neighbor
    /// order, so it is deterministic; with no dead edges callers should
    /// keep [`RouteTable::for_topology`], whose ring tie-break is part of
    /// the calibrated baseline.
    ///
    /// # Errors
    ///
    /// Returns a description naming the offending edge or the first
    /// unreachable cube pair.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above [`crate::FabricConfig::MAX_CUBES`].
    pub(crate) fn avoiding(
        topology: Topology,
        n: u8,
        dead: &[(u8, u8)],
    ) -> Result<RouteTable, String> {
        assert!(n >= 1, "a fabric needs at least one cube");
        assert!(
            n <= crate::FabricConfig::MAX_CUBES,
            "the 6-bit CUB field addresses at most 64 cubes"
        );
        for &(a, b) in dead {
            if a >= n || b >= n {
                return Err(format!("dead edge {a}-{b} names a cube outside the fabric"));
            }
            if !topology.neighbors(n, CubeId(a)).contains(&CubeId(b)) {
                return Err(format!(
                    "dead edge {a}-{b} is not a {} fabric link",
                    topology.label()
                ));
            }
        }
        let is_dead = |a: u8, b: u8| dead.iter().any(|&(x, y)| (x, y) == (a.min(b), a.max(b)));
        let nn = usize::from(n);
        let mut next = vec![0u8; nn * nn];
        for src in 0..n {
            // BFS over the surviving links; first visit (in ascending id
            // order) fixes each cube's parent, hence the route.
            let mut parent = vec![u8::MAX; nn];
            parent[usize::from(src)] = src;
            let mut frontier = vec![src];
            while !frontier.is_empty() {
                let mut grown = Vec::new();
                for &a in &frontier {
                    for nb in topology.neighbors(n, CubeId(a)) {
                        let b = nb.0;
                        if parent[usize::from(b)] == u8::MAX && !is_dead(a, b) {
                            parent[usize::from(b)] = a;
                            grown.push(b);
                        }
                    }
                }
                frontier = grown;
            }
            for dst in 0..n {
                next[usize::from(src) * nn + usize::from(dst)] = if src == dst {
                    src
                } else {
                    if parent[usize::from(dst)] == u8::MAX {
                        return Err(format!(
                            "dead link(s) disconnect the {} fabric: \
                             cube {dst} is unreachable from cube {src}",
                            topology.label()
                        ));
                    }
                    let mut at = dst;
                    while parent[usize::from(at)] != src {
                        at = parent[usize::from(at)];
                    }
                    at
                };
            }
        }
        Ok(RouteTable { n, next })
    }

    /// The next cube on the route from `from` to `to` (`from` itself when
    /// already at the destination).
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    #[inline]
    pub fn next_hop(&self, from: CubeId, to: CubeId) -> CubeId {
        let nn = usize::from(self.n);
        CubeId(self.next[from.index() * nn + to.index()])
    }

    /// The full route from `from` to `to`, both endpoints included.
    ///
    /// # Panics
    ///
    /// Panics if the table contains a loop (construction makes this
    /// impossible; the check guards hand-built tables).
    pub fn path(&self, from: CubeId, to: CubeId) -> Vec<CubeId> {
        let mut path = vec![from];
        let mut at = from;
        while at != to {
            let next = self.next_hop(at, to);
            assert!(
                !path.contains(&next),
                "route table loops at {at} toward {to}"
            );
            path.push(next);
            at = next;
        }
        path
    }

    /// Number of cube-to-cube link traversals from `from` to `to`.
    pub fn hops(&self, from: CubeId, to: CubeId) -> u32 {
        (self.path(from, to).len() - 1) as u32
    }

    /// Checks the table against a topology's adjacency: every hop must
    /// follow an existing fabric link, every destination must be reached
    /// (totality), and no route may revisit a cube (loop-freedom).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self, topology: Topology) -> Result<(), String> {
        for src in 0..self.n {
            for dst in 0..self.n {
                let (from, to) = (CubeId(src), CubeId(dst));
                let mut at = from;
                let mut visited = vec![false; usize::from(self.n)];
                visited[at.index()] = true;
                while at != to {
                    let next = self.next_hop(at, to);
                    if !topology.neighbors(self.n, at).contains(&next) {
                        return Err(format!(
                            "{at}->{to}: next hop {next} is not a {} neighbor of {at}",
                            topology.label()
                        ));
                    }
                    if visited[next.index()] {
                        return Err(format!("{from}->{to}: route revisits {next}"));
                    }
                    visited[next.index()] = true;
                    at = next;
                }
            }
        }
        Ok(())
    }
}

/// One ring step from `src` toward `dst` on an `n`-ring: shortest
/// direction, clockwise (ascending ids) on the antipodal tie.
fn ring_step(src: u8, dst: u8, n: u8) -> u8 {
    let cw = (i16::from(dst) - i16::from(src)).rem_euclid(i16::from(n));
    let ccw = i16::from(n) - cw;
    if cw <= ccw {
        (src + 1) % n
    } else {
        (src + n - 1) % n
    }
}

/// One straight-line step from coordinate `a` toward `b` along a chain or
/// one mesh dimension.
fn dim_step(a: u8, b: u8) -> u8 {
    if b > a {
        a + 1
    } else {
        a - 1
    }
}

impl fmt::Display for RouteTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "route table over {} cubes (next hops):", self.n)?;
        for src in 0..self.n {
            write!(f, "  from {src}:")?;
            for dst in 0..self.n {
                write!(f, " {}", self.next_hop(CubeId(src), CubeId(dst)).0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_routes_walk_the_line() {
        let r = RouteTable::for_topology(Topology::Chain, 5);
        assert_eq!(r.hops(CubeId(0), CubeId(4)), 4);
        assert_eq!(r.hops(CubeId(4), CubeId(0)), 4);
        assert_eq!(r.next_hop(CubeId(2), CubeId(0)), CubeId(1));
        r.validate(Topology::Chain).unwrap();
    }

    #[test]
    fn star_routes_are_at_most_two_hops() {
        let r = RouteTable::for_topology(Topology::Star, 6);
        for a in 0..6 {
            for b in 0..6 {
                let h = r.hops(CubeId(a), CubeId(b));
                let expected = match (a, b) {
                    (x, y) if x == y => 0,
                    (0, _) | (_, 0) => 1,
                    _ => 2,
                };
                assert_eq!(h, expected, "{a}->{b}");
            }
        }
        r.validate(Topology::Star).unwrap();
    }

    #[test]
    fn ring_takes_shortest_direction_clockwise_on_ties() {
        let r = RouteTable::for_topology(Topology::Ring, 6);
        assert_eq!(r.next_hop(CubeId(0), CubeId(1)), CubeId(1));
        assert_eq!(r.next_hop(CubeId(0), CubeId(5)), CubeId(5));
        // Antipodal tie: clockwise.
        assert_eq!(r.next_hop(CubeId(0), CubeId(3)), CubeId(1));
        assert_eq!(r.hops(CubeId(0), CubeId(3)), 3);
        r.validate(Topology::Ring).unwrap();
    }

    #[test]
    fn two_cube_ring_degenerates_to_chain() {
        let r = RouteTable::for_topology(Topology::Ring, 2);
        assert_eq!(r.next_hop(CubeId(0), CubeId(1)), CubeId(1));
        assert_eq!(r.hops(CubeId(1), CubeId(0)), 1);
        r.validate(Topology::Ring).unwrap();
    }

    #[test]
    fn ring_routes_around_a_dead_edge() {
        let r = RouteTable::avoiding(Topology::Ring, 4, &[(0, 1)]).unwrap();
        r.validate(Topology::Ring).unwrap();
        // 0->1 must now go the long way: 0-3-2-1.
        assert_eq!(
            r.path(CubeId(0), CubeId(1)),
            vec![CubeId(0), CubeId(3), CubeId(2), CubeId(1)]
        );
        assert_eq!(r.hops(CubeId(1), CubeId(0)), 3);
        // Routes not touching the dead edge stay shortest.
        assert_eq!(r.hops(CubeId(2), CubeId(3)), 1);
    }

    #[test]
    fn no_dead_edges_matches_plain_bfs_reachability() {
        let r = RouteTable::avoiding(Topology::Chain, 5, &[]).unwrap();
        r.validate(Topology::Chain).unwrap();
        assert_eq!(r.hops(CubeId(0), CubeId(4)), 4);
    }

    #[test]
    fn chain_dead_edge_is_a_loud_error() {
        let err = RouteTable::avoiding(Topology::Chain, 4, &[(1, 2)]).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
        assert!(err.contains("chain"), "{err}");
        let err = RouteTable::avoiding(Topology::Star, 4, &[(0, 3)]).unwrap_err();
        assert!(err.contains("cube 3"), "{err}");
    }

    #[test]
    fn dead_edge_must_name_a_real_link() {
        let err = RouteTable::avoiding(Topology::Chain, 4, &[(0, 3)]).unwrap_err();
        assert!(err.contains("not a chain fabric link"), "{err}");
        let err = RouteTable::avoiding(Topology::Ring, 4, &[(1, 7)]).unwrap_err();
        assert!(err.contains("outside the fabric"), "{err}");
    }

    #[test]
    fn display_renders_every_row() {
        let r = RouteTable::for_topology(Topology::Chain, 3);
        let s = r.to_string();
        assert!(s.contains("from 0:"));
        assert!(s.contains("from 2:"));
    }

    #[test]
    fn mesh_routes_are_dimension_ordered() {
        // 8×8 mesh: 0 -> 63 corrects X fully (0..7) then climbs Y.
        let r = RouteTable::for_topology(Topology::Mesh2D, 64);
        r.validate(Topology::Mesh2D).unwrap();
        assert_eq!(r.next_hop(CubeId(0), CubeId(63)), CubeId(1));
        assert_eq!(r.next_hop(CubeId(7), CubeId(63)), CubeId(15));
        assert_eq!(r.hops(CubeId(0), CubeId(63)), 14, "mesh diameter");
        // Manhattan distance everywhere: 0 at (0,0), 26 at (2,3).
        assert_eq!(r.hops(CubeId(0), CubeId(26)), 5);
    }

    #[test]
    fn mesh_routes_around_a_dead_edge() {
        // 2×4 mesh of 8: kill the 0-1 edge; 0 -> 1 detours via column 0.
        let r = RouteTable::avoiding(Topology::Mesh2D, 8, &[(0, 1)]).unwrap();
        r.validate(Topology::Mesh2D).unwrap();
        assert_eq!(
            r.path(CubeId(0), CubeId(1)),
            vec![CubeId(0), CubeId(2), CubeId(3), CubeId(1)]
        );
    }

    #[test]
    fn prime_cube_counts_degenerate_to_a_column() {
        let mesh = RouteTable::for_topology(Topology::Mesh2D, 7);
        mesh.validate(Topology::Mesh2D).unwrap();
        assert_eq!(mesh.hops(CubeId(0), CubeId(6)), 6, "1×7 chain");
    }

    #[test]
    #[should_panic(expected = "at most 64 cubes")]
    fn cub_field_limit_enforced() {
        let _ = RouteTable::for_topology(Topology::Chain, 65);
    }
}
