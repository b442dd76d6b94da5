//! Consistent-hash routing for the cluster tier.
//!
//! The router's job is cache locality, not load spreading for its own
//! sake: the service's compiled/verified/quickened artifacts are keyed
//! by program, so every submission of one program should land on the
//! same node — that node's translation cache stays hot and the
//! stack-caching dispatch savings are actually realized under load.
//! A consistent-hash ring gives that placement a shape that survives
//! membership change: each node owns many small arcs of a hashed key
//! space (virtual nodes), so adding or removing one node moves only
//! `~1/n` of the keys instead of reshuffling everything.

use stackcache_vm::{Inst, Program};

use crate::wire::fnv1a64;

/// The program identity a submission is routed by: an FNV-1a-64 digest
/// of the entry point and every instruction word. Regime, peephole,
/// fuel, and the machine image are deliberately excluded — all regimes
/// of one program share one node, which is exactly what keeps that
/// node's per-program artifact cache hot.
#[must_use]
pub fn program_key(program: &Program) -> u64 {
    let mut bytes = Vec::with_capacity(4 + program.len() * 9);
    bytes.extend_from_slice(&(program.entry() as u32).to_le_bytes());
    for inst in program.insts() {
        bytes.push(inst.opcode());
        let payload: u64 = match inst {
            Inst::Lit(c) => *c as u64,
            other => other.target().map_or(0, u64::from),
        };
        bytes.extend_from_slice(&payload.to_le_bytes());
    }
    fnv1a64(&bytes)
}

/// SplitMix64's output finalizer. FNV-1a places inputs that differ only
/// in a few early bytes followed by zeros — node labels that differ in
/// the port, each salted with a little-endian replica number — on
/// correlated, nearly evenly spaced positions, so one of two nodes
/// could own over 90% of the ring. Every ring position and every key
/// goes through this mix first.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A consistent-hash ring mapping `u64` keys to node indexes.
///
/// Each node is hashed onto the ring `vnodes` times (salted by replica
/// number); a key routes to the first vnode clockwise from its own
/// (mixed) hash. Routing is deterministic for a fixed node list.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(position, node index)`, sorted by position.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// A ring over `labels` (one per node, e.g. the node's address)
    /// with `vnodes` virtual nodes each.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty or `vnodes` is zero — a ring with
    /// nothing on it cannot route.
    #[must_use]
    pub fn new(labels: &[String], vnodes: usize) -> HashRing {
        assert!(!labels.is_empty(), "a ring needs at least one node");
        assert!(vnodes > 0, "a node needs at least one ring point");
        let mut points = Vec::with_capacity(labels.len() * vnodes);
        for (node, label) in labels.iter().enumerate() {
            for replica in 0..vnodes {
                let mut salted = Vec::with_capacity(label.len() + 8);
                salted.extend_from_slice(label.as_bytes());
                salted.extend_from_slice(&(replica as u64).to_le_bytes());
                points.push((mix(fnv1a64(&salted)), node));
            }
        }
        points.sort_unstable();
        HashRing {
            points,
            nodes: labels.len(),
        }
    }

    /// How many nodes the ring routes across.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// The node owning `key`: the first ring point at or clockwise
    /// after the key's position, wrapping at the top.
    #[must_use]
    pub fn route(&self, key: u64) -> usize {
        let key = mix(key);
        let idx = self.points.partition_point(|&(pos, _)| pos < key);
        let (_, node) = self.points[idx % self.points.len()];
        node
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stackcache_vm::program_of;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = HashRing::new(&labels(3), 64);
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            let node = ring.route(key);
            assert!(node < 3);
            assert_eq!(node, ring.route(key), "same key, same node");
        }
    }

    #[test]
    fn keys_spread_across_every_node() {
        let ring = HashRing::new(&labels(4), 64);
        let mut counts = [0usize; 4];
        for key in (0..40_000u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            counts[ring.route(key)] += 1;
        }
        for (node, &c) in counts.iter().enumerate() {
            assert!(
                c > 40_000 / 4 / 4,
                "node {node} got only {c} of 40000 keys — the ring is badly skewed: {counts:?}"
            );
        }
    }

    /// Two nodes whose labels differ only in the port (the usual case:
    /// two processes on one host) must each own a fair share of the
    /// ring. Unmixed FNV positions left one of them as little as 4%.
    #[test]
    fn two_neighbouring_ports_split_the_ring_fairly() {
        for port in 40_000..40_040 {
            let labels = [
                format!("127.0.0.1:{port}"),
                format!("127.0.0.1:{}", port + 1),
            ];
            let ring = HashRing::new(&labels, 64);
            let first = (0..2_000u64)
                .filter(|i| ring.route(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) == 0)
                .count();
            assert!(
                (600..=1_400).contains(&first),
                "ports {port}/{}: node 0 owns {first} of 2000 keys",
                port + 1
            );
        }
    }

    #[test]
    fn removing_a_node_moves_only_its_own_keys() {
        // the consistent-hashing contract: keys not owned by the removed
        // node keep their placement
        let all = labels(4);
        let ring4 = HashRing::new(&all, 64);
        let ring3 = HashRing::new(&all[..3], 64);
        let mut moved = 0usize;
        let total = 20_000usize;
        for key in (0..total as u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
            let before = ring4.route(key);
            let after = ring3.route(key);
            if before < 3 {
                assert_eq!(before, after, "a surviving node's key moved");
            } else {
                moved += 1;
            }
        }
        assert!(moved > 0, "the removed node owned nothing");
    }

    #[test]
    fn program_key_ignores_everything_but_the_program() {
        use stackcache_vm::Inst;
        let a = program_of(&[Inst::Lit(6), Inst::Dup, Inst::Mul, Inst::Halt]);
        let b = program_of(&[Inst::Lit(6), Inst::Dup, Inst::Mul, Inst::Halt]);
        let c = program_of(&[Inst::Lit(7), Inst::Dup, Inst::Mul, Inst::Halt]);
        assert_eq!(program_key(&a), program_key(&b));
        assert_ne!(program_key(&a), program_key(&c));
    }
}
