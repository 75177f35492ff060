//! Content hashing for netlists and jobs.
//!
//! The job server's write-ahead log and result cache are *content
//! addressed*: a job's identity is a digest over the elaborated netlist it
//! targets plus its parameters and seed, so two requests for the same work
//! share one cache entry no matter how they were phrased, and a netlist
//! change silently invalidates every stale result. The workspace builds
//! offline, so the digest is a self-contained FNV-1a 64 — collision
//! resistance against an adversary is not a goal (the cache is local), but
//! sensitivity to every component, wire, and delay femtosecond is.

use sfq_sim::cell::CellOp;
use sfq_sim::netlist::Netlist;
use sfq_sim::time::Duration;

use crate::config::RfGeometry;
use crate::designs::Design;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a 64 hasher with helpers for the primitive shapes the
/// job layer digests (bytes, integers, floats-by-bits, strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` as eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern — exact, so digests
    /// distinguish values that print identically.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a string, length-prefixed so concatenations cannot collide.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a 64 of a byte slice.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write(bytes);
    h.finish()
}

/// Renders a digest as the fixed-width lowercase hex the WAL, cache keys,
/// and HTTP responses use.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses the hex form produced by [`digest_hex`].
pub fn parse_digest_hex(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Digest of an elaborated netlist: every component (kind, op parameters
/// and full hierarchical label, in id order) and every wire (endpoints and
/// delay at femtosecond resolution, sorted — so the digest covers the wire
/// *set* and does not depend on the order a builder inserted one pin's
/// fan-out in). Component ids are dense and assigned in elaboration order,
/// so two builds of the same design hash identically, and any edit of the
/// model — a cell swapped, a cell or wire re-timed by a femtosecond, a
/// window or capacity changed — changes the digest. Cell state is not
/// hashed: the digest names the circuit, not a moment of its run. A
/// simulator's netlist under a delay-variation fault plan holds each
/// cell's instance delays, so its digest names that variant.
pub fn netlist_digest(netlist: &Netlist) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(netlist.component_count() as u64);
    for (id, label, cell) in netlist.iter() {
        h.write_u64(id.index() as u64);
        h.write_str(cell.kind().name());
        write_op_params(&mut h, &cell.op);
        h.write_str(label);
    }
    let mut wires: Vec<_> = netlist
        .wires()
        .map(|w| {
            (
                w.from.component.index(),
                w.from.index,
                w.to.component.index(),
                w.to.index,
                w.delay.as_fs(),
            )
        })
        .collect();
    wires.sort_unstable();
    h.write_u64(wires.len() as u64);
    for (fc, fp, tc, tp, fs) in wires {
        h.write_u64(fc as u64);
        h.write_u64(u64::from(fp));
        h.write_u64(tc as u64);
        h.write_u64(u64::from(tp));
        h.write_u64(fs);
    }
    h.finish()
}

/// Absorbs an op's parameters: an HC-DRO's capacity, then four durations
/// in femtoseconds, in declaration order and zero-padded. The kind name
/// hashed before them says which duration is which and fixes a gate's
/// truth function.
fn write_op_params(h: &mut Fnv64, op: &CellOp) {
    let z = Duration::ZERO;
    let durations = match *op {
        CellOp::Dro { q_delay } => [q_delay, z, z, z],
        CellOp::HcDro {
            capacity,
            q_delay,
            sep,
            hard_sep,
        } => {
            h.write_u64(u64::from(capacity));
            [q_delay, sep, hard_sep, z]
        }
        CellOp::Ndro { out_delay } => [out_delay, z, z, z],
        CellOp::Ndroc { prop, rearm } => [prop, rearm, z, z],
        CellOp::Dand { window, delay } => [window, delay, z, z],
        CellOp::Gate { func: _, delay } | CellOp::Not { delay } => [delay, z, z, z],
        CellOp::Sync {
            setup,
            track,
            hold,
            delay,
        } => [setup, track, hold, delay],
        CellOp::Jtl { delay } | CellOp::Splitter { delay } => [delay, z, z, z],
        CellOp::Merger { dead, delay } => [dead, delay, z, z],
        CellOp::CounterBit { carry, read } => [carry, read, z, z],
    };
    for d in durations {
        h.write_u64(d.as_fs());
    }
}

/// Digest of a registered design at a geometry: elaborates the structural
/// netlist and hashes it. This is the "netlist hash" component of the job
/// server's cache keys — the design *as built*, not the enum label, so a
/// change to any cell library or builder invalidates cached results.
pub fn design_digest(design: Design, geometry: RfGeometry) -> u64 {
    let rf = design.build(geometry);
    netlist_digest(rf.netlist())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::registry;

    #[test]
    fn fnv_matches_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_round_trips() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(parse_digest_hex(&digest_hex(v)), Some(v));
        }
        assert_eq!(parse_digest_hex("xyz"), None);
        assert_eq!(parse_digest_hex("123"), None);
    }

    #[test]
    fn rebuilt_design_hashes_identically() {
        for design in registry() {
            let a = design_digest(design, RfGeometry::paper_4x4());
            let b = design_digest(design, RfGeometry::paper_4x4());
            assert_eq!(a, b, "{design}: elaboration must be deterministic");
        }
    }

    #[test]
    fn designs_and_geometries_hash_apart() {
        let mut seen = std::collections::HashSet::new();
        for design in registry() {
            for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
                assert!(
                    seen.insert(design_digest(design, g)),
                    "{design} at {g} collides with an earlier digest"
                );
            }
        }
    }

    #[test]
    fn a_single_wire_edit_changes_the_digest() {
        let mut rf = crate::ndro_rf::NdroRf::new(RfGeometry::paper_4x4());
        let before = netlist_digest(crate::harness::RegisterFile::netlist(&rf));
        let netlist = crate::harness::RegisterFile::harness_mut(&mut rf)
            .sim_mut()
            .netlist_mut();
        let (id, _, cell) = netlist.iter().next().expect("non-empty netlist");
        // The first pin past the cell's inputs: no wire lands there yet.
        let unused = cell.kind().inputs();
        netlist.connect(
            sfq_sim::netlist::Pin::new(id, 0),
            sfq_sim::netlist::Pin::new(id, unused),
            Duration::from_ps(1.0),
        );
        let after = netlist_digest(crate::harness::RegisterFile::netlist(&rf));
        assert_ne!(before, after);
    }

    #[test]
    fn a_cell_delay_edit_changes_the_digest() {
        use sfq_cells::typed::TypedBuilder;

        // The same JTL -> DRO netlist, its JTL tuned 1 ps apart.
        let jtl_into_dro = |ps: f64| {
            let (elab, ()) = TypedBuilder::elaborate(|b| {
                let jtl = b.jtl_with_delay(Duration::from_ps(ps));
                let dro = b.dro();
                b.bind(jtl.out, dro.d);
                b.external(jtl.input);
                b.external(dro.clk);
                b.expose(dro.q);
            });
            elab.assert_total();
            netlist_digest(&elab.netlist)
        };
        assert_eq!(jtl_into_dro(10.0), jtl_into_dro(10.0));
        assert_ne!(jtl_into_dro(10.0), jtl_into_dro(11.0));
    }
}
