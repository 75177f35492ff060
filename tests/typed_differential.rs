//! Typed-vs-raw differential suite: the typed elaboration layer must be a
//! *refinement* of the raw `CircuitBuilder` path, not a reimplementation —
//! for every registered design and geometry the two builds must produce
//! the same netlist digest and be observably indistinguishable under
//! simulation (reads, peeks, violations, scheduler counters, and the
//! exported VCD, byte for byte) on every engine.
//!
//! This is what lets the designs default to the typed path: any structural
//! divergence — a cell created in a different order, a label changed, a
//! wire re-timed — trips the digest; any behavioural divergence trips the
//! workload sweep.
//!
//! Both sides of that comparison go through the same `Netlist`, so the
//! digests are also pinned as constants: a change to netlist storage that
//! moved a label byte or a wire would pass typed == raw but fail here.

use hiperrf::config::RfGeometry;
use hiperrf::designs::{registry, Design};
use hiperrf::hashing::{design_digest, design_digest_raw, digest_hex};
use hiperrf::RegisterFile;
use sfq_sim::prelude::*;

/// Everything one build exposes: functional results plus every observable
/// side channel.
#[derive(Debug, PartialEq)]
struct Observables {
    reads: Vec<u64>,
    violations: Vec<Violation>,
    stats: SimStats,
    vcd: String,
}

/// Drives a built register file through a write/peek/read sweep on one
/// engine and collects everything observable.
fn drive(mut rf: Box<dyn RegisterFile>, g: RfGeometry, engine: EngineKind) -> Observables {
    rf.set_engine(engine);
    let mask = (1u64 << g.width()) - 1;
    let mut reads = Vec::new();
    for reg in 0..g.registers() {
        rf.write(reg, (0x7D1F + 5 * reg as u64) & mask);
        reads.push(rf.peek(reg));
    }
    for reg in 0..g.registers() {
        reads.push(rf.read(reg));
        reads.push(rf.peek(reg));
    }
    let vcd = rf.harness().sim().to_vcd("typed_differential");
    Observables {
        reads,
        violations: rf.violations().to_vec(),
        stats: rf.sim_stats(),
        vcd,
    }
}

/// `design_digest` of every registered design at the 4×4, 16×16 and
/// 32×32 paper geometries, in that order.
const PINNED_DIGESTS: [(Design, [&str; 3]); 4] = [
    (
        Design::NdroBaseline,
        ["8bca4858232897fe", "c31117970cc3621c", "3a43aaa952ac9087"],
    ),
    (
        Design::HiPerRf,
        ["ce1cd15a7cd157a4", "f05400f411d216e4", "cf89c6809600cba6"],
    ),
    (
        Design::DualBanked,
        ["dfe51b73325c0cd5", "01c9ae872a9dcc50", "5d218630ff3191a2"],
    ),
    (
        Design::ShiftRegister,
        ["677a97048b6bbbe8", "bab93c9fbc5b6f6f", "1eb216e1567188c6"],
    ),
];

#[test]
fn digests_match_the_pinned_constants() {
    assert!(
        registry().eq(PINNED_DIGESTS.iter().map(|&(design, _)| design)),
        "every registered design has pinned digests"
    );
    let geometries = [
        RfGeometry::paper_4x4(),
        RfGeometry::paper_16x16(),
        RfGeometry::paper_32x32(),
    ];
    for (design, digests) in PINNED_DIGESTS {
        for (g, want) in geometries.into_iter().zip(digests) {
            assert_eq!(
                digest_hex(design_digest(design, g)),
                want,
                "{design} at {g}"
            );
        }
    }
}

#[test]
fn typed_and_raw_digests_agree_for_every_design() {
    for design in registry() {
        for g in [RfGeometry::paper_4x4(), RfGeometry::paper_16x16()] {
            let typed = design_digest(design, g);
            let raw = design_digest_raw(design, g);
            assert_eq!(
                typed,
                raw,
                "{design} at {g}: typed digest {} != raw digest {}",
                digest_hex(typed),
                digest_hex(raw)
            );
        }
    }
}

#[test]
fn typed_and_raw_builds_are_observably_identical() {
    let g = RfGeometry::paper_4x4();
    for design in registry() {
        for engine in EngineKind::ALL {
            let typed = drive(design.build(g), g, engine);
            let raw = drive(design.build_raw(g), g, engine);
            assert!(
                typed.vcd.contains("$var"),
                "{design} on {engine}: empty VCD"
            );
            assert_eq!(typed, raw, "{design} at {g} on {engine}");
        }
    }
}

#[test]
fn typed_and_raw_builds_match_at_16x16() {
    let g = RfGeometry::paper_16x16();
    for design in registry() {
        let typed = drive(design.build(g), g, EngineKind::DynInterpreter);
        let raw = drive(design.build_raw(g), g, EngineKind::DynInterpreter);
        assert_eq!(typed, raw, "{design} at {g}");
    }
}
