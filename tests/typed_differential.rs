//! Pinned fingerprints of the typed elaboration layer: every registered
//! design, and the shared sub-circuits they are built from, must keep
//! the netlist digest and the simulation behaviour they had when the raw
//! `CircuitBuilder` constructors were still there to compare against.
//!
//! * **Digests** — `netlist_digest` of every design at the 4×4, 16×16 and
//!   32×32 paper geometries, of a standalone NDROC demux at 1–4 levels,
//!   and of the three HC composites, pinned as constants. Any structural
//!   divergence — a cell created in a different order, a label changed, a
//!   cell or wire re-timed by a femtosecond — trips them. (A single
//!   HiPerRF bank *is* the HiPerRF design, so its digests are the
//!   design's.)
//! * **Observables** — an FNV-64 over everything a write/peek/read sweep
//!   exposes (reads, violations, scheduler counters and the exported VCD),
//!   pinned per design at 4×4 on both engines and at 16×16 on the dyn
//!   interpreter.
//!
//! Every constant was measured on builds whose raw and typed elaborations
//! agreed, so the pins carry that differential forward. The digests were
//! re-measured once on those same netlists when the digest began to hash
//! each cell's op parameters (delays, windows and capacity) beside its
//! kind; the observables did not move.

use hiperrf::config::RfGeometry;
use hiperrf::demux::elaborate_demux;
use hiperrf::designs::{registry, Design};
use hiperrf::hashing::{design_digest, digest_hex, netlist_digest, Fnv64};
use hiperrf::RegisterFile;
use sfq_cells::composite::{build_hc_clk, build_hc_read, build_hc_write};
use sfq_cells::typed::TypedBuilder;
use sfq_sim::prelude::*;

/// `design_digest` of every registered design at the 4×4, 16×16 and
/// 32×32 paper geometries, in that order.
const PINNED_DIGESTS: [(Design, [&str; 3]); 4] = [
    (
        Design::NdroBaseline,
        ["5ebbd9f002250b9b", "296051573bab41c9", "1d061eeb329c8673"],
    ),
    (
        Design::HiPerRf,
        ["1ec8142ddbbd772c", "be1f1440003f8efe", "27af13edb2b8171e"],
    ),
    (
        Design::DualBanked,
        ["f1f03aac101e7649", "e084a1c20b699406", "0955618a4fa7f92e"],
    ),
    (
        Design::ShiftRegister,
        ["e54c6189154fff35", "9dd42a7ac2eca5f0", "e5a140ede57102eb"],
    ),
];

/// `netlist_digest` of a standalone demux tree at 1, 2, 3 and 4 levels,
/// every decoded output exposed.
const PINNED_DEMUX_DIGESTS: [&str; 4] = [
    "01e416084062eac5",
    "88dc05d456825281",
    "173e6b5e6a490af1",
    "0d5b6fabca47a3c1",
];

/// `netlist_digest` of HC-CLK, HC-WRITE and HC-READ elaborated in that
/// order into one builder, every endpoint declared.
const PINNED_COMPOSITES_DIGEST: &str = "e1d7bc36353acf7b";

/// Observables fingerprint (see [`observables`]) of every registered
/// design at 4×4 (identical on both engines) and at 16×16 on the dyn
/// interpreter.
const PINNED_OBSERVABLES: [(Design, [&str; 2]); 4] = [
    (
        Design::NdroBaseline,
        ["dbf8536b959ea288", "b9490fbfb46c0834"],
    ),
    (Design::HiPerRf, ["bd46b7655b2028e5", "d207774b67794dc4"]),
    (Design::DualBanked, ["f3c811d46bbf91b7", "d8a1d8c1e0c59947"]),
    (
        Design::ShiftRegister,
        ["3463957e888a250e", "7666e414e2e33a51"],
    ),
];

/// Drives a built register file through a write/peek/read sweep on one
/// engine and fingerprints everything observable: the reads and peeks,
/// every violation field, the scheduler counters, and the VCD bytes.
fn observables(mut rf: Box<dyn RegisterFile>, g: RfGeometry, engine: EngineKind) -> u64 {
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
    assert!(vcd.contains("$var"), "empty VCD on {engine}");
    let mut h = Fnv64::new();
    h.write_u64(reads.len() as u64);
    for &r in &reads {
        h.write_u64(r);
    }
    let violations = rf.violations();
    h.write_u64(violations.len() as u64);
    for v in violations {
        h.write_u64(v.at.as_fs());
        h.write_str(&v.cell);
        h.write_str(v.kind);
        h.write_str(&v.detail);
    }
    let stats = rf.sim_stats();
    h.write_u64(stats.events_processed);
    h.write_u64(stats.peak_queue_depth as u64);
    h.write_u64(stats.sim_time_advanced.as_fs());
    h.write_u64(stats.fanout_rows_visited);
    h.write_str(&vcd);
    h.finish()
}

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
fn module_digests_match_the_pinned_constants() {
    for (levels, want) in (1..).zip(PINNED_DEMUX_DIGESTS) {
        let (netlist, _) = elaborate_demux(levels);
        assert_eq!(
            digest_hex(netlist_digest(&netlist)),
            want,
            "demux, {levels} levels"
        );
    }

    let (elab, ()) = TypedBuilder::elaborate(|b| {
        let clk = build_hc_clk(b);
        let w = build_hc_write(b);
        let r = build_hc_read(b);
        b.external(clk.input);
        b.expose(clk.output);
        b.external(w.b0);
        b.external(w.b1);
        b.expose(w.output);
        b.external(r.input);
        b.external(r.read);
        b.external(r.reset);
        b.expose(r.b0);
        b.expose(r.b1);
        b.expose(r.carry);
    });
    elab.assert_total();
    assert_eq!(
        digest_hex(netlist_digest(&elab.netlist)),
        PINNED_COMPOSITES_DIGEST,
        "HC composites"
    );
}

#[test]
fn observables_match_the_pinned_fingerprints() {
    assert!(
        registry().eq(PINNED_OBSERVABLES.iter().map(|&(design, _)| design)),
        "every registered design has pinned observables"
    );
    let g = RfGeometry::paper_4x4();
    for (design, [at_4x4, _]) in PINNED_OBSERVABLES {
        for engine in EngineKind::ALL {
            assert_eq!(
                digest_hex(observables(design.build(g), g, engine)),
                at_4x4,
                "{design} at {g} on {engine}"
            );
        }
    }
}

#[test]
fn observables_match_the_pinned_fingerprints_at_16x16() {
    let g = RfGeometry::paper_16x16();
    let engine = EngineKind::DynInterpreter;
    for (design, [_, at_16x16]) in PINNED_OBSERVABLES {
        assert_eq!(
            digest_hex(observables(design.build(g), g, engine)),
            at_16x16,
            "{design} at {g} on {engine}"
        );
    }
}
