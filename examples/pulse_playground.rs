//! Pulse-level playground: watch individual fluxons move through the HC
//! access circuits — HC-WRITE serializes a 2-bit value into a pulse train,
//! an HC-DRO cell accumulates it, HC-CLK pops it, and HC-READ counts it
//! back into parallel bits. Prints the ASCII waveforms.
//!
//! Run with: `cargo run --example pulse_playground [value0..3]`
//!
//! Set `VCD_OUT=/path/to/file.vcd` to additionally dump the waveforms in
//! VCD format for GTKWave.

use sfq_cells::composite::{build_hc_clk, build_hc_read, build_hc_write};
use sfq_cells::typed::TypedBuilder;
use sfq_sim::netlist::Pin;
use sfq_sim::prelude::*;
use sfq_sim::trace::render_waveforms;

/// The playground circuit's pins: the ones `main` injects into or reads,
/// plus two internal ones worth watching.
struct Pins {
    write_b0: Pin,
    write_b1: Pin,
    clk: Pin,
    read: Pin,
    b0: Pin,
    b1: Pin,
    /// HC-WRITE's pulse train into the cell.
    train: Pin,
    /// The cell's pops.
    q: Pin,
}

fn main() {
    let value: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    assert!(value < 4, "a dual-bit cell stores 0..=3");

    // HC-WRITE -> HC-DRO -> HC-READ, with HC-CLK popping the cell. The
    // typed builder checks every output is consumed exactly once; the
    // pins `main` injects into or reads are declared external.
    let (elab, pins) = TypedBuilder::elaborate(|b| {
        let write = build_hc_write(b);
        let cell = b.hcdro();
        let clk = build_hc_clk(b);
        let read = build_hc_read(b);
        let (train, q) = (write.output.pin(), cell.q.pin());
        b.bind(write.output, cell.d);
        b.bind(clk.output, cell.clk);
        b.bind(cell.q, read.input);
        b.external(read.reset);
        b.expose(read.carry);
        Pins {
            write_b0: b.external(write.b0),
            write_b1: b.external(write.b1),
            clk: b.external(clk.input),
            read: b.external(read.read),
            b0: b.expose(read.b0),
            b1: b.expose(read.b1),
            train,
            q,
        }
    });
    elab.assert_total();

    let mut sim = Simulator::new(elab.netlist);
    let p_train = sim.probe(pins.train, "write train");
    let p_q = sim.probe(pins.q, "cell pops");
    let p_b0 = sim.probe(pins.b0, "B0");
    let p_b1 = sim.probe(pins.b1, "B1");

    // Write the value at t=0 (both bits pulsed simultaneously).
    if value & 1 != 0 {
        sim.inject(pins.write_b0, Time::ZERO);
    }
    if value & 2 != 0 {
        sim.inject(pins.write_b1, Time::ZERO);
    }
    sim.run();
    println!(
        "wrote {value}: the cell holds {} fluxon(s)",
        sim.stored(pins.q.component).unwrap()
    );

    // Pop everything with one tripled enable, then latch the counters.
    sim.inject(pins.clk, Time::from_ps(100.0));
    sim.run();
    sim.inject(pins.read, Time::from_ps(200.0));
    sim.run();

    let b0 = !sim.probe_trace(p_b0).is_empty() as u64;
    let b1 = !sim.probe_trace(p_b1).is_empty() as u64;
    println!("HC-READ decoded: b1 b0 = {b1}{b0} (value {})", b1 * 2 + b0);
    assert_eq!(b1 * 2 + b0, value);

    let traces = [
        sim.probe_trace(p_train).clone(),
        sim.probe_trace(p_q).clone(),
        sim.probe_trace(p_b0).clone(),
        sim.probe_trace(p_b1).clone(),
    ];
    println!("\nwaveforms (5 ps bins; | = one pulse, 2/3 = multiple in a bin):");
    print!(
        "{}",
        render_waveforms(&traces, Time::ZERO, Duration::from_ps(5.0), 44)
    );
    println!("\nviolations: {:?}", sim.violations());

    if let Ok(path) = std::env::var("VCD_OUT") {
        let doc = sfq_sim::vcd::to_vcd(&traces, "hiperrf_playground");
        std::fs::write(&path, doc).expect("writable VCD path");
        println!("wrote VCD to {path}");
    }
}
