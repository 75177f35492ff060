//! Micro-bench: the RISC-V toolchain substrate (assembler, codec,
//! functional executor) and the event-driven pulse simulator kernel.

use hiperrf_bench::microbench::bench;
use sfq_cells::composite::build_hc_clk;
use sfq_cells::typed::TypedBuilder;
use sfq_riscv::asm::assemble;
use sfq_riscv::decode::decode;
use sfq_riscv::encode::encode;
use sfq_riscv::exec::Cpu;
use sfq_riscv::mem::Memory;
use sfq_sim::prelude::*;
use sfq_workloads::kernels::sort::qsort;
use std::hint::black_box;

fn main() {
    let w = qsort();
    bench("assemble_qsort", || {
        assemble(black_box(&w.source), 0).expect("assembles")
    });

    let prog = assemble(&w.source, 0).expect("assembles");
    // Only true instruction words round-trip; data words may not decode.
    let words: Vec<u32> = prog
        .words
        .iter()
        .copied()
        .filter(|&w| decode(w).is_ok())
        .collect();
    bench("decode_encode_round_trip", || {
        let mut acc = 0u32;
        for &w in &words {
            acc ^= encode(decode(black_box(w)).expect("decodes"));
        }
        acc
    });

    bench("functional_qsort", || {
        let mut mem = Memory::new(w.mem_size);
        mem.load_image(prog.base, &prog.words);
        let mut cpu = Cpu::new(0);
        cpu.run(&mut mem, w.budget).expect("runs")
    });

    let (elab, input) = TypedBuilder::elaborate(|b| {
        let clk = build_hc_clk(b);
        b.expose(clk.output);
        b.external(clk.input)
    });
    elab.assert_total();
    let mut sim = Simulator::new(elab.netlist);
    let mut t = Time::from_ps(10.0);
    bench("hc_clk_pulse_tripling", || {
        sim.inject(input, t);
        let stats = sim.run();
        t = sim.now() + Duration::from_ps(100.0);
        stats.emitted
    });
}
