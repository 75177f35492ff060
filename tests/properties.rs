//! Randomized property tests over the core invariants, driven by the
//! in-repo deterministic [`Rng64`] (the workspace builds offline, so no
//! proptest):
//!
//! * RV32I encode/decode round trip for arbitrary instructions;
//! * HC-DRO write/pop conservation for arbitrary pulse trains;
//! * structural HiPerRF storage behaves like a plain array under random
//!   operation sequences, with reads always restoring.
//!
//! Every test fixes its seed, so a failure reproduces exactly; the case
//! counts match what the old proptest configs ran.

use hiperrf::config::RfGeometry;
use hiperrf::hiperrf_rf::HiPerRf;
use hiperrf::RegisterFile;
use sfq_cells::builder::CircuitBuilder;
use sfq_cells::storage::HcDro;
use sfq_riscv::decode::decode;
use sfq_riscv::encode::encode;
use sfq_riscv::isa::{AluImmOp, AluOp, BranchCond, Instr, LoadWidth, Reg, StoreWidth};
use sfq_sim::netlist::Pin;
use sfq_sim::prelude::*;

fn random_reg(rng: &mut Rng64) -> Reg {
    Reg::new(rng.next_below(32) as u8)
}

/// Uniform `i32` in `[lo, hi]`.
fn random_range(rng: &mut Rng64, lo: i32, hi: i32) -> i32 {
    lo + rng.next_below((hi - lo + 1) as usize) as i32
}

fn random_instr(rng: &mut Rng64) -> Instr {
    let imm12 = |rng: &mut Rng64| random_range(rng, -2048, 2047);
    let upper = |rng: &mut Rng64| (rng.next_below(0x10_0000) as u32) << 12;
    match rng.next_below(12) {
        0 => Instr::Lui {
            rd: random_reg(rng),
            imm: upper(rng),
        },
        1 => Instr::Auipc {
            rd: random_reg(rng),
            imm: upper(rng),
        },
        2 => Instr::Jal {
            rd: random_reg(rng),
            offset: random_range(rng, -262_144, 262_143) * 2,
        },
        3 => Instr::Jalr {
            rd: random_reg(rng),
            rs1: random_reg(rng),
            offset: imm12(rng),
        },
        4 => {
            let cond = [
                BranchCond::Eq,
                BranchCond::Ne,
                BranchCond::Lt,
                BranchCond::Ge,
                BranchCond::Ltu,
                BranchCond::Geu,
            ][rng.next_below(6)];
            Instr::Branch {
                cond,
                rs1: random_reg(rng),
                rs2: random_reg(rng),
                offset: imm12(rng) * 2,
            }
        }
        5 => {
            let width = [
                LoadWidth::B,
                LoadWidth::H,
                LoadWidth::W,
                LoadWidth::Bu,
                LoadWidth::Hu,
            ][rng.next_below(5)];
            Instr::Load {
                width,
                rd: random_reg(rng),
                rs1: random_reg(rng),
                offset: imm12(rng),
            }
        }
        6 => {
            let width = [StoreWidth::B, StoreWidth::H, StoreWidth::W][rng.next_below(3)];
            Instr::Store {
                width,
                rs2: random_reg(rng),
                rs1: random_reg(rng),
                offset: imm12(rng),
            }
        }
        7 => {
            let op = [
                AluImmOp::Addi,
                AluImmOp::Slti,
                AluImmOp::Sltiu,
                AluImmOp::Xori,
                AluImmOp::Ori,
                AluImmOp::Andi,
            ][rng.next_below(6)];
            Instr::AluImm {
                op,
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: imm12(rng),
            }
        }
        8 => {
            let op = [AluImmOp::Slli, AluImmOp::Srli, AluImmOp::Srai][rng.next_below(3)];
            Instr::AluImm {
                op,
                rd: random_reg(rng),
                rs1: random_reg(rng),
                imm: random_range(rng, 0, 31),
            }
        }
        9 => {
            let op = [
                AluOp::Add,
                AluOp::Sub,
                AluOp::Sll,
                AluOp::Slt,
                AluOp::Sltu,
                AluOp::Xor,
                AluOp::Srl,
                AluOp::Sra,
                AluOp::Or,
                AluOp::And,
            ][rng.next_below(10)];
            Instr::Alu {
                op,
                rd: random_reg(rng),
                rs1: random_reg(rng),
                rs2: random_reg(rng),
            }
        }
        10 => Instr::Fence,
        _ => [Instr::Ecall, Instr::Ebreak][rng.next_below(2)],
    }
}

#[test]
fn encode_decode_round_trip() {
    let mut rng = Rng64::new(0x0e1c_0de5);
    for case in 0..512 {
        let instr = random_instr(&mut rng);
        let word = encode(instr);
        let back = decode(word).expect("every encoded instruction decodes");
        assert_eq!(back, instr, "case {case}: word {word:#010x}");
    }
}

#[test]
fn disassemble_assemble_round_trip() {
    // Branch/jump targets print as numeric offsets, which the assembler
    // re-resolves to the identical encoding.
    let mut rng = Rng64::new(0xd15a_53b1);
    for _ in 0..512 {
        let instr = random_instr(&mut rng);
        let text = sfq_riscv::disasm::disassemble(instr);
        let prog = sfq_riscv::asm::assemble(&text, 0)
            .unwrap_or_else(|e| panic!("`{text}` failed to assemble: {e}"));
        assert_eq!(prog.words.len(), 1, "`{text}` expanded unexpectedly");
        assert_eq!(prog.words[0], encode(instr), "`{text}`");
    }
}

#[test]
fn hcdro_conserves_fluxons() {
    // Writing w pulses and clocking r times pops min(min(w, 3), r) pulses
    // and leaves the rest stored. Exhaustive over the old strategy's
    // domain (writes, reads in 0..6).
    for writes in 0u8..6 {
        for reads in 0u8..6 {
            let mut b = CircuitBuilder::new();
            let cell = b.hcdro();
            let mut sim = Simulator::new(b.finish());
            let probe = sim.probe(Pin::new(cell, HcDro::Q), "q");
            for i in 0..writes {
                sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(10.0 * f64::from(i)));
            }
            for i in 0..reads {
                sim.inject(
                    Pin::new(cell, HcDro::CLK),
                    Time::from_ps(200.0 + 10.0 * f64::from(i)),
                );
            }
            sim.run();
            let stored_in = writes.min(3);
            let popped = stored_in.min(reads);
            assert_eq!(
                sim.probe_trace(probe).len(),
                popped as usize,
                "w={writes} r={reads}"
            );
            assert_eq!(
                sim.stored(cell),
                Some(stored_in - popped),
                "w={writes} r={reads}"
            );
            assert!(sim.violations().is_empty(), "w={writes} r={reads}");
        }
    }
}

#[test]
fn structural_hiperrf_matches_array_model() {
    // Structural simulations are slower; fewer cases (matches the old
    // 12-case proptest config).
    for case in 0..12u64 {
        let mut rng = Rng64::fork(0x57a7_e5e1, case);
        let mut rf = HiPerRf::new(RfGeometry::paper_4x4());
        let mut model = [0u64; 4];
        let ops = 1 + rng.next_below(13);
        for _ in 0..ops {
            let reg = rng.next_below(4);
            let value = rng.next_u64() & 0xf;
            if rng.next_u64() & 1 == 0 {
                rf.write(reg, value);
                model[reg] = value;
            } else {
                assert_eq!(rf.read(reg), model[reg], "case {case}");
                // Restoring read: storage unchanged afterwards.
                assert_eq!(rf.peek(reg), model[reg], "case {case}");
            }
        }
        assert!(
            rf.violations().is_empty(),
            "case {case}: {:?}",
            rf.violations()
        );
    }
}
