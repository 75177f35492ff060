//! Two-pass RV32I assembler.
//!
//! Supports labels, the full RV32I base set, the common pseudo-instructions
//! (`li`, `la`, `mv`, `j`, `call`, `ret`, `beqz`, `bgt`, …) and the
//! directives `.word`, `.space`, and `.align`. Programs assemble to flat
//! word images loaded at a base address; `la` resolves labels against that
//! base. This is the toolchain the workload kernels are written in.

use std::collections::HashMap;
use std::fmt;

use crate::encode::encode;
use crate::isa::{AluImmOp, AluOp, BranchCond, Instr, LoadWidth, Reg, StoreWidth};

/// Classification of an assembled word: instruction or embedded data.
///
/// Program transformations (instruction scheduling, register renaming)
/// must never touch data words — a data word can coincidentally decode as
/// a valid instruction, so decodability alone cannot distinguish them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordKind {
    /// An instruction emitted from a mnemonic.
    Code,
    /// A `.word` / `.space` datum.
    Data,
}

/// An assembled program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Instruction/data words, in order, starting at [`Program::base`].
    pub words: Vec<u32>,
    /// Per-word classification, parallel to [`Program::words`].
    pub kinds: Vec<WordKind>,
    /// Label → absolute byte address.
    pub symbols: HashMap<String, u32>,
    /// Load address of `words[0]`.
    pub base: u32,
}

impl Program {
    /// Looks up a label's absolute address.
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }
}

/// Assembly error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

/// One item emitted during the first pass.
#[derive(Debug, Clone)]
enum Item {
    /// A concrete instruction.
    Instr(Instr),
    /// An instruction needing a label (branch/jal/la/li-upper…).
    Fixup { line: usize, kind: FixupKind },
    /// A literal data word.
    Word(u32),
}

#[derive(Debug, Clone)]
enum FixupKind {
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        label: String,
    },
    Jal {
        rd: Reg,
        label: String,
    },
    /// `la rd, label` — expands to `lui + addi` against the absolute address.
    LaUpper {
        rd: Reg,
        label: String,
    },
    LaLower {
        rd: Reg,
        label: String,
    },
}

/// Assembles `source` into a [`Program`] loaded at `base`.
///
/// # Errors
///
/// Returns the first [`AsmError`] encountered (unknown mnemonic, bad
/// operand, undefined or duplicate label, out-of-range immediate).
pub fn assemble(source: &str, base: u32) -> Result<Program, AsmError> {
    let mut items: Vec<Item> = Vec::new();
    let mut symbols: HashMap<String, u32> = HashMap::new();

    let err = |line: usize, msg: String| AsmError { line, message: msg };

    // Pass 1: parse lines, collect labels, emit items (pseudo-expanded).
    for (idx, raw_line) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut line = raw_line;
        if let Some(pos) = line.find(['#', ';']) {
            line = &line[..pos];
        }
        let mut rest = line.trim();
        // Labels (possibly several) at line start.
        while let Some(colon) = rest.find(':') {
            let (label, after) = rest.split_at(colon);
            let label = label.trim();
            if label.is_empty()
                || !label
                    .chars()
                    .all(|c| c.is_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            let addr = base + 4 * items.len() as u32;
            if symbols.insert(label.to_string(), addr).is_some() {
                return Err(err(line_no, format!("duplicate label `{label}`")));
            }
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        parse_statement(rest, line_no, &mut items).map_err(|m| err(line_no, m))?;
    }

    // Pass 2: resolve fixups.
    let mut words = Vec::with_capacity(items.len());
    let mut kinds = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let pc = base + 4 * i as u32;
        kinds.push(match item {
            Item::Word(_) => WordKind::Data,
            _ => WordKind::Code,
        });
        let word = match item {
            Item::Instr(instr) => encode(*instr),
            Item::Word(w) => *w,
            Item::Fixup { line, kind } => {
                let resolve = |label: &String| {
                    symbols
                        .get(label)
                        .copied()
                        .ok_or_else(|| err(*line, format!("undefined label `{label}`")))
                };
                match kind {
                    FixupKind::Branch {
                        cond,
                        rs1,
                        rs2,
                        label,
                    } => {
                        let target = resolve(label)?;
                        let offset = target.wrapping_sub(pc) as i32;
                        if !(-4096..=4094).contains(&offset) || offset % 2 != 0 {
                            return Err(err(*line, format!("branch offset {offset} out of range")));
                        }
                        encode(Instr::Branch {
                            cond: *cond,
                            rs1: *rs1,
                            rs2: *rs2,
                            offset,
                        })
                    }
                    FixupKind::Jal { rd, label } => {
                        let target = resolve(label)?;
                        let offset = target.wrapping_sub(pc) as i32;
                        encode(Instr::Jal { rd: *rd, offset })
                    }
                    FixupKind::LaUpper { rd, label } => {
                        let addr = resolve(label)?;
                        let upper = addr.wrapping_add(0x800) & 0xffff_f000;
                        encode(Instr::Lui {
                            rd: *rd,
                            imm: upper,
                        })
                    }
                    FixupKind::LaLower { rd, label } => {
                        let addr = resolve(label)?;
                        let lower = (addr & 0xfff) as i32;
                        let lower = if lower >= 0x800 {
                            lower - 0x1000
                        } else {
                            lower
                        };
                        encode(Instr::AluImm {
                            op: AluImmOp::Addi,
                            rd: *rd,
                            rs1: *rd,
                            imm: lower,
                        })
                    }
                }
            }
        };
        words.push(word);
    }

    Ok(Program {
        words,
        kinds,
        symbols,
        base,
    })
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s),
    };
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else if let Some(bin) = body.strip_prefix("0b") {
        i64::from_str_radix(bin, 2).ok()?
    } else {
        body.parse().ok()?
    };
    Some(if neg { -v } else { v })
}

fn reg(s: &str) -> Result<Reg, String> {
    Reg::parse(s.trim()).ok_or_else(|| format!("unknown register `{}`", s.trim()))
}

fn imm12(s: &str) -> Result<i32, String> {
    let v = parse_int(s).ok_or_else(|| format!("bad immediate `{s}`"))?;
    if !(-2048..=2047).contains(&v) {
        return Err(format!("immediate {v} out of 12-bit range"));
    }
    Ok(v as i32)
}

fn shamt(s: &str) -> Result<i32, String> {
    let v = parse_int(s).ok_or_else(|| format!("bad shift amount `{s}`"))?;
    if !(0..=31).contains(&v) {
        return Err(format!("shift amount {v} out of range"));
    }
    Ok(v as i32)
}

/// Parses `offset(base)` memory operands.
fn mem_operand(s: &str) -> Result<(i32, Reg), String> {
    let s = s.trim();
    let open = s
        .find('(')
        .ok_or_else(|| format!("expected offset(reg), got `{s}`"))?;
    let close = s.rfind(')').ok_or_else(|| format!("missing ) in `{s}`"))?;
    let off_str = &s[..open];
    let offset = if off_str.trim().is_empty() {
        0
    } else {
        imm12(off_str)?
    };
    Ok((offset, reg(&s[open + 1..close])?))
}

fn is_label(s: &str) -> bool {
    let s = s.trim();
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_' || c == '.')
        && parse_int(s).is_none()
        && Reg::parse(s).is_none()
}

#[allow(clippy::too_many_lines)]
fn parse_statement(stmt: &str, line: usize, items: &mut Vec<Item>) -> Result<(), String> {
    let (mnemonic, operands) = match stmt.find(char::is_whitespace) {
        Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
        None => (stmt, ""),
    };
    let ops: Vec<&str> = if operands.is_empty() {
        Vec::new()
    } else {
        operands.split(',').map(str::trim).collect()
    };
    let need = |n: usize| -> Result<(), String> {
        if ops.len() == n {
            Ok(())
        } else {
            Err(format!(
                "`{mnemonic}` expects {n} operands, got {}",
                ops.len()
            ))
        }
    };

    let mut push = |i: Instr| items.push(Item::Instr(i));

    match mnemonic {
        // Directives.
        ".word" => {
            for op in &ops {
                let v = parse_int(op).ok_or_else(|| format!("bad word `{op}`"))?;
                items.push(Item::Word(v as u32));
            }
        }
        ".space" => {
            need(1)?;
            let bytes = parse_int(ops[0]).ok_or("bad .space size".to_string())?;
            let words = (bytes as usize).div_ceil(4);
            for _ in 0..words {
                items.push(Item::Word(0));
            }
        }
        ".align" => { /* flat word layout is always 4-byte aligned */ }
        ".text" | ".data" | ".globl" | ".global" => { /* accepted, no-op */ }

        // U-type.
        "lui" | "auipc" => {
            need(2)?;
            let rd = reg(ops[0])?;
            let v = parse_int(ops[1]).ok_or_else(|| format!("bad immediate `{}`", ops[1]))?;
            if !(0..=0xf_ffff).contains(&v) {
                return Err(format!("upper immediate {v} out of 20-bit range"));
            }
            let imm = (v as u32) << 12;
            push(if mnemonic == "lui" {
                Instr::Lui { rd, imm }
            } else {
                Instr::Auipc { rd, imm }
            });
        }

        // ALU register-immediate.
        "addi" | "slti" | "sltiu" | "xori" | "ori" | "andi" | "slli" | "srli" | "srai" => {
            need(3)?;
            let rd = reg(ops[0])?;
            let rs1 = reg(ops[1])?;
            let (op, imm) = match mnemonic {
                "addi" => (AluImmOp::Addi, imm12(ops[2])?),
                "slti" => (AluImmOp::Slti, imm12(ops[2])?),
                "sltiu" => (AluImmOp::Sltiu, imm12(ops[2])?),
                "xori" => (AluImmOp::Xori, imm12(ops[2])?),
                "ori" => (AluImmOp::Ori, imm12(ops[2])?),
                "andi" => (AluImmOp::Andi, imm12(ops[2])?),
                "slli" => (AluImmOp::Slli, shamt(ops[2])?),
                "srli" => (AluImmOp::Srli, shamt(ops[2])?),
                _ => (AluImmOp::Srai, shamt(ops[2])?),
            };
            push(Instr::AluImm { op, rd, rs1, imm });
        }

        // ALU register-register.
        "add" | "sub" | "sll" | "slt" | "sltu" | "xor" | "srl" | "sra" | "or" | "and" => {
            need(3)?;
            let op = match mnemonic {
                "add" => AluOp::Add,
                "sub" => AluOp::Sub,
                "sll" => AluOp::Sll,
                "slt" => AluOp::Slt,
                "sltu" => AluOp::Sltu,
                "xor" => AluOp::Xor,
                "srl" => AluOp::Srl,
                "sra" => AluOp::Sra,
                "or" => AluOp::Or,
                _ => AluOp::And,
            };
            push(Instr::Alu {
                op,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                rs2: reg(ops[2])?,
            });
        }

        // Loads / stores.
        "lb" | "lh" | "lw" | "lbu" | "lhu" => {
            need(2)?;
            let width = match mnemonic {
                "lb" => LoadWidth::B,
                "lh" => LoadWidth::H,
                "lw" => LoadWidth::W,
                "lbu" => LoadWidth::Bu,
                _ => LoadWidth::Hu,
            };
            let (offset, rs1) = mem_operand(ops[1])?;
            push(Instr::Load {
                width,
                rd: reg(ops[0])?,
                rs1,
                offset,
            });
        }
        "sb" | "sh" | "sw" => {
            need(2)?;
            let width = match mnemonic {
                "sb" => StoreWidth::B,
                "sh" => StoreWidth::H,
                _ => StoreWidth::W,
            };
            let (offset, rs1) = mem_operand(ops[1])?;
            push(Instr::Store {
                width,
                rs2: reg(ops[0])?,
                rs1,
                offset,
            });
        }

        // Branches (label or numeric offset).
        "beq" | "bne" | "blt" | "bge" | "bltu" | "bgeu" => {
            need(3)?;
            let cond = match mnemonic {
                "beq" => BranchCond::Eq,
                "bne" => BranchCond::Ne,
                "blt" => BranchCond::Lt,
                "bge" => BranchCond::Ge,
                "bltu" => BranchCond::Ltu,
                _ => BranchCond::Geu,
            };
            branch_to(items, line, cond, reg(ops[0])?, reg(ops[1])?, ops[2])?;
        }
        // Swapped-operand branch pseudos.
        "bgt" | "ble" | "bgtu" | "bleu" => {
            need(3)?;
            let cond = match mnemonic {
                "bgt" => BranchCond::Lt,
                "ble" => BranchCond::Ge,
                "bgtu" => BranchCond::Ltu,
                _ => BranchCond::Geu,
            };
            branch_to(items, line, cond, reg(ops[1])?, reg(ops[0])?, ops[2])?;
        }
        // Compare-to-zero branch pseudos.
        "beqz" | "bnez" | "bltz" | "bgez" | "blez" | "bgtz" => {
            need(2)?;
            let r = reg(ops[0])?;
            let (cond, rs1, rs2) = match mnemonic {
                "beqz" => (BranchCond::Eq, r, Reg::ZERO),
                "bnez" => (BranchCond::Ne, r, Reg::ZERO),
                "bltz" => (BranchCond::Lt, r, Reg::ZERO),
                "bgez" => (BranchCond::Ge, r, Reg::ZERO),
                "blez" => (BranchCond::Ge, Reg::ZERO, r),
                _ => (BranchCond::Lt, Reg::ZERO, r),
            };
            branch_to(items, line, cond, rs1, rs2, ops[1])?;
        }

        // Jumps.
        "jal" => match ops.len() {
            1 => jal_to(items, line, Reg::RA, ops[0])?,
            2 => jal_to(items, line, reg(ops[0])?, ops[1])?,
            n => return Err(format!("`jal` expects 1 or 2 operands, got {n}")),
        },
        "j" => {
            need(1)?;
            jal_to(items, line, Reg::ZERO, ops[0])?;
        }
        "call" => {
            need(1)?;
            jal_to(items, line, Reg::RA, ops[0])?;
        }
        "jalr" => match ops.len() {
            1 => push(Instr::Jalr {
                rd: Reg::RA,
                rs1: reg(ops[0])?,
                offset: 0,
            }),
            3 => push(Instr::Jalr {
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                offset: imm12(ops[2])?,
            }),
            2 => {
                let (offset, rs1) = mem_operand(ops[1])?;
                push(Instr::Jalr {
                    rd: reg(ops[0])?,
                    rs1,
                    offset,
                });
            }
            n => return Err(format!("`jalr` expects 1-3 operands, got {n}")),
        },
        "jr" => {
            need(1)?;
            push(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: reg(ops[0])?,
                offset: 0,
            });
        }
        "ret" => {
            need(0)?;
            push(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                offset: 0,
            });
        }

        // Other pseudos.
        "nop" => {
            need(0)?;
            push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd: Reg::ZERO,
                rs1: Reg::ZERO,
                imm: 0,
            });
        }
        "mv" => {
            need(2)?;
            push(Instr::AluImm {
                op: AluImmOp::Addi,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                imm: 0,
            });
        }
        "not" => {
            need(2)?;
            push(Instr::AluImm {
                op: AluImmOp::Xori,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                imm: -1,
            });
        }
        "neg" => {
            need(2)?;
            push(Instr::Alu {
                op: AluOp::Sub,
                rd: reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: reg(ops[1])?,
            });
        }
        "seqz" => {
            need(2)?;
            push(Instr::AluImm {
                op: AluImmOp::Sltiu,
                rd: reg(ops[0])?,
                rs1: reg(ops[1])?,
                imm: 1,
            });
        }
        "snez" => {
            need(2)?;
            push(Instr::Alu {
                op: AluOp::Sltu,
                rd: reg(ops[0])?,
                rs1: Reg::ZERO,
                rs2: reg(ops[1])?,
            });
        }
        "li" => {
            need(2)?;
            let rd = reg(ops[0])?;
            let v = parse_int(ops[1]).ok_or_else(|| format!("bad immediate `{}`", ops[1]))?;
            let v = v as i32;
            if (-2048..=2047).contains(&v) {
                push(Instr::AluImm {
                    op: AluImmOp::Addi,
                    rd,
                    rs1: Reg::ZERO,
                    imm: v,
                });
            } else {
                let vu = v as u32;
                let upper = vu.wrapping_add(0x800) & 0xffff_f000;
                let lower = (vu.wrapping_sub(upper)) as i32;
                push(Instr::Lui { rd, imm: upper });
                if lower != 0 {
                    push(Instr::AluImm {
                        op: AluImmOp::Addi,
                        rd,
                        rs1: rd,
                        imm: lower,
                    });
                }
            }
        }
        "la" => {
            need(2)?;
            let rd = reg(ops[0])?;
            let label = ops[1].to_string();
            items.push(Item::Fixup {
                line,
                kind: FixupKind::LaUpper {
                    rd,
                    label: label.clone(),
                },
            });
            items.push(Item::Fixup {
                line,
                kind: FixupKind::LaLower { rd, label },
            });
        }

        "fence" => push(Instr::Fence),
        "ecall" => push(Instr::Ecall),
        "ebreak" => push(Instr::Ebreak),

        other => return Err(format!("unknown mnemonic `{other}`")),
    }
    Ok(())
}

fn branch_to(
    items: &mut Vec<Item>,
    line: usize,
    cond: BranchCond,
    rs1: Reg,
    rs2: Reg,
    target: &str,
) -> Result<(), String> {
    if is_label(target) {
        items.push(Item::Fixup {
            line,
            kind: FixupKind::Branch {
                cond,
                rs1,
                rs2,
                label: target.to_string(),
            },
        });
    } else {
        let offset = parse_int(target).ok_or_else(|| format!("bad branch target `{target}`"))?;
        items.push(Item::Instr(Instr::Branch {
            cond,
            rs1,
            rs2,
            offset: offset as i32,
        }));
    }
    Ok(())
}

fn jal_to(items: &mut Vec<Item>, line: usize, rd: Reg, target: &str) -> Result<(), String> {
    if is_label(target) {
        items.push(Item::Fixup {
            line,
            kind: FixupKind::Jal {
                rd,
                label: target.to_string(),
            },
        });
    } else {
        let offset = parse_int(target).ok_or_else(|| format!("bad jump target `{target}`"))?;
        items.push(Item::Instr(Instr::Jal {
            rd,
            offset: offset as i32,
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Cpu;
    use crate::mem::Memory;

    fn run(src: &str) -> (u32, Cpu, Memory) {
        let prog = assemble(src, 0).expect("assembles");
        let mut mem = Memory::new(1 << 20);
        mem.load_image(prog.base, &prog.words);
        let mut cpu = Cpu::new(prog.base);
        let code = cpu.run(&mut mem, 1_000_000).expect("runs");
        (code, cpu, mem)
    }

    #[test]
    fn exit_code_protocol() {
        let (code, _, _) = run("li a0, 7\nli a7, 93\necall\n");
        assert_eq!(code, 7);
    }

    #[test]
    fn labels_and_loops() {
        let (code, _, _) = run("    li t0, 0
                 li t1, 10
            loop:
                 addi t0, t0, 3
                 addi t1, t1, -1
                 bnez t1, loop
                 mv a0, t0
                 li a7, 93
                 ecall");
        assert_eq!(code, 30);
    }

    #[test]
    fn li_large_values() {
        let (code, cpu, _) = run("li t0, 0x12345678
             li t1, -1
             li t2, 0xfffff800
             mv a0, t0
             li a7, 93
             ecall");
        assert_eq!(code, 0x1234_5678);
        assert_eq!(cpu.reg(Reg::parse("t1").unwrap()), u32::MAX);
        assert_eq!(cpu.reg(Reg::parse("t2").unwrap()), 0xffff_f800);
    }

    #[test]
    fn la_and_data_words() {
        let (code, _, _) = run("    la t0, data
                 lw a0, 0(t0)
                 lw t1, 4(t0)
                 add a0, a0, t1
                 li a7, 93
                 ecall
            data:
                 .word 40, 2");
        assert_eq!(code, 42);
    }

    #[test]
    fn call_and_ret() {
        let (code, _, _) = run("    li a0, 5
                 call double
                 call double
                 li a7, 93
                 ecall
            double:
                 add a0, a0, a0
                 ret");
        assert_eq!(code, 20);
    }

    #[test]
    fn branch_pseudos() {
        let (code, _, _) = run("    li t0, 3
                 li t1, 5
                 li a0, 0
                 bgt t1, t0, one     # taken
                 li a0, 100          # skipped
            one: addi a0, a0, 1
                 ble t1, t0, two     # not taken
                 addi a0, a0, 10
            two: li a7, 93
                 ecall");
        assert_eq!(code, 11);
    }

    #[test]
    fn space_directive_reserves_zeroed_words() {
        let prog = assemble("start: .space 12\nend: .word 1", 0).unwrap();
        assert_eq!(prog.words, vec![0, 0, 0, 1]);
        assert_eq!(prog.symbol("end"), Some(12));
    }

    #[test]
    fn comments_are_ignored() {
        let prog = assemble("# full line\nnop ; trailing\nnop # also\n", 0).unwrap();
        assert_eq!(prog.words.len(), 2);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = assemble("nop\nbogus t0, t1\n", 0).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
        let e = assemble("beq t0, t1, nowhere\n", 0).unwrap_err();
        assert!(e.message.contains("undefined label"));
        let e = assemble("dup:\ndup:\n", 0).unwrap_err();
        assert!(e.message.contains("duplicate"));
        let e = assemble("addi t0, t1, 5000\n", 0).unwrap_err();
        assert!(e.message.contains("12-bit"));
    }

    #[test]
    fn base_address_offsets_symbols() {
        let prog = assemble("x: nop\ny: nop", 0x1000).unwrap();
        assert_eq!(prog.symbol("x"), Some(0x1000));
        assert_eq!(prog.symbol("y"), Some(0x1004));
    }
}
