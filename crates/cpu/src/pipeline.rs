//! The gate-level pipelined in-order CPU timing model.
//!
//! Mirrors the paper's simulator (§VI-B): a functional RV32I executor
//! (our stand-in for Spike) drives an analytic gate-level timing model.
//! Gates are clocked at 28 ps; the register file is accessed on the 53 ps
//! RF clock (two gate cycles); the execute stage is a 28-deep gate
//! pipeline, so read-after-write dependencies in a short window stall for
//! tens of gate cycles — the reason average CPI lands near 30.
//!
//! The register file plugs in through the [`RfBackend`] trait, which
//! contributes both timing and data:
//!
//! * the static issue interval (2 / 3 / 2-or-4 RF cycles, §IV-D, §V-B);
//! * the post-P&R readout latency (Table IV) on every operand read;
//! * the loopback-restore window during which a just-read register is
//!   unreadable (RAR hazards are satisfied by duplicating the readout when
//!   both sources of one instruction name the same register);
//! * whether internal write-to-read forwarding exists (baseline only);
//! * the operand *values* themselves — every architectural read and write
//!   is issued as backend traffic, so the [`hiperrf::PulseRf`] backend
//!   co-simulates the instruction stream against the structural netlists
//!   while [`hiperrf::AnalyticRf`] keeps the fast closed-form path.
//!
//! The backend's robustness counters (value corruption, timing
//! violations, degraded pulse drops) are threaded into [`RunOutcome`] so
//! injected faults surface as application-level degradation.

use hiperrf::backend::{AnalyticRf, RfBackend, RfHealth};
use hiperrf::config::RfGeometry;
use hiperrf::delay::RfDesign;
use sfq_riscv::exec::{Cpu, ExecError, StepOutcome};
use sfq_riscv::isa::Reg;
use sfq_riscv::mem::Memory;
use sfq_riscv::Program;
use sfq_sim::fault::FaultPlan;
use sfq_sim::violation::ViolationPolicy;

use crate::config::PipelineConfig;
use crate::stats::PipelineStats;

/// Error from a pipeline run.
#[derive(Debug)]
pub enum RunError {
    /// The functional model faulted.
    Exec(ExecError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Exec(e) => write!(f, "functional model: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ExecError> for RunError {
    fn from(e: ExecError) -> Self {
        RunError::Exec(e)
    }
}

/// Result of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunOutcome {
    /// The program's exit code (from `a0` at the exit ecall).
    pub exit_code: u32,
    /// Timing statistics.
    pub stats: PipelineStats,
    /// Register-file robustness counters: value corruption, timing
    /// violations, and degraded pulse drops observed by the backend.
    pub rf: RfHealth,
}

/// Per-instruction timing record from a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTiming {
    /// Fetch address.
    pub pc: u32,
    /// The retired instruction.
    pub instr: sfq_riscv::isa::Instr,
    /// Gate cycle of the register-file access.
    pub t_rf: u64,
    /// Gate cycle the operands reached the execute stage.
    pub t_op: u64,
    /// Gate cycle the write-back completed.
    pub t_wb: u64,
}

/// The gate-level pipelined CPU.
pub struct GateLevelCpu {
    backend: Box<dyn RfBackend>,
    config: PipelineConfig,
}

impl std::fmt::Debug for GateLevelCpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GateLevelCpu")
            .field("backend", &self.backend.label())
            .field("arch_design", &self.backend.arch_design())
            .field("config", &self.config)
            .finish()
    }
}

impl GateLevelCpu {
    /// Creates a CPU around the analytic model of a register-file design
    /// (32×32 RF geometry) — the fast closed-form path the CPI sweeps use.
    pub fn new(design: RfDesign, config: PipelineConfig) -> Self {
        Self::with_backend(
            Box::new(AnalyticRf::new(design, RfGeometry::paper_32x32())),
            config,
        )
    }

    /// Creates a CPU around an arbitrary register-file backend — e.g. a
    /// [`hiperrf::PulseRf`] to co-simulate against a structural netlist.
    pub fn with_backend(backend: Box<dyn RfBackend>, config: PipelineConfig) -> Self {
        GateLevelCpu { backend, config }
    }

    /// The analytic design whose schedule times accesses, if the backend
    /// has one (`None` for the bit-serial shift register).
    pub fn arch_design(&self) -> Option<RfDesign> {
        self.backend.arch_design()
    }

    /// The register-file backend.
    pub fn backend(&self) -> &dyn RfBackend {
        self.backend.as_ref()
    }

    /// Sets how the backend reacts to timing violations (meaningful for
    /// pulse backends only).
    pub fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        self.backend.set_violation_policy(policy);
    }

    /// Installs a seeded fault plan in the backend (meaningful for pulse
    /// backends only).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.backend.set_fault_plan(plan);
    }

    /// Runs `program` to completion (exit ecall) with an instruction
    /// budget, returning the exit code and timing statistics.
    ///
    /// # Errors
    ///
    /// Functional-model faults, timeouts, and (as internal assertion)
    /// schedule/hazard violations.
    pub fn run(
        &mut self,
        program: &Program,
        mem_size: usize,
        budget: u64,
    ) -> Result<RunOutcome, RunError> {
        self.run_impl(program, mem_size, budget, None)
    }

    /// Like [`GateLevelCpu::run`], additionally recording a per-instruction
    /// timeline (RF access, operand arrival, write-back) into `trace`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`GateLevelCpu::run`].
    pub fn run_traced(
        &mut self,
        program: &Program,
        mem_size: usize,
        budget: u64,
        trace: &mut Vec<InstrTiming>,
    ) -> Result<RunOutcome, RunError> {
        self.run_impl(program, mem_size, budget, Some(trace))
    }

    fn run_impl(
        &mut self,
        program: &Program,
        mem_size: usize,
        budget: u64,
        mut trace: Option<&mut Vec<InstrTiming>>,
    ) -> Result<RunOutcome, RunError> {
        let mut mem = Memory::new(mem_size);
        mem.load_image(program.base, &program.words);
        let mut cpu = Cpu::new(program.symbol("_start").unwrap_or(program.base));
        let mut stats = PipelineStats::default();

        // Timing state (all in gate cycles).
        let readout = self.backend.readout_gate_cycles();
        let loopback = self.backend.loopback_gate_cycles();
        let forwarding = self.backend.supports_internal_forwarding();
        let mut value_ready = [0u64; 32]; // producer write-back completion
        let mut loopback_ready = [0u64; 32]; // restore completion per register
        let mut next_port_slot = 0u64; // earliest next RF access
        let mut last_rf = 0u64; // previous instruction's RF access time
        let mut fetch_ready = 0u64; // control-flow redirect barrier
        let mut last_wb = 0u64;
        // Mirror of the functional model's architectural state *before*
        // the current instruction — the expectation handed to the backend
        // on every source read.
        let mut shadow = [0u32; 32];

        loop {
            let pc_before = cpu.pc;
            let outcome = cpu.step(&mut mem)?;
            let fell_through = cpu.pc == pc_before.wrapping_add(4);
            let instr = match outcome {
                StepOutcome::Retired(i) => i,
                StepOutcome::Halted(code) => {
                    stats.retired = cpu.retired;
                    stats.gate_cycles = last_wb.max(fetch_ready);
                    return Ok(RunOutcome {
                        exit_code: code,
                        stats,
                        rf: self.backend.health(),
                    });
                }
            };
            if cpu.retired > budget {
                return Err(RunError::Exec(ExecError::Timeout {
                    executed: cpu.retired,
                }));
            }

            // --- Timing model for this instruction ---
            let mut srcs: Vec<Reg> = instr.sources();
            srcs.sort_by_key(|r| r.index());
            if srcs.len() == 2 && srcs[0] == srcs[1] {
                // Same register read twice: duplicate the readout
                // (paper §IV-D) — a single port access.
                srcs.pop();
                stats.rar_duplications += 1;
            }
            let src_idx: Vec<usize> = srcs.iter().map(|r| r.index()).collect();

            // Issue the operand traffic through the backend: every source
            // read carries the functional model's pre-step value as the
            // expectation, and the destination write installs the
            // post-step value. The analytic backend mirrors; the pulse
            // backend drives the event simulator.
            for &r in &src_idx {
                let _ = self.backend.read(r, shadow[r]);
            }
            if let Some(rd) = instr.rd() {
                let v = cpu.reg(rd);
                self.backend.write(rd.index(), v);
                shadow[rd.index()] = v;
            }

            // Earliest time the RF read can fire, with stall attribution.
            // Port pipelining at the baseline two-RF-cycle rate is the
            // no-stall reference; anything beyond it is attributed to its
            // binding constraint.
            let mut t = next_port_slot;
            let port_wait = next_port_slot.saturating_sub(last_rf + 4);
            stats.port_stall_cycles += port_wait;
            if port_wait > 0 {
                stats.port_stall_events += 1;
            }
            if fetch_ready > t {
                stats.control_stall_cycles += fetch_ready - t;
                stats.control_stall_events += 1;
                t = fetch_ready;
            }
            let t_raw = src_idx.iter().map(|&r| value_ready[r]).max().unwrap_or(0);
            let t_loop = src_idx
                .iter()
                .map(|&r| loopback_ready[r])
                .max()
                .unwrap_or(0);
            if t_raw > t {
                stats.raw_stall_cycles += t_raw - t;
                stats.raw_stall_events += 1;
                t = t_raw;
            }
            if t_loop > t {
                stats.loopback_stall_cycles += t_loop - t;
                stats.loopback_stall_events += 1;
                t = t_loop;
            }
            let t_rf = t;
            last_rf = t_rf;

            // The loopback hazard window is enforced by construction:
            // t_rf >= loopback_ready[src] for every source read above.
            debug_assert!(src_idx.iter().all(|&r| t_rf >= loopback_ready[r]));

            // Bank-conflict accounting for the dual-banked design.
            if self.backend.arch_design() == Some(RfDesign::DualBanked)
                && src_idx.len() == 2
                && hiperrf::banked::bank_of(src_idx[0]) == hiperrf::banked::bank_of(src_idx[1])
            {
                stats.bank_conflicts += 1;
            }

            // Loopback restores begin for every register actually read.
            if let Some(lb) = loopback {
                for &r in &src_idx {
                    loopback_ready[r] = t_rf + lb;
                }
            }

            // Operand availability: the last source read fires at its
            // schedule slot, then the readout path delivers the operand.
            let gather = self.backend.operand_gather_gate_cycles(&src_idx);
            let t_op = if src_idx.is_empty() {
                t_rf
            } else {
                t_rf + gather + readout
            };
            let mem_extra = if instr.is_memory() {
                self.config.mem_latency
            } else {
                0
            };
            let t_ex_done = t_op + self.config.ex_depth + mem_extra;
            let t_wb = t_ex_done + self.config.wb_gates;

            if let Some(rd) = instr.rd() {
                let r = rd.index();
                value_ready[r] = if forwarding {
                    t_wb
                } else {
                    t_wb + self.config.no_forward_penalty
                };
                // The write's erase read happens before the new value
                // lands, so no restore is in flight afterwards; the
                // register is readable as soon as the value is.
            }
            let _ = loopback; // loopback_ready is only set by reads

            // Control-flow instructions stall fetch until they resolve —
            // the in-order SFQ core has no branch prediction — unless the
            // ablation's not-taken predictor is on, in which case
            // fall-through conditional branches cost nothing.
            let predicted = self.config.predict_not_taken
                && fell_through
                && matches!(instr, sfq_riscv::isa::Instr::Branch { .. });
            if instr.is_control_flow() && !predicted {
                fetch_ready = t_ex_done + self.config.redirect_gates;
            }

            next_port_slot = t_rf + self.backend.issue_interval_gate_cycles(&src_idx);
            last_wb = last_wb.max(t_wb);

            if let Some(t) = trace.as_deref_mut() {
                t.push(InstrTiming {
                    pc: pc_before,
                    instr,
                    t_rf,
                    t_op,
                    t_wb,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_riscv::asm::assemble;

    fn run_on(design: RfDesign, src: &str) -> RunOutcome {
        let prog = assemble(src, 0).expect("assembles");
        let mut cpu = GateLevelCpu::new(design, PipelineConfig::sodor());
        cpu.run(&prog, 1 << 20, 10_000_000).expect("runs")
    }

    const DEP_CHAIN: &str = "
        li t0, 1
        add t1, t0, t0
        add t2, t1, t1
        add t3, t2, t2
        add t4, t3, t3
        mv a0, t4
        li a7, 93
        ecall";

    const INDEPENDENT: &str = "
        li t0, 1
        li t1, 2
        li t2, 3
        li t3, 4
        li t4, 5
        li t5, 6
        li a0, 0
        li a7, 93
        ecall";

    #[test]
    fn functional_results_identical_across_designs() {
        let src = "
            li t0, 6
            li t1, 7
            li a0, 0
        loop:
            add a0, a0, t0
            addi t1, t1, -1
            bnez t1, loop
            li a7, 93
            ecall";
        let mut codes = vec![];
        for d in RfDesign::ALL {
            codes.push(run_on(d, src).exit_code);
        }
        assert!(codes.iter().all(|&c| c == 42), "codes {codes:?}");
    }

    #[test]
    fn dependent_chain_is_raw_bound() {
        let out = run_on(RfDesign::NdroBaseline, DEP_CHAIN);
        assert!(out.stats.raw_stall_cycles > 0);
        // Each dependent instruction waits for ~EX depth.
        assert!(out.stats.cpi() > 20.0, "cpi {}", out.stats.cpi());
    }

    #[test]
    fn independent_code_is_port_bound() {
        let out = run_on(RfDesign::NdroBaseline, INDEPENDENT);
        assert!(out.stats.cpi() < 15.0, "cpi {}", out.stats.cpi());
    }

    #[test]
    fn hiperrf_slower_than_baseline() {
        let base = run_on(RfDesign::NdroBaseline, DEP_CHAIN);
        let hi = run_on(RfDesign::HiPerRf, DEP_CHAIN);
        assert!(hi.stats.cpi() > base.stats.cpi());
    }

    #[test]
    fn banked_between_baseline_and_hiperrf() {
        // A mixed workload: dual-banked should land between the two.
        let src = "
            li t0, 100
            li a0, 0
        loop:
            add a0, a0, t0
            srli t1, a0, 1
            add a0, a0, t1
            andi a0, a0, 255
            addi t0, t0, -1
            bnez t0, loop
            li a7, 93
            ecall";
        let base = run_on(RfDesign::NdroBaseline, src).stats.cpi();
        let dual = run_on(RfDesign::DualBanked, src).stats.cpi();
        let hi = run_on(RfDesign::HiPerRf, src).stats.cpi();
        assert!(base <= dual, "base {base} dual {dual}");
        assert!(dual <= hi, "dual {dual} hi {hi}");
    }

    #[test]
    fn ideal_banked_no_conflicts() {
        // t0 (x5, odd bank) and t1 (x6, even bank) conflict-free; s0/s1
        // (x8/x9) likewise; but x5,x7 collide in the real banked design.
        let src = "
            li t0, 1
            li t2, 2
            add a0, t0, t2
            add a1, t0, t2
            li a7, 93
            ecall";
        let real = run_on(RfDesign::DualBanked, src);
        let ideal = run_on(RfDesign::DualBankedIdeal, src);
        assert!(real.stats.bank_conflicts > 0);
        assert_eq!(ideal.stats.bank_conflicts, 0);
        assert!(ideal.stats.gate_cycles <= real.stats.gate_cycles);
    }

    #[test]
    fn rar_duplication_counted() {
        let src = "
            li t0, 21
            add a0, t0, t0
            li a7, 93
            ecall";
        let out = run_on(RfDesign::HiPerRf, src);
        assert_eq!(out.stats.rar_duplications, 1);
        assert_eq!(out.exit_code, 42);
    }

    #[test]
    fn traced_run_records_monotone_timeline() {
        let prog = assemble(DEP_CHAIN, 0).expect("assembles");
        let mut cpu = GateLevelCpu::new(RfDesign::HiPerRf, PipelineConfig::sodor());
        let mut trace = Vec::new();
        let out = cpu
            .run_traced(&prog, 1 << 20, 10_000, &mut trace)
            .expect("runs");
        // The halting ecall is not traced; everything else is.
        assert_eq!(trace.len() as u64, out.stats.retired - 1);
        for rec in &trace {
            assert!(rec.t_rf <= rec.t_op && rec.t_op < rec.t_wb, "{rec:?}");
        }
        // RF accesses are issued in order.
        for w in trace.windows(2) {
            assert!(w[0].t_rf <= w[1].t_rf);
        }
    }

    #[test]
    fn not_taken_prediction_cuts_control_stalls() {
        // A loop whose final fall-through branch dominates: with the
        // predictor, only taken back-edges redirect.
        let src = "
            li t0, 40
            li a0, 0
        loop:
            addi a0, a0, 1
            beq a0, zero, loop   # never taken: pure prediction win
            addi t0, t0, -1
            bnez t0, loop        # taken back edge: still redirects
            li a7, 93
            ecall";
        let prog = assemble(src, 0).expect("assembles");
        let base = {
            let mut cpu = GateLevelCpu::new(RfDesign::NdroBaseline, PipelineConfig::sodor());
            cpu.run(&prog, 1 << 20, 100_000).expect("runs").stats
        };
        let pred = {
            let mut cpu = GateLevelCpu::new(
                RfDesign::NdroBaseline,
                PipelineConfig::sodor_with_prediction(),
            );
            cpu.run(&prog, 1 << 20, 100_000).expect("runs").stats
        };
        assert!(pred.control_stall_cycles < base.control_stall_cycles);
        assert!(
            pred.cpi() < base.cpi(),
            "pred {} base {}",
            pred.cpi(),
            base.cpi()
        );
    }

    #[test]
    fn stats_accumulate_consistently() {
        let out = run_on(RfDesign::HiPerRf, DEP_CHAIN);
        assert_eq!(out.stats.retired, 8);
        assert!(out.stats.gate_cycles > 0);
    }
}
