//! Pluggable CPU↔RF backends: the boundary between the gate-level CPU
//! timing model and a register-file implementation.
//!
//! The paper's Figure 14 results come from a CPU whose register file *is*
//! the HC-DRO circuit, so a reproduction has to be able to run every
//! instruction stream against the actual netlists, not only against the
//! closed-form schedule. The [`RfBackend`] trait is that seam:
//!
//! * [`AnalyticRf`] wraps [`RfSchedule`] — the static port schedules and
//!   Table IV latency constants, with a mirror of architectural values so
//!   reads return data. This is the fast path the CPI sweeps use, and it
//!   is behavior-preserving with respect to the pre-backend simulator.
//! * [`PulseRf`] wraps a structural design from [`crate::designs`] behind
//!   its [`RegisterFile`] driver: every architectural read/write drives
//!   the event-driven pulse simulator, the returned bits are checked
//!   against the functional RV32I model's expected value, and timing
//!   violations / degraded pulse drops / value corruption are surfaced
//!   through [`RfHealth`] so fault injection becomes visible as
//!   application-level degradation.
//!
//! Both backends report a per-access latency (the gate-cycle readout
//! delay the CPU timing model charges) and, for the pulse backend, a
//! measured per-op occupancy in simulated picoseconds, so analytic and
//! structural timing can be cross-checked access by access.

use crate::config::RfGeometry;
use crate::delay::RfDesign;
use crate::designs::Design;
use crate::harness::RegisterFile;
use crate::schedule::RfSchedule;
use crate::shift_rf::shift_rf_readout_ps;
use sfq_cells::timing::{GATE_CYCLES_PER_RF_CYCLE, GATE_CYCLE_PS};
use sfq_sim::fault::FaultPlan;
use sfq_sim::violation::{Violation, ViolationPolicy};

/// One architectural register-file access, as reported by a backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfAccess {
    /// The value the register file delivered.
    pub value: u32,
    /// Gate cycles from the access firing to the operand being available
    /// (the Table IV readout delay for the analytic models).
    pub latency_gate_cycles: u64,
    /// Simulated picoseconds the operation occupied the pulse engine
    /// (`0.0` for the analytic backend, which spends no simulated time).
    pub occupancy_ps: f64,
}

/// Cumulative per-operation statistics of one backend.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RfOpStats {
    /// Port reads issued.
    pub reads: u64,
    /// Port writes issued.
    pub writes: u64,
    /// Reads whose returned value disagreed with the functional model.
    pub value_mismatches: u64,
    /// Sum of per-op simulated occupancy (ps); zero for analytic backends.
    pub occupancy_ps: f64,
}

impl RfOpStats {
    /// Mean simulated occupancy per op in ps (0 with no ops).
    pub fn mean_occupancy_ps(&self) -> f64 {
        let ops = self.reads + self.writes;
        if ops == 0 {
            0.0
        } else {
            self.occupancy_ps / ops as f64
        }
    }
}

/// The robustness surface of a backend after a run: corruption and
/// degradation counters threaded up into the CPU's `RunOutcome` so fault
/// injection in the pulse engine is visible at application level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RfHealth {
    /// Port reads issued.
    pub reads: u64,
    /// Port writes issued.
    pub writes: u64,
    /// Reads that returned a value differing from the functional model.
    pub value_mismatches: u64,
    /// Timing violations the simulator recorded.
    pub violations: u64,
    /// Pulses destroyed by the `Degrade` violation policy.
    pub degraded_drops: u64,
}

impl RfHealth {
    /// Whether the run completed without corruption, violations or drops.
    pub fn is_clean(&self) -> bool {
        self.value_mismatches == 0 && self.violations == 0 && self.degraded_drops == 0
    }
}

/// A register-file backend the gate-level CPU issues operand traffic
/// through.
///
/// The trait carries both roles of the CPU↔RF boundary: the *data* path
/// (reads return values, writes install them, with the functional model's
/// expectation checked on every read) and the *timing* path (the static
/// port-schedule queries the pipeline model charges). Object safety lets
/// the CPU hold `Box<dyn RfBackend>`.
pub trait RfBackend {
    /// The cycle-level design whose schedule times accesses, if the
    /// paper's analytic models cover this backend (`None` for the
    /// bit-serial shift register, which has no paper port model).
    fn arch_design(&self) -> Option<RfDesign>;

    /// Short human-readable label for reports.
    fn label(&self) -> &'static str;

    /// Issues an architectural read of `reg`. `expected` is the value the
    /// functional RV32I model holds for that register; backends that own
    /// real storage compare against it and count mismatches.
    fn read(&mut self, reg: usize, expected: u32) -> RfAccess;

    /// Issues an architectural write of `value` into `reg`.
    fn write(&mut self, reg: usize, value: u32);

    /// Gate cycles between successive instruction issues, given the
    /// instruction's (deduplicated) source registers.
    fn issue_interval_gate_cycles(&self, sources: &[usize]) -> u64;

    /// Gate cycles from read enable to operand availability.
    fn readout_gate_cycles(&self) -> u64;

    /// Gate cycles a just-read register stays unavailable while its
    /// loopback write restores it (`None` when there is no loopback).
    fn loopback_gate_cycles(&self) -> Option<u64>;

    /// Gate cycles from an instruction's first RF slot to its last source
    /// read (the static-schedule gather skew).
    fn operand_gather_gate_cycles(&self, sources: &[usize]) -> u64;

    /// Whether the write port internally forwards to a same-cycle read.
    fn supports_internal_forwarding(&self) -> bool;

    /// Cumulative operation statistics.
    fn op_stats(&self) -> RfOpStats;

    /// Robustness counters accumulated so far.
    fn health(&self) -> RfHealth;

    /// Detailed timing violations, when the backend records them.
    fn violations(&self) -> &[Violation] {
        &[]
    }

    /// Sets how the backend reacts to timing violations (no-op for
    /// backends without a pulse engine).
    fn set_violation_policy(&mut self, _policy: ViolationPolicy) {}

    /// Installs a seeded fault plan (no-op for backends without a pulse
    /// engine).
    fn set_fault_plan(&mut self, _plan: FaultPlan) {}
}

/// The analytic backend: the paper's closed-form port schedule plus a
/// mirror of architectural values.
///
/// Reads cost the Table IV readout delay and return the mirrored value;
/// no event simulation runs. This backend reproduces the pre-backend
/// `GateLevelCpu` timing bit for bit.
#[derive(Debug, Clone)]
pub struct AnalyticRf {
    schedule: RfSchedule,
    values: Vec<u32>,
    stats: RfOpStats,
}

impl AnalyticRf {
    /// Creates an analytic backend for `design` at `geometry`.
    pub fn new(design: RfDesign, geometry: RfGeometry) -> Self {
        AnalyticRf {
            schedule: RfSchedule::new(design, geometry),
            values: vec![0; geometry.registers()],
            stats: RfOpStats::default(),
        }
    }

    /// The wrapped schedule model.
    pub fn schedule(&self) -> &RfSchedule {
        &self.schedule
    }
}

impl RfBackend for AnalyticRf {
    fn arch_design(&self) -> Option<RfDesign> {
        Some(self.schedule.design())
    }

    fn label(&self) -> &'static str {
        "analytic"
    }

    fn read(&mut self, reg: usize, expected: u32) -> RfAccess {
        let value = self.values[reg];
        let latency = self.schedule.readout_gate_cycles();
        self.stats.reads += 1;
        if value != expected {
            self.stats.value_mismatches += 1;
        }
        RfAccess {
            value,
            latency_gate_cycles: latency,
            occupancy_ps: 0.0,
        }
    }

    fn write(&mut self, reg: usize, value: u32) {
        self.values[reg] = value;
        self.stats.writes += 1;
    }

    fn issue_interval_gate_cycles(&self, sources: &[usize]) -> u64 {
        self.schedule.issue_interval_gate_cycles(sources)
    }

    fn readout_gate_cycles(&self) -> u64 {
        self.schedule.readout_gate_cycles()
    }

    fn loopback_gate_cycles(&self) -> Option<u64> {
        self.schedule.loopback_gate_cycles()
    }

    fn operand_gather_gate_cycles(&self, sources: &[usize]) -> u64 {
        self.schedule.operand_gather_gate_cycles(sources)
    }

    fn supports_internal_forwarding(&self) -> bool {
        self.schedule.supports_internal_forwarding()
    }

    fn op_stats(&self) -> RfOpStats {
        self.stats
    }

    fn health(&self) -> RfHealth {
        RfHealth {
            reads: self.stats.reads,
            writes: self.stats.writes,
            value_mismatches: self.stats.value_mismatches,
            violations: 0,
            degraded_drops: 0,
        }
    }
}

/// The pulse-level co-simulation backend: every architectural access
/// drives the structural netlist of a registered design through the
/// event-driven simulator.
///
/// Timing queries come from the same [`RfSchedule`] the analytic backend
/// uses (the shift register, which has no paper schedule, gets a serial
/// rotation model derived from its structural step rate), so the CPU's
/// cycle accounting is directly comparable between backends; what the
/// pulse backend *adds* is real storage — returned bits come from fluxons
/// popped out of the netlist — plus violation, fault, and corruption
/// surfacing.
pub struct PulseRf {
    design: Design,
    schedule: Option<RfSchedule>,
    rf: Box<dyn RegisterFile>,
    stats: RfOpStats,
}

impl std::fmt::Debug for PulseRf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PulseRf")
            .field("design", &self.design)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl PulseRf {
    /// Builds the pulse backend for `design` at the paper's 32×32
    /// geometry — the configuration an RV32I instruction stream needs
    /// (32 architectural registers, 32-bit values).
    pub fn new(design: Design) -> Self {
        Self::with_geometry(design, RfGeometry::paper_32x32())
    }

    /// Builds the pulse backend at an explicit geometry. Driving it from
    /// the CPU requires registers/width to cover the architectural state;
    /// smaller geometries are useful for direct backend-level tests.
    pub fn with_geometry(design: Design, geometry: RfGeometry) -> Self {
        PulseRf {
            design,
            schedule: design.arch_design().map(|d| RfSchedule::new(d, geometry)),
            rf: design.build(geometry),
            stats: RfOpStats::default(),
        }
    }

    /// The registered design being co-simulated.
    pub fn design(&self) -> Design {
        self.design
    }

    /// The wrapped structural register file.
    pub fn rf(&self) -> &dyn RegisterFile {
        self.rf.as_ref()
    }

    /// The wrapped structural register file, mutably (fault-pin lookup,
    /// scheduler and engine switches).
    pub fn rf_mut(&mut self) -> &mut dyn RegisterFile {
        self.rf.as_mut()
    }

    /// Gate cycles of one full serial rotation of the shift register: `w`
    /// shift cycles at the NDROC-limited one-per-RF-cycle burst rate.
    fn shift_rotation_gate_cycles(&self) -> u64 {
        self.rf.geometry().width() as u64 * GATE_CYCLES_PER_RF_CYCLE
    }

    /// Runs `op` against the pulse engine, measuring the simulated time
    /// the operation spanned.
    fn timed_op<T>(&mut self, op: impl FnOnce(&mut dyn RegisterFile) -> T) -> (T, f64) {
        let t0 = self.rf.harness().cursor().as_ps();
        let out = op(self.rf.as_mut());
        let t1 = self.rf.harness().sim().now().as_ps();
        (out, (t1 - t0).max(0.0))
    }
}

impl RfBackend for PulseRf {
    fn arch_design(&self) -> Option<RfDesign> {
        self.design.arch_design()
    }

    fn label(&self) -> &'static str {
        self.design.label()
    }

    fn read(&mut self, reg: usize, expected: u32) -> RfAccess {
        let (raw, span) = self.timed_op(|rf| rf.read(reg));
        let value = raw as u32;
        let latency = self.readout_gate_cycles();
        self.stats.reads += 1;
        self.stats.occupancy_ps += span;
        if value != expected {
            self.stats.value_mismatches += 1;
        }
        RfAccess {
            value,
            latency_gate_cycles: latency,
            occupancy_ps: span,
        }
    }

    fn write(&mut self, reg: usize, value: u32) {
        let ((), span) = self.timed_op(|rf| rf.write(reg, u64::from(value)));
        self.stats.writes += 1;
        self.stats.occupancy_ps += span;
    }

    fn issue_interval_gate_cycles(&self, sources: &[usize]) -> u64 {
        match &self.schedule {
            Some(s) => s.issue_interval_gate_cycles(sources),
            // Bit-serial: every source read costs one full rotation and
            // the single port serializes them.
            None => self.shift_rotation_gate_cycles() * (sources.len().max(1) as u64),
        }
    }

    fn readout_gate_cycles(&self) -> u64 {
        match &self.schedule {
            Some(s) => s.readout_gate_cycles(),
            None => (shift_rf_readout_ps(self.rf.geometry()) / GATE_CYCLE_PS).ceil() as u64,
        }
    }

    fn loopback_gate_cycles(&self) -> Option<u64> {
        self.schedule
            .as_ref()
            .and_then(|s| s.loopback_gate_cycles())
    }

    fn operand_gather_gate_cycles(&self, sources: &[usize]) -> u64 {
        match &self.schedule {
            Some(s) => s.operand_gather_gate_cycles(sources),
            None => self.shift_rotation_gate_cycles() * (sources.len().saturating_sub(1) as u64),
        }
    }

    fn supports_internal_forwarding(&self) -> bool {
        self.schedule
            .as_ref()
            .is_some_and(|s| s.supports_internal_forwarding())
    }

    fn op_stats(&self) -> RfOpStats {
        self.stats
    }

    fn health(&self) -> RfHealth {
        RfHealth {
            reads: self.stats.reads,
            writes: self.stats.writes,
            value_mismatches: self.stats.value_mismatches,
            violations: self.rf.violations().len() as u64,
            degraded_drops: self.rf.degraded_drops(),
        }
    }

    fn violations(&self) -> &[Violation] {
        self.rf.violations()
    }

    fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        self.rf.set_violation_policy(policy);
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.rf.set_fault_plan(plan);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::registry;

    #[test]
    fn analytic_matches_schedule_constants() {
        let g = RfGeometry::paper_32x32();
        for design in RfDesign::ALL {
            let mut b = AnalyticRf::new(design, g);
            let s = RfSchedule::new(design, g);
            b.write(5, 17);
            let acc = b.read(5, 17);
            assert_eq!(acc.value, 17);
            assert_eq!(acc.latency_gate_cycles, s.readout_gate_cycles());
            assert_eq!(acc.occupancy_ps, 0.0);
            assert_eq!(b.loopback_gate_cycles(), s.loopback_gate_cycles());
            assert_eq!(
                b.issue_interval_gate_cycles(&[1, 2]),
                s.issue_interval_gate_cycles(&[1, 2])
            );
            assert!(b.health().is_clean());
        }
    }

    #[test]
    fn analytic_counts_mismatches() {
        let mut b = AnalyticRf::new(RfDesign::HiPerRf, RfGeometry::paper_32x32());
        b.write(3, 7);
        let acc = b.read(3, 9); // wrong expectation
        assert_eq!(acc.value, 7);
        assert_eq!(b.op_stats().value_mismatches, 1);
        assert!(!b.health().is_clean());
    }

    #[test]
    fn pulse_round_trips_and_measures_occupancy() {
        for design in registry() {
            let mut b = PulseRf::with_geometry(design, RfGeometry::paper_4x4());
            b.write(2, 0b101);
            let acc = b.read(2, 0b101);
            assert_eq!(acc.value, 0b101, "{design}");
            assert!(acc.occupancy_ps > 0.0, "{design}: ops take simulated time");
            assert!(acc.latency_gate_cycles > 0, "{design}");
            let h = b.health();
            assert_eq!((h.reads, h.writes), (1, 1), "{design}");
            assert!(h.is_clean(), "{design}: {:?}", b.violations());
        }
    }

    #[test]
    fn pulse_latency_agrees_with_analytic_per_design() {
        let g = RfGeometry::paper_32x32();
        for design in registry() {
            let Some(arch) = design.arch_design() else {
                continue;
            };
            let pulse = PulseRf::with_geometry(design, g);
            let analytic = AnalyticRf::new(arch, g);
            assert_eq!(
                pulse.readout_gate_cycles(),
                analytic.readout_gate_cycles(),
                "{design}"
            );
            assert_eq!(
                pulse.loopback_gate_cycles(),
                analytic.loopback_gate_cycles(),
                "{design}"
            );
            for srcs in [&[][..], &[1][..], &[1, 2][..], &[1, 3][..]] {
                assert_eq!(
                    pulse.issue_interval_gate_cycles(srcs),
                    analytic.issue_interval_gate_cycles(srcs),
                    "{design} {srcs:?}"
                );
                assert_eq!(
                    pulse.operand_gather_gate_cycles(srcs),
                    analytic.operand_gather_gate_cycles(srcs),
                    "{design} {srcs:?}"
                );
            }
        }
    }

    #[test]
    fn shift_register_has_serial_timing() {
        let b = PulseRf::with_geometry(Design::ShiftRegister, RfGeometry::paper_4x4());
        assert_eq!(b.arch_design(), None);
        let rotation = 4 * GATE_CYCLES_PER_RF_CYCLE;
        assert_eq!(b.issue_interval_gate_cycles(&[]), rotation);
        assert_eq!(b.issue_interval_gate_cycles(&[1, 2]), 2 * rotation);
        assert_eq!(b.operand_gather_gate_cycles(&[1, 2]), rotation);
        assert_eq!(b.loopback_gate_cycles(), None);
        assert!(!b.supports_internal_forwarding());
        assert!(b.readout_gate_cycles() > 0);
    }

    #[test]
    fn pulse_surfaces_fault_degradation() {
        let mut b = PulseRf::with_geometry(Design::HiPerRf, RfGeometry::paper_4x4());
        b.set_violation_policy(ViolationPolicy::Degrade);
        b.set_fault_plan(FaultPlan::new(7).with_delay_sigma(0.35));
        for r in 0..4 {
            b.write(r, 0b1111);
        }
        let mut dirty = false;
        for r in 0..4 {
            let acc = b.read(r, 0b1111);
            dirty |= acc.value != 0b1111;
        }
        let h = b.health();
        assert!(
            dirty || h.degraded_drops > 0 || h.violations > 0,
            "a 35% delay spread must disturb the HC design: {h:?}"
        );
    }
}
