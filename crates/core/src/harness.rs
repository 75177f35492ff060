//! Shared driver plumbing for every register-file variant.
//!
//! Each structural register file owns an event [`Simulator`], a driver
//! cursor that spaces operations far enough apart for every cell to settle,
//! and the violation/fault knobs of the underlying engine. [`RfHarness`]
//! centralises that state so the variants only implement their ports, and
//! the [`RegisterFile`] trait exposes the common driver surface (read /
//! write / peek plus the shared knobs) so analyses like the margin engine,
//! the soak harness, and the repro reports work over any registered design
//! (see [`crate::designs`]).

use sfq_cells::Census;
use sfq_lint::{LintPorts, LintReport};
use sfq_sim::compiled::EngineKind;
use sfq_sim::fault::FaultPlan;
use sfq_sim::netlist::Netlist;
use sfq_sim::queue::SchedulerKind;
use sfq_sim::simulator::{SimStats, Simulator, Snapshot, SnapshotError};
use sfq_sim::time::{Duration, Time};
use sfq_sim::violation::{Violation, ViolationPolicy};

use crate::config::RfGeometry;

/// Default gap between driver operations (ps). Far above the 53 ps NDROC
/// re-arm time: the functional drivers run operations to completion rather
/// than pipelining them (pipelined scheduling is modelled architecturally
/// in `schedule`).
pub const OP_GAP_PS: f64 = 400.0;

/// Start time of the first driver operation (ps).
const FIRST_OP_PS: f64 = 10.0;

/// The simulator-ownership and operation-cursor state shared by every
/// structural register-file driver.
#[derive(Debug)]
pub struct RfHarness {
    geometry: RfGeometry,
    sim: Simulator,
    cursor: Time,
    op_gap: Duration,
}

impl RfHarness {
    /// Wraps a freshly built simulator with the default operation gap.
    pub fn new(geometry: RfGeometry, sim: Simulator) -> Self {
        Self::with_op_gap(geometry, sim, OP_GAP_PS)
    }

    /// Wraps a simulator with an explicit inter-operation gap (ps) for
    /// drivers whose settle time differs from the default.
    pub fn with_op_gap(geometry: RfGeometry, sim: Simulator, op_gap_ps: f64) -> Self {
        RfHarness {
            geometry,
            sim,
            cursor: Time::from_ps(FIRST_OP_PS),
            op_gap: Duration::from_ps(op_gap_ps),
        }
    }

    /// The geometry of the register file.
    pub fn geometry(&self) -> RfGeometry {
        self.geometry
    }

    /// The wrapped simulator.
    pub fn sim(&self) -> &Simulator {
        &self.sim
    }

    /// The wrapped simulator, mutably.
    pub fn sim_mut(&mut self) -> &mut Simulator {
        &mut self.sim
    }

    /// Start time for the next driver operation.
    pub fn cursor(&self) -> Time {
        self.cursor
    }

    /// Moves the cursor one operation gap past the simulator's current
    /// time; drivers call this after every completed operation.
    pub fn advance_cursor(&mut self) {
        self.cursor = self.sim.now() + self.op_gap;
    }

    /// Captures the simulator state and the operation cursor (see
    /// [`Simulator::snapshot`]).
    ///
    /// # Errors
    ///
    /// As [`Simulator::snapshot`]: refused while events are in flight.
    pub fn snapshot(&self) -> Result<RfSnapshot, SnapshotError> {
        Ok(RfSnapshot {
            sim: self.sim.snapshot()?,
            cursor: self.cursor,
        })
    }

    /// Rewinds the simulator and the operation cursor to `snapshot` (see
    /// [`Simulator::restore`]): the next operation starts exactly where
    /// it would have on the register file the snapshot was taken from.
    pub fn restore(&mut self, snapshot: &RfSnapshot) {
        self.sim.restore(&snapshot.sim);
        self.cursor = snapshot.cursor;
    }

    /// The FailFast lint gate: refuses to simulate a netlist that static
    /// analysis has proven defective. Called by the provided
    /// [`RegisterFile::set_violation_policy`] when switching to
    /// [`ViolationPolicy::FailFast`] — a run that wants to stop at the
    /// first *dynamic* violation should not start on a netlist with
    /// *static* errors.
    ///
    /// # Panics
    ///
    /// Panics if the report contains any error-severity finding.
    pub fn gate_on_lint(report: &LintReport) {
        if !report.is_clean() {
            let first = report
                .findings
                .iter()
                .find(|f| f.severity == sfq_lint::Severity::Error)
                .expect("unclean report has an error finding");
            panic!(
                "lint gate: refusing to simulate a netlist with {} static error(s); first: {first}",
                report.errors()
            );
        }
    }

    /// Panics if `reg` is out of range for the geometry.
    pub fn assert_reg(&self, reg: usize) {
        assert!(
            reg < self.geometry.registers(),
            "register {reg} out of range"
        );
    }

    /// Panics if `reg` is out of range or `value` does not fit the width.
    pub fn assert_write(&self, reg: usize, value: u64) {
        self.assert_reg(reg);
        let w = self.geometry.width();
        assert!(
            w == 64 || value < (1u64 << w),
            "value {value:#x} exceeds {w}-bit width"
        );
    }
}

/// When a skewed write injects its data train: at `skewed`, the train's
/// nominal alignment with the write enable moved by the skew (floored at
/// time zero), but never before the simulator's present.
///
/// A negative skew of most of an operation gap puts the train before the
/// previous operation's last event, where [`Simulator::inject`] panics.
/// Injected at the present instead, the train reaches its gates long
/// before the write enable, and the write fails as any early train does.
/// Every design's skewed write takes its data time from here.
pub fn data_train_time(sim: &Simulator, skewed: Time) -> Time {
    skewed.max(sim.now())
}

/// A register file's rewindable state: its simulator's [`Snapshot`] plus
/// the driver's operation cursor. Taken by [`RegisterFile::snapshot`].
#[derive(Debug, Clone)]
pub struct RfSnapshot {
    sim: Snapshot,
    cursor: Time,
}

/// Aggregate scheduler statistics over a *batch* of register-file runs.
///
/// [`SimStats`] is per-[`Simulator`], and batch analyses (margin sweeps,
/// Monte Carlo yield, the job server's sharded trials) run many
/// simulations per job — a fresh build each, or a rewind of one build —
/// so per-harness counters alone under-report the work behind a job.
/// `BatchStats` rolls runs up as they finish: event counts and simulated
/// time add, peak queue depth takes the max across runs. The serve layer
/// reports these per job without re-walking any traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Register-file runs absorbed.
    pub runs: u64,
    /// Summed/maxed scheduler counters over those runs.
    pub totals: SimStats,
}

impl BatchStats {
    /// An empty roll-up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished run's counters in.
    pub fn absorb(&mut self, stats: SimStats) {
        self.runs += 1;
        self.totals.absorb(stats);
    }

    /// Merges another roll-up (e.g. one per shard) into this one.
    pub fn merge(&mut self, other: &BatchStats) {
        self.runs += other.runs;
        self.totals.absorb(other.totals);
    }

    /// Total events processed across the batch.
    pub fn events(&self) -> u64 {
        self.totals.events_processed
    }
}

/// The common driver surface of every structural register-file design.
///
/// Required methods are the design-specific port protocols; everything
/// else (plain writes, census, violation policy, fault injection) is
/// provided through the design's [`RfHarness`]. The trait is object-safe:
/// [`crate::designs::Design::build`] hands out `Box<dyn RegisterFile>` so
/// analyses can be written once for every registered design.
pub trait RegisterFile {
    /// The shared harness state.
    fn harness(&self) -> &RfHarness;

    /// The shared harness state, mutably.
    fn harness_mut(&mut self) -> &mut RfHarness;

    /// Reads a register through the port.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    fn read(&mut self, reg: usize) -> u64;

    /// Writes a register with a deliberate skew (ps, may be negative) on
    /// the data train's arrival at the write gates — the margin-engine
    /// hook for mapping each design's coincidence window. A train skewed
    /// before the simulator's present is injected at the present
    /// ([`data_train_time`]), so the write fails instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range or `value` does not fit the width.
    fn write_skewed(&mut self, reg: usize, value: u64, skew_ps: f64);

    /// Peeks stored register contents without a (state-disturbing) port
    /// access.
    fn peek(&self, reg: usize) -> u64;

    /// The external-port context for static analysis: which input pins the
    /// driver injects into, and the issue schedule the timing rule checks
    /// against.
    fn lint_ports(&self) -> LintPorts;

    /// Writes a register with nominal timing.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range or `value` does not fit the width.
    fn write(&mut self, reg: usize, value: u64) {
        self.write_skewed(reg, value, 0.0);
    }

    /// The geometry of this register file.
    fn geometry(&self) -> RfGeometry {
        self.harness().geometry()
    }

    /// The elaborated netlist: its cells, with their current state, and
    /// its structure. Register contents read best through
    /// [`peek`](RegisterFile::peek); one cell's through
    /// [`Simulator::stored`]. While a fault plan with delay variation is
    /// installed on the compiled engine, each cell's op carries its
    /// instance delays, and so do [`lint`](RegisterFile::lint) and any
    /// digest taken from it (see [`Simulator::set_fault_plan`]).
    fn netlist(&self) -> &Netlist {
        self.harness().sim().netlist()
    }

    /// Cell census of the elaborated netlist.
    fn census(&self) -> Census {
        Census::of(self.netlist())
    }

    /// Timing violations recorded so far.
    fn violations(&self) -> &[Violation] {
        self.harness().sim().violations()
    }

    /// Runs every static lint rule over the elaborated netlist.
    fn lint(&self) -> LintReport {
        sfq_lint::lint(self.netlist(), &self.lint_ports())
    }

    /// Sets how the simulator reacts to timing violations.
    ///
    /// Switching to [`ViolationPolicy::FailFast`] first runs the static
    /// lint pass and refuses (panics) if the netlist has error-severity
    /// findings — see [`RfHarness::gate_on_lint`].
    fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        if policy == ViolationPolicy::FailFast {
            RfHarness::gate_on_lint(&self.lint());
        }
        self.harness_mut().sim_mut().set_violation_policy(policy);
    }

    /// Installs a fault plan (seeded delay variation / pulse faults).
    fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.harness_mut().sim_mut().set_fault_plan(plan);
    }

    /// Pulses destroyed by the `Degrade` policy so far.
    fn degraded_drops(&self) -> u64 {
        self.harness().sim().degraded_drops()
    }

    /// Cumulative scheduler statistics of the underlying simulator.
    fn sim_stats(&self) -> SimStats {
        self.harness().sim().stats()
    }

    /// The event-queue implementation the simulator is running on.
    fn scheduler_kind(&self) -> SchedulerKind {
        self.harness().sim().scheduler_kind()
    }

    /// Switches the event-queue implementation. Only legal while no events
    /// are in flight — designs are built quiescent, so the differential
    /// suite calls this right after construction.
    ///
    /// # Panics
    ///
    /// Panics if events are pending in the queue.
    fn set_scheduler(&mut self, kind: SchedulerKind) {
        self.harness_mut().sim_mut().set_scheduler(kind);
    }

    /// The execution engine the simulator delivers pulses with.
    fn engine_kind(&self) -> EngineKind {
        self.harness().sim().engine_kind()
    }

    /// Switches the execution engine. Only legal while no events are in
    /// flight — designs are built quiescent, so the differential suite
    /// calls this right after construction.
    ///
    /// # Panics
    ///
    /// Panics if events are pending in the queue.
    fn set_engine(&mut self, kind: EngineKind) {
        self.harness_mut().sim_mut().set_engine(kind);
    }

    /// Pays the active engine's lazy one-time setup (the compiled fan-out
    /// and probe tables) now, so the first operation runs on a warm
    /// engine. The perf
    /// harness calls this before starting its clock so the compile is not
    /// billed to the measured soak.
    fn prepare(&mut self) {
        self.harness_mut().sim_mut().prepare();
    }

    /// Captures the register file's state between operations (see
    /// [`RfHarness::snapshot`]).
    ///
    /// # Errors
    ///
    /// Refused while events are in flight.
    fn snapshot(&self) -> Result<RfSnapshot, SnapshotError> {
        self.harness().snapshot()
    }

    /// Rewinds to a snapshot taken from this register file (see
    /// [`RfHarness::restore`]).
    fn restore(&mut self, snapshot: &RfSnapshot) {
        self.harness_mut().restore(snapshot);
    }
}
