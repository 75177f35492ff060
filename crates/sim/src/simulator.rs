//! The event-driven pulse simulator.
//!
//! [`Simulator`] owns a [`Netlist`] and an event queue of in-flight pulses.
//! External stimuli are injected with [`Simulator::inject`]; [`Simulator::run`]
//! drains the queue in strict time order, delivering each pulse to its target
//! component, which may emit further pulses. Probes attached to output pins
//! record every pulse that passes them.
//!
//! The queue itself is pluggable (see [`crate::queue`]): the default is a
//! bucketed calendar queue, with the seed `BinaryHeap` kept as a
//! byte-identical reference scheduler. [`Simulator::stats`] exposes cheap
//! lifetime counters ([`SimStats`]) so harnesses can report how much work a
//! run actually did.

use std::collections::BTreeMap;

use crate::cell::{scale_delay, CellOp, CellState};
use crate::compiled::{CompiledNetlist, EngineKind};
use crate::component::{CellLabel, PulseContext};
use crate::fault::{Draws, FaultPlan, FaultState};
use crate::netlist::{ComponentId, Labels, Netlist, Pin, INPUT_PIN_LIMIT};
use crate::queue::{Event, Queue, Scheduler, SchedulerKind, EVENT_TIME_LIMIT_FS, RELAY_FLAG};
use crate::time::{Duration, Time};
use crate::trace::PulseTrace;
use crate::violation::{SimError, Violation, ViolationPolicy};

/// Identifier of a probe attached to an output pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeId(pub(crate) u32);

/// Outcome summary of a [`Simulator::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunStats {
    /// Pulses delivered to component input pins.
    pub delivered: u64,
    /// Pulses emitted by components on output pins.
    pub emitted: u64,
    /// Time of the last processed event, if any event was processed.
    pub last_event: Option<Time>,
}

/// Cheap lifetime counters of a [`Simulator`], cumulative over every run.
///
/// Unlike [`RunStats`] (one `run` call) these survive across calls, so a
/// driver that issues many operations can report the total simulation work
/// behind them. Both schedulers produce identical counter values for the
/// same stimuli — the equivalence suite asserts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Events popped from the queue (including deliveries a fault plan
    /// subsequently dropped).
    pub events_processed: u64,
    /// Largest number of simultaneously pending events observed.
    ///
    /// Definition: the maximum, over every queue insertion (external
    /// injections and fan-out pushes alike), of the pending-event count
    /// *after* that insertion. Both engines push the identical event
    /// sequence and both schedulers count undrained events identically,
    /// so this figure is comparable across every engine × scheduler
    /// combination — the equivalence suites assert it.
    pub peak_queue_depth: usize,
    /// Total simulation time advanced (the time of the latest processed
    /// event).
    pub sim_time_advanced: Duration,
    /// Fan-out CSR rows consulted: one per emission (every emission
    /// resolves exactly one source pin's fan-out row, hit or miss).
    /// Engine-independent by the same construction.
    pub fanout_rows_visited: u64,
}

impl SimStats {
    /// Folds another run's counters into this one: event counts and
    /// simulated time add, peak queue depth takes the maximum (the runs
    /// never share a queue, so their peaks are independent). Batch
    /// harnesses that run many simulations per job — fresh builds or
    /// [`Simulator::restore`] rewinds — use this to report the aggregate
    /// work behind a whole job.
    pub fn absorb(&mut self, other: SimStats) {
        self.events_processed += other.events_processed;
        self.peak_queue_depth = self.peak_queue_depth.max(other.peak_queue_depth);
        self.sim_time_advanced += other.sim_time_advanced;
        self.fanout_rows_visited += other.fanout_rows_visited;
    }
}

/// A quiescent simulator's rewindable state, taken by
/// [`Simulator::snapshot`] and written back by [`Simulator::restore`].
///
/// It holds every cell's [`CellState`], read from the netlist's one cell
/// array, plus the clock, the tie-break sequence counter, the
/// [`SimStats`] counters, the recorded violations, the violation policy,
/// and the degraded-drop count. The netlist's structure and cell ops, the
/// probe registrations, the engine, the scheduler kind, and the compiled
/// tables are not part of it: restore keeps them as they are, apart from
/// writing back the nominal ops an installed delay plan scaled.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// `cells[component index]`: each cell's state.
    cells: Vec<CellState>,
    now: Time,
    seq: u64,
    stats: SimStats,
    violations: Vec<Violation>,
    policy: ViolationPolicy,
    degraded_drops: u64,
}

/// Why [`Simulator::snapshot`] refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Events are still pending; a snapshot only captures a drained queue.
    EventsInFlight(usize),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::EventsInFlight(n) => {
                write!(f, "cannot snapshot with {n} event(s) in flight")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Event-driven simulator over a [`Netlist`].
///
/// # Examples
///
/// ```
/// use sfq_sim::netlist::Netlist;
/// use sfq_sim::simulator::Simulator;
///
/// let mut sim = Simulator::new(Netlist::new());
/// let stats = sim.run();
/// assert_eq!(stats.delivered, 0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    netlist: Netlist,
    queue: Queue,
    seq: u64,
    now: Time,
    stats: SimStats,
    /// Probe registrations per output pin, sorted by pin so the compiled
    /// tables merge them into their (cell, pin) walk.
    probes: BTreeMap<Pin, Vec<ProbeId>>,
    probe_records: Vec<PulseTrace>,
    violations: Vec<Violation>,
    /// Hard cap on processed events per `run` to catch runaway feedback.
    event_budget: u64,
    policy: ViolationPolicy,
    /// Pulses dropped by cells under [`ViolationPolicy::Degrade`].
    degraded_drops: u64,
    fault: Option<FaultState>,
    /// The last plan's Gaussian draws while no plan is installed, kept
    /// for the next plan with the same seed.
    spare_draws: Draws,
    /// Set while the cell array holds an installed plan's instance
    /// delays, which only the compiled engine runs on; the ops as built
    /// are then in `nominal_ops`.
    ops_scaled: bool,
    /// The ops as built, while `ops_scaled`; the buffer is kept between
    /// plans.
    nominal_ops: Vec<CellOp>,
    engine: EngineKind,
    /// Lazily compiled fan-out and probe tables, only ever built under the
    /// compiled engine. They hold no cell state, so they are simply
    /// dropped whenever the netlist, the probe set or the engine could
    /// change under them.
    compiled: Option<CompiledNetlist>,
    /// Set when the compiled tables were dropped with events in flight:
    /// queued relay flags may index the dropped relay table or name a
    /// relay that is now probed, so every flagged delivery takes the full
    /// step until the queue next drains.
    stale_relay_flags: bool,
    /// Reusable per-delivery emission buffer; keeps the hot loop
    /// allocation-free across runs.
    emit_scratch: Vec<(u8, Time)>,
}

impl Simulator {
    /// Default maximum number of events processed by a single `run` call.
    pub const DEFAULT_EVENT_BUDGET: u64 = 50_000_000;

    /// Creates a simulator over a finished netlist on the production
    /// stack: the calendar queue and the compiled engine. The oracles are
    /// selected explicitly, with [`Simulator::with_engine`] or
    /// [`Simulator::set_scheduler`] / [`Simulator::set_engine`].
    pub fn new(netlist: Netlist) -> Self {
        Self::with_scheduler(netlist, SchedulerKind::default())
    }

    /// Creates a simulator on an explicit scheduler and the default engine.
    pub fn with_scheduler(netlist: Netlist, scheduler: SchedulerKind) -> Self {
        Self::with_engine(netlist, scheduler, EngineKind::default())
    }

    /// Creates a simulator on an explicit scheduler and engine.
    pub fn with_engine(netlist: Netlist, scheduler: SchedulerKind, engine: EngineKind) -> Self {
        Simulator {
            netlist,
            queue: Queue::new(scheduler),
            seq: 0,
            now: Time::ZERO,
            stats: SimStats::default(),
            probes: BTreeMap::new(),
            probe_records: Vec::new(),
            violations: Vec::new(),
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            policy: ViolationPolicy::Record,
            degraded_drops: 0,
            fault: None,
            spare_draws: Draws::default(),
            ops_scaled: false,
            nominal_ops: Vec::new(),
            engine,
            compiled: None,
            stale_relay_flags: false,
            emit_scratch: Vec::new(),
        }
    }

    /// The scheduler this simulator runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Swaps the scheduler implementation. Only legal while no events are
    /// pending, i.e. before the first injection or between fully drained
    /// runs — which is when harnesses (and the differential test suite)
    /// want to flip it.
    ///
    /// # Panics
    ///
    /// Panics if events are still pending.
    pub fn set_scheduler(&mut self, scheduler: SchedulerKind) {
        assert!(
            self.queue.is_empty(),
            "cannot switch schedulers with {} event(s) in flight",
            self.queue.len()
        );
        self.queue = Queue::new(scheduler);
    }

    /// The execution engine this simulator delivers pulses with.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine
    }

    /// Swaps the execution engine. Like [`Simulator::set_scheduler`], only
    /// legal while no events are pending; all accumulated state (cell
    /// contents, probes, violations, statistics, an installed fault plan)
    /// carries over — both engines produce byte-identical observables
    /// either way. The cell array gets its nominal ops back (see
    /// [`Simulator::set_fault_plan`]).
    ///
    /// # Panics
    ///
    /// Panics if events are still pending.
    pub fn set_engine(&mut self, engine: EngineKind) {
        assert!(
            self.queue.is_empty(),
            "cannot switch engines with {} event(s) in flight",
            self.queue.len()
        );
        self.drop_compiled();
        self.engine = engine;
    }

    /// The stored value of cell `id` (0/1 for DRO, NDRO, NDROC and
    /// counter bits, a fluxon count for an HC-DRO), or `None` for a cell
    /// that stores nothing — [`Cell::stored`](crate::cell::Cell::stored)
    /// of the netlist's one copy of the cell.
    pub fn stored(&self, id: ComponentId) -> Option<u8> {
        self.netlist.cell(id).stored()
    }

    /// Lifetime counters, cumulative over every run so far.
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Sets the violation policy for subsequent runs.
    pub fn set_violation_policy(&mut self, policy: ViolationPolicy) {
        self.policy = policy;
    }

    /// The active violation policy.
    pub fn violation_policy(&self) -> ViolationPolicy {
        self.policy
    }

    /// Pulses dropped so far by cells degrading under
    /// [`ViolationPolicy::Degrade`].
    pub fn degraded_drops(&self) -> u64 {
        self.degraded_drops
    }

    /// Installs a fault plan: schedules its spurious pulses now and applies
    /// its pin faults and delay variation to all subsequent deliveries.
    /// Replaces any previously installed plan (counters reset).
    ///
    /// Delay variation scales each cell's emission delays by the cell's
    /// factor to `round(delay × factor)` fs; its timing windows stay
    /// nominal. The compiled engine applies the factors once, to the ops
    /// in the netlist's cell array, so its runs do no per-event fault
    /// work: while a plan with σ > 0 is installed under that engine,
    /// [`netlist`](Simulator::netlist) — and the lint reports and digests
    /// computed from it — reads the instance delays. [`restore`], the
    /// next plan, [`set_engine`], [`probe`] and [`netlist_mut`] write
    /// the nominal ops back; the next compiled run scales them again
    /// while the plan stays. The dyn interpreter keeps the nominal ops
    /// and scales each emission instead, by the same formula. The
    /// Gaussian draws behind the factors depend only on the seed, and
    /// the next plan with the same seed reuses them.
    ///
    /// [`restore`]: Simulator::restore
    /// [`set_engine`]: Simulator::set_engine
    /// [`probe`]: Simulator::probe
    /// [`netlist_mut`]: Simulator::netlist_mut
    ///
    /// # Panics
    ///
    /// Panics if the plan scales some cell's emission delay to the 56-bit
    /// event window (about 72 s) or past it, naming the cell: such a delay
    /// cannot be scheduled, and `delivery + delay` would wrap. The check
    /// covers every cell of the netlist, on either engine, and runs
    /// before the plan's spurious pulses are scheduled. Panics on a
    /// spurious pulse that [`Simulator::inject`] refuses: one planned
    /// before the current time, on a component this netlist does not
    /// hold, or on a reserved input pin.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.unscale_ops();
        let draws = match self.fault.take() {
            Some(previous) => previous.into_draws(),
            None => std::mem::take(&mut self.spare_draws),
        };
        let spurious = plan.spurious_pulses().to_vec();
        self.fault = Some(FaultState::with_draws(plan, draws));
        // Scaling the ops checks each one against the event window; the
        // dyn interpreter keeps its nominal ops, so it only checks.
        match self.engine {
            EngineKind::Compiled => self.prepare_compiled(),
            EngineKind::DynInterpreter => self.check_instance_delays(),
        }
        for (pin, at) in spurious {
            self.inject(pin, at);
        }
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| f.plan())
    }

    /// `(dropped, duplicated)` pulse counts applied by the fault plan.
    pub fn fault_counts(&self) -> (u64, u64) {
        self.fault
            .as_ref()
            .map_or((0, 0), |f| (f.dropped, f.duplicated))
    }

    /// Captures the simulator's state so [`Simulator::restore`] can rewind
    /// to it — the way a batch of runs on one netlist (a Monte Carlo
    /// trial's σ probes) pays elaboration and lowering once instead of
    /// once per run.
    ///
    /// Only a quiescent simulator can be captured: pending events are not
    /// part of a [`Snapshot`]. Each cell's state is read from the
    /// netlist's cell array.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::EventsInFlight`] while events are pending.
    pub fn snapshot(&self) -> Result<Snapshot, SnapshotError> {
        if !self.queue.is_empty() {
            return Err(SnapshotError::EventsInFlight(self.queue.len()));
        }
        let cells = self.netlist.iter().map(|(_, _, cell)| cell.state).collect();
        Ok(Snapshot {
            cells,
            now: self.now,
            seq: self.seq,
            stats: self.stats,
            violations: self.violations.clone(),
            policy: self.policy,
            degraded_drops: self.degraded_drops,
        })
    }

    /// Rewinds to `snapshot`, which must have been taken from this
    /// simulator. Every observable of the runs that follow — traces,
    /// violations, [`SimStats`], drops, fault counts — is then identical
    /// to a fresh build that reached the snapshot and ran only them.
    ///
    /// Cell state goes back into the netlist's cell array, in place; the
    /// compiled tables hold no state and stay as built. Probe records are
    /// cleared (registrations stay), the fault plan is removed and the
    /// nominal ops it scaled are written back, and the queue is emptied
    /// in place, keeping its allocations, so any events still pending are
    /// discarded. Restore is exact because a cell's [`CellState`] is all
    /// the state its transition function reads besides its op.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's cell count does not match the netlist.
    pub fn restore(&mut self, snapshot: &Snapshot) {
        assert_eq!(
            snapshot.cells.len(),
            self.netlist.component_count(),
            "snapshot taken from a different netlist"
        );
        self.unscale_ops();
        for (cell, &state) in self.netlist.cells_mut().iter_mut().zip(&snapshot.cells) {
            cell.state = state;
        }
        self.queue.clear();
        self.stale_relay_flags = false;
        self.now = snapshot.now;
        self.seq = snapshot.seq;
        self.stats = snapshot.stats;
        self.violations.clone_from(&snapshot.violations);
        self.policy = snapshot.policy;
        self.degraded_drops = snapshot.degraded_drops;
        if let Some(fault) = self.fault.take() {
            self.spare_draws = fault.into_draws();
        }
        self.clear_all_probes();
    }

    /// Sets the per-run event budget (runaway-feedback guard).
    pub fn set_event_budget(&mut self, budget: u64) {
        self.event_budget = budget;
    }

    /// Returns the netlist being simulated: its cells, with their current
    /// state, and its labels, scopes and wires. While a delay plan is
    /// installed under the compiled engine, each cell's op carries its
    /// instance delays (see [`Simulator::set_fault_plan`]).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Returns an exclusive reference to the netlist, for edits between
    /// runs (new cells, new wires). Drops the compiled fan-out and probe
    /// tables, which are rebuilt lazily at the next run, so edits through
    /// this reference are observed by either engine. Cell state stays
    /// where it is; the ops are the nominal ones (an installed delay plan
    /// scales them again at the next compiled run).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        self.drop_compiled();
        &mut self.netlist
    }

    /// The current simulation time (time of the last processed event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Attaches a probe to an *output* pin; every pulse emitted on that pin
    /// is recorded with its timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `pin.component` is not a component of this netlist (an id
    /// taken from another, larger netlist): such a probe could never
    /// record, and its scope could not be named.
    pub fn probe(&mut self, pin: Pin, label: impl Into<String>) -> ProbeId {
        self.assert_holds(pin, "probe");
        // The compiled flat probe table is now stale; rebuild lazily at
        // the next run.
        self.drop_compiled();
        let id = ProbeId(self.probe_records.len() as u32);
        self.probes.entry(pin).or_default().push(id);
        self.probe_records.push(PulseTrace::new(label));
        id
    }

    /// Returns the pulses recorded by a probe so far.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by this simulator's [`Simulator::probe`].
    pub fn probe_trace(&self, id: ProbeId) -> &PulseTrace {
        &self.probe_records[id.0 as usize]
    }

    /// Clears a probe's recorded pulses (between driver operations).
    pub fn clear_probe(&mut self, id: ProbeId) {
        self.probe_records[id.0 as usize].clear();
    }

    /// Clears every probe's recorded pulses.
    pub fn clear_all_probes(&mut self) {
        for p in &mut self.probe_records {
            p.clear();
        }
    }

    /// Every probe's trace paired with the instance scope of the component
    /// it observes — ready for
    /// [`to_vcd_hierarchical`](crate::vcd::to_vcd_hierarchical), which
    /// renders the scopes as nested `$scope module` blocks.
    pub fn scoped_traces(&self) -> Vec<(String, PulseTrace)> {
        let mut scopes = vec![String::new(); self.probe_records.len()];
        for (pin, ids) in &self.probes {
            for id in ids {
                scopes[id.0 as usize] = self.netlist.scope_of(pin.component).to_string();
            }
        }
        scopes
            .into_iter()
            .zip(self.probe_records.iter().cloned())
            .collect()
    }

    /// Renders every probe as a VCD document whose `$scope module` blocks
    /// mirror the netlist's instance hierarchy.
    pub fn to_vcd(&self, top: &str) -> String {
        crate::vcd::to_vcd_hierarchical(&self.scoped_traces(), top)
    }

    /// Injects an external stimulus pulse into an *input* pin at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current simulation time, if
    /// `pin.component` is not a component of this netlist (an id taken
    /// from another, larger netlist, which the next run could not
    /// deliver to), or if `pin.index` is [`INPUT_PIN_LIMIT`] (128) or
    /// more: the event encoding reserves that range, as
    /// [`Netlist::try_connect`] does.
    pub fn inject(&mut self, pin: Pin, at: Time) {
        assert!(
            at >= self.now,
            "cannot inject into the past: {at} < {}",
            self.now
        );
        self.assert_holds(pin, "inject into");
        assert!(
            pin.index < INPUT_PIN_LIMIT,
            "cannot inject into reserved input pin {pin} (input pins stop at {})",
            INPUT_PIN_LIMIT - 1
        );
        let seq = self.next_seq();
        self.push(Event::new(at, seq, pin));
    }

    /// Panics, naming `what` was attempted, unless `pin` lies on a
    /// component of this netlist.
    fn assert_holds(&self, pin: Pin, what: &str) {
        assert!(
            pin.component.index() < self.netlist.component_count(),
            "cannot {what} {pin}: this netlist does not hold component {}",
            pin.component
        );
    }

    /// Timing violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Runs until the event queue is empty. Returns run statistics.
    ///
    /// # Panics
    ///
    /// Panics if the event budget is exhausted (an oscillating feedback
    /// loop in the netlist), or if the [`ViolationPolicy::FailFast`] policy
    /// stops the run — use [`Simulator::try_run`] to handle that case.
    pub fn run(&mut self) -> RunStats {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs until the queue is empty or the next event is later than `deadline`.
    ///
    /// # Panics
    ///
    /// As for [`Simulator::run`].
    pub fn run_for(&mut self, deadline: Time) -> RunStats {
        self.try_run_for(deadline).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs until the event queue is empty. Under
    /// [`ViolationPolicy::FailFast`], stops at the first violation and
    /// returns it as [`SimError::FailFast`].
    pub fn try_run(&mut self) -> Result<RunStats, SimError> {
        self.run_until(None)
    }

    /// [`Simulator::try_run`] with a deadline.
    pub fn try_run_for(&mut self, deadline: Time) -> Result<RunStats, SimError> {
        self.run_until(Some(deadline))
    }

    fn run_until(&mut self, deadline: Option<Time>) -> Result<RunStats, SimError> {
        let result = match self.engine {
            EngineKind::Compiled => self.run_until_compiled(deadline),
            EngineKind::DynInterpreter => self.run_until_dyn(deadline),
        };
        // Re-base the tie-break sequence whenever the queue fully drains:
        // the packed event's 40-bit seq field then only has to bound
        // events in flight at once, not the lifetime total. (Order among
        // co-pending events is unaffected — none survive the drain.)
        // A drained queue also holds no relay flag from dropped tables.
        if self.queue.is_empty() {
            self.seq = 0;
            self.stale_relay_flags = false;
        }
        result
    }

    /// Drops the compiled tables, to be rebuilt at the next run, and
    /// writes the nominal ops back, so the tables are always built from
    /// nominal ops. Relay flags still queued were tagged against them, so
    /// flagged deliveries take the full step until the queue drains. Only
    /// built tables push flags, so dropping none leaves the queue as fresh
    /// as it was.
    fn drop_compiled(&mut self) {
        self.unscale_ops();
        let built = self.compiled.take().is_some();
        self.stale_relay_flags |= built && !self.queue.is_empty();
    }

    /// Builds the compiled engine's fan-out and probe tables if they are
    /// not already built, then applies an installed plan's delay
    /// variation to the ops. The tables read each relay's delay from the
    /// nominal op, which the cell array holds whenever the tables are
    /// absent.
    fn prepare_compiled(&mut self) {
        if self.compiled.is_none() {
            self.compiled = Some(CompiledNetlist::compile(&self.netlist, &self.probes));
        }
        self.scale_ops();
    }

    /// Scales every cell's op by its delay factor in place, keeping the
    /// nominal ops, unless no plan with σ > 0 is installed or the ops are
    /// already scaled.
    ///
    /// # Panics
    ///
    /// As [`instance_op`]. The ops are marked scaled before the first one
    /// changes, so the nominal ops still come back after a panic.
    fn scale_ops(&mut self) {
        let Some(fault) = self.fault.as_mut() else {
            return;
        };
        if self.ops_scaled || fault.plan().delay_sigma() == 0.0 {
            return;
        }
        let (cells, labels) = self.netlist.cells_mut_and_labels();
        self.nominal_ops.clear();
        self.nominal_ops.extend(cells.iter().map(|cell| cell.op));
        self.ops_scaled = true;
        for (i, cell) in cells.iter_mut().enumerate() {
            cell.op = instance_op(fault, labels, ComponentId(i as u32), cell.op);
        }
    }

    /// Writes the nominal ops back if an installed plan scaled them.
    fn unscale_ops(&mut self) {
        if !self.ops_scaled {
            return;
        }
        for (cell, &op) in self.netlist.cells_mut().iter_mut().zip(&self.nominal_ops) {
            cell.op = op;
        }
        self.ops_scaled = false;
    }

    /// The install-time window check for an engine that keeps the
    /// nominal ops: every cell's op under the installed plan, computed
    /// and checked, then dropped.
    fn check_instance_delays(&mut self) {
        let Some(fault) = self.fault.as_mut() else {
            return;
        };
        if fault.plan().delay_sigma() == 0.0 {
            return;
        }
        let (cells, labels) = self.netlist.cells_mut_and_labels();
        for (i, cell) in cells.iter().enumerate() {
            instance_op(fault, labels, ComponentId(i as u32), cell.op);
        }
    }

    /// Pays the lazy one-time setup for the active engine now instead of
    /// inside the first [`run`](Simulator::run): under the compiled
    /// engine this builds the flat fan-out and probe tables (and applies
    /// an installed plan's delay variation to the ops).
    /// Useful to warm a simulator before a latency-sensitive or measured
    /// run; a no-op under the dyn interpreter or when already prepared.
    pub fn prepare(&mut self) {
        if self.engine == EngineKind::Compiled {
            self.prepare_compiled();
        }
    }

    /// The dyn-interpreter hot loop: every delivery steps the netlist's
    /// cell, then walks the netlist's fan-out rows and the probe map, and
    /// updates the counters per event. Allocation-free in steady state:
    /// the emission buffer is reused across runs, fan-out slices are
    /// borrowed (never cloned), and the cell label is handed to the pulse
    /// context by reference.
    fn run_until_dyn(&mut self, deadline: Option<Time>) -> Result<RunStats, SimError> {
        let mut stats = RunStats::default();
        let mut emitted_buf = std::mem::take(&mut self.emit_scratch);
        let mut processed: u64 = 0;
        let result = loop {
            let Some(ev) = self.queue.pop() else {
                break Ok(stats);
            };
            let time = ev.time();
            let target = ev.target();
            if let Some(d) = deadline {
                if time > d {
                    // Re-seat the event; its key (time, component, seq) is
                    // unchanged, so the schedule is unaffected.
                    self.queue.push(ev);
                    break Ok(stats);
                }
            }
            processed += 1;
            assert!(
                processed <= self.event_budget,
                "event budget exhausted ({processed} events): runaway feedback loop?"
            );
            self.now = time;
            self.stats.events_processed += 1;
            self.stats.sim_time_advanced = time - Time::ZERO;
            stats.last_event = Some(time);

            // Planned pin faults act on the delivery, before the cell sees
            // the pulse.
            if let Some(fault) = self.fault.as_mut() {
                let f = fault.on_delivery(target);
                if let Some(offset) = f.echo_after {
                    let seq = self.seq;
                    self.seq += 1;
                    Self::push_raw(
                        &mut self.queue,
                        &mut self.stats,
                        Event::new(time + offset, seq, target),
                    );
                }
                if f.drop {
                    continue;
                }
            }
            stats.delivered += 1;

            let violations_before = self.violations.len();
            emitted_buf.clear();
            {
                let (cell, labels) = self.netlist.cell_mut_and_labels(target.component);
                let mut ctx = PulseContext {
                    emitted: &mut emitted_buf,
                    violations: &mut self.violations,
                    component_label: CellLabel::Resolved(labels.get(target.component.index())),
                    policy: self.policy,
                    degraded_drops: &mut self.degraded_drops,
                };
                cell.step(target.index, time, &mut ctx);
            }

            // Per-instance delay variation scales the emitting cell's
            // internal delay (the lag between the delivery and each
            // emission); wire delays stay nominal.
            let factor = self
                .fault
                .as_mut()
                .map_or(1.0, |f| f.delay_factor(target.component));

            for &(out_pin, at) in emitted_buf.iter() {
                let at = scale_emission(at, time, factor);
                stats.emitted += 1;
                self.stats.fanout_rows_visited += 1;
                let source = Pin::new(target.component, out_pin);
                if let Some(ids) = self.probes.get(&source) {
                    for &id in ids {
                        self.probe_records[id.0 as usize].record(at);
                    }
                }
                // Fan the pulse out along wires (a borrowed slice — the
                // queue and netlist are disjoint fields).
                for &(to, delay) in self.netlist.fanout(source) {
                    let seq = self.seq;
                    self.seq += 1;
                    Self::push_raw(
                        &mut self.queue,
                        &mut self.stats,
                        Event::new(at + delay, seq, to),
                    );
                }
            }

            if self.policy == ViolationPolicy::FailFast && self.violations.len() > violations_before
            {
                break Err(SimError::FailFast(
                    self.violations[violations_before].clone(),
                ));
            }
        };
        self.emit_scratch = emitted_buf;
        result
    }

    /// A run on the compiled engine: builds the tables if needed, borrows
    /// the fields [`CompiledRun::event_loop`] works on apart from the
    /// queue, and matches the queue once, so the loop runs monomorphic on
    /// the scheduler inside. A panic in the loop (the event budget) leaves
    /// the queue where it is.
    fn run_until_compiled(&mut self, deadline: Option<Time>) -> Result<RunStats, SimError> {
        self.prepare_compiled();
        let relays = !self.ops_scaled && !self.stale_relay_flags;
        let Simulator {
            netlist,
            queue,
            seq,
            now,
            stats,
            probe_records,
            violations,
            event_budget,
            policy,
            degraded_drops,
            fault,
            compiled,
            emit_scratch,
            ..
        } = self;
        let run = CompiledRun {
            compiled: compiled.as_ref().expect("compiled just above"),
            netlist,
            pin_faults: fault.as_mut().filter(|f| f.has_pin_faults()),
            probe_records,
            violations,
            degraded_drops,
            emitted: emit_scratch,
            now,
            seq,
            stats,
            policy: *policy,
            event_budget: *event_budget,
            relays,
        };
        match queue {
            Queue::Wheel(wheel) => run.event_loop(&mut **wheel, deadline),
            Queue::Heap(heap) => run.event_loop(heap, deadline),
        }
    }

    fn push(&mut self, ev: Event) {
        Self::push_raw(&mut self.queue, &mut self.stats, ev);
    }

    /// Queue insertion + peak-depth update over split borrows, so the dyn
    /// interpreter's loop can push while the netlist is borrowed.
    #[inline]
    fn push_raw(queue: &mut Queue, stats: &mut SimStats, ev: Event) {
        queue.push(ev);
        stats.peak_queue_depth = stats.peak_queue_depth.max(queue.len());
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }
}

/// The fields of a [`Simulator`] the compiled event loop works on besides
/// its queue, borrowed apart from it.
struct CompiledRun<'a> {
    compiled: &'a CompiledNetlist,
    netlist: &'a mut Netlist,
    /// The installed plan, if it has pin faults, which count every
    /// delivery; its delay variation is already in the ops.
    pin_faults: Option<&'a mut FaultState>,
    probe_records: &'a mut [PulseTrace],
    violations: &'a mut Vec<Violation>,
    degraded_drops: &'a mut u64,
    /// The per-delivery emission buffer, reused across runs.
    emitted: &'a mut Vec<(u8, Time)>,
    now: &'a mut Time,
    seq: &'a mut u64,
    stats: &'a mut SimStats,
    policy: ViolationPolicy,
    event_budget: u64,
    /// Flagged relay deliveries may skip their cell.
    relays: bool,
}

impl CompiledRun<'_> {
    /// The compiled hot loop: deliveries step the netlist's cell in place,
    /// and fan-out/probe lookups index the precomputed flat tables. The
    /// cell label is resolved only if the step records a violation. It is
    /// compiled once per [`Scheduler`], so the queue's push and pop are
    /// direct calls, and the calendar queue's inline into it.
    ///
    /// An installed plan's delay variation is already in the ops
    /// ([`Simulator::set_fault_plan`]), so a delivery does no fault work
    /// unless the plan has pin faults, which count every delivery.
    ///
    /// A delivery whose pin byte carries the relay flag skips the cell: it
    /// pushes the relay's fan-out rows at `now + delay`, OUT0's first,
    /// which is what the relay's step followed by the emission loop below
    /// pushes, with the same sequence numbers and counter updates. While
    /// the ops are scaled (the table holds nominal relay delays) or flags
    /// may be stale, flagged deliveries take the full step with their
    /// decoded pin instead.
    fn event_loop<Q: Scheduler>(
        self,
        queue: &mut Q,
        deadline: Option<Time>,
    ) -> Result<RunStats, SimError> {
        let compiled = self.compiled;
        let mut pin_faults = self.pin_faults;
        let mut stats = RunStats::default();
        let mut processed: u64 = 0;
        // Loop-carried counters hoisted out of the simulator so they live
        // in registers across the hot loop; merged back after every exit
        // path below. The merged values are identical to the dyn
        // interpreter's per-event updates (the differential suite holds
        // both engines to the same `SimStats`).
        let mut seq = *self.seq;
        let mut peak = self.stats.peak_queue_depth;
        let mut fan_rows: u64 = 0;
        let result = loop {
            let Some(ev) = queue.pop() else {
                break Ok(stats);
            };
            let time = ev.time();
            let cell = ev.component_index();
            if let Some(d) = deadline {
                if time > d {
                    queue.push(ev);
                    break Ok(stats);
                }
            }
            processed += 1;
            assert!(
                processed <= self.event_budget,
                "event budget exhausted ({processed} events): runaway feedback loop?"
            );
            *self.now = time;
            stats.last_event = Some(time);

            if let Some(fault) = pin_faults.as_deref_mut() {
                let f = fault.on_delivery(ev.target());
                if let Some(offset) = f.echo_after {
                    queue.push(Event::new(time + offset, seq, ev.target()));
                    seq += 1;
                    peak = peak.max(queue.len());
                }
                if f.drop {
                    continue;
                }
            }
            stats.delivered += 1;

            if self.relays && ev.pin_byte() & RELAY_FLAG != 0 {
                // Each output is one emission and one fan-out row, as in
                // the loop below. Its per-emission peak updates collapse
                // into one: the queue only grows while a delivery pushes,
                // and the peak already covers its length before the pop.
                let relay = compiled.relay(ev.pin_byte());
                stats.emitted += u64::from(relay.outputs);
                fan_rows += u64::from(relay.outputs);
                let at_fs = ev.time_fs() + relay.delay_fs;
                for &fo in compiled.relay_fanout(cell, relay) {
                    queue.push(fo.event_at(at_fs, seq));
                    seq += 1;
                }
                peak = peak.max(queue.len());
                continue;
            }

            let violations_before = self.violations.len();
            self.emitted.clear();
            {
                let id = ComponentId(cell as u32);
                let (cell, labels) = self.netlist.cell_mut_and_labels(id);
                let mut ctx = PulseContext {
                    emitted: self.emitted,
                    violations: self.violations,
                    component_label: CellLabel::Lazy(labels, id),
                    policy: self.policy,
                    degraded_drops: self.degraded_drops,
                };
                cell.step(ev.pin(), time, &mut ctx);
            }

            for &(out_pin, at) in self.emitted.iter() {
                stats.emitted += 1;
                fan_rows += 1;
                // Pins beyond the table stride have no wires and no
                // probes — nothing to do, exactly like a fan-out miss.
                let Some(flat) = compiled.flat_at(cell, out_pin) else {
                    continue;
                };
                for &id in compiled.probes(flat) {
                    self.probe_records[id.0 as usize].record(at);
                }
                let at_fs = at.as_fs();
                for &fo in compiled.fanout(flat) {
                    queue.push(fo.event_at(at_fs, seq));
                    seq += 1;
                }
                peak = peak.max(queue.len());
            }

            if self.policy == ViolationPolicy::FailFast && self.violations.len() > violations_before
            {
                break Err(SimError::FailFast(
                    self.violations[violations_before].clone(),
                ));
            }
        };
        *self.seq = seq;
        self.stats.peak_queue_depth = peak;
        self.stats.events_processed += processed;
        self.stats.fanout_rows_visited += fan_rows;
        if processed > 0 {
            self.stats.sim_time_advanced = *self.now - Time::ZERO;
        }
        result
    }
}

/// Applies a fault plan's per-instance delay factor to one emission (the
/// dyn interpreter's path): the lag between the delivery and the emission
/// scales by [`scale_delay`], the delivery time itself does not (wire
/// delays stay nominal).
///
/// # Panics
///
/// Panics instead of wrapping if the scaled emission overflows `u64`.
/// Plan install refuses a plan that scales any cell's delay to the 56-bit
/// event window, so only a cell added after install can get here.
#[inline]
fn scale_emission(at: Time, delivered: Time, factor: f64) -> Time {
    if factor == 1.0 {
        return at;
    }
    let lag = at.checked_since(delivered).unwrap_or(Duration::ZERO);
    let fs = delivered
        .as_fs()
        .checked_add(scale_delay(lag, factor).as_fs())
        .expect("scaled emission overflows simulated time");
    Time::from_fs(fs)
}

/// `op` under the installed plan's delay factor for cell `id`
/// ([`CellOp::scale_delays`]).
///
/// # Panics
///
/// Panics, naming the cell, if a scaled emission delay reaches the 56-bit
/// event window: the plan is refused.
fn instance_op(fault: &mut FaultState, labels: &Labels, id: ComponentId, op: CellOp) -> CellOp {
    let factor = fault.delay_factor(id);
    let scaled = op.scale_delays(factor);
    let longest = scaled.longest_emission_delay().as_fs();
    if longest >= EVENT_TIME_LIMIT_FS {
        panic!(
            "delay variation σ = {} scales cell {} ({}) by {factor:e} to a {longest} fs \
             emission delay, past the 56-bit event window: plan refused",
            fault.plan().delay_sigma(),
            labels.get(id.index()),
            op.kind(),
        );
    }
    scaled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellOp};
    use crate::fault::FaultPlan;
    use crate::netlist::Netlist;

    /// Repeats every input pulse on output pin 0 after 1 ps: a JTL.
    const REPEATER: Cell = Cell::new(CellOp::Jtl {
        delay: Duration::from_fs(1_000),
    });

    /// A one-bit store with a 2 ps readout: `D = 0` sets, `CLK = 1` pops
    /// the bit onto pin 0, and pins from 2 up are no pins at all.
    const STORE: Cell = Cell::new(CellOp::Dro {
        q_delay: Duration::from_fs(2_000),
    });

    fn chain(len: usize) -> (Simulator, Pin, Pin) {
        let mut n = Netlist::new();
        let ids: Vec<_> = (0..len).map(|i| n.add(format!("r{i}"), REPEATER)).collect();
        for w in ids.windows(2) {
            n.connect(Pin::new(w[0], 0), Pin::new(w[1], 0), Duration::from_ps(0.5));
        }
        let first = Pin::new(ids[0], 0);
        let last = Pin::new(*ids.last().unwrap(), 0);
        (Simulator::new(n), first, last)
    }

    #[test]
    fn pulse_propagates_through_chain() {
        let (mut sim, first, last) = chain(4);
        let probe = sim.probe(last, "end");
        sim.inject(first, Time::from_ps(0.0));
        let stats = sim.run();
        // 4 deliveries (one per repeater), 4 emissions.
        assert_eq!(stats.delivered, 4);
        assert_eq!(stats.emitted, 4);
        let trace = sim.probe_trace(probe);
        assert_eq!(trace.len(), 1);
        // 4 internal 1ps delays + 3 wire 0.5ps delays.
        assert_eq!(trace.pulses()[0], Time::from_ps(5.5));
    }

    #[test]
    fn events_process_in_time_order() {
        let mut n = Netlist::new();
        // Pulses into a store's D pin emit nothing.
        let s = n.add("sink", STORE);
        let mut sim = Simulator::new(n);
        sim.inject(Pin::new(s, 0), Time::from_ps(5.0));
        sim.inject(Pin::new(s, 0), Time::from_ps(1.0));
        let stats = sim.run();
        assert_eq!(stats.delivered, 2);
        assert_eq!(sim.now(), Time::from_ps(5.0));
    }

    #[test]
    fn run_for_respects_deadline() {
        let (mut sim, first, _last) = chain(10);
        sim.inject(first, Time::from_ps(0.0));
        let stats = sim.run_for(Time::from_ps(3.0));
        assert!(stats.delivered < 10);
        let rest = sim.run();
        assert_eq!(stats.delivered + rest.delivered, 10);
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn injecting_into_past_panics() {
        let (mut sim, first, _last) = chain(2);
        sim.inject(first, Time::from_ps(10.0));
        sim.run();
        sim.inject(first, Time::from_ps(1.0));
    }

    #[test]
    fn probe_clear() {
        let (mut sim, first, last) = chain(2);
        let probe = sim.probe(last, "end");
        sim.inject(first, Time::from_ps(0.0));
        sim.run();
        assert_eq!(sim.probe_trace(probe).len(), 1);
        sim.clear_probe(probe);
        assert_eq!(sim.probe_trace(probe).len(), 0);
    }

    #[test]
    #[should_panic(expected = "event budget exhausted")]
    fn feedback_loop_trips_budget() {
        let mut n = Netlist::new();
        let r = n.add("r", REPEATER);
        // Self-loop: output feeds back into input forever.
        n.connect(Pin::new(r, 0), Pin::new(r, 0), Duration::from_ps(1.0));
        let mut sim = Simulator::new(n);
        sim.set_event_budget(1000);
        sim.inject(Pin::new(r, 0), Time::ZERO);
        sim.run();
    }

    #[test]
    fn multiple_probes_on_same_pin() {
        let (mut sim, first, last) = chain(2);
        let p1 = sim.probe(last, "a");
        let p2 = sim.probe(last, "b");
        sim.inject(first, Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(p1).len(), 1);
        assert_eq!(sim.probe_trace(p2).len(), 1);
    }

    /// A repeater with a 10 ps minimum spacing: an unselected NDROC with a
    /// 10 ps re-arm, enabled on CLK (pin 2) and probed on OUT1 (pin 1).
    /// Closer enables violate and, under Degrade, are lost.
    fn spaced_sim() -> (Simulator, Pin, crate::simulator::ProbeId) {
        let mut n = Netlist::new();
        let spaced = Cell::new(CellOp::Ndroc {
            prop: Duration::from_ps(1.0),
            rearm: Duration::from_ps(10.0),
        });
        let id = n.add("s", spaced);
        let mut sim = Simulator::new(n);
        let probe = sim.probe(Pin::new(id, 1), "q");
        (sim, Pin::new(id, 2), probe)
    }

    #[test]
    fn record_policy_keeps_marginal_pulse() {
        let (mut sim, pin, probe) = spaced_sim();
        sim.inject(pin, Time::from_ps(0.0));
        sim.inject(pin, Time::from_ps(4.0));
        sim.run();
        assert_eq!(sim.violations().len(), 1);
        assert_eq!(sim.probe_trace(probe).len(), 2, "Record: pulse still acts");
        assert_eq!(sim.degraded_drops(), 0);
    }

    #[test]
    fn degrade_policy_drops_marginal_pulse() {
        let (mut sim, pin, probe) = spaced_sim();
        sim.set_violation_policy(ViolationPolicy::Degrade);
        sim.inject(pin, Time::from_ps(0.0));
        sim.inject(pin, Time::from_ps(4.0));
        sim.run();
        assert_eq!(sim.violations().len(), 1, "still recorded");
        assert_eq!(sim.probe_trace(probe).len(), 1, "Degrade: pulse lost");
        assert_eq!(sim.degraded_drops(), 1);
    }

    #[test]
    fn fail_fast_stops_with_first_violation() {
        let (mut sim, pin, probe) = spaced_sim();
        sim.set_violation_policy(ViolationPolicy::FailFast);
        sim.inject(pin, Time::from_ps(0.0));
        sim.inject(pin, Time::from_ps(4.0));
        sim.inject(pin, Time::from_ps(6.0));
        let err = sim.try_run().unwrap_err();
        let SimError::FailFast(v) = err;
        assert_eq!(v.kind, "re-arm");
        assert_eq!(v.at, Time::from_ps(4.0));
        // The run stopped before processing the third stimulus.
        assert_eq!(sim.probe_trace(probe).len(), 2);
        assert_eq!(sim.violations().len(), 1);
    }

    #[test]
    #[should_panic(expected = "fail-fast")]
    fn run_panics_on_fail_fast() {
        let (mut sim, pin, _probe) = spaced_sim();
        sim.set_violation_policy(ViolationPolicy::FailFast);
        sim.inject(pin, Time::from_ps(0.0));
        sim.inject(pin, Time::from_ps(4.0));
        sim.run();
    }

    #[test]
    fn scoped_traces_attribute_probes_to_scopes() {
        let mut n = Netlist::new();
        n.push_scope("bank0");
        let a = n.add("r0", REPEATER);
        n.pop_scope();
        let b = n.add("r1", REPEATER);
        let mut sim = Simulator::new(n);
        sim.probe(Pin::new(a, 0), "inner");
        sim.probe(Pin::new(b, 0), "outer");
        let scoped = sim.scoped_traces();
        assert_eq!(scoped[0].0, "bank0");
        assert_eq!(scoped[0].1.label(), "inner");
        assert_eq!(scoped[1].0, "");
        let doc = sim.to_vcd("top");
        assert!(doc.contains("$scope module bank0 $end"), "{doc}");
    }

    // A pulse on a pin past a store's row records a `pin` violation that
    // names the pin and the cell, which makes delivery order observable
    // from outside the netlist.

    #[test]
    fn same_timestamp_pulses_deliver_in_insertion_order() {
        // Regression for the documented tie-break: at equal times on the
        // same component, insertion order decides — on both schedulers,
        // not as an accident of heap internals.
        use crate::queue::SchedulerKind;
        for kind in SchedulerKind::ALL {
            let mut n = Netlist::new();
            let c = n.add("log", STORE);
            let mut sim = Simulator::with_scheduler(n, kind);
            for pin in [4u8, 2, 3] {
                sim.inject(Pin::new(c, pin), Time::from_ps(5.0));
            }
            sim.run();
            let order: Vec<&str> = sim.violations().iter().map(|v| v.detail.as_str()).collect();
            let want = [
                "dro has no input pin 4",
                "dro has no input pin 2",
                "dro has no input pin 3",
            ];
            assert_eq!(order, want, "{kind}");
        }
    }

    #[test]
    fn same_timestamp_ties_across_components_resolve_by_component_id() {
        use crate::queue::SchedulerKind;
        for kind in SchedulerKind::ALL {
            let mut n = Netlist::new();
            let first = n.add("log_a", STORE);
            let second = n.add("log_b", STORE);
            let mut sim = Simulator::with_scheduler(n, kind);
            // Inject into the later-added component first: at equal times
            // the lower component id still delivers first.
            sim.inject(Pin::new(second, 2), Time::from_ps(5.0));
            sim.inject(Pin::new(first, 2), Time::from_ps(5.0));
            sim.run();
            let order: Vec<&str> = sim.violations().iter().map(|v| v.cell.as_str()).collect();
            assert_eq!(order, vec!["log_a", "log_b"], "{kind}");
        }
    }

    #[test]
    fn schedulers_produce_identical_traces_and_stats() {
        use crate::queue::SchedulerKind;
        let run_on = |kind| {
            let mut n = Netlist::new();
            let ids: Vec<_> = (0..4).map(|i| n.add(format!("r{i}"), REPEATER)).collect();
            for w in ids.windows(2) {
                n.connect(Pin::new(w[0], 0), Pin::new(w[1], 0), Duration::from_ps(0.5));
            }
            let mut sim = Simulator::with_scheduler(n, kind);
            assert_eq!(sim.scheduler_kind(), kind);
            let probe = sim.probe(Pin::new(ids[3], 0), "end");
            sim.inject(Pin::new(ids[0], 0), Time::from_ps(0.0));
            sim.inject(Pin::new(ids[0], 0), Time::from_ps(700.0));
            sim.run();
            (sim.probe_trace(probe).clone(), sim.stats())
        };
        let (heap_trace, heap_stats) = run_on(SchedulerKind::ReferenceHeap);
        let (wheel_trace, wheel_stats) = run_on(SchedulerKind::CalendarQueue);
        assert_eq!(heap_trace, wheel_trace);
        assert_eq!(heap_stats, wheel_stats);
        assert_eq!(heap_stats.events_processed, 8);
        assert!(heap_stats.peak_queue_depth >= 1);
        // Last event: the delivery into r3 (3 internal ps + 3 wire hops
        // after the 700 ps injection); the final emission queues nothing.
        assert_eq!(
            heap_stats.sim_time_advanced,
            Duration::from_ps(700.0 + 3.0 + 1.5)
        );
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let (mut sim, first, _last) = chain(3);
        sim.inject(first, Time::from_ps(0.0));
        sim.run();
        let after_first = sim.stats();
        assert_eq!(after_first.events_processed, 3);
        sim.inject(first, Time::from_ps(500.0));
        sim.run();
        let after_second = sim.stats();
        assert_eq!(after_second.events_processed, 6);
        assert!(after_second.sim_time_advanced > after_first.sim_time_advanced);
    }

    #[test]
    fn set_scheduler_swaps_when_idle() {
        use crate::queue::SchedulerKind;
        let (mut sim, first, last) = chain(2);
        sim.set_scheduler(SchedulerKind::ReferenceHeap);
        assert_eq!(sim.scheduler_kind(), SchedulerKind::ReferenceHeap);
        let probe = sim.probe(last, "end");
        sim.inject(first, Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(probe).len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot switch schedulers")]
    fn set_scheduler_rejects_pending_events() {
        use crate::queue::SchedulerKind;
        let (mut sim, first, _last) = chain(2);
        sim.inject(first, Time::from_ps(1.0));
        sim.set_scheduler(SchedulerKind::ReferenceHeap);
    }

    #[test]
    fn default_engine_is_compiled() {
        assert_eq!(EngineKind::default(), EngineKind::Compiled);
        let sim = Simulator::new(Netlist::new());
        assert_eq!(sim.engine_kind(), EngineKind::Compiled);
    }

    #[test]
    fn engines_produce_identical_traces_and_stats() {
        // The compiled engine's flat fan-out and probe tables against the
        // interpreter's netlist rows and probe map.
        let run_on = |engine| {
            let mut n = Netlist::new();
            let ids: Vec<_> = (0..4).map(|i| n.add(format!("r{i}"), REPEATER)).collect();
            for w in ids.windows(2) {
                n.connect(Pin::new(w[0], 0), Pin::new(w[1], 0), Duration::from_ps(0.5));
            }
            let mut sim = Simulator::with_engine(n, SchedulerKind::default(), engine);
            assert_eq!(sim.engine_kind(), engine);
            let probe = sim.probe(Pin::new(ids[3], 0), "end");
            sim.inject(Pin::new(ids[0], 0), Time::from_ps(0.0));
            sim.inject(Pin::new(ids[0], 0), Time::from_ps(700.0));
            sim.run();
            (sim.probe_trace(probe).clone(), sim.stats())
        };
        let (dyn_trace, dyn_stats) = run_on(EngineKind::DynInterpreter);
        let (compiled_trace, compiled_stats) = run_on(EngineKind::Compiled);
        assert_eq!(dyn_trace, compiled_trace);
        assert_eq!(dyn_stats, compiled_stats);
    }

    #[test]
    fn set_engine_swaps_when_idle() {
        let (mut sim, first, last) = chain(2);
        for engine in [EngineKind::Compiled, EngineKind::DynInterpreter] {
            sim.set_engine(engine);
            assert_eq!(sim.engine_kind(), engine);
        }
        let probe = sim.probe(last, "end");
        sim.inject(first, Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(probe).len(), 1);
    }

    #[test]
    #[should_panic(expected = "cannot switch engines")]
    fn set_engine_rejects_pending_events() {
        let (mut sim, first, _last) = chain(2);
        sim.inject(first, Time::from_ps(1.0));
        sim.set_engine(EngineKind::Compiled);
    }

    #[test]
    fn probe_added_between_runs_reaches_compiled_engine() {
        // Probe registration invalidates the compiled cache; the rebuilt
        // flat table must carry the new probe.
        let (mut sim, first, last) = chain(3);
        sim.set_engine(EngineKind::Compiled);
        sim.inject(first, Time::ZERO);
        sim.run();
        let probe = sim.probe(last, "late");
        sim.inject(first, Time::from_ps(500.0));
        sim.run();
        assert_eq!(sim.probe_trace(probe).len(), 1);
    }

    #[test]
    fn fault_plan_drops_and_duplicates() {
        let (mut sim, first, last) = chain(2);
        let probe = sim.probe(last, "end");
        // Drop the 1st delivery on the first repeater's input, duplicate
        // the 2nd.
        let plan =
            FaultPlan::new(0)
                .drop_nth(first, 1)
                .duplicate_nth(first, 2, Duration::from_ps(20.0));
        sim.set_fault_plan(plan);
        sim.inject(first, Time::from_ps(0.0));
        sim.inject(first, Time::from_ps(100.0));
        sim.run();
        // Stimulus 1 dropped; stimulus 2 delivered plus an echo.
        assert_eq!(sim.probe_trace(probe).len(), 2);
        assert_eq!(sim.fault_counts(), (1, 1));
    }

    #[test]
    fn spurious_pulses_inject_at_plan_install() {
        let (mut sim, first, last) = chain(2);
        let probe = sim.probe(last, "end");
        sim.set_fault_plan(FaultPlan::new(0).spurious(first, Time::from_ps(7.0)));
        sim.run();
        assert_eq!(sim.probe_trace(probe).len(), 1);
    }

    #[test]
    fn delivery_counters_measure_slots_and_rows() {
        for engine in [EngineKind::DynInterpreter, EngineKind::Compiled] {
            let (mut sim, first, _last) = chain(4);
            sim.set_engine(engine);
            sim.inject(first, Time::ZERO);
            let run = sim.run();
            let stats = sim.stats();
            // One cell visit per delivery (with no fault plan every popped
            // event delivers), one CSR row per emission — identical
            // definitions in both engines.
            assert_eq!(stats.events_processed, run.delivered, "{engine:?}");
            assert_eq!(stats.fanout_rows_visited, run.emitted, "{engine:?}");
        }
    }

    #[test]
    fn restore_rewinds_state_clock_and_counters() {
        for engine in EngineKind::ALL {
            let mut n = Netlist::new();
            let cell = n.add("store", STORE);
            let mut sim = Simulator::with_engine(n, SchedulerKind::default(), engine);
            let probe = sim.probe(Pin::new(cell, 0), "q");
            sim.inject(Pin::new(cell, 0), Time::from_ps(1.0));
            sim.run();
            let stored = sim.snapshot().expect("quiescent");
            let at_snapshot = sim.stats();

            let pop = |sim: &mut Simulator| {
                sim.inject(Pin::new(cell, 1), Time::from_ps(10.0));
                sim.inject(Pin::new(cell, 7), Time::from_ps(11.0));
                sim.run();
                (
                    sim.probe_trace(probe).clone(),
                    sim.violations().to_vec(),
                    sim.stats(),
                )
            };
            let first = pop(&mut sim);
            assert_eq!(first.0.pulses(), [Time::from_ps(12.0)], "{engine}");
            assert_eq!(sim.stored(cell), Some(0));

            sim.set_violation_policy(ViolationPolicy::Degrade);
            sim.set_fault_plan(FaultPlan::new(3).drop_nth(Pin::new(cell, 1), 1));
            sim.restore(&stored);
            assert_eq!(sim.stored(cell), Some(1), "{engine}");
            assert_eq!(sim.now(), Time::from_ps(1.0));
            assert_eq!(sim.stats(), at_snapshot);
            assert!(sim.violations().is_empty());
            assert!(sim.probe_trace(probe).is_empty(), "probe records cleared");
            assert!(sim.fault_plan().is_none(), "fault plan removed");
            assert_eq!(sim.violation_policy(), ViolationPolicy::Record);
            // The cell array was rewound in place, under the built tables.
            assert_eq!(pop(&mut sim), first, "{engine}");
        }
    }

    #[test]
    fn restore_discards_pending_events() {
        let mut n = Netlist::new();
        let cell = n.add("store", STORE);
        let mut sim = Simulator::new(n);
        let stored = sim.snapshot().expect("fresh simulator");
        sim.inject(Pin::new(cell, 0), Time::from_ps(5.0));
        sim.restore(&stored);
        assert_eq!(sim.run().delivered, 0);
        assert_eq!(sim.stored(cell), Some(0));
    }

    #[test]
    fn snapshot_is_refused_with_events_in_flight() {
        let mut n = Netlist::new();
        let cell = n.add("store", STORE);
        let mut sim = Simulator::new(n);
        sim.inject(Pin::new(cell, 0), Time::from_ps(1.0));
        sim.inject(Pin::new(cell, 1), Time::from_ps(9.0));
        assert_eq!(
            sim.snapshot().unwrap_err(),
            SnapshotError::EventsInFlight(2)
        );
        sim.run_for(Time::from_ps(5.0));
        assert_eq!(
            sim.snapshot().unwrap_err(),
            SnapshotError::EventsInFlight(1)
        );
        sim.run();
        assert!(sim.snapshot().is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot inject into c2.0: this netlist does not hold component c2")]
    fn injecting_into_a_component_the_netlist_does_not_hold_panics() {
        let (mut sim, first, _last) = chain(2);
        sim.inject(first, Time::ZERO);
        sim.inject(Pin::new(ComponentId(2), 0), Time::ZERO);
    }

    #[test]
    #[should_panic(expected = "cannot inject into c9.0: this netlist does not hold component c9")]
    fn a_spurious_pulse_on_a_component_the_netlist_does_not_hold_panics() {
        let (mut sim, _first, _last) = chain(2);
        sim.set_fault_plan(FaultPlan::new(1).spurious(Pin::new(ComponentId(9), 0), Time::ZERO));
    }

    #[test]
    #[should_panic(expected = "cannot probe c2.0: this netlist does not hold component c2")]
    fn probing_a_component_the_netlist_does_not_hold_panics() {
        let (mut sim, _first, last) = chain(2);
        sim.probe(last, "end");
        sim.probe(Pin::new(ComponentId(2), 0), "elsewhere");
    }

    #[test]
    #[should_panic(expected = "cannot inject into reserved input pin c0.128")]
    fn injecting_into_a_reserved_pin_panics() {
        let (mut sim, first, _last) = chain(2);
        sim.inject(Pin::new(first.component, INPUT_PIN_LIMIT - 1), Time::ZERO);
        sim.inject(Pin::new(first.component, INPUT_PIN_LIMIT), Time::ZERO);
    }

    /// A 4-repeater chain whose second repeater's op is swapped for a 9 ps
    /// one behind the simulator's back (no `netlist_mut`, so the compiled
    /// tables keep the 1 ps entry). Returns the chain end's pulse time: a
    /// delivery that skips the cell replays the 1 ps table entry, a full
    /// step reads the swapped op.
    fn end_time_with_swapped_relay(fault: Option<FaultPlan>, probe_mid_run: bool) -> Time {
        let (mut sim, first, last) = chain(4);
        let probe = sim.probe(last, "end");
        sim.prepare();
        let second = ComponentId(1);
        sim.netlist.cells_mut()[second.index()] = Cell::new(CellOp::Jtl {
            delay: Duration::from_ps(9.0),
        });
        if let Some(plan) = fault {
            sim.set_fault_plan(plan);
        }
        sim.inject(first, Time::ZERO);
        if probe_mid_run {
            // The delivery into the second repeater is queued, flagged.
            sim.run_for(Time::from_ps(1.2));
            sim.probe(Pin::new(ComponentId(3), 1), "unused");
        }
        sim.run();
        sim.probe_trace(probe).pulses()[0]
    }

    #[test]
    fn flagged_relay_deliveries_skip_the_cell() {
        // 4 repeater delays + 3 wires of 0.5 ps with the table's 1 ps,
        // also under a plan of pin faults alone, which act on the delivery
        // before it reaches the table...
        let table = Time::from_ps(5.5);
        assert_eq!(end_time_with_swapped_relay(None, false), table);
        let pin_faults = FaultPlan::new(1).drop_nth(Pin::new(ComponentId(3), 3), 1);
        assert_eq!(end_time_with_swapped_relay(Some(pin_faults), false), table);
        // ...and the swapped op's 9 ps wherever the full step runs: while
        // a delay plan has scaled the ops (σ small enough that every delay
        // rounds to itself), and for flags queued before a table rebuild.
        let swapped = Time::from_ps(13.5);
        let delays = FaultPlan::new(1).with_delay_sigma(1e-9);
        assert_eq!(end_time_with_swapped_relay(Some(delays), false), swapped);
        assert_eq!(end_time_with_swapped_relay(None, true), swapped);
    }

    /// An 8-repeater chain under a delay plan of σ = 1e300, which scales
    /// every cell with a positive draw past the event window.
    fn huge_sigma_on(engine: EngineKind) {
        let (mut sim, first, _last) = chain(8);
        sim.set_engine(engine);
        sim.inject(first, Time::ZERO);
        sim.set_fault_plan(FaultPlan::new(7).with_delay_sigma(1e300));
    }

    #[test]
    #[should_panic(expected = "past the 56-bit event window: plan refused")]
    fn a_delay_plan_past_the_event_window_is_refused_by_the_compiled_engine() {
        huge_sigma_on(EngineKind::Compiled);
    }

    #[test]
    #[should_panic(expected = "past the 56-bit event window: plan refused")]
    fn a_delay_plan_past_the_event_window_is_refused_by_the_dyn_interpreter() {
        huge_sigma_on(EngineKind::DynInterpreter);
    }

    #[test]
    fn a_delay_plan_just_inside_the_event_window_is_installed() {
        // One 2^55 fs delay: a factor of up to 2 still fits the 56-bit
        // window, so σ = 0.25 (factors within 1 ± 0.75) is accepted.
        for engine in EngineKind::ALL {
            let mut n = Netlist::new();
            let far = n.add(
                "far",
                Cell::new(CellOp::Jtl {
                    delay: Duration::from_fs(EVENT_TIME_LIMIT_FS / 2),
                }),
            );
            let mut sim = Simulator::with_engine(n, SchedulerKind::default(), engine);
            sim.set_fault_plan(FaultPlan::new(3).with_delay_sigma(0.25));
            sim.inject(Pin::new(far, 0), Time::ZERO);
            assert_eq!(sim.run().delivered, 1, "{engine}");
        }
    }

    #[test]
    fn restore_and_the_next_plan_write_the_nominal_ops_back() {
        let (mut sim, first, last) = chain(4);
        let probe = sim.probe(last, "end");
        let nominal: Vec<CellOp> = sim.netlist().iter().map(|(_, _, c)| c.op).collect();
        let ops = |sim: &Simulator| -> Vec<CellOp> {
            sim.netlist().iter().map(|(_, _, c)| c.op).collect()
        };
        let built = sim.snapshot().expect("fresh");
        sim.set_fault_plan(FaultPlan::new(5).with_delay_sigma(0.2));
        let scaled = ops(&sim);
        assert_ne!(
            scaled, nominal,
            "the compiled engine runs on instance delays"
        );
        sim.inject(first, Time::ZERO);
        sim.run();
        let varied = sim.probe_trace(probe).pulses().to_vec();
        sim.restore(&built);
        assert_eq!(ops(&sim), nominal, "restore writes the nominal ops back");
        sim.set_fault_plan(FaultPlan::new(5).with_delay_sigma(0.2));
        assert_eq!(ops(&sim), scaled, "the same plan scales them the same way");
        sim.set_fault_plan(FaultPlan::new(5));
        assert_eq!(ops(&sim), nominal, "a σ = 0 plan keeps them nominal");
        sim.set_fault_plan(FaultPlan::new(5).with_delay_sigma(0.2));
        sim.set_engine(EngineKind::DynInterpreter);
        assert_eq!(
            ops(&sim),
            nominal,
            "the dyn interpreter scales per emission"
        );
        sim.inject(first, Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(probe).pulses(), varied);
    }

    #[test]
    fn delay_sigma_perturbs_reproducibly() {
        let run_with_seed = |seed: u64| {
            let (mut sim, first, last) = chain(4);
            let probe = sim.probe(last, "end");
            sim.set_fault_plan(FaultPlan::new(seed).with_delay_sigma(0.2));
            sim.inject(first, Time::from_ps(0.0));
            sim.run();
            sim.probe_trace(probe).pulses().to_vec()
        };
        let a = run_with_seed(1);
        assert_eq!(a, run_with_seed(1), "same seed, identical trace");
        assert_ne!(a, run_with_seed(2), "different seed perturbs differently");
        // Nominal arrival is 5.5 ps; 20 % σ must move it but not wildly.
        let at = a[0].as_ps();
        assert!(at > 2.0 && at < 12.0, "arrival {at}");
        assert_ne!(a[0], Time::from_ps(5.5));
    }
}

/// Ignored microbenchmark: the per-event floor of each engine on a
/// workload with no queue pressure (a 256-JTL ring, one pulse in
/// flight — every event is exactly pop + deliver + one emission + one
/// push, and the whole working set fits in L1). Run with
/// `cargo test --release -p sfq-sim ring_throughput -- --ignored --nocapture`;
/// perfbench's traced `sim.ns_per_event` (`--trace 1`) sits above this
/// floor by the queue's bucket handling and the larger netlist's cache
/// footprint.
#[cfg(test)]
mod bench {
    use super::*;
    use crate::cell::{Cell, CellOp};
    use crate::compiled::EngineKind;
    use crate::queue::SchedulerKind;
    use crate::time::Duration;
    use std::time::Instant;

    /// A `len`-cell ring of 3 ps JTLs; returns the netlist and the input
    /// pin that starts the circulation.
    fn ring(len: usize) -> (Netlist, Pin) {
        let jtl = Cell::new(CellOp::Jtl {
            delay: Duration::from_ps(3.0),
        });
        let mut n = Netlist::new();
        let ids: Vec<_> = (0..len).map(|i| n.add(format!("j{i}"), jtl)).collect();
        for i in 0..len {
            n.connect(
                Pin::new(ids[i], 0),
                Pin::new(ids[(i + 1) % len], 1),
                Duration::from_ps(1.0),
            );
        }
        (n, Pin::new(ids[0], 1))
    }

    #[test]
    #[ignore = "wall-clock microbenchmark; run with --ignored --nocapture"]
    fn ring_throughput() {
        for engine in [EngineKind::DynInterpreter, EngineKind::Compiled] {
            for scheduler in [SchedulerKind::CalendarQueue, SchedulerKind::ReferenceHeap] {
                let (netlist, first) = ring(256);
                let mut sim = Simulator::with_engine(netlist, scheduler, engine);
                sim.set_event_budget(u64::MAX);
                sim.inject(first, Time::from_ps(1.0));
                // Warm up (and, for the compiled engine, build the tables).
                sim.run_for(Time::from_ps(10_000.0));
                let n0 = sim.stats().events_processed;
                let t0 = Instant::now();
                sim.run_for(Time::from_ps(20_000_000.0));
                let el = t0.elapsed();
                let n = sim.stats().events_processed - n0;
                eprintln!(
                    "{} + {}: {:.1} ns/event ({n} events)",
                    engine.label(),
                    scheduler.label(),
                    el.as_nanos() as f64 / n as f64
                );
            }
        }
    }
}
