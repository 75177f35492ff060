//! The [`Component`] trait implemented by every SFQ cell model.

use std::fmt::Debug;

use crate::cell::{CellKind, CellState, Lowered};
use crate::netlist::{ComponentId, Netlist};
use crate::time::{Duration, Time};
use crate::violation::{Violation, ViolationPolicy};

/// Context handed to a component while it processes an incoming pulse.
///
/// The component uses it to emit pulses on its own output pins (after an
/// internal delay) and to report timing violations. The simulator, not the
/// cell, owns the [`ViolationPolicy`]: a cell that can degrade asks
/// [`PulseContext::violation_degrades`] whether the offending pulse should
/// be dropped and acts accordingly.
#[derive(Debug)]
pub struct PulseContext<'a> {
    pub(crate) emitted: &'a mut Vec<(u8, Time)>,
    pub(crate) violations: &'a mut Vec<Violation>,
    pub(crate) component_label: CellLabel<'a>,
    pub(crate) policy: ViolationPolicy,
    pub(crate) degraded_drops: &'a mut u64,
}

/// The delivering cell's label, resolved only if a violation needs it.
///
/// Violations are rare; loading the label table on every delivery costs
/// the compiled hot loop a scattered cache line for a string it almost
/// never reads. `Lazy` defers that load to the violation path.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellLabel<'a> {
    /// An already-resolved label (dyn interpreter, unlowered cells).
    Resolved(&'a str),
    /// The netlist plus the cell to resolve on demand.
    Lazy(&'a Netlist, ComponentId),
}

impl CellLabel<'_> {
    fn as_str(&self) -> &str {
        match self {
            CellLabel::Resolved(s) => s,
            CellLabel::Lazy(netlist, cell) => netlist.label(*cell),
        }
    }
}

impl<'a> PulseContext<'a> {
    /// Emits a pulse on output pin `pin` at absolute time `at`.
    ///
    /// `at` is usually `now + internal_delay`.
    pub fn emit(&mut self, pin: u8, at: Time) {
        self.emitted.push((pin, at));
    }

    /// Emits a pulse on output pin `pin`, `delay` after `now`.
    pub fn emit_after(&mut self, pin: u8, now: Time, delay: Duration) {
        self.emit(pin, now + delay);
    }

    /// Records a timing violation observed by the cell.
    pub fn violation(&mut self, now: Time, kind: &'static str, detail: String) {
        self.violations.push(Violation {
            at: now,
            cell: self.component_label.as_str().to_string(),
            kind,
            detail,
        });
    }

    /// Records a timing violation and reports whether the active
    /// [`ViolationPolicy`] wants the offending pulse *degraded* (dropped).
    ///
    /// Cells with a physical failure mode call this instead of
    /// [`PulseContext::violation`]: when it returns `true` the cell must
    /// skip the state update and emissions the pulse would normally cause
    /// (the marginal pulse is lost in the junction, as in a real circuit).
    #[must_use]
    pub fn violation_degrades(&mut self, now: Time, kind: &'static str, detail: String) -> bool {
        self.violation(now, kind, detail);
        if self.policy == ViolationPolicy::Degrade {
            *self.degraded_drops += 1;
            true
        } else {
            false
        }
    }

    /// The violation policy active for this run.
    pub fn policy(&self) -> ViolationPolicy {
        self.policy
    }
}

/// A behavioral SFQ cell model.
///
/// Components receive fluxon pulses on input pins and may emit pulses on
/// output pins; the simulator calls [`Component::pulse`] in strict global
/// time order. Every SFQ primitive implements this through the blanket
/// impl for [`Primitive`](crate::cell::Primitive), which runs the one
/// shared transition function; a hand-written impl (a test double, a
/// third-party cell) keeps its own state and runs boxed under either
/// engine.
///
/// Pin numbering is per-component and documented by each cell type in
/// `sfq-cells`.
pub trait Component: Debug {
    /// The cell's kind: its row in the per-kind table, which census, lint
    /// and static timing read. Every primitive answers its op's kind; a
    /// hand-written component is [`CellKind::Dyn`] (the default).
    fn kind(&self) -> CellKind {
        CellKind::Dyn
    }

    /// Handles a pulse arriving at input pin `pin` at time `now`.
    fn pulse(&mut self, pin: u8, now: Time, ctx: &mut PulseContext<'_>);

    /// Returns an inspectable integer state, if the cell has one.
    ///
    /// Storage cells expose their stored fluxon count here (0 or 1 for
    /// DRO/NDRO, 0–3 for HC-DRO). Pure routing cells return `None`. Under
    /// the compiled engine a lowered cell's box is out of date between
    /// runs, so peeks go through
    /// [`Simulator::stored`](crate::simulator::Simulator::stored), which
    /// reports this value from wherever the state lives.
    fn stored(&self) -> Option<u8> {
        None
    }

    /// Nominal input-to-output propagation delay, for static timing
    /// analysis. `None` means the component is not a timed cell (the
    /// default for test doubles).
    fn propagation_delay(&self) -> Option<Duration> {
        None
    }

    /// Lowers the cell into its compiled form — its
    /// [`CellOp`](crate::cell::CellOp) plus a copy of its current
    /// [`CellState`] — for the compiled execution engine. From then on
    /// the compiled slot holds the cell's only current state, until the
    /// simulator drops the compiled form and writes it back through
    /// [`Component::restore`].
    ///
    /// Every [`Primitive`](crate::cell::Primitive) lowers to exactly the
    /// op and state its boxed form steps, so both engines run the same
    /// transition on the same state. `None` (the default, for
    /// hand-written components) means the cell has no lowering; the
    /// compiled engine then dispatches it through this boxed
    /// implementation as [`CellOp::Dyn`](crate::cell::CellOp::Dyn).
    fn lower(&self) -> Option<Lowered> {
        None
    }

    /// Writes a state taken by [`Component::lower`] back into the cell.
    ///
    /// The compiled engine keeps lowered state in its own dense slots; the
    /// simulator calls this once per cell when it drops the compiled form
    /// (before netlist access through `netlist_mut`, probe registration or
    /// an engine switch), and when it rewinds a snapshot with no compiled
    /// form present. Cells without a lowering are never restored (the
    /// default is a no-op).
    fn restore(&mut self, state: &CellState) {
        let _ = state;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Echo;
    impl Component for Echo {
        fn pulse(&mut self, pin: u8, now: Time, ctx: &mut PulseContext<'_>) {
            ctx.emit_after(pin, now, Duration::from_ps(1.0));
        }
    }

    fn ctx_over<'a>(
        emitted: &'a mut Vec<(u8, Time)>,
        violations: &'a mut Vec<Violation>,
        degraded: &'a mut u64,
        policy: ViolationPolicy,
    ) -> PulseContext<'a> {
        PulseContext {
            emitted,
            violations,
            component_label: CellLabel::Resolved("cell7"),
            policy,
            degraded_drops: degraded,
        }
    }

    #[test]
    fn context_emit_collects() {
        let mut emitted = Vec::new();
        let mut violations = Vec::new();
        let mut degraded = 0;
        let mut ctx = ctx_over(
            &mut emitted,
            &mut violations,
            &mut degraded,
            ViolationPolicy::Record,
        );
        Echo.pulse(2, Time::from_ps(5.0), &mut ctx);
        assert_eq!(emitted, vec![(2, Time::from_ps(6.0))]);
        assert!(violations.is_empty());
    }

    #[test]
    fn context_violation_records_label() {
        let mut emitted = Vec::new();
        let mut violations = Vec::new();
        let mut degraded = 0;
        let mut ctx = ctx_over(
            &mut emitted,
            &mut violations,
            &mut degraded,
            ViolationPolicy::Record,
        );
        ctx.violation(Time::from_ps(1.0), "hold", "too close".to_string());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].cell, "cell7");
        assert_eq!(violations[0].kind, "hold");
    }

    #[test]
    fn violation_degrades_follows_policy() {
        let mut emitted = Vec::new();
        let mut violations = Vec::new();
        let mut degraded = 0;
        for (policy, expect_drop) in [
            (ViolationPolicy::Record, false),
            (ViolationPolicy::FailFast, false),
            (ViolationPolicy::Degrade, true),
        ] {
            let mut ctx = ctx_over(&mut emitted, &mut violations, &mut degraded, policy);
            let drop = ctx.violation_degrades(Time::from_ps(1.0), "re-arm", "x".to_string());
            assert_eq!(drop, expect_drop, "{policy:?}");
        }
        // Every call records the violation; only Degrade counted a drop.
        assert_eq!(violations.len(), 3);
        assert_eq!(degraded, 1);
    }

    #[test]
    fn default_stored_is_none() {
        assert_eq!(Echo.stored(), None);
    }
}
