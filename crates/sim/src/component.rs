//! The [`PulseContext`] a cell's step emits pulses and records
//! violations through.

use crate::netlist::{ComponentId, Labels};
use crate::time::{Duration, Time};
use crate::violation::{Violation, ViolationPolicy};

/// Context handed to a cell while it processes an incoming pulse (see
/// [`CellOp::step`](crate::cell::CellOp::step)).
///
/// The cell uses it to emit pulses on its own output pins (after an
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
    /// An already-resolved label (the dyn interpreter).
    Resolved(&'a str),
    /// The netlist's label table plus the cell to resolve on demand.
    Lazy(&'a Labels, ComponentId),
}

impl CellLabel<'_> {
    fn as_str(&self) -> &str {
        match self {
            CellLabel::Resolved(s) => s,
            CellLabel::Lazy(labels, cell) => labels.get(cell.index()),
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

#[cfg(test)]
mod tests {
    use super::*;

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
        ctx.emit_after(2, Time::from_ps(5.0), Duration::from_ps(1.0));
        ctx.emit(0, Time::from_ps(7.0));
        assert_eq!(
            emitted,
            vec![(2, Time::from_ps(6.0)), (0, Time::from_ps(7.0))]
        );
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
}
