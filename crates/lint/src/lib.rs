//! `sfq-lint`: static netlist DRC and min/max-path timing analysis.
//!
//! The qPalace/qSTA-style pre-flight pass of the HiPerRF reproduction:
//! every rule runs over a plain [`Netlist`]
//! without simulating, so malformed circuits are caught at construction
//! time rather than (maybe) by the dynamic violation checkers. The rule
//! families, in the order they run:
//!
//! | rule id            | severity | what it catches |
//! |--------------------|----------|-----------------|
//! | `pin-range`        | error    | wires referencing pin indices a cell does not have |
//! | `dup-wire`         | error    | parallel wires between the same pin pair (double driving) |
//! | `fanout`           | error    | an output pin driving more than one sink (SFQ fan-out needs explicit splitters) |
//! | `fanin`            | error    | an input pin driven by more than one source (reconvergence needs a merger) |
//! | `merger-inputs`    | error    | mergers without exactly two driven inputs |
//! | `dangling-input`   | error    | input pins neither wired nor declared as external ports |
//! | `undriven-storage` | error    | storage cells with no driven input at all |
//! | `unreachable`      | error    | components no external input can ever pulse |
//! | `dropped-wire`     | error    | output pins driving nothing without a declared external output — pulses silently disappearing (the static backstop of the typed builder's endpoint ledger) |
//! | `cycle`            | error/info | feedback loops, with a witness path and suggested cut set; free-running transport loops are errors, clocked feedback (HiPerRF loopback, shift rings) is informational |
//! | `timing-slack`     | error/info | static separation slack from min/max-path STA against the NDROC 53 ps re-arm and HC-DRO 10 ps windows |
//! | `budget`           | error    | lint-walk JJ count / static power diverging from `budget::structural_budget` (appended by [`budget_check`]) |
//!
//! The timing rule is the static counterpart of the dynamic `violation.rs`
//! checks: with operations issued every `issue_period_ps`, the latest
//! pulse of one operation and the earliest pulse of the next arrive at a
//! pin at least `issue_period − (max_arrival − min_arrival)` apart, so a
//! *negative* `slack = issue_period − spread − window` means the schedule
//! can statically violate the cell's re-arm/separation window. Pins whose
//! min/max arrivals differ (pulse-train pins) additionally get an `info`
//! finding: their *within*-operation spacing is not statically provable
//! and remains guarded by the dynamic checkers.

mod report;
mod rules;

pub use report::{Finding, LintReport, RuleId, Severity, TimingSummary};

use sfq_sim::netlist::{Netlist, Pin};

/// The issue schedule a netlist is analysed against.
#[derive(Debug, Clone)]
pub struct TimingSpec {
    /// Pins carrying the pulse front of one operation (injected at t = 0).
    pub starts: Vec<Pin>,
    /// Gap between successive operations (ps).
    pub issue_period_ps: f64,
}

/// The external-port context a design supplies for linting: which input
/// pins the test bench drives (so they are neither dangling nor
/// unreachable roots) and, optionally, the issue schedule for the static
/// timing rule.
#[derive(Debug, Clone, Default)]
pub struct LintPorts {
    /// Input pins injected from outside the netlist.
    pub external_inputs: Vec<Pin>,
    /// Output pins observed from outside the netlist (probe pads, monitor
    /// branches) — exempt from the `dropped-wire` rule.
    pub external_outputs: Vec<Pin>,
    /// Issue schedule for the separation-slack rule; `None` skips it.
    pub timing: Option<TimingSpec>,
}

/// Runs every structural and timing rule over `netlist`.
///
/// # Panics
///
/// Panics, naming the pin, if an external input, an external output or a
/// timing start lies on a component `netlist` does not hold (an id taken
/// from another, larger netlist).
pub fn lint(netlist: &Netlist, ports: &LintPorts) -> LintReport {
    rules::run(netlist, ports)
}

/// Appends the `budget` cross-check: the census the lint walk produced
/// must agree with an independently derived budget (JJ count and static
/// power). `hiperrf::lint` feeds this from `budget::structural_budget`.
pub fn budget_check(report: &mut LintReport, expected_jj: u64, expected_power_uw: f64) {
    let jj = report.census.jj_total();
    let power = report.census.static_power_uw();
    if jj != expected_jj || (power - expected_power_uw).abs() > 1e-6 {
        report.findings.push(Finding {
            rule: RuleId::Budget,
            severity: Severity::Error,
            path: String::new(),
            message: format!(
                "lint walk counted {jj} JJ / {power:.2} µW but the structural budget \
                 expects {expected_jj} JJ / {expected_power_uw:.2} µW"
            ),
            fix_hint: "reconcile the netlist with budget::structural_budget — a cell was \
                       added or removed outside the budgeted scopes"
                .into(),
        });
    }
}
