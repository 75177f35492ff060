//! Structured lint results: rule ids, severities, findings, and the
//! per-netlist report with its census and timing summary.

use std::fmt;

use sfq_cells::Census;

/// Stable machine-readable identifiers for every lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RuleId {
    /// Wire endpoint outside the cell's pin range.
    PinRange,
    /// Parallel wires between the same pin pair.
    DupWire,
    /// Output pin driving more than one sink.
    Fanout,
    /// Input pin driven by more than one source.
    Fanin,
    /// Merger without exactly two driven inputs.
    MergerInputs,
    /// Input pin neither wired nor declared external.
    DanglingInput,
    /// Storage cell with no driven input at all.
    UndrivenStorage,
    /// Component unreachable from every external input.
    Unreachable,
    /// Output pin driving nothing without being a declared external
    /// output — its pulses silently disappear.
    DroppedWire,
    /// Feedback loop (witness path + suggested cuts).
    Cycle,
    /// Static separation slack against a re-arm/separation window.
    TimingSlack,
    /// Lint-walk census diverging from the structural budget.
    Budget,
}

impl RuleId {
    /// Every rule, in the order the engine runs them — the column order
    /// of the `repro lint` matrix.
    pub const ALL: [RuleId; 12] = [
        RuleId::PinRange,
        RuleId::DupWire,
        RuleId::Fanout,
        RuleId::Fanin,
        RuleId::MergerInputs,
        RuleId::DanglingInput,
        RuleId::UndrivenStorage,
        RuleId::Unreachable,
        RuleId::DroppedWire,
        RuleId::Cycle,
        RuleId::TimingSlack,
        RuleId::Budget,
    ];

    /// The kebab-case rule id used in reports and tests.
    pub fn id(self) -> &'static str {
        match self {
            RuleId::PinRange => "pin-range",
            RuleId::DupWire => "dup-wire",
            RuleId::Fanout => "fanout",
            RuleId::Fanin => "fanin",
            RuleId::MergerInputs => "merger-inputs",
            RuleId::DanglingInput => "dangling-input",
            RuleId::UndrivenStorage => "undriven-storage",
            RuleId::Unreachable => "unreachable",
            RuleId::DroppedWire => "dropped-wire",
            RuleId::Cycle => "cycle",
            RuleId::TimingSlack => "timing-slack",
            RuleId::Budget => "budget",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// How serious a finding is. Only errors gate simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Expected-but-noteworthy structure (clocked feedback, train pins).
    Info,
    /// Suspicious but not simulation-blocking.
    Warning,
    /// A defect; the FailFast gate refuses to simulate with these.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One lint diagnosis.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which rule fired.
    pub rule: RuleId,
    /// How serious it is.
    pub severity: Severity,
    /// Hierarchical component path via the scope tree (`bank0/reg3/hcdro2`),
    /// empty for netlist-global findings.
    pub path: String,
    /// What was found.
    pub message: String,
    /// How to fix it.
    pub fix_hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = if self.path.is_empty() {
            String::new()
        } else {
            format!(" at {}", self.path)
        };
        write!(
            f,
            "[{}] {}{}: {} (fix: {})",
            self.severity, self.rule, at, self.message, self.fix_hint
        )
    }
}

/// Summary of the separation-slack pass.
#[derive(Debug, Clone)]
pub struct TimingSummary {
    /// Issue period the netlist was analysed against (ps).
    pub issue_period_ps: f64,
    /// Number of guarded pins with a defined arrival.
    pub checked_pins: usize,
    /// The smallest slack over all checked pins (ps), if any pin was
    /// reachable.
    pub worst_slack_ps: Option<f64>,
    /// `path.PIN` of the worst-slack pin.
    pub worst_pin: String,
}

/// The structured result of linting one netlist.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Every finding, in rule order.
    pub findings: Vec<Finding>,
    /// Cell census gathered during the lint walk (the budget cross-check
    /// input).
    pub census: Census,
    /// Components visited.
    pub components: usize,
    /// Wires visited.
    pub wires: usize,
    /// Separation-slack summary, when a [`crate::TimingSpec`] was given
    /// and the trigger graph was analysable.
    pub timing: Option<TimingSummary>,
}

impl LintReport {
    /// Findings of one rule.
    pub fn count(&self, rule: RuleId) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Findings at one severity.
    pub fn count_severity(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Error-severity findings (the FailFast gate input).
    pub fn errors(&self) -> usize {
        self.count_severity(Severity::Error)
    }

    /// `true` when no error-severity finding is present. Warnings and
    /// infos (clocked feedback, train pins) do not block simulation.
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// The distinct rule ids that fired, in [`RuleId::ALL`] order.
    pub fn fired_rules(&self) -> Vec<RuleId> {
        RuleId::ALL
            .into_iter()
            .filter(|&r| self.count(r) > 0)
            .collect()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "lint: {} components, {} wires, {} JJ, {:.2} µW — {} error(s), {} warning(s), {} info(s)",
            self.components,
            self.wires,
            self.census.jj_total(),
            self.census.static_power_uw(),
            self.errors(),
            self.count_severity(Severity::Warning),
            self.count_severity(Severity::Info),
        )?;
        if let Some(t) = &self.timing {
            match t.worst_slack_ps {
                Some(s) => writeln!(
                    f,
                    "timing: issue period {:.1} ps, {} guarded pins, worst slack {:+.1} ps at {}",
                    t.issue_period_ps, t.checked_pins, s, t.worst_pin
                )?,
                None => writeln!(
                    f,
                    "timing: issue period {:.1} ps, no guarded pin reachable",
                    t.issue_period_ps
                )?,
            }
        }
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}
