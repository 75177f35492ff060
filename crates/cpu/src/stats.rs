//! Run statistics: CPI and stall attribution.

use std::fmt;

use sfq_cells::timing::GATE_CYCLE_PS;

/// Why an instruction's register-file read was delayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallKind {
    /// Waiting for a producer's write-back (read-after-write).
    Raw,
    /// Waiting for a loopback write to restore a just-read register.
    Loopback,
    /// Waiting for a register-file port slot (issue-interval contention).
    Port,
    /// Waiting for a control-flow instruction to resolve.
    Control,
}

impl StallKind {
    /// All stall causes, in reporting order.
    pub const ALL: [StallKind; 4] = [
        StallKind::Raw,
        StallKind::Loopback,
        StallKind::Port,
        StallKind::Control,
    ];

    /// Short human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            StallKind::Raw => "RAW",
            StallKind::Loopback => "loopback-restore",
            StallKind::Port => "issue-interval",
            StallKind::Control => "control-redirect",
        }
    }
}

/// One row of the stall-cause histogram: how many instructions stalled on
/// a cause and how many gate cycles it cost in total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StallBin {
    /// The binding constraint.
    pub kind: StallKind,
    /// Instructions delayed by this cause.
    pub events: u64,
    /// Total gate cycles lost to it.
    pub cycles: u64,
}

/// Aggregate statistics of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PipelineStats {
    /// Instructions retired.
    pub retired: u64,
    /// Total gate cycles from first issue to last write-back.
    pub gate_cycles: u64,
    /// Gate cycles lost to read-after-write waits.
    pub raw_stall_cycles: u64,
    /// Gate cycles lost waiting for loopback restores.
    pub loopback_stall_cycles: u64,
    /// Gate cycles lost to port contention (issue interval).
    pub port_stall_cycles: u64,
    /// Gate cycles lost to control-flow resolution.
    pub control_stall_cycles: u64,
    /// Instructions delayed by a read-after-write wait.
    pub raw_stall_events: u64,
    /// Instructions delayed by a loopback restore.
    pub loopback_stall_events: u64,
    /// Instructions delayed by port contention.
    pub port_stall_events: u64,
    /// Instructions delayed by control-flow resolution.
    pub control_stall_events: u64,
    /// Dynamic count of instructions whose two sources collided in a bank
    /// (dual-banked design only).
    pub bank_conflicts: u64,
    /// Dynamic count of same-register source pairs satisfied by readout
    /// duplication (the RAR-hazard fast path).
    pub rar_duplications: u64,
}

impl PipelineStats {
    /// Cycles per instruction (gate cycles).
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.gate_cycles as f64 / self.retired as f64
        }
    }

    /// Modelled wall-clock run time in nanoseconds.
    pub fn wall_ns(&self) -> f64 {
        self.gate_cycles as f64 * GATE_CYCLE_PS / 1000.0
    }

    /// CPI overhead of `self` relative to `baseline`, as a fraction
    /// (0.098 = 9.8%).
    pub fn cpi_overhead_vs(&self, baseline: &PipelineStats) -> f64 {
        self.cpi() / baseline.cpi() - 1.0
    }

    /// The stall-cause histogram: (cause, stalled instructions, gate
    /// cycles lost) per cause, in [`StallKind::ALL`] order.
    pub fn stall_histogram(&self) -> [StallBin; 4] {
        StallKind::ALL.map(|kind| {
            let (events, cycles) = match kind {
                StallKind::Raw => (self.raw_stall_events, self.raw_stall_cycles),
                StallKind::Loopback => (self.loopback_stall_events, self.loopback_stall_cycles),
                StallKind::Port => (self.port_stall_events, self.port_stall_cycles),
                StallKind::Control => (self.control_stall_events, self.control_stall_cycles),
            };
            StallBin {
                kind,
                events,
                cycles,
            }
        })
    }
}

impl fmt::Display for PipelineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "retired             {:>12}", self.retired)?;
        writeln!(f, "gate cycles         {:>12}", self.gate_cycles)?;
        writeln!(f, "CPI                 {:>12.2}", self.cpi())?;
        for bin in self.stall_histogram() {
            writeln!(
                f,
                "{:<19} {:>12} cycles / {:>9} events",
                format!("{} stalls", bin.kind.label()),
                bin.cycles,
                bin.events
            )?;
        }
        writeln!(f, "bank conflicts      {:>12}", self.bank_conflicts)?;
        write!(f, "rar duplications    {:>12}", self.rar_duplications)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpi_math() {
        let s = PipelineStats {
            retired: 10,
            gate_cycles: 300,
            ..Default::default()
        };
        assert_eq!(s.cpi(), 30.0);
        let b = PipelineStats {
            retired: 10,
            gate_cycles: 200,
            ..Default::default()
        };
        assert!((s.cpi_overhead_vs(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_cpi() {
        assert_eq!(PipelineStats::default().cpi(), 0.0);
    }

    #[test]
    fn display_contains_cpi() {
        let s = PipelineStats {
            retired: 4,
            gate_cycles: 100,
            ..Default::default()
        };
        assert!(s.to_string().contains("25.00"));
    }
}
