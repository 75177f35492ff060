//! Shard-resumable job façades over the margin, yield, soak, and lint
//! engines — the execution layer of the `sfq-serve` job server.
//!
//! A *shard* is a contiguous range of Monte Carlo trial indices. Every
//! trial is a pure function of `(job parameters, seed, trial index)` —
//! trial `i` derives its randomness from
//! [`Rng64::fork`](sfq_sim::rng::Rng64::fork)`(seed, i)` — so a shard's
//! result is a pure function of the job spec and the shard index. That
//! purity is what makes the server's write-ahead log *replayable*: after a
//! crash, completed shards are loaded from the journal and only missing
//! shards re-run, and the reassembled result is bit-identical to an
//! uninterrupted run. The kill-and-resume differential tests assert it.
//!
//! Every shard also returns the [`BatchStats`] roll-up of the simulators
//! it ran, so the serve layer reports honest per-job event counts without
//! re-walking traces.

use crate::config::RfGeometry;
use crate::designs::Design;
use crate::harness::BatchStats;
use crate::hashing::Fnv64;
use crate::margins::{jitter_trial, soak_trial, yield_trial};

/// How a job's trial range splits into contiguous shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Total Monte Carlo trials.
    pub trials: u32,
    /// Trials per shard (the last shard may be short).
    pub shard_len: u32,
}

impl ShardPlan {
    /// A plan over `trials` trials in shards of `shard_len`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_len` is zero.
    pub fn new(trials: u32, shard_len: u32) -> Self {
        assert!(shard_len > 0, "shard length must be positive");
        ShardPlan { trials, shard_len }
    }

    /// Number of shards (zero-trial jobs have zero shards).
    pub fn shard_count(&self) -> u32 {
        self.trials.div_ceil(self.shard_len)
    }

    /// Trial-index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn range(&self, shard: u32) -> std::ops::Range<u32> {
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        let start = shard * self.shard_len;
        start..(start + self.shard_len).min(self.trials)
    }
}

/// Result of one yield-curve shard: per-trial critical σ values in trial
/// order, plus the scheduler work behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldShard {
    /// Critical σ of each trial in the shard's range, in index order.
    pub criticals: Vec<f64>,
    /// Aggregate scheduler counters over every simulator the shard built.
    pub stats: BatchStats,
}

/// Runs the yield-curve trials in `range` sequentially (shards are the
/// parallel unit; the supervisor runs them on worker threads).
pub fn yield_shard(
    design: Design,
    geometry: RfGeometry,
    seed: u64,
    range: std::ops::Range<u32>,
) -> YieldShard {
    let mut stats = BatchStats::new();
    let criticals = range
        .map(|i| {
            let (c, batch) = yield_trial(design, geometry, seed, i);
            stats.merge(&batch);
            c
        })
        .collect();
    YieldShard { criticals, stats }
}

/// Assembles a yield curve from the full, in-order per-trial critical σ
/// vector: for each σ, the fraction of trials whose critical σ is at
/// least σ. [`yield_curve`](crate::margins::yield_curve) and a resumed
/// job's WAL-replayed shards both reduce through it, so the two agree bit
/// for bit.
pub fn assemble_yield_curve(sigmas: &[f64], criticals: &[f64]) -> Vec<(f64, f64)> {
    let trials = criticals.len().max(1) as f64;
    sigmas
        .iter()
        .map(|&s| {
            let passing = criticals.iter().filter(|&&c| c >= s).count();
            (s, passing as f64 / trials)
        })
        .collect()
}

/// Result of one jitter-margin shard: per-trial pass verdicts in trial
/// order, plus the scheduler work behind them.
#[derive(Debug, Clone, PartialEq)]
pub struct JitterShard {
    /// Whether each trial's skewed round trip landed, in index order.
    pub passes: Vec<bool>,
    /// Aggregate scheduler counters over every simulator the shard built.
    pub stats: BatchStats,
}

/// Runs the jitter Monte Carlo trials in `range` sequentially.
pub fn jitter_shard(
    design: Design,
    geometry: RfGeometry,
    jitter_ps: f64,
    seed: u64,
    range: std::ops::Range<u32>,
) -> JitterShard {
    let mut stats = BatchStats::new();
    let passes = range
        .map(|i| {
            let (ok, s) = jitter_trial(design, geometry, jitter_ps, seed, i);
            stats.absorb(s);
            ok
        })
        .collect();
    JitterShard { passes, stats }
}

/// Outcome of a single-shot soak job (`simulate`): a write-all/read-all
/// sweep under seeded delay variation and the `Degrade` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakOutcome {
    /// Whether every register read back its pattern.
    pub ok: bool,
    /// Scheduler counters of the run.
    pub stats: BatchStats,
}

/// Runs one soak (see [`crate::margins::soak_passes`]).
pub fn soak_job(design: Design, geometry: RfGeometry, sigma: f64, seed: u64) -> SoakOutcome {
    let (ok, sim) = soak_trial(design, geometry, sigma, seed);
    let mut stats = BatchStats::new();
    stats.absorb(sim);
    SoakOutcome { ok, stats }
}

/// Flat, serialisable summary of a lint run — the fields the job server
/// reports and digests.
#[derive(Debug, Clone, PartialEq)]
pub struct LintSummary {
    /// No error-severity findings.
    pub clean: bool,
    /// Error / warning / info finding counts.
    pub errors: usize,
    /// Warning-severity findings.
    pub warnings: usize,
    /// Info-severity findings.
    pub infos: usize,
    /// JJ total of the lint walk's census.
    pub jj_total: u64,
    /// Worst separation slack (ps), when the timing pass ran.
    pub worst_slack_ps: Option<f64>,
}

/// Runs the full static lint + budget cross-check of
/// [`crate::lint::lint_design`] and flattens the report.
pub fn lint_job(design: Design, geometry: RfGeometry) -> LintSummary {
    let report = crate::lint::lint_design(design, geometry);
    LintSummary {
        clean: report.is_clean(),
        errors: report.errors(),
        warnings: report.count_severity(sfq_lint::Severity::Warning),
        infos: report.count_severity(sfq_lint::Severity::Info),
        jj_total: report.census.jj_total(),
        worst_slack_ps: report.timing.as_ref().and_then(|t| t.worst_slack_ps),
    }
}

/// Digest of an in-order f64 value sequence (per-trial criticals), by IEEE
/// bit pattern — the job-result digest the kill-and-resume differential
/// compares.
pub fn digest_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write_f64(v);
    }
    h.finish()
}

/// Digest of an in-order pass/fail sequence.
pub fn digest_bools(values: &[bool]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write(&[u8::from(v)]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::margins::{yield_curve_with_threads, JitterReport};

    #[test]
    fn shard_plan_covers_every_trial_exactly_once() {
        for (trials, len) in [(0u32, 4u32), (1, 4), (7, 3), (8, 4), (9, 4), (16, 16)] {
            let plan = ShardPlan::new(trials, len);
            let mut seen = Vec::new();
            for s in 0..plan.shard_count() {
                seen.extend(plan.range(s));
            }
            assert_eq!(seen, (0..trials).collect::<Vec<_>>(), "{trials}/{len}");
        }
    }

    #[test]
    fn sharded_yield_matches_the_unsharded_engine() {
        let design = Design::HiPerRf;
        let g = RfGeometry::paper_4x4();
        let sigmas = [0.0, 0.05, 0.1, 0.3];
        let (trials, seed) = (4u32, 0xBEEF);

        let plan = ShardPlan::new(trials, 3); // deliberately uneven shards
        let mut criticals = Vec::new();
        let mut stats = BatchStats::new();
        for s in 0..plan.shard_count() {
            let shard = yield_shard(design, g, seed, plan.range(s));
            criticals.extend(shard.criticals);
            stats.merge(&shard.stats);
        }
        let curve = assemble_yield_curve(&sigmas, &criticals);

        let reference = yield_curve_with_threads(design, g, &sigmas, trials, seed, 2);
        assert_eq!(curve, reference.points, "sharded curve must be identical");
        assert!(stats.runs > 0 && stats.events() > 0, "honest work roll-up");
    }

    #[test]
    fn sharded_jitter_matches_the_unsharded_engine() {
        let g = RfGeometry::paper_4x4();
        let (trials, seed, jitter) = (10u32, 42u64, 12.0);
        let plan = ShardPlan::new(trials, 4);
        let mut passes = Vec::new();
        for s in 0..plan.shard_count() {
            passes.extend(jitter_shard(Design::HiPerRf, g, jitter, seed, plan.range(s)).passes);
        }
        let reference = crate::margins::monte_carlo_jitter_with_threads(g, jitter, trials, seed, 2);
        let report = JitterReport {
            trials,
            passed: passes.iter().filter(|&&p| p).count() as u32,
            jitter_ps: jitter,
            seed,
        };
        assert_eq!(report, reference);
    }

    #[test]
    fn digests_are_order_and_value_sensitive() {
        assert_ne!(digest_f64s(&[1.0, 2.0]), digest_f64s(&[2.0, 1.0]));
        assert_ne!(digest_f64s(&[0.0]), digest_f64s(&[-0.0]));
        assert_ne!(digest_bools(&[true, false]), digest_bools(&[false, true]));
        assert_eq!(digest_bools(&[]), digest_bools(&[]));
    }

    #[test]
    fn lint_job_is_clean_on_registry_designs() {
        let s = lint_job(Design::HiPerRf, RfGeometry::paper_4x4());
        assert!(s.clean && s.errors == 0 && s.jj_total > 0, "{s:?}");
    }

    #[test]
    fn soak_job_reports_work() {
        let o = soak_job(Design::NdroBaseline, RfGeometry::paper_4x4(), 0.0, 1);
        assert!(o.ok, "{o:?}");
        assert!(o.stats.events() > 0);
    }
}
