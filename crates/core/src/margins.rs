//! Variation-aware timing-margin engine (paper §II-D, §III-E, §VI-C).
//!
//! The paper argues HC-DRO cells can be built robustly with careful
//! inductor sizing, and its clock-less port design leans on the dynamic-AND
//! coincidence window to gate data into cells without a distributed clock.
//! This module quantifies how much timing slack each design actually has:
//!
//! * [`design_skew_window`] sweeps a deliberate skew between the data train
//!   and the write enable at the gates of each structural design and
//!   reports the range over which writes still land correctly — the usable
//!   coincidence window (nominally
//!   ±[`DAND_WINDOW_PS`](sfq_cells::timing::DAND_WINDOW_PS) for the
//!   clock-less ports).
//! * [`clocked_reference_window`] measures the same sweep against a
//!   globally-clocked sampling element ([`SyncSampler`]) — the discipline a
//!   clocked write port would impose. Its narrow aperture is the §II-D
//!   argument for the clock-less port made quantitative.
//! * [`critical_sigma`] bisects the largest per-cell delay variation
//!   (σ as a fraction of nominal, applied through the simulator's
//!   [`FaultPlan`]) a design survives under the `Degrade` violation policy.
//! * [`yield_curve`] turns per-trial critical σ values into a Monte Carlo
//!   yield curve (pass fraction vs σ) that is monotone non-increasing by
//!   construction.
//! * [`min_enable_spacing_ps`] and [`min_hc_train_sep_ps`] recover the
//!   calibrated 53 ps NDROC re-arm and 10 ps HC-DRO pulse-separation
//!   constants from behavioural bisection — the margin engine agreeing
//!   with the timing model is a consistency check on both.
//! * [`monte_carlo_jitter`] applies random per-operation injection jitter
//!   and reports the pass fraction — a crude stand-in for the paper's
//!   device-margin simulations in JoSim.

use sfq_cells::logic::SyncSampler;
use sfq_cells::storage::HcDro;
use sfq_cells::timing::{SYNC_SETUP_PS, SYNC_TRACK_PS};
use sfq_cells::CircuitBuilder;
use sfq_sim::fault::FaultPlan;
use sfq_sim::netlist::Pin;
use sfq_sim::rng::Rng64;
use sfq_sim::simulator::{SimStats, Simulator};
use sfq_sim::time::{Duration, Time};
use sfq_sim::violation::ViolationPolicy;

use crate::config::RfGeometry;
use crate::demux::{elaborate_demux, sel_head_start};
use crate::harness::{BatchStats, RegisterFile, RfSnapshot};
use crate::par;

// Every routine below builds designs through
// [`crate::designs::registry`]'s trait objects, so a newly registered
// design is margin-swept with no changes here.
use crate::designs::Design;

/// Result of a skew sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewWindow {
    /// Most negative skew (ps) at which every write still succeeded.
    pub min_ok_ps: f64,
    /// Most positive skew (ps) at which every write still succeeded.
    pub max_ok_ps: f64,
    /// Sweep step (ps).
    pub step_ps: f64,
}

impl SkewWindow {
    /// Total usable window width (ps).
    pub fn width_ps(&self) -> f64 {
        self.max_ok_ps - self.min_ok_ps
    }
}

/// Worst-case all-ones pattern for a geometry.
fn all_ones(geometry: RfGeometry) -> u64 {
    if geometry.width() == 64 {
        u64::MAX
    } else {
        (1u64 << geometry.width()) - 1
    }
}

/// Runs one skewed write + read round trip on `design` and reports whether
/// it landed cleanly (value correct, no timing violations).
fn design_write_succeeds(design: Design, geometry: RfGeometry, skew_ps: f64) -> bool {
    design_write_trial(design, geometry, skew_ps).0
}

/// [`design_write_succeeds`] plus the run's scheduler counters, so batch
/// callers can roll up honest per-job event totals.
fn design_write_trial(design: Design, geometry: RfGeometry, skew_ps: f64) -> (bool, SimStats) {
    let value = all_ones(geometry);
    let mut rf = design.build(geometry);
    rf.write_skewed(1, value, skew_ps);
    if rf.peek(1) != value {
        return (false, rf.sim_stats());
    }
    let ok = rf.read(1) == value && rf.violations().is_empty();
    (ok, rf.sim_stats())
}

/// One jitter Monte Carlo trial: the pass/fail verdict for trial `i` of
/// `(seed, jitter_ps)` plus the scheduler counters behind it. A pure
/// function of its arguments — the unit the job server's shards replay.
pub fn jitter_trial(
    design: Design,
    geometry: RfGeometry,
    jitter_ps: f64,
    seed: u64,
    i: u32,
) -> (bool, SimStats) {
    let skew = (Rng64::fork(seed, u64::from(i)).next_f64() * 2.0 - 1.0) * jitter_ps;
    design_write_trial(design, geometry, skew)
}

/// Sweeps `ok(skew)` over `[-limit, +limit]` ps in `step` steps and
/// reports the contiguous window around zero where it holds.
fn sweep_window(mut ok: impl FnMut(f64) -> bool, limit_ps: f64, step_ps: f64) -> SkewWindow {
    assert!(ok(0.0), "nominal (zero-skew) case must succeed");
    let mut min_ok = 0.0;
    let mut max_ok = 0.0;
    let mut skew = step_ps;
    while skew <= limit_ps && ok(skew) {
        max_ok = skew;
        skew += step_ps;
    }
    skew = step_ps;
    while skew <= limit_ps && ok(-skew) {
        min_ok = -skew;
        skew += step_ps;
    }
    SkewWindow {
        min_ok_ps: min_ok,
        max_ok_ps: max_ok,
        step_ps,
    }
}

/// Sweeps data-vs-enable skew for one structural design and reports the
/// contiguous window around zero where writes succeed.
///
/// # Panics
///
/// Panics if the nominal (zero-skew) write fails — that would be a design
/// bug, not a margin result.
pub fn design_skew_window(
    design: Design,
    geometry: RfGeometry,
    limit_ps: f64,
    step_ps: f64,
) -> SkewWindow {
    sweep_window(
        |s| design_write_succeeds(design, geometry, s),
        limit_ps,
        step_ps,
    )
}

/// One capture attempt against the clocked sampling element: data nominally
/// centred in the sampler's aperture, displaced by `skew_ps`.
fn clocked_capture_succeeds(skew_ps: f64) -> bool {
    let mut b = CircuitBuilder::new();
    let s = b.sync_sampler();
    let mut sim = Simulator::new(b.finish());
    sim.set_violation_policy(ViolationPolicy::Degrade);
    let p = sim.probe(Pin::new(s, SyncSampler::OUT), "q");
    let t_clk = 40.0;
    let nominal = t_clk - SYNC_SETUP_PS - SYNC_TRACK_PS / 2.0;
    sim.inject(
        Pin::new(s, SyncSampler::D),
        Time::from_ps((nominal + skew_ps).max(0.0)),
    );
    sim.inject(Pin::new(s, SyncSampler::CLK), Time::from_ps(t_clk));
    sim.run();
    sim.probe_trace(p).len() == 1 && sim.violations().is_empty()
}

/// Skew window of the *clocked baseline* reference: a [`SyncSampler`]
/// capturing a data pulse against a distributed clock edge. This is the
/// timing discipline a globally-clocked write port would impose on every
/// bit — compare with [`design_skew_window`] to quantify the §II-D claim
/// that the clock-less DAND port has the wider usable window.
///
/// # Panics
///
/// Panics if the nominal (centred) capture fails.
pub fn clocked_reference_window(limit_ps: f64, step_ps: f64) -> SkewWindow {
    sweep_window(clocked_capture_succeeds, limit_ps, step_ps)
}

/// Result of a jitter Monte Carlo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterReport {
    /// Trials run.
    pub trials: u32,
    /// Trials in which the write+read round trip stayed correct.
    pub passed: u32,
    /// Peak jitter magnitude applied (ps, uniform in `[-j, +j]`).
    pub jitter_ps: f64,
    /// RNG seed the trial skews were drawn from.
    pub seed: u64,
}

impl JitterReport {
    /// Pass fraction.
    pub fn yield_fraction(&self) -> f64 {
        f64::from(self.passed) / f64::from(self.trials)
    }
}

/// Runs `trials` write+read round trips on the single-bank HiPerRF, each
/// with an independent uniform skew in `[-jitter_ps, +jitter_ps]`. Trial
/// `i` draws from the forked stream `Rng64::fork(seed, i)`, so each trial
/// is a pure function of `(seed, i)`: the same seed always reproduces the
/// same pass fraction, for any thread count and any trial execution order.
///
/// Runs on [`crate::par::available_threads`] workers; use
/// [`monte_carlo_jitter_with_threads`] to pin the count.
pub fn monte_carlo_jitter(
    geometry: RfGeometry,
    jitter_ps: f64,
    trials: u32,
    seed: u64,
) -> JitterReport {
    monte_carlo_jitter_with_threads(geometry, jitter_ps, trials, seed, par::available_threads())
}

/// [`monte_carlo_jitter`] on an explicit number of worker threads. The
/// report is bit-identical for every `threads` value.
pub fn monte_carlo_jitter_with_threads(
    geometry: RfGeometry,
    jitter_ps: f64,
    trials: u32,
    seed: u64,
    threads: usize,
) -> JitterReport {
    let outcomes = par::map_trials(trials, threads, |i| {
        jitter_trial(Design::HiPerRf, geometry, jitter_ps, seed, i).0
    });
    JitterReport {
        trials,
        passed: outcomes.into_iter().filter(|&ok| ok).count() as u32,
        jitter_ps,
        seed,
    }
}

/// Deterministic nonzero soak pattern for a register.
fn soak_pattern(geometry: RfGeometry, reg: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(reg as u64 + 1) & all_ones(geometry)
}

/// The soak body every σ probe runs on a quiescent register file: the
/// `Degrade` policy, the seeded delay-variation plan, then a
/// write-all/read-all sweep. Returns whether every register read back its
/// pattern, plus the simulator's lifetime counters.
fn soak_body(
    rf: &mut dyn RegisterFile,
    geometry: RfGeometry,
    sigma: f64,
    seed: u64,
) -> (bool, SimStats) {
    rf.set_violation_policy(ViolationPolicy::Degrade);
    rf.set_fault_plan(FaultPlan::new(seed).with_delay_sigma(sigma));
    for r in 0..geometry.registers() {
        rf.write(r, soak_pattern(geometry, r));
    }
    let ok = (0..geometry.registers()).all(|r| rf.read(r) == soak_pattern(geometry, r));
    (ok, rf.sim_stats())
}

/// Runs a write-all/read-all soak of `design` under the `Degrade`
/// violation policy with per-cell bounded-Gaussian delay variation of
/// fractional width `sigma` (seeded by `seed`). Returns whether every
/// register read back its written pattern.
///
/// The per-component Gaussian draws are fixed by the seed and scaled by
/// `sigma`, so for a fixed seed the outcome is (near-)monotone in `sigma`
/// and [`critical_sigma`]'s bisection is well posed.
pub fn soak_passes(design: Design, geometry: RfGeometry, sigma: f64, seed: u64) -> bool {
    soak_trial(design, geometry, sigma, seed).0
}

/// [`soak_passes`] plus the run's scheduler counters: one fresh build and
/// one soak (the single-shot `simulate` job).
pub fn soak_trial(design: Design, geometry: RfGeometry, sigma: f64, seed: u64) -> (bool, SimStats) {
    soak_body(design.build(geometry).as_mut(), geometry, sigma, seed)
}

/// Upper end of the σ search range: a 50% fractional delay spread is far
/// beyond fabrication reality and no design survives it.
const SIGMA_MAX: f64 = 0.5;
/// Bisection refinement steps (resolution ≈ `SIGMA_MAX / 2^ITERS`).
const SIGMA_ITERS: u32 = 8;

/// Bisects the largest delay-variation σ at which [`soak_passes`] for this
/// seed. Returns `0.0` if even the nominal soak fails (a design bug) and
/// `SIGMA_MAX` (0.5) if the design survives the whole search range.
pub fn critical_sigma(design: Design, geometry: RfGeometry, seed: u64) -> f64 {
    critical_sigma_with_stats(design, geometry, seed).0
}

/// [`critical_sigma`] plus the aggregate scheduler work behind the whole
/// bisection (one run per probed σ), rolled up with
/// [`crate::harness::BatchStats`]: one [`YieldTrials`] build, one
/// bisection.
pub fn critical_sigma_with_stats(
    design: Design,
    geometry: RfGeometry,
    seed: u64,
) -> (f64, BatchStats) {
    YieldTrials::new(design, geometry).critical_sigma(seed)
}

/// One yield-curve Monte Carlo trial: forks the per-trial seed stream and
/// bisects that trial's critical σ. A pure function of `(design, geometry,
/// seed, i)` — the unit the job server's shards replay — returning the
/// critical σ plus the aggregate scheduler work behind the bisection.
/// A shard of trials runs them on one [`YieldTrials`] instead, with
/// bit-identical results.
pub fn yield_trial(design: Design, geometry: RfGeometry, seed: u64, i: u32) -> (f64, BatchStats) {
    YieldTrials::new(design, geometry).trial(seed, i)
}

/// A register file elaborated, lowered and snapshotted once, then rewound
/// to its built state ([`RegisterFile::restore`]) before every σ probe of
/// every bisection it runs. Each probe runs the same soak body as
/// [`soak_trial`]. A rewind is exact, so every probe's verdict and
/// counters equal a fresh build's, and a run of trials on one
/// `YieldTrials` equals [`yield_trial`] per trial.
pub struct YieldTrials {
    rf: Box<dyn RegisterFile>,
    built: RfSnapshot,
    geometry: RfGeometry,
}

impl YieldTrials {
    /// Builds `design` at `geometry` and snapshots it.
    pub fn new(design: Design, geometry: RfGeometry) -> Self {
        let rf = design.build(geometry);
        let built = rf.snapshot().expect("a fresh build is quiescent");
        YieldTrials {
            rf,
            built,
            geometry,
        }
    }

    /// Trial `i` of the yield curve seeded `seed` (see [`yield_trial`]).
    pub fn trial(&mut self, seed: u64, i: u32) -> (f64, BatchStats) {
        self.critical_sigma(Rng64::fork(seed, u64::from(i)).next_u64())
    }

    /// Bisects the critical σ of `seed` (see
    /// [`critical_sigma_with_stats`]).
    pub fn critical_sigma(&mut self, seed: u64) -> (f64, BatchStats) {
        let mut batch = BatchStats::new();
        let mut probe = |sigma: f64| {
            self.rf.restore(&self.built);
            let (ok, stats) = soak_body(self.rf.as_mut(), self.geometry, sigma, seed);
            batch.absorb(stats);
            ok
        };
        if !probe(0.0) {
            return (0.0, batch);
        }
        if probe(SIGMA_MAX) {
            return (SIGMA_MAX, batch);
        }
        let (mut lo, mut hi) = (0.0f64, SIGMA_MAX);
        for _ in 0..SIGMA_ITERS {
            let mid = (lo + hi) / 2.0;
            if probe(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, batch)
    }
}

/// A Monte Carlo yield curve: pass fraction as a function of delay σ.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldCurve {
    /// Design the curve describes.
    pub design: Design,
    /// Trials behind each point.
    pub trials: u32,
    /// Seed the per-trial variation draws descend from.
    pub seed: u64,
    /// `(sigma, pass_fraction)` points, in the caller's σ order.
    pub points: Vec<(f64, f64)>,
}

/// Monte Carlo yield vs delay-variation σ.
///
/// Each trial draws an independent variation pattern (seed forked per
/// trial) and bisects its critical σ; the yield at a given σ is then the
/// fraction of trials whose critical σ is at least that large. Because
/// every trial contributes a single threshold, the curve is monotone
/// non-increasing in σ *by construction*, and the same `seed` always
/// reproduces the same curve.
///
/// Trials (each a full critical-σ bisection) run on
/// [`crate::par::available_threads`] workers; use
/// [`yield_curve_with_threads`] to pin the count. The per-trial seeds are
/// forked, so the curve is bit-identical for every thread count.
pub fn yield_curve(
    design: Design,
    geometry: RfGeometry,
    sigmas: &[f64],
    trials: u32,
    seed: u64,
) -> YieldCurve {
    yield_curve_with_threads(
        design,
        geometry,
        sigmas,
        trials,
        seed,
        par::available_threads(),
    )
}

/// [`yield_curve`] on an explicit number of worker threads.
pub fn yield_curve_with_threads(
    design: Design,
    geometry: RfGeometry,
    sigmas: &[f64],
    trials: u32,
    seed: u64,
    threads: usize,
) -> YieldCurve {
    let criticals: Vec<f64> = par::map_trials(trials, threads, |i| {
        yield_trial(design, geometry, seed, i).0
    });
    YieldCurve {
        design,
        trials,
        seed,
        points: assemble_yield_curve(sigmas, &criticals),
    }
}

/// Assembles a yield curve from the full, in-order per-trial critical σ
/// vector: for each σ, the fraction of trials whose critical σ is at
/// least σ. [`yield_curve`] and a resumed job's WAL-replayed shards both
/// reduce through it, so the two agree bit for bit.
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

/// Bisects the smallest `x` in `(lo, hi]` for which `pass(x)` holds,
/// assuming `pass` is monotone (fails at `lo`, holds at `hi`).
fn bisect_min_pass(mut pass: impl FnMut(f64) -> bool, mut lo: f64, mut hi: f64, iters: u32) -> f64 {
    debug_assert!(!pass(lo), "lower bound must fail");
    debug_assert!(pass(hi), "upper bound must pass");
    for _ in 0..iters {
        let mid = (lo + hi) / 2.0;
        if pass(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// Behaviourally recovers the minimum spacing between two enable pulses
/// through a `levels`-deep NDROC demux (ps): under the `Degrade` policy a
/// too-close second enable is destroyed by the re-arming NDROC, so the
/// bisection finds the spacing at which both enables reach the selected
/// leaf. Expect the calibrated 53 ps re-arm time
/// ([`NDROC_REARM_PS`](sfq_cells::timing::NDROC_REARM_PS)) independent of
/// depth.
pub fn min_enable_spacing_ps(levels: usize) -> f64 {
    let pass = |gap_ps: f64| -> bool {
        let (netlist, d) = elaborate_demux(levels);
        let mut sim = Simulator::new(netlist);
        sim.set_violation_policy(ViolationPolicy::Degrade);
        let probe = sim.probe(d.outputs[0], "leaf0");
        let t = Time::from_ps(10.0);
        // Address 0 needs no SET pulses; fire the enable twice, `gap` apart.
        let t_en = t + sel_head_start(levels);
        d.select_and_fire(&mut sim, 0, t, t_en);
        sim.inject(d.enable, t_en + Duration::from_ps(gap_ps));
        sim.run();
        sim.probe_trace(probe).len() == 2
    };
    bisect_min_pass(pass, 1.0, 120.0, 12)
}

/// Behaviourally recovers the separation below which an HC-DRO actually
/// *loses* a write pulse (ps): under `Degrade` a second fluxon inside the
/// hard threshold is destroyed, so the bisection finds the spacing at
/// which both are stored. Expect the cell's physical threshold
/// ([`HCDRO_HARD_SEP_PS`](sfq_cells::timing::HCDRO_HARD_SEP_PS)).
pub fn min_hc_train_sep_ps() -> f64 {
    let pass = |gap_ps: f64| -> bool {
        let mut b = CircuitBuilder::new();
        let cell = b.hcdro();
        let mut sim = Simulator::new(b.finish());
        sim.set_violation_policy(ViolationPolicy::Degrade);
        sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(10.0));
        sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(10.0 + gap_ps));
        sim.run();
        sim.stored(cell) == Some(2)
    };
    bisect_min_pass(pass, 1.0, 40.0, 12)
}

/// Behaviourally recovers the *design-rule* HC-DRO pulse separation (ps):
/// the smallest spacing that records no violation at all under the
/// `Record` policy. Expect the calibrated 10 ps
/// ([`HCDRO_PULSE_SEP_PS`](sfq_cells::timing::HCDRO_PULSE_SEP_PS)); the
/// gap down to [`min_hc_train_sep_ps`] is the cell's guard band.
pub fn min_hc_clean_sep_ps() -> f64 {
    let pass = |gap_ps: f64| -> bool {
        let mut b = CircuitBuilder::new();
        let cell = b.hcdro();
        let mut sim = Simulator::new(b.finish());
        sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(10.0));
        sim.inject(Pin::new(cell, HcDro::D), Time::from_ps(10.0 + gap_ps));
        sim.run();
        sim.violations().is_empty()
    };
    bisect_min_pass(pass, 1.0, 40.0, 12)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::timing::{
        DAND_WINDOW_PS, HCDRO_HARD_SEP_PS, HCDRO_PULSE_SEP_PS, NDROC_REARM_PS,
    };

    #[test]
    fn window_brackets_the_dand_spec() {
        let w = design_skew_window(Design::HiPerRf, RfGeometry::paper_4x4(), 16.0, 1.0);
        // The usable window must be positive on both sides and bounded by
        // the DAND coincidence window (8 ps each way nominally; HC pulse
        // trains shave the late side because a skewed pulse can pair with
        // the wrong enable slot).
        assert!(w.min_ok_ps <= -3.0, "{w:?}");
        assert!(w.max_ok_ps >= 3.0, "{w:?}");
        assert!(w.width_ps() <= 2.0 * DAND_WINDOW_PS + 2.0, "{w:?}");
    }

    #[test]
    fn every_design_has_a_usable_window() {
        for design in Design::ALL {
            let w = design_skew_window(design, RfGeometry::paper_4x4(), 12.0, 2.0);
            assert!(w.width_ps() >= 4.0, "{design}: {w:?}");
        }
    }

    #[test]
    fn clockless_port_beats_the_clocked_reference() {
        // The §II-D claim, quantified: the DAND-gated clock-less write
        // port tolerates more data-vs-enable skew than a clocked sampler
        // tolerates data-vs-clock skew.
        let clocked = clocked_reference_window(12.0, 1.0);
        let hiperrf = design_skew_window(Design::HiPerRf, RfGeometry::paper_4x4(), 12.0, 1.0);
        assert!(
            hiperrf.width_ps() > clocked.width_ps(),
            "HiPerRF {hiperrf:?} vs clocked {clocked:?}"
        );
    }

    #[test]
    fn small_jitter_yields_fully() {
        let r = monte_carlo_jitter(RfGeometry::paper_4x4(), 2.0, 20, 7);
        assert_eq!(r.yield_fraction(), 1.0, "{r:?}");
    }

    #[test]
    fn huge_jitter_fails_sometimes() {
        let r = monte_carlo_jitter(RfGeometry::paper_4x4(), 30.0, 20, 7);
        assert!(r.yield_fraction() < 1.0, "{r:?}");
        assert!(
            r.passed > 0,
            "some trials must still land near zero skew: {r:?}"
        );
    }

    #[test]
    fn same_seed_reproduces_the_jitter_verdict() {
        let a = monte_carlo_jitter(RfGeometry::paper_4x4(), 12.0, 10, 42);
        let b = monte_carlo_jitter(RfGeometry::paper_4x4(), 12.0, 10, 42);
        assert_eq!(a, b);
        let c = monte_carlo_jitter(RfGeometry::paper_4x4(), 12.0, 10, 43);
        assert_eq!(c.trials, a.trials); // different seed may (and usually
                                        // does) change `passed`, but must
                                        // still be a full run
    }

    #[test]
    fn nominal_soak_passes_everywhere() {
        for design in Design::ALL {
            assert!(
                soak_passes(design, RfGeometry::paper_4x4(), 0.0, 1),
                "{design} fails its nominal soak"
            );
        }
    }

    #[test]
    fn critical_sigma_is_positive_and_finite() {
        for design in Design::ALL {
            let c = critical_sigma(design, RfGeometry::paper_4x4(), 11);
            assert!(c > 0.0, "{design}: no variation tolerance at all");
            assert!(c < SIGMA_MAX, "{design}: survives implausible variation");
        }
    }

    #[test]
    fn yield_curve_is_monotone_non_increasing() {
        let sigmas = [0.0, 0.02, 0.05, 0.1, 0.3];
        let curve = yield_curve(Design::HiPerRf, RfGeometry::paper_4x4(), &sigmas, 4, 99);
        assert_eq!(curve.points.len(), sigmas.len());
        assert_eq!(
            curve.points[0].1, 1.0,
            "every trial passes at sigma 0: {curve:?}"
        );
        for pair in curve.points.windows(2) {
            assert!(pair[1].1 <= pair[0].1, "{curve:?}");
        }
    }

    #[test]
    fn enable_spacing_recovers_the_rearm_constant() {
        for levels in 1..=2 {
            let m = min_enable_spacing_ps(levels);
            assert!(
                (m - NDROC_REARM_PS).abs() < 0.1,
                "levels {levels}: measured {m} ps, calibrated {NDROC_REARM_PS} ps"
            );
        }
    }

    #[test]
    fn hc_train_sep_recovers_the_calibrated_constants() {
        let hard = min_hc_train_sep_ps();
        assert!(
            (hard - HCDRO_HARD_SEP_PS).abs() < 0.1,
            "measured {hard} ps, hard threshold {HCDRO_HARD_SEP_PS} ps"
        );
        let clean = min_hc_clean_sep_ps();
        assert!(
            (clean - HCDRO_PULSE_SEP_PS).abs() < 0.1,
            "measured {clean} ps, design rule {HCDRO_PULSE_SEP_PS} ps"
        );
    }
}
