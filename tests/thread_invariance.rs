//! Thread-invariance property suite: the parallel Monte Carlo engine
//! must produce bit-identical results for every worker-thread count, and
//! each trial must be independent of execution order.
//!
//! Both properties follow from the same construction — trial `i` derives
//! its random stream as `Rng64::fork(seed, i)`, a pure function of
//! `(seed, i)` — and these tests pin the construction down end to end.
//! A trial's bisection rewinds one register file between its σ probes;
//! the oracle below rebuilds it for every probe instead, and the two must
//! agree bit for bit.

use hiperrf::config::RfGeometry;
use hiperrf::designs::Design;
use hiperrf::harness::BatchStats;
use hiperrf::margins::{
    critical_sigma, critical_sigma_with_stats, monte_carlo_jitter_with_threads, soak_trial,
    yield_curve_with_threads,
};
use hiperrf::par::map_trials;
use sfq_sim::rng::Rng64;

const SEED: u64 = 0x7EA_5EED;
const THREADS: [usize; 3] = [1, 2, 8];

#[test]
fn yield_curve_is_bit_identical_across_thread_counts() {
    let g = RfGeometry::paper_4x4();
    let sigmas = [0.0, 0.05, 0.15];
    for design in [Design::HiPerRf, Design::NdroBaseline] {
        let sequential = yield_curve_with_threads(design, g, &sigmas, 4, SEED, 1);
        for threads in THREADS {
            let got = yield_curve_with_threads(design, g, &sigmas, 4, SEED, threads);
            assert_eq!(got, sequential, "{design} at {threads} threads");
        }
    }
}

#[test]
fn monte_carlo_jitter_is_bit_identical_across_thread_counts() {
    let g = RfGeometry::paper_4x4();
    let sequential = monte_carlo_jitter_with_threads(g, 8.0, 12, SEED, 1);
    for threads in THREADS {
        let got = monte_carlo_jitter_with_threads(g, 8.0, 12, SEED, threads);
        assert_eq!(got, sequential, "at {threads} threads");
    }
}

#[test]
fn trials_are_independent_of_execution_order() {
    // Run the exact per-trial computation the yield engine uses, forward
    // and reversed. Identical vectors prove no trial reads state left by
    // another — the property that makes the chunked fork-join safe.
    let g = RfGeometry::paper_4x4();
    let trial = |i: u32| {
        let trial_seed = Rng64::fork(SEED, u64::from(i)).next_u64();
        critical_sigma(Design::HiPerRf, g, trial_seed)
    };
    let forward: Vec<f64> = (0..6).map(trial).collect();
    let mut reversed: Vec<f64> = (0..6).rev().map(trial).collect();
    reversed.reverse();
    assert_eq!(forward, reversed);
}

#[test]
fn forked_streams_do_not_collide_across_trials() {
    // Distinct trial indices must draw distinct streams: a collision
    // would silently narrow the Monte Carlo sample.
    let mut draws: Vec<u64> = (0..64).map(|i| Rng64::fork(SEED, i).next_u64()).collect();
    draws.sort_unstable();
    draws.dedup();
    assert_eq!(draws.len(), 64);
}

#[test]
fn map_trials_is_invariant_for_a_simulation_workload() {
    // End-to-end through the fork-join helper with a real (cheap)
    // simulator workload rather than arithmetic.
    let g = RfGeometry::paper_4x4();
    let run = |threads: usize| {
        map_trials(5, threads, |i| {
            let trial_seed = Rng64::fork(SEED, u64::from(i)).next_u64();
            critical_sigma(Design::ShiftRegister, g, trial_seed)
        })
    };
    let sequential = run(1);
    for threads in THREADS {
        assert_eq!(run(threads), sequential, "at {threads} threads");
    }
}

/// The critical-σ bisection with a fresh build per probe: every probe is
/// an independent [`soak_trial`]. This is the oracle for the rewinding
/// [`critical_sigma_with_stats`], written out here so it shares no code
/// with the path it checks beyond the soak itself.
fn fresh_build_bisection(design: Design, g: RfGeometry, seed: u64) -> (f64, BatchStats) {
    const SIGMA_MAX: f64 = 0.5;
    let mut batch = BatchStats::new();
    let mut probe = |sigma: f64| {
        let (ok, stats) = soak_trial(design, g, sigma, seed);
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
    for _ in 0..8 {
        let mid = (lo + hi) / 2.0;
        if probe(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo, batch)
}

#[test]
fn rewound_bisection_matches_a_fresh_build_per_probe() {
    for design in Design::ALL {
        for g in [RfGeometry::paper_4x4(), RfGeometry::new(8, 8).unwrap()] {
            for i in 0..8 {
                let seed = Rng64::fork(SEED, i).next_u64();
                let (critical, stats) = critical_sigma_with_stats(design, g, seed);
                let (want, want_stats) = fresh_build_bisection(design, g, seed);
                assert_eq!(
                    critical.to_bits(),
                    want.to_bits(),
                    "{design} {g} seed {seed:#x}: critical σ {critical} vs {want}"
                );
                assert_eq!(stats, want_stats, "{design} {g} seed {seed:#x}");
            }
        }
    }
}
