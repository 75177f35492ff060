//! Seeded, deterministic fault injection.
//!
//! A [`FaultPlan`] describes how a run deviates from the ideal circuit:
//!
//! * **pin faults** — drop or duplicate the N-th pulse delivered to a named
//!   input pin (modelling a missing or doubled fluxon);
//! * **spurious pulses** — extra stimuli injected at chosen times
//!   (modelling flux trapping / noise-induced switching);
//! * **delay variation** — every component instance gets a persistent
//!   multiplicative delay factor drawn from a bounded Gaussian
//!   (σ as a fraction of nominal), modelling per-device process variation.
//!
//! All randomness derives from the plan's single `u64` seed via
//! [`Rng64::fork`], keyed by component index — so the perturbation of a
//! given cell never depends on event order, and identical seed + plan
//! reproduce identical traces, violations, and yield numbers.
//!
//! Install a plan with
//! [`Simulator::set_fault_plan`](crate::simulator::Simulator::set_fault_plan).

use std::collections::HashMap;

use crate::netlist::{ComponentId, Pin};
use crate::rng::Rng64;
use crate::time::{Duration, Time};

/// What to do to a counted pulse delivery on a pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PinAction {
    /// Swallow the pulse.
    Drop,
    /// Deliver it, plus an echo after the offset.
    Duplicate(Duration),
}

/// A deterministic fault-injection plan (builder-style).
///
/// # Examples
///
/// Pins come from the netlist under test — ids cannot be forged, so plans
/// always target real components:
///
/// ```
/// use sfq_sim::cell::{Cell, CellOp};
/// use sfq_sim::fault::FaultPlan;
/// use sfq_sim::netlist::{Netlist, Pin};
/// use sfq_sim::time::Duration;
///
/// let mut netlist = Netlist::new();
/// let jtl = Cell::new(CellOp::Jtl { delay: Duration::from_ps(2.0) });
/// let sink = netlist.add("sink", jtl);
/// let pin = Pin::new(sink, 0);
/// let plan = FaultPlan::new(0xfeed)
///     .drop_nth(pin, 1)
///     .duplicate_nth(pin, 3, Duration::from_ps(2.0))
///     .with_delay_sigma(0.05);
/// assert_eq!(plan.seed(), 0xfeed);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    delay_sigma: f64,
    /// `(pin, one-based delivery ordinal) -> action`.
    pin_faults: HashMap<(Pin, u64), PinAction>,
    spurious: Vec<(Pin, Time)>,
}

impl FaultPlan {
    /// Creates an empty plan with the given randomness seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            delay_sigma: 0.0,
            pin_faults: HashMap::new(),
            spurious: Vec::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Per-instance delay variation, σ as a fraction of nominal delay.
    pub fn delay_sigma(&self) -> f64 {
        self.delay_sigma
    }

    /// Drops the `nth` (1-based) pulse delivered to `pin`.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is zero.
    #[must_use]
    pub fn drop_nth(mut self, pin: Pin, nth: u64) -> Self {
        assert!(nth >= 1, "pulse ordinals are 1-based");
        self.pin_faults.insert((pin, nth), PinAction::Drop);
        self
    }

    /// Duplicates the `nth` (1-based) pulse delivered to `pin`: the
    /// original is delivered and an echo follows `offset` later.
    ///
    /// # Panics
    ///
    /// Panics if `nth` is zero.
    #[must_use]
    pub fn duplicate_nth(mut self, pin: Pin, nth: u64, offset: Duration) -> Self {
        assert!(nth >= 1, "pulse ordinals are 1-based");
        self.pin_faults
            .insert((pin, nth), PinAction::Duplicate(offset));
        self
    }

    /// Adds a spurious stimulus pulse on `pin` at absolute time `at`.
    #[must_use]
    pub fn spurious(mut self, pin: Pin, at: Time) -> Self {
        self.spurious.push((pin, at));
        self
    }

    /// Sets bounded-Gaussian per-instance delay variation (σ as a fraction
    /// of nominal, e.g. `0.05` for 5 %). Draws are clamped to ±3σ and the
    /// resulting factor floors at 0.05× so delays stay positive.
    ///
    /// # Panics
    ///
    /// Panics if `sigma_frac` is negative or not finite.
    #[must_use]
    pub fn with_delay_sigma(mut self, sigma_frac: f64) -> Self {
        assert!(
            sigma_frac.is_finite() && sigma_frac >= 0.0,
            "σ must be a non-negative fraction"
        );
        self.delay_sigma = sigma_frac;
        self
    }

    /// The planned spurious pulses.
    pub fn spurious_pulses(&self) -> &[(Pin, Time)] {
        &self.spurious
    }
}

/// Every component's clamped standard-normal draw under one seed: entry
/// `i` is `fork(seed, i).gaussian_clamped(3.0)`, drawn in index order on
/// first use, so the table never depends on which cell asks first.
///
/// A draw depends on the seed alone, and a delay factor is
/// `max(1 + σ·g, 0.05)`. The ten or so plans of a critical-σ bisection
/// share one seed and differ only in σ, so the simulator hands the draws
/// from each plan to the next (across `restore` too) and draws each seed
/// once.
#[derive(Debug, Clone, Default)]
pub(crate) struct Draws {
    seed: u64,
    g: Vec<f64>,
}

impl Draws {
    /// The draws of `seed`: these, if `seed` drew them, else none yet
    /// (keeping the allocation).
    fn reseed(mut self, seed: u64) -> Draws {
        if self.seed != seed {
            self.seed = seed;
            self.g.clear();
        }
        self
    }

    /// Component `i`'s draw, drawing every missing index up to it.
    #[inline]
    fn get(&mut self, i: usize) -> f64 {
        while self.g.len() <= i {
            let next = self.g.len() as u64;
            self.g
                .push(Rng64::fork(self.seed, next).gaussian_clamped(3.0));
        }
        self.g[i]
    }
}

/// Runtime state of an installed plan: delivery counters, the per-cell
/// Gaussian draws, and applied-fault tallies.
///
/// Deliveries are counted only when the plan has pin faults — without one
/// no ordinal can match, so the count is unobservable — and the compiled
/// engine asks only then. Delay factors come from the seed's [`Draws`].
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    deliveries: HashMap<Pin, u64>,
    draws: Draws,
    pub(crate) dropped: u64,
    pub(crate) duplicated: u64,
}

/// What the simulator should do with one pulse delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeliveryFault {
    pub(crate) drop: bool,
    pub(crate) echo_after: Option<Duration>,
}

impl DeliveryFault {
    const NONE: DeliveryFault = DeliveryFault {
        drop: false,
        echo_after: None,
    };
}

impl FaultState {
    #[cfg(test)]
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState::with_draws(plan, Draws::default())
    }

    /// The state of a freshly installed `plan`, reusing `draws` if the
    /// plan's seed drew them.
    pub(crate) fn with_draws(plan: FaultPlan, draws: Draws) -> Self {
        let draws = draws.reseed(plan.seed);
        FaultState {
            plan,
            deliveries: HashMap::new(),
            draws,
            dropped: 0,
            duplicated: 0,
        }
    }

    /// The draws, for the next plan.
    pub(crate) fn into_draws(self) -> Draws {
        self.draws
    }

    pub(crate) fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether any delivery can be dropped or duplicated.
    pub(crate) fn has_pin_faults(&self) -> bool {
        !self.plan.pin_faults.is_empty()
    }

    /// Counts a delivery on `pin` and returns the planned deviation, if any.
    pub(crate) fn on_delivery(&mut self, pin: Pin) -> DeliveryFault {
        if self.plan.pin_faults.is_empty() {
            return DeliveryFault::NONE;
        }
        let n = self.deliveries.entry(pin).or_insert(0);
        *n += 1;
        match self.plan.pin_faults.get(&(pin, *n)) {
            Some(PinAction::Drop) => {
                self.dropped += 1;
                DeliveryFault {
                    drop: true,
                    echo_after: None,
                }
            }
            Some(PinAction::Duplicate(off)) => {
                self.duplicated += 1;
                DeliveryFault {
                    drop: false,
                    echo_after: Some(*off),
                }
            }
            None => DeliveryFault::NONE,
        }
    }

    /// The persistent delay factor of a component instance,
    /// `max(1 + σ·g, 0.05)` over its draw `g` from
    /// `fork(seed, component index)`, so it is independent of event order.
    #[inline]
    pub(crate) fn delay_factor(&mut self, id: ComponentId) -> f64 {
        let sigma = self.plan.delay_sigma;
        if sigma == 0.0 {
            return 1.0;
        }
        (1.0 + sigma * self.draws.get(id.index())).max(0.05)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Same-crate tests may build ids directly; external callers obtain
    // them from a netlist.
    fn pin(i: u32, p: u8) -> Pin {
        Pin::new(ComponentId(i), p)
    }

    #[test]
    fn builder_accumulates() {
        let plan = FaultPlan::new(1)
            .drop_nth(pin(0, 0), 2)
            .duplicate_nth(pin(0, 1), 1, Duration::from_ps(3.0))
            .spurious(pin(1, 0), Time::from_ps(5.0))
            .with_delay_sigma(0.1);
        assert_eq!(plan.delay_sigma(), 0.1);
        assert_eq!(plan.spurious_pulses().len(), 1);
    }

    #[test]
    fn delivery_counting_is_per_pin_and_one_based() {
        let plan = FaultPlan::new(0).drop_nth(pin(0, 0), 2);
        let mut st = FaultState::new(plan);
        assert!(!st.on_delivery(pin(0, 0)).drop, "1st delivery passes");
        assert!(!st.on_delivery(pin(0, 1)).drop, "other pin not counted");
        assert!(st.on_delivery(pin(0, 0)).drop, "2nd delivery dropped");
        assert!(!st.on_delivery(pin(0, 0)).drop, "3rd passes again");
        assert_eq!(st.dropped, 1);
    }

    #[test]
    fn duplicate_echoes_once() {
        let plan = FaultPlan::new(0).duplicate_nth(pin(2, 0), 1, Duration::from_ps(4.0));
        let mut st = FaultState::new(plan);
        let f = st.on_delivery(pin(2, 0));
        assert_eq!(f.echo_after, Some(Duration::from_ps(4.0)));
        assert!(!f.drop);
        assert_eq!(st.on_delivery(pin(2, 0)).echo_after, None);
        assert_eq!(st.duplicated, 1);
    }

    #[test]
    fn delay_factors_are_stable_and_seeded() {
        let mut a = FaultState::new(FaultPlan::new(9).with_delay_sigma(0.1));
        let mut b = FaultState::new(FaultPlan::new(9).with_delay_sigma(0.1));
        let id = ComponentId(7);
        let f = a.delay_factor(id);
        assert_eq!(f, a.delay_factor(id), "factor is persistent");
        assert_eq!(f, b.delay_factor(id), "same seed, same factor");
        assert!(f > 0.0 && (f - 1.0).abs() <= 0.3 + 1e-12, "bounded: {f}");
        let mut c = FaultState::new(FaultPlan::new(10).with_delay_sigma(0.1));
        assert_ne!(f, c.delay_factor(id), "different seed, different factor");
    }

    #[test]
    fn draws_carry_over_to_the_next_plan_with_the_same_seed() {
        let mut first = FaultState::new(FaultPlan::new(9).with_delay_sigma(0.1));
        first.delay_factor(ComponentId(5));
        let drawn = first.draws.g.clone();
        assert_eq!(drawn.len(), 6, "drawn in index order up to the cell asked");
        let mut wider =
            FaultState::with_draws(FaultPlan::new(9).with_delay_sigma(0.4), first.into_draws());
        assert_eq!(wider.draws.g, drawn, "same seed: the draws are kept");
        assert_eq!(
            wider.delay_factor(ComponentId(5)),
            (1.0 + 0.4 * drawn[5]).max(0.05)
        );
        let other = FaultState::with_draws(FaultPlan::new(10), wider.into_draws());
        assert!(other.draws.g.is_empty(), "another seed draws afresh");
    }

    #[test]
    fn zero_sigma_means_unit_factors() {
        let mut st = FaultState::new(FaultPlan::new(1));
        assert_eq!(st.delay_factor(ComponentId(3)), 1.0);
    }

    #[test]
    fn dense_factors_do_not_depend_on_touch_order() {
        let plan = FaultPlan::new(0xFAC7).with_delay_sigma(0.2);
        let mut forward = FaultState::new(plan.clone());
        let mut backward = FaultState::new(plan.clone());
        let mut scattered = FaultState::new(plan);
        let a: Vec<f64> = (0..16)
            .map(|i| forward.delay_factor(ComponentId(i)))
            .collect();
        let mut b: Vec<f64> = (0..16)
            .rev()
            .map(|i| backward.delay_factor(ComponentId(i)))
            .collect();
        b.reverse();
        for i in [9u32, 3, 15, 0, 9, 12, 1, 2, 4, 5, 6, 7, 8, 10, 11, 13, 14] {
            scattered.delay_factor(ComponentId(i));
        }
        let c: Vec<f64> = (0..16)
            .map(|i| scattered.delay_factor(ComponentId(i)))
            .collect();
        assert_eq!(a, b);
        assert_eq!(a, c);
        // The same draw the per-instance formula defines.
        for (i, &f) in a.iter().enumerate() {
            let g = Rng64::fork(0xFAC7, i as u64).gaussian_clamped(3.0);
            assert_eq!(f, (1.0 + 0.2 * g).max(0.05), "cell {i}");
        }
    }

    #[test]
    fn pin_faults_hit_their_ordinal_under_delay_variation() {
        let plan = FaultPlan::new(5)
            .with_delay_sigma(0.3)
            .drop_nth(pin(0, 0), 2)
            .duplicate_nth(pin(1, 1), 3, Duration::from_ps(6.0));
        let mut st = FaultState::new(plan);
        let mut drops = Vec::new();
        let mut echoes = Vec::new();
        for n in 1..=4 {
            let f = st.on_delivery(pin(0, 0));
            drops.push(f.drop);
            assert_ne!(st.delay_factor(ComponentId(0)), 1.0);
            let f = st.on_delivery(pin(1, 1));
            echoes.push(f.echo_after);
            assert!(!f.drop, "delivery {n} on the duplicated pin passes");
        }
        assert_eq!(drops, [false, true, false, false]);
        let echo = Some(Duration::from_ps(6.0));
        assert_eq!(echoes, [None, None, echo, None]);
        assert_eq!((st.dropped, st.duplicated), (1, 1));
    }

    #[test]
    fn a_plan_without_pin_faults_counts_nothing() {
        use crate::cell::{Cell, CellOp};
        use crate::netlist::Netlist;
        use crate::simulator::Simulator;

        let mut st = FaultState::new(FaultPlan::new(2).with_delay_sigma(0.1));
        for _ in 0..3 {
            assert_eq!(st.on_delivery(pin(1, 0)), DeliveryFault::NONE);
        }
        assert!(st.deliveries.is_empty(), "no ordinal can match: no count");

        let relay = Cell::new(CellOp::Jtl {
            delay: Duration::from_ps(2.0),
        });
        let mut n = Netlist::new();
        let a = n.add("a", relay);
        let b = n.add("b", relay);
        n.connect(Pin::new(a, 0), Pin::new(b, 0), Duration::from_ps(1.0));
        let mut sim = Simulator::new(n);
        sim.set_fault_plan(FaultPlan::new(2).with_delay_sigma(0.1));
        for t in [0.0, 50.0, 100.0] {
            sim.inject(Pin::new(a, 0), Time::from_ps(t));
        }
        assert_eq!(sim.run().delivered, 6);
        assert_eq!(sim.fault_counts(), (0, 0));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zeroth_pulse_is_rejected() {
        let _ = FaultPlan::new(0).drop_nth(pin(0, 0), 0);
    }
}
