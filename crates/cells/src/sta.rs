//! Static timing analysis over netlists (the qSTA \[21\] stand-in).
//!
//! Computes arrival times from a set of start pins by path relaxation over
//! the component graph, using each cell's nominal
//! [`propagation_delay`](sfq_sim::cell::CellOp::propagation_delay)
//! plus the wire delays. Two graph models are offered:
//!
//! * [`arrival_times`] — the original worst-case (longest-path) pass in
//!   which *every* input pin propagates. SFQ register files contain real
//!   feedback (the HiPerRF loopback), so this pass takes an explicit set
//!   of *cut* components at which propagation stops; an uncut cycle is
//!   reported with a witness path and a suggested cut set.
//! * [`trigger_arrival_times`] — the pin-aware variant in which paths
//!   propagate only through each cell kind's
//!   [`trigger_pins`](CellKind::trigger_pins) (the pins whose pulse can
//!   actually produce an output: a DRO's `CLK` launches, its `D` merely
//!   stores). Paths are thereby segmented at clocked elements, which
//!   renders every registry design acyclic without manual cuts, and
//!   supports both a longest- and a shortest-path ([`Sense::Earliest`])
//!   relaxation — the basis of the static separation-slack rule in
//!   `sfq-lint`.
//!
//! Both run over a [`TimingGraph`], the netlist's timed edges collected
//! once; a caller running several passes over one netlist builds the graph
//! once and asks it for each, as `sfq-lint` does for its cycle search and
//! both relaxation senses.

use std::collections::HashSet;

use sfq_sim::cell::CellKind;
use sfq_sim::netlist::{ComponentId, Netlist, Pin};

/// Error from a timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// The graph contains a cycle not covered by the cut set; arrival
    /// times would be unbounded.
    UncutCycle {
        /// The components of one offending cycle, in propagation order
        /// (the last element feeds back into the first).
        witness: Vec<ComponentId>,
        /// Cycle components whose state-holding behaviour makes them the
        /// natural places to cut (storage cells and coincidence gates);
        /// falls back to the whole witness if the cycle is pure transport.
        suggested_cuts: Vec<ComponentId>,
    },
}

impl std::fmt::Display for StaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StaError::UncutCycle {
                witness,
                suggested_cuts,
            } => {
                let path = witness
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" -> ");
                let cuts = suggested_cuts
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(", ");
                write!(
                    f,
                    "netlist cycle [{path}] not covered by the cut set; suggested cuts: [{cuts}]"
                )
            }
        }
    }
}

impl std::error::Error for StaError {}

/// Which extreme of the path distribution a relaxation computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Shortest-path (earliest possible) arrival times.
    Earliest,
    /// Longest-path (latest possible) arrival times.
    Latest,
}

/// Arrival times per component (input reference), in ps.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTimes {
    arrivals: Vec<Option<f64>>,
}

impl ArrivalTimes {
    /// Arrival time at a component's inputs, if reachable.
    pub fn at(&self, id: ComponentId) -> Option<f64> {
        self.arrivals.get(id.index()).copied().flatten()
    }

    /// The overall critical-path delay (latest arrival anywhere).
    pub fn critical_path_ps(&self) -> Option<f64> {
        self.arrivals
            .iter()
            .flatten()
            .copied()
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }
}

/// A directed timing edge: `src` component output to `dst` component
/// input, with the total delay (cell + wire), and whether the edge enters
/// one of `dst`'s [`trigger_pins`](CellKind::trigger_pins).
struct TimedEdge {
    src: u32,
    dst: u32,
    delay_ps: f64,
    trigger: bool,
}

/// Which edges of a [`TimingGraph`] a pass walks.
#[derive(Clone, Copy)]
enum Edges {
    /// Every edge: the structural, all-pin view.
    All,
    /// Only edges entering a trigger pin.
    Trigger,
}

impl Edges {
    fn walks(self, e: &TimedEdge) -> bool {
        match self {
            Edges::All => true,
            Edges::Trigger => e.trigger,
        }
    }
}

/// The timed edges of one netlist, built once and shared by every pass
/// over it: the cycle search and both senses of the trigger-aware
/// relaxation. [`arrival_times`], [`trigger_arrival_times`] and
/// [`find_cycles`] each build one for a single pass; an analysis running
/// several passes (`sfq-lint` runs three) builds one and asks it.
///
/// Edges run in netlist order (source component, then output pin, then
/// wire insertion), which is the order every relaxation round visits them
/// in; components in the cut set contribute none.
pub struct TimingGraph<'a> {
    netlist: &'a Netlist,
    ids: Vec<ComponentId>,
    edges: Vec<TimedEdge>,
    /// `edges[first[c]..first[c + 1]]` leave component `c`.
    first: Vec<u32>,
}

impl<'a> TimingGraph<'a> {
    /// Collects the timed edges of `netlist`, skipping components in
    /// `cuts` (their outputs do not propagate).
    pub fn new(netlist: &'a Netlist, cuts: &HashSet<ComponentId>) -> Self {
        let mut ids = Vec::with_capacity(netlist.component_count());
        let mut edges = Vec::new();
        let mut first = Vec::with_capacity(netlist.component_count() + 1);
        first.push(0);
        for (id, _, cell) in netlist.iter() {
            ids.push(id);
            if !cuts.contains(&id) {
                let cell_delay = cell.op.propagation_delay();
                for out_pin in 0..cell.kind().outputs() {
                    for &(to, wire) in netlist.fanout(Pin::new(id, out_pin)) {
                        edges.push(TimedEdge {
                            src: id.index() as u32,
                            dst: to.component.index() as u32,
                            delay_ps: cell_delay.as_ps() + wire.as_ps(),
                            trigger: netlist
                                .cell(to.component)
                                .kind()
                                .trigger_pins()
                                .contains(&to.index),
                        });
                    }
                }
            }
            first.push(u32::try_from(edges.len()).expect("timing graph too large"));
        }
        TimingGraph {
            netlist,
            ids,
            edges,
            first,
        }
    }

    /// [`trigger_arrival_times`] over this graph.
    ///
    /// # Errors
    ///
    /// [`StaError::UncutCycle`], as [`trigger_arrival_times`].
    ///
    /// # Panics
    ///
    /// Panics if a start pin lies on a component the netlist does not
    /// hold.
    pub fn trigger_arrival_times(
        &self,
        starts: &[Pin],
        sense: Sense,
    ) -> Result<ArrivalTimes, StaError> {
        self.relax(starts, Edges::Trigger, sense)
    }

    /// [`find_cycles`] over this graph.
    pub fn cycles(&self) -> Vec<Vec<ComponentId>> {
        self.cycles_over(Edges::All)
    }

    /// The edges leaving component `src` that a pass over `walked` takes.
    fn edges_from(&self, src: usize, walked: Edges) -> impl Iterator<Item = &TimedEdge> {
        self.edges[self.first[src] as usize..self.first[src + 1] as usize]
            .iter()
            .filter(move |e| walked.walks(e))
    }

    fn relax(&self, starts: &[Pin], walked: Edges, sense: Sense) -> Result<ArrivalTimes, StaError> {
        let n = self.ids.len();
        let mut arrivals: Vec<Option<f64>> = vec![None; n];
        for pin in starts {
            assert!(
                pin.component.index() < n,
                "cannot start timing at {pin}: this netlist does not hold component {}",
                pin.component
            );
            let slot = &mut arrivals[pin.component.index()];
            *slot = Some(slot.unwrap_or(0.0).max(0.0));
        }

        // Path relaxation; at most n rounds for an acyclic reachable
        // subgraph.
        for round in 0..=n {
            let mut changed = false;
            for e in self.edges.iter().filter(|e| walked.walks(e)) {
                if let Some(a) = arrivals[e.src as usize] {
                    let candidate = a + e.delay_ps;
                    let improves = match (sense, arrivals[e.dst as usize]) {
                        (_, None) => true,
                        (Sense::Latest, Some(cur)) => candidate > cur + 1e-9,
                        (Sense::Earliest, Some(cur)) => candidate < cur - 1e-9,
                    };
                    if improves {
                        arrivals[e.dst as usize] = Some(candidate);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(ArrivalTimes { arrivals });
            }
            if round == n {
                // Non-convergence implies an uncut cycle; report one with a
                // witness path over the same edge set.
                let witness = self
                    .cycles_over(walked)
                    .into_iter()
                    .next()
                    .unwrap_or_default();
                let suggested_cuts = suggest_cuts(self.netlist, &witness);
                return Err(StaError::UncutCycle {
                    witness,
                    suggested_cuts,
                });
            }
        }
        Ok(ArrivalTimes { arrivals })
    }

    fn cycles_over(&self, walked: Edges) -> Vec<Vec<ComponentId>> {
        let n = self.ids.len();
        // CSR adjacency: each component's distinct destinations, in the
        // order its edges first reach them.
        let mut adj_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut adj: Vec<u32> = Vec::with_capacity(self.edges.len());
        let mut listed_by = vec![u32::MAX; n];
        adj_start.push(0);
        for src in 0..n {
            for e in self.edges_from(src, walked) {
                let seen = &mut listed_by[e.dst as usize];
                if *seen != src as u32 {
                    *seen = src as u32;
                    adj.push(e.dst);
                }
            }
            adj_start.push(adj.len() as u32);
        }
        let successors = |node: usize| &adj[adj_start[node] as usize..adj_start[node + 1] as usize];

        // Iterative DFS with colouring; a back edge to a grey node yields
        // the cycle as the stack suffix starting at that node.
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mut colour = vec![WHITE; n];
        let mut cycles = Vec::new();
        for root in 0..n {
            if colour[root] != WHITE {
                continue;
            }
            // Stack of (node, next-neighbour index) plus the grey path.
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            colour[root] = GREY;
            let mut path: Vec<usize> = vec![root];
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if let Some(&dst) = successors(node).get(*next) {
                    let dst = dst as usize;
                    *next += 1;
                    match colour[dst] {
                        WHITE => {
                            colour[dst] = GREY;
                            stack.push((dst, 0));
                            path.push(dst);
                        }
                        GREY => {
                            let start = path
                                .iter()
                                .position(|&p| p == dst)
                                .expect("grey node is on the path");
                            cycles.push(path[start..].iter().map(|&i| self.ids[i]).collect());
                        }
                        _ => {}
                    }
                } else {
                    colour[node] = BLACK;
                    stack.pop();
                    path.pop();
                }
            }
        }
        cycles
    }
}

/// Computes worst-case arrival times from `starts` (input pins injected at
/// t = 0), stopping at components in `cuts`. Every input pin propagates —
/// the conservative structural view (see [`trigger_arrival_times`] for the
/// pin-aware one).
///
/// # Errors
///
/// [`StaError::UncutCycle`] if relaxation has not converged after `n`
/// rounds, which implies a cycle outside the cut set.
///
/// # Panics
///
/// Panics if a start pin lies on a component the netlist does not hold
/// (an id taken from another, larger netlist).
pub fn arrival_times(
    netlist: &Netlist,
    starts: &[Pin],
    cuts: &HashSet<ComponentId>,
) -> Result<ArrivalTimes, StaError> {
    TimingGraph::new(netlist, cuts).relax(starts, Edges::All, Sense::Latest)
}

/// Pin-aware arrival times: pulses propagate only through each cell's
/// [`trigger_pins`](CellKind::trigger_pins), so paths are segmented at
/// clocked elements (a wire into a DRO's `D` pin terminates its path; the
/// `CLK` pin launches a new one). Supports both relaxation senses.
///
/// # Errors
///
/// [`StaError::UncutCycle`] if the trigger graph still contains an uncut
/// cycle — a pulse loop that no clocked element interrupts.
///
/// # Panics
///
/// Panics if a start pin lies on a component the netlist does not hold
/// (an id taken from another, larger netlist).
pub fn trigger_arrival_times(
    netlist: &Netlist,
    starts: &[Pin],
    cuts: &HashSet<ComponentId>,
    sense: Sense,
) -> Result<ArrivalTimes, StaError> {
    TimingGraph::new(netlist, cuts).trigger_arrival_times(starts, sense)
}

/// Enumerates elementary cycles of the full (all-pin) timing graph, up to
/// one witness per back edge of a depth-first traversal. Each cycle is a
/// component path in propagation order; components in `cuts` are excluded.
pub fn find_cycles(netlist: &Netlist, cuts: &HashSet<ComponentId>) -> Vec<Vec<ComponentId>> {
    TimingGraph::new(netlist, cuts).cycles()
}

/// The natural cut candidates on a cycle: state-holding cells (those with
/// a [`stored`](sfq_sim::cell::Cell::stored) view) and
/// coincidence gates, which interrupt free pulse circulation. Falls back
/// to the entire witness for pure-transport cycles, which have no natural
/// cut and must be restructured.
pub fn suggest_cuts(netlist: &Netlist, cycle: &[ComponentId]) -> Vec<ComponentId> {
    let natural: Vec<ComponentId> = cycle
        .iter()
        .copied()
        .filter(|&id| {
            let c = netlist.cell(id);
            c.stored().is_some() || c.kind() == CellKind::Dand
        })
        .collect();
    if natural.is_empty() {
        cycle.to_vec()
    } else {
        natural
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::storage::Dro;
    use crate::transport::Jtl;
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::{Duration, Time};

    #[test]
    fn chain_arrival_matches_simulation() {
        let mut b = CircuitBuilder::new();
        let a = b.jtl_with_delay(Duration::from_ps(2.0));
        let c = b.jtl_with_delay(Duration::from_ps(5.0));
        let d = b.jtl_with_delay(Duration::from_ps(1.5));
        b.connect_delayed(
            Pin::new(a, Jtl::OUT),
            Pin::new(c, Jtl::IN),
            Duration::from_ps(0.5),
        );
        b.connect(Pin::new(c, Jtl::OUT), Pin::new(d, Jtl::IN));
        let netlist = b.finish();

        let times =
            arrival_times(&netlist, &[Pin::new(a, Jtl::IN)], &HashSet::new()).expect("acyclic");
        assert_eq!(times.at(d), Some(7.5)); // 2 + 0.5 + 5

        // Dynamic check: the pulse reaches d's input at the same time, so
        // its output fires one instance delay later.
        let mut sim = Simulator::new(netlist);
        let p = sim.probe(Pin::new(d, Jtl::OUT), "end");
        sim.inject(Pin::new(a, Jtl::IN), Time::ZERO);
        sim.run();
        assert_eq!(sim.probe_trace(p).pulses()[0], Time::from_ps(9.0)); // + d's own 1.5
    }

    #[test]
    fn reconvergent_paths_take_the_longest() {
        // a splits; one branch is slow; both merge at m.
        let mut b = CircuitBuilder::new();
        let s = b.splitter();
        let fast = b.jtl_with_delay(Duration::from_ps(1.0));
        let slow = b.jtl_with_delay(Duration::from_ps(9.0));
        let m = b.merger();
        b.connect(
            Pin::new(s, crate::transport::Splitter::OUT0),
            Pin::new(fast, Jtl::IN),
        );
        b.connect(
            Pin::new(s, crate::transport::Splitter::OUT1),
            Pin::new(slow, Jtl::IN),
        );
        b.connect(
            Pin::new(fast, Jtl::OUT),
            Pin::new(m, crate::transport::Merger::IN_A),
        );
        b.connect(
            Pin::new(slow, Jtl::OUT),
            Pin::new(m, crate::transport::Merger::IN_B),
        );
        let netlist = b.finish();
        let times = arrival_times(
            &netlist,
            &[Pin::new(s, crate::transport::Splitter::IN)],
            &HashSet::new(),
        )
        .expect("acyclic");
        // splitter 3 + slow 9 = 12 at the merger input.
        assert_eq!(times.at(m), Some(12.0));
    }

    #[test]
    fn min_paths_take_the_shortest() {
        // Same reconvergence as above, shortest-path sense: 3 + 1 = 4.
        let mut b = CircuitBuilder::new();
        let s = b.splitter();
        let fast = b.jtl_with_delay(Duration::from_ps(1.0));
        let slow = b.jtl_with_delay(Duration::from_ps(9.0));
        let m = b.merger();
        b.connect(
            Pin::new(s, crate::transport::Splitter::OUT0),
            Pin::new(fast, Jtl::IN),
        );
        b.connect(
            Pin::new(s, crate::transport::Splitter::OUT1),
            Pin::new(slow, Jtl::IN),
        );
        b.connect(
            Pin::new(fast, Jtl::OUT),
            Pin::new(m, crate::transport::Merger::IN_A),
        );
        b.connect(
            Pin::new(slow, Jtl::OUT),
            Pin::new(m, crate::transport::Merger::IN_B),
        );
        let netlist = b.finish();
        let starts = [Pin::new(s, crate::transport::Splitter::IN)];
        let min = trigger_arrival_times(&netlist, &starts, &HashSet::new(), Sense::Earliest)
            .expect("acyclic");
        assert_eq!(min.at(m), Some(4.0));
        let max = trigger_arrival_times(&netlist, &starts, &HashSet::new(), Sense::Latest)
            .expect("acyclic");
        assert_eq!(max.at(m), Some(12.0));
    }

    #[test]
    fn cycles_are_detected() {
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let c = b.jtl();
        b.connect(Pin::new(a, Jtl::OUT), Pin::new(c, Jtl::IN));
        b.connect(Pin::new(c, Jtl::OUT), Pin::new(a, Jtl::IN));
        let netlist = b.finish();
        let err = arrival_times(&netlist, &[Pin::new(a, Jtl::IN)], &HashSet::new()).unwrap_err();
        assert!(matches!(err, StaError::UncutCycle { .. }));
        let StaError::UncutCycle {
            witness,
            suggested_cuts,
        } = err;
        // The witness names both JTLs in order; pure transport has no
        // natural cut, so the suggestion falls back to the whole cycle.
        assert_eq!(witness.len(), 2);
        assert!(witness.contains(&a) && witness.contains(&c));
        assert_eq!(suggested_cuts, witness);
    }

    #[test]
    fn suggested_cuts_prefer_storage_cells() {
        // jtl -> dro -> jtl -> back: the DRO is the natural cut.
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let d = b.dro();
        let c = b.jtl();
        b.connect(Pin::new(a, Jtl::OUT), Pin::new(d, Dro::CLK));
        b.connect(Pin::new(d, Dro::Q), Pin::new(c, Jtl::IN));
        b.connect(Pin::new(c, Jtl::OUT), Pin::new(a, Jtl::IN));
        let netlist = b.finish();
        let err = arrival_times(&netlist, &[Pin::new(a, Jtl::IN)], &HashSet::new()).unwrap_err();
        let StaError::UncutCycle {
            witness,
            suggested_cuts,
        } = err;
        assert_eq!(witness.len(), 3);
        assert_eq!(suggested_cuts, vec![d]);

        // The same loop enters the DRO through CLK (its trigger pin), so
        // even the pin-aware graph is cyclic here.
        let trig = trigger_arrival_times(
            &netlist,
            &[Pin::new(a, Jtl::IN)],
            &HashSet::new(),
            Sense::Latest,
        );
        assert!(trig.is_err());
    }

    #[test]
    fn trigger_graph_segments_paths_at_data_pins() {
        // jtl -> dro.D -> (dro.Q -> jtl): entering through the data pin
        // does not launch, so the loop vanishes from the trigger graph and
        // the DRO's arrival is defined by its CLK only.
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let d = b.dro();
        let c = b.jtl();
        let clk = b.jtl();
        b.connect(Pin::new(a, Jtl::OUT), Pin::new(d, Dro::D));
        b.connect(Pin::new(d, Dro::Q), Pin::new(c, Jtl::IN));
        b.connect(Pin::new(c, Jtl::OUT), Pin::new(a, Jtl::IN));
        b.connect(Pin::new(clk, Jtl::OUT), Pin::new(d, Dro::CLK));
        let netlist = b.finish();
        // All-pin analysis needs a cut...
        assert!(arrival_times(&netlist, &[Pin::new(a, Jtl::IN)], &HashSet::new()).is_err());
        // ...the trigger-aware one does not.
        let starts = [Pin::new(a, Jtl::IN), Pin::new(clk, Jtl::IN)];
        let times = trigger_arrival_times(&netlist, &starts, &HashSet::new(), Sense::Latest)
            .expect("trigger graph is acyclic");
        // d launches from clk: jtl 2 + wire 0 = 2.
        assert_eq!(times.at(d), Some(2.0));
        // c hears the popped pulse: 2 + dro 4 = 6; the loop re-enters a
        // through its (triggering) input but dies at the DRO's data pin.
        assert_eq!(times.at(c), Some(6.0));
        assert_eq!(times.at(a), Some(8.0));
    }

    #[test]
    fn find_cycles_reports_witnesses() {
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let c = b.jtl();
        let lonely = b.jtl();
        b.connect(Pin::new(a, Jtl::OUT), Pin::new(c, Jtl::IN));
        b.connect(Pin::new(c, Jtl::OUT), Pin::new(a, Jtl::IN));
        let netlist = b.finish();
        let cycles = find_cycles(&netlist, &HashSet::new());
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
        assert!(!cycles[0].contains(&lonely));
        // Cutting a cycle member removes it.
        let cuts: HashSet<_> = [a].into_iter().collect();
        assert!(find_cycles(&netlist, &cuts).is_empty());
    }

    #[test]
    fn cuts_break_cycles() {
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let c = b.jtl();
        b.connect(Pin::new(a, Jtl::OUT), Pin::new(c, Jtl::IN));
        b.connect(Pin::new(c, Jtl::OUT), Pin::new(a, Jtl::IN));
        let netlist = b.finish();
        let cuts: HashSet<_> = [c].into_iter().collect();
        let times = arrival_times(&netlist, &[Pin::new(a, Jtl::IN)], &cuts).expect("cut");
        assert_eq!(times.at(c), Some(2.0));
        assert_eq!(times.critical_path_ps(), Some(2.0));
    }

    #[test]
    fn unreachable_components_have_no_arrival() {
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let lonely = b.jtl();
        let netlist = b.finish();
        let times =
            arrival_times(&netlist, &[Pin::new(a, Jtl::IN)], &HashSet::new()).expect("acyclic");
        assert_eq!(times.at(lonely), None);
        assert_eq!(times.at(a), Some(0.0));
    }

    #[test]
    #[should_panic(
        expected = "cannot start timing at c2.0: this netlist does not hold component c2"
    )]
    fn a_start_on_a_foreign_component_is_refused_by_name() {
        let mut b = CircuitBuilder::new();
        let a = b.jtl();
        let netlist = b.finish();
        let mut larger = CircuitBuilder::new();
        let foreign = (0..3)
            .map(|_| larger.jtl())
            .last()
            .expect("three components");
        let starts = [Pin::new(a, Jtl::IN), Pin::new(foreign, Jtl::IN)];
        let _ = trigger_arrival_times(&netlist, &starts, &HashSet::new(), Sense::Latest);
    }
}
