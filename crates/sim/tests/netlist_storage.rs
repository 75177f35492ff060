//! Property test of the netlist's dense storage against a plain model.
//!
//! `Netlist` keeps fan-out in rows addressed by `(component, output pin)`
//! inside one destination arena, labels back to back in one text buffer,
//! and scopes as ids into an interned table. Seeded construction scripts —
//! nested scopes, adds, and connects that repeat earlier wires, close
//! zero-delay self-loops, land on a component of a larger netlist or on a
//! reserved input pin — run against both the netlist and a model built
//! from a `BTreeMap` of `Vec`s and per-cell `String`s, and every query
//! must agree: fan-out slices in insertion order, the wire sequence and
//! count, the outcome of every `try_connect` (a rejected one leaves the
//! netlist unchanged), and labels, scopes, names, top-level scopes and
//! scope iteration.

use std::collections::BTreeMap;

use sfq_sim::cell::{Cell, CellOp};
use sfq_sim::netlist::{ComponentId, ConnectError, Netlist, Pin, Wire, INPUT_PIN_LIMIT};
use sfq_sim::rng::Rng64;
use sfq_sim::time::Duration;

/// Any cell: the script exercises structure, not behaviour.
const DUMMY: Cell = Cell::new(CellOp::Jtl {
    delay: Duration::ZERO,
});

/// Output and input pins a script draws from.
const PINS: u8 = 4;
/// Scope segments a script draws from; `reg1`/`reg10` test segment-aware
/// matching.
const SEGMENTS: [&str; 5] = ["bank", "reg1", "reg10", "a", "bits"];
/// Cells of the larger netlist foreign destinations come from: more than
/// any script adds.
const FOREIGN_CELLS: usize = 512;

/// The reference model: what the netlist must report.
#[derive(Default)]
struct Model {
    ids: Vec<ComponentId>,
    labels: Vec<String>,
    scopes: Vec<String>,
    stack: Vec<&'static str>,
    fanout: BTreeMap<(usize, u8), Vec<(Pin, Duration)>>,
    wires: usize,
    /// Every connect the script expected refused, in order.
    refused: Vec<ConnectError>,
}

impl Model {
    fn expect_connect(&self, from: Pin, to: Pin, delay: Duration) -> Result<(), ConnectError> {
        if from.component == to.component && delay == Duration::ZERO {
            return Err(ConnectError::ZeroDelaySelfLoop { from, to });
        }
        if to.component.index() >= self.ids.len() {
            return Err(ConnectError::UnknownDestination { from, to });
        }
        if to.index >= INPUT_PIN_LIMIT {
            return Err(ConnectError::ReservedInputPin { from, to });
        }
        let row = self.fanout.get(&(from.component.index(), from.index));
        if row.is_some_and(|r| r.contains(&(to, delay))) {
            return Err(ConnectError::DuplicateWire { from, to, delay });
        }
        Ok(())
    }

    /// Every wire in (source component, source pin, insertion) order.
    fn wires(&self) -> Vec<Wire> {
        self.fanout
            .iter()
            .flat_map(|(&(c, p), row)| {
                let from = Pin::new(self.ids[c], p);
                row.iter().map(move |&(to, delay)| Wire { from, to, delay })
            })
            .collect()
    }

    fn top_scopes(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for scope in self.scopes.iter().filter(|s| !s.is_empty()) {
            let top = scope.split('/').next().unwrap();
            if !seen.contains(&top) {
                seen.push(top);
            }
        }
        seen
    }
}

fn scope_matches(scope: &str, path: &str) -> bool {
    path.is_empty()
        || scope
            .strip_prefix(path)
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// Everything a rejected connect must leave as it was.
fn wiring(netlist: &Netlist) -> (usize, Vec<Wire>) {
    (netlist.wire_count(), netlist.wires().collect())
}

/// Ids of a netlist larger than any script builds.
fn foreign_ids() -> Vec<ComponentId> {
    let mut big = Netlist::new();
    (0..FOREIGN_CELLS).map(|i| big.add(i, DUMMY)).collect()
}

/// Runs one seeded script on a fresh netlist and on the model.
fn build(seed: u64) -> (Netlist, Model) {
    let foreign = foreign_ids();
    let mut rng = Rng64::new(seed);
    let mut netlist = Netlist::new();
    let mut model = Model::default();
    let ops = 50 + rng.next_below(250);
    for _ in 0..ops {
        match rng.next_below(10) {
            0 => {
                let segment = SEGMENTS[rng.next_below(SEGMENTS.len())];
                netlist.push_scope(segment);
                model.stack.push(segment);
            }
            1 if !model.stack.is_empty() => {
                netlist.pop_scope();
                model.stack.pop();
            }
            2..=4 => {
                let name = format!("c{}", rng.next_below(8));
                let scope = model.stack.join("/");
                assert_eq!(netlist.current_scope(), scope);
                let label = if scope.is_empty() {
                    name.clone()
                } else {
                    format!("{scope}/{name}")
                };
                model.ids.push(netlist.add(name, DUMMY));
                model.labels.push(label);
                model.scopes.push(scope);
            }
            _ if !model.ids.is_empty() => {
                let cell = |rng: &mut Rng64| model.ids[rng.next_below(model.ids.len())];
                let delay_of = |rng: &mut Rng64| Duration::from_fs(500 * rng.next_below(4) as u64);
                let (from, to, delay) = match rng.next_below(8) {
                    // Repeat an earlier wire.
                    0 if model.wires > 0 => {
                        let all = model.wires();
                        let w = all[rng.next_below(all.len())];
                        (w.from, w.to, w.delay)
                    }
                    // A zero-delay self-loop.
                    1 => {
                        let c = cell(&mut rng);
                        let from = Pin::new(c, rng.next_below(PINS as usize) as u8);
                        (from, Pin::new(c, rng.next_below(3) as u8), Duration::ZERO)
                    }
                    // A destination the netlist does not hold yet.
                    2 => {
                        let beyond = model.ids.len() + rng.next_below(4);
                        (
                            Pin::new(cell(&mut rng), rng.next_below(PINS as usize) as u8),
                            Pin::new(foreign[beyond], rng.next_below(3) as u8),
                            delay_of(&mut rng),
                        )
                    }
                    // A destination pin in the reserved range.
                    3 => {
                        let reserved = INPUT_PIN_LIMIT + rng.next_below(128) as u8;
                        (
                            Pin::new(cell(&mut rng), rng.next_below(PINS as usize) as u8),
                            Pin::new(cell(&mut rng), reserved),
                            delay_of(&mut rng),
                        )
                    }
                    _ => (
                        Pin::new(cell(&mut rng), rng.next_below(PINS as usize) as u8),
                        Pin::new(cell(&mut rng), rng.next_below(3) as u8),
                        delay_of(&mut rng),
                    ),
                };
                let want = model.expect_connect(from, to, delay);
                let before = wiring(&netlist);
                assert_eq!(netlist.try_connect(from, to, delay), want, "seed {seed}");
                if want.is_ok() {
                    model
                        .fanout
                        .entry((from.component.index(), from.index))
                        .or_default()
                        .push((to, delay));
                    model.wires += 1;
                } else {
                    assert_eq!(wiring(&netlist), before, "seed {seed}: {want:?}");
                    model.refused.extend(want.err());
                }
            }
            _ => {}
        }
    }
    (netlist, model)
}

#[test]
fn dense_storage_matches_the_reference_model() {
    let mut refused = Vec::new();
    for seed in 0..300u64 {
        let (netlist, model) = build(seed);
        refused.extend_from_slice(&model.refused);
        assert_eq!(netlist.component_count(), model.ids.len(), "seed {seed}");
        assert_eq!(netlist.wire_count(), model.wires, "seed {seed}");

        // Fan-out rows, including pins and cells that drive nothing.
        for &id in &model.ids {
            for pin in 0..=PINS {
                let want = model
                    .fanout
                    .get(&(id.index(), pin))
                    .map_or(&[][..], Vec::as_slice);
                assert_eq!(netlist.fanout(Pin::new(id, pin)), want, "seed {seed}");
            }
        }

        // The wire sequence: the model's (component, pin, insertion) order
        // — which also makes it the same multiset.
        let wires: Vec<Wire> = netlist.wires().collect();
        assert_eq!(wires, model.wires(), "seed {seed}");

        // Labels, scopes, names.
        for (i, &id) in model.ids.iter().enumerate() {
            assert_eq!(netlist.label(id), model.labels[i], "seed {seed}");
            assert_eq!(netlist.scope_of(id), model.scopes[i], "seed {seed}");
            let name = model.labels[i].rsplit('/').next().unwrap();
            assert_eq!(netlist.name_of(id), name, "seed {seed}");
        }
        assert_eq!(netlist.top_scopes(), model.top_scopes(), "seed {seed}");
        let labels: Vec<&str> = netlist.iter().map(|(_, label, _)| label).collect();
        assert_eq!(labels, model.labels, "seed {seed}");

        // Scope iteration, for every scope seen plus prefixes that must
        // not match segment-wise.
        let mut paths: Vec<&str> = model.scopes.iter().map(String::as_str).collect();
        paths.extend(["", "reg", "bank/reg", "a/b"]);
        for path in paths {
            let got: Vec<ComponentId> = netlist.iter_scope(path).map(|(id, _, _)| id).collect();
            let want: Vec<ComponentId> = (0..model.ids.len())
                .filter(|&i| scope_matches(&model.scopes[i], path))
                .map(|i| model.ids[i])
                .collect();
            assert_eq!(got, want, "seed {seed}: scope {path:?}");
        }
        let regs = netlist
            .iter_scoped_by(|s| s.starts_with("reg"))
            .map(|(id, _, _)| id);
        let want = (0..model.ids.len())
            .filter(|&i| model.scopes[i].starts_with("reg"))
            .map(|i| model.ids[i]);
        assert!(regs.eq(want), "seed {seed}");
    }
    // Every rejection the scripts aim at was drawn.
    let drawn = |f: fn(&ConnectError) -> bool| refused.iter().any(f);
    assert!(drawn(|e| matches!(e, ConnectError::DuplicateWire { .. })));
    assert!(drawn(|e| matches!(
        e,
        ConnectError::ZeroDelaySelfLoop { .. }
    )));
    assert!(drawn(|e| matches!(
        e,
        ConnectError::UnknownDestination { .. }
    )));
    assert!(drawn(|e| matches!(
        e,
        ConnectError::ReservedInputPin { .. }
    )));
}

#[test]
fn wire_order_is_identical_across_builds_of_one_script() {
    for seed in [7u64, 8, 0xFEED] {
        let (a, _) = build(seed);
        let (b, _) = build(seed);
        let (wa, wb): (Vec<Wire>, Vec<Wire>) = (a.wires().collect(), b.wires().collect());
        assert!(!wa.is_empty(), "seed {seed}: the script wired nothing");
        assert_eq!(wa, wb, "seed {seed}");
    }
}
