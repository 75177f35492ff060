//! Small wiring helpers shared by the register-file builders.

use sfq_cells::typed::{Sink, TypedBuilder};

/// Builds a splitter broadcast tree delivering one input pulse to every
/// sink in `targets`, consuming them and returning the broadcast root as a
/// new sink.
///
/// Uses `targets.len() - 1` splitters; with a single target that sink
/// itself is returned (no cells).
///
/// # Panics
///
/// Panics if `targets` is empty.
pub fn broadcast_to<'b>(b: &mut TypedBuilder<'b>, targets: Vec<Sink<'b>>) -> Sink<'b> {
    assert!(!targets.is_empty(), "broadcast needs at least one target");
    if targets.len() == 1 {
        let mut targets = targets;
        return targets.pop().expect("single target");
    }
    let root = b.splitter();
    let half = targets.len() / 2;
    let left = b.fork(root.out0, half);
    let right = b.fork(root.out1, targets.len() - half);
    for (leaf, target) in left.into_iter().chain(right).zip(targets) {
        b.bind(leaf, target);
    }
    root.input
}

/// Depth in splitter stages of a balanced broadcast over `leaves` targets
/// (0 for a single target). Exact for powers of two, which is all the
/// register-file builders use.
pub fn broadcast_depth(leaves: usize) -> usize {
    if leaves <= 1 {
        0
    } else {
        (leaves as f64).log2().ceil() as usize
    }
}

/// Depth in merger stages of a balanced merge tree over `inputs`.
pub fn merge_depth(inputs: usize) -> usize {
    broadcast_depth(inputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sfq_cells::spec::{CellKind, Census};
    use sfq_sim::simulator::Simulator;
    use sfq_sim::time::Time;

    #[test]
    fn broadcast_reaches_all_targets() {
        for count in [1usize, 2, 3, 4, 8, 16] {
            let (elab, (input, outs)) = TypedBuilder::elaborate(|b| {
                let (targets, outs): (Vec<_>, Vec<_>) = (0..count)
                    .map(|_| {
                        let j = b.jtl();
                        (j.input, j.out)
                    })
                    .unzip();
                let root = broadcast_to(b, targets);
                let outs: Vec<_> = outs.into_iter().map(|w| b.expose(w)).collect();
                (b.external(root), outs)
            });
            elab.assert_total();
            let census = Census::of(&elab.netlist);
            assert_eq!(census.count(CellKind::Splitter), (count - 1) as u64);
            let mut sim = Simulator::new(elab.netlist);
            let probes: Vec<_> = outs.iter().map(|&p| sim.probe(p, "t")).collect();
            sim.inject(input, Time::ZERO);
            sim.run();
            for p in probes {
                assert_eq!(sim.probe_trace(p).len(), 1, "count {count}");
            }
        }
    }

    #[test]
    fn depths() {
        assert_eq!(broadcast_depth(1), 0);
        assert_eq!(broadcast_depth(2), 1);
        assert_eq!(broadcast_depth(16), 4);
        assert_eq!(broadcast_depth(32), 5);
        assert_eq!(merge_depth(32), 5);
    }
}
