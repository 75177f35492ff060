//! Netlist graph: cells, pins, and delayed wires.
//!
//! A [`Netlist`] owns a set of components, each a [`Cell`] (a primitive's
//! op and state, as data), and the wiring between their pins. Output pins fan out to any number of input pins, each connection
//! carrying its own propagation delay (a Josephson transmission line or a
//! passive transmission line segment). Note that *logical* fan-out in SFQ
//! requires explicit splitter cells; the netlist permits electrical fan-out
//! so that probes can observe a pin without perturbing the circuit, but the
//! cell builders in `sfq-cells` always insert proper splitters.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use crate::cell::Cell;
use crate::time::Duration;

/// Identifier of a component within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub(crate) u32);

impl ComponentId {
    /// Returns the raw index of the component.
    ///
    /// Indices are dense (`0..component_count()`), which makes them usable
    /// as keys into side tables; ids themselves can only be obtained from
    /// the netlist that owns the component ([`Netlist::add`],
    /// [`Netlist::iter`], [`Netlist::iter_scope`]), so analyses cannot
    /// forge an id for a netlist it never came from.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A specific pin on a specific component.
///
/// Pins are plain indices; each component documents its own pin map
/// (e.g. an NDRO cell uses `IN = 0`, `RESET = 1`, `CLK = 2` inputs and
/// `OUT = 0` output). Input and output pins are separate namespaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Pin {
    /// The component the pin belongs to.
    pub component: ComponentId,
    /// The pin index within the component (input or output namespace
    /// depending on context).
    pub index: u8,
}

impl Pin {
    /// Creates a pin reference.
    pub fn new(component: ComponentId, index: u8) -> Self {
        Pin { component, index }
    }
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.component, self.index)
    }
}

/// Exclusive upper bound on an input-pin index: a wire may land on, and a
/// stimulus may be injected into, input pins `0..INPUT_PIN_LIMIT` only.
///
/// The top bit of a queued event's pin byte is the compiled engine's relay
/// flag (see `CompiledNetlist`), so pins from 128 up are reserved rather
/// than wrapped: [`Netlist::try_connect`] rejects them as
/// [`ConnectError::ReservedInputPin`] and
/// [`Simulator::inject`](crate::simulator::Simulator::inject) panics on
/// them. No cell has more than three inputs.
pub const INPUT_PIN_LIMIT: u8 = 0x80;

/// A directed, delayed connection from an output pin to an input pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Wire {
    /// Source output pin.
    pub from: Pin,
    /// Destination input pin.
    pub to: Pin,
    /// Propagation delay along the wire.
    pub delay: Duration,
}

/// A wire rejected by [`Netlist::try_connect`].
///
/// Construction code reaching for the ergonomic path uses
/// [`Netlist::connect`], which panics on these — both are always bugs in
/// hand-written elaborations. Code that *lints* netlists it did not build
/// (e.g. job-server analyses over hostile or generated inputs) uses
/// [`Netlist::try_connect`] and converts the error into a finding instead
/// of tripping a panic path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConnectError {
    /// A wire identical to one already present (same `from`, `to`, and
    /// delay) — the duplicate would silently double every pulse.
    DuplicateWire {
        /// Source output pin of the rejected wire.
        from: Pin,
        /// Destination input pin of the rejected wire.
        to: Pin,
        /// Delay of the rejected wire.
        delay: Duration,
    },
    /// A zero-delay wire from a component back to itself — an event at the
    /// same component and the same instant, which the event queue could
    /// never drain.
    ZeroDelaySelfLoop {
        /// Source output pin of the rejected wire.
        from: Pin,
        /// Destination input pin of the rejected wire.
        to: Pin,
    },
    /// A destination component this netlist does not hold (an id taken
    /// from another, larger netlist): every later walk over the wire
    /// would index past the cell array.
    UnknownDestination {
        /// Source output pin of the rejected wire.
        from: Pin,
        /// Destination input pin of the rejected wire.
        to: Pin,
    },
    /// A destination input pin at or above [`INPUT_PIN_LIMIT`], the range
    /// the event encoding reserves.
    ReservedInputPin {
        /// Source output pin of the rejected wire.
        from: Pin,
        /// Destination input pin of the rejected wire.
        to: Pin,
    },
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::DuplicateWire { from, to, delay } => {
                write!(f, "duplicate wire {from} -> {to} ({} ps)", delay.as_ps())
            }
            ConnectError::ZeroDelaySelfLoop { from, to } => {
                write!(f, "zero-delay self-loop at {from} -> {to}")
            }
            ConnectError::UnknownDestination { from, to } => write!(
                f,
                "wire {from} -> {to} lands on component {} which this netlist does not hold",
                to.component
            ),
            ConnectError::ReservedInputPin { from, to } => write!(
                f,
                "wire {from} -> {to} lands on reserved input pin {} (input pins stop at {})",
                to.index,
                INPUT_PIN_LIMIT - 1
            ),
        }
    }
}

impl std::error::Error for ConnectError {}

/// The circuit graph: components plus wiring, organised into hierarchical
/// instance scopes.
///
/// Scopes are `/`-separated instance paths (`bank1/reg3/loopbuf`). During
/// construction, [`Netlist::push_scope`]/[`Netlist::pop_scope`] maintain a
/// scope stack; every component added lands in the current scope, and its
/// stored label is the full path (`scope/name`). Analyses can then walk a
/// subsystem with [`Netlist::iter_scope`] or attribute any component via
/// [`Netlist::scope_of`] — the basis for deriving JJ budgets, static power,
/// and P&R hop counts from the elaborated structure itself.
///
/// Storage is dense and indexed by [`ComponentId`]: cells sit in one
/// array of [`Cell`] values (the only copy of each cell, which both
/// simulator engines step in place), labels sit back to back in one text
/// buffer, each cell records its scope as an id into an interned scope
/// table, and fan-out lives in rows addressed by `(component, output pin)`
/// (see [`Netlist::fanout`]), so neither adding a cell nor connecting a
/// wire allocates per item or hashes anything.
///
/// # Examples
///
/// Cells come from the constructors of `sfq-cells`; at this layer any
/// [`CellOp`](crate::cell::CellOp) will do:
///
/// ```
/// use sfq_sim::cell::{Cell, CellKind, CellOp};
/// use sfq_sim::netlist::{Netlist, Pin};
/// use sfq_sim::time::Duration;
///
/// let mut netlist = Netlist::new();
/// let jtl = Cell::new(CellOp::Jtl { delay: Duration::from_ps(2.0) });
/// let a = netlist.add("a", jtl);
/// let b = netlist.add("b", jtl);
/// netlist.connect(Pin::new(a, 0), Pin::new(b, 0), Duration::ZERO);
/// assert_eq!(netlist.component_count(), 2);
/// assert_eq!(netlist.cell(b).kind(), CellKind::Jtl);
/// ```
#[derive(Default)]
pub struct Netlist {
    /// Every cell's op and state, indexed by component id.
    cells: Vec<Cell>,
    labels: Labels,
    /// Interned scope of each component.
    cell_scope: Vec<ScopeId>,
    scopes: ScopeTable,
    /// Scope stack during construction (innermost last; empty at the root).
    scope_stack: Vec<ScopeId>,
    fanout: FanoutRows,
}

/// Every full hierarchical label (`scope/name`), back to back.
///
/// A table of its own, so a simulator can step one cell mutably while
/// holding the labels shared, and resolve a label only when a violation
/// needs it.
#[derive(Debug, Default)]
pub(crate) struct Labels {
    text: String,
    /// `end[i]`: where component i's label ends in `text` (it starts where
    /// component i - 1's ends).
    end: Vec<u32>,
}

impl Labels {
    /// The label of component `i`.
    pub(crate) fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.end[i - 1] };
        &self.text[start as usize..self.end[i] as usize]
    }

    /// Appends a label: `scope/name`, or `name` at the root.
    fn push(&mut self, scope: &str, name: impl fmt::Display) {
        if !scope.is_empty() {
            self.text.push_str(scope);
            self.text.push('/');
        }
        write!(self.text, "{name}").expect("writing to a String cannot fail");
        self.end
            .push(u32::try_from(self.text.len()).expect("label table too large"));
    }
}

/// Index into a [`ScopeTable`]; [`ROOT_SCOPE`] is the empty path.
type ScopeId = u32;

/// The root scope's id.
const ROOT_SCOPE: ScopeId = 0;

/// Interned scope paths: each distinct path is stored once, and every
/// component refers to its scope by id.
#[derive(Debug)]
struct ScopeTable {
    /// Full path of each scope, indexed by id (`""` for the root).
    paths: Vec<String>,
    /// Path → id, consulted once per [`Netlist::push_scope`].
    ids: BTreeMap<String, ScopeId>,
}

impl Default for ScopeTable {
    fn default() -> Self {
        ScopeTable {
            paths: vec![String::new()],
            ids: BTreeMap::new(),
        }
    }
}

impl ScopeTable {
    /// The id of `parent/segment`, interning the path on first use.
    fn child(&mut self, parent: ScopeId, segment: &str) -> ScopeId {
        let parent = &self.paths[parent as usize];
        let path = if parent.is_empty() {
            segment.to_string()
        } else {
            format!("{parent}/{segment}")
        };
        if let Some(&id) = self.ids.get(&path) {
            return id;
        }
        let id = ScopeId::try_from(self.paths.len()).expect("too many scopes");
        self.paths.push(path.clone());
        self.ids.insert(path, id);
        id
    }
}

/// One fan-out row: the destinations of one output pin, a range of the
/// destination arena.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    start: u32,
    len: u32,
}

/// Fan-out rows addressed by `(component, output pin)`.
///
/// `rows[component * stride + pin]` covers every component and every pin
/// below `stride` (the highest wired output pin + 1; it only grows). A
/// row's destinations are contiguous in `dests`, in insertion order. A row
/// of `len` destinations owns `len.next_power_of_two()` arena slots, so it
/// is full exactly when `len` is zero or a power of two; a full row grows
/// in place at the arena's tail and otherwise moves there with doubled
/// room, leaving its old slots unused. Elaborated designs drive every pin
/// once, so almost every row holds one destination and never moves.
#[derive(Debug, Default)]
struct FanoutRows {
    stride: usize,
    rows: Vec<Row>,
    dests: Vec<(Pin, Duration)>,
    wire_count: usize,
}

/// Filler for the arena slots a row owns but has not used yet.
const UNUSED_DEST: (Pin, Duration) = (
    Pin {
        component: ComponentId(0),
        index: 0,
    },
    Duration::ZERO,
);

impl FanoutRows {
    /// The row index of `pin`, if it is covered.
    fn row_of(&self, pin: Pin) -> Option<usize> {
        let p = pin.index as usize;
        if p >= self.stride {
            return None;
        }
        let row = pin.component.index() * self.stride + p;
        (row < self.rows.len()).then_some(row)
    }

    fn row(&self, row: usize) -> &[(Pin, Duration)] {
        let Row { start, len } = self.rows[row];
        &self.dests[start as usize..(start + len) as usize]
    }

    /// Adds the rows of one new component.
    fn add_component(&mut self) {
        self.rows
            .resize(self.rows.len() + self.stride, Row::default());
    }

    /// Widens every component's row block to `stride` pins.
    fn restride(&mut self, stride: usize, components: usize) {
        let mut rows = vec![Row::default(); components * stride];
        if self.stride > 0 {
            for (old, new) in self
                .rows
                .chunks_exact(self.stride)
                .zip(rows.chunks_exact_mut(stride))
            {
                new[..self.stride].copy_from_slice(old);
            }
        }
        self.rows = rows;
        self.stride = stride;
    }

    /// Appends `dest` to `row`.
    fn push(&mut self, row: usize, dest: (Pin, Duration)) {
        let Row { start, len } = self.rows[row];
        let (start, len) = (start as usize, len as usize);
        let start = if len != 0 && !len.is_power_of_two() {
            start
        } else if len != 0 && start + len == self.dests.len() {
            self.dests.resize(start + 2 * len, UNUSED_DEST);
            start
        } else {
            let tail = self.dests.len();
            self.dests.extend_from_within(start..start + len);
            self.dests.resize(tail + (2 * len).max(1), UNUSED_DEST);
            tail
        };
        self.dests[start + len] = dest;
        self.rows[row] = Row {
            start: u32::try_from(start).expect("fan-out arena too large"),
            len: (len + 1) as u32,
        };
        self.wire_count += 1;
    }
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// The innermost open scope.
    fn current_scope_id(&self) -> ScopeId {
        self.scope_stack.last().copied().unwrap_or(ROOT_SCOPE)
    }

    /// Opens an instance scope; components added until the matching
    /// [`Netlist::pop_scope`] belong to it. Scopes nest: pushing `"reg3"`
    /// inside `"bank1"` places subsequent components in `bank1/reg3`.
    ///
    /// # Panics
    ///
    /// Panics if `scope` is empty or contains `/` (paths are built from
    /// single segments so that scope filtering stays unambiguous).
    pub fn push_scope(&mut self, scope: impl Into<String>) {
        let scope = scope.into();
        assert!(!scope.is_empty(), "scope segment must be non-empty");
        assert!(
            !scope.contains('/'),
            "scope segment must not contain '/': {scope}"
        );
        let id = self.scopes.child(self.current_scope_id(), &scope);
        self.scope_stack.push(id);
    }

    /// Closes the innermost instance scope.
    ///
    /// # Panics
    ///
    /// Panics if no scope is open.
    pub fn pop_scope(&mut self) {
        self.scope_stack
            .pop()
            .expect("pop_scope without matching push_scope");
    }

    /// The current scope path (`""` at the root).
    pub fn current_scope(&self) -> &str {
        &self.scopes.paths[self.current_scope_id() as usize]
    }

    /// Adds a cell with a human-readable instance name, returning its id.
    /// The stored label is the name prefixed with the current scope path.
    /// The name is written straight into the label table, so a
    /// `format_args!` name costs no allocation.
    pub fn add(&mut self, name: impl fmt::Display, cell: Cell) -> ComponentId {
        let id = ComponentId(u32::try_from(self.cells.len()).expect("too many components"));
        let scope = self.current_scope_id();
        self.labels.push(&self.scopes.paths[scope as usize], name);
        self.cell_scope.push(scope);
        self.cells.push(cell);
        self.fanout.add_component();
        id
    }

    /// Connects `from` (an output pin) to `to` (an input pin) with `delay`.
    ///
    /// # Panics
    ///
    /// Panics on a wire identical to one already present (same `from`,
    /// `to`, and `delay` — always a construction bug: the duplicate would
    /// silently double every pulse), on a zero-delay self-loop (an
    /// event at the same component and the same instant, which the event
    /// queue could never drain), on a destination component this netlist
    /// does not hold, and on a destination pin at or above
    /// [`INPUT_PIN_LIMIT`]; the message is the [`ConnectError`]'s text.
    /// Self-loops with positive delay stay legal — deliberate feedback
    /// uses them. Analyses over netlists they did not build use
    /// [`Netlist::try_connect`] instead.
    pub fn connect(&mut self, from: Pin, to: Pin, delay: Duration) {
        if let Err(e) = self.try_connect(from, to, delay) {
            panic!("{e}");
        }
    }

    /// Connects `from` to `to` with `delay`, rejecting the degenerate
    /// wires [`Netlist::connect`] panics on. On `Err` the netlist is
    /// unchanged, so lint-style pipelines over hostile or generated
    /// netlists can record the defect as a finding and keep going.
    ///
    /// # Panics
    ///
    /// Panics if `from` names a component this netlist does not hold.
    pub fn try_connect(&mut self, from: Pin, to: Pin, delay: Duration) -> Result<(), ConnectError> {
        if from.component == to.component && delay == Duration::ZERO {
            return Err(ConnectError::ZeroDelaySelfLoop { from, to });
        }
        assert!(
            from.component.index() < self.cells.len(),
            "wire source {from} is not a component of this netlist"
        );
        if to.component.index() >= self.cells.len() {
            return Err(ConnectError::UnknownDestination { from, to });
        }
        if to.index >= INPUT_PIN_LIMIT {
            return Err(ConnectError::ReservedInputPin { from, to });
        }
        if self.fanout(from).contains(&(to, delay)) {
            return Err(ConnectError::DuplicateWire { from, to, delay });
        }
        if from.index as usize >= self.fanout.stride {
            self.fanout
                .restride(from.index as usize + 1, self.cells.len());
        }
        let row = self.fanout.row_of(from).expect("covered after restride");
        self.fanout.push(row, (to, delay));
        Ok(())
    }

    /// Returns the destinations of an output pin, in wire-insertion
    /// order (the order deliveries are pushed, and so their `seq`
    /// tie-breaks).
    pub fn fanout(&self, from: Pin) -> &[(Pin, Duration)] {
        self.fanout
            .row_of(from)
            .map_or(&[], |row| self.fanout.row(row))
    }

    /// Iterates over every wire in the netlist, ordered by source
    /// component, then source pin, then insertion — the raw material for
    /// static analyses (DRC walks the full wire set, not just the fanout
    /// of known pins).
    pub fn wires(&self) -> impl Iterator<Item = Wire> + '_ {
        let stride = self.fanout.stride;
        (0..self.fanout.rows.len()).flat_map(move |row| {
            let from = Pin::new(ComponentId((row / stride) as u32), (row % stride) as u8);
            self.fanout
                .row(row)
                .iter()
                .map(move |&(to, delay)| Wire { from, to, delay })
        })
    }

    /// Number of output pins per component the fan-out rows cover: one
    /// past the highest output pin any wire leaves from (`0` without
    /// wires). Pins at or beyond it have no fan-out.
    pub(crate) fn fanout_stride(&self) -> usize {
        self.fanout.stride
    }

    /// Number of components in the netlist.
    pub fn component_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of wires in the netlist.
    pub fn wire_count(&self) -> usize {
        self.fanout.wire_count
    }

    /// Returns the full hierarchical label of a component
    /// (`scope/.../name`).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn label(&self, id: ComponentId) -> &str {
        self.labels.get(id.index())
    }

    /// Returns the scope path of a component (`""` for root components).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn scope_of(&self, id: ComponentId) -> &str {
        &self.scopes.paths[self.cell_scope[id.index()] as usize]
    }

    /// Returns the local instance name of a component (its label with the
    /// scope path stripped).
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn name_of(&self, id: ComponentId) -> &str {
        let label = self.label(id);
        let scope = self.scope_of(id);
        if scope.is_empty() {
            label
        } else {
            &label[scope.len() + 1..]
        }
    }

    /// Returns a cell: its op and its current state.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub fn cell(&self, id: ComponentId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Every cell, in id order (the compiled engine's lowering).
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Every cell, mutably, in id order (snapshot restores).
    pub(crate) fn cells_mut(&mut self) -> &mut [Cell] {
        &mut self.cells
    }

    /// One cell, mutably, together with the label table, shared.
    ///
    /// Cells and labels live in separate arrays, so the split borrow lets
    /// the simulator step a cell in place and still name it in a
    /// violation record, without touching the label on every delivery.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[inline]
    pub(crate) fn cell_mut_and_labels(&mut self, id: ComponentId) -> (&mut Cell, &Labels) {
        (&mut self.cells[id.index()], &self.labels)
    }

    /// Every cell, mutably, together with the label table, shared: a
    /// fault plan's install-time delay scaling rewrites every op and
    /// names the cell it refuses.
    pub(crate) fn cells_mut_and_labels(&mut self) -> (&mut [Cell], &Labels) {
        (&mut self.cells, &self.labels)
    }

    /// Iterates over `(id, label, cell)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, &str, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| {
            let id = ComponentId(i as u32);
            (id, self.label(id), c)
        })
    }

    /// Iterates over the components inside a scope subtree. `path` selects
    /// the scope itself and everything nested beneath it, segment-wise:
    /// `"bank1"` matches `bank1` and `bank1/reg3` but not `bank10`. The
    /// empty path selects every component. Yielded ids are real ids of this
    /// netlist — callers never reconstruct indices.
    pub fn iter_scope<'a>(
        &'a self,
        path: &'a str,
    ) -> impl Iterator<Item = (ComponentId, &'a str, &'a Cell)> {
        self.iter_scoped_by(move |scope| scope_matches(scope, path))
    }

    /// Iterates over components whose scope satisfies a predicate — the
    /// general form of [`Netlist::iter_scope`] for analyses that group
    /// scopes by pattern (e.g. every `reg*` region of a register file).
    /// The predicate is asked once per distinct scope, not per component.
    pub fn iter_scoped_by<'a, F>(
        &'a self,
        mut pred: F,
    ) -> impl Iterator<Item = (ComponentId, &'a str, &'a Cell)>
    where
        F: FnMut(&str) -> bool + 'a,
    {
        let selected: Vec<bool> = self.scopes.paths.iter().map(|s| pred(s)).collect();
        self.iter()
            .filter(move |(id, _, _)| selected[self.cell_scope[id.index()] as usize])
    }

    /// The distinct top-level scope segments, in first-appearance order.
    /// Root components (empty scope) are not represented.
    pub fn top_scopes(&self) -> Vec<&str> {
        let mut visited = vec![false; self.scopes.paths.len()];
        let mut seen = Vec::new();
        for &scope in &self.cell_scope {
            if std::mem::replace(&mut visited[scope as usize], true) || scope == ROOT_SCOPE {
                continue;
            }
            let top = self.scopes.paths[scope as usize]
                .split('/')
                .next()
                .expect("split yields at least one segment");
            if !seen.contains(&top) {
                seen.push(top);
            }
        }
        seen
    }
}

/// Returns `true` if `scope` lies in the subtree rooted at `path`
/// (segment-aware prefix match; the empty path matches everything).
fn scope_matches(scope: &str, path: &str) -> bool {
    if path.is_empty() {
        return true;
    }
    match scope.strip_prefix(path) {
        Some(rest) => rest.is_empty() || rest.starts_with('/'),
        None => false,
    }
}

impl fmt::Debug for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Netlist")
            .field("components", &self.cells.len())
            .field("wires", &self.fanout.wire_count)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{CellKind, CellOp};

    /// Any cell: these tests exercise structure, not behaviour.
    const DUMMY: Cell = Cell::new(CellOp::Jtl {
        delay: Duration::ZERO,
    });

    #[test]
    fn add_and_lookup() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        assert_eq!(n.component_count(), 2);
        assert_eq!(n.label(a), "a");
        assert_eq!(n.label(b), "b");
        assert_eq!(n.cell(a).kind(), CellKind::Jtl);
    }

    #[test]
    fn connect_and_fanout() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        let from = Pin::new(a, 0);
        n.connect(from, Pin::new(b, 0), Duration::from_ps(1.0));
        n.connect(from, Pin::new(b, 1), Duration::from_ps(2.0));
        assert_eq!(n.fanout(from).len(), 2);
        assert_eq!(n.wire_count(), 2);
        assert!(n.fanout(Pin::new(b, 0)).is_empty());
        assert_eq!(n.wires().count(), 2);
        assert!(n.wires().all(|w| w.from == from));
    }

    #[test]
    #[should_panic(expected = "duplicate wire")]
    fn duplicate_identical_wire_panics() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        n.connect(Pin::new(a, 0), Pin::new(b, 0), Duration::from_ps(1.0));
        n.connect(Pin::new(a, 0), Pin::new(b, 0), Duration::from_ps(1.0));
    }

    #[test]
    fn parallel_wires_with_distinct_delays_are_accepted() {
        // Not identical, so construction lets them through — sfq-lint's
        // dup-wire rule flags the double driving instead.
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        n.connect(Pin::new(a, 0), Pin::new(b, 0), Duration::from_ps(1.0));
        n.connect(Pin::new(a, 0), Pin::new(b, 0), Duration::from_ps(2.0));
        assert_eq!(n.fanout(Pin::new(a, 0)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "zero-delay self-loop")]
    fn zero_delay_self_loop_panics() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        n.connect(Pin::new(a, 0), Pin::new(a, 0), Duration::ZERO);
    }

    #[test]
    fn try_connect_reports_degenerate_wires_without_mutating() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        let d = Duration::from_ps(1.0);
        assert_eq!(n.try_connect(Pin::new(a, 0), Pin::new(b, 0), d), Ok(()));
        assert_eq!(
            n.try_connect(Pin::new(a, 0), Pin::new(b, 0), d),
            Err(ConnectError::DuplicateWire {
                from: Pin::new(a, 0),
                to: Pin::new(b, 0),
                delay: d,
            })
        );
        assert_eq!(
            n.try_connect(Pin::new(a, 0), Pin::new(a, 1), Duration::ZERO),
            Err(ConnectError::ZeroDelaySelfLoop {
                from: Pin::new(a, 0),
                to: Pin::new(a, 1),
            })
        );
        // Rejected wires leave the netlist untouched.
        assert_eq!(n.wire_count(), 1);
        assert_eq!(n.fanout(Pin::new(a, 0)).len(), 1);
    }

    #[test]
    fn a_wire_into_a_reserved_input_pin_is_refused() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        let d = Duration::from_ps(1.0);
        let last = Pin::new(b, INPUT_PIN_LIMIT - 1);
        assert_eq!(n.try_connect(Pin::new(a, 0), last, d), Ok(()));
        for index in [INPUT_PIN_LIMIT, 200, u8::MAX] {
            let to = Pin::new(b, index);
            assert_eq!(
                n.try_connect(Pin::new(a, 0), to, d),
                Err(ConnectError::ReservedInputPin {
                    from: Pin::new(a, 0),
                    to
                })
            );
        }
        assert_eq!(n.wires().map(|w| w.to).collect::<Vec<_>>(), [last]);
    }

    #[test]
    #[should_panic(expected = "wire c0.0 -> c1.200 lands on reserved input pin 200")]
    fn connect_panics_on_a_reserved_input_pin() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let b = n.add("b", DUMMY);
        n.connect(Pin::new(a, 0), Pin::new(b, 200), Duration::from_ps(1.0));
    }

    #[test]
    fn a_wire_to_a_component_of_another_netlist_is_refused() {
        // An id from a larger netlist: the wire used to be accepted, and
        // every later walk over it indexed past the cell array.
        let mut big = Netlist::new();
        let foreign = (0..3).map(|i| big.add(format!("f{i}"), DUMMY)).last();
        let foreign = foreign.expect("three cells");
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        let to = Pin::new(foreign, 0);
        let d = Duration::from_ps(1.0);
        assert_eq!(
            n.try_connect(Pin::new(a, 0), to, d),
            Err(ConnectError::UnknownDestination {
                from: Pin::new(a, 0),
                to
            })
        );
        assert_eq!(n.wire_count(), 0);
        assert!(n.fanout(Pin::new(a, 0)).is_empty());
    }

    #[test]
    fn connect_error_displays_like_the_old_panics() {
        let a = Pin::new(ComponentId(0), 0);
        let b = Pin::new(ComponentId(1), 2);
        let dup = ConnectError::DuplicateWire {
            from: a,
            to: b,
            delay: Duration::from_ps(3.0),
        };
        assert_eq!(dup.to_string(), "duplicate wire c0.0 -> c1.2 (3 ps)");
        let loopback = ConnectError::ZeroDelaySelfLoop { from: a, to: a };
        assert_eq!(loopback.to_string(), "zero-delay self-loop at c0.0 -> c0.0");
        let foreign = ConnectError::UnknownDestination { from: a, to: b };
        assert_eq!(
            foreign.to_string(),
            "wire c0.0 -> c1.2 lands on component c1 which this netlist does not hold"
        );
        let reserved = ConnectError::ReservedInputPin {
            from: a,
            to: Pin::new(ComponentId(1), 128),
        };
        assert_eq!(
            reserved.to_string(),
            "wire c0.0 -> c1.128 lands on reserved input pin 128 (input pins stop at 127)"
        );
    }

    #[test]
    fn delayed_self_loop_is_legal() {
        let mut n = Netlist::new();
        let a = n.add("a", DUMMY);
        n.connect(Pin::new(a, 0), Pin::new(a, 0), Duration::from_ps(1.0));
        assert_eq!(n.wire_count(), 1);
    }

    #[test]
    fn pin_display() {
        let p = Pin::new(ComponentId(3), 1);
        assert_eq!(p.to_string(), "c3.1");
    }

    #[test]
    fn scopes_prefix_labels() {
        let mut n = Netlist::new();
        let root = n.add("jtl0", DUMMY);
        n.push_scope("bank1");
        n.push_scope("reg3");
        let cell = n.add("loopbuf", DUMMY);
        n.pop_scope();
        let demux = n.add("ndroc0", DUMMY);
        n.pop_scope();
        assert_eq!(n.label(root), "jtl0");
        assert_eq!(n.scope_of(root), "");
        assert_eq!(n.label(cell), "bank1/reg3/loopbuf");
        assert_eq!(n.scope_of(cell), "bank1/reg3");
        assert_eq!(n.name_of(cell), "loopbuf");
        assert_eq!(n.scope_of(demux), "bank1");
        assert_eq!(n.current_scope(), "");
    }

    #[test]
    fn iter_scope_is_segment_aware() {
        let mut n = Netlist::new();
        n.push_scope("bank1");
        let a = n.add("a", DUMMY);
        n.push_scope("reg3");
        let b = n.add("b", DUMMY);
        n.pop_scope();
        n.pop_scope();
        n.push_scope("bank10");
        let c = n.add("c", DUMMY);
        n.pop_scope();

        let in_bank1: Vec<ComponentId> = n.iter_scope("bank1").map(|(id, _, _)| id).collect();
        assert_eq!(in_bank1, vec![a, b], "bank10 must not leak into bank1");
        let all: Vec<ComponentId> = n.iter_scope("").map(|(id, _, _)| id).collect();
        assert_eq!(all, vec![a, b, c]);
        let nested: Vec<ComponentId> = n.iter_scope("bank1/reg3").map(|(id, _, _)| id).collect();
        assert_eq!(nested, vec![b]);
    }

    #[test]
    fn iter_scoped_by_groups_regions() {
        let mut n = Netlist::new();
        for r in 0..3 {
            n.push_scope(format!("reg{r}"));
            n.add("cell", DUMMY);
            n.pop_scope();
        }
        n.push_scope("readport");
        n.add("demux", DUMMY);
        n.pop_scope();
        let regs = n.iter_scoped_by(|s| s.starts_with("reg")).count();
        assert_eq!(regs, 3);
        assert_eq!(n.top_scopes(), vec!["reg0", "reg1", "reg2", "readport"]);
    }

    #[test]
    #[should_panic(expected = "pop_scope")]
    fn unbalanced_pop_panics() {
        let mut n = Netlist::new();
        n.pop_scope();
    }

    #[test]
    #[should_panic(expected = "must not contain")]
    fn slash_in_scope_segment_panics() {
        let mut n = Netlist::new();
        n.push_scope("a/b");
    }
}
