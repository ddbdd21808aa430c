//! The pushdown query automaton: the paper's Figure 5 rules, generalized to
//! the full grammar as an **NFA over path positions**.
//!
//! A [`State`] is a 64-bit set with one bit per path position `0..=len`
//! (bit `len` is the *accept* bit). For the paper's original grammar — child
//! steps, indices, slices, wildcards — every transition maps a singleton set
//! to a singleton (or empty) set, so the automaton degenerates to exactly
//! the DFA of the paper's Figure 5 and every fast-forward keeps firing.
//! Only [`Step::Descendant`] creates genuine multi-position sets: its
//! transition is *sticky* (the position stays active at every depth) while
//! also advancing on a selector hit.
//!
//! A per-container stack frame holds the state set and — for arrays — the
//! element counter, exactly the `(state, counter, stack)` configuration of
//! the paper's transition rules:
//!
//! * rule **[Key]** — [`Runtime::value_state_for_key`] computes the state the
//!   attribute's value would have; descending into a container value pushes
//!   it ([`Runtime::enter`]), mirroring the push of rule `[Key]`;
//! * rule **[Val]** — [`Runtime::exit`] pops, restoring the outer state;
//! * rules **[Ary-S]**/**[Ary-E]** — entering/leaving an array frame saves
//!   and restores the counter alongside the state;
//! * rule **[Com]** — [`Runtime::increment`] bumps the counter.
//!
//! Filter steps need to *look at the candidate value* to decide the
//! transition; [`Runtime::element_state_with`] takes a probe callback so
//! every engine shares one predicate evaluator ([`crate::filter::eval`]).

use crate::ast::{ExpectedType, FilterExpr, Path, Step};

/// Match progress of a container: the set of path positions that are still
/// live, as a 64-bit set (a state of the query NFA).
///
/// Bit `k` (`k < path.len()`) means "some traversal of the path has matched
/// the first `k` steps down to this container"; bit `path.len()` is the
/// accept bit (only ever set on *value* states returned by the transition
/// functions, never stored in a frame). The empty set is the UNMATCHED sink.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct State(u64);

impl State {
    /// The UNMATCHED sink state (the empty position set).
    pub const UNMATCHED: State = State(0);

    /// Whether this is the UNMATCHED sink (no position is live).
    #[inline]
    pub fn is_unmatched(self) -> bool {
        self.0 == 0
    }

    /// Whether path position `k` is live in this state.
    #[inline]
    pub fn contains(self, k: usize) -> bool {
        k < 64 && self.0 & (1u64 << k) != 0
    }
}

impl std::fmt::Debug for State {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "State[")?;
        for (i, k) in positions(self.0).enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{k}")?;
        }
        write!(f, "]")
    }
}

/// Iterates the set bit indices of `bits`, lowest first.
#[inline]
fn positions(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if bits == 0 {
            None
        } else {
            let k = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(k)
        }
    })
}

/// The matching status of a candidate value, driving Algorithm 2's dispatch
/// between `goOver*` (skip), `goOver*(out)` (output), and recursion.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// No match is possible below this value: fast-forward over it (G2).
    Unmatched,
    /// Partial progress: descend into the value.
    Matched,
    /// The full path matched and nothing deeper can match again: this value
    /// is a query result and can be skipped-with-output (G3).
    Accept,
    /// The value is a query result **and** deeper matches are still
    /// possible (a descendant position is live): emit it, then descend.
    /// G3 skip-with-output is *not* sound here.
    AcceptAndDescend,
}

/// Which kind of JSON container a stack frame represents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContainerKind {
    /// A JSON object (`{ ... }`).
    Object,
    /// A JSON array (`[ ... ]`).
    Array,
}

/// Whether `step` (a non-descendant selector) matches the raw attribute
/// name `raw`.
#[inline]
fn key_matches(step: &Step, raw: &[u8]) -> bool {
    match step {
        Step::Child(n) => crate::names::matches(raw, n),
        Step::AnyChild => true,
        Step::NameUnion(ns) => ns.iter().any(|n| crate::names::matches(raw, n)),
        _ => false,
    }
}

/// Whether the inner selector of a descendant step matches the array
/// element at `idx` (`..*` selects every element as well as every member).
#[inline]
fn descendant_selects_element(
    inner: &Step,
    idx: usize,
    probe: &mut dyn FnMut(&FilterExpr) -> bool,
) -> bool {
    match inner {
        Step::Filter(expr) => probe(expr),
        Step::AnyChild => true,
        s => s.is_array_step() && s.selects_index(idx),
    }
}

/// Pure NFA transition functions over [`State`] sets.
///
/// [`Runtime`] drives these through its frame stack for the streaming
/// engines; the tree-walking baselines (DOM, tape, Pison) call them directly
/// during recursion.
impl Path {
    #[inline]
    fn accept_bit(&self) -> u64 {
        1u64 << self.len()
    }

    /// The state of the root value itself: position 0 (or the accept bit
    /// for the bare-`$` path). Callers must [`Path::prune_state`] it with
    /// the root's container kind before scanning members.
    pub fn root_state(&self) -> State {
        State(1)
    }

    /// Rule `[Key]`: the state of an attribute value, given the enclosing
    /// object's (pruned) state and the attribute's *raw* name bytes.
    ///
    /// The returned set may include the accept bit; it has not yet been
    /// pruned for the value's own container kind.
    pub fn on_key(&self, set: State, raw: &[u8]) -> State {
        let mut out = 0u64;
        for k in positions(set.0 & !self.accept_bit()) {
            match &self.steps()[k] {
                Step::Descendant(inner) => {
                    out |= 1u64 << k; // sticky: keep searching deeper
                    if key_matches(inner, raw) {
                        out |= 1u64 << (k + 1);
                    }
                }
                s => {
                    if key_matches(s, raw) {
                        out |= 1u64 << (k + 1);
                    }
                }
            }
        }
        State(out)
    }

    /// The state of the array element at index `idx`, given the enclosing
    /// array's (pruned) state. `probe` evaluates filter predicates against
    /// the element's bytes (see [`crate::filter::eval`]).
    pub fn on_element(
        &self,
        set: State,
        idx: usize,
        probe: &mut dyn FnMut(&FilterExpr) -> bool,
    ) -> State {
        let mut out = 0u64;
        for k in positions(set.0 & !self.accept_bit()) {
            match &self.steps()[k] {
                Step::Descendant(inner) => {
                    out |= 1u64 << k; // sticky
                    if descendant_selects_element(inner, idx, probe) {
                        out |= 1u64 << (k + 1);
                    }
                }
                Step::Filter(expr) => {
                    if probe(expr) {
                        out |= 1u64 << (k + 1);
                    }
                }
                s => {
                    if s.is_array_step() && s.selects_index(idx) {
                        out |= 1u64 << (k + 1);
                    }
                }
            }
        }
        State(out)
    }

    /// Drops the accept bit and every position whose step cannot select
    /// from a container of kind `kind` — the state a value's *own* frame
    /// gets when descending into it.
    pub fn prune_state(&self, set: State, kind: ContainerKind) -> State {
        let mut out = 0u64;
        for k in positions(set.0 & !self.accept_bit()) {
            if k >= self.len() {
                continue;
            }
            let s = &self.steps()[k];
            let keep = match kind {
                ContainerKind::Object => s.is_object_step(),
                ContainerKind::Array => s.is_array_step(),
            };
            if keep {
                out |= 1u64 << k;
            }
        }
        State(out)
    }

    /// Classifies a *value* state set (as returned by [`Path::on_key`] /
    /// [`Path::on_element`]) into the dispatch [`Status`].
    pub fn status_of(&self, set: State) -> Status {
        let accept = set.0 & self.accept_bit() != 0;
        let live = set.0 & !self.accept_bit() != 0;
        match (accept, live) {
            (false, false) => Status::Unmatched,
            (false, true) => Status::Matched,
            (true, false) => Status::Accept,
            (true, true) => Status::AcceptAndDescend,
        }
    }
}

#[derive(Clone, Debug)]
struct Frame {
    kind: ContainerKind,
    state: State,
    counter: usize,
}

/// A running instance of the query automaton over one JSON record.
///
/// # Example
///
/// Evaluating `$.place.name` over `{"user": ..., "place": {"name": ...}}`:
///
/// ```
/// use jsonski_path::{ContainerKind, Path, Runtime, Status};
///
/// let path: Path = "$.place.name".parse()?;
/// let mut rt = Runtime::new(&path);
/// rt.enter_root(ContainerKind::Object);
/// assert_eq!(rt.value_state_for_key("user").1, Status::Unmatched); // skip
/// let (st, status) = rt.value_state_for_key("place");
/// assert_eq!(status, Status::Matched); // descend
/// rt.enter(ContainerKind::Object, st);
/// assert_eq!(rt.value_state_for_key("name").1, Status::Accept); // output!
/// rt.exit();
/// rt.exit();
/// assert_eq!(rt.depth(), 0);
/// # Ok::<(), jsonski_path::ParsePathError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Runtime<'p> {
    path: &'p Path,
    stack: Vec<Frame>,
}

impl<'p> Runtime<'p> {
    /// Creates an automaton instance for `path`, positioned before the root.
    pub fn new(path: &'p Path) -> Self {
        Runtime {
            path,
            stack: Vec::with_capacity(16),
        }
    }

    /// The path being evaluated.
    pub fn path(&self) -> &'p Path {
        self.path
    }

    /// Enters the root record (which matched zero steps by definition).
    ///
    /// Returns the status of the root itself: `Accept` when the path is just
    /// `$`, otherwise `Matched` if the root's kind can satisfy the first
    /// step, `Unmatched` if it cannot (e.g. `$[*]` over an object record).
    pub fn enter_root(&mut self, kind: ContainerKind) -> Status {
        let (state, status) = if self.path.is_empty() {
            (State::UNMATCHED, Status::Accept)
        } else {
            let pruned = self.path.prune_state(self.path.root_state(), kind);
            let status = if pruned.is_unmatched() {
                Status::Unmatched
            } else {
                Status::Matched
            };
            (pruned, status)
        };
        self.stack.push(Frame {
            kind,
            state,
            counter: 0,
        });
        status
    }

    /// Rule `[Key]`: computes the `(state, status)` the value of attribute
    /// `name` would have in the current object frame.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the current frame is not an object.
    #[inline]
    pub fn value_state_for_key(&self, name: &str) -> (State, Status) {
        self.value_state_for_key_raw(name.as_bytes())
    }

    /// Rule `[Key]` on a *raw* attribute name (escape sequences intact, as
    /// sliced straight from the input). Escaped names are unescaped for
    /// comparison only when they contain a backslash — see
    /// [`crate::names::matches`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the current frame is not an object.
    #[inline]
    pub fn value_state_for_key_raw(&self, raw: &[u8]) -> (State, Status) {
        let frame = self.top();
        debug_assert_eq!(frame.kind, ContainerKind::Object);
        let state = self.path.on_key(frame.state, raw);
        (state, self.path.status_of(state))
    }

    /// Computes the `(state, status)` of the *current* element of the
    /// current array frame (per the counter and the step's index constraint).
    ///
    /// Filter steps are treated as **non-matching** by this probe-less
    /// variant; engines evaluating paths that may contain filters must use
    /// [`Runtime::element_state_with`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the current frame is not an array.
    #[inline]
    pub fn element_state(&self) -> (State, Status) {
        self.element_state_with(&mut |_| false)
    }

    /// Computes the `(state, status)` of the current array element, using
    /// `probe` to evaluate any live filter predicate against the element's
    /// bytes. Engines pass a closure over the element's start position, e.g.
    /// `&mut |expr| jsonski_path::filter::eval(expr, &input[pos..])`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the current frame is not an array.
    #[inline]
    pub fn element_state_with(
        &self,
        probe: &mut dyn FnMut(&FilterExpr) -> bool,
    ) -> (State, Status) {
        let frame = self.top();
        debug_assert_eq!(frame.kind, ContainerKind::Array);
        let state = self.path.on_element(frame.state, frame.counter, probe);
        (state, self.path.status_of(state))
    }

    /// Rules `[Key]`-push / `[Ary-S]`: descends into a container value whose
    /// computed state is `state` (pruned here for the value's kind).
    #[inline]
    pub fn enter(&mut self, kind: ContainerKind, state: State) {
        self.stack.push(Frame {
            kind,
            state: self.path.prune_state(state, kind),
            counter: 0,
        });
    }

    /// Rules `[Val]` / `[Ary-E]`: leaves the current container, restoring the
    /// enclosing state and counter.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty (unbalanced enter/exit).
    #[inline]
    pub fn exit(&mut self) {
        self.stack.pop().expect("automaton stack underflow");
    }

    /// Rule `[Com]`: advances the element counter of the current array frame.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the current frame is not an array.
    #[inline]
    pub fn increment(&mut self) {
        let frame = self.top_mut();
        debug_assert_eq!(frame.kind, ContainerKind::Array);
        frame.counter += 1;
    }

    /// The element counter of the current array frame.
    #[inline]
    pub fn counter(&self) -> usize {
        self.top().counter
    }

    /// Current nesting depth (number of frames).
    #[inline]
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// The expected type of a *matching* value in the current container
    /// (paper Section 3.2 / Algorithm 2 line 3), or `None` when nothing in
    /// this container can match (its state set is empty).
    ///
    /// The answer is only type-precise ([`ExpectedType::Object`]/
    /// [`ExpectedType::Array`]) for singleton, non-descendant states — the
    /// DFA case. Multi-position sets and descendant positions report
    /// [`ExpectedType::Unknown`], which routes engines to the generic
    /// full-detail scan (the G1 fast-forward is not sound there).
    pub fn expected_type(&self) -> Option<ExpectedType> {
        let set = self.top().state;
        if set.is_unmatched() {
            return None;
        }
        let mut iter = positions(set.0);
        let k = iter.next().expect("non-empty set");
        if iter.next().is_none() && !matches!(self.path.steps()[k], Step::Descendant(_)) {
            Some(self.path.expected_type(k))
        } else {
            Some(ExpectedType::Unknown)
        }
    }

    /// For an array frame: the half-open index range that can still match
    /// (`None` = unbounded; `Some` enables G5 fast-forwarding).
    ///
    /// The combined range over all live positions; `None` as soon as any
    /// live step is unbounded (wildcard, filter, or descendant).
    pub fn index_range(&self) -> Option<(usize, usize)> {
        let set = self.top().state;
        if set.is_unmatched() {
            return None;
        }
        let mut lo = usize::MAX;
        let mut hi = 0usize;
        for k in positions(set.0) {
            match self.path.steps()[k].index_range() {
                Some((l, h)) => {
                    lo = lo.min(l);
                    hi = hi.max(h);
                }
                None => return None,
            }
        }
        Some((lo, hi))
    }

    /// Whether the current container's state is the UNMATCHED sink.
    pub fn is_unmatched(&self) -> bool {
        self.top().state.is_unmatched()
    }

    /// The current container's state set.
    pub fn state(&self) -> State {
        self.top().state
    }

    /// The path step being matched inside the current container, when the
    /// state is a singleton (the DFA case) — `None` for the UNMATCHED sink
    /// and for multi-position (descendant) sets.
    ///
    /// Used by the engine to decide whether the G4 fast-forward applies:
    /// after a [`Step::Child`] match no sibling attribute can match (object
    /// attribute names are unique), whereas a wildcard step keeps matching
    /// and a descendant may match at any depth.
    pub fn current_step(&self) -> Option<&Step> {
        let set = self.top().state;
        let mut iter = positions(set.0);
        let k = iter.next()?;
        if iter.next().is_some() {
            return None;
        }
        self.path.steps().get(k)
    }

    /// Resets for a new record.
    pub fn reset(&mut self) {
        self.stack.clear();
    }

    #[inline]
    fn top(&self) -> &Frame {
        self.stack.last().expect("automaton stack is empty")
    }

    #[inline]
    fn top_mut(&mut self) -> &mut Frame {
        self.stack.last_mut().expect("automaton stack is empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(q: &str) -> Path {
        q.parse().unwrap()
    }

    #[test]
    fn tweet_example_from_figure_1() {
        // $.place.name over the Figure 1 tweet.
        let p = path("$.place.name");
        let mut rt = Runtime::new(&p);
        assert_eq!(rt.enter_root(ContainerKind::Object), Status::Matched);
        // coordinates: array value, name mismatch -> skip
        assert_eq!(rt.value_state_for_key("coordinates").1, Status::Unmatched);
        // user: object, but name mismatch -> skip (G2 case in the paper)
        assert_eq!(rt.value_state_for_key("user").1, Status::Unmatched);
        // place: matched, descend
        let (st, status) = rt.value_state_for_key("place");
        assert_eq!(status, Status::Matched);
        rt.enter(ContainerKind::Object, st);
        assert_eq!(rt.value_state_for_key("name").1, Status::Accept);
        // After the accept, bounding_box cannot match (G4 in the paper).
        assert_eq!(rt.value_state_for_key("bounding_box").1, Status::Unmatched);
        rt.exit();
        rt.exit();
        assert_eq!(rt.depth(), 0);
    }

    #[test]
    fn array_counter_and_range() {
        // $.a[2:4]
        let p = path("$.a[2:4]");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        let (st, _) = rt.value_state_for_key("a");
        rt.enter(ContainerKind::Array, st);
        assert_eq!(rt.index_range(), Some((2, 4)));
        assert_eq!(rt.element_state().1, Status::Unmatched); // idx 0
        rt.increment();
        assert_eq!(rt.element_state().1, Status::Unmatched); // idx 1
        rt.increment();
        assert_eq!(rt.element_state().1, Status::Accept); // idx 2
        rt.increment();
        assert_eq!(rt.element_state().1, Status::Accept); // idx 3
        rt.increment();
        assert_eq!(rt.element_state().1, Status::Unmatched); // idx 4
        rt.exit();
        rt.exit();
    }

    #[test]
    fn root_kind_mismatch_is_unmatched() {
        let p = path("$[*].text");
        let mut rt = Runtime::new(&p);
        assert_eq!(rt.enter_root(ContainerKind::Object), Status::Unmatched);
        assert!(rt.is_unmatched());
    }

    #[test]
    fn root_only_path_accepts_root() {
        let p = path("$");
        let mut rt = Runtime::new(&p);
        assert_eq!(rt.enter_root(ContainerKind::Array), Status::Accept);
    }

    #[test]
    fn expected_type_tracks_next_step() {
        let p = path("$.pd[*].cp[1:3].id");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        assert_eq!(rt.expected_type(), Some(ExpectedType::Array)); // pd is array
        let (st, _) = rt.value_state_for_key("pd");
        rt.enter(ContainerKind::Array, st);
        assert_eq!(rt.expected_type(), Some(ExpectedType::Object)); // elements are objects
        let (st, _) = rt.element_state();
        rt.enter(ContainerKind::Object, st);
        assert_eq!(rt.expected_type(), Some(ExpectedType::Array)); // cp is array
        let (st, _) = rt.value_state_for_key("cp");
        rt.enter(ContainerKind::Array, st);
        assert_eq!(rt.index_range(), Some((1, 3)));
        assert_eq!(rt.expected_type(), Some(ExpectedType::Object));
    }

    #[test]
    fn expected_type_none_in_incompatible_container() {
        // Query wants an object attribute but we are inside an array.
        let p = path("$.a.b");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        let (st, _) = rt.value_state_for_key("a");
        // Suppose the data disagrees and `a` is actually an array:
        rt.enter(ContainerKind::Array, st);
        assert_eq!(rt.expected_type(), None);
        assert_eq!(rt.element_state().1, Status::Unmatched);
    }

    #[test]
    fn wildcard_child_matches_any_name() {
        let p = path("$.*");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        assert_eq!(rt.value_state_for_key("anything").1, Status::Accept);
        assert_eq!(rt.value_state_for_key("other").1, Status::Accept);
    }

    #[test]
    fn unmatched_frame_blocks_descendants() {
        let p = path("$.a.b");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        let (st, status) = rt.value_state_for_key("zzz");
        assert_eq!(status, Status::Unmatched);
        rt.enter(ContainerKind::Object, st);
        assert_eq!(rt.value_state_for_key("b").1, Status::Unmatched);
        assert!(rt.is_unmatched());
    }

    #[test]
    fn name_union_matches_either_name() {
        let p = path("$['a','b']");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        assert_eq!(rt.value_state_for_key("a").1, Status::Accept);
        assert_eq!(rt.value_state_for_key("b").1, Status::Accept);
        assert_eq!(rt.value_state_for_key("c").1, Status::Unmatched);
    }

    #[test]
    fn index_union_range_and_selection() {
        let p = path("$[1,4]");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Array);
        assert_eq!(rt.index_range(), Some((1, 5)));
        assert_eq!(rt.element_state().1, Status::Unmatched); // 0
        rt.increment();
        assert_eq!(rt.element_state().1, Status::Accept); // 1
        rt.increment();
        assert_eq!(rt.element_state().1, Status::Unmatched); // 2
    }

    #[test]
    fn descendant_state_is_sticky_and_multi_position() {
        // $..a over {"a": {"a": 1}}: both the outer and inner `a` match.
        let p = path("$..a");
        let mut rt = Runtime::new(&p);
        assert_eq!(rt.enter_root(ContainerKind::Object), Status::Matched);
        let (st, status) = rt.value_state_for_key("a");
        // Outer `a` is a result AND the search continues below it.
        assert_eq!(status, Status::AcceptAndDescend);
        rt.enter(ContainerKind::Object, st);
        // Inside, the descendant position is still live.
        assert!(!rt.is_unmatched());
        assert_eq!(rt.expected_type(), Some(ExpectedType::Unknown));
        // The singleton descendant position is reported, but it is not a
        // `Child` step, so the engine's G4 check stays off.
        assert!(matches!(rt.current_step(), Some(Step::Descendant(_))));
        let (_, status) = rt.value_state_for_key("a");
        assert_eq!(status, Status::AcceptAndDescend);
        // A non-matching sibling still must be descended into.
        let (st2, status) = rt.value_state_for_key("zzz");
        assert_eq!(status, Status::Matched);
        rt.enter(ContainerKind::Array, st2);
        rt.exit();
        rt.exit();
        rt.exit();
    }

    #[test]
    fn descendant_wildcard_selects_members_and_elements() {
        let p = path("$..*");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        let (st, status) = rt.value_state_for_key("k");
        assert_eq!(status, Status::AcceptAndDescend);
        rt.enter(ContainerKind::Array, st);
        assert_eq!(rt.element_state().1, Status::AcceptAndDescend);
        rt.exit();
        rt.exit();
    }

    #[test]
    fn pure_accept_after_descendant_resolves() {
        // `$..a.b`: once `a` matched, `b` is a plain child below it — but the
        // descendant position stays live, so `b`'s accept still descends.
        let p = path("$..a.b");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        let (st, status) = rt.value_state_for_key("a");
        assert_eq!(status, Status::Matched);
        rt.enter(ContainerKind::Object, st);
        let (_, status) = rt.value_state_for_key("b");
        assert_eq!(status, Status::AcceptAndDescend);
        rt.exit();
        rt.exit();
    }

    #[test]
    fn filter_transition_uses_probe() {
        let p = path("$[?(@.x)]");
        let mut rt = Runtime::new(&p);
        assert_eq!(rt.enter_root(ContainerKind::Array), Status::Matched);
        assert_eq!(rt.element_state_with(&mut |_| true).1, Status::Accept);
        assert_eq!(rt.element_state_with(&mut |_| false).1, Status::Unmatched);
        // The probe-less variant treats filters as non-matching.
        assert_eq!(rt.element_state().1, Status::Unmatched);
        assert_eq!(rt.index_range(), None);
    }

    #[test]
    fn non_descendant_paths_stay_singleton() {
        // The DFA property: without `..`, every live set is a singleton.
        let p = path("$.a['b','c'][1,3][?(@.x > 1)].*");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        assert!(rt.current_step().is_some());
        let (st, _) = rt.value_state_for_key("a");
        rt.enter(ContainerKind::Object, st);
        assert!(rt.current_step().is_some());
        let (st, _) = rt.value_state_for_key("c");
        rt.enter(ContainerKind::Array, st);
        assert!(rt.current_step().is_some());
        assert_eq!(rt.index_range(), Some((1, 4)));
    }

    #[test]
    fn reset_clears_stack() {
        let p = path("$.a");
        let mut rt = Runtime::new(&p);
        rt.enter_root(ContainerKind::Object);
        rt.reset();
        assert_eq!(rt.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn exit_on_empty_stack_panics() {
        let p = path("$.a");
        let mut rt = Runtime::new(&p);
        rt.exit();
    }
}
