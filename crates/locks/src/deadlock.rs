//! Immediate global deadlock detection.
//!
//! The paper (§4.2): "both global and local deadlock detection is
//! immediate, that is, a deadlock is detected as soon as a lock
//! conflict occurs and a cycle is formed. The youngest transaction in
//! the cycle is restarted to resolve the deadlock."
//!
//! Detection runs over the *live* wait-for relation: whenever a lock
//! request blocks, the engine asks whether the blocked transaction
//! `start` now lies on a cycle, expanding edges on demand from every
//! site's lock table and mapping lock owners (cohorts) to their
//! transactions. Because edges are derived from current state rather
//! than cached, there are no stale edges and therefore no phantom
//! deadlocks.
//!
//! Only cycles through `start` matter: the block just added `start`'s
//! wait edges, and under immediate detection any cycle that does not
//! use them was caught when its own last edge appeared.
//!
//! # The search ([`CycleSearch`])
//!
//! Detection answers two questions. Both answers are exact on any
//! graph — neither relies on the rest of the graph being acyclic — so
//! the search reports precisely the cycle [`find_cycle`] reports.
//!
//! 1. **Is there a cycle through `start`?** (`CycleSearch::on_cycle`)
//!    A cycle through `start` exists iff some transaction is reachable
//!    from `start` *and* reaches `start` (`start` itself included).
//!    The search grows both sets at once: backward over
//!    [`WaitForGraph::for_each_predecessor`] (the lock tables'
//!    [`crate::LockManager::for_each_waiter`], the transpose of
//!    [`crate::LockManager::for_each_blocker`]) and forward over
//!    [`WaitForGraph::for_each_successor`], each step expanding one
//!    node from whichever frontier holds fewer. It answers "yes" when
//!    the two sets meet or a frontier reaches `start`, and "no" as
//!    soon as *either* frontier runs dry, since then that whole
//!    reachable set is known and misses `start`. Under skewed
//!    contention most blocks have nobody waiting on `start`, so the
//!    search ends after one backward expansion, however far `start`'s
//!    own waits fan out; in general it expands about twice the
//!    smaller set.
//! 2. **Which cycle?** (`CycleSearch::first_cycle`) Only when the
//!    answer is yes, an iterative depth-first search from `start`
//!    returns exactly the `Vec` [`find_cycle`] would: successor lists
//!    come from [`WaitForGraph::successors`] in `find_cycle`'s order,
//!    each list is consumed last-first, and a node already discovered
//!    (on the path or finished) is skipped. The lists of every node on
//!    the current path share one buffer, so the search allocates
//!    nothing once its buffers reach their high-water marks.
//!
//! The victim is picked from that cycle (the youngest member), so the
//! cycle's identity — not just its existence — decides the run; the
//! order-preserving DFS is what keeps every victim, and so every event,
//! unchanged. Both parts mark nodes in one array of visit stamps
//! indexed by dense node slot; a fresh stamp per pass replaces
//! clearing, and the array is zeroed only when the `u32` stamp wraps.
//!
//! [`find_cycle`] and [`youngest_victim`] stay as the plain reference
//! implementation: tests compare the search against them, and the
//! layer benchmarks replay detection through them.

use std::collections::HashMap;
use std::hash::Hash;

/// A wait-for graph over nodes with dense slots, as [`CycleSearch`]
/// walks it. An edge `a → b` means `a` waits for `b`.
///
/// The three expansions must describe one edge set: `successors` in a
/// fixed order (it decides which cycle is reported), the two `for_each`
/// visitors in any order and with repeats allowed (they only decide
/// reachability).
pub trait WaitForGraph {
    /// A node (the engine's transaction handle).
    type Node: Copy + Eq;

    /// `n`'s dense slot: unique among live nodes and small enough to
    /// index the search's stamp array.
    fn slot(&self, n: Self::Node) -> usize;

    /// Append `n`'s successors to `out` in the order [`find_cycle`]'s
    /// `waits_for` closure would yield them.
    fn successors(&mut self, n: Self::Node, out: &mut Vec<Self::Node>);

    /// Visit every successor of `n`.
    fn for_each_successor(&self, n: Self::Node, f: impl FnMut(Self::Node));

    /// Visit every predecessor of `n` (every node waiting for it).
    fn for_each_predecessor(&self, n: Self::Node, f: impl FnMut(Self::Node));
}

/// Reusable scratch for deadlock detection (see the module docs): one
/// stamp array and the work buffers of both searches. Keep one per
/// simulation; after warm-up a check allocates nothing.
#[derive(Debug)]
pub struct CycleSearch<T> {
    /// Visit stamps indexed by node slot.
    marks: Vec<u32>,
    /// The most recently issued stamp; slots never hold a larger one.
    stamp: u32,
    /// Frontiers of the reachability test.
    forward: Vec<T>,
    backward: Vec<T>,
    /// The depth-first path from `start`.
    path: Vec<T>,
    /// The unexplored successor lists of every path node, concatenated.
    succs: Vec<T>,
    /// Where each path node's list starts in `succs`.
    frames: Vec<usize>,
}

impl<T: Copy + Eq> Default for CycleSearch<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Eq> CycleSearch<T> {
    /// Empty scratch.
    pub fn new() -> Self {
        CycleSearch {
            marks: Vec::new(),
            stamp: 0,
            forward: Vec::new(),
            backward: Vec::new(),
            path: Vec::new(),
            succs: Vec::new(),
            frames: Vec::new(),
        }
    }

    /// A stamp no slot holds yet. On `u32` wrap-around every slot is
    /// zeroed, so stale stamps can never alias a fresh one.
    fn fresh_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.marks.fill(0);
            self.stamp = 1;
        }
        self.stamp
    }

    /// The first cycle through `start`, exactly as [`find_cycle`] would
    /// report it (nodes in wait order from `start`), or `None`. Runs the
    /// cheap bidirectional test first and the ordered search only when
    /// a cycle exists (see the module docs).
    pub fn find<G>(&mut self, g: &mut G, start: T) -> Option<&[T]>
    where
        G: WaitForGraph<Node = T>,
    {
        if !self.on_cycle(g, start) {
            return None;
        }
        self.first_cycle(g, start)
    }

    /// Does `start` lie on a cycle? Exact on any graph: grows the sets
    /// reachable from and reaching `start`, one node at a time from the
    /// smaller frontier, and stops when they meet (yes) or either is
    /// exhausted (no).
    fn on_cycle<G>(&mut self, g: &G, start: T) -> bool
    where
        G: WaitForGraph<Node = T>,
    {
        let fwd = self.fresh_stamp();
        let bwd = self.fresh_stamp();
        let CycleSearch {
            marks,
            forward,
            backward,
            ..
        } = self;
        // Returns the slot's previous stamp, setting `stamp` when the
        // slot was unvisited this pass.
        let mut visit = |slot: usize, stamp: u32| -> u32 {
            if slot >= marks.len() {
                marks.resize(slot + 1, 0);
            }
            let prev = marks[slot];
            if prev != fwd && prev != bwd {
                marks[slot] = stamp;
            }
            prev
        };
        visit(g.slot(start), fwd);
        forward.clear();
        backward.clear();
        forward.push(start);
        backward.push(start);
        let mut met = false;
        // Both frontiers are non-empty at the top of every step.
        loop {
            if backward.len() <= forward.len() {
                let n = backward.pop().expect("non-empty frontier");
                g.for_each_predecessor(n, |p| {
                    if met {
                        return;
                    }
                    // `start` carries `fwd`, so reaching it lands here too.
                    match visit(g.slot(p), bwd) {
                        m if m == fwd => met = true,
                        m if m == bwd => {}
                        _ => backward.push(p),
                    }
                });
                if met || backward.is_empty() {
                    return met;
                }
            } else {
                let n = forward.pop().expect("non-empty frontier");
                g.for_each_successor(n, |s| {
                    if met {
                        return;
                    }
                    if s == start {
                        met = true;
                        return;
                    }
                    match visit(g.slot(s), fwd) {
                        m if m == bwd => met = true,
                        m if m == fwd => {}
                        _ => forward.push(s),
                    }
                });
                if met || forward.is_empty() {
                    return met;
                }
            }
        }
    }

    /// [`find_cycle`] without its allocations: depth-first from `start`,
    /// consuming each node's [`WaitForGraph::successors`] list last-first
    /// and skipping nodes already discovered, so the returned cycle is
    /// `find_cycle`'s `Vec` node for node.
    fn first_cycle<G>(&mut self, g: &mut G, start: T) -> Option<&[T]>
    where
        G: WaitForGraph<Node = T>,
    {
        let stamp = self.fresh_stamp();
        let CycleSearch {
            marks,
            path,
            succs,
            frames,
            ..
        } = self;
        // True when the slot was not yet discovered this pass.
        let mut discover = |slot: usize| -> bool {
            if slot >= marks.len() {
                marks.resize(slot + 1, 0);
            }
            let fresh = marks[slot] != stamp;
            marks[slot] = stamp;
            fresh
        };
        path.clear();
        succs.clear();
        frames.clear();
        discover(g.slot(start));
        path.push(start);
        frames.push(0);
        g.successors(start, succs);
        while let Some(&base) = frames.last() {
            if succs.len() == base {
                // Every successor of the path's tip explored: backtrack.
                frames.pop();
                path.pop();
                continue;
            }
            let next = succs.pop().expect("non-empty frame");
            if next == start {
                return Some(path.as_slice());
            }
            if discover(g.slot(next)) {
                path.push(next);
                frames.push(succs.len());
                g.successors(next, succs);
            }
        }
        None
    }
}

/// Depth-first search for a cycle through `start` in the wait-for
/// graph, where `waits_for(t)` yields the transactions `t` currently
/// waits for.
///
/// Returns the nodes of the first cycle found **through `start`**, in
/// wait order starting at `start`, or `None` if no such cycle exists.
/// Only cycles containing `start` matter: under immediate detection any
/// other cycle would already have been caught when its last edge
/// appeared.
///
/// This is the plain reference implementation: it allocates a HashMap
/// and a successor `Vec` per node. [`CycleSearch::find`] returns the
/// same cycle without allocating and is what the engine runs.
pub fn find_cycle<T, F, I>(start: T, mut waits_for: F) -> Option<Vec<T>>
where
    T: Copy + Eq + Hash,
    F: FnMut(T) -> I,
    I: IntoIterator<Item = T>,
{
    // Iterative DFS with an explicit stack of (node, unvisited successors).
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        OnStack,
        Done,
    }
    let mut color: HashMap<T, Color> = HashMap::new();
    let mut path: Vec<T> = Vec::new();
    let mut iters: Vec<Vec<T>> = Vec::new();

    color.insert(start, Color::OnStack);
    path.push(start);
    iters.push(waits_for(start).into_iter().collect());

    while let Some(succs) = iters.last_mut() {
        match succs.pop() {
            Some(next) => {
                if next == start {
                    // Found a cycle back to the origin.
                    return Some(path.clone());
                }
                match color.get(&next) {
                    Some(Color::OnStack) => {
                        // A cycle not through `start`; under immediate
                        // detection this cannot contain the new edge, so
                        // skip it (it will be reported, if real, from its
                        // own blocking event).
                        continue;
                    }
                    Some(Color::Done) => continue,
                    None => {
                        color.insert(next, Color::OnStack);
                        path.push(next);
                        iters.push(waits_for(next).into_iter().collect());
                    }
                }
            }
            None => {
                let done = path.pop().expect("path tracks iters");
                color.insert(done, Color::Done);
                iters.pop();
            }
        }
    }
    None
}

/// Pick the victim from a deadlock cycle: the *youngest* transaction,
/// i.e. the one with the largest birth instant; ties broken by the
/// larger transaction id so the choice is deterministic.
pub fn youngest_victim<T, B>(cycle: &[T], birth: B) -> T
where
    T: Copy + Ord,
    B: Fn(T) -> u64,
{
    assert!(!cycle.is_empty(), "empty cycle");
    *cycle
        .iter()
        .max_by_key(|&&t| (birth(t), t))
        .expect("non-empty cycle")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn graph(edges: &[(u32, u32)]) -> HashMap<u32, Vec<u32>> {
        let mut g: HashMap<u32, Vec<u32>> = HashMap::new();
        for &(a, b) in edges {
            g.entry(a).or_default().push(b);
        }
        g
    }

    fn expand(g: &HashMap<u32, Vec<u32>>) -> impl Fn(u32) -> Vec<u32> + '_ {
        move |t| g.get(&t).cloned().unwrap_or_default()
    }

    #[test]
    fn no_edges_no_cycle() {
        let g = graph(&[]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn self_loop() {
        let g = graph(&[(1, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1]));
    }

    #[test]
    fn two_cycle() {
        let g = graph(&[(1, 2), (2, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1, 2]));
    }

    #[test]
    fn chain_is_not_a_cycle() {
        let g = graph(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn long_cycle_found_through_start() {
        let g = graph(&[(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1, 2, 3, 4, 5]));
    }

    #[test]
    fn cycle_not_through_start_is_ignored() {
        // 1 -> 2 -> 3 -> 2 : the 2-3 cycle does not involve 1.
        let g = graph(&[(1, 2), (2, 3), (3, 2)]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn branches_are_explored() {
        // 1 waits for 2 and 3; only the 3-branch loops back.
        let g = graph(&[(1, 2), (1, 3), (2, 9), (3, 4), (4, 1)]);
        let cycle = find_cycle(1, expand(&g)).unwrap();
        assert_eq!(cycle.first(), Some(&1));
        assert!(cycle.contains(&3) && cycle.contains(&4));
        assert!(!cycle.contains(&2));
    }

    #[test]
    fn diamond_without_cycle() {
        let g = graph(&[(1, 2), (1, 3), (2, 4), (3, 4)]);
        assert_eq!(find_cycle(1, expand(&g)), None);
    }

    #[test]
    fn multi_edges_are_harmless() {
        let g = graph(&[(1, 2), (1, 2), (2, 1)]);
        assert_eq!(find_cycle(1, expand(&g)), Some(vec![1, 2]));
    }

    #[test]
    fn youngest_victim_picks_latest_birth() {
        let births: HashMap<u32, u64> = [(1, 100), (2, 300), (3, 200)].into();
        assert_eq!(youngest_victim(&[1, 2, 3], |t| births[&t]), 2);
    }

    #[test]
    fn youngest_victim_breaks_ties_by_id() {
        let births: HashMap<u32, u64> = [(1, 100), (2, 100)].into();
        assert_eq!(youngest_victim(&[1, 2], |t| births[&t]), 2);
    }

    #[test]
    #[should_panic(expected = "empty cycle")]
    fn empty_cycle_panics() {
        youngest_victim::<u32, _>(&[], |_| 0);
    }
}

// Seeded-loop generative tests (former proptest suite, rewritten as
// deterministic randomized loops over the same input space).
#[cfg(test)]
mod generative_tests {
    use super::*;
    use simkernel::SimRng;
    use std::collections::{HashMap, HashSet};

    /// Brute-force reference: does any directed cycle through `start` exist?
    fn has_cycle_through(start: u32, g: &HashMap<u32, Vec<u32>>) -> bool {
        // BFS from each successor of start back to start.
        let mut frontier: Vec<u32> = g.get(&start).cloned().unwrap_or_default();
        let mut seen: HashSet<u32> = HashSet::new();
        while let Some(n) = frontier.pop() {
            if n == start {
                return true;
            }
            if seen.insert(n) {
                frontier.extend(g.get(&n).cloned().unwrap_or_default());
            }
        }
        false
    }

    /// Adjacency lists in both directions; node ids are their slots.
    struct Lists {
        succ: Vec<Vec<u32>>,
        pred: Vec<Vec<u32>>,
    }

    impl Lists {
        fn new(nodes: usize, g: &HashMap<u32, Vec<u32>>) -> Self {
            let mut succ = vec![Vec::new(); nodes];
            let mut pred = vec![Vec::new(); nodes];
            for (&a, bs) in g {
                for &b in bs {
                    succ[a as usize].push(b);
                    pred[b as usize].push(a);
                }
            }
            Lists { succ, pred }
        }
    }

    impl WaitForGraph for Lists {
        type Node = u32;
        fn slot(&self, n: u32) -> usize {
            n as usize
        }
        fn successors(&mut self, n: u32, out: &mut Vec<u32>) {
            out.extend_from_slice(&self.succ[n as usize]);
        }
        fn for_each_successor(&self, n: u32, f: impl FnMut(u32)) {
            self.succ[n as usize].iter().copied().for_each(f);
        }
        fn for_each_predecessor(&self, n: u32, f: impl FnMut(u32)) {
            self.pred[n as usize].iter().copied().for_each(f);
        }
    }

    /// A random graph over `nodes` nodes: self-loops and repeated
    /// edges included, successor lists in insertion order.
    fn random_graph(r: &mut SimRng, nodes: u64, max_edges: usize) -> HashMap<u32, Vec<u32>> {
        let mut g: HashMap<u32, Vec<u32>> = HashMap::new();
        for _ in 0..r.uniform_usize(0, max_edges) {
            let a = r.uniform_u64(0, nodes - 1) as u32;
            let b = r.uniform_u64(0, nodes - 1) as u32;
            g.entry(a).or_default().push(b);
        }
        g
    }

    /// Check every entry point of `search` against the references on
    /// one graph; returns whether a cycle through `start` exists.
    fn agree(search: &mut CycleSearch<u32>, g: &HashMap<u32, Vec<u32>>, start: u32) -> bool {
        let mut lists = Lists::new(16, g);
        let reference = find_cycle(start, |t| g.get(&t).cloned().unwrap_or_default());
        let exists = has_cycle_through(start, g);
        assert_eq!(reference.is_some(), exists);
        assert_eq!(search.on_cycle(&lists, start), exists, "{g:?} from {start}");
        assert_eq!(
            search.first_cycle(&mut lists, start).map(<[u32]>::to_vec),
            reference,
            "{g:?} from {start}"
        );
        assert_eq!(
            search.find(&mut lists, start).map(<[u32]>::to_vec),
            reference
        );
        exists
    }

    #[test]
    fn matches_brute_force() {
        let mut r = SimRng::new(0xDEAD_10CC);
        for _ in 0..400 {
            let g = random_graph(&mut r, 12, 39);
            let start = r.uniform_u64(0, 11) as u32;
            let found = find_cycle(start, |t| g.get(&t).cloned().unwrap_or_default());
            assert_eq!(found.is_some(), has_cycle_through(start, &g));
            // And any reported cycle is a real cycle through start.
            if let Some(cycle) = found {
                assert_eq!(cycle[0], start);
                for w in cycle.windows(2) {
                    assert!(g[&w[0]].contains(&w[1]));
                }
                assert!(g[cycle.last().unwrap()].contains(&start));
            }
        }
    }

    /// The search returns `find_cycle`'s exact `Vec` — same nodes, same
    /// order — on random graphs with self-loops and multi-edges, with
    /// one scratch reused across every graph.
    #[test]
    fn search_returns_find_cycles_exact_cycle() {
        let mut r = SimRng::new(0x5EA_4C4);
        let mut search = CycleSearch::new();
        let mut cyclic = 0;
        for _ in 0..600 {
            let g = random_graph(&mut r, 12, 30);
            let start = r.uniform_u64(0, 11) as u32;
            cyclic += agree(&mut search, &g, start) as usize;
        }
        // Both answers are well represented.
        assert!((100..500).contains(&cyclic), "{cyclic}");
    }

    /// The shape immediate detection sees: an acyclic graph plus the
    /// blocked node's fresh edges, which may or may not close a cycle.
    #[test]
    fn bidirectional_test_matches_brute_force_on_acyclic_plus_one_edge() {
        let mut r = SimRng::new(0xB1D1);
        let mut search = CycleSearch::new();
        let mut cyclic = 0;
        for _ in 0..500 {
            // Edges only run up a random ranking: acyclic.
            let order = r.sample_distinct(16, 16);
            let mut g: HashMap<u32, Vec<u32>> = HashMap::new();
            for _ in 0..r.uniform_usize(0, 40) {
                let i = r.uniform_usize(0, 14);
                let j = r.uniform_usize(i + 1, 15);
                g.entry(order[i] as u32).or_default().push(order[j] as u32);
            }
            assert!((0..16).all(|n| !has_cycle_through(n, &g)));
            let start = r.uniform_u64(0, 15) as u32;
            let target = r.uniform_u64(0, 15) as u32;
            g.entry(start).or_default().push(target);
            cyclic += agree(&mut search, &g, start) as usize;
        }
        assert!((50..450).contains(&cyclic), "{cyclic}");
    }

    /// Stamps left in the array just before `u32` wrap-around must not
    /// alias the stamps issued just after it.
    #[test]
    fn stamp_counter_wraps_around_safely() {
        let mut r = SimRng::new(0x0F10);
        let mut search = CycleSearch::new();
        // Size the stamp array, then jump the counter to just below
        // the wrap so the next passes leave near-maximal stamps.
        agree(&mut search, &HashMap::from([(15, vec![0])]), 15);
        search.stamp = u32::MAX - 7;
        let mut wrapped = false;
        for _ in 0..40 {
            let g = random_graph(&mut r, 16, 40);
            let start = r.uniform_u64(0, 15) as u32;
            agree(&mut search, &g, start);
            wrapped |= search.stamp < 100;
        }
        assert!(wrapped, "the counter wrapped during the loop");
    }
}
