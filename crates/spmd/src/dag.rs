//! Program-level clause dependency analysis and DAG scheduling.
//!
//! A multi-clause program executes today as a strict sequence. But the
//! pair-set algebra that powers communication planning (`Reside_p ∩
//! Modify_q`, see [`crate::comm`]) is exactly an element-footprint
//! calculus: the image of a clause's access functions over its iteration
//! range is the set of array elements it reads or writes. Two clauses
//! that touch disjoint element sets on every shared array are
//! independent — executing them in either order (or concurrently from a
//! common snapshot) is bitwise identical to the sequential order.
//!
//! This module computes those footprints per program step, intersects
//! them exactly (a constant or affine image is a one-level [`Nest`], and
//! two of those meet by [`Nest::meet`]; other images are enumerated when
//! small enough, with a conservative "dependent" fallback),
//! condenses the dependence graph with Tarjan's SCC algorithm, and emits
//! a [`ProgramDag`]: a wave schedule in which each wave is an antichain
//! of pairwise-independent steps that the executor may run concurrently.
//!
//! Redistribution steps alias the *whole* array (the layout of every
//! element changes), so they read+write the full extent: any clause
//! touching the array before the redistribution must complete first, and
//! any clause after it depends on it — dependence flows *through* a
//! redistribution transitively, never around it.
//!
//! Because dependence edges only ever point forward in program order
//! (step `i` → step `j` requires `i < j`), the graph built here is
//! always acyclic and every strongly connected component is a
//! singleton. Tarjan condensation is still performed on the general
//! graph: a hypothetical multi-step component (a cycle) would be
//! serialized into consecutive single-step waves, which is the only
//! correct schedule for mutually dependent steps.

use crate::compiled::key_of;
use crate::nest::Nest;
use crate::program::DecompMap;
use vcal_core::func::Fn1;
use vcal_core::Clause;
use vcal_decomp::Decomp1;

/// Largest iteration count this module will enumerate exactly before
/// falling back to a conservative interval hull. The fallback only ever
/// *adds* dependence edges — it loses parallelism, never correctness.
const ENUM_MAX: i64 = 1 << 16;

/// One step of a multi-clause program.
#[derive(Debug, Clone, Hash)]
pub enum ProgramStep {
    /// A `//` clause executed on the distributed machine.
    Clause(Clause),
    /// A dynamic redistribution of `array` to layout `to`.
    Redistribute {
        /// The array whose layout changes.
        array: String,
        /// The new decomposition.
        to: Decomp1,
    },
}

impl ProgramStep {
    /// Every array this step touches (reads or writes).
    pub fn arrays(&self) -> Vec<&str> {
        match self {
            ProgramStep::Clause(c) => crate::compiled::clause_arrays(c),
            ProgramStep::Redistribute { array, .. } => vec![array],
        }
    }
}

/// The kind of data dependence an edge records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write: the later step reads elements the earlier wrote.
    Raw,
    /// Write-after-read: the later step overwrites elements the earlier read.
    War,
    /// Write-after-write: both steps write overlapping elements.
    Waw,
}

impl DepKind {
    /// Stable lowercase name (`raw` / `war` / `waw`).
    pub fn name(self) -> &'static str {
        match self {
            DepKind::Raw => "raw",
            DepKind::War => "war",
            DepKind::Waw => "waw",
        }
    }
}

/// One dependence edge: step `from` must commit before step `to` starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepEdge {
    /// The earlier step (program order).
    pub from: usize,
    /// The later, dependent step.
    pub to: usize,
    /// The shared array the dependence flows through.
    pub array: String,
    /// The dependence kind.
    pub kind: DepKind,
}

/// The condensed dependence DAG of a program, with its wave schedule.
#[derive(Debug, Clone)]
pub struct ProgramDag {
    /// Number of program steps.
    pub steps: usize,
    /// All dependence edges, `(from, to)` lexicographic order.
    pub edges: Vec<DepEdge>,
    /// Tarjan strongly connected components, topological order, each
    /// component's steps in program order. Always singletons for graphs
    /// built by [`build_dag`] (edges point forward in program order).
    pub sccs: Vec<Vec<usize>>,
    /// The wave schedule: each wave is a set of pairwise-independent
    /// steps (program order within the wave) that may execute
    /// concurrently; waves execute in order.
    pub waves: Vec<Vec<usize>>,
    /// The [`program_signature`] — the DAG cache key, combined with the
    /// decomposition fingerprint of the touched arrays.
    pub signature: u64,
}

impl ProgramDag {
    /// The widest wave — the peak number of concurrently runnable steps.
    pub fn width(&self) -> usize {
        self.waves.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Direct DAG predecessors of `step` (deduplicated, ascending).
    pub fn preds_of(&self, step: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .edges
            .iter()
            .filter(|e| e.to == step)
            .map(|e| e.from)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// One-line human summary (`steps=5 edges=3 waves=3 width=2`).
    pub fn summary(&self) -> String {
        format!(
            "steps={} edges={} waves={} width={}",
            self.steps,
            self.edges.len(),
            self.waves.len(),
            self.width()
        )
    }
}

/// The structural hash of the program: its steps in order, each clause
/// as [`crate::clause_signature`] sees it and each redistribution by its
/// array and target. Two programs with equal signatures produce the same
/// dependence analysis for the same decomposition fingerprint.
pub fn program_signature(steps: &[ProgramStep]) -> u64 {
    key_of(steps)
}

/// An array-element footprint: the set of global indices a step reads
/// or writes in one array.
#[derive(Debug, Clone)]
enum Footprint {
    /// Exact lattice: the image of a constant or affine map.
    Exact(Nest),
    /// Exact enumerated set, sorted and deduplicated.
    Set(Vec<i64>),
    /// Conservative interval hull `[lo, hi]` — used when no exact form
    /// is affordable. May only add spurious dependences.
    Hull(i64, i64),
}

impl Footprint {
    /// `[min, max]` of the footprint, `None` when empty.
    fn hull(&self) -> Option<(i64, i64)> {
        match self {
            Footprint::Exact(n) => (!n.is_empty()).then(|| n.hull()),
            Footprint::Set(v) => Some((*v.first()?, *v.last()?)),
            Footprint::Hull(lo, hi) => (lo <= hi).then_some((*lo, *hi)),
        }
    }
}

/// Whether two sorted sets intersect (linear merge).
fn sets_intersect(a: &[i64], b: &[i64]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// Whether two footprints share at least one element. Exact except
/// against a hull, where an overlap of the hulls counts.
fn footprints_intersect(a: &Footprint, b: &Footprint) -> bool {
    // cheap hull rejection first: disjoint hulls never intersect
    let (Some((alo, ahi)), Some((blo, bhi))) = (a.hull(), b.hull()) else {
        return false;
    };
    if ahi < blo || bhi < alo {
        return false;
    }
    let meets = |x: &Nest, y: &Nest| {
        let mut met = false;
        x.meet(y, |_, _, _| met = true);
        met
    };
    match (a, b) {
        (Footprint::Exact(x), Footprint::Exact(y)) => meets(x, y),
        (Footprint::Exact(x), Footprint::Set(t)) | (Footprint::Set(t), Footprint::Exact(x)) => {
            t.iter().any(|&v| meets(x, &Nest::run(v, 0, 1)))
        }
        (Footprint::Set(s), Footprint::Set(t)) => sets_intersect(s, t),
        // a hull overlap was already established above
        _ => true,
    }
}

/// The image of access function `f` over the iteration range
/// `[lo, hi]`, as a footprint. `Const` and `Affine` have exact one-level
/// nests as images; everything else is enumerated when affordable and
/// otherwise approximated by the array's extent hull.
fn image(f: &Fn1, lo: i64, hi: i64, extent: Option<(i64, i64)>) -> Footprint {
    if lo > hi {
        return Footprint::Exact(Nest::run(0, 0, 0));
    }
    let count = hi - lo + 1;
    match *f {
        Fn1::Const(c) | Fn1::Affine { a: 0, c } => Footprint::Exact(Nest::run(c, 0, 1)),
        Fn1::Affine { a, c } => Footprint::Exact(Nest::run(a * lo + c, a, count)),
        _ if count <= ENUM_MAX => {
            let mut v: Vec<i64> = (lo..=hi).map(|i| f.eval(i)).collect();
            v.sort_unstable();
            v.dedup();
            Footprint::Set(v)
        }
        _ => match extent {
            Some((elo, ehi)) => Footprint::Hull(elo, ehi),
            None => Footprint::Hull(i64::MIN, i64::MAX),
        },
    }
}

/// Per-step read/write footprints in array-element space.
struct StepFoot {
    reads: Vec<(String, Footprint)>,
    writes: Vec<(String, Footprint)>,
}

fn step_footprints(step: &ProgramStep, decomps: &DecompMap) -> StepFoot {
    let extent_of = |name: &str| -> Option<(i64, i64)> {
        decomps.get(name).map(|d| {
            let b = d.extent();
            (b.lo().scalar(), b.hi().scalar())
        })
    };
    match step {
        ProgramStep::Clause(c) => {
            if c.iter.dims() != 1 {
                // n-D clauses are outside the 1-D footprint calculus:
                // conservatively alias the whole of every touched array
                let all = |name: &str| match extent_of(name) {
                    Some((lo, hi)) => Footprint::Hull(lo, hi),
                    None => Footprint::Hull(i64::MIN, i64::MAX),
                };
                return StepFoot {
                    reads: c
                        .read_refs()
                        .iter()
                        .map(|r| (r.array.clone(), all(&r.array)))
                        .collect(),
                    writes: vec![(c.lhs.array.clone(), all(&c.lhs.array))],
                };
            }
            let lo = c.iter.bounds.lo().scalar();
            let hi = c.iter.bounds.hi().scalar();
            // a non-1-D index map (no as_fn1 form) gets the extent hull
            let foot = |r: &vcal_core::ArrayRef| match r.map.as_fn1() {
                Some(f) => image(f, lo, hi, extent_of(&r.array)),
                None => match extent_of(&r.array) {
                    Some((elo, ehi)) => Footprint::Hull(elo, ehi),
                    None => Footprint::Hull(i64::MIN, i64::MAX),
                },
            };
            let reads = c
                .read_refs()
                .into_iter()
                .map(|r| (r.array.clone(), foot(r)))
                .collect();
            let writes = vec![(c.lhs.array.clone(), foot(&c.lhs))];
            StepFoot { reads, writes }
        }
        ProgramStep::Redistribute { array, to } => {
            // a layout change reads and rewrites every element: it
            // serializes against everything touching this array, and
            // dependence through the array flows transitively across it
            let b = to.extent();
            let fp = Footprint::Hull(b.lo().scalar(), b.hi().scalar());
            StepFoot {
                reads: vec![(array.clone(), fp.clone())],
                writes: vec![(array.clone(), fp)],
            }
        }
    }
}

/// Iterative Tarjan SCC over `n` nodes with adjacency `adj`.
/// Components are returned in topological order of the condensation
/// (sources first), each component's nodes ascending.
pub fn tarjan_sccs(n: usize, adj: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut next_index = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    // explicit DFS frames: (node, next child ordinal)
    let mut frames: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if st[root].visited {
            continue;
        }
        frames.push((root, 0));
        while let Some(&mut (v, ref mut child)) = frames.last_mut() {
            if *child == 0 {
                st[v].visited = true;
                st[v].index = next_index;
                st[v].lowlink = next_index;
                next_index += 1;
                st[v].on_stack = true;
                stack.push(v);
            }
            if let Some(&w) = adj[v].get(*child) {
                *child += 1;
                if !st[w].visited {
                    frames.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    let low = st[v].lowlink;
                    st[parent].lowlink = st[parent].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        st[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    // Tarjan emits components in reverse topological order
    comps.reverse();
    comps
}

/// Build the dependence DAG and wave schedule of `steps`.
///
/// Dependence between steps `i < j` exists when some shared array has a
/// non-empty intersection of `i`'s writes with `j`'s reads (RAW), `i`'s
/// reads with `j`'s writes (WAR), or both writes (WAW). Intersections
/// are lattice meets of affine images, bounded enumeration otherwise,
/// and a conservative "dependent" verdict when neither is affordable.
/// Redistributions alias their array's full extent.
pub fn build_dag(steps: &[ProgramStep], decomps: &DecompMap) -> ProgramDag {
    let n = steps.len();
    let feet: Vec<StepFoot> = steps.iter().map(|s| step_footprints(s, decomps)).collect();
    let mut edges: Vec<DepEdge> = Vec::new();
    for j in 1..n {
        for i in 0..j {
            let mut kinds: Vec<(String, DepKind)> = Vec::new();
            for (wa, wf) in &feet[i].writes {
                for (ra, rf) in &feet[j].reads {
                    if wa == ra && footprints_intersect(wf, rf) {
                        kinds.push((wa.clone(), DepKind::Raw));
                    }
                }
                for (wa2, wf2) in &feet[j].writes {
                    if wa == wa2 && footprints_intersect(wf, wf2) {
                        kinds.push((wa.clone(), DepKind::Waw));
                    }
                }
            }
            for (ra, rf) in &feet[i].reads {
                for (wa, wf) in &feet[j].writes {
                    if ra == wa && footprints_intersect(rf, wf) {
                        kinds.push((ra.clone(), DepKind::War));
                    }
                }
            }
            kinds.sort_by(|a, b| (a.0.as_str(), a.1.name()).cmp(&(b.0.as_str(), b.1.name())));
            kinds.dedup();
            for (array, kind) in kinds {
                edges.push(DepEdge {
                    from: i,
                    to: j,
                    array,
                    kind,
                });
            }
        }
    }

    // adjacency (deduplicated pairs) for condensation + leveling
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &edges {
        if !adj[e.from].contains(&e.to) {
            adj[e.from].push(e.to);
        }
    }
    for a in &mut adj {
        a.sort_unstable();
    }
    let sccs = tarjan_sccs(n, &adj);

    // condensation levels: level(C) = 1 + max(level(pred components))
    let mut comp_of = vec![0usize; n];
    for (c, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v] = c;
        }
    }
    let mut level = vec![0usize; sccs.len()];
    // sccs are already topologically ordered, so one forward pass fixes
    // every level
    for (c, comp) in sccs.iter().enumerate() {
        for &v in comp {
            for &w in &adj[v] {
                let cw = comp_of[w];
                if cw != c {
                    level[cw] = level[cw].max(level[c] + 1);
                }
            }
        }
    }

    // waves: components grouped by level. Singleton components at one
    // level are mutually independent (an edge would force a level gap)
    // and merge into one concurrent wave; a multi-step component (a
    // cycle — impossible from program-order edges, but handled) is
    // serialized into consecutive single-step waves in program order.
    let max_level = level.iter().copied().max().unwrap_or(0);
    let mut waves: Vec<Vec<usize>> = Vec::new();
    for l in 0..=max_level {
        let mut merged: Vec<usize> = Vec::new();
        let mut serial: Vec<Vec<usize>> = Vec::new();
        for (c, comp) in sccs.iter().enumerate() {
            if level[c] != l {
                continue;
            }
            if comp.len() == 1 {
                merged.push(comp[0]);
            } else {
                serial.push(comp.clone());
            }
        }
        merged.sort_unstable();
        if !merged.is_empty() {
            waves.push(merged);
        }
        serial.sort_by_key(|comp| comp.first().copied().unwrap_or(0));
        for comp in serial {
            for v in comp {
                waves.push(vec![v]);
            }
        }
    }

    ProgramDag {
        steps: n,
        edges,
        sccs,
        waves,
        signature: program_signature(steps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vcal_core::func::Fn1;
    use vcal_core::{ArrayRef, Bounds, Expr, Guard, IndexSet, Ordering};

    fn clause(lhs: &str, f: Fn1, reads: &[(&str, Fn1)], lo: i64, hi: i64) -> ProgramStep {
        let mut rhs = Expr::Lit(0.0);
        for (a, g) in reads {
            rhs = Expr::add(rhs, Expr::Ref(ArrayRef::d1(*a, g.clone())));
        }
        ProgramStep::Clause(Clause {
            iter: IndexSet::range(lo, hi),
            ordering: Ordering::Par,
            guard: Guard::Always,
            lhs: ArrayRef::d1(lhs, f),
            rhs,
        })
    }

    fn decomps(names: &[&str], n: i64) -> DecompMap {
        let mut dm = DecompMap::new();
        for name in names {
            dm.insert(
                (*name).to_string(),
                Decomp1::block(4, Bounds::range(0, n - 1)),
            );
        }
        dm
    }

    #[test]
    fn independent_clauses_share_a_wave() {
        let steps = vec![
            clause("A", Fn1::identity(), &[("B", Fn1::identity())], 0, 31),
            clause("C", Fn1::identity(), &[("D", Fn1::identity())], 0, 31),
        ];
        let dag = build_dag(&steps, &decomps(&["A", "B", "C", "D"], 32));
        assert!(dag.edges.is_empty());
        assert_eq!(dag.waves, vec![vec![0, 1]]);
        assert_eq!(dag.width(), 2);
    }

    #[test]
    fn raw_dependence_orders_waves() {
        let steps = vec![
            clause("A", Fn1::identity(), &[("B", Fn1::identity())], 0, 31),
            clause("C", Fn1::identity(), &[("A", Fn1::identity())], 0, 31),
        ];
        let dag = build_dag(&steps, &decomps(&["A", "B", "C"], 32));
        assert_eq!(dag.edges.len(), 1);
        assert_eq!(dag.edges[0].kind, DepKind::Raw);
        assert_eq!(dag.waves, vec![vec![0], vec![1]]);
        assert_eq!(dag.preds_of(1), vec![0]);
    }

    #[test]
    fn war_and_waw_detected() {
        let steps = vec![
            clause("A", Fn1::identity(), &[("B", Fn1::identity())], 0, 31),
            clause("B", Fn1::identity(), &[], 0, 31), // WAR vs step 0's read
            clause("A", Fn1::identity(), &[], 0, 31), // WAW vs step 0's write
        ];
        let dag = build_dag(&steps, &decomps(&["A", "B"], 32));
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::War));
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 2 && e.kind == DepKind::Waw));
    }

    #[test]
    fn disjoint_strided_footprints_are_independent() {
        // evens write vs odds write on the same array: no intersection
        let steps = vec![
            clause("A", Fn1::affine(2, 0), &[("B", Fn1::identity())], 0, 15),
            clause("A", Fn1::affine(2, 1), &[("B", Fn1::identity())], 0, 15),
        ];
        let dag = build_dag(&steps, &decomps(&["A", "B"], 32));
        assert!(dag.edges.is_empty(), "edges: {:?}", dag.edges);
        assert_eq!(dag.waves, vec![vec![0, 1]]);
    }

    #[test]
    fn redistribute_serializes_array_aliases_transitively() {
        let steps = vec![
            clause("A", Fn1::identity(), &[("B", Fn1::identity())], 0, 31),
            ProgramStep::Redistribute {
                array: "A".into(),
                to: Decomp1::scatter(4, Bounds::range(0, 31)),
            },
            clause("C", Fn1::identity(), &[("A", Fn1::identity())], 0, 31),
            // untouched by the redistribution: floats to wave 0
            clause("D", Fn1::identity(), &[("B", Fn1::identity())], 0, 31),
        ];
        let dag = build_dag(&steps, &decomps(&["A", "B", "C", "D"], 32));
        // 0 → 1 (A rewritten), 1 → 2 (A read after relayout); 2 never
        // depends on 0 directly by element algebra here, but the chain
        // through 1 orders them anyway
        assert!(dag.edges.iter().any(|e| e.from == 0 && e.to == 1));
        assert!(dag.edges.iter().any(|e| e.from == 1 && e.to == 2));
        assert_eq!(dag.waves[0], vec![0, 3]);
        assert_eq!(dag.waves[1], vec![1]);
        assert_eq!(dag.waves[2], vec![2]);
    }

    #[test]
    fn tarjan_condenses_synthetic_cycle() {
        // 0 → 1 → 2 → 0 (cycle), 2 → 3
        let adj = vec![vec![1], vec![2], vec![0, 3], vec![]];
        let comps = tarjan_sccs(4, &adj);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3]]);
    }

    #[test]
    fn tarjan_singletons_in_topological_order() {
        let adj = vec![vec![2], vec![2], vec![3], vec![]];
        let comps = tarjan_sccs(4, &adj);
        assert_eq!(comps.len(), 4);
        let pos = |v: usize| comps.iter().position(|c| c.contains(&v)).unwrap();
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(2));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn signature_stable_and_distinguishes_programs() {
        let a = vec![clause("A", Fn1::identity(), &[], 0, 7)];
        let b = vec![clause("B", Fn1::identity(), &[], 0, 7)];
        assert_eq!(program_signature(&a), program_signature(&a.clone()));
        assert_ne!(program_signature(&a), program_signature(&b));
    }

    #[test]
    fn guard_reads_create_dependences() {
        // step 1 guarded on A, which step 0 writes
        let mut g = clause("B", Fn1::identity(), &[("C", Fn1::identity())], 0, 31);
        if let ProgramStep::Clause(c) = &mut g {
            c.guard = Guard::Cmp {
                lhs: ArrayRef::d1("A", Fn1::identity()),
                op: vcal_core::CmpOp::Gt,
                rhs: 0.0,
            };
        }
        let steps = vec![clause("A", Fn1::identity(), &[], 0, 31), g];
        let dag = build_dag(&steps, &decomps(&["A", "B", "C"], 32));
        assert!(dag
            .edges
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Raw));
    }
}
