//! Lazy random walks and the truncation operator of Spielman–Teng.
//!
//! The walk matrix is `M = (A·D⁻¹ + I)/2`: with probability 1/2 stay put,
//! otherwise move along a uniformly random incident edge. **Self loops are
//! incident edges** — a walk that picks a loop stays where it is, which is
//! exactly why the decomposition's loop-compensation keeps walk behaviour
//! consistent after edge removals.
//!
//! [`WalkDistribution`] stores the probability vector `p` together with
//! the normalized masses `ρ(v) = p(v)/deg(v)` used everywhere in Nibble,
//! and supports the truncation `[p]_ε(v) = p(v)·1[p(v) ≥ 2ε·deg(v)]`.
//!
//! Representation: a dense mass vector plus a sorted support list, with a
//! double-buffered scratch vector for stepping. A step touches only the
//! support and its neighborhood (`O(Σ_{v ∈ supp} deg(v))`), and every
//! slot accumulates its contributions in ascending source order, so sums
//! are bit-for-bit deterministic. The general step pushes each slot on
//! its first contribution and sorts the pushed list into the next
//! support. Once a walk covers the whole graph with non-zero mass
//! everywhere, the next support is known to be `0..n` again, and a dense
//! step makes the same additions without the push tests or the sort.
//! The sweep order π̃_t sorts integer keys `(!ρ.to_bits(), v)` (a radix
//! sort on large supports, a comparison sort on small ones); for
//! non-negative finite masses that is exactly the "ρ descending, id
//! ascending" comparator order. Both kernels are pinned against their
//! reference forms in the tests below.

use crate::{Graph, VertexId};

/// A sparse probability distribution over vertices, tracked together with
/// the graph degrees so `ρ(v) = p(v)/deg(v)` is cheap.
///
/// # Example
///
/// ```
/// use graph::{Graph, walks::WalkDistribution};
///
/// let g = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
/// let mut p = WalkDistribution::dirac(&g, 1);
/// p.step(&g);
/// // After one lazy step: half stays at 1, a quarter at each neighbor.
/// assert!((p.mass(1) - 0.5).abs() < 1e-12);
/// assert!((p.mass(0) - 0.25).abs() < 1e-12);
/// assert!((p.total_mass() - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone)]
pub struct WalkDistribution {
    /// Dense mass vector; slots outside [`WalkDistribution::support`] are
    /// zero. Grown lazily to the graph size on first use.
    dense: Vec<f64>,
    /// Sorted list of the slots that may hold non-zero mass.
    support: Vec<VertexId>,
    /// All-zero scratch buffer for the next step (double buffering).
    next: Vec<f64>,
    /// Scratch slot list for the next step's support.
    touched: Vec<VertexId>,
}

impl WalkDistribution {
    /// The Dirac distribution `χ_v` (all mass on `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v >= g.n()`.
    pub fn dirac(g: &Graph, v: VertexId) -> Self {
        assert!((v as usize) < g.n(), "vertex {v} out of range");
        let mut dense = vec![0.0; g.n()];
        dense[v as usize] = 1.0;
        WalkDistribution {
            dense,
            support: vec![v],
            next: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// The degree distribution `ψ_S` restricted to a slice of vertices:
    /// `p(v) = deg(v)/Vol(S)` for `v ∈ S`.
    ///
    /// # Panics
    ///
    /// Panics if `vs` is empty or has zero volume.
    pub fn degree_distribution(g: &Graph, vs: &[VertexId]) -> Self {
        let vol: usize = vs.iter().map(|&v| g.degree(v)).sum();
        assert!(vol > 0, "degree distribution over zero-volume set");
        let mut dense = vec![0.0; g.n()];
        let mut support: Vec<VertexId> = vs.to_vec();
        support.sort_unstable();
        support.dedup();
        for &v in &support {
            dense[v as usize] = g.degree(v) as f64 / vol as f64;
        }
        WalkDistribution {
            dense,
            support,
            next: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// An empty (all-zero) distribution.
    pub fn zero() -> Self {
        WalkDistribution {
            dense: Vec::new(),
            support: Vec::new(),
            next: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Mass at `v` (`p(v)`).
    pub fn mass(&self, v: VertexId) -> f64 {
        self.dense.get(v as usize).copied().unwrap_or(0.0)
    }

    /// Normalized mass `ρ(v) = p(v)/deg(v)`.
    pub fn rho(&self, g: &Graph, v: VertexId) -> f64 {
        let d = g.degree(v);
        if d == 0 {
            0.0
        } else {
            self.mass(v) / d as f64
        }
    }

    /// Total mass `‖p‖₁` (≤ 1 once truncation has happened).
    pub fn total_mass(&self) -> f64 {
        self.support.iter().map(|&v| self.dense[v as usize]).sum()
    }

    /// Number of vertices currently holding non-zero mass (the *support*).
    pub fn support_size(&self) -> usize {
        self.support.len()
    }

    /// Iterator over `(vertex, mass)` pairs of the support, unordered.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, f64)> + '_ {
        self.support.iter().map(|&v| (v, self.dense[v as usize]))
    }

    /// The support sorted by decreasing `ρ(v) = p(v)/deg(v)`, ties broken by
    /// vertex id — the permutation `π̃_t` of the paper.
    pub fn support_by_rho(&self, g: &Graph) -> Vec<VertexId> {
        let mut keyed = Vec::new();
        let mut out = Vec::new();
        self.support_by_rho_into(g, &mut keyed, &mut out);
        out
    }

    /// [`WalkDistribution::support_by_rho`] into caller-provided buffers
    /// (`keyed` is the sort scratch): the allocation-free form the sweep
    /// inner loop uses every step, and the single implementation of the
    /// π̃_t ordering.
    ///
    /// Each vertex is keyed by the integer pair `(!ρ.to_bits(), v)`. For
    /// non-negative finite `f64`, numeric order is `to_bits()` order, so
    /// ascending pairs are "ρ descending, id ascending". That order is
    /// strict and total (ids are unique), so every correct sort yields
    /// the one permutation the `partial_cmp` comparator defines, at
    /// integer-compare cost. Supports of at least 1,024 vertices use a
    /// stable LSD radix sort of the keys; shorter ones a comparison sort,
    /// which is faster below that size.
    ///
    /// # Panics
    ///
    /// Panics if some `ρ(v)` is negative (including `-0.0`), infinite or
    /// NaN: the bit order would then disagree with the numeric order.
    pub fn support_by_rho_into(
        &self,
        g: &Graph,
        keyed: &mut Vec<(u64, VertexId)>,
        out: &mut Vec<VertexId>,
    ) {
        keyed.clear();
        out.clear();
        keyed.extend(self.support.iter().map(|&v| {
            let bits = self.rho(g, v).to_bits();
            // Sign bit clear and exponent not all-ones: `+0.0 ≤ ρ < ∞`.
            assert!(
                bits < f64::INFINITY.to_bits(),
                "ρ({v}) = {} is not a non-negative finite mass",
                f64::from_bits(bits)
            );
            (!bits, v)
        }));
        let sorted = if keyed.len() < RADIX_MIN_LEN {
            keyed.sort_unstable();
            &keyed[..]
        } else {
            radix_sort_keys(keyed)
        };
        out.extend(sorted.iter().map(|&(_, v)| v));
    }

    /// The `partial_cmp` comparator sort that
    /// [`WalkDistribution::support_by_rho_into`] replaced, kept as its
    /// oracle.
    #[cfg(test)]
    fn support_by_rho_oracle(&self, g: &Graph) -> Vec<VertexId> {
        let mut keyed: Vec<(f64, VertexId)> =
            self.support.iter().map(|&v| (self.rho(g, v), v)).collect();
        keyed.sort_by(|&(ra, a), &(rb, b)| {
            rb.partial_cmp(&ra)
                .expect("masses are finite")
                .then(a.cmp(&b))
        });
        keyed.into_iter().map(|(_, v)| v).collect()
    }

    /// One lazy walk step: `p ← M·p` with `M = (A·D⁻¹ + I)/2`.
    ///
    /// Each self loop at `u` routes `p(u)/(2·deg(u))` back to `u`.
    /// Work is `O(Σ_{v ∈ supp} deg(v))` — the walk never touches vertices
    /// outside the frontier, matching the distributed implementation where a
    /// step is one CONGEST round.
    pub fn step(&mut self, g: &Graph) {
        let n = g.n();
        self.grow_to(n);
        if self.is_full_support(n) {
            self.step_full_support(g);
        } else {
            self.step_sparse(g);
        }
    }

    /// Whether the support is all of `0..n` with non-zero mass in every
    /// slot: the precondition of [`Self::step_full_support`]. The support
    /// is sorted and duplicate-free, so `len == n` means it is `0..n`.
    fn is_full_support(&self, n: usize) -> bool {
        self.support.len() == n && self.support.iter().all(|&v| self.dense[v as usize] != 0.0)
    }

    /// Grows the mass and scratch vectors to `n` slots.
    fn grow_to(&mut self, n: usize) {
        if self.dense.len() < n {
            self.dense.resize(n, 0.0);
        }
        if self.next.len() < n {
            self.next.resize(n, 0.0);
        }
    }

    /// [`WalkDistribution::step`] for any support: pushes every slot that
    /// receives a contribution, then sorts and dedups the pushed list into
    /// the next support.
    fn step_sparse(&mut self, g: &Graph) {
        self.touched.clear();
        // Sources in ascending order, so each target slot accumulates its
        // contributions in ascending source order — deterministic sums.
        for idx in 0..self.support.len() {
            let u = self.support[idx];
            let p = self.dense[u as usize];
            if p == 0.0 {
                continue;
            }
            let deg = g.degree(u) as f64;
            if deg == 0.0 {
                // Isolated vertex keeps its mass.
                if self.next[u as usize] == 0.0 {
                    self.touched.push(u);
                }
                self.next[u as usize] += p;
                continue;
            }
            let stay = p / 2.0 + p / 2.0 * (g.self_loops(u) as f64 / deg);
            if self.next[u as usize] == 0.0 {
                self.touched.push(u);
            }
            self.next[u as usize] += stay;
            let share = p / (2.0 * deg);
            for &w in g.neighbors(u) {
                if self.next[w as usize] == 0.0 {
                    self.touched.push(w);
                }
                self.next[w as usize] += share;
            }
        }
        // Swap buffers: zero the old support slots first so the scratch
        // buffer comes back all-zero for the next step.
        for &v in &self.support {
            self.dense[v as usize] = 0.0;
        }
        std::mem::swap(&mut self.dense, &mut self.next);
        // Contributions are positive, so a slot is pushed exactly once —
        // unless an addition underflowed to zero; sort + dedup restores
        // the sorted-support invariant either way.
        self.touched.sort_unstable();
        self.touched.dedup();
        std::mem::swap(&mut self.support, &mut self.touched);
    }

    /// [`WalkDistribution::step`] when the support is all of `0..n` and
    /// every slot holds non-zero mass. Every source is then visited, and
    /// each one pushes at least its own slot (the stay share, or the
    /// whole mass of an isolated vertex), so [`Self::step_sparse`] would
    /// produce the support `0..n` again: the push tests and the
    /// sort + dedup are skipped and the support is kept as it is. The
    /// additions are the same ones in the same ascending-source order,
    /// so every mass is bit-identical to the sparse step's.
    fn step_full_support(&mut self, g: &Graph) {
        let n = self.support.len();
        for u in 0..n as VertexId {
            let p = self.dense[u as usize];
            let deg = g.degree(u) as f64;
            if deg == 0.0 {
                self.next[u as usize] += p;
                continue;
            }
            let stay = p / 2.0 + p / 2.0 * (g.self_loops(u) as f64 / deg);
            self.next[u as usize] += stay;
            let share = p / (2.0 * deg);
            for &w in g.neighbors(u) {
                self.next[w as usize] += share;
            }
        }
        self.dense[..n].fill(0.0);
        std::mem::swap(&mut self.dense, &mut self.next);
    }

    /// The truncation operator `[p]_ε`: zero out every `v` with
    /// `p(v) < 2·ε·deg(v)`. Returns the amount of mass dropped.
    pub fn truncate(&mut self, g: &Graph, eps: f64) -> f64 {
        let mut dropped = 0.0;
        let mut support = std::mem::take(&mut self.support);
        support.retain(|&v| {
            let p = self.dense[v as usize];
            if p >= 2.0 * eps * g.degree(v) as f64 {
                true
            } else {
                dropped += p;
                self.dense[v as usize] = 0.0;
                false
            }
        });
        self.support = support;
        dropped
    }

    /// Convenience: `t` steps of step-then-truncate, the sequence
    /// `p̃_t = [M p̃_{t−1}]_ε` from the paper, returning the distribution at
    /// every time `0..=t`.
    pub fn truncated_walk(g: &Graph, start: VertexId, eps: f64, t: usize) -> Vec<Self> {
        let mut out = Vec::with_capacity(t + 1);
        let mut p = WalkDistribution::dirac(g, start);
        // The paper applies truncation to every p̃_t including comparing
        // against the initial Dirac (which always survives truncation for
        // sensible ε since p(v) = 1 ≥ 2ε·deg(v)).
        out.push(p.clone());
        for _ in 0..t {
            p.step(g);
            p.truncate(g, eps);
            out.push(p.clone());
        }
        out
    }

    /// The stationary mass of `v`: `π(v) = deg(v)/Vol(V)`.
    pub fn stationary(g: &Graph, v: VertexId) -> f64 {
        g.degree(v) as f64 / g.total_volume() as f64
    }

    /// Total-variation distance from this distribution to stationarity:
    /// `½·Σ_v |p(v) − π(v)|`.
    pub fn tv_from_stationary(&self, g: &Graph) -> f64 {
        let mut acc = 0.0;
        let vol = g.total_volume() as f64;
        for v in 0..g.n() as VertexId {
            let pi = g.degree(v) as f64 / vol;
            acc += (self.mass(v) - pi).abs();
        }
        acc / 2.0
    }
}

/// The support length from which [`WalkDistribution::support_by_rho_into`]
/// radix-sorts. Measured on a 2-vCPU VM: on walk keys near the stationary
/// distribution, where most key digits are shared, the radix sort was
/// 1.7× faster at 512 vertices, 2.2× at 1,024 and 2.6× at 2,083; on the
/// supports of truncated walks still spreading (10–517 vertices) the
/// comparison sort was 1.5–40× faster; on 1,024 random keys the two
/// were even.
const RADIX_MIN_LEN: usize = 1024;

/// Sorts `(key, v)` pairs, given in ascending `v` order, stably by
/// `key`: equal keys keep ascending `v`, so the result is in ascending
/// `(key, v)` order. An LSD radix sort over 8-bit digits that skips a
/// digit every key shares (near the stationary distribution, the high
/// digits of `ρ` are the same for every vertex). Uses `keyed` as both
/// buffers and returns the sorted half.
fn radix_sort_keys(keyed: &mut Vec<(u64, VertexId)>) -> &[(u64, VertexId)] {
    let len = keyed.len();
    // All eight digit histograms from one pass over the keys.
    let mut hist = [[0usize; 256]; 8];
    for &(key, _) in keyed.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[(key >> (8 * d)) as u8 as usize] += 1;
        }
    }
    keyed.resize(2 * len, (0, 0));
    let (mut src, mut dst) = keyed.split_at_mut(len);
    for (d, h) in hist.iter_mut().enumerate() {
        if h.contains(&len) {
            // Every key has the same digit here: the pass is the identity.
            continue;
        }
        let mut start = 0;
        for slot in h.iter_mut() {
            (*slot, start) = (start, start + *slot);
        }
        for &(key, v) in src.iter() {
            let digit = (key >> (8 * d)) as u8 as usize;
            dst[h[digit]] = (key, v);
            h[digit] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

impl PartialEq for WalkDistribution {
    /// Distributions are equal when they give every vertex the same mass —
    /// buffer capacities and explicit zeros are invisible.
    fn eq(&self, other: &Self) -> bool {
        let nonzero = |d: &WalkDistribution| {
            d.support
                .iter()
                .map(|&v| (v, d.dense[v as usize]))
                .filter(|&(_, m)| m != 0.0)
                .collect::<Vec<_>>()
        };
        nonzero(self) == nonzero(other)
    }
}

impl std::fmt::Debug for WalkDistribution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WalkDistribution(|supp| = {}; ", self.support.len())?;
        f.debug_map().entries(self.iter().take(8)).finish()?;
        if self.support.len() > 8 {
            write!(f, "…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn dirac_mass() {
        let g = gen::cycle(5).unwrap();
        let p = WalkDistribution::dirac(&g, 2);
        assert_eq!(p.mass(2), 1.0);
        assert_eq!(p.mass(0), 0.0);
        assert_eq!(p.support_size(), 1);
    }

    #[test]
    fn step_conserves_mass() {
        let g = gen::gnp(40, 0.2, 3).unwrap();
        let mut p = WalkDistribution::dirac(&g, 0);
        for _ in 0..20 {
            p.step(&g);
            assert!((p.total_mass() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn self_loops_keep_mass_in_place() {
        // Vertex 0 has 3 loops and one edge: stay prob = 1/2 + 1/2·(3/4) = 7/8.
        let g = Graph::from_edges(2, [(0, 1), (0, 0), (0, 0), (0, 0)]).unwrap();
        let mut p = WalkDistribution::dirac(&g, 0);
        p.step(&g);
        assert!((p.mass(0) - 7.0 / 8.0).abs() < 1e-12);
        assert!((p.mass(1) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_vertex_traps_mass() {
        let g = Graph::from_edges(2, []).unwrap();
        let mut p = WalkDistribution::dirac(&g, 0);
        p.step(&g);
        assert_eq!(p.mass(0), 1.0);
    }

    #[test]
    fn truncation_drops_small_mass() {
        let g = gen::path(3).unwrap();
        let mut p = WalkDistribution::dirac(&g, 0);
        p.step(&g); // mass: 0 -> 1/2, 1 -> 1/2
                    // Thresholds 2·ε·deg: v0 (deg 1) -> 0.4 keeps its 0.5;
                    // v1 (deg 2) -> 0.8 drops its 0.5.
        let dropped = p.truncate(&g, 0.2);
        assert!((dropped - 0.5).abs() < 1e-12);
        assert_eq!(p.mass(1), 0.0);
        assert!((p.mass(0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_is_pointwise_below_exact() {
        let g = gen::gnp(30, 0.3, 7).unwrap();
        let eps = 1e-3;
        let exact: Vec<WalkDistribution> = {
            let mut out = Vec::new();
            let mut p = WalkDistribution::dirac(&g, 0);
            out.push(p.clone());
            for _ in 0..10 {
                p.step(&g);
                out.push(p.clone());
            }
            out
        };
        let truncated = WalkDistribution::truncated_walk(&g, 0, eps, 10);
        for (pt, qt) in exact.iter().zip(&truncated) {
            for v in 0..g.n() as VertexId {
                assert!(
                    qt.mass(v) <= pt.mass(v) + 1e-12,
                    "truncated exceeded exact at {v}"
                );
            }
        }
    }

    #[test]
    fn stationary_is_fixed_point() {
        let g = gen::gnp(25, 0.4, 5).unwrap();
        let vs: Vec<VertexId> = (0..25).collect();
        let mut p = WalkDistribution::degree_distribution(&g, &vs);
        let before: Vec<f64> = (0..25).map(|v| p.mass(v)).collect();
        p.step(&g);
        for v in 0..25u32 {
            assert!((p.mass(v) - before[v as usize]).abs() < 1e-12);
        }
    }

    #[test]
    fn walk_converges_to_stationary_on_expander() {
        let g = gen::random_regular(64, 6, 2).unwrap();
        let mut p = WalkDistribution::dirac(&g, 0);
        for _ in 0..200 {
            p.step(&g);
        }
        assert!(p.tv_from_stationary(&g) < 1e-6);
    }

    #[test]
    fn support_by_rho_orders_descending() {
        let g = gen::path(5).unwrap();
        let mut p = WalkDistribution::dirac(&g, 2);
        p.step(&g);
        let order = p.support_by_rho(&g);
        let rhos: Vec<f64> = order.iter().map(|&v| p.rho(&g, v)).collect();
        for w in rhos.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(order[0], 2);
    }

    /// A random multigraph on `n + isolated` vertices: `gnp(n, 0.3)` with
    /// a third of its edges doubled (parallel edges), self loops at
    /// vertex 0 and at a seed-chosen vertex, and `isolated` trailing
    /// vertices with no edge at all.
    fn multigraph(n: usize, isolated: usize, seed: u64) -> Graph {
        let base = gen::gnp(n, 0.3, seed).unwrap();
        let mut edges: Vec<(VertexId, VertexId)> = base.edges().collect();
        let doubled: Vec<_> = edges.iter().take(edges.len() / 3).copied().collect();
        edges.extend(doubled);
        let looped = (seed % n as u64) as VertexId;
        edges.extend([(0, 0), (looped, looped), (looped, looped)]);
        Graph::from_edges(n + isolated, edges).unwrap()
    }

    /// A distribution with exactly the given masses, support in id order.
    fn with_masses(g: &Graph, masses: &[(VertexId, f64)]) -> WalkDistribution {
        let mut p = WalkDistribution::zero();
        p.grow_to(g.n());
        for &(v, m) in masses {
            p.dense[v as usize] = m;
            p.support.push(v);
        }
        p.support.sort_unstable();
        p
    }

    /// Non-zero masses on every vertex of `g`. Every third vertex gets a
    /// mass proportional to its degree out of a few levels, so many ρ
    /// values tie exactly; the rest get a pseudo-random mass.
    fn full_masses(g: &Graph, seed: u64) -> Vec<(VertexId, f64)> {
        let mut state = seed | 1;
        (0..g.n() as VertexId)
            .map(|v| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let deg = g.degree(v).max(1) as f64;
                let m = if v % 3 == 0 {
                    deg * (1 + state % 3) as f64 / 64.0
                } else {
                    (1 + state % 1_000_000) as f64 / 1e6
                };
                (v, m)
            })
            .collect()
    }

    /// Both steps' outputs agree bit for bit: every mass slot by
    /// `to_bits`, the support list, and the all-zero scratch buffer.
    fn assert_same_step(a: &WalkDistribution, b: &WalkDistribution, n: usize) {
        assert_eq!(a.support, b.support, "supports differ");
        for v in 0..n {
            assert_eq!(
                a.dense[v].to_bits(),
                b.dense[v].to_bits(),
                "mass at {v} differs"
            );
        }
        assert!(a.next.iter().all(|&x| x == 0.0), "scratch not zeroed");
    }

    /// Steps `p` through [`WalkDistribution::step`] and a clone through
    /// the sparse path, asserting identical results; returns whether the
    /// full-support path was eligible.
    fn step_against_sparse(g: &Graph, p: &mut WalkDistribution) -> bool {
        let n = g.n();
        let mut sparse = p.clone();
        sparse.grow_to(n);
        let full = p.is_full_support(n);
        p.step(g);
        sparse.step_sparse(g);
        assert_same_step(p, &sparse, n);
        full
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn sweep_order_and_full_step_match_oracles(
            n in 2usize..40,
            isolated in 0usize..3,
            seed in proptest::any::<u64>(),
            eps_level in 0usize..3,
        ) {
            let g = multigraph(n, isolated, seed);
            // A full support of non-zero masses (with forced ρ ties):
            // stepped repeatedly it stays full, so every step takes the
            // full-support path.
            let mut p = with_masses(&g, &full_masses(&g, seed));
            for _ in 0..6 {
                assert_eq!(p.support_by_rho(&g), p.support_by_rho_oracle(&g));
                assert!(step_against_sparse(&g, &mut p), "left the full support");
            }
            // A truncated walk from a Dirac: sparse supports that may
            // grow to full and shrink again under truncation.
            let eps = [0.0, 1e-4, 1e-2][eps_level];
            let start = (seed % g.n() as u64) as VertexId;
            let mut p = WalkDistribution::dirac(&g, start);
            for _ in 0..30 {
                assert_eq!(p.support_by_rho(&g), p.support_by_rho_oracle(&g));
                step_against_sparse(&g, &mut p);
                p.truncate(&g, eps);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn radix_sort_matches_comparison_sort(
            len in 0usize..3000,
            seed in proptest::any::<u64>(),
            shape in 0usize..3,
        ) {
            // Keys with many exact ties, keys sharing their high digits
            // (a walk near stationarity), and unrestricted keys.
            let mut state = seed | 1;
            let mut pairs: Vec<(u64, VertexId)> = (0..len as VertexId)
                .map(|v| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let key = match shape {
                        0 => state % 5,
                        1 => 0xbf50_0000_0000_0000 | (state >> 28),
                        _ => state,
                    };
                    (key, v)
                })
                .collect();
            let mut expected = pairs.clone();
            expected.sort_unstable();
            assert_eq!(radix_sort_keys(&mut pairs), &expected[..]);
        }
    }

    #[test]
    fn large_support_order_matches_the_oracle() {
        // Full supports above the radix threshold, with forced ties.
        let g = gen::random_regular(1_200, 4, 3).unwrap();
        let mut p = with_masses(&g, &full_masses(&g, 9));
        for _ in 0..5 {
            assert!(p.support_size() >= RADIX_MIN_LEN);
            assert_eq!(p.support_by_rho(&g), p.support_by_rho_oracle(&g));
            assert!(step_against_sparse(&g, &mut p));
        }
        let all: Vec<VertexId> = (0..1_200).collect();
        let p = WalkDistribution::degree_distribution(&g, &all);
        assert_eq!(p.support_by_rho(&g), all);
    }

    #[test]
    fn sweep_order_breaks_forced_ties_by_id() {
        // On a regular graph the stationary start gives every vertex the
        // same ρ: the order is the id order.
        let g = gen::random_regular(64, 6, 2).unwrap();
        let all: Vec<VertexId> = (0..64).collect();
        let p = WalkDistribution::degree_distribution(&g, &all);
        assert_eq!(p.support_by_rho(&g), all);
        assert_eq!(p.support_by_rho_oracle(&g), all);
        // A Dirac start on a cycle stays mirror-symmetric: v and its
        // mirror tie at every step, and the lower id comes first.
        let g = gen::cycle(21).unwrap();
        let mut p = WalkDistribution::dirac(&g, 0);
        for _ in 0..25 {
            p.step(&g);
            let order = p.support_by_rho(&g);
            assert_eq!(order, p.support_by_rho_oracle(&g));
            for v in 1..=10u32 {
                assert_eq!(p.mass(v).to_bits(), p.mass(21 - v).to_bits());
                let pos = |x| order.iter().position(|&u| u == x);
                match (pos(v), pos(21 - v)) {
                    (Some(a), Some(b)) => assert!(a < b, "tie at {v} not broken by id"),
                    (a, b) => assert_eq!(a, b, "mirror of {v} not in the support"),
                }
            }
        }
    }

    #[test]
    fn zero_mass_slot_takes_the_sparse_path() {
        // The stationary start over every vertex has a full support, but
        // the isolated vertex 4 holds zero mass: it gets no contribution,
        // so it must leave the support as the sparse step says.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)]).unwrap();
        let all: Vec<VertexId> = (0..5).collect();
        let mut p = WalkDistribution::degree_distribution(&g, &all);
        assert_eq!(p.support_size(), 5);
        assert_eq!(p.mass(4), 0.0);
        assert!(!step_against_sparse(&g, &mut p));
        assert_eq!(p.support, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "not a non-negative finite mass")]
    fn sweep_order_rejects_a_negative_mass() {
        let g = gen::path(3).unwrap();
        let p = with_masses(&g, &[(0, 0.5), (1, -0.25)]);
        let _ = p.support_by_rho(&g);
    }

    #[test]
    #[should_panic(expected = "not a non-negative finite mass")]
    fn sweep_order_rejects_a_nan_mass() {
        let g = gen::path(3).unwrap();
        let p = with_masses(&g, &[(0, f64::NAN), (2, 0.5)]);
        let _ = p.support_by_rho(&g);
    }

    #[test]
    fn rho_symmetry_identity() {
        // ρ_t^v(u) == ρ_t^u(v) — the reversibility fact behind Lemma 3.
        let g = gen::gnp(20, 0.3, 13).unwrap();
        let t = 5;
        for (a, b) in [(0u32, 7u32), (3, 15), (2, 19)] {
            let mut pa = WalkDistribution::dirac(&g, a);
            let mut pb = WalkDistribution::dirac(&g, b);
            for _ in 0..t {
                pa.step(&g);
                pb.step(&g);
            }
            assert!(
                (pa.rho(&g, b) - pb.rho(&g, a)).abs() < 1e-12,
                "reversibility violated for ({a},{b})"
            );
        }
    }
}
