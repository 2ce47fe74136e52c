//! `Nibble` and `ApproximateNibble` (paper Appendix A.1–A.2).
//!
//! `Nibble(G, v, φ, b)` simulates a truncated lazy random walk from `v` for
//! `t₀` steps. If `v` sits inside a sparse cut `S`, most of the walk's mass
//! stays trapped in `S`, so some prefix of the vertices ordered by
//! normalized mass `ρ̃_t(u) = p̃_t(u)/deg(u)` is itself a sparse cut. At
//! every step the walk is truncated — mass below `2·ε_b·deg(u)` is zeroed —
//! which keeps the support (and hence the distributed work) small.
//!
//! `Nibble` checks **every** prefix length `j`, which a CONGEST
//! implementation cannot afford; `ApproximateNibble` checks only the
//! `O(φ⁻¹·log Vol)` geometrically-spaced prefixes `(j_x)` and compensates
//! with slightly relaxed conditions (C.1*)–(C.3*). Lemma 5 shows the
//! output still overlaps the target cut enough for the balance argument.

use crate::params::NibbleParams;
use crate::rounds::RoundLedger;
use graph::walks::WalkDistribution;
use graph::{Graph, VertexId, VertexSet};

/// Result of one (Approximate)Nibble run.
#[derive(Debug, Clone)]
pub struct NibbleOutcome {
    /// The sweep cut found, if any (vertex ids of the input graph).
    pub cut: Option<VertexSet>,
    /// Union of the walk supports over all `t ∈ 0..=t₀` — every vertex
    /// that *participated*. The edge set `P*` of Definition 2 is exactly
    /// the edges with at least one endpoint in this set.
    pub participants: VertexSet,
    /// Measured CONGEST round charges per Lemma 9.
    pub ledger: RoundLedger,
}

impl NibbleOutcome {
    /// Whether the run produced a non-empty cut.
    pub fn found(&self) -> bool {
        self.cut.is_some()
    }
}

/// Shared sweep state at one time step `t`: support ordered by decreasing
/// `ρ̃_t` (ties by id), with prefix volumes and prefix boundaries. The
/// order comes from [`WalkDistribution::support_by_rho_into`], a sort of
/// integer keys that yields the comparator order exactly.
/// The vectors are reused across the `t₀` steps of a run (cleared,
/// capacity kept) — a fresh `O(support)` allocation triple per step was
/// almost pure mmap/munmap traffic once walks spread over large
/// components.
#[derive(Default)]
struct Sweep {
    order: Vec<VertexId>,
    /// `vol[i]` = volume of the first `i+1` vertices.
    vol: Vec<usize>,
    /// `boundary[i]` = `|∂(prefix of length i+1)|`.
    boundary: Vec<usize>,
    /// Sort scratch for [`WalkDistribution::support_by_rho_into`]:
    /// `(key, v)` pairs with the integer key of `ρ̃(v)`, so each
    /// normalized mass is computed once per step.
    keyed: Vec<(u64, VertexId)>,
}

impl Sweep {
    /// Rebuilds the sweep state for the walk's current support. `scratch`
    /// is an all-false mark vector of length `g.n()` that is restored to
    /// all-false before returning.
    fn fill(&mut self, g: &Graph, p: &WalkDistribution, scratch: &mut [bool]) {
        self.order.clear();
        self.vol.clear();
        self.boundary.clear();
        // The paper's permutation π̃_t: support by decreasing ρ̃, ties by id.
        p.support_by_rho_into(g, &mut self.keyed, &mut self.order);
        let in_prefix = scratch;
        let mut v_acc = 0usize;
        let mut b_acc = 0usize;
        for &v in &self.order {
            in_prefix[v as usize] = true;
            v_acc += g.degree(v);
            for &w in g.neighbors(v) {
                if in_prefix[w as usize] {
                    b_acc -= 1;
                } else {
                    b_acc += 1;
                }
            }
            self.vol.push(v_acc);
            self.boundary.push(b_acc);
        }
        for &v in &self.order {
            in_prefix[v as usize] = false;
        }
    }

    fn len(&self) -> usize {
        self.order.len()
    }

    /// Conductance of the prefix of length `j` (1-based) against total
    /// volume `total_vol`; `None` when a side has zero volume.
    fn conductance(&self, j: usize, total_vol: usize) -> Option<f64> {
        let v = self.vol[j - 1];
        let rest = total_vol.checked_sub(v)?;
        if v == 0 || rest == 0 {
            return None;
        }
        Some(self.boundary[j - 1] as f64 / v.min(rest) as f64)
    }
}

/// The geometrically-spaced candidate prefix lengths `(j_x)` of A.2:
/// `j₁ = 1`, and `j_i = max(j_{i−1}+1, argmax_j {Vol(1..j) ≤ (1+φ)·Vol(1..j_{i−1})})`.
fn candidate_sequence(sweep: &Sweep, phi: f64) -> Vec<usize> {
    let jmax = sweep.len();
    if jmax == 0 {
        return Vec::new();
    }
    let mut seq = vec![1usize];
    loop {
        let j_prev = *seq.last().expect("non-empty");
        if j_prev >= jmax {
            break;
        }
        let limit = (1.0 + phi) * sweep.vol[j_prev - 1] as f64;
        // Largest j with Vol(1..j) ≤ limit (prefix volumes are
        // non-decreasing).
        let by_volume = sweep.vol.partition_point(|&v| v as f64 <= limit);
        let next = (j_prev + 1).max(by_volume).min(jmax);
        seq.push(next);
    }
    seq
}

/// Which condition set a candidate must pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Conditions {
    /// (C.1)–(C.3): exact conditions, used by `Nibble` for every `j` and by
    /// `ApproximateNibble` when `j_x = 1` or `j_x = j_{x−1}+1`.
    Exact,
    /// (C.1*)–(C.3*): relaxed conditions with the previous candidate
    /// `j_{x−1}` for the mass test.
    Relaxed {
        /// The previous candidate `j_{x−1}`.
        j_prev: usize,
    },
}

// The paper's Nibble condition check takes exactly these eight inputs
// (graph, walk, sweep, params, scale, candidate, mode, volume); bundling
// them into a struct would only rename the problem.
#[allow(clippy::too_many_arguments)]
fn check_candidate(
    g: &Graph,
    p: &WalkDistribution,
    sweep: &Sweep,
    params: &NibbleParams,
    b: u32,
    j: usize,
    conditions: Conditions,
    total_vol: usize,
) -> bool {
    let phi = params.phi;
    let gamma = params.gamma;
    let vol_j = sweep.vol[j - 1] as f64;
    let floor_b = (5.0 / 7.0) * (1u64 << (b - 1).min(62)) as f64;
    let Some(cond) = sweep.conductance(j, total_vol) else {
        return false;
    };
    match conditions {
        Conditions::Exact => {
            // (C.1) Φ ≤ φ.
            if cond > phi {
                return false;
            }
            // (C.2) ρ̃_t(π̃_t(j)) ≥ γ/Vol(1..j).
            if p.rho(g, sweep.order[j - 1]) < gamma / vol_j {
                return false;
            }
            // (C.3) (5/6)·Vol(V) ≥ Vol(1..j) ≥ (5/7)·2^{b−1}.
            vol_j <= (5.0 / 6.0) * total_vol as f64 && vol_j >= floor_b
        }
        Conditions::Relaxed { j_prev } => {
            // (C.1*) Φ ≤ relaxed_factor·φ (paper: 12φ).
            if cond > params.relaxed_factor * phi {
                return false;
            }
            // (C.2*) ρ̃_t(π̃_t(j_{x−1})) ≥ γ/Vol(1..j_x).
            if p.rho(g, sweep.order[j_prev - 1]) < gamma / vol_j {
                return false;
            }
            // (C.3*) (11/12)·Vol(V) ≥ Vol(1..j_x) ≥ (5/7)·2^{b−1}.
            vol_j <= (11.0 / 12.0) * total_vol as f64 && vol_j >= floor_b
        }
    }
}

/// The exact `Nibble(G, v, φ, b)` of A.1: checks conditions (C.1)–(C.3)
/// at **every** prefix length. Not distributable — kept as the reference
/// implementation that `ApproximateNibble` is validated against.
///
/// # Panics
///
/// Panics if `start` is out of range or `b ∉ 1..=ℓ`.
pub fn nibble(g: &Graph, start: VertexId, params: &NibbleParams, b: u32) -> NibbleOutcome {
    run(g, start, params, b, Variant::Exact)
}

/// `ApproximateNibble(G, v, φ, b)` of A.2: checks only the candidate
/// sequence `(j_x)`, testing (C.1)–(C.3) on fresh candidates and
/// (C.1*)–(C.3*) on geometric jumps. This is the distributable variant;
/// its round charges follow Lemma 9.
///
/// # Panics
///
/// Panics if `start` is out of range or `b ∉ 1..=ℓ`.
pub fn approximate_nibble(
    g: &Graph,
    start: VertexId,
    params: &NibbleParams,
    b: u32,
) -> NibbleOutcome {
    run(g, start, params, b, Variant::Approximate)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Exact,
    Approximate,
}

fn run(
    g: &Graph,
    start: VertexId,
    params: &NibbleParams,
    b: u32,
    variant: Variant,
) -> NibbleOutcome {
    assert!((start as usize) < g.n(), "start vertex out of range");
    assert!(
        b >= 1 && b <= params.ell,
        "scale b = {b} outside 1..={}",
        params.ell
    );
    let eps = params.eps_b(b);
    let total_vol = g.total_volume();
    let mut ledger = RoundLedger::new();
    // Participants accumulate via a mark vector + member list (a sorted
    // VertexSet insert per support vertex per step was quadratic in the
    // support size); the set is materialized once on return.
    let mut part_seen = vec![false; g.n()];
    let mut part_members: Vec<VertexId> = Vec::new();
    part_seen[start as usize] = true;
    part_members.push(start);
    let mut sweep_scratch = vec![false; g.n()];
    let mut sweep = Sweep::default();
    // Previous step's (support, masses) snapshot for the fixed-point
    // check below; double-buffered, O(support) per step.
    let mut prev_state: Vec<(VertexId, f64)> = Vec::new();
    let mut cur_state: Vec<(VertexId, f64)> = Vec::new();
    // The sweep-search rounds charged by the latest step, so the
    // fixed-point early-out can charge the identical remaining steps.
    let mut last_search_charge = 0u64;

    let mut p = WalkDistribution::dirac(g, start);
    // Lemma 9: computing p̃_t, ρ̃_t for all t takes t₀ rounds (charged in
    // full up front — the fixed-point early-out below saves simulation
    // wall-clock, not model rounds).
    ledger.charge("nibble.walk", params.t0 as u64);

    for t in 1..=params.t0 {
        p.step(g);
        p.truncate(g, eps);
        // Fixed point: the truncated walk map is deterministic, so if
        // p̃_t == p̃_{t−1} bit-for-bit, every remaining step yields the
        // same distribution, the same sweep, and the same (failing)
        // candidates — the loop's outcome is already decided. On small
        // components the truncation threshold can sit below the
        // stationary mass, so the walk parks at its fixpoint and would
        // otherwise burn the full t₀ budget doing provably nothing.
        cur_state.clear();
        cur_state.extend(p.iter());
        if cur_state == prev_state {
            // Every skipped step would have re-examined the identical
            // candidate list; charge those rounds as the full loop would
            // have, so the model accounting is unchanged by the early-out.
            ledger.charge(
                "nibble.sweep_search",
                last_search_charge * (params.t0 - t + 1) as u64,
            );
            break;
        }
        std::mem::swap(&mut prev_state, &mut cur_state);
        for (v, _) in p.iter() {
            if !part_seen[v as usize] {
                part_seen[v as usize] = true;
                part_members.push(v);
            }
        }
        if p.support_size() == 0 {
            break;
        }
        sweep.fill(g, &p, &mut sweep_scratch);
        let candidates: Vec<(usize, Conditions)> = match variant {
            Variant::Exact => (1..=sweep.len()).map(|j| (j, Conditions::Exact)).collect(),
            Variant::Approximate => {
                let seq = candidate_sequence(&sweep, params.phi);
                seq.iter()
                    .enumerate()
                    .map(|(x, &jx)| {
                        let cond = if x == 0 || jx == seq[x - 1] + 1 {
                            Conditions::Exact
                        } else {
                            Conditions::Relaxed { j_prev: seq[x - 1] }
                        };
                        (jx, cond)
                    })
                    .collect()
            }
        };
        // Lemma 9 round charges: per examined candidate, a random binary
        // search costs O(t₀·log n) and the condition check O(t₀). (The
        // exact variant is not distributable; we charge it identically so
        // comparisons are apples-to-apples.)
        let search = (sweep.len().max(2) as f64).log2().ceil() as u64;
        last_search_charge = candidates.len() as u64 * (search + 1) * params.t0 as u64;
        ledger.charge("nibble.sweep_search", last_search_charge);
        for (j, cond) in candidates {
            if check_candidate(g, &p, &sweep, params, b, j, cond, total_vol) {
                let cut = VertexSet::from_iter(g.n(), sweep.order[..j].iter().copied());
                return NibbleOutcome {
                    cut: Some(cut),
                    participants: VertexSet::from_iter(g.n(), part_members),
                    ledger,
                };
            }
        }
    }
    NibbleOutcome {
        cut: None,
        participants: VertexSet::from_iter(g.n(), part_members),
        ledger,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamMode;
    use graph::gen;

    fn params_for(g: &Graph, phi: f64) -> NibbleParams {
        NibbleParams::new(phi, g.m(), ParamMode::Practical)
    }

    #[test]
    fn finds_planted_cut_on_barbell() {
        let (g, left) = gen::barbell(12).unwrap();
        let params = params_for(&g, 0.05);
        let out = approximate_nibble(&g, 0, &params, 5);
        let cut = out.cut.expect("barbell cut should be found");
        let phi_c = g.conductance(&cut).unwrap();
        assert!(
            phi_c <= params.relaxed_factor * params.phi + 1e-12,
            "Φ(C) = {phi_c}"
        );
        // The cut should be (essentially) the left clique.
        let overlap = cut.intersection(&left).len();
        assert!(overlap >= 10, "cut {:?} misses the clique", cut);
    }

    #[test]
    fn exact_nibble_also_finds_barbell_cut() {
        let (g, _) = gen::barbell(10).unwrap();
        let params = params_for(&g, 0.05);
        let out = nibble(&g, 3, &params, 5);
        let cut = out.cut.expect("exact nibble finds the cut");
        assert!(g.conductance(&cut).unwrap() <= params.phi + 1e-12);
    }

    #[test]
    fn returns_empty_on_expander() {
        let g = gen::complete(24).unwrap();
        let params = params_for(&g, 0.02);
        let out = approximate_nibble(&g, 0, &params, 3);
        assert!(out.cut.is_none(), "no sparse cut exists in K24");
    }

    #[test]
    fn output_satisfies_volume_window() {
        let (g, _) = gen::barbell(12).unwrap();
        let params = params_for(&g, 0.05);
        for b in [3u32, 5, 6] {
            if let Some(cut) = approximate_nibble(&g, 0, &params, b).cut {
                let vol = g.volume(&cut) as f64;
                let total = g.total_volume() as f64;
                assert!(vol <= (11.0 / 12.0) * total, "C.3* upper violated");
                assert!(
                    vol >= (5.0 / 7.0) * (1u64 << (b - 1)) as f64,
                    "C.3* lower violated at b={b}: vol {vol}"
                );
            }
        }
    }

    #[test]
    fn participants_contain_cut_and_start() {
        let (g, _) = gen::barbell(8).unwrap();
        let params = params_for(&g, 0.05);
        let out = approximate_nibble(&g, 2, &params, 4);
        assert!(out.participants.contains(2));
        if let Some(cut) = &out.cut {
            for v in cut.iter() {
                assert!(
                    out.participants.contains(v),
                    "cut vertex {v} not a participant"
                );
            }
        }
    }

    #[test]
    fn participation_volume_respects_lemma3_shape() {
        // Lemma 3: Vol(Z_{u,φ,b}) ≤ (t₀+1)/(2·ε_b). The participants of a
        // *single* run are ⊆ Z, so their volume obeys the same bound.
        let g = gen::gnp(120, 0.08, 11).unwrap();
        let params = params_for(&g, 0.08);
        for b in [1u32, 3] {
            let out = approximate_nibble(&g, 0, &params, b);
            let vol: usize = out.participants.iter().map(|v| g.degree(v)).sum();
            let bound = (params.t0 as f64 + 1.0) / (2.0 * params.eps_b(b));
            assert!(
                (vol as f64) <= bound,
                "participation volume {vol} exceeds Lemma 3 bound {bound} at b={b}"
            );
        }
    }

    #[test]
    fn candidate_sequence_is_strictly_increasing_and_covers() {
        let (g, _) = gen::barbell(10).unwrap();
        let params = params_for(&g, 0.1);
        let mut p = WalkDistribution::dirac(&g, 0);
        for _ in 0..10 {
            p.step(&g);
            p.truncate(&g, params.eps_b(3));
        }
        let mut scratch = vec![false; g.n()];
        let mut sweep = Sweep::default();
        sweep.fill(&g, &p, &mut scratch);
        let seq = candidate_sequence(&sweep, params.phi);
        assert_eq!(*seq.first().unwrap(), 1);
        assert_eq!(*seq.last().unwrap(), sweep.len());
        for w in seq.windows(2) {
            assert!(w[1] > w[0], "sequence must strictly increase: {seq:?}");
        }
        // A.2: the sequence has O(φ⁻¹·log Vol) entries.
        let bound = 4.0 * (1.0 / params.phi) * (g.total_volume() as f64).ln() + 2.0;
        assert!(
            (seq.len() as f64) <= bound,
            "sequence too long: {}",
            seq.len()
        );
    }

    #[test]
    fn ledger_charges_walk_and_search() {
        let (g, _) = gen::barbell(6).unwrap();
        let params = params_for(&g, 0.1);
        let out = approximate_nibble(&g, 0, &params, 3);
        assert_eq!(out.ledger.category("nibble.walk"), params.t0 as u64);
        assert!(out.ledger.category("nibble.sweep_search") > 0);
    }

    #[test]
    #[should_panic(expected = "outside 1..=")]
    fn scale_out_of_range_panics() {
        let g = gen::complete(4).unwrap();
        let params = params_for(&g, 0.1);
        let _ = approximate_nibble(&g, 0, &params, 99);
    }

    #[test]
    fn isolated_start_returns_empty() {
        // A vertex with only self loops: mass never spreads, no valid cut
        // (its prefix has the full loop volume but zero boundary and a
        // zero-volume... actually conductance 0 — but C.3 lower bound and
        // the complement volume keep it honest).
        let g = graph::Graph::from_edges(3, [(0, 1), (2, 2), (2, 2)]).unwrap();
        let params = NibbleParams::new(0.1, 2, ParamMode::Practical);
        let out = approximate_nibble(&g, 2, &params, 1);
        // Vertex 2's prefix {2} has boundary 0 ⇒ conductance 0 ≤ φ, C.2
        // holds (all mass stays), C.3 needs vol ≥ 5/7·2⁰ ≈ 0.71 — deg 2.
        // So nibble legitimately cuts the isolated vertex off.
        let cut = out
            .cut
            .expect("isolated loop vertex is a 0-conductance cut");
        assert!(cut.contains(2));
        assert_eq!(g.boundary(&cut), 0);
    }
}
