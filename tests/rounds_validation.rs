//! Validates the lock-step round accounting against the *exact* CONGEST
//! simulator (DESIGN.md §3): for every primitive that can be run both
//! ways, the two implementations must agree on results, and the lock-step
//! round charges must match the measured synchronous rounds.

use congest::algorithms::distributed_bfs;
use congest::{Ctx, ExecMode, Network, VertexProgram};
use expander_repro::prelude::*;

/// MPX `Clustering(β)` as a genuine message-passing CONGEST program:
/// vertex `v` wakes at its start epoch or joins a neighbor that announced
/// a cluster in an earlier round. One epoch = one round.
struct MpxProgram {
    start: usize,
    horizon: usize,
    cluster: Option<VertexId>,
    /// Smallest cluster id heard so far (chooses deterministically like
    /// the lock-step implementation).
    heard: Option<VertexId>,
}

impl VertexProgram for MpxProgram {
    type Msg = u32;

    fn init(&mut self, _ctx: &mut Ctx<'_, u32>) {}

    fn round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[(VertexId, u32)]) {
        let t = ctx.round();
        if t > self.horizon {
            return;
        }
        // Record announcements from neighbors clustered in earlier epochs.
        for &(_, c) in inbox {
            if self.heard.map_or(true, |h| c < h) {
                self.heard = Some(c);
            }
        }
        if self.cluster.is_some() {
            return;
        }
        if self.start == t {
            self.cluster = Some(ctx.me());
            ctx.broadcast(ctx.me());
        } else if self.start > t {
            if let Some(c) = self.heard {
                self.cluster = Some(c);
                ctx.broadcast(c);
            }
        }
    }

    fn halted(&self) -> bool {
        // Keep ticking until the horizon passes (epochs are time-driven).
        self.cluster.is_some()
    }
}

#[test]
fn mpx_message_passing_matches_lockstep() {
    let g = gen::gnp(60, 0.08, 3).unwrap();
    let n = g.n();
    let beta = 0.3;
    let horizon = (2.0 * (n as f64).ln() / beta).ceil() as usize;
    // Fixed start epochs shared by both implementations.
    let starts: Vec<usize> = (0..n)
        .map(|v| 1 + (v * 7 + 3) % horizon) // deterministic spread
        .collect();

    let lockstep = clustering_with_starts(&g, &starts, horizon);

    let make = |v: VertexId| MpxProgram {
        start: starts[v as usize],
        horizon,
        cluster: None,
        heard: None,
    };
    let (report, progs) = Network::new(&g).run_collect(make, horizon + 5).unwrap();

    for v in 0..n {
        let got = progs[v].cluster.unwrap_or(v as VertexId);
        assert_eq!(
            got, lockstep.cluster_of[v],
            "vertex {v} clustered differently (start {})",
            starts[v]
        );
    }

    // The parallel engine must reproduce the exact same execution.
    let (report_par, progs_par) = Network::new(&g)
        .with_exec_mode(ExecMode::Parallel)
        .run_collect(make, horizon + 5)
        .unwrap();
    assert_eq!(report, report_par, "exec modes must agree on the report");
    for v in 0..n {
        assert_eq!(progs[v].cluster, progs_par[v].cluster, "vertex {v}");
    }
}

#[test]
fn mpx_epoch_count_is_the_round_count() {
    // The lock-step `epochs` field is what the ledger charges for
    // `ldd.clustering`; it must never exceed the horizon and must bound
    // the message-passing rounds from above (the exact simulation can
    // quiesce early once all vertices are clustered).
    let g = gen::path(80).unwrap();
    let beta = 0.3;
    let c = clustering(&g, beta, 5);
    let horizon = (2.0 * (80f64).ln() / beta).ceil() as usize;
    assert!(c.epochs <= horizon);
    assert!(c.epochs >= 1);
}

#[test]
fn bfs_rounds_match_eccentricity_across_graphs() {
    for g in [
        gen::grid(7, 9).unwrap(),
        gen::cycle(30).unwrap(),
        gen::gnp(70, 0.07, 2).unwrap(),
    ] {
        if !traversal::is_connected(&g) {
            continue;
        }
        let (report, dist) = distributed_bfs(&g, 0, 100_000).unwrap();
        assert_eq!(dist, traversal::bfs_distances(&g, 0));
        let ecc = traversal::eccentricity(&g, 0).unwrap();
        // The wave reaches the last vertex at round ecc. If that vertex
        // still has neighbors that did not send to it, it forwards the
        // wave once more and quiescence costs one extra round — same
        // window the broadcast test allows for crossing wavefronts.
        assert!(
            report.rounds as u32 >= ecc && report.rounds as u32 <= ecc + 1,
            "BFS rounds {} outside [{ecc}, {}]",
            report.rounds,
            ecc + 1
        );
    }
}

#[test]
fn nibble_walk_charge_equals_t0() {
    // Lemma 9's first charge: the walk phase costs exactly t₀ rounds.
    let (g, _) = gen::barbell(8).unwrap();
    let params = NibbleParams::new(0.05, g.m(), ParamMode::Practical);
    let out = approximate_nibble(&g, 0, &params, 3);
    assert_eq!(out.ledger.category("nibble.walk"), params.t0 as u64);
}

#[test]
fn parallel_composition_takes_max_not_sum() {
    // Disjoint components decompose in parallel: total rounds must be far
    // below the sum of per-component runs.
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    for c in 0..4u32 {
        let base = c * 12;
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                edges.push((base + u, base + v));
            }
        }
    }
    let g = Graph::from_edges(48, edges).unwrap();
    let whole = ExpanderDecomposition::builder()
        .seed(3)
        .build()
        .run(&g)
        .unwrap();

    let single = gen::complete(12).unwrap();
    let one = ExpanderDecomposition::builder()
        .seed(3)
        .build()
        .run(&single)
        .unwrap();
    // Four identical cliques in parallel should cost at most ~2 single
    // runs (identical, plus harness slack), never 4.
    assert!(
        whole.ledger.total() <= one.ledger.total() * 3,
        "parallel {} vs single {}",
        whole.ledger.total(),
        one.ledger.total()
    );
}

/// FNV-1a over a word stream: a compact, dependency-free digest for the
/// golden decomposition pins below.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Everything a decomposition outputs, reduced to what a golden pin
/// compares: part sizes, a digest of the sorted parts (each terminated
/// by `u64::MAX`), the removed-edge count, a digest of the removed
/// edges with their tags, and every round-ledger category.
fn decomposition_fingerprint(
    g: &Graph,
    seed: u64,
) -> (Vec<usize>, u64, usize, u64, Vec<(String, u64)>) {
    let res = ExpanderDecomposition::builder()
        .epsilon(1.0 / 6.0)
        .k(2)
        .seed(seed)
        .build()
        .run(g)
        .unwrap();
    let mut parts: Vec<Vec<VertexId>> = res.parts.iter().map(|p| p.iter().collect()).collect();
    parts.sort();
    let sizes = parts.iter().map(Vec::len).collect();
    let parts_digest = fnv1a(
        parts
            .iter()
            .flat_map(|p| p.iter().map(|&v| v as u64).chain([u64::MAX])),
    );
    let removed_digest = fnv1a(res.removed_edges.iter().flat_map(|&(u, v, tag)| {
        let tag = match tag {
            RemovalTag::Remove1 => 1,
            RemovalTag::Remove2 => 2,
            RemovalTag::Remove3 => 3,
        };
        [u as u64, v as u64, tag]
    }));
    let ledger = res
        .ledger
        .iter()
        .map(|(category, rounds)| (category.to_string(), rounds))
        .collect();
    (
        sizes,
        parts_digest,
        res.removed_edges.len(),
        removed_digest,
        ledger,
    )
}

/// One golden decomposition: the instance's name and every output
/// [`decomposition_fingerprint`] reduces it to.
struct Golden {
    name: &'static str,
    sizes: &'static [usize],
    parts_digest: u64,
    removed: usize,
    removed_digest: u64,
    ledger: &'static [(&'static str, u64)],
}

/// FNV-1a of the empty stream: the removed-edge digest of a
/// decomposition that removed nothing.
const EMPTY_DIGEST: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn golden_decomposition_pin() {
    // Recorded before the walk kernels (integer-key sweep order,
    // full-support step) changed: any later change to the walk or sweep
    // arithmetic that moves one bit of the decomposition — a part, a
    // removed edge, or a round charge — fails here.
    //
    // One planted block of the `scale_planted_partition(100_000, 42)`
    // instance: n = 16,666 vertices in 8 blocks of 2,083, with 80% of
    // the 10⁵ edges inside blocks. Truncated walks on a block this size
    // cover all of it, the regime of the full-support walk step.
    let (n, blocks) = (16_666usize, 8usize);
    let size = n / blocks;
    let intra_pairs = blocks as f64 * (size * (size - 1) / 2) as f64;
    let p_in = 0.8 * 100_000.0 / intra_pairs;
    let block = gen::planted_partition_fast(&[size], p_in, 0.0, 42)
        .unwrap()
        .graph;
    let (ring, _) = gen::ring_of_cliques(12, 10).unwrap();
    let power = gen::power_law_fast(2_000, 2.5, 10.0, 7).unwrap();
    assert_eq!((block.n(), block.m()), (2_083, 9_932));
    assert_eq!((power.n(), power.m()), (2_000, 9_981));
    let goldens = [
        Golden {
            name: "planted block",
            sizes: &[2_083],
            parts_digest: 8_066_930_654_048_403_254,
            removed: 0,
            removed_digest: EMPTY_DIGEST,
            ledger: &[
                ("ldd.classify", 122_897),
                ("ldd.clustering", 166_185),
                ("ldd.dense_merge", 4_338_889),
                ("parallel_nibble.execution", 22_783_598_592),
                ("parallel_nibble.generation", 8_380),
                ("parallel_nibble.selection", 99_984),
            ],
        },
        Golden {
            name: "ring of cliques",
            sizes: &[10; 12],
            parts_digest: 1_629_062_717_930_461_573,
            removed: 12,
            removed_digest: 11_338_404_086_879_628_933,
            ledger: &[
                ("ldd.classify", 3_840),
                ("ldd.clustering", 159_895),
                ("ldd.dense_merge", 18_100),
                ("parallel_nibble.execution", 420_246_016),
                ("parallel_nibble.generation", 748),
                ("parallel_nibble.selection", 3_360),
            ],
        },
        Golden {
            name: "power law",
            sizes: &[1_993, 1, 1, 1, 1, 1, 1, 1],
            parts_digest: 2_737_526_753_482_198_785,
            removed: 0,
            removed_digest: EMPTY_DIGEST,
            ledger: &[
                ("ldd.classify", 115_594),
                ("ldd.clustering", 163_545),
                ("ldd.dense_merge", 3_972_049),
                ("parallel_nibble.execution", 19_697_389_568),
                ("parallel_nibble.generation", 8_044),
                ("parallel_nibble.selection", 88_000),
            ],
        },
    ];
    for (g, golden) in [&block, &ring, &power].into_iter().zip(&goldens) {
        let (sizes, parts_digest, removed, removed_digest, ledger) =
            decomposition_fingerprint(g, 5);
        let name = golden.name;
        assert_eq!(sizes, golden.sizes, "{name}: part sizes");
        assert_eq!(parts_digest, golden.parts_digest, "{name}: parts");
        assert_eq!(removed, golden.removed, "{name}: removed edges");
        assert_eq!(
            removed_digest, golden.removed_digest,
            "{name}: removed-edge digest"
        );
        let expected: Vec<(String, u64)> = golden
            .ledger
            .iter()
            .map(|&(category, rounds)| (category.to_string(), rounds))
            .collect();
        assert_eq!(ledger, expected, "{name}: round ledger");
    }
}
