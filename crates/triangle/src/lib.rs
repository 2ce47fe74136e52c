//! **Theorem 2** — triangle enumeration in `Õ(n^{1/3})` CONGEST rounds.
//!
//! One implementation of the paper's algorithm, one clique baseline and
//! one ground truth, plus the serving tiers built on the algorithm:
//!
//! * [`count`] — centralized enumerators (degree-ordered merge join and a
//!   brute-force reference). Ground truth + work baseline.
//! * [`pipeline`] — the paper's CONGEST algorithm: expander-decompose
//!   the graph (`ε ≤ 1/6`), list every triangle that has at least one
//!   intra-cluster edge inside its cluster (Dolev–Lenzen–Peled group
//!   tripartition delivered with GKS expander routing in `Õ(n^{1/3})`
//!   queries, then an adjacency exchange executed on the CONGEST round
//!   engine), and recurse on the inter-cluster remainder `E*`
//!   (`|E*| ≤ |E|/6`, so `O(log m)` levels). Rounds are reported per
//!   phase against the paper's budgets.
//! * [`dlp`] — the closed-form DLP triple-ownership accounting the
//!   pipeline charges its redistribution with, and the enumerating
//!   reference the equivalence suite pins it to.
//! * [`clique_algo`] — the Dolev–Lenzen–Peled deterministic
//!   CONGESTED-CLIQUE lister (`O(n^{1/3})` rounds via Lenzen routing),
//!   the baseline that establishes Theorem 2's headline: CONGEST matches
//!   CONGESTED-CLIQUE up to polylog factors.
//! * [`service`] — the build-once/query-many split: the pipeline's build
//!   phase frozen into an immutable [`service::QueryEngine`] that serves
//!   concurrent triangle point queries with per-query routing charges.
//! * [`churn`] — incremental maintenance under live edge churn: a
//!   [`churn::DeltaLedger`] keeps counts and witnesses exact per batch,
//!   and certificate-driven reclustering refreezes only broken clusters.
//!
//! Every algorithm returns a *sorted, deduplicated* triangle list so
//! completeness is a one-line assertion against ground truth.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod clique_algo;
pub mod count;
pub mod dlp;
pub mod pipeline;
pub mod service;

pub use churn::{BatchReport, ChurnPolicy, DeltaLedger, EdgeOp, RebuildReport};
pub use clique_algo::{clique_enumerate, CliqueEnumeration};
pub use count::{count_triangles, enumerate_triangles, Triangle};
pub use pipeline::{
    enumerate_via_decomposition, enumerate_with_assignment, Packing, PipelineParams, TriangleReport,
};
pub use service::{
    Answer, Emit, FrozenCluster, FrozenEngine, FrozenReport, Query, QueryEngine, QueryOutcome,
    RestoreError, ServeReport, ServiceError,
};

/// Black-box acceptance tests of the paper's CONGEST algorithm
/// (Theorem 2) through its public entry point,
/// [`enumerate_via_decomposition`]. The white-box pipeline tests live in
/// [`pipeline`].
#[cfg(test)]
mod congest_algo {
    mod tests {
        use crate::count::enumerate_triangles;
        use crate::pipeline::{enumerate_via_decomposition, PipelineParams, TriangleReport};
        use graph::{gen, Graph};

        fn assert_complete(g: &Graph, params: &PipelineParams) -> TriangleReport {
            let out = enumerate_via_decomposition(g, params);
            let want = enumerate_triangles(g);
            assert_eq!(out.triangles, want, "n = {}, m = {}", g.n(), g.m());
            out
        }

        #[test]
        fn complete_on_random_graphs() {
            for seed in 0..3 {
                let g = gen::gnp(40, 0.25, seed).unwrap();
                assert_complete(&g, &PipelineParams::default());
            }
        }

        #[test]
        fn complete_on_cluster_graphs() {
            let (g, _) = gen::ring_of_cliques(5, 6).unwrap();
            assert_complete(&g, &PipelineParams::default());
            let pp = gen::planted_partition(&[20, 20], 0.5, 0.08, 7).unwrap();
            assert_complete(&pp.graph, &PipelineParams::default());
        }

        #[test]
        fn complete_on_dense_graph() {
            let g = gen::complete(16).unwrap();
            assert_complete(&g, &PipelineParams::default());
        }

        #[test]
        fn triangle_free_graphs_report_nothing() {
            for g in [gen::cycle(12).unwrap(), gen::grid(5, 5).unwrap()] {
                let out = enumerate_via_decomposition(&g, &PipelineParams::default());
                assert!(out.triangles.is_empty());
            }
        }

        #[test]
        fn inter_cluster_triangles_found_via_recursion() {
            // A triangle spanning three cliques of a ring: all three edges
            // are likely inter-cluster at level 0, so the recursion on E*
            // has to list it.
            let (g, _) = gen::ring_of_cliques(3, 5).unwrap();
            let mut edges: Vec<_> = g.edges().collect();
            // Add a triangle across the three cliques: vertices 2, 7, 12.
            edges.extend([(2, 7), (7, 12), (2, 12)]);
            let g = Graph::from_edges(15, edges).unwrap();
            assert_complete(&g, &PipelineParams::default());
        }

        #[test]
        fn level_stats_are_recorded() {
            let pp = gen::planted_partition(&[16, 16], 0.6, 0.1, 3).unwrap();
            let out = enumerate_via_decomposition(&pp.graph, &PipelineParams::default());
            assert!(!out.levels.is_empty());
            let l0 = &out.levels[0];
            assert_eq!(l0.m, pp.graph.m());
            assert!(l0.decomposition_rounds > 0);
            assert!(out.total_rounds() >= l0.rounds());
        }

        #[test]
        fn edge_set_shrinks_per_level() {
            let g = gen::gnp(50, 0.3, 11).unwrap();
            let out = enumerate_via_decomposition(&g, &PipelineParams::default());
            for pair in out.levels.windows(2) {
                assert!(
                    pair[1].m <= pair[0].m / 2,
                    "E* must shrink: {} -> {}",
                    pair[0].m,
                    pair[1].m
                );
            }
        }

        #[test]
        fn epsilon_is_capped_at_one_sixth() {
            let g = gen::gnp(30, 0.3, 1).unwrap();
            let params = PipelineParams {
                epsilon: 0.9, // clamped to the paper's 1/6, not trusted
                ..Default::default()
            };
            let out = assert_complete(&g, &params);
            assert!(out.schedule.epsilon <= 1.0 / 6.0);
        }

        #[test]
        fn deterministic_per_seed() {
            let g = gen::gnp(36, 0.3, 5).unwrap();
            let a = enumerate_via_decomposition(&g, &PipelineParams::default());
            let b = enumerate_via_decomposition(&g, &PipelineParams::default());
            assert_eq!(a.total_rounds(), b.total_rounds());
            assert_eq!(a.triangles, b.triangles);
        }
    }
}
