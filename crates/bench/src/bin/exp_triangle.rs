//! **E2 — Theorem 2**: triangle enumeration round scaling in CONGEST vs
//! CONGESTED-CLIQUE.
//!
//! Workload: `G(n, p)` (the Ω̃(n^{1/3}) lower-bound family uses p = 1/2).
//! For each n: enumerate with the Theorem 2 CONGEST pipeline and the DLP
//! clique baseline; verify completeness against ground truth; report
//! rounds and the fitted growth exponents. CONGEST rounds are the
//! pipeline's per-level charges: analytic decomposition and routing
//! rounds plus the measured engine rounds of the adjacency exchange. The
//! paper's claim: both models are `Θ̃(n^{1/3})` — exponents should be
//! close (up to polylog drift), and the DLP exponent ≈ 1/3.

use bench_suite::{fit_exponent, gnp_family, Table};
use triangle::{
    clique_enumerate, enumerate_triangles, enumerate_via_decomposition, PipelineParams,
};

fn main() {
    let mut table = Table::new(
        "E2: triangle enumeration rounds (Theorem 2)",
        &[
            "n",
            "m",
            "triangles",
            "congest_rounds",
            "congest_listing",
            "clique_rounds",
            "complete",
        ],
    );
    let mut congest_pts = Vec::new();
    let mut listing_pts = Vec::new();
    let mut query_pts = Vec::new();
    let mut clique_pts = Vec::new();

    let sizes: &[usize] = bench_suite::tiny_or(&[16, 24], &[32, 64, 128, 256]);
    for &n in sizes {
        let g = gnp_family(n, 0.5, 42 + n as u64);
        let truth = enumerate_triangles(&g);
        let congest = enumerate_via_decomposition(&g, &PipelineParams::default());
        let clique = clique_enumerate(&g);
        let complete = congest.triangles == truth && clique.triangles == truth;
        // Listing-only rounds: the component the n^{1/3} shape governs
        // directly (decomposition rounds carry the polylog overhead).
        let listing: u64 = congest
            .levels
            .iter()
            .map(|l| l.rounds() - l.decomposition_rounds)
            .sum();
        let queries = congest.max_routing_queries();
        table.row(vec![
            n.to_string(),
            g.m().to_string(),
            truth.len().to_string(),
            congest.total_rounds().to_string(),
            listing.to_string(),
            clique.rounds.to_string(),
            complete.to_string(),
        ]);
        congest_pts.push((n as f64, congest.total_rounds().max(1) as f64));
        listing_pts.push((n as f64, listing.max(1) as f64));
        query_pts.push((n as f64, queries.max(1) as f64));
        clique_pts.push((n as f64, clique.rounds.max(1) as f64));
    }
    table.print();

    let mut fit = Table::new(
        "E2b: growth exponents (paper: both models Θ̃(n^{1/3}))",
        &["series", "fitted_exponent", "paper"],
    );
    fit.row(vec![
        "congest_total".into(),
        format!("{:.2}", fit_exponent(&congest_pts)),
        "1/3 + polylog drift".into(),
    ]);
    fit.row(vec![
        "congest_listing".into(),
        format!("{:.2}", fit_exponent(&listing_pts)),
        "≈ 1/3".into(),
    ]);
    fit.row(vec![
        "congest_queries".into(),
        format!("{:.2}", fit_exponent(&query_pts)),
        "1/3 (the Õ(n^{1/3}) routing-query count)".into(),
    ]);
    fit.row(vec![
        "clique_dlp".into(),
        format!("{:.2}", fit_exponent(&clique_pts)),
        "1/3".into(),
    ]);
    fit.print();
}
