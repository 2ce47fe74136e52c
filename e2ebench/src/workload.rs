//! The two workloads. Each one follows the same steps, timed around
//! public calls into the workspace crates:
//!
//! 1. set-up, repeated at least [`SETUP_REPEATS`] times and for at least
//!    [`SETUP_SECONDS`] (`setup_s` is the median): generate the graph,
//!    write it as a `.csr` file, build the assignment of its planted
//!    clusters and freeze an engine;
//! 2. the job (`job_s`):
//!    * `enumerate-1m`: the fastest of [`LISTING_REPEATS`]
//!      `enumerate_with_assignment` calls on the planted clusters (the
//!      cluster phase of Theorem 2), after one untimed warm-up call;
//!    * `churn-serve-100k`: the mean over [`CHURN_ROUNDS`] rounds of the
//!      time from the write batch that trips the `ChurnPolicy` to the
//!      first read answered at the rebuilt engine's generation (the
//!      staleness a reader sees);
//! 3. store the engine as an artifact and restart a server from it,
//!    [`RESTART_REPEATS`] times (`server.restart_s`: `serve_path` to the
//!    first answered `Ping`);
//! 4. open-loop reads over one connection at [`READ_RATE`] with churn
//!    batches of [`BATCH_OPS`] ops at [`WRITE_RATE`], applied by the
//!    sender through a `DeltaLedger` (`read_p50_ms`, `apply_p50_us`; their
//!    p99s are per-layer numbers); only the churn
//!    workload's policy trips, and its rebuild runs on a background
//!    thread and is swapped into the server;
//! 5. per-layer only: the cluster-phase listing on the served clusters
//!    of `churn-serve-100k`, and in traced runs a direct
//!    `ExpanderDecomposition::run` on its instance (its wall and round
//!    ledger, checked by listing on its clusters) and the `load.max_qps`
//!    rate ramp.
//!
//! Each workload's instance comes from [`INSTANCE_SEED`], its traffic from
//! the run's seed. Oracle work (expected answers, recounts, the policy
//! budget) stays outside every timed interval; a mismatch fails the run.

use crate::load::{self, LoadReport, Reply};
use crate::metrics::Metrics;
use crate::schedule::Schedule;
use crate::stats::{fastest, median, summarize};
use crate::trace::Trace;
use bench_suite::{
    churn_ops, scale_planted_partition, scale_ring_of_expanders, serve_query_stream,
};
use expander::{ClusterAssignment, ExpanderDecomposition};
use graph::{derive_seed, Graph, VertexSet};
use server::{Client, ServerConfig, ServerHandle};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use storage::artifact::{self, EngineSource};
use triangle::pipeline::{enumerate_with_assignment, PipelineParams, TriangleReport};
use triangle::service::{Query, QueryEngine, QueryOutcome, ServiceError};
use triangle::{count_triangles, ChurnPolicy, DeltaLedger, EdgeOp, RebuildReport};

/// Least set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Least time spent on set-ups per run, so that a set-up of a few
/// milliseconds is repeated until a burst of host noise moves only a
/// minority of the samples.
pub const SETUP_SECONDS: f64 = 0.5;
/// Timed listings per run on `enumerate-1m` (each takes about a
/// second). The job reports the fastest call: its work is fixed, and on
/// a shared host interference only adds time, so the fastest call is the
/// steadiest estimate of the program's own cost.
/// Successive listings in one run took 0.78–1.27 s with user CPU time
/// tracking the wall.
pub const LISTING_REPEATS: usize = 20;
/// Server restarts per run; `restart_s` is their median.
pub const RESTART_REPEATS: usize = 7;
/// Policy trips per run on `churn-serve-100k`.
pub const CHURN_ROUNDS: usize = 2;
/// The seed of every workload's instance: its graph and pipeline seed,
/// and on `churn-serve-100k` its churn ops too. `--seed` makes the
/// traffic: the read stream, and the churn ops of `enumerate-1m`. The
/// job's cost is a property of the instance: a churn rebuild broke 3 to
/// 7 of the 8 certificates depending on the seed, with staleness
/// following that count. Only a fixed instance lets `job_s` show a
/// change in that cost instead of seed-to-seed spread.
pub const INSTANCE_SEED: u64 = 42;
/// Open-loop read rate, the same on every workload (reads per second).
pub const READ_RATE: f64 = 200.0;
/// Churn batches per second.
pub const WRITE_RATE: f64 = 150.0;
/// Ops per churn batch.
pub const BATCH_OPS: usize = 8;
/// Worker threads for the decomposition and the cluster scheduler.
pub const WORKERS: usize = 2;
/// Latency limit for the `load.max_qps` ramp.
const MAX_QPS_P99_LIMIT: Duration = Duration::from_millis(10);
/// Rates tried by the `load.max_qps` ramp (traced runs only).
const RAMP_RATES: [f64; 5] = [200.0, 500.0, 1000.0, 2000.0, 4000.0];
/// Seconds per ramp step.
const RAMP_SECONDS: f64 = 1.0;
/// Distinct queries in the read stream (replayed cyclically).
const STREAM_LEN: usize = 4096;
/// How long reads may continue past a round's schedule waiting for the
/// rebuilt engine.
const MAX_EXTENSION: Duration = Duration::from_secs(60);

/// Which workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Ring of expanders at ≈10⁶ edges; the job lists every triangle.
    Enumerate1m,
    /// Planted partition at ≈10⁵ edges; the job is a policy-tripped
    /// rebuild under reads.
    ChurnServe100k,
}

impl Kind {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "enumerate-1m" => Some(Kind::Enumerate1m),
            "churn-serve-100k" => Some(Kind::ChurnServe100k),
            _ => None,
        }
    }

    /// The seed of the churn ops for run seed `seed`.
    fn churn_seed(self, seed: u64) -> u64 {
        match self {
            Kind::ChurnServe100k => INSTANCE_SEED,
            _ => seed,
        }
    }

    /// The instance's graph with its planted blocks and their
    /// conductance.
    fn graph(self, seed: u64) -> (Graph, Vec<VertexSet>, f64) {
        match self {
            Kind::Enumerate1m => {
                let (g, blocks) = scale_ring_of_expanders(1_000_000, seed);
                (g, blocks, 0.25)
            }
            Kind::ChurnServe100k => {
                let pp = scale_planted_partition(100_000, seed);
                (pp.graph, pp.blocks, 0.1)
            }
        }
    }
}

/// The run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Scheduled length of the open-loop read phase.
    pub seconds: f64,
    /// Where the run writes its `.csr` artifact.
    pub dir: PathBuf,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every metric, end-to-end and per layer.
    pub metrics: Metrics,
    /// Operations attempted (reads, churn batches, jobs, restarts, checks).
    pub attempted: u64,
    /// Operations that failed (Busy, error frames, unanswered reads).
    pub failed: u64,
    /// Oracle mismatches; any makes the run incorrect.
    pub mismatches: Vec<String>,
    /// Human-readable notes printed before the result.
    pub notes: Vec<String>,
}

/// Expected answers and in-process answer times of one engine generation.
type Oracle = (Vec<Result<QueryOutcome, ServiceError>>, Vec<f64>);

fn params(seed: u64) -> PipelineParams {
    PipelineParams {
        seed,
        recursion_workers: WORKERS,
        ..Default::default()
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` as a span named `name` under `parent`.
fn span<T>(trace: &Trace, name: &str, parent: u64, f: impl FnOnce() -> T) -> (T, Duration) {
    let open = trace.open();
    let out = f();
    let wall = open.start.elapsed();
    trace.close(open, name, Some(parent));
    (out, wall)
}

/// One set-up: the graph, its `.csr` file, and the frozen engine over
/// the planted clusters.
fn set_up(
    cfg: &Config,
    trace: &Trace,
    parent: u64,
    m: &mut Metrics,
) -> Result<(Graph, QueryEngine, PathBuf), String> {
    let ((g, blocks, phi), gen_wall) =
        span(trace, "graph.gen", parent, || cfg.kind.graph(INSTANCE_SEED));
    m.set("graph.gen_s", gen_wall.as_secs_f64());
    let path = cfg.dir.join("graph.csr");
    let (written, _) = span(trace, "storage.write_graph", parent, || {
        storage::write_graph(&g, &path)
    });
    written.map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let p = params(INSTANCE_SEED);
    let (assignment, assign_wall) = span(trace, "expander.assign", parent, || {
        ClusterAssignment::from_parts(&g, &blocks, phi, &p.scheduler_policy())
    });
    m.set("expander.assign_s", assign_wall.as_secs_f64());
    let (engine, _) = span(trace, "service.freeze", parent, || {
        QueryEngine::from_assignment(&g, assignment, &p)
    });
    Ok((g, engine, path))
}

/// Records the pipeline report's walls as children of the span `parent`
/// that started at `start` and lasted `wall`. The DLP, exchange and join
/// walls are summed worker time, scaled to fit the cluster phase's
/// elapsed wall.
fn record_listing(trace: &Trace, parent: u64, start: Instant, wall: Duration, r: &TriangleReport) {
    let p = &r.phases;
    let parts = trace.record_parts(
        parent,
        start,
        wall,
        &[
            ("expander.decompose", p.wall("decompose")),
            ("triangle.clusters", p.wall("clusters")),
            ("triangle.merge", p.wall("merge")),
        ],
    );
    if let Some(&(id, begin, within)) = parts.get(1) {
        trace.record_parts(
            id,
            begin,
            within,
            &[
                ("triangle.dlp", p.wall("clusters.dlp")),
                ("congest.exchange", p.wall("clusters.exchange")),
                ("triangle.join", p.wall("clusters.join")),
            ],
        );
    }
}

/// Lists every triangle of `g` on `assignment` as a traced span.
fn listing(
    trace: &Trace,
    parent: u64,
    g: &Graph,
    assignment: &ClusterAssignment,
    p: &PipelineParams,
) -> (TriangleReport, Duration) {
    let open = trace.open();
    let report = enumerate_with_assignment(g, assignment, p);
    let wall = open.start.elapsed();
    let id = trace.close(open, "triangle.enumerate", Some(parent));
    record_listing(trace, id, open.start, wall, &report);
    (report, wall)
}

fn listing_metrics(m: &mut Metrics, r: &TriangleReport) {
    let p = &r.phases;
    m.set("triangle.dlp_s", p.wall("clusters.dlp").as_secs_f64());
    m.set(
        "triangle.exchange_s",
        p.wall("clusters.exchange").as_secs_f64(),
    );
    m.set("triangle.join_s", p.wall("clusters.join").as_secs_f64());
    m.set("triangle.merge_s", p.wall("merge").as_secs_f64());
    m.set("triangle.dlp_ops", p.ops("dlp_accounting") as f64);
    let exchange = p.phase("enumerate");
    m.set("congest.exchange_rounds", exchange.rounds as f64);
    m.set("congest.exchange_words", exchange.words as f64);
    m.set("congest.exchange_messages", exchange.messages as f64);
    m.set("routing.queries_max", r.max_routing_queries() as f64);
    m.set("routing.words", r.max_routing_words() as f64);
    let rec = &r.recursion;
    m.set("expander.jobs", rec.total_jobs() as f64);
    m.set("expander.steals", rec.total_steals() as f64);
    m.set("expander.imbalance", rec.max_imbalance());
    let acquisitions = rec.scratch_hits + rec.scratch_misses;
    m.set(
        "expander.arena_hit_frac",
        rec.scratch_hits as f64 / acquisitions.max(1) as f64,
    );
}

fn engine_metrics(m: &mut Metrics, g: &Graph, e: &QueryEngine) {
    let b = e.build_report();
    m.set("expander.clusters", b.clusters as f64);
    let cluster_of = &e.assignment().cluster_of;
    let crossing = g
        .edges()
        .filter(|&(u, v)| cluster_of[u as usize] != cluster_of[v as usize])
        .count();
    m.set(
        "expander.removed_frac",
        crossing as f64 / g.m().max(1) as f64,
    );
    m.set("routing.build_rounds", b.hierarchy_build_rounds as f64);
    m.set("service.freeze_s", b.wall_freeze.as_secs_f64());
    m.set("service.snapshot_words", b.snapshot_words as f64);
}

/// Expected answers and in-process answer times for `stream`.
fn oracle(engine: &QueryEngine, stream: &[Query]) -> Oracle {
    let mut times = Vec::with_capacity(stream.len());
    let answers = stream
        .iter()
        .map(|q| {
            let t = Instant::now();
            let a = engine.answer(*q);
            times.push(us(t.elapsed()));
            a
        })
        .collect();
    (answers, times)
}

/// Starts the server from the stored artifact and waits for the first
/// answered `Ping`.
fn restart(path: &Path, p: &PipelineParams) -> Result<(ServerHandle, Duration), String> {
    let t = Instant::now();
    let (handle, source) = server::serve_path(path, p, &ServerConfig::default())
        .map_err(|e| format!("serve_path failed: {e}"))?;
    let mut client =
        Client::connect(handle.addr()).map_err(|e| format!("connect after restart: {e}"))?;
    client.ping().map_err(|e| format!("first ping: {e}"))?;
    let wall = t.elapsed();
    if source != EngineSource::Artifact {
        return Err("the server rebuilt the engine instead of restoring the artifact".into());
    }
    Ok((handle, wall))
}

/// The rebuild a serving loop runs on its background thread.
struct Rebuilt {
    report: RebuildReport,
    /// When the policy tripped (the sender handed the ledger over).
    tripped: Instant,
    rebuild_start: Instant,
    swap_start: Instant,
    swap_end: Instant,
}

/// One round of open-loop reads and churn batches.
struct Round {
    load: LoadReport,
    /// Start and wall of each `apply` call.
    applies: Vec<(Instant, Duration)>,
    intersect_words: u64,
    touched_clusters: usize,
    rebuilt: Option<Rebuilt>,
    ledger: DeltaLedger,
}

/// Runs one round: reads and write batches on their schedules. With a
/// `budget` the policy trips on it, the sender hands the ledger to a
/// background rebuild, and reads continue until one is answered at the
/// swapped-in generation.
#[allow(clippy::too_many_arguments)]
fn serve_round(
    handle: &ServerHandle,
    stream: &[Query],
    reads: Schedule,
    writes: Schedule,
    batches: &[&[EdgeOp]],
    ledger: DeltaLedger,
    budget: Option<usize>,
    p: &PipelineParams,
) -> Result<Round, String> {
    let policy = ChurnPolicy {
        max_stale_edges: budget.unwrap_or(usize::MAX),
        max_stale_secs: f64::INFINITY,
    };
    let trip = budget.map(|_| handle.generation() + 1);
    std::thread::scope(|scope| {
        let (to_rebuild, rebuild_rx) = mpsc::channel::<(DeltaLedger, Instant)>();
        let rebuilder = scope.spawn(move || -> Option<(Rebuilt, DeltaLedger)> {
            let (mut ledger, tripped) = rebuild_rx.recv().ok()?;
            let rebuild_start = Instant::now();
            let report = ledger.rebuild(p);
            let swap_start = Instant::now();
            handle.swap_engine(Arc::clone(&report.engine));
            let swap_end = Instant::now();
            let rebuilt = Rebuilt {
                report,
                tripped,
                rebuild_start,
                swap_start,
                swap_end,
            };
            Some((rebuilt, ledger))
        });
        let mut ledger = Some(ledger);
        let mut applies: Vec<(Instant, Duration)> = Vec::with_capacity(batches.len());
        let mut intersect_words = 0u64;
        let mut touched_clusters = 0usize;
        let load = load::run(
            handle.addr(),
            stream,
            reads,
            writes,
            |j| {
                let Some(l) = ledger.as_mut() else { return };
                let t = Instant::now();
                let r = l.apply(batches[j]);
                applies.push((t, t.elapsed()));
                intersect_words += r.intersect_words;
                touched_clusters += r.touched_clusters;
                if l.needs_rebuild(&policy) {
                    let l = ledger.take().expect("ledger present");
                    let _ = to_rebuild.send((l, Instant::now()));
                }
            },
            trip,
            MAX_EXTENSION,
        );
        drop(to_rebuild);
        let rebuilt = rebuilder.join().expect("rebuild thread panicked");
        let load = load.map_err(|e| format!("open-loop connection failed: {e}"))?;
        let (rebuilt, ledger) = match (rebuilt, ledger) {
            (Some((r, l)), None) => (Some(r), l),
            (None, Some(l)) => (None, l),
            _ => return Err("the ledger was lost between sender and rebuild".to_string()),
        };
        if trip.is_some() != rebuilt.is_some() {
            return Err("the churn policy tripped when it should not, or did not trip".into());
        }
        Ok(Round {
            load,
            applies,
            intersect_words,
            touched_clusters,
            rebuilt,
            ledger,
        })
    })
}

/// Runs one workload and returns what it measured.
pub fn run(cfg: &Config, trace: &Trace) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let p = params(INSTANCE_SEED);
    let root = trace.open();
    let root_id = root.id;

    // ── 1. Set-up, repeated; the last repetition's input is kept. ──
    let mut setup_walls: Vec<f64> = Vec::with_capacity(SETUP_REPEATS);
    let mut input = None;
    while setup_walls.len() < SETUP_REPEATS || setup_walls.iter().sum::<f64>() < SETUP_SECONDS {
        drop(input.take());
        let open = trace.open();
        let made = set_up(cfg, trace, open.id, &mut out.metrics);
        setup_walls.push(open.start.elapsed().as_secs_f64());
        trace.close(open, "bench.setup", Some(root_id));
        input = Some(made?);
    }
    out.metrics.put(
        "setup_s",
        median(&setup_walls),
        setup_walls.len(),
        Some(50.0),
    );
    let (g, engine, path) = input.expect("at least one set-up");
    out.notes.push(format!(
        "graph: n = {}, m = {} ({:?}, instance seed {INSTANCE_SEED}, traffic seed {})",
        g.n(),
        g.m(),
        cfg.kind,
        cfg.seed
    ));

    // ── 2. The job (the churn workload's comes with its reads). ──
    let check_open = trace.open();
    let triangles = count_triangles(&g);
    trace.close(check_open, "bench.oracle", Some(root_id));
    let mut listed: Option<TriangleReport> = None;
    if cfg.kind == Kind::Enumerate1m {
        let mut walls = Vec::with_capacity(LISTING_REPEATS);
        // Call 0 is the untimed warm-up.
        for i in 0..=LISTING_REPEATS {
            let (report, wall) = listing(trace, root_id, &g, engine.assignment(), &p);
            if i > 0 {
                walls.push(wall.as_secs_f64());
            }
            out.attempted += 1;
            if report.count() != triangles {
                out.mismatches.push(format!(
                    "listing found {} triangles, count_triangles finds {triangles}",
                    report.count()
                ));
            }
            listed.get_or_insert(report);
        }
        out.metrics
            .put("job_s", fastest(&walls), walls.len(), Some(0.0));
        out.notes.push(format!("listings: {walls:.3?} s"));
    }
    engine_metrics(&mut out.metrics, &g, &engine);

    // ── 3. Store, restore, restart. ──
    let (stored, store_wall) = span(trace, "storage.store", root_id, || {
        artifact::store(&path, &engine)
    });
    stored.map_err(|e| format!("artifact store failed: {e}"))?;
    drop(engine);
    out.metrics.set("storage.store_s", store_wall.as_secs_f64());
    out.metrics.set(
        "storage.artifact_bytes",
        std::fs::metadata(&path).map_or(0, |md| md.len()) as f64,
    );
    let (restored, restore_wall) = span(trace, "storage.restore", root_id, || {
        storage::CsrFile::open(&path).and_then(|f| artifact::load(&f))
    });
    drop(restored.map_err(|e| format!("artifact restore failed: {e}"))?);
    out.metrics
        .set("storage.restore_s", restore_wall.as_secs_f64());
    let mut restarts = Vec::with_capacity(RESTART_REPEATS);
    let mut handle = None;
    for _ in 0..RESTART_REPEATS {
        if let Some(h) = handle.take() {
            ServerHandle::shutdown(h);
        }
        let (started, _) = span(trace, "server.restart", root_id, || restart(&path, &p));
        let (h, wall) = started?;
        restarts.push(wall.as_secs_f64());
        out.attempted += 1;
        handle = Some(h);
    }
    let handle = handle.expect("at least one restart");
    out.metrics.put(
        "server.restart_s",
        median(&restarts),
        restarts.len(),
        Some(50.0),
    );
    let served = handle.engine();
    let generation0 = handle.generation();

    // ── Oracle and inputs for the read phase (untimed). ──
    let oracle_open = trace.open();
    let stream = serve_query_stream(&g, STREAM_LEN, cfg.seed ^ 0x5E17E);
    let mut oracles: BTreeMap<u64, Oracle> = BTreeMap::new();
    oracles.insert(generation0, oracle(&served, &stream));
    let answer = summarize(&oracles[&generation0].1);
    out.metrics.put(
        "service.answer_p50_us",
        answer.p50,
        answer.count,
        Some(50.0),
    );
    out.metrics.put(
        "service.answer_p99_us",
        answer.tail,
        answer.count,
        Some(answer.tail_pct),
    );
    let words_total: u64 = oracles[&generation0]
        .0
        .iter()
        .filter_map(|a| a.as_ref().ok())
        .map(|o| o.charge.words)
        .sum();
    out.metrics.set("service.words_total", words_total as f64);
    let rounds = if cfg.kind == Kind::ChurnServe100k {
        CHURN_ROUNDS
    } else {
        1
    };
    let reads = Schedule::for_duration(READ_RATE, cfg.seconds / rounds as f64);
    let writes = Schedule::for_duration(WRITE_RATE, cfg.seconds / rounds as f64);
    let ops = churn_ops(
        &g,
        cfg.kind.churn_seed(cfg.seed) ^ 0xC0FFEE,
        rounds * writes.count * BATCH_OPS,
    );
    let batches: Vec<&[EdgeOp]> = ops.chunks(BATCH_OPS).collect();
    // The churn workload trips its policy on each round's last batch: a
    // dry run counts what each round applies (a rebuild keeps the graph,
    // so the counts carry over). The others never rebuild.
    let budgets: Vec<Option<usize>> = if cfg.kind == Kind::ChurnServe100k {
        let mut dry = DeltaLedger::new(&g, Arc::clone(&served));
        batches
            .chunks(writes.count)
            .map(|round| Some(round.iter().map(|b| dry.apply(b).applied).sum()))
            .collect()
    } else {
        vec![None]
    };
    trace.close(oracle_open, "bench.oracle", Some(root_id));

    let (mut ledger, open_wall) = span(trace, "churn.open", root_id, || {
        DeltaLedger::new(&g, Arc::clone(&served))
    });
    out.metrics.set("churn.open_s", open_wall.as_secs_f64());
    let stats_before = handle.stats();

    // ── 4. Open-loop reads with churn batches, round by round. ──
    let reads_open = trace.open();
    let reads_id = reads_open.id;
    let mut loads: Vec<LoadReport> = Vec::with_capacity(rounds);
    let mut applies: Vec<f64> = Vec::new();
    let mut stales: Vec<f64> = Vec::new();
    let mut rebuild_walls: Vec<f64> = Vec::new();
    let mut swap_walls: Vec<f64> = Vec::new();
    let (mut intersect_words, mut touched) = (0u64, 0usize);
    let (mut checked, mut broken, mut reused, mut refrozen, mut absorbed) = (0, 0, 0, 0, 0);
    for (r, budget) in budgets.iter().enumerate() {
        let before = handle.generation();
        let round = serve_round(
            &handle,
            &stream,
            reads,
            writes,
            &batches[r * writes.count..(r + 1) * writes.count],
            ledger,
            *budget,
            &p,
        )?;
        ledger = round.ledger;
        for &(start, wall) in &round.applies {
            trace.record(0, "churn.apply", Some(reads_id), start, start + wall, None);
            applies.push(us(wall));
        }
        intersect_words += round.intersect_words;
        touched += round.touched_clusters;
        if trace.enabled() {
            // Per-request spans share the request id.
            let start = round.load.start;
            for a in &round.load.answered {
                trace.record(
                    0,
                    "server.read",
                    Some(reads_id),
                    start + reads.due(a.index),
                    start + a.at,
                    Some(a.index as u64 + 1),
                );
            }
        }
        if let Some(rb) = &round.rebuilt {
            trace.record(
                0,
                "churn.rebuild",
                Some(reads_id),
                rb.rebuild_start,
                rb.swap_start,
                None,
            );
            trace.record(
                0,
                "server.swap",
                Some(reads_id),
                rb.swap_start,
                rb.swap_end,
                None,
            );
            let new_gen = before + 1;
            let first = round
                .load
                .answered
                .iter()
                .filter(|a| a.generation >= new_gen && matches!(a.reply, Reply::Answer(_)))
                .map(|a| a.at)
                .min()
                .ok_or("no read was answered at the rebuilt generation")?;
            let rep = &rb.report;
            let stale = (round.load.start + first)
                .saturating_duration_since(rb.tripped)
                .as_secs_f64();
            stales.push(stale);
            rebuild_walls.push((rb.swap_start - rb.rebuild_start).as_secs_f64());
            swap_walls.push((rb.swap_end - rb.swap_start).as_secs_f64());
            (checked, broken, reused, refrozen, absorbed) = (
                checked + rep.checked,
                broken + rep.broken,
                reused + rep.reused,
                refrozen + rep.rebuilt,
                absorbed + rep.absorbed,
            );
            out.notes.push(format!(
                "round {r}: rebuild {:.3} s ({} checked, {} broken, {} reused, {} refrozen), \
                 swap {:.1} us, stale {stale:.3} s",
                rep.wall.as_secs_f64(),
                rep.checked,
                rep.broken,
                rep.reused,
                rep.rebuilt,
                us(rb.swap_end - rb.swap_start),
            ));
            let oracle_open = trace.open();
            oracles.insert(new_gen, oracle(&rep.engine, &stream));
            trace.close(oracle_open, "bench.oracle", Some(root_id));
        }
        loads.push(round.load);
    }
    trace.close(reads_open, "load.open_loop", Some(root_id));
    let stats_after = handle.stats();
    if cfg.kind == Kind::ChurnServe100k {
        out.metrics
            .put("job_s", median(&stales), stales.len(), Some(50.0));
        out.attempted += stales.len() as u64;
    }
    for (name, walls) in [
        ("churn.rebuild_s", &rebuild_walls),
        ("server.swap_s", &swap_walls),
    ] {
        out.metrics
            .put(name, median(walls), walls.len(), Some(50.0));
    }
    for (name, v) in [
        ("churn.recluster_checked", checked),
        ("churn.recluster_broken", broken),
        ("churn.absorbed", absorbed),
    ] {
        out.metrics.set(name, v as f64);
    }
    out.metrics
        .set("churn.broken_frac", broken as f64 / checked.max(1) as f64);
    out.metrics.set(
        "churn.reused_frac",
        reused as f64 / (reused + refrozen).max(1) as f64,
    );

    // ── Check every read against the oracle of its generation. ──
    let mut latencies: Vec<f64> = Vec::new();
    let mut overheads: Vec<f64> = Vec::new();
    let (mut sent, mut answered, mut failed_reads) = (0usize, 0usize, 0u64);
    let mut refused: BTreeMap<&str, u64> = BTreeMap::new();
    let mut late: Vec<f64> = Vec::new();
    for load in &loads {
        let mut replies: Vec<_> = load.answered.iter().collect();
        replies.sort_by_key(|a| a.index);
        for a in replies {
            let k = a.index % stream.len();
            let want = oracles.get(&a.generation);
            match (&a.reply, want) {
                (Reply::Answer(got), Some((answers, times))) if answers[k].as_ref() == Ok(got) => {
                    latencies.push(ms(a.latency));
                    overheads.push((us(a.latency) - times[k]).max(0.0));
                }
                (Reply::Answer(_), _) => out.mismatches.push(format!(
                    "read {} (generation {}) differs from the in-process answer",
                    a.index, a.generation
                )),
                (other, _) => {
                    failed_reads += 1;
                    *refused.entry(other.kind()).or_default() += 1;
                }
            }
        }
        let unanswered = load.sent.saturating_sub(load.answered.len());
        if unanswered > 0 {
            *refused.entry("unanswered").or_default() += unanswered as u64;
        }
        sent += load.sent;
        answered += load.answered.len();
        failed_reads += load.sent.saturating_sub(load.answered.len()) as u64;
        late.extend(load.late.iter().map(|d| ms(*d)));
    }
    out.attempted += sent as u64;
    out.failed += failed_reads;
    let read = summarize(&latencies);
    out.metrics
        .put("read_p50_ms", read.p50, read.count, Some(50.0));
    out.metrics.put(
        "load.read_p99_ms",
        read.tail,
        read.count,
        Some(read.tail_pct),
    );
    let over = summarize(&overheads);
    out.metrics
        .put("server.overhead_p50_us", over.p50, over.count, Some(50.0));
    out.metrics.put(
        "server.overhead_p99_us",
        over.tail,
        over.count,
        Some(over.tail_pct),
    );
    let late = summarize(&late);
    out.metrics.put(
        "load.late_p99_ms",
        late.tail,
        late.count,
        Some(late.tail_pct),
    );
    out.metrics.set("load.sent", sent as f64);
    out.metrics.set("load.answered", answered as f64);
    let served_batches = stats_after.batches - stats_before.batches;
    out.metrics.set(
        "server.queries_per_batch",
        (stats_after.answered - stats_before.answered) as f64 / served_batches.max(1) as f64,
    );
    let busy = stats_after.busy - stats_before.busy;
    out.metrics.set(
        "server.busy_frac",
        busy as f64 / (stats_after.answered - stats_before.answered + busy).max(1) as f64,
    );
    let apply = summarize(&applies);
    out.metrics
        .put("apply_p50_us", apply.p50, apply.count, Some(50.0));
    out.metrics.put(
        "churn.apply_p99_us",
        apply.tail,
        apply.count,
        Some(apply.tail_pct),
    );
    out.attempted += applies.len() as u64;
    out.metrics.set("churn.batches", applies.len() as f64);
    out.metrics
        .set("churn.intersect_words", intersect_words as f64);
    out.metrics.set("churn.touched_clusters", touched as f64);
    out.notes.push(format!(
        "reads: {sent} sent at {READ_RATE} q/s in {rounds} round(s), {answered} answered, \
         {failed_reads} failed {refused:?}; {} churn batches of {BATCH_OPS} ops at {WRITE_RATE}/s",
        applies.len(),
    ));

    // ── The final ledger check. ──
    let check_open = trace.open();
    let live = ledger.working().to_graph();
    let recount = count_triangles(&live);
    out.attempted += 1;
    if ledger.triangles() != recount {
        out.mismatches.push(format!(
            "ledger holds {} triangles, a recount finds {recount}",
            ledger.triangles()
        ));
    }
    drop((ledger, live));
    trace.close(check_open, "bench.oracle", Some(root_id));

    // ── 5. Per layer: the cluster-phase listing, then the rate ramp. ──
    let listed = match listed.take() {
        Some(report) => report,
        None => {
            let (report, _) = listing(trace, root_id, &g, served.assignment(), &p);
            out.attempted += 1;
            if report.count() != triangles {
                out.mismatches.push(format!(
                    "listing found {} triangles, count_triangles finds {triangles}",
                    report.count()
                ));
            }
            report
        }
    };
    listing_metrics(&mut out.metrics, &listed);
    if trace.enabled() {
        if cfg.kind == Kind::ChurnServe100k {
            // The rebuild re-decomposes broken blocks; a decomposition
            // of the whole instance measures that layer on its own.
            let assignment = decompose_directly(trace, root_id, &g, &p, &mut out.metrics)?;
            let (report, _) = listing(trace, root_id, &g, &assignment, &p);
            out.attempted += 1;
            if report.count() != triangles {
                out.mismatches.push(format!(
                    "listing on a direct decomposition found {} triangles, count_triangles finds \
                     {triangles}",
                    report.count()
                ));
            }
        } else {
            // The listing workload runs on planted clusters and bypasses
            // the decomposition.
            for name in [
                "expander.decompose_s",
                ROUNDS[0].0,
                ROUNDS[1].0,
                ROUNDS[2].0,
            ] {
                out.metrics.set(name, 0.0);
            }
        }
    }
    drop(served);
    if trace.enabled() {
        let (current, _) = oracles.iter().next_back().expect("generation 0 oracle");
        let current = &oracles[current].0;
        let (qps, _) = span(trace, "load.ramp", root_id, || {
            max_qps(&handle, &stream, current, &mut out)
        });
        out.metrics.set("load.max_qps", qps);
    }

    span(trace, "server.shutdown", root_id, || handle.shutdown());
    let _ = std::fs::remove_file(&path);
    out.metrics.set("peak_rss_mb", peak_rss_mb());
    trace.close(root, "bench.run", None);
    Ok(out)
}

/// Round-ledger category sums: metric name and category prefix.
const ROUNDS: [(&str, &str); 3] = [
    ("expander.rounds.nibble", "nibble."),
    ("expander.rounds.parallel_nibble", "parallel_nibble."),
    ("expander.rounds.ldd", "ldd."),
];

/// Runs Theorem 1 on `g` as `QueryEngine::build` does, timing the
/// decomposition and summing its round ledger by category. Returns the
/// cluster assignment.
fn decompose_directly(
    trace: &Trace,
    parent: u64,
    g: &Graph,
    p: &PipelineParams,
    m: &mut Metrics,
) -> Result<ClusterAssignment, String> {
    let decomposition = ExpanderDecomposition::builder()
        .epsilon(p.epsilon.clamp(1e-3, 1.0 / 6.0))
        .k(p.decomposition_k.max(1))
        .mode(p.mode)
        .seed(derive_seed(p.seed, 0))
        .build();
    let (result, wall) = span(trace, "expander.decompose", parent, || decomposition.run(g));
    let result = result.map_err(|e| format!("decomposition failed: {e}"))?;
    m.set("expander.decompose_s", wall.as_secs_f64());
    let (assignment, _) = span(trace, "expander.assign", parent, || {
        result.cluster_assignment_with(g, &p.scheduler_policy())
    });
    for (name, prefix) in ROUNDS {
        let rounds: u64 = result
            .ledger
            .iter()
            .filter(|(category, _)| category.starts_with(prefix))
            .map(|(_, r)| r)
            .sum();
        m.set(name, rounds as f64);
    }
    Ok(assignment)
}

/// The highest ramp rate whose reads all succeed with p99 within the
/// limit and no growing backlog (the last quarter's median latency stays
/// within twice the first quarter's plus 1 ms). Wire answers are checked
/// against `oracle`.
fn max_qps(
    handle: &ServerHandle,
    stream: &[Query],
    oracle: &[Result<QueryOutcome, ServiceError>],
    out: &mut Outcome,
) -> f64 {
    let mut best = 0.0;
    for rate in RAMP_RATES {
        let reads = Schedule::for_duration(rate, RAMP_SECONDS);
        let none = Schedule {
            rate: 1.0,
            count: 0,
        };
        let Ok(r) = load::run(
            handle.addr(),
            stream,
            reads,
            none,
            |_| {},
            None,
            Duration::ZERO,
        ) else {
            break;
        };
        for a in &r.answered {
            if let (Reply::Answer(got), Ok(want)) = (&a.reply, &oracle[a.index % stream.len()]) {
                if got != want {
                    out.mismatches.push(format!(
                        "ramp read {} differs from the in-process answer",
                        a.index
                    ));
                }
            }
        }
        let ok = r.answered.len() == r.sent
            && r.answered
                .iter()
                .all(|a| matches!(a.reply, Reply::Answer(_)));
        let mut by_index: Vec<(usize, f64)> = r
            .answered
            .iter()
            .map(|a| (a.index, ms(a.latency)))
            .collect();
        by_index.sort_by_key(|x| x.0);
        let lat: Vec<f64> = by_index.iter().map(|x| x.1).collect();
        let q = lat.len() / 4;
        let growing = q > 0 && median(&lat[lat.len() - q..]) > 2.0 * median(&lat[..q]) + 1.0;
        let tail = summarize(&lat);
        out.notes.push(format!(
            "ramp {rate} q/s: {} answered of {}, p{} {:.3} ms, backlog {}",
            r.answered.len(),
            r.sent,
            tail.tail_pct,
            tail.tail,
            if growing { "growing" } else { "steady" }
        ));
        if !ok || growing || tail.tail > ms(MAX_QPS_P99_LIMIT) {
            break;
        }
        best = rate;
    }
    best
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
