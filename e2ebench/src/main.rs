//! The repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!          [--commit <id>] [--run-index <i>] [--run-dir <dir>]
//! ```
//!
//! Prints a human-readable report, a `record:` line with provenance and
//! every metric's sample count, and as the last line one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics` (end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`). Exits
//! non-zero when any oracle check fails.

mod load;
mod metrics;
mod schedule;
mod stats;
mod trace;
mod workload;

use metrics::{json_number, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use trace::{self_time_by_layer, Trace};
use workload::{Config, Kind, Outcome};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    run_index: u64,
    run_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut commit = "unknown".to_string();
    let mut run_index = 0;
    let mut run_dir = PathBuf::from(".bench_run");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"want 0 or 1")),
                })
            }
            "--commit" => commit = value,
            "--run-index" => run_index = value.parse().map_err(|e| bad(&e))?,
            "--run-dir" => run_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        commit,
        run_index,
        run_dir,
    })
}

fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_report(args: &Args, out: &Outcome) {
    println!(
        "e2ebench {} seed {} ({} s reads, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!(
        "  {:<28} {:>16} {:<6} {:>8} {:>6}",
        "metric", "value", "unit", "samples", "pct"
    );
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        if let Some(v) = out.metrics.get(name) {
            println!(
                "  {name:<28} {:>16.6} {unit:<6} {:>8} {:>6}",
                v.value,
                v.samples,
                v.percentile.map_or("-".to_string(), |p| format!("p{p}")),
            );
        }
    }
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  failed_frac {frac} ({} of {} operations)",
        out.failed, out.attempted
    );
}

fn print_self_times(trace: &Trace) {
    let spans = trace.spans();
    let Some(root) = spans.iter().find(|s| s.name == "bench.run") else {
        return;
    };
    let wall = root.end - root.start;
    let layers = self_time_by_layer(&spans);
    println!("  per-layer self time (exclusive; rows add up to the run's wall):");
    for (layer, t) in &layers {
        println!(
            "    {layer:<10} {:>10.4} s {:>6.1}%",
            t.as_secs_f64(),
            100.0 * t.as_secs_f64() / wall.as_secs_f64()
        );
    }
    let sum: Duration = layers.values().sum();
    println!(
        "    {:<10} {:>10.4} s (run wall {:.4} s)",
        "total",
        sum.as_secs_f64(),
        wall.as_secs_f64()
    );
    println!(
        "  tracing overhead: {:.6} s in the recorder for {} spans ({:.4}% of the traced wall)",
        trace.overhead().as_secs_f64(),
        spans.len(),
        100.0 * trace.overhead().as_secs_f64() / wall.as_secs_f64()
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(kind) = Kind::from_name(&args.workload) else {
        eprintln!(
            "e2ebench: unknown workload {:?} (want one of {:?})",
            args.workload,
            metrics::WORKLOADS
        );
        return ExitCode::from(2);
    };
    let dir = args
        .run_dir
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("e2ebench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let cfg = Config {
        kind,
        seed: args.seed,
        seconds: args.seconds,
        dir: dir.clone(),
    };
    let trace = Trace::new(args.trace);
    let result = workload::run(&cfg, &trace);
    let _ = std::fs::remove_dir_all(&dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    print_report(&args, &out);
    if args.trace {
        let path = args
            .run_dir
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match trace.write_jsonl(&path) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
        }
        print_self_times(&trace);
    }
    for m in &out.mismatches {
        println!("  MISMATCH: {m}");
    }
    let correct = out.mismatches.is_empty();
    let frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "record: {{\"workload\": \"{}\", \"seed\": {}, \"run_index\": {}, \"commit\": \"{}\", \
         \"nproc\": {}, \"trace\": {}, \"seconds\": {}, \"correct\": {correct}, \"attempted\": {}, \
         \"failed\": {}, \"failed_frac\": {}, \"metrics\": {{{}}}}}",
        args.workload,
        args.seed,
        args.run_index,
        args.commit,
        available_cores(),
        args.trace as u8,
        json_number(args.seconds),
        out.attempted,
        out.failed,
        json_number(frac),
        out.metrics
            .record_entries(&[&END_TO_END[..], &PER_LAYER[..]].concat()),
    );
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let entries = match out.metrics.json_entries(declared) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{entries}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
