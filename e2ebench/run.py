#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `e2ebench` package in release
mode (into $CARGO_TARGET_DIR, default `.bench_build`), runs it, appends
its provenance record to `.bench_run/history.jsonl`, and passes its
output through: the last line is the JSON result. Exits non-zero when the
build fails, the run fails, or an oracle check fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_run")
RUN_TIMEOUT_S = 170


def source_digest():
    """A digest of the sources the benchmark builds."""
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "e2ebench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, fs in os.walk(path)
            for f in fs
            if f.endswith((".rs", ".toml", ".lock", ".py"))
        )
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def git(*args):
    """The output of a git command in the repository, or None."""
    try:
        out = subprocess.run(["git", "-C", ROOT, *args],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_id():
    """The git commit of a clean tree; the commit plus a digest of the
    sources when the tree has uncommitted changes; outside git, the
    digest alone."""
    head = git("rev-parse", "HEAD")
    if not head:
        return "src-" + source_digest()
    if git("status", "--porcelain"):
        return f"{head}+dirty-{source_digest()}"
    return head


def run_index(workload):
    """How many records of this workload the history already holds."""
    path = os.path.join(RUN_DIR, "history.jsonl")
    if not os.path.exists(path):
        return 0
    with open(path) as fh:
        return sum(1 for line in fh if f'"workload": "{workload}"' in line)


def untraced_comparison(record):
    """Lines comparing a traced record's end-to-end metrics with the
    latest untraced record of the same sources, workload and seed."""
    path = os.path.join(RUN_DIR, "history.jsonl")
    base = None
    with open(path) as fh:
        for line in fh:
            r = json.loads(line)
            key = (r["commit"], r["workload"], r["seed"], r["trace"])
            if key == (record["commit"], record["workload"], record["seed"], 0):
                base = r
    if base is None:
        return ["  tracing overhead vs untraced: no untraced run of these sources, workload and seed yet"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    out = [f"  tracing overhead vs untraced run {base['run_index']} (same sources, workload and seed):"]
    for name in names:
        m, traced = base["metrics"].get(name), record["metrics"].get(name)
        if m and traced and m["value"]:
            change = 100.0 * (traced["value"] - m["value"]) / m["value"]
            out.append(f"    {name:<14} traced {traced['value']:.6g} vs {m['value']:.6g} ({change:+.1f}%)")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
        env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return 2

    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "e2ebench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", args.trace,
        "--commit", source_id(),
        "--run-index", str(run_index(args.workload)),
        "--run-dir", RUN_DIR,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stderr or b"").decode(errors="replace")
                         if isinstance(e.stderr, bytes) else (e.stderr or ""))
        print(f"e2ebench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    records = [json.loads(line[len("record: "):])
               for line in lines if line.startswith("record: ")]
    for record in records:
        if record["trace"] == 1:
            lines[-1:-1] = untraced_comparison(record)
        with open(os.path.join(RUN_DIR, "history.jsonl"), "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print("\n".join(lines))
    if proc.returncode != 0 or not lines:
        print(f"e2ebench: run failed with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
