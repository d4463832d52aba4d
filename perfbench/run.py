"""lawvere benchmark: time to verdict of the checkers, end to end and by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fs-sweep --seed 0 --seconds 30 \
        --trace 0

The load is a closed loop: one client, one process at a time, no threads.
Every pass runs in a fresh worker process (perfbench/worker.py), because
the program keeps state across calls (cached composite theories) that a
CLI user pays for on every invocation.  Passes repeat until the next one
would end after ``--seconds``; at least ``MIN_ROUNDS`` always run.

``--trace 0`` reports the end-to-end metrics (``end_to_end`` says which
statistics).  Times are stated at one fixed host speed: each pass's times
are multiplied by its ``speed``, from the probe (perfbench/probe.py)
timed between its requests; the provenance line keeps the measured
median pass time and probe time.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones plus
``trace.overhead_ratio``.  Every op's verdict, work counts and report
digest are checked against expected.json and digests.json; the last
line of standard output is the result object, after a provenance line.
Without ``src/lawvere`` next to this directory the benchmark exits with
status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEED = "0"       # PYTHONHASHSEED of every worker; recorded in results
MIN_ROUNDS = 2
PASS_TIMEOUT_S = 120  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_pass(workload: str, seed: int, trace: bool,
             hash_seed: str = HASH_SEED) -> dict:
    """One pass in a fresh worker process; returns the worker's record."""
    env = dict(os.environ)
    env.pop("LAWVERE_SAMPLES", None)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(ROOT / "src")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--spawned"]
    try:
        proc = subprocess.run(cmd + [repr(time.perf_counter())], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass timed out after {exc.timeout}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Rounds of passes (untraced, plus traced when tracing) until the
    next round would overrun ``seconds``."""
    modes = (False, True) if trace else (False,)
    start = time.perf_counter()
    deadline = start + seconds
    passes = []
    rounds = 0
    while True:
        for mode in modes:
            passes.append(run_pass(workload, seed, mode))
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - start) / rounds > deadline:
            return passes


def percentile(values: list, q: int) -> float:
    """The q-th percentile (q in 1..99) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def speed(p: dict) -> float:
    """The factor that states a pass's times at the probe's nominal host
    speed: probe.NOMINAL_S over the pass's mean probe time."""
    return probe.NOMINAL_S / statistics.fmean(p["probe_s"])


def end_to_end(passes: list) -> tuple:
    """End-to-end metrics and the request sample count.

    Every time is measured, then multiplied by its pass's ``speed``: the
    shared host's speed drifts by tens of percent over minutes, and the
    probe, timed between the pass's requests, follows that drift.  Every
    metric is then a median over the run's passes; a request's time is
    its median over the passes, and the percentiles are over the
    workload's requests.
    """
    times: dict = {}
    for p in passes:
        for op in p["ops"]:
            times.setdefault(op["id"], []).append(op["seconds"] * speed(p))
    requests = [statistics.median(v) for v in times.values()]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] * speed(p)
                                     for p in passes),
        "wall_s": statistics.median(p["wall_s"] * speed(p) for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "request_s.p50": statistics.median(requests),
        "request_s.p90": percentile(requests, 90),
    }
    return metrics, len(requests)


def per_layer(passes: list) -> tuple:
    """Per-layer metrics from the traced passes, times multiplied by the
    pass's ``speed`` as in ``end_to_end``; the problems list names
    counters that differ between traced passes."""
    traced = [p for p in passes if p["trace"]]
    plain = [p for p in passes if not p["trace"]]
    names = list(traced[0]["layers"])
    metrics, problems = {}, []
    for name in names:
        values = [p["layers"][name] for p in traced]
        if name.endswith(".self_s"):
            metrics[name] = statistics.median(
                v * speed(p) for v, p in zip(values, traced))
        else:
            if len(set(values)) > 1:
                problems.append(f"{name} differs between passes: {values}")
            metrics[name] = values[0]
    metrics["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] * speed(p) for p in traced)
        / statistics.median(p["wall_s"] * speed(p) for p in plain))
    return metrics, problems


def verify(passes: list) -> tuple:
    """Ops attempted and failed, plus problems: failed checks, and digests
    that differ between passes of the same inputs."""
    attempted = failed = 0
    problems, seen = [], {}
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems.append(f"{op['id']}: {'; '.join(op['problems'])}")
            d = op.get("digest")
            if seen.setdefault(op["id"], d) != d:
                problems.append(f"{op['id']}: digest differs between passes")
    return attempted, failed, problems


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, passes: list,
               request_samples: int) -> dict:
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "platform": platform.platform(), "git_commit": git_commit(),
        "hash_seed": HASH_SEED,
        "workload": workload, "seed": seed, "passes": len(passes),
        "traced_passes": sum(1 for p in passes if p["trace"]),
        "request_samples": request_samples,
        # as measured in the untraced passes, before multiplying by speed
        "measured_wall_s": statistics.median(p["wall_s"] for p in passes
                                             if not p["trace"]),
        "probe_s": statistics.median(t for p in passes
                                     for t in p["probe_s"]),
        "work_counts": {op["id"]: op.get("counts")
                        for op in passes[0]["ops"]},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure and check one workload.

    Returns ops attempted and failed, the problems (failed checks, digests
    or counters that differ), the end-to-end metrics (from the untraced
    passes), the per-layer metrics (from the traced passes; None without
    tracing), the passes and the provenance.
    """
    passes = measure(workload, seed, seconds, trace)
    attempted, failed, problems = verify(passes)
    e2e, samples = end_to_end([p for p in passes if not p["trace"]])
    layers = None
    if trace:
        layers, layer_problems = per_layer(passes)
        problems += layer_problems
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "end_to_end": e2e, "per_layer": layers, "passes": passes,
            "provenance": provenance(workload, seed, passes, samples)}


def result_object(measured: dict, trace: bool) -> dict:
    """The result line: the per-layer metrics when tracing, else the
    end-to-end ones, each with the unit BENCHMARK.json gives it."""
    kind = "per_layer" if trace else "end_to_end"
    values = measured[kind]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in benchmark_spec()[kind]}
    return {"correct": not measured["problems"],
            "attempted": measured["attempted"], "failed": measured["failed"],
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "lawvere" / "__init__.py").is_file():
        print(f"no lawvere sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    try:
        measured = run(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for line in measured["problems"][:50]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps({"provenance": measured["provenance"]}))
    print(json.dumps(result_object(measured, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
