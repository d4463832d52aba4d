"""One pass of one workload, in a fresh process.

Usage (normally started by run.py, with PYTHONPATH pointing at src/):

    python3 perfbench/worker.py --workload fs-sweep --seed 0 --trace 0 \
        --spawned <time.perf_counter() of the parent just before spawning>

Set-up runs from process start until the first op is ready: interpreter
start, importing lawvere, building the workload's theories and inputs.
The pass then runs every op once, timing each, with the host-speed probe
(probe.py) timed between ops, and prints one JSON line: set-up time, pass
wall time (the ops' times, without the probes), the probe times, peak
RSS, and per op its time, verdict, work counts, report digest and whether
they match the expected answers.  With ``--trace 1`` the line also
carries the per-layer metrics of the pass.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROBE_EVERY_S = 0.2  # the probe takes about 7% of a pass


def digest(payload) -> str:
    """Digest of the canonical (sorted, compact) JSON of a report."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh)


def execute(ops, probe=None) -> tuple:
    """Run every op once; returns (op, result, error, seconds) per op and
    the times of ``probe``, if given, which runs before the first op,
    after the last, and between ops once PROBE_EVERY_S has passed since
    it last ran."""
    clock = time.perf_counter
    out, probes = [], []
    last = None
    for op in ops:
        if probe is not None and (last is None
                                  or clock() - last >= PROBE_EVERY_S):
            probes.append(probe())
            last = clock()
        start = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failed request is recorded, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"[:300]
        out.append((op, result, error, clock() - start))
    if probe is not None:
        probes.append(probe())
    return out, probes


def check(op, result, error, expected_digest) -> dict:
    """Compare one op's answer with the expected verdict, counts, digest."""
    record = {"id": op.id, "ok": False, "problems": []}
    if error is not None:
        record["problems"].append(error)
        return record
    try:
        verdict, counts, payload = op.read(result)
        record["digest"] = digest(payload)
    except Exception as exc:
        record["problems"].append(f"unreadable: {type(exc).__name__}: {exc}")
        return record
    record["verdict"], record["counts"] = verdict, counts
    problems = record["problems"]
    if verdict != op.want["verdict"]:
        problems.append(f"verdict {verdict} != {op.want['verdict']}")
    for key, value in op.want["counts"].items():
        if counts.get(key) != value:
            problems.append(f"{key} {counts.get(key)!r} != {value!r}")
    if expected_digest is not None and record["digest"] != expected_digest:
        problems.append(f"digest {record['digest']} != {expected_digest}")
    record["ok"] = not problems
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args(argv)
    # an inherited override would change the CLI requests' sample counts
    os.environ.pop("LAWVERE_SAMPLES", None)

    import lawvere  # noqa: F401  (set-up cost a CLI user pays)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    import probe
    import workloads

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.perf_counter() - args.spawned
        probe.timed()  # warm-up
        if tracer is not None:
            tracer.reset()
        runs, probe_s = execute(ops, probe.timed)
        wall_s = sum(seconds for *_, seconds in runs)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        layers = self_times = None
        if tracer is not None:
            layers = tracer.layer_metrics()
            self_times = tracer.self_times()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = load_digests()
    known = digests["workloads"].get(args.workload, {})
    records = []
    for op, result, error, seconds in runs:
        want = known.get(op.id)
        if op.seeded and args.seed != digests["seed"]:
            want = None
        rec = check(op, result, error, want)
        rec["seconds"] = seconds
        records.append(rec)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "setup_s": setup_s, "wall_s": wall_s, "probe_s": probe_s,
        "peak_rss_mb": rss_mb,
        "ops": records, "layers": layers, "self_times": self_times,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
