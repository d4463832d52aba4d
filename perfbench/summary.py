"""Print every benchmark metric, for every workload, in one command.

    python3 perfbench/summary.py [--seed 0] [--seconds S] [--workload W]

For each workload this measures one traced run (as ``run.py --trace 1``
does: untraced and traced passes alternate) and prints: provenance,
every end-to-end metric with its unit (from the untraced passes), failed
over attempted ops, every per-layer metric with its unit and the
end-to-end metric it should move, and a table of each layer's self time
as a share of the traced wall time.
It asserts that, in every traced pass, the self times sum to no more
than the pass's wall time.

    python3 perfbench/summary.py --record-digests

re-records digests.json: one untraced pass per workload at the default
seed, refusing if any op's verdict or work counts are wrong.  Do this
only when a change is meant to alter report JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
from tracer import LAYER_METRICS

DEFAULT_SEED = 0


def workload_names() -> list:
    return [w["name"] for w in run.benchmark_spec()["workloads"]]


def self_time_table(passes: list) -> list:
    """(layer, self seconds, share of traced wall) from the traced pass
    with the median wall time; asserts self time <= wall in every pass."""
    traced = [p for p in passes if p["trace"]]
    for p in traced:
        total = sum(p["self_times"].values())
        if total > p["wall_s"]:
            raise AssertionError(f"self times {total:.6f}s exceed traced "
                                 f"wall {p['wall_s']:.6f}s")
    mid = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
    by_layer: dict = {}
    for span, seconds in mid["self_times"].items():
        layer = span.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    rows = sorted(by_layer.items(), key=lambda kv: -kv[1])
    rows.append(("(outside traced spans)",
                 mid["wall_s"] - sum(by_layer.values())))
    return [(layer, s, s / mid["wall_s"]) for layer, s in rows]


def report(name: str, seed: int, seconds: float) -> None:
    spec = run.benchmark_spec()
    measured = run.run(name, seed, seconds, True)
    prov, passes = measured["provenance"], measured["passes"]
    failed, attempted = measured["failed"], measured["attempted"]
    print(f"== {name} (seed {seed})")
    print("provenance: " + json.dumps({k: v for k, v in prov.items()
                                       if k != "work_counts"}))
    print(f"ops: {failed} failed of {attempted} "
          f"(failed_share {failed / attempted:.4f}), "
          f"correct={not measured['problems']}")
    for line in measured["problems"][:20]:
        print(f"  problem: {line}")
    print("end to end (tracing off):")
    for m in spec["end_to_end"]:
        value = measured["end_to_end"][m["name"]]
        extra = (f"  ({prov['request_samples']} requests)"
                 if m["name"].startswith("request_s") else "")
        print(f"  {m['name']:<24} {value:>14.6f} {m['unit']}{extra}")
    print("per layer (traced passes):")
    moves = {row[0]: row[3] for row in LAYER_METRICS}
    for m in spec["per_layer"]:
        value = measured["per_layer"][m["name"]]
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {m['name']:<54} {shown} {m['unit']:<6}"
              f" -> {moves[m['name']]}")
    walls = [p["wall_s"] for p in passes if p["trace"]]
    print("self time by layer, share of traced wall_s "
          f"(median {statistics.median(walls):.3f}s):")
    for layer, s, share in self_time_table(passes):
        print(f"  {layer:<28} {s:>10.4f} s {100 * share:>6.1f}%")
    print()


def record_digests() -> int:
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name in workload_names():
        p = run.run_pass(name, DEFAULT_SEED, False)
        bad = [op for op in p["ops"] if op["problems"]
               and not all(x.startswith("digest") for x in op["problems"])]
        if bad:
            print(f"{name}: refusing to record, {len(bad)} ops wrong, e.g. "
                  f"{bad[0]['id']}: {bad[0]['problems']}", file=sys.stderr)
            return 1
        out["workloads"][name] = {op["id"]: op["digest"] for op in p["ops"]}
    with open(run.HERE / "digests.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    default=run.benchmark_spec()["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to report (default: all)")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    if args.record_digests:
        return record_digests()
    for name in args.workload or workload_names():
        report(name, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
