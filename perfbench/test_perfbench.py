"""The benchmark's own checks (about 90 seconds on a 2-core box):

    python3 -m pytest -q perfbench/test_perfbench.py

* the hand-written sweep counts in expected.json follow from counting
  formulas that do not use lawvere;
* report digests are identical under a second PYTHONHASHSEED, and a
  non-default workload seed still gets every verdict and count right;
* every per-layer counter is non-zero on the workloads predicted to use
  it and zero where the prediction is a bypass, and the traced
  ``terms.normalize.calls`` on fs-sweep equals cProfile's count;
* BENCHMARK.json lists exactly the metrics the tracer and run.py report.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = [w["name"] for w in run.benchmark_spec()["workloads"]]


def _words(k: int, max_len: int) -> list:
    return [w for n in range(max_len + 1)
            for w in itertools.product(range(k), repeat=n)]


def _ring_normal_forms(k: int, bound: int) -> list:
    """Integer combinations of words whose sum display has <= bound nodes:
    a word of length L costs max(1, 2L - 1), a negative copy one more, and
    N copies need N - 1 additions."""
    ws = _words(k, (bound + 1) // 2)
    out = []

    def rec(i, parts, copies, size):
        if i == len(ws):
            out.append(tuple(parts))
            return
        rec(i + 1, parts, copies, size)
        cost = max(1, 2 * len(ws[i]) - 1)
        c = 1
        while True:
            pos = size + c * cost + copies + c - 1 <= bound
            neg = size + c * cost + c + copies + c - 1 <= bound
            if pos:
                rec(i + 1, parts + [(ws[i], c)], copies + c, size + c * cost)
            if neg:
                rec(i + 1, parts + [(ws[i], -c)], copies + c,
                    size + c * cost + c)
            if not (pos or neg):
                break
            c += 1

    rec(0, [], 0, 0)
    return out


def _ps_normal_forms(k: int, bound: int) -> list:
    """The point, or one nonempty word of <= bound nodes."""
    return [()] + [((w, 1),) for w in _words(k, (bound + 1) // 2) if w]


def _sweep_counts(normal_forms, bound: int, unit: bool) -> tuple:
    """Morphisms k -> m for k, m <= 2, and their padded / duplicated /
    permuted alternatives; padding needs a spare inner word of <= 3
    nodes (the empty word counts when the inner theory has a unit)."""
    morphisms = alternatives = 0
    for k in range(3):
        spare_pool = [w for w in _words(k, 2) if unit or w]
        pool = normal_forms(k, bound)
        for m in range(3):
            for comps in itertools.product(pool, repeat=m):
                middle = []
                for comp in comps:
                    for w, _ in comp:
                        if w not in middle:
                            middle.append(w)
                morphisms += 1
                alternatives += (any(w not in middle for w in spare_pool)
                                 + (len(middle) >= 1) + (len(middle) >= 2))
    return morphisms, alternatives


def test_expected_sweep_counts_follow_from_formulas():
    with open(os.path.join(HERE, "expected.json")) as fh:
        fixed = json.load(fh)["fs-sweep"]["fixed"]
    for op_id, forms, bound, unit in (
            ("fs/ring/2/3", _ring_normal_forms, 3, True),
            ("fs/ps-monoid/2/5", _ps_normal_forms, 5, False)):
        counts = fixed[op_id]["counts"]
        assert _sweep_counts(forms, bound, unit) == (
            counts["sampleCount"], counts["alternativesChecked"])
    # the same rule at size 4, and acceptance criterion 4 at size 5
    assert _sweep_counts(_ring_normal_forms, 4, True) == (935, 2599)
    assert _sweep_counts(_ring_normal_forms, 5, True) == (4583, 13295)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_identical_across_hash_seeds(workload):
    first = run.run_pass(workload, 0, False)
    second = run.run_pass(workload, 0, False, hash_seed="1")
    assert second["hash_seed"] == "1"
    for p in (first, second):
        assert [op["problems"] for op in p["ops"] if not op["ok"]] == []
    assert [(op["id"], op["digest"]) for op in first["ops"]] == \
        [(op["id"], op["digest"]) for op in second["ops"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_non_default_seed_verdicts_and_counts(workload):
    p = run.run_pass(workload, 20240917, False)
    assert [op["problems"] for op in p["ops"] if not op["ok"]] == []


@pytest.fixture(scope="module")
def traced():
    return {w: run.run_pass(w, 0, True)["layers"] for w in WORKLOADS}


def test_layer_counters_follow_predictions(traced):
    for name, unit, better, moves, used_on, zero_on in LAYER_METRICS:
        if name == "trace.overhead_ratio":
            continue
        for w in used_on:
            assert traced[w][name] > 0, f"{name} is 0 on {w}"
        for w in zero_on:
            assert traced[w][name] == 0, f"{name} is {traced[w][name]} on {w}"


def test_counts_repeat_exactly(traced):
    again = run.run_pass("coend-quotient", 0, True)["layers"]
    counts = {k: v for k, v in again.items() if not k.endswith(".self_s")}
    assert counts == {k: v for k, v in traced["coend-quotient"].items()
                      if not k.endswith(".self_s")}


_PROFILE = """
import cProfile, pstats, sys
sys.path.insert(0, {here!r})
import lawvere.terms, workloads, worker
ops = workloads.build("fs-sweep", 0, None)  # fs-sweep writes no files
prof = cProfile.Profile()
prof.runcall(worker.execute, ops)
code = lawvere.terms.TheorySpec.normalize.__code__
want = (code.co_filename, code.co_firstlineno, "normalize")
print(pstats.Stats(prof).stats[want][1])
"""


def test_normalize_count_matches_cprofile(traced):
    env = dict(os.environ, PYTHONHASHSEED=run.HASH_SEED,
               PYTHONPATH=str(run.ROOT / "src"))
    env.pop("LAWVERE_SAMPLES", None)
    out = subprocess.run([sys.executable, "-c", _PROFILE.format(here=HERE)],
                         cwd=run.ROOT, env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert int(out.stdout.split()[-1]) == \
        traced["fs-sweep"]["terms.normalize.calls"]


def test_benchmark_json_names_every_metric():
    spec = run.benchmark_spec()
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "wall_s", "peak_rss_mb", "request_s.p50",
        "request_s.p90"]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in LAYER_METRICS]
    assert WORKLOADS == ["fs-sweep", "coend-quotient", "cli-requests"]
