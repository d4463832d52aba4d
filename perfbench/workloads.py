"""The four benchmark workloads, built from a seed.

``build(name, seed, workdir)`` returns the workload's ops.  Building is
part of set-up: it generates every input from the seed, so a pass only
runs requests.  Each op is one request against the public API of
``lawvere`` (on ``cli-requests``, against ``lawvere.cli.main``).  Ops are
built after the tracer (if any) is installed and look functions up
through their modules, so the per-layer wrappers see every call.

Expected answers: fixed ops take their verdict and work counts from
``expected.json``; seeded ops compute theirs here from the generated
inputs by formulas that do not call the code being measured (word
substitution, distinct monomials, hom-set sizes, sample-count sums).
"""
from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import lawvere.cli as cli
import lawvere.correspondence as correspondence
import lawvere.distlaw as distlaw
import lawvere.factorization as factorization
import lawvere.fincat as fincat
import lawvere.fragments as fragments
import lawvere.parser as parser
import lawvere.pcompletion as pcompletion
import lawvere.profunctor as profunctor
import lawvere.sampling as sampling
import lawvere.terms as terms
import lawvere.theory as theory
from lawvere.builtin import (ABELIAN_GROUP, ADD, MONOID, MUL, NEG, ONE,
                             POINTED, SEMIGROUP, ZERO, build_combo,
                             build_word, combo_of, word_atoms)

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fs-sweep", "coend-quotient", "cli-requests")
LETTERS = "abcdefghijklmnopqrstuvwxyz"

# Requests per pass: every workload has at least 100, so that the 90th
# percentile of request times has ten beyond it, and a pass takes a few
# seconds on a 2-core box.  fs-sweep and coend-quotient have several
# hundred, so that the 90th percentile falls among many seeded requests
# and moves little from seed to seed.
ZIGZAG_REQUESTS = 324  # nine cycles of request shapes
ASSOCIATIVITY_TRIPLES = 160
REPRESENTABLE_TRIPLES = 120
CLI_REQUESTS = 300
MUTANT_SAMPLES = 100

# About 1 in 100 random 40-sample semigroup-sum checks (and the README's
# `check-yb --seed 7 --samples 300`) dies with RecursionError on a deep
# canonical sum: term depth is bounded by Python's recursion limit.  Until
# that is fixed, these checks (and check-yb, which runs them) use the
# small fixed seeds 0, 1, 2, ... of the acceptance criteria instead of
# seeds drawn from the workload seed, so that no benchmark run fails.
# The defect stays in view: the op README_CHECK_YB runs the README's
# command, and expected.json holds its RecursionError as the answer.
FIXED_SEED_LAWS = ("semigroup-sum",)
README_CHECK_YB = ["check-yb", "--series", "ring3", "--samples", "300",
                   "--seed", "7", "--json"]


@dataclass
class Op:
    """One request: ``call`` is timed; ``read`` runs after the pass and
    maps the result to (verdict, counts, canonical JSON payload)."""
    id: str
    call: Callable[[], object]
    read: Callable[[object], tuple]
    want: dict
    seeded: bool = False


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json")) as fh:
        return json.load(fh)


def build(name: str, seed: int, workdir: str) -> list:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    expected = load_expected()[name]
    rng = random.Random(f"{name}/{seed}")
    builder = {"fs-sweep": _fs_sweep, "coend-quotient": _coend_quotient,
               "cli-requests": _cli_requests}[name]
    return builder(rng, expected, workdir)


def _fixed(expected: dict, op_id: str, call, read) -> Op:
    return Op(op_id, call, read, expected["fixed"][op_id])


def _seeded(expected: dict, family: str, op_id: str, call, read,
            counts: dict) -> Op:
    want = {"verdict": expected["seeded"][family]["verdict"],
            "counts": counts}
    return Op(op_id, call, read, want, seeded=True)


# ---------------------------------------------------------------------------
# reading results


def read_report(rep) -> tuple:
    counts = {"sampleCount": rep.sample_count, "passCount": rep.pass_count,
              "failures": len(rep.failures)}
    counts.update((k, v) for k, v in rep.bounds.items()
                  if isinstance(v, int) and not isinstance(v, bool))
    return ("PASS" if rep.passed else "FAIL"), counts, rep.to_json_dict()


def read_axioms(rep) -> tuple:
    counts = {d.diagram: d.sample_count for d in rep.diagrams}
    counts["failures"] = sum(len(d.failures) for d in rep.diagrams)
    witness = rep.first_failure
    counts["witness"] = int(witness is not None
                            and witness["leftValue"] != witness["rightValue"])
    return ("PASS" if rep.passed else "FAIL"), counts, rep.to_json_dict()


# ---------------------------------------------------------------------------
# fs-sweep


def _fs_sweep(rng, expected, workdir) -> list:
    ring = distlaw.ring_theory()
    ps = distlaw.ps_monoid_theory()
    chain = fincat.chain_category(3)
    chain_left = [chain.identity(o) for o in chain.objects] + \
        [chain.morphism("0->1")]
    chain_right = [chain.identity(o) for o in chain.objects] + \
        [chain.morphism("1->2")]
    iso = fincat.iso_pair_category()
    ops = [
        _fixed(expected, "fs/ring/2/3",
               lambda: factorization.check_fs_over_base(
                   ring, MONOID, ABELIAN_GROUP, 2, 3), read_report),
        _fixed(expected, "fs/ps-monoid/2/5",
               lambda: factorization.check_fs_over_base(
                   ps, SEMIGROUP, POINTED, 2, 5), read_report),
        _fixed(expected, "strict-fs/chain3",
               lambda: factorization.check_strict_fs(
                   chain, chain_left, chain_right), read_report),
        _fixed(expected, "strict-fs/iso2",
               lambda: factorization.check_strict_fs(
                   iso, list(iso.morphisms), list(iso.morphisms)),
               read_report),
    ]
    # the request's shape cycles (kind, middle size, component count, word
    # lengths), so that the mix of request costs is the same at every
    # seed; the seed picks the letters, the signs and the placement
    for i in range(ZIGZAG_REQUESTS):
        kind = ("pad", "dup", "perm")[i % 3]
        lengths = [(i // 12 + t) % 3 for t in range(2 + (i // 3) % 2)]
        polys = _random_ring_morphism(rng, 3, lengths, 1 + (i // 6) % 2)
        middle = len(_distinct_words(polys))
        f = theory.morphism(ring, 3, [_ring_term(p) for p in polys])
        spare = _word_term(tuple(rng.randrange(3) for _ in range(3)))
        ops.append(_seeded(
            expected, "zigzag", f"zigzag/{i}/{kind}",
            functools.partial(_zigzag_request, ring, f, kind, spare),
            _read_zigzag,
            {"middle": middle,
             "altMiddle": middle if kind == "perm" else middle + 1,
             "recomposes": 1, "canonicalAgrees": 1, "equivalent": 1}))
    return ops


def _random_ring_morphism(rng, arity: int, lengths, components: int):
    """Components sharing out one word of each (distinct) length, each
    with a coefficient in {1, -1, 2}; middles stay small, so the zigzag
    search stays small."""
    polys = [{} for _ in range(components)]
    for n, length in enumerate(lengths):
        w = tuple(rng.randrange(arity) for _ in range(length))
        polys[(n + rng.randrange(components)) % components][w] = \
            rng.choice((1, -1, 2))
    return polys


def _distinct_words(polys) -> list:
    out = []
    for p in polys:
        for w, c in p.items():
            if c and w not in out:
                out.append(w)
    return out


def _word_term(w):
    return build_word([terms.Var(i) for i in w], MUL, ONE)


def _ring_term(poly):
    """A raw (unnormalized) ring term for an integer combination of words."""
    summands = []
    for w, c in sorted(poly.items()):
        body = _word_term(w)
        if c < 0:
            body = terms.App(NEG, (body,))
        summands.extend([body] * abs(c))
    if not summands:
        return terms.App(ZERO, ())
    out = summands[-1]
    for s in reversed(summands[:-1]):
        out = terms.App(ADD, (s, out))
    return out


def _zigzag_request(ring, f, kind, spare):
    pair = factorization.factorize(ring, MONOID, ABELIAN_GROUP, f)
    left, right = pair.left.components, pair.right.components
    j = pair.middle
    if kind == "pad":
        # the spare word has length 3, longer than any generated word
        new_left, new_right = left + (spare,), right
    elif kind == "dup":
        new_left, new_right = left + left[:1], right
    else:
        perm = tuple(reversed(range(j)))
        new_left = tuple(left[p] for p in perm)
        new_right = tuple(
            ring.normalize(terms.substitute(c, tuple(terms.Var(perm.index(i))
                                                     for i in range(j))))
            for c in right)
    alt = factorization.FactorizationPair(
        ring, MONOID, ABELIAN_GROUP,
        theory.TheoryMorphism(ring, f.source, len(new_left), new_left),
        theory.TheoryMorphism(ring, len(new_left), f.target, new_right))
    canon = factorization.canonicalize(alt)
    equivalent, witness = factorization.zigzag_equivalent(pair, alt, bound=2)
    return f, pair, alt, canon, equivalent, witness


def _read_zigzag(result) -> tuple:
    f, pair, alt, canon, equivalent, witness = result
    valid = witness is None or witness.validate()
    counts = {"middle": pair.middle, "altMiddle": alt.middle,
              "recomposes": int(pair.recompose() == f),
              "canonicalAgrees": int(canon.key() == pair.key()),
              "equivalent": int(equivalent)}
    fmt = parser.format_term
    payload = {"left": [fmt(c) for c in pair.left.components],
               "right": [fmt(c) for c in pair.right.components],
               "alt": [fmt(c) for c in alt.left.components],
               "equivalent": equivalent,
               "witness": None if witness is None else witness.middles()}
    ok = all(counts[k] for k in ("recomposes", "canonicalAgrees",
                                 "equivalent")) and valid
    return ("PASS" if ok else "FAIL"), counts, payload


# ---------------------------------------------------------------------------
# coend-quotient


def _coend_quotient(rng, expected, workdir) -> list:
    F = fragments
    ops = []
    for frag in (F.POINTED_MONAD, F.IDENTITY_MONAD):
        ops.append(_fixed(expected, f"keyprop/{frag.name}/3/2",
                          functools.partial(pcompletion.verify_keyprop,
                                            frag, 3, 2), read_report))
    for frag, args, kwargs in (
            (F.IDENTITY_MONAD, (3,), {}), (F.POINTED_MONAD, (3,), {}),
            (F.FREE_MONOID_MONAD, (2,), {"truncation": 3,
                                         "size_bound": 3})):
        ops.append(_fixed(
            expected, f"roundtrip/{frag.name}/{args[0]}",
            functools.partial(correspondence.roundtrip_check, frag, *args,
                              **kwargs), read_report))
    for frag in (F.POINTED_MONAD, F.IDENTITY_MONAD):
        ops.append(_fixed(expected, f"istar/{frag.name}/2/2",
                          functools.partial(correspondence.istar_composite,
                                            frag, 2, 2), read_report))

    # categories, profunctor kinds and functor kinds come from a fixed
    # sequence, so the mix of request costs is the same at every seed;
    # the workload seed picks the objects the functors map to
    cats = _category_pool()
    shapes = random.Random("coend-quotient shapes")
    for i in range(ASSOCIATIVITY_TRIPLES):
        B, C, D, E = (shapes.choice(cats) for _ in range(4))
        f, g, h = (_random_profunctor(rng, shapes, s, t)
                   for s, t in ((B, C), (C, D), (D, E)))
        ops.append(_seeded(expected, "associativity", f"assoc/{i}",
                           functools.partial(_associativity, f, g, h),
                           _read_iso, {"iso": 1}))
        ops.append(_seeded(expected, "unit", f"unit/{i}",
                           functools.partial(_units, f),
                           _read_iso, {"iso": 1, "size": _size(f)}))
    for i in range(REPRESENTABLE_TRIPLES):
        C, D, E = (shapes.choice(cats) for _ in range(3))
        F1 = _random_functor(rng, shapes, C, D)
        G1 = _random_functor(rng, shapes, D, E)
        size = sum(len(E.hom(e, G1.on_obj(F1.on_obj(c))))
                   for e in E.objects for c in C.objects)
        ops.append(_seeded(expected, "representable", f"rep/{i}",
                           functools.partial(_representables, F1, G1),
                           _read_iso, {"iso": 1, "size": size}))
    return ops


def _category_pool() -> list:
    z2 = fincat.monoid_category(
        [0, 1], {(a, b): (a + b) % 2 for a in (0, 1) for b in (0, 1)}, 0,
        name="z2")
    return [fincat.discrete_category(["x"]),
            fincat.discrete_category(["x", "y"]),
            fincat.chain_category(2), fincat.chain_category(3), z2,
            fincat.iso_pair_category()]


def _random_functor(rng, shapes, src, tgt):
    """Constant, identity, any object map out of a discrete category, or
    a monotone map between chains; ``shapes`` picks which, ``rng`` the
    objects."""
    kinds = ["const"]
    if src is tgt:
        kinds.append("id")
    if len(src.morphisms) == len(src.objects):  # identities only
        kinds.append("discrete")
    if src.name.startswith("chain") and tgt.name.startswith("chain"):
        kinds.append("monotone")
    kind = shapes.choice(kinds)
    if kind == "id":
        return fincat.identity_functor(src)
    if kind == "const":
        return fincat.constant_functor(src, tgt, rng.choice(tgt.objects))
    if kind == "discrete":
        obj = {o: rng.choice(tgt.objects) for o in src.objects}
        mor = {m.name: tgt.identity(obj[m.src]).name for m in src.morphisms}
        return fincat.FiniteFunctor(src, tgt, obj, mor)
    image = sorted(rng.choice(tgt.objects) for _ in src.objects)
    obj = dict(zip(src.objects, image))
    mor = {m.name: f"{obj[m.src]}->{obj[m.tgt]}" for m in src.morphisms}
    return fincat.FiniteFunctor(src, tgt, obj, mor)


def _random_profunctor(rng, shapes, src, tgt):
    kind = shapes.choice(("const", "rep", "hom") if src is tgt
                         else ("const", "rep"))
    if kind == "hom":
        return profunctor.hom_profunctor(src)
    if kind == "const":
        # one label: composites of constant tables multiply entry sizes,
        # and prof_iso's search is exponential in entry size
        return profunctor.constant_profunctor(src, tgt, ["u"])
    return profunctor.representable(_random_functor(rng, shapes, src, tgt))


def _size(p) -> int:
    """Element count from the table alone (before any composition)."""
    return sum(len(v) for v in p.table.values())


def _associativity(f, g, h):
    P = profunctor
    lhs = P.compose_prof(h, P.compose_prof(g, f))
    rhs = P.compose_prof(P.compose_prof(h, g), f)
    return lhs, [P.prof_iso(lhs, rhs)]


def _units(f):
    P = profunctor
    left = P.compose_prof(f, P.hom_profunctor(f.src))
    right = P.compose_prof(P.hom_profunctor(f.tgt), f)
    return left, [P.prof_iso(left, f), P.prof_iso(right, f)]


def _representables(F1, G1):
    P = profunctor
    lhs = P.compose_prof(P.representable(G1), P.representable(F1))
    rhs = P.representable(fincat.compose_functors(G1, F1))
    return lhs, [P.prof_iso(lhs, rhs)]


def _read_iso(result) -> tuple:
    composite, isos = result
    iso = int(all(x is not None for x in isos))
    counts = {"iso": iso, "size": _size(composite)}
    payload = {"iso": bool(iso), "table": sorted(
        (str(k), len(v)) for k, v in composite.table.items())}
    return ("PASS" if iso else "FAIL"), counts, payload


# ---------------------------------------------------------------------------
# the mutant law


def _mutant_ring_law():
    """Products over sums that keep only each factor's first summand once
    a word has two or more factors; the unit triangles still hold, the
    multiplication squares do not."""
    def rewrite(t):
        skel, leaves = distlaw.split_layer(t, MONOID.op_set)
        slots = [v.index for v in word_atoms(skel, MUL, ONE)]
        combos = [sorted(combo_of(leaves[i], ADD, NEG, ZERO).items(),
                         key=lambda kv: terms.sort_key(kv[0]))
                  for i in slots]
        keep = 1 if len(slots) >= 2 else None
        acc: dict = {}
        for choice in itertools.product(*(c[:keep] for c in combos)):
            coeff = 1
            chain = []
            for atom, c in choice:
                coeff *= c
                chain.extend(word_atoms(atom, MUL, ONE))
            key = build_word(chain, MUL, ONE)
            acc[key] = acc.get(key, 0) + coeff
        return build_combo({k: v for k, v in acc.items() if v}, ADD, NEG,
                           ZERO)

    return distlaw.DistributiveLawSpec("ring-mutant", MONOID, ABELIAN_GROUP,
                                       rewrite)


# ---------------------------------------------------------------------------
# cli-requests


def _cli_requests(rng, expected, workdir) -> list:
    tables = {}
    for n in (2, 3, 4):
        path = os.path.join(workdir, f"chain{n}.json")
        with open(path, "w") as fh:
            json.dump(_chain_tables(n), fh)
        tables[n] = path
    # the commands cycle in fixed proportions, and each command cycles its
    # main choice and size, so the cost mix is the same at every seed; the
    # seed picks words, signs, law samples and the like; the slower
    # check-yb and correspond come once every 50 requests
    makers = [_enumerate_request] * 3 + [_compose_request] * 3 + \
        [_factorize_request] * 2 + [_roundtrip_request, _check_law_request,
                                    _check_coend_request]
    made: dict = {}
    ops = []
    for i in range(CLI_REQUESTS):
        make = {24: _check_yb_request, 49: _correspond_request}.get(
            i % 50, makers[i % len(makers)])
        argv, counts = make(rng, made.setdefault(make, 0), tables)
        made[make] += 1
        ops.append(_seeded(expected, "request", f"{i}/{argv[0]}",
                           functools.partial(run_cli, argv), _read_cli,
                           {"exit": 0, **counts}))
    # a law the CLI cannot name: the checker must catch it
    mutant = _mutant_ring_law()
    ops.append(_seeded(
        expected, "mutant", "mutant/ring",
        functools.partial(distlaw.check_law_axioms, mutant, sampling.Sampler(
            seed=rng.randrange(2 ** 31), samples=MUTANT_SAMPLES)),
        read_axioms, {"witness": 1}))
    # the known defect (see FIXED_SEED_LAWS)
    ops.append(_fixed(expected, "readme/check-yb",
                      functools.partial(run_cli, README_CHECK_YB),
                      _read_cli))
    return ops


def run_cli(argv):
    """Run one CLI request; an exception's name stands in for the exit
    code, so the request fails its check unless that is the expected
    answer."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception as exc:
        code = type(exc).__name__
    return argv, code, out.getvalue()


def _read_cli(result) -> tuple:
    argv, code, text = result
    payload = json.loads(text) if code == 0 else {"exit": code}
    counts = {"exit": code}
    cmd = argv[0] if code == 0 else None
    if cmd == "enumerate":
        counts["count"] = payload["count"]
    elif cmd == "compose":
        counts["components"] = payload["composite"]["components"]
    elif cmd == "factorize":
        counts["middle"] = payload["middle"]
    elif cmd in ("roundtrip", "check-yb", "correspond"):
        counts["sampleCount"] = payload["sampleCount"]
    elif cmd == "check-law":
        counts["samples"] = sum(d["sampleCount"] for d in payload["diagrams"])
    elif cmd == "check-coend":
        counts["compositeSize"] = payload["composite"]["size"]
    return ("PASS" if code == 0 else "FAIL"), counts, payload


def _words_up_to(k: int, size: int) -> int:
    """Nonempty words over k letters whose product display has at most
    ``size`` nodes (a word of length L has 2L - 1)."""
    return sum(k ** n for n in range(1, (size + 1) // 2 + 1))


def _enumerate_request(rng, n, tables):
    theory_name = ("monoid", "semigroup", "ps-monoid", "pointed",
                   "identity")[n % 5]
    k, size = (n // 5) % 4, 1 + (n // 20) % 5
    count = {"monoid": 1 + _words_up_to(k, size),
             "semigroup": _words_up_to(k, size),
             "ps-monoid": 1 + _words_up_to(k, size),
             "pointed": 1 + k, "identity": k}[theory_name]
    return (["enumerate", "--theory", theory_name, "--arity", str(k),
             "--size", str(size), "--json"], {"count": count})


def _word_string(rng, word) -> str:
    """Letters, with runs sometimes written as powers."""
    out = []
    for letter, run in itertools.groupby(word):
        r = len(list(run))
        if r > 1 and rng.random() < 0.5:
            out.append(f"{LETTERS[letter]}^{r}")
        else:
            out.append(LETTERS[letter] * r)
    return "".join(out)


def _compose_request(rng, n, tables):
    k, m, p = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 2)
    first = [tuple(rng.randrange(k) for _ in range(rng.randint(1, 3)))
             for _ in range(m)]
    second = [tuple(rng.randrange(m) for _ in range(rng.randint(1, 3)))
              for _ in range(p)]
    composite = ["".join(LETTERS[x] for v in w for x in first[v])
                 for w in second]
    return (["compose", "--theory", "monoid", "--source", str(k),
             "--first", ",".join(_word_string(rng, w) for w in first),
             "--second", ",".join(_word_string(rng, w) for w in second),
             "--json"], {"components": composite})


def _factorize_request(rng, n, tables):
    comps, polys = [], []
    for _ in range(rng.randint(1, 2)):
        parts, poly = [], {}
        for _ in range(rng.randint(1, 3)):
            w = tuple(rng.randrange(3) for _ in range(rng.randint(0, 2)))
            sign = rng.choice("+-")
            poly[w] = poly.get(w, 0) + (1 if sign == "+" else -1)
            parts.append(sign + (_word_string(rng, w) if w else "1"))
        comps.append("".join(parts).lstrip("+"))
        polys.append(poly)
    # '=' keeps a leading minus from reading as an option
    return (["factorize", "--theory", "ring",
             "--morphism=" + ",".join(comps), "--json"],
            {"middle": len(_distinct_words(polys))})


def _roundtrip_sample_count(bound: int) -> int:
    """One coend check per x, one naturality check per function
    [x] -> [x2], for x, x2 <= bound."""
    return (bound + 1) + sum(x2 ** x for x in range(bound + 1)
                             for x2 in range(bound + 1))


def _roundtrip_request(rng, n, tables):
    monad = ("identity", "pointed", "free-monoid")[n % 3]
    bound = 1 if monad == "free-monoid" else 1 + (n // 3) % 2
    return (["roundtrip", "--monad", monad, "--bound", str(bound),
             "--size", "2", "--json"],
            {"sampleCount": _roundtrip_sample_count(bound)})


def _check_law_request(rng, n, tables):
    laws = sorted(distlaw.BUILTIN_LAWS)
    law = laws[n % len(laws)]
    seed = rng.randrange(10 ** 6)
    if law in FIXED_SEED_LAWS:
        seed = n // len(laws)
    # few samples: a rare large expansion would otherwise set peak RSS
    samples = 3
    return (["check-law", "--law", law, "--samples", str(samples),
             "--seed", str(seed), "--json"], {"samples": 5 * samples})


def _check_yb_request(rng, n, tables):
    samples = 15
    return (["check-yb", "--series", "ring3", "--samples", str(samples),
             "--seed", str(n), "--json"],  # see FIXED_SEED_LAWS
            {"sampleCount": 3 + 2 * samples})


def _correspond_request(rng, n, tables):
    samples = 20
    # law axioms, hom bijections for arities 0..2, min(samples, 80)
    # compositions
    return (["correspond", "--law", ("ring", "pointed-semigroup")[n % 2],
             "--size", "4", "--samples", str(samples),
             "--seed", str(rng.randrange(10 ** 6)), "--json"],
            {"sampleCount": 1 + 3 + min(samples, 80)})


def _check_coend_request(rng, n, tables):
    size = sorted(tables)[n % len(tables)]
    # hom after hom is hom again: one class per morphism of the chain
    return (["check-coend", "--file", tables[size], "--json"],
            {"compositeSize": size * (size + 1) // 2})


def _chain_tables(n: int) -> dict:
    """The chain 0 -> ... -> n-1 and its hom profunctor, as CLI tables."""
    objs = [f"x{i}" for i in range(n)]
    arrows = [(i, j) for i in range(n) for j in range(i, n)]
    name = lambda i, j: f"{i}to{j}"
    hom = lambda d, c: [name(d, c)] if d <= c else []
    return {
        "schemaVersion": 1,
        "categories": {"C": {
            "objects": objs,
            "morphisms": [{"name": name(i, j), "src": objs[i],
                           "tgt": objs[j]} for i, j in arrows],
            "identities": {objs[i]: name(i, i) for i in range(n)},
            "composition": [[name(j, k), name(i, j), name(i, k)]
                             for i, j in arrows for j2, k in arrows
                             if j2 == j],
        }},
        "profunctors": {"H": {
            "src": "C", "tgt": "C",
            "table": [{"d": objs[d], "c": objs[c], "elements": hom(d, c)}
                      for d in range(n) for c in range(n)],
            # f: c -> c2 acts on m: d -> c by f after m
            "cAction": [{"morphism": name(c, c2), "d": objs[d],
                         "element": name(d, c), "to": name(d, c2)}
                        for d in range(n) for c, c2 in arrows if d <= c],
            # g: d2 -> d acts on m: d -> c by m after g
            "dAction": [{"morphism": name(d2, d), "c": objs[c],
                         "element": name(d, c), "to": name(d2, c)}
                        for d2, d in arrows for c in range(n) if d <= c],
        }},
        "compose": ["H", "H"],
    }
