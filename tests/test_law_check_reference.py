"""The law checks against reference copies that normalize every leg.

``check_law_axioms`` normalizes a diagram's second leg only when it
differs (by ``==``) from the first, and ``check_yang_baxter`` does the
same for the two hexagon paths.  The ``reference_*`` functions below are
the checks as they were before that: one ``_layered_nf`` (or
``layered_normalize``) per leg.  Reports must be identical, failures and
witnesses included, and the random stream must be consumed the same way.
"""
from typing import Optional

import pytest

from lawvere import distlaw
from lawvere.builtin import (ABELIAN_GROUP, ADD, MONOID, SEMIGROUP,
                             build_combo, combo_of)
from lawvere.distlaw import (BUILTIN_LAWS, RING_LAW, DistributiveLawSpec,
                             DistributiveSeries, _draw, check_law_axioms,
                             check_yang_baxter, expansion_estimate,
                             ring3_series,
                             series_composite_left, series_composite_right,
                             split_layer, whisker)
from lawvere.parser import format_term
from lawvere.report import AxiomReport, Report
from lawvere.sampling import Sampler, random_term
from lawvere.terms import (App, StructuralError, Term, TheorySpec, Var,
                           substitute)
from .conftest import make_dropping_mutant

SEEDS = range(10)
SAMPLES = 30


# reference copies ------------------------------------------------------


def reference_check_law_axioms(law: DistributiveLawSpec,
                               sampler: Optional[Sampler] = None
                               ) -> AxiomReport:
    """check_law_axioms with one ``_layered_nf`` per leg; it looks the
    function up on the module so a test can count its calls."""
    sampler = sampler or Sampler()
    rng = sampler.rng()
    S, T = law.inner, law.outer
    rep = AxiomReport(subject=f"law:{law.name}", seed=sampler.seed)
    d_unit_s = rep.diagram("unit-inner")
    d_mult_s = rep.diagram("mult-inner")
    d_unit_t = rep.diagram("unit-outer")
    d_mult_t = rep.diagram("mult-outer")
    d_nat = rep.diagram("naturality")
    if sampler.samples <= 0:
        return rep
    nf = lambda t: distlaw._layered_nf(t, [T, S])

    def rand(spec, arity, shrink):
        depth = max(0, sampler.max_depth - shrink)
        if spec.signature or arity > 0:
            return random_term(spec, arity, rng, depth)
        return Var(0)

    for _ in range(sampler.samples):
        k = rng.randint(1, sampler.max_arity)
        j = rng.randint(1, sampler.max_width)
        m = rng.randint(1, sampler.max_width)

        t_pure = _draw(lambda sh: T.normalizer(rand(T, k, sh)),
                       expansion_estimate)
        d_unit_s.sample_count += 1
        got = nf(law.rewrite(t_pure))
        want = nf(t_pure)
        if got != want:
            d_unit_s.add_failure(format_term(t_pure), format_term(got),
                                 format_term(want))

        s_pure = _draw(lambda sh: rand(S, k, sh), expansion_estimate)
        d_unit_t.sample_count += 1
        got = nf(law.rewrite(s_pure))
        want = nf(s_pure)
        if got != want:
            d_unit_t.add_failure(format_term(s_pure), format_term(got),
                                 format_term(want))

        def make_mult_s(sh):
            sigma = rand(S, j, sh)
            rhos = [rand(S, m, sh) for _ in range(j)]
            xis = [rand(T, k, sh) for _ in range(m)]
            flat = substitute(substitute(sigma, tuple(rhos)), tuple(xis))
            return sigma, rhos, xis, flat

        sigma, rhos, xis, flat = _draw(make_mult_s,
                                       lambda q: expansion_estimate(q[3]))
        d_mult_s.sample_count += 1
        bottom = nf(law.rewrite(flat))
        psis = [law.rewrite(substitute(r, tuple(xis))) for r in rhos]
        top = nf(law.rewrite(substitute(sigma, tuple(psis))))
        if top != bottom:
            d_mult_s.add_failure(format_term(flat), format_term(top),
                                 format_term(bottom))

        def make_mult_t(sh):
            sigma2 = rand(S, j, sh)
            xis2 = [rand(T, m, sh) for _ in range(j)]
            zetas = [rand(T, k, sh) for _ in range(m)]
            merged = [T.normalizer(substitute(x, tuple(zetas)))
                      for x in xis2]
            return sigma2, xis2, zetas, substitute(sigma2, tuple(merged))

        sigma2, xis2, zetas, flat_t = _draw(make_mult_t,
                                            lambda q: expansion_estimate(q[3]))
        d_mult_t.sample_count += 1
        bottom = nf(law.rewrite(flat_t))
        v = law.rewrite(substitute(sigma2, tuple(xis2)))
        skel, atoms = split_layer(v, T.op_set)
        hatted = [law.rewrite(substitute(w, tuple(zetas))) for w in atoms]
        top = nf(substitute(skel, tuple(hatted)))
        if top != bottom:
            d_mult_t.add_failure(format_term(flat_t),
                                 format_term(top), format_term(bottom))

        def make_nat(sh):
            s_nat = rand(S, m, sh)
            x_nat = [rand(T, k, sh) for _ in range(m)]
            return substitute(s_nat, tuple(x_nat))

        t_nat = _draw(make_nat, expansion_estimate)
        fn = tuple(rng.randrange(k + 1) for _ in range(k))
        d_nat.sample_count += 1
        lhs = nf(substitute(law.rewrite(t_nat), tuple(Var(i) for i in fn)))
        rhs = nf(law.rewrite(substitute(t_nat, tuple(Var(i) for i in fn))))
        if lhs != rhs:
            d_nat.add_failure(format_term(t_nat), format_term(lhs),
                              format_term(rhs))
    return rep


def reference_check_yang_baxter(series: DistributiveSeries,
                                sampler: Sampler) -> Report:
    """check_yang_baxter with both hexagon paths normalized, looked up on
    the module like ``_layered_nf`` above."""
    rng = sampler.rng()
    rep = Report(subject=f"yang-baxter:{series.name}",
                 bounds={"samples": sampler.samples,
                         "maxDepth": sampler.max_depth,
                         "maxArity": sampler.max_arity},
                 seed=sampler.seed)
    ths = series.theories
    n = len(ths)

    for (i, j) in sorted(series.laws):
        axiom = reference_check_law_axioms(series.laws[(i, j)], sampler)
        rep.sample_count += 1
        if axiom.passed:
            rep.pass_count += 1
        else:
            rep.add_failure(stage="pairwise-law", law=series.laws[(i, j)].name,
                            witness=axiom.first_failure)

    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if i > j > k]
    for (i, j, k) in triples:
        Ti, Tj, Tk = ths[i], ths[j], ths[k]
        lam_ij = series.law(i, j).rewrite
        lam_ik = series.law(i, k).rewrite
        lam_jk = series.law(j, k).rewrite
        order = [Tk, Tj, Ti]
        for _ in range(sampler.samples):
            arity = rng.randint(1, sampler.max_arity)
            wj = rng.randint(1, sampler.max_width)
            wk = rng.randint(1, sampler.max_width)

            def make_stack(sh):
                depth = max(0, sampler.max_depth - sh)
                sigma = random_term(Ti, wj, rng, depth)
                betas = [random_term(Tj, wk, rng, depth) for _ in range(wj)]
                gammas = [random_term(Tk, arity, rng, depth)
                          for _ in range(wk)]
                return substitute(sigma, tuple(substitute(b, tuple(gammas))
                                               for b in betas))

            t = _draw(make_stack, expansion_estimate)
            rep.sample_count += 1
            try:
                top = lam_ij(t)
                top = whisker(Tj.op_set, lam_ik)(top)
                top = lam_jk(top)
                bot = whisker(Ti.op_set, lam_jk)(t)
                bot = lam_ik(bot)
                bot = whisker(Tk.op_set, lam_ij)(bot)
                lt = distlaw.layered_normalize(top, order)
                lb = distlaw.layered_normalize(bot, order)
            except StructuralError as exc:
                rep.add_failure(stage=f"hexagon({i},{j},{k})",
                                input=format_term(t), error=str(exc))
                continue
            if lt != lb:
                rep.add_failure(stage=f"hexagon({i},{j},{k})",
                                input=format_term(t),
                                left=format_term(lt), right=format_term(lb))
            else:
                rep.pass_count += 1

    left = series_composite_left(series)
    right = series_composite_right(series)
    union = TheorySpec(name="union", signature=left.signature,
                       normalizer=lambda t: t,
                       atom_enumerator=lambda a, b: [])
    for _ in range(sampler.samples):
        arity = rng.randint(1, sampler.max_arity)
        t = _draw(lambda sh: random_term(union, arity, rng,
                                         max(0, sampler.max_depth + 1 - sh)),
                  expansion_estimate)
        rep.sample_count += 1
        try:
            lv, rv = left.normalize(t), right.normalize(t)
        except StructuralError as exc:
            rep.add_failure(stage="bracketing-agreement",
                            input=format_term(t), error=str(exc))
            continue
        if lv != rv:
            rep.add_failure(stage="bracketing-agreement",
                            input=format_term(t), left=format_term(lv),
                            right=format_term(rv))
        else:
            rep.pass_count += 1
    return rep


MUTANT = make_dropping_mutant(MONOID, ABELIAN_GROUP)


def checked_laws():
    return list(BUILTIN_LAWS.values()) + [MUTANT]


def count_top_level_calls(monkeypatch) -> list:
    """Patch ``distlaw._layered_nf`` to record the term of every call not
    made from inside another call; returns the record."""
    orig = distlaw._layered_nf
    seen: list = []
    depth = [0]

    def counted(t, order):
        if not depth[0]:
            seen.append(t)
        depth[0] += 1
        try:
            return orig(t, order)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(distlaw, "_layered_nf", counted)
    return seen


# equivalence -----------------------------------------------------------


@pytest.mark.parametrize("law", checked_laws(), ids=lambda law: law.name)
@pytest.mark.parametrize("seed", SEEDS)
def test_law_report_matches_the_reference(law, seed):
    got = check_law_axioms(law, Sampler(samples=SAMPLES, seed=seed))
    want = reference_check_law_axioms(law, Sampler(samples=SAMPLES,
                                                   seed=seed))
    assert got.to_json_dict() == want.to_json_dict()
    assert got.first_failure == want.first_failure
    # the builtin laws pass; the mutant fails, so its witnesses are compared
    assert got.passed == (law.name != MUTANT.name)


def _ring3_with(pair, law) -> DistributiveSeries:
    base = ring3_series()
    return DistributiveSeries(theories=base.theories,
                              laws={**base.laws, pair: law}, name=base.name)


def _negated(law: DistributiveLawSpec) -> DistributiveLawSpec:
    """The law with every output coefficient negated."""
    add, neg, zero = (ABELIAN_GROUP.op(o) for o in ("add", "neg", "zero"))

    def rewrite(t):
        return build_combo({a: -c for a, c in combo_of(
            law.rewrite(t), add, neg, zero).items()}, add, neg, zero)

    return DistributiveLawSpec("negated", law.inner, law.outer, rewrite)


def _identity(law: DistributiveLawSpec) -> DistributiveLawSpec:
    return DistributiveLawSpec("identity", law.inner, law.outer,
                               lambda t: t)


def yang_baxter_cases():
    """ring3 at six seeds, then three mutants of it at seed 0, each with
    the failures it records at 15 samples: (stage prefix, record keys)
    -> count.  No mutant tried reaches bracketing-agreement's ``error``
    branch."""
    for seed in range(6):
        yield pytest.param(ring3_series, seed, {}, id=str(seed))
    laws = ring3_series().laws
    yield pytest.param(
        lambda: _ring3_with((2, 0), make_dropping_mutant(SEMIGROUP,
                                                         ABELIAN_GROUP)),
        0, {("pairwise-law", "law witness"): 1,
            ("hexagon", "left right"): 1}, id="dropping-2-0")
    yield pytest.param(
        lambda: _ring3_with((2, 1), _identity(laws[(2, 1)])),
        0, {("hexagon", "error"): 6}, id="identity-2-1")
    yield pytest.param(
        lambda: _ring3_with((1, 0), _negated(laws[(1, 0)])),
        0, {("pairwise-law", "law witness"): 1,
            ("hexagon", "left right"): 2,
            ("bracketing-agreement", "left right"): 3}, id="negated-1-0")


def _failure_kinds(rep: Report) -> dict:
    kinds: dict = {}
    for f in rep.failures:
        key = (f["stage"].split("(")[0],
               " ".join(sorted(set(f) - {"stage", "input"})))
        kinds[key] = kinds.get(key, 0) + 1
    return kinds


@pytest.mark.parametrize("make_series,seed,failures", yang_baxter_cases())
def test_yang_baxter_report_matches_the_reference(make_series, seed,
                                                  failures):
    series = make_series()
    got = check_yang_baxter(series, Sampler(samples=15, seed=seed))
    want = reference_check_yang_baxter(series,
                                       Sampler(samples=15, seed=seed))
    assert got.to_json_dict() == want.to_json_dict()
    assert _failure_kinds(got) == failures


# one normal form per distinct leg --------------------------------------


@pytest.mark.parametrize("law", checked_laws(), ids=lambda law: law.name)
def test_each_distinct_leg_is_normalized_once(law, monkeypatch):
    calls = count_top_level_calls(monkeypatch)
    reference_check_law_axioms(law, Sampler(samples=SAMPLES, seed=3))
    legs = list(calls)
    calls.clear()
    check_law_axioms(law, Sampler(samples=SAMPLES, seed=3))
    # the reference normalizes the legs in pairs, first leg first
    assert len(legs) == 2 * 5 * SAMPLES
    pairs = list(zip(legs[::2], legs[1::2]))
    want: list = []
    for first, second in pairs:
        want.append(first)
        if second != first:
            want.append(second)
    assert calls == want
    # the legs are rebuilt, never shared, so the reuse is by ==
    assert any(first == second and first is not second
               for first, second in pairs)


def test_hexagon_normalizes_an_equal_path_once(monkeypatch):
    counted: list = []
    orig = distlaw.layered_normalize
    monkeypatch.setattr(distlaw, "layered_normalize",
                        lambda t, order: counted.append(t) or orig(t, order))
    # the pairwise law checks and the bracketings never call it
    reference_check_yang_baxter(ring3_series(), Sampler(samples=15, seed=0))
    paths = list(zip(counted[::2], counted[1::2]))
    counted.clear()
    check_yang_baxter(ring3_series(), Sampler(samples=15, seed=0))
    # ring3 has one hexagon triple
    assert len(paths) == 15
    want: list = []
    for top, bot in paths:
        want.append(top)
        if bot != top:
            want.append(bot)
    assert counted == want
    assert len(want) < 2 * len(paths)


class _Marker(StructuralError):
    pass


def _guarded_law() -> DistributiveLawSpec:
    """The ring law over an outer theory whose normalizer rejects variable
    50, with a rewrite that adds that variable to every output."""
    outer = RING_LAW.outer

    def normalizer(t: Term) -> Term:
        if Var(50) in _leaves(t):
            raise _Marker("variable 50 reached the normalizer")
        return outer.normalizer(t)

    guarded = TheorySpec(name=outer.name, signature=outer.signature,
                         normalizer=normalizer,
                         atom_enumerator=outer.atom_enumerator)
    return DistributiveLawSpec(
        name="guarded", inner=RING_LAW.inner, outer=guarded,
        rewrite=lambda t: App(ADD, (RING_LAW.rewrite(t), Var(50))))


def _leaves(t: Term) -> list:
    out, stack = [], [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            out.append(u)
        else:
            stack.extend(u.args)
    return out


def test_a_first_leg_that_fails_to_normalize_still_raises():
    law = _guarded_law()
    with pytest.raises(_Marker) as got:
        check_law_axioms(law, Sampler(samples=5, seed=0))
    with pytest.raises(_Marker) as want:
        reference_check_law_axioms(law, Sampler(samples=5, seed=0))
    assert str(got.value) == str(want.value)
