"""The layer helpers on the law-checking path against reference copies.

``word_atoms`` and ``combo_of`` walk with an explicit stack, ``sort_key``
makes one walk for both its parts, ``substitute`` and ``sort_key`` build
no generator or list at a binary node, ``random_term`` recurses through
an inner function, and the multiplicative laws read a product layer in one
``word_atoms`` walk, the additive one flattening each summand once,
ordering monomials by keys put together from one ``sort_key`` per atom
and building each monomial once.  The ``reference_*`` functions below are
the straightforward versions; every rewrite must give the same values,
the same dict order and consume the random stream the same way.
"""
import itertools
import random
import sys
from math import prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from lawvere.builtin import (ADD, BASE_THEORIES, CM_ADD, CM_ZERO, MUL, NEG,
                             ONE, POINT, SG_MUL, ZERO, build_combo,
                             build_word, combo_of, word_atoms)
from lawvere.distlaw import (PS_LAW, RING_LAW, SEMIGROUP_SUM_LAW,
                             _EXPANSION_LIMIT, expansion_estimate,
                             ps_monoid_theory, ring_theory, split_layer)
from lawvere.sampling import random_term
from lawvere.terms import (App, OperationSymbol, StructuralError, TheorySpec,
                           Var, sort_key, substitute, term_size)
from .test_terms import raw_terms

WORD_OPS = [(MUL, ONE), (MUL, None), (SG_MUL, None)]
SUM_OPS = [(ADD, NEG, ZERO), (CM_ADD, None, CM_ZERO)]


def builtin_theories():
    return list(BASE_THEORIES.values()) + [ring_theory(), ps_monoid_theory()]


# reference copies ------------------------------------------------------


def reference_word_atoms(t, mul, unit=None):
    if isinstance(t, App) and t.op == mul:
        return (reference_word_atoms(t.args[0], mul, unit)
                + reference_word_atoms(t.args[1], mul, unit))
    if unit is not None and isinstance(t, App) and t.op == unit:
        return []
    return [t]


def reference_combo_of(t, add, neg, zero):
    acc = {}

    def go(u, sign):
        if isinstance(u, App):
            if u.op == add:
                go(u.args[0], sign)
                go(u.args[1], sign)
                return
            if neg is not None and u.op == neg:
                go(u.args[0], -sign)
                return
            if u.op == zero:
                return
        acc[u] = acc.get(u, 0) + sign

    go(t, 1)
    return {a: c for a, c in acc.items() if c != 0}


def reference_term_key(t):
    if isinstance(t, Var):
        return (0, t.index)
    return (1, t.op.name, t.op.theory,
            tuple(reference_term_key(a) for a in t.args))


def reference_substitute(t, sigma):
    if isinstance(t, Var):
        if t.index >= len(sigma):
            raise StructuralError(
                f"variable {t.index} outside substitution of length {len(sigma)}")
        return sigma[t.index]
    return App(t.op, tuple(reference_substitute(a, sigma) for a in t.args))


def reference_random_term(spec, k, rng, depth):
    leaves = []
    if k > 0:
        leaves.append("var")
    leaves.extend(op for op in spec.signature if op.arity == 0)
    if not leaves:
        raise StructuralError(
            f"theory {spec.name} has no closed terms over 0 variables")
    inner = [op for op in spec.signature if op.arity > 0]
    if depth <= 0 or not inner or rng.random() < 0.3:
        pick = rng.choice(leaves)
        if pick == "var":
            return Var(rng.randrange(k))
        return App(pick, ())
    op = rng.choice(inner)
    return App(op, tuple(reference_random_term(spec, k, rng, depth - 1)
                         for _ in range(op.arity)))


def reference_rewrite(mult, additive):
    """multiplicative_over_additive_law's rewrite, flattening each chosen
    summand once per choice."""
    mul = mult.op("mul")
    unit = mult.op("one") if mult.has_op("one") else None
    add = additive.op("add")
    neg = additive.op("neg") if additive.has_op("neg") else None
    zero = additive.op("zero")

    def rw(t):
        skel, leaves = split_layer(t, mult.op_set)
        slots = [v.index for v in reference_word_atoms(skel, mul, unit)]
        combos = [reference_combo_of(leaves[i], add, neg, zero).items()
                  for i in slots]
        acc = {}
        for choice in itertools.product(*combos):
            coeff = prod((c for _, c in choice), start=1)
            chain = []
            for a, _ in choice:
                chain.extend(reference_word_atoms(a, mul, unit))
            key = build_word(chain, mul, unit)
            acc[key] = acc.get(key, 0) + coeff
        acc = {k: v for k, v in acc.items() if v != 0}
        return build_combo(acc, add, neg, zero)

    return rw


def reference_pointed_rewrite(mult, pointed):
    """multiplicative_over_pointed_law's rewrite, reading the product
    layer through split_layer and its skeleton."""
    mul = mult.op("mul")
    unit = mult.op("one") if mult.has_op("one") else None
    point = App(pointed.op("point"), ())

    def rw(t):
        skel, leaves = split_layer(t, mult.op_set)
        slots = [v.index for v in reference_word_atoms(skel, mul, unit)]
        kept = []
        for i in slots:
            leaf = leaves[i]
            if leaf == point:
                continue
            kept.extend(reference_word_atoms(leaf, mul, unit))
        if not kept:
            return point
        return build_word(kept, mul, unit)

    return rw


REFERENCE_REWRITES = {RING_LAW.name: reference_rewrite,
                      SEMIGROUP_SUM_LAW.name: reference_rewrite,
                      PS_LAW.name: reference_pointed_rewrite}


def assert_same_combo(got, want):
    assert got == want
    assert list(got.items()) == list(want.items())


# strategies ------------------------------------------------------------


@st.composite
def theory_terms(draw, k=3):
    spec = draw(st.sampled_from(builtin_theories()))
    return draw(raw_terms(spec, k))


@st.composite
def sums_over_a_pool(draw, add, neg, zero):
    """Sums and negations whose leaves are a few shared objects, so runs
    of one object and interleaved signs occur often."""
    pool = draw(st.lists(theory_terms(), min_size=1, max_size=3))
    leaf = st.sampled_from(pool + [App(zero, ())])

    def extend(children):
        sums = st.builds(lambda a, b: App(add, (a, b)), children, children)
        if neg is None:
            return sums
        return st.one_of(sums, st.builds(lambda a: App(neg, (a,)), children))

    return draw(st.recursive(leaf, extend, max_leaves=12))


# equivalence -----------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(theory_terms())
def test_word_atoms_matches_the_reference(t):
    for mul, unit in WORD_OPS:
        assert word_atoms(t, mul, unit) == reference_word_atoms(t, mul, unit)


@pytest.mark.parametrize("shape", ["left", "right", "mixed"])
def test_word_atoms_on_nested_and_unit_laden_products(shape):
    rng = random.Random(shape)
    letters = [Var(0), Var(1), App(ONE, ()), App(NEG, (Var(2),))]
    for _ in range(200):
        parts = [rng.choice(letters) for _ in range(rng.randint(1, 9))]
        t = parts[0]
        for p in parts[1:]:
            if shape == "left" or (shape == "mixed" and rng.random() < 0.5):
                t = App(MUL, (t, p))
            else:
                t = App(MUL, (p, t))
        for mul, unit in WORD_OPS:
            assert (word_atoms(t, mul, unit)
                    == reference_word_atoms(t, mul, unit))


@settings(max_examples=100, deadline=None)
@given(theory_terms())
def test_combo_of_matches_the_reference(t):
    for add, neg, zero in SUM_OPS:
        assert_same_combo(combo_of(t, add, neg, zero),
                          reference_combo_of(t, add, neg, zero))


@pytest.mark.parametrize("ops", SUM_OPS, ids=["abgroup", "cmonoid"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_combo_of_matches_the_reference_on_shared_atoms(ops, data):
    add, neg, zero = ops
    t = data.draw(sums_over_a_pool(add, neg, zero))
    assert_same_combo(combo_of(t, add, neg, zero),
                      reference_combo_of(t, add, neg, zero))


def test_combo_of_keeps_sign_and_order_on_repeated_atoms():
    a, b = App(MUL, (Var(0), Var(1))), Var(2)
    minus = lambda u: App(NEG, (u,))
    # a run of a, interrupted by b, with signs flipping inside the run
    parts = [a, minus(a), a, a, b, minus(minus(a)), minus(b), b, a]
    t = parts[-1]
    for p in reversed(parts[:-1]):
        t = App(ADD, (p, t))
    got = combo_of(t, ADD, NEG, ZERO)
    assert_same_combo(got, reference_combo_of(t, ADD, NEG, ZERO))
    assert list(got.items()) == [(a, 4), (b, 1)]
    # a run that cancels keeps its place in the order until it is dropped
    t = App(ADD, (a, App(ADD, (minus(a), App(ADD, (b, a))))))
    assert_same_combo(combo_of(t, ADD, NEG, ZERO),
                      reference_combo_of(t, ADD, NEG, ZERO))
    # build_combo writes c copies of one object: the round trip holds
    for combo in ({a: 3, b: -2}, {b: 5}, {a: -4}):
        out = build_combo(combo, ADD, NEG, ZERO)
        assert combo_of(out, ADD, NEG, ZERO) == combo


@settings(max_examples=100, deadline=None)
@given(theory_terms())
def test_sort_key_is_size_then_key(t):
    assert sort_key(t) == (term_size(t), reference_term_key(t))


# one symbol of each arity 0..3, so every branch of the walks is taken
ARITIES = TheorySpec(
    name="arities",
    signature=tuple(OperationSymbol(f"f{n}", n, "arities") for n in range(4)),
    normalizer=lambda t: t, atom_enumerator=lambda atoms, bound: [])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_substitute_and_sort_key_match_the_reference(data):
    spec = data.draw(st.sampled_from(builtin_theories() + [ARITIES]))
    t = data.draw(raw_terms(spec, 3))
    sigma = tuple(data.draw(raw_terms(spec, 2)) for _ in range(
        data.draw(st.integers(0, 3))))
    assert sort_key(t) == (term_size(t), reference_term_key(t))
    try:
        want = reference_substitute(t, sigma)
    except StructuralError as exc:
        with pytest.raises(StructuralError, match=str(exc)):
            substitute(t, sigma)
        return
    assert substitute(t, sigma) == want


@pytest.mark.parametrize("spec", builtin_theories() + [ARITIES],
                         ids=lambda s: s.name)
def test_random_term_consumes_the_stream_as_the_reference(spec):
    params = random.Random(spec.name)
    rng, ref = random.Random(11), random.Random(11)
    closed = any(op.arity == 0 for op in spec.signature)
    for _ in range(2000):
        k = params.randint(0 if closed else 1, 4)
        depth = params.randint(-1, 4)
        got = random_term(spec, k, rng, depth)
        want = reference_random_term(spec, k, ref, depth)
        assert got == want
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("law", [RING_LAW, SEMIGROUP_SUM_LAW, PS_LAW],
                         ids=lambda law: law.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_multiplicative_law_rewrite_matches_the_reference(law, data):
    j = data.draw(st.integers(1, 3))
    sigma = data.draw(raw_terms(law.inner, j))
    xis = tuple(data.draw(raw_terms(law.outer, 3)) for _ in range(j))
    t = substitute(sigma, xis)
    # the law checks redraw larger samples; their canonical sums are too
    # deep to compare under the recursion limit Hypothesis sets
    assume(expansion_estimate(t) <= _EXPANSION_LIMIT)
    reference = REFERENCE_REWRITES[law.name](law.inner, law.outer)
    assert law.rewrite(t) == reference(t)


def _sum(*parts):
    return build_word(list(parts), ADD)


def _minus(t):
    return App(NEG, (t,))


def coefficient_heavy_products(mul, unit):
    """Products of sums, by name, where the expansion repeats or cancels
    monomials: the inputs a law check's canonical sums feed the rewrite."""
    a, b, c = Var(0), Var(1), Var(2)
    pt = App(POINT, ())
    word = lambda *letters: build_word(list(letters), mul)
    cases = {
        # summands written out as coefficient copies, signs mixed
        "copies": word(_sum(a, a, a, _minus(b)),
                       _sum(b, b, _minus(a), _minus(a))),
        "canonical-copies": word(
            build_combo({a: 3, b: -2}, ADD, NEG, ZERO),
            build_combo({word(a, b): 2, c: -1}, ADD, NEG, ZERO), _sum(c, c)),
        # a factor whose summands cancel makes the product zero
        "factor-cancels": word(_sum(a, _minus(a)), b),
        # a·bb and ab·b are one chain, with opposite signs
        "choices-cancel": word(_sum(a, _minus(word(a, b))),
                               _sum(word(b, b), b)),
        # ... and with equal signs
        "choices-agree": word(_sum(a, word(a, b)), _sum(word(b, b), b)),
        # atoms headed by a third theory's operation, as in the ring3 stack
        "third-theory-atoms": word(_sum(pt, a, pt), _sum(_minus(pt), b), pt),
    }
    if unit is not None:
        one = App(unit, ())
        cases["unit-words"] = word(_sum(one, a), one, _sum(b, _minus(one)))
        # a·b and ab·1 are one chain
        cases["unit-same-chain"] = word(_sum(a, word(a, b)), _sum(b, one))
    return cases


def _coefficient_heavy_cases():
    for law in (RING_LAW, SEMIGROUP_SUM_LAW):
        mul = law.inner.op("mul")
        unit = law.inner.op("one") if law.inner.has_op("one") else None
        for name, t in coefficient_heavy_products(mul, unit).items():
            yield pytest.param(law, t, id=f"{law.name}-{name}")


@pytest.mark.parametrize("law,t", _coefficient_heavy_cases())
def test_additive_law_rewrite_on_coefficient_heavy_products(law, t):
    reference = reference_rewrite(law.inner, law.outer)
    assert law.rewrite(t) == reference(t)


def test_additive_law_rewrite_merges_and_drops_equal_chains():
    a, b = Var(0), Var(1)
    cases = coefficient_heavy_products(MUL, ONE)
    combo = lambda name: combo_of(RING_LAW.rewrite(cases[name]),
                                  ADD, NEG, ZERO)
    ab, abb = build_word([a, b], MUL), build_word([a, b, b], MUL)
    assert combo("factor-cancels") == {}
    assert combo("choices-cancel") == {ab: 1,
                                       build_word([a, b, b, b], MUL): -1}
    assert combo("choices-agree")[abb] == 2
    assert combo("unit-same-chain")[ab] == 2


# depth and arity -------------------------------------------------------

CHAIN = 100_000


def test_word_atoms_on_long_chains():
    # far deeper than the package's recursion limit allows a recursive walk
    assert sys.getrecursionlimit() < CHAIN
    letters = [Var(i % 3) for i in range(CHAIN)]
    right = build_word(letters, MUL, ONE)
    assert word_atoms(right, MUL, ONE) == letters
    left = letters[0]
    for a in letters[1:]:
        left = App(MUL, (left, a))
    assert word_atoms(left, MUL, ONE) == letters


def test_combo_of_on_long_chains():
    a, b = Var(0), Var(1)
    sum_ = build_combo({a: CHAIN // 2, b: -(CHAIN // 2)}, ADD, NEG, ZERO)
    assert combo_of(sum_, ADD, NEG, ZERO) == {a: CHAIN // 2,
                                              b: -(CHAIN // 2)}
    # equal atoms that are separate objects, alternating signs
    parts = [Var(0) if i % 2 else App(NEG, (Var(1),)) for i in range(CHAIN)]
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = App(ADD, (p, out))
    assert list(combo_of(out, ADD, NEG, ZERO).items()) == [
        (b, -(CHAIN // 2)), (a, CHAIN // 2)]


def test_builders_still_check_the_symbol_arity():
    with pytest.raises(StructuralError, match="applied to 2 arguments"):
        build_word([Var(0), Var(1), Var(2)], NEG)
    with pytest.raises(StructuralError, match="applied to 2 arguments"):
        build_combo({Var(0): 2}, NEG, None, ZERO)
    with pytest.raises(StructuralError, match="applied to 1 arguments"):
        build_combo({Var(0): -1}, ADD, ADD, ZERO)
    with pytest.raises(StructuralError, match="applied to 0 arguments"):
        build_word([], MUL, MUL)
    # a single atom makes no node, so there is nothing to check
    assert build_word([Var(0)], NEG) == Var(0)
    assert build_combo({Var(0): 1}, NEG, None, ZERO) == Var(0)
