"""``distlaw._layered_nf`` against the split-then-substitute version.

A built-in head (``builtin.LAYER_READERS``) reads its layer in one walk
and normalizes each atom as it meets it, once per run of one atom
object; any other head goes through ``whisker``, which splits it with
``split_layer``, normalizes each distinct atom object once and rebuilds
the term with ``substitute``.  ``reference_layered_nf`` below
is the function as it was before: split, normalize every positional
atom, substitute, then the head's plain normalizer, at every layer.
The two must agree on every term, layered or not, and the composite
theories built on ``_layered_nf`` must agree with ``layered_normalize``.

A composite theory's normalizer reads each layer the same way and calls
its law once per inner layer; ``reference_composite_theory`` is the
normalizer as it was before, which called the law (or the outer
normalizer) at every node.  The two must agree on raw terms over the
union signature, for every composite.
"""
import itertools
import random

import pytest

from lawvere import distlaw
from lawvere.builtin import (ABELIAN_GROUP, ADD, BASE_THEORIES,
                             COMMUTATIVE_MONOID, IDENTITY_THEORY, MONOID, MUL,
                             NEG, POINTED, SEMIGROUP, ZERO, build_combo)
from lawvere.distlaw import (BUILTIN_LAWS, PS_LAW, RING_LAW,
                             DistributiveLawSpec, DistributiveSeries,
                             composite_theory, layered_normalize,
                             multiplicative_over_additive_law,
                             multiplicative_over_pointed_law,
                             pointed_over_additive_law, ps_monoid_theory,
                             ring3_series, ring_theory,
                             series_composite_left, series_composite_right,
                             split_layer, trivial_law, whisker)
from lawvere.parser import parse_term
from lawvere.sampling import random_term
from lawvere.terms import (App, OperationSymbol, StructuralError, TheorySpec,
                           Var, substitute)


def reference_layered_nf(t, order):
    if len(order) == 1:
        return order[0].normalizer(t)
    head = order[0]
    skel, atoms = split_layer(t, head.op_set)
    norm = [reference_layered_nf(a, order[1:]) for a in atoms]
    return head.normalizer(substitute(skel, norm))


def union(theories):
    """A spec over the union signature; only ``random_term`` reads it."""
    sig = tuple(itertools.chain.from_iterable(s.signature for s in theories))
    return TheorySpec(name="union", signature=sig, normalizer=lambda t: t,
                      atom_enumerator=lambda a, b: [])


def stack(layers, arity, rng, depth=2, width=3):
    """A random term of the first theory over the second's ... over Vars."""
    t = random_term(layers[-1], arity, rng, depth)
    for spec in reversed(layers[:-1]):
        w = rng.randint(1, width)
        inner = [t] + [random_term(layers[-1], arity, rng, depth)
                       for _ in range(w - 1)]
        t = substitute(random_term(spec, w, rng, depth), inner)
    return t


def assert_same_nf(t, order):
    try:
        want = reference_layered_nf(t, order)
    except StructuralError as exc:
        with pytest.raises(StructuralError, match=str(exc)):
            distlaw._layered_nf(t, order)
        return
    assert distlaw._layered_nf(t, order) == want


EXTRA_LAWS = {
    "cmonoid-ring": multiplicative_over_additive_law(MONOID,
                                                     COMMUTATIVE_MONOID),
    "ps-monoid": multiplicative_over_pointed_law(MONOID, POINTED),
    "pointed-cmonoid": pointed_over_additive_law(POINTED, COMMUTATIVE_MONOID),
    "trivial": trivial_law(IDENTITY_THEORY, MONOID),
}
LAWS = {**BUILTIN_LAWS, **EXTRA_LAWS}


@pytest.mark.parametrize("name", sorted(LAWS))
def test_layered_nf_matches_the_reference_on_every_law(name):
    law = LAWS[name]
    S, T = law.inner, law.outer
    raw = union([S, T])
    rng = random.Random(name)
    for _ in range(150):
        k = rng.randint(1, 3)
        outer_first = stack([T, S], k, rng)
        inner_first = stack([S, T], k, rng)
        cases = [outer_first, inner_first, random_term(raw, k, rng, 3)]
        try:
            # a law's output repeats one atom object per copy
            cases.append(law.rewrite(inner_first))
        except StructuralError:
            pass
        for t in cases:
            assert_same_nf(t, [T, S])
            assert_same_nf(t, [S, T])


@pytest.mark.parametrize("name", sorted(BASE_THEORIES))
def test_a_single_layer_is_the_plain_normalizer(name):
    spec = BASE_THEORIES[name]
    rng = random.Random(name)
    for _ in range(100):
        t = random_term(union([spec, MONOID]), 2, rng, 3)
        for order in ([spec], [spec, IDENTITY_THEORY]):
            assert_same_nf(t, order)


def test_an_image_that_is_a_head_layer_term_is_read_into_the_layer():
    # mul(one, x+y) normalizes to the sum x+y, which the sum head reads
    # as two atoms; a + 0 normalizes to the word a, read as one letter
    mul, one = MONOID.op("mul"), MONOID.op("one")
    x, y = Var(0), Var(1)
    add, zero = ABELIAN_GROUP.op("add"), ABELIAN_GROUP.op("zero")
    s = App(add, (x, y))
    t = App(add, (App(mul, (App(one, ()), s)), App(ABELIAN_GROUP.op("neg"),
                                                   (x,))))
    assert_same_nf(t, [ABELIAN_GROUP, MONOID])
    assert distlaw._layered_nf(t, [ABELIAN_GROUP, MONOID]) == y
    w = App(mul, (App(add, (App(mul, (x, y)), App(zero, ()))), x))
    assert_same_nf(w, [MONOID, ABELIAN_GROUP])
    assert distlaw._layered_nf(w, [MONOID, ABELIAN_GROUP]) == App(
        mul, (x, App(mul, (y, x))))


@pytest.mark.parametrize("order", list(itertools.permutations(
    ring3_series().theories)), ids=lambda o: "/".join(s.name for s in o))
def test_three_layer_stacks_match_the_reference(order):
    order = list(order)
    raw = union(order)
    rng = random.Random("/".join(s.name for s in order))
    for _ in range(120):
        k = rng.randint(1, 3)
        for t in (stack(order, k, rng), stack(order[::-1], k, rng),
                  random_term(raw, k, rng, 3)):
            assert_same_nf(t, order)


def test_hexagon_paths_match_the_reference():
    series = ring3_series()
    ths = series.theories
    Ti, Tj, Tk = ths[2], ths[1], ths[0]
    lam_ij, lam_ik, lam_jk = (series.law(2, 1).rewrite,
                              series.law(2, 0).rewrite,
                              series.law(1, 0).rewrite)
    order = [Tk, Tj, Ti]
    rng = random.Random(3)
    for _ in range(150):
        t = stack([Ti, Tj, Tk], rng.randint(1, 3), rng)
        top = lam_jk(whisker(Tj.op_set, lam_ik)(lam_ij(t)))
        bot = whisker(Tk.op_set, lam_ij)(lam_ik(whisker(Ti.op_set,
                                                        lam_jk)(t)))
        for u in (top, bot):
            assert layered_normalize(u, order) == reference_layered_nf(
                u, order)


def test_series_composites_match_the_reference(monkeypatch):
    # series_composite_right's rewrites take a composite head, which
    # still splits and substitutes; series_composite_left's a built-in one
    series = ring3_series()
    raw = union(series.theories)
    rng = random.Random(5)
    terms = [random_term(raw, rng.randint(1, 3), rng, 3) for _ in range(150)]
    left, right = series_composite_left(series), series_composite_right(series)
    got = [left.normalize(t) for t in terms]
    assert got == [right.normalize(t) for t in terms]
    # fresh composites, with fresh memos, whose rewrites look the
    # reference up on the module at call time
    monkeypatch.setattr(distlaw, "_layered_nf", reference_layered_nf)
    for ref in (series_composite_left(series),
                series_composite_right(series)):
        assert [ref.normalize(t) for t in terms] == got


def test_a_composite_head_matches_the_reference():
    two = DistributiveSeries(theories=(ABELIAN_GROUP, POINTED),
                             laws={(1, 0): BUILTIN_LAWS["pointed-sum"]},
                             name="two")
    head = series_composite_right(two)
    order = [head, SEMIGROUP]
    raw = union([ABELIAN_GROUP, POINTED, SEMIGROUP])
    rng = random.Random(8)
    for _ in range(150):
        k = rng.randint(1, 3)
        for t in (stack([ABELIAN_GROUP, POINTED, SEMIGROUP], k, rng),
                  random_term(raw, k, rng, 3)):
            assert_same_nf(t, order)


@pytest.mark.parametrize("name", sorted(BUILTIN_LAWS))
def test_composite_normalize_is_layered_normalize(name):
    # the composite theory's normalizer invokes the law; on a term that
    # is already layered outer-over-inner both give the same normal form
    law = BUILTIN_LAWS[name]
    composite = composite_theory(law, check=False)
    rng = random.Random(name)
    for _ in range(150):
        t = stack([law.outer, law.inner], rng.randint(1, 3), rng)
        assert composite.normalize(t) == layered_normalize(
            t, [law.outer, law.inner])


def test_ring3_composites_agree_with_the_three_layer_form():
    series = ring3_series()
    order = list(series.theories)
    left, right = series_composite_left(series), series_composite_right(series)
    rng = random.Random(11)
    for _ in range(150):
        t = stack(order, rng.randint(1, 3), rng)
        want = layered_normalize(t, order)
        assert left.normalize(t) == want == right.normalize(t)


# the composite normalizer -------------------------------------------


def reference_composite_theory(law, *, name="", check=True):
    """``composite_theory`` with its normalizer as it was: at every node
    the arguments first, then the outer normalizer at an outer head and
    the law at an inner head, each on the whole subterm below."""
    outer, inner = law.outer, law.inner

    def nf(t):
        if isinstance(t, Var):
            return t
        v = App(t.op, tuple(nf(a) for a in t.args))
        if t.op in outer.op_set:
            return outer.normalizer(v)
        if t.op in inner.op_set:
            return law.rewrite(v)
        return v

    return TheorySpec(name=name or f"{outer.name}*{inner.name}",
                      signature=outer.signature + inner.signature,
                      normalizer=nf, atom_enumerator=lambda a, b: [])


# a binary operation of no theory, which every composite rebuilds
FOREIGN = TheorySpec(name="foreign",
                     signature=(OperationSymbol("f", 2, "foreign"),),
                     normalizer=lambda t: t, atom_enumerator=lambda a, b: [])


def composite_cases():
    """(name, the composite, its reference) for every composite: the
    cached ring and ps-monoid, one per law in ``LAWS``, and both ring3
    bracketings, whose nested composites are all references too."""
    yield "ring_theory", ring_theory(), reference_composite_theory(RING_LAW)
    yield ("ps_monoid_theory", ps_monoid_theory(),
           reference_composite_theory(PS_LAW))
    for name in sorted(LAWS):
        yield (name, composite_theory(LAWS[name], check=False),
               reference_composite_theory(LAWS[name]))
    for side, build in (("left", series_composite_left),
                        ("right", series_composite_right)):
        got = build(ring3_series())
        orig = distlaw.composite_theory
        distlaw.composite_theory = reference_composite_theory
        try:
            want = build(ring3_series())
        finally:
            distlaw.composite_theory = orig
        yield f"ring3-{side}", got, want


@pytest.mark.parametrize("name,composite,reference", [
    pytest.param(*case, id=case[0]) for case in composite_cases()])
def test_composite_normalizer_matches_the_per_node_reference(
        name, composite, reference):
    # the normalizers themselves, not ``normalize``: no memo, no checks;
    # 300 raw terms over the composite's signature, then 100 with the
    # foreign operation too
    raw, with_foreign = union([composite]), union([composite, FOREIGN])
    rng = random.Random(name)
    for n in range(400):
        k = rng.randint(1, 3)
        t = random_term(raw if n < 300 else with_foreign, k, rng, 3)
        assert composite.normalizer(t) == reference.normalizer(t), t


def test_a_long_word_is_rewritten_once():
    calls = []
    counted = DistributiveLawSpec(
        "counted", RING_LAW.inner, RING_LAW.outer,
        lambda t: calls.append(t) or RING_LAW.rewrite(t))
    word = App(MUL, (Var(0), Var(0)))
    for _ in range(999):
        word = App(MUL, (Var(0), word))
    # a^1001 parses to this chain of 1,000 products
    assert parse_term("a^1001", ring_theory(), 1) == word
    got = composite_theory(counted, check=False).normalizer(word)
    assert got == word and len(calls) == 1
    # the per-node reference rewrites at each product; a rewrite that
    # returns its input keeps that count without its quadratic cost
    calls.clear()
    passing = DistributiveLawSpec("passing", RING_LAW.inner, RING_LAW.outer,
                                  lambda t: calls.append(t) or t)
    assert reference_composite_theory(passing).normalizer(word) == word
    assert len(calls) == 1000


def test_whisker_rewrites_each_atom_object_once():
    word = App(MUL, (Var(0), Var(1)))
    # a canonical 3 * ab repeats the one object ``word``
    t = build_combo({word: 3}, ADD, NEG, ZERO)
    seen = []

    def reverse(a):
        seen.append(a)
        return App(MUL, (a.args[1], a.args[0]))

    got = whisker(ABELIAN_GROUP.op_set, reverse)(t)
    assert seen == [word]
    skel, atoms = split_layer(t, ABELIAN_GROUP.op_set)
    assert len(atoms) == 3
    assert got == substitute(skel, [reverse(a) for a in atoms])
    # objects are told apart by identity, not by ==
    seen.clear()
    whisker(ABELIAN_GROUP.op_set, reverse)(
        App(ADD, (word, App(MUL, (Var(0), Var(1))))))
    assert seen == [word, word]
