import itertools
import random

import pytest

from lawvere.builtin import (ABELIAN_GROUP, BASE_THEORIES, IDENTITY_THEORY,
                             MONOID)
from lawvere.correspondence import TheoryFragment, phi
from lawvere.fincat import FiniteCategory, Morphism
from lawvere.fragments import (FRAGMENTS, FREE_MONOID_MONAD, IDENTITY_MONAD,
                               POINTED_MONAD)
from lawvere.distlaw import (ps_monoid_theory, ring3_series, ring_theory,
                             series_composite_left, series_composite_right)
from lawvere.parser import parse_term
from lawvere.terms import StructuralError, Var, substitute
from lawvere.theory import (BaseFunction, LawvereTheory, NoDiagonalsTheory,
                            TheoryMorphism, all_base_functions,
                            basic_morphism, check_product_structure, compose,
                            compose_base, identity_base, identity_morphism,
                            morphism, morphism_from_json, morphism_to_json)


def mono(text, arity):
    return parse_term(text, MONOID, arity)


def every_builtin_theory():
    """The base theories, both composites, and both bracketings of the
    ring3 series."""
    series = ring3_series()
    specs = {**BASE_THEORIES, "ring": ring_theory(),
             "ps-monoid": ps_monoid_theory(),
             "ring3-left": series_composite_left(series),
             "ring3-right": series_composite_right(series)}
    return [pytest.param(spec, id=name) for name, spec in specs.items()]


class TestIdentity:
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_identity_components(self, k):
        f = identity_morphism(MONOID, k)
        assert f.components == tuple(Var(i) for i in range(k))

    def test_compose_with_identity(self):
        f = morphism(MONOID, 3, [mono("abc", 3), mono("ab^2c^2", 3)])
        assert compose(f, identity_morphism(MONOID, 3)) == f
        assert compose(identity_morphism(MONOID, 2), f) == f


class TestCompose:
    def test_composite_three_ary(self):
        f = morphism(MONOID, 3, [mono("abc", 3), mono("ab^2c^2", 3)])
        g = morphism(MONOID, 2, [mono("a^2b", 2)])
        got = compose(g, f)
        assert got.components == (mono("abcabcab^2c^2", 3),)

    def test_abgroup_diagonal(self):
        add = lambda s, k: parse_term(s, ABELIAN_GROUP, k)
        g = morphism(ABELIAN_GROUP, 2, [add("a+b", 2)])
        diag = morphism(ABELIAN_GROUP, 1, [Var(0), Var(0)])
        got = compose(g, diag)
        assert got.components == (add("a+a", 1),)

    def test_object_mismatch(self):
        f = morphism(MONOID, 2, [mono("ab", 2)])
        with pytest.raises(StructuralError):
            compose(f, f)

    def test_associativity_sampled(self):
        rng = random.Random(0)
        pool3 = MONOID.enumerate_normal(3, 5)
        pool2 = MONOID.enumerate_normal(2, 5)
        for _ in range(60):
            f = morphism(MONOID, 3, [rng.choice(pool3) for _ in range(2)])
            g = morphism(MONOID, 2, [rng.choice(pool2) for _ in range(2)])
            h = morphism(MONOID, 2, [rng.choice(pool2)])
            assert compose(h, compose(g, f)) == compose(compose(h, g), f)

    @pytest.mark.parametrize(
        "spec", [MONOID, ABELIAN_GROUP, ring_theory(), ps_monoid_theory()],
        ids=lambda s: s.name)
    def test_unchecked_composite_passes_the_public_checks(self, spec):
        # compose builds its result without re-running the checks; the
        # same components must pass them
        pool = spec.enumerate_normal(2, 3)
        fs = [morphism(spec, 2, pair)
              for pair in itertools.product(pool, repeat=2)]
        for c in pool:
            g = morphism(spec, 2, [c])
            for f in fs:
                got = compose(g, f)
                assert got == TheoryMorphism(spec, got.source, got.target,
                                             got.components)
                assert (got.source, got.target) == (2, 1)


def reference_compose(g, f):
    """g after f with every component substituted and normalized, built
    through the checked constructor."""
    return TheoryMorphism(g.theory, f.source, g.target, tuple(
        g.theory.normalize(substitute(c, f.components))
        for c in g.components))


def morphisms_out_of(spec, n):
    """A spread of checked morphisms n -> m for m = 0, 1, 2 from the
    normal forms of size <= 3."""
    pool = spec.enumerate_normal(n, 3)[:5]
    return [morphism(spec, n, comps) for m in range(3)
            for comps in itertools.product(pool, repeat=m)]


class TestInclusionComposite:
    """After an inclusion, whose component i is Var(i), ``compose`` hands
    back g's components; it must agree with substituting and normalizing
    them, and every other table must still be substituted."""

    @pytest.mark.parametrize("spec", every_builtin_theory())
    @pytest.mark.parametrize("n", range(5))
    def test_inclusions_agree_with_the_reference(self, spec, n):
        gs = morphisms_out_of(spec, n)
        for source in (n, n + 1, n + 3):
            incl = morphism(spec, source, [Var(i) for i in range(n)])
            for g in gs:
                got = compose(g, incl)
                assert got == reference_compose(g, incl)
                assert got.source == source
                assert got.components is g.components

    @pytest.mark.parametrize("spec", every_builtin_theory())
    @pytest.mark.parametrize("table, source", [
        ((1, 0), 2), ((2, 0, 1), 3), ((0, 0), 1), ((0, 0), 2),
        ((1, 1), 2), ((0, 2), 3), ((1,), 2), ((0, 1, 1), 3)],
        ids=["swap", "rotate", "merge", "merge-in-2", "both-1",
             "wrong-slot", "shifted", "last-repeated"])
    def test_variable_tables_agree_with_the_reference(self, spec, table,
                                                      source):
        f = morphism(spec, source, [Var(i) for i in table])
        for g in morphisms_out_of(spec, len(table)):
            assert compose(g, f) == reference_compose(g, f)

    @pytest.mark.parametrize("spec", [p for p in every_builtin_theory()
                                      if p.values[0].signature])
    def test_a_term_among_variables_is_substituted(self, spec):
        # the first two slots read as an inclusion, the third does not
        term = [t for t in spec.enumerate_normal(3, 3)
                if not isinstance(t, Var)][-1]
        f = morphism(spec, 3, [Var(0), Var(1), term])
        for g in morphisms_out_of(spec, 3):
            assert compose(g, f) == reference_compose(g, f)


class TestBasicMorphism:
    def test_projection(self):
        alpha = BaseFunction(1, 3, (0,))
        assert basic_morphism(MONOID, alpha).components == (Var(0),)

    def test_diagonal(self):
        alpha = BaseFunction(3, 1, (0, 0, 0))
        f = basic_morphism(MONOID, alpha)
        assert (f.source, f.target) == (1, 3)
        assert f.components == (Var(0), Var(0), Var(0))

    def test_identity_base(self):
        assert basic_morphism(MONOID, identity_base(3)) == \
            identity_morphism(MONOID, 3)

    @pytest.mark.parametrize("spec", every_builtin_theory())
    def test_every_normalizer_fixes_variables(self, spec):
        # basic_morphism builds on this without checking it
        for i in range(26):
            assert spec.normalize(Var(i)) == Var(i)

    @pytest.mark.parametrize("spec", every_builtin_theory())
    def test_unchecked_basic_morphism_passes_the_public_checks(self, spec):
        for dom, cod in itertools.product(range(4), repeat=2):
            for alpha in all_base_functions(dom, cod):
                comps = tuple(Var(alpha(i)) for i in range(dom))
                assert basic_morphism(spec, alpha) == TheoryMorphism(
                    spec, cod, dom, comps)

    def test_functorial_exhaustively(self):
        # contravariance: basic(alpha o beta) = basic(beta) ; basic(alpha)
        for m, k, p in itertools.product(range(4), repeat=3):
            for beta in all_base_functions(p, m):
                for alpha in all_base_functions(m, k):
                    lhs = basic_morphism(MONOID, compose_base(alpha, beta))
                    rhs = compose(basic_morphism(MONOID, beta),
                                  basic_morphism(MONOID, alpha))
                    assert lhs == rhs


def test_hom_set_formula():
    # morphisms k -> 1 of bounded size are exactly the bounded normal forms
    th = LawvereTheory(TheoryFragment(MONOID))
    hom = list(th.hom(2, 1, 5))
    terms = MONOID.enumerate_normal(2, 5)
    assert [f[0] for f in hom] == terms


def test_json_round_trip():
    f = morphism(MONOID, 3, [mono("abc", 3), mono("ab^2c^2", 3)])
    data = morphism_to_json(f)
    assert data == {"source": 3, "target": 2,
                    "components": ["abc", "abbcc"]}
    assert morphism_from_json(data, MONOID) == f


def reference_product_check(spec, k, m, p_values, size_bound,
                            sample_count=None, seed=0, no_diagonals=False):
    """The product check as it ran on validated ``TheoryMorphism``s, with
    every hom-set filtered by the no-diagonals test when asked: (samples,
    passes, the failed checks in order)."""
    rng = random.Random(seed)

    def keep(f):
        occ, stack = [], list(f.components)
        while stack:
            t = stack.pop()
            if isinstance(t, Var):
                occ.append(t.index)
            else:
                stack.extend(t.args)
        return not no_diagonals or len(occ) == len(set(occ))

    def hom(p, n):
        pool = spec.enumerate_normal(p, size_bound)
        homs = (TheoryMorphism(spec, p, n, comps)
                for comps in itertools.product(pool, repeat=n))
        return [f for f in homs if keep(f)]

    p1 = basic_morphism(spec, BaseFunction(k, k + m, tuple(range(k))))
    p2 = basic_morphism(spec, BaseFunction(m, k + m, tuple(range(k, k + m))))
    samples, passes, failed = 0, 0, []
    for p in p_values:
        fs, gs, hs = hom(p, k), hom(p, m), hom(p, k + m)
        if sample_count is not None:
            pairs = [(rng.choice(fs), rng.choice(gs))
                     for _ in range(sample_count) if fs and gs]
            picks = [rng.choice(hs) for _ in range(sample_count) if hs]
        else:
            pairs, picks = list(itertools.product(fs, gs)), hs
        for f, g in pairs:
            samples += 1
            h = TheoryMorphism(spec, p, k + m, f.components + g.components)
            if not keep(h):
                bad = ["pairing-exists"]
            else:
                bad = [check for check, proj, want in
                       (("projection-1", p1, f), ("projection-2", p2, g))
                       if compose(proj, h) != want]
            failed += bad
            passes += not bad
        for h in picks:
            samples += 1
            if compose(p1, h).components + compose(p2, h).components \
                    == h.components:
                passes += 1
            else:
                failed.append("surjective-pairing")
    return samples, passes, failed


PRODUCT_CASES = [
    *(("identity", k, m, (0, 1, 2), 1, None, 0)
      for k, m in itertools.product(range(3), repeat=2)),
    ("ring", 1, 2, (1, 2), 3, 120, 0),
    ("ring", 1, 2, (1, 2), 3, 150, 0),
    ("monoid", 2, 1, (0, 1, 2), 3, 40, 5),
    ("no-diagonals", 1, 1, (1,), 3, None, 0),
    ("no-diagonals", 1, 2, (2,), 3, 50, 3),
]


class TestProductStructure:
    @pytest.mark.parametrize("case", PRODUCT_CASES,
                             ids=lambda c: f"{c[0]}-{c[1]}{c[2]}-{c[5]}")
    def test_counts_match_the_morphism_checker(self, case, ring):
        name, k, m, ps, bound, samples, seed = case
        spec = {"identity": IDENTITY_THEORY, "ring": ring}.get(name, MONOID)
        cls = NoDiagonalsTheory if name == "no-diagonals" else LawvereTheory
        rep = check_product_structure(cls(TheoryFragment(spec)), k, m,
                                      p_values=ps, size_bound=bound,
                                      sample_count=samples, seed=seed)
        assert rep.subject == f"product-structure:{spec.name}"
        assert (rep.sample_count, rep.pass_count,
                [f["check"] for f in rep.failures]) == \
            reference_product_check(spec, k, m, ps, bound, samples, seed,
                                    no_diagonals=name == "no-diagonals")

    @pytest.mark.parametrize("spec, ps", [(MONOID, (1,)),
                                          (IDENTITY_THEORY, (0,))],
                             ids=["monoid", "identity"])
    def test_bounds_that_leave_nothing_to_check_raise(self, spec, ps):
        with pytest.raises(StructuralError, match="size bound 0 leave "
                                                  "nothing to check"):
            check_product_structure(LawvereTheory(TheoryFragment(spec)),
                                    2, 1, p_values=ps, size_bound=0)

    @pytest.mark.parametrize("name", sorted(FRAGMENTS))
    def test_every_fragment_has_products(self, name):
        rep = check_product_structure(phi(FRAGMENTS[name]), 1, 2,
                                      size_bound=2, sample_count=60)
        assert rep.passed
        assert rep.subject == f"product-structure:{name}"
        assert rep.sample_count >= 240

    def test_identity_theory_exhaustive(self):
        th = LawvereTheory(TheoryFragment(IDENTITY_THEORY))
        for k, m in itertools.product(range(3), repeat=2):
            rep = check_product_structure(th, k, m, p_values=(0, 1, 2),
                                          size_bound=1)
            assert rep.passed

    def test_composite_theory_sampled(self, ring):
        th = LawvereTheory(TheoryFragment(ring))
        rep = check_product_structure(th, 1, 2, p_values=(1, 2),
                                      size_bound=3, sample_count=120)
        assert rep.passed
        assert rep.sample_count >= 240

    def test_no_diagonals_variant_fails(self):
        th = NoDiagonalsTheory(TheoryFragment(MONOID))
        rep = check_product_structure(th, 1, 1, p_values=(1,), size_bound=3)
        assert not rep.passed
        assert any(f["check"] == "pairing-exists" for f in rep.failures)


def reference_fop_truncation(sizes, name=""):
    """Finite sets and functions read contravariantly, built the way the
    package built them before ``truncate``: an arrow k -> m is a table
    [m] -> [k], and composites read the tables back from the names."""
    objects = list(sizes)

    def mname(k, m, table):
        return f"{k}->{m}:{','.join(map(str, table))}"

    def parse(name):
        part = name.split(":", 1)[1]
        return tuple(int(v) for v in part.split(",")) if part else ()

    morphisms = [Morphism(mname(k, m, table), k, m)
                 for k in objects for m in objects
                 for table in itertools.product(range(k), repeat=m)]
    comp = {}
    for f in morphisms:
        for g in morphisms:
            if f.tgt == g.src:
                comp[(g.name, f.name)] = mname(
                    f.src, g.tgt, tuple(parse(f.name)[v]
                                        for v in parse(g.name)))
    idents = {k: mname(k, k, tuple(range(k))) for k in objects}
    return FiniteCategory(name or f"fop{objects}", objects, morphisms,
                          idents, comp)


def category_tables(cat):
    return ([(f.name, f.src, f.tgt) for f in cat.morphisms],
            {o: cat.identity(o).name for o in cat.objects},
            cat.composition)


class TestTruncate:
    @pytest.mark.parametrize("sizes", [[0, 1, 2], [0, 1, 2, 3], [3, 1],
                                       [2]], ids=str)
    def test_identity_truncation_is_finite_sets_reversed(self, sizes):
        got = phi(IDENTITY_MONAD).truncate(sizes, name="fop")
        want = reference_fop_truncation(sizes, name="fop")
        assert got.objects == want.objects
        assert category_tables(got) == category_tables(want)

    def test_pointed_morphism_counts(self):
        assert len(phi(POINTED_MONAD).truncate(range(3)).morphisms) == 23
        assert len(phi(POINTED_MONAD).truncate(range(4)).morphisms) == 144

    @pytest.mark.parametrize("fragment", [FREE_MONOID_MONAD,
                                          TheoryFragment(MONOID)],
                             ids=["free-monoid", "monoid-theory"])
    def test_infinite_fragment_rejected(self, fragment):
        with pytest.raises(StructuralError, match="infinite carriers"):
            phi(fragment).truncate(range(2))
