import itertools
import random

import pytest

from lawvere.builtin import (ABELIAN_GROUP, BASE_THEORIES, IDENTITY_THEORY,
                             MONOID)
from lawvere.distlaw import (ps_monoid_theory, ring3_series, ring_theory,
                             series_composite_left, series_composite_right)
from lawvere.parser import parse_term
from lawvere.terms import StructuralError, Var
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
    th = LawvereTheory(MONOID)
    hom = list(th.hom(2, 1, 5))
    terms = MONOID.enumerate_normal(2, 5)
    assert [f.components[0] for f in hom] == terms


def test_json_round_trip():
    f = morphism(MONOID, 3, [mono("abc", 3), mono("ab^2c^2", 3)])
    data = morphism_to_json(f)
    assert data == {"source": 3, "target": 2,
                    "components": ["abc", "abbcc"]}
    assert morphism_from_json(data, MONOID) == f


class TestProductStructure:
    def test_identity_theory_exhaustive(self):
        th = LawvereTheory(IDENTITY_THEORY)
        for k, m in itertools.product(range(3), repeat=2):
            rep = check_product_structure(th, k, m, p_values=(0, 1, 2),
                                          size_bound=1)
            assert rep.passed

    def test_composite_theory_sampled(self, ring):
        th = LawvereTheory(ring)
        rep = check_product_structure(th, 1, 2, p_values=(1, 2),
                                      size_bound=3, sample_count=120)
        assert rep.passed
        assert rep.sample_count >= 240

    def test_no_diagonals_variant_fails(self):
        th = NoDiagonalsTheory(MONOID)
        rep = check_product_structure(th, 1, 1, p_values=(1,), size_bound=3)
        assert not rep.passed
        assert any(f["check"] == "pairing-exists" for f in rep.failures)
