import itertools
import json

import pytest

import lawvere.cli as cli
import lawvere.correspondence as correspondence
from lawvere.builtin import IDENTITY_THEORY, MONOID, POINTED, SEMIGROUP
from lawvere.correspondence import (CoendResult, MonadMap, TheoryFragment,
                                    composite_correspondence_check,
                                    encode_term, istar_composite,
                                    monad_from_theory, monad_map_natural,
                                    phi, reconstruct_map, roundtrip_check,
                                    tabulate_map)
from lawvere.distlaw import (BUILTIN_LAWS, PS_LAW, RING_LAW,
                             ps_monoid_theory, ring_theory, trivial_law)
from lawvere.fragments import (FREE_MONOID_MONAD, FREE_RING_MONAD,
                               FREE_SEMIGROUP_MONAD, IDENTITY_MONAD,
                               POINTED_MONAD, FreeMonoidMonad, FreeRingMonad,
                               PointedMonad)
from lawvere.parser import parse_term
from lawvere.pcompletion import (InvariantBroken, KeypropComputation,
                                 verify_keyprop)
from lawvere.terms import StructuralError
from lawvere.theory import BaseFunction
from .conftest import make_diagram_mutant, words_over


class TestPhi:
    def test_pointed_hom_two_one(self):
        assert len(phi(POINTED_MONAD).hom(2, 1)) == 3

    def test_free_monoid_bounded_words(self):
        got = {f[0] for f in phi(FREE_MONOID_MONAD).hom(2, 1, 2)}
        assert got == set(words_over(2, 2))
        assert len(got) == 7

    def test_identity_monad_gives_arity_category(self):
        table = phi(IDENTITY_MONAD)
        # hom(n, m) = functions [m] -> [n], composed by reindexing
        assert len(table.hom(3, 2)) == 9
        f = (0, 2)        # 3 -> 2
        g = (1, 1, 0)     # 2 -> 3
        assert table.compose(g, f) == (2, 2, 0)

    def test_kleisli_composition_matches_theory_composition(self):
        table = phi(FREE_MONOID_MONAD)
        f = ((0, 1), (1,))          # 2 -> 2
        g = ((0, 0, 1),)            # 2 -> 1
        assert table.compose(g, f) == ((0, 1, 0, 1, 1),)

    def test_basic_embedding(self):
        table = phi(POINTED_MONAD)
        alpha = BaseFunction(3, 1, (0, 0, 0))
        assert table.basic(alpha) == (0, 0, 0)
        assert table.identity(2) == (0, 1)


class TestMonadFromTheory:
    def test_pointed_theory_on_two_elements(self):
        res = monad_from_theory(phi(TheoryFragment(POINTED)), 2, 2,
                                size_bound=3)
        assert res.size == 3
        assert res.stable

    def test_identity_theory_gives_the_set_back(self):
        for x in range(4):
            res = monad_from_theory(phi(TheoryFragment(IDENTITY_THEORY)),
                                    x, 3, size_bound=2)
            assert res.size == x
            assert res.stable

    def test_ring_theory_matches_polynomial_count(self, ring):
        res = monad_from_theory(phi(TheoryFragment(ring)), 1, 2,
                                size_bound=5)
        oracle = FREE_RING_MONAD.carrier(1, 5)
        assert res.size == len(oracle)

    def test_phi_side_matches_fragment(self):
        res = monad_from_theory(phi(POINTED_MONAD), 3, 3)
        assert res.size == 4
        assert res.stable


def reference_monad_from_theory(table, x, truncation, size_bound=None):
    """``monad_from_theory`` as it was with a second build at
    truncation + 1 for the stability flag."""
    frag = table.fragment
    comp = KeypropComputation(frag, x, 1, truncation, size_bound)
    bigger = KeypropComputation(frag, x, 1, truncation + 1, size_bound)
    reps = comp.representatives()
    return CoendResult(invariants={r: comp.invariant(r)[0] for r in reps},
                       stable=bigger.class_count() == len(reps),
                       truncation=truncation)


REBUILT = [
    (IDENTITY_MONAD, None), (POINTED_MONAD, None),
    (FREE_MONOID_MONAD, 2), (FREE_SEMIGROUP_MONAD, 2), (FREE_RING_MONAD, 1),
    (TheoryFragment(POINTED), 3), (TheoryFragment(MONOID), 3),
]


@pytest.mark.parametrize("fragment, bound", REBUILT,
                         ids=lambda v: getattr(v, "name", repr(v)))
def test_monad_from_theory_matches_two_builds(fragment, bound):
    unstable = 0
    for x, truncation in itertools.product(range(3), range(4)):
        got = monad_from_theory(phi(fragment), x, truncation, bound)
        want = reference_monad_from_theory(phi(fragment), x, truncation,
                                           bound)
        assert list(got.invariants.items()) == \
            list(want.invariants.items())
        assert got.size == want.size
        assert (got.stable, got.truncation) == \
            (want.stable, want.truncation)
        unstable += not got.stable
    # truncations below x + 1 leave classes out, so some flags are False
    assert unstable


@pytest.mark.parametrize("fragment, bound", REBUILT[:5],
                         ids=lambda v: getattr(v, "name", repr(v)))
def test_roundtrip_matches_two_builds(fragment, bound, monkeypatch):
    runs = [(2, None), (2, 0), (2, 1), (1, 3)]
    got = [roundtrip_check(fragment, x, truncation=t, size_bound=bound)
           for x, t in runs]
    monkeypatch.setattr(correspondence, "monad_from_theory",
                        reference_monad_from_theory)
    want = [roundtrip_check(fragment, x, truncation=t, size_bound=bound)
            for x, t in runs]
    assert [r.to_json_dict() for r in got] == \
        [r.to_json_dict() for r in want]
    assert [r.stability for r in got] == [r.stability for r in want]
    assert not all(all(r.stability.values()) for r in got)


class TestRoundtrip:
    def test_identity(self):
        rep = roundtrip_check(IDENTITY_MONAD, 3)
        assert rep.passed

    def test_pointed(self):
        rep = roundtrip_check(POINTED_MONAD, 3)
        assert rep.passed
        assert all(rep.stability.values())

    def test_free_monoid_bounded(self):
        rep = roundtrip_check(FREE_MONOID_MONAD, 2, truncation=3,
                              size_bound=3)
        assert rep.passed

    def test_negative_bound_raises(self):
        with pytest.raises(StructuralError, match="leaves nothing to check"):
            roundtrip_check(POINTED_MONAD, -1)


class TestNaturalTransformations:
    def test_inclusion_and_reversal_natural(self):
        inc = MonadMap("include", IDENTITY_MONAD, POINTED_MONAD,
                       lambda n, e: e)
        rev = MonadMap("reverse", FREE_MONOID_MONAD, FREE_MONOID_MONAD,
                       lambda n, w: tuple(reversed(w)))
        assert monad_map_natural(inc, 3)
        assert monad_map_natural(rev, 3, carrier_bound=2)

    def test_non_natural_map_detected(self):
        bad = MonadMap("swap01", POINTED_MONAD, POINTED_MONAD,
                       lambda n, e: {0: 1, 1: 0}.get(e, e) if n >= 2 else e)
        assert not monad_map_natural(bad, 3)

    def test_tabulation_is_functorial(self):
        inc = MonadMap("include", IDENTITY_MONAD, POINTED_MONAD,
                       lambda n, e: e)
        ident = MonadMap("id", POINTED_MONAD, POINTED_MONAD,
                         lambda n, e: e)
        composed = MonadMap("both", IDENTITY_MONAD, POINTED_MONAD,
                            lambda n, e: ident.at(n, inc.at(n, e)))
        for n, m in itertools.product(range(3), repeat=2):
            for f in phi(IDENTITY_MONAD).hom(n, m):
                one_step = tabulate_map(composed, f, n)
                two_step = tabulate_map(ident, tabulate_map(inc, f, n), n)
                assert one_step == two_step

    def test_fullness_reconstruction(self):
        inc = MonadMap("include", IDENTITY_MONAD, POINTED_MONAD,
                       lambda n, e: e)
        beta = lambda n, m, f: tabulate_map(inc, f, n)
        alpha = reconstruct_map(phi(IDENTITY_MONAD), phi(POINTED_MONAD),
                                beta, 3)
        assert alpha is not None
        for n in range(4):
            for e in IDENTITY_MONAD.carrier(n):
                assert alpha.at(n, e) == inc.at(n, e)

    def test_reconstruction_rejects_unnatural_family(self):
        # a family that is not given by postcomposition at every arity
        def beta(n, m, f):
            if m == 2:
                return tuple(reversed(f))
            return f

        got = reconstruct_map(phi(POINTED_MONAD), phi(POINTED_MONAD),
                              beta, 2)
        assert got is None


class TestComposite:
    def test_ring_law_against_polynomials(self, ring):
        rep = composite_correspondence_check(
            RING_LAW, FREE_RING_MONAD, size_bound=6, arity_bound=2,
            spec=ring)
        assert rep.passed

    def test_ps_law_against_words(self, ps_monoid):
        rep = composite_correspondence_check(
            PS_LAW, FREE_MONOID_MONAD, size_bound=5, arity_bound=2,
            spec=ps_monoid)
        assert rep.passed

    def test_identity_outer_law_is_phi_of_inner(self):
        law = trivial_law(MONOID, IDENTITY_THEORY)
        from lawvere.distlaw import composite_theory
        spec = composite_theory(law, check=False)
        rep = composite_correspondence_check(
            law, FREE_MONOID_MONAD, size_bound=5, arity_bound=2, spec=spec)
        assert rep.passed

    def test_encode_term_bridges_representations(self, ring, ps_monoid):
        t = parse_term("ab-b+1", ring, 2)
        assert encode_term(FREE_RING_MONAD, t) == \
            (((), 1), ((1,), -1), ((0, 1), 1))
        # a ps-monoid word and its point, as free-monoid words
        assert encode_term(FREE_MONOID_MONAD,
                           parse_term("ab(1)a", ps_monoid, 2)) == (0, 1, 0)
        assert encode_term(FREE_MONOID_MONAD,
                           parse_term("1", ps_monoid, 0)) == ()
        assert encode_term(POINTED_MONAD, parse_term("1", POINTED, 1)) == \
            POINTED_MONAD.POINT
        assert encode_term(POINTED_MONAD, parse_term("a", POINTED, 1)) == 0
        # a semigroup word is a nonempty word; a constant has no element
        assert encode_term(FREE_SEMIGROUP_MONAD,
                           parse_term("ba", SEMIGROUP, 2)) == (1, 0)
        with pytest.raises(StructuralError, match="no interpretation"):
            encode_term(FREE_SEMIGROUP_MONAD, parse_term("1", MONOID, 0))
        with pytest.raises(StructuralError, match="no interpretation"):
            encode_term(IDENTITY_MONAD, parse_term("ab", MONOID, 2))


class TestIstar:
    def test_pointed_counts(self):
        rep = istar_composite(POINTED_MONAD, 2, 2)
        assert rep.passed

    @pytest.mark.parametrize("k_bound, n_bound", [(-1, -1), (-1, 2), (2, -1)])
    def test_negative_bounds_raise(self, k_bound, n_bound):
        with pytest.raises(StructuralError, match="leave nothing to check"):
            istar_composite(POINTED_MONAD, k_bound, n_bound)

    def test_identity_counts(self):
        rep = istar_composite(IDENTITY_MONAD, 3, 2)
        assert rep.passed

    def test_agreement_with_phi_tables(self):
        # |composite(k, n)| equals |Set(k, F n)| = |phi hom(n, k)|
        table = phi(POINTED_MONAD)
        for k, n in itertools.product(range(3), repeat=2):
            assert len(table.hom(n, k)) == \
                len(POINTED_MONAD.carrier(n)) ** k


class ZeroConstants(FreeRingMonad):
    """Along the empty map into [0], every constant goes to zero, so F is
    not a functor there.  The coend over arities never relates anything
    at j = 0 (no level above 0 has an element), so only the checks that
    read the values see it."""
    name = "free-ring-zero-constants"

    def map(self, table, n_to, e):
        return () if n_to == 0 else super().map(table, n_to, e)


class FirstFactor(FreeMonoidMonad):
    """Interprets a product as its first factor."""
    name = "free-monoid-first-factor"
    interpretation = {**FreeMonoidMonad.interpretation,
                      "mul": lambda u, v: u}


class PointToZero(PointedMonad):
    """Along every map [1] -> [2] the point goes to 0, so F is not a
    functor there, and the coend over arities relates elements whose
    values differ from x = 1 on."""
    name = "pointed-point-to-zero"

    def map(self, table, n_to, e):
        if e == self.POINT and len(table) == 1 and n_to == 2:
            return 0
        return super().map(table, n_to, e)


def cli_report(capsys, *argv):
    code = cli.main([*argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


class TestFailurePaths:
    """Each mutant fails the checks it targets, with exact records."""

    def test_law_axioms_failure_returns_early(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._CORRESPOND, "ring", lambda: (
            make_diagram_mutant("unit-inner"), FREE_RING_MONAD,
            ring_theory()))
        code, rep = cli_report(capsys, "correspond", "--law", "ring",
                               "--samples", "20", "--size", "3")
        assert code == 1
        # nothing after the law's own diagrams is counted
        assert (rep["sampleCount"], rep["passCount"]) == (1, 0)
        assert rep["failures"] == [{"check": "law-axioms", "witness": {
            "diagram": "unit-inner", "input": "a+a",
            "leftValue": "-a-a", "rightValue": "a+a"}}]

    def test_wrong_interpretation_fails_bijection_and_composition(
            self, capsys, monkeypatch):
        monkeypatch.setitem(cli._CORRESPOND, "pointed-semigroup", lambda: (
            BUILTIN_LAWS["pointed-semigroup"], FirstFactor(),
            ps_monoid_theory()))
        code, rep = cli_report(capsys, "correspond", "--law",
                               "pointed-semigroup", "--samples", "20",
                               "--size", "3")
        assert code == 1
        assert (rep["sampleCount"], rep["passCount"]) == (24, 21)
        assert rep["failures"] == [
            {"check": "hom-bijection", "arity": 1, "terms": 3,
             "carrier": 3},
            {"check": "hom-bijection", "arity": 2, "terms": 7,
             "carrier": 7},
            {"check": "composition", "g": "ab", "f1": "1", "f2": "aa"}]

    def test_non_functorial_map_fails_roundtrip_naturality(
            self, capsys, monkeypatch):
        mutant = ZeroConstants()
        monkeypatch.setitem(cli.FRAGMENTS, mutant.name, mutant)
        code, rep = cli_report(capsys, "roundtrip", "--monad", mutant.name,
                               "--bound", "1", "--size", "3")
        assert code == 1
        assert (rep["sampleCount"], rep["passCount"]) == (5, 3)
        assert rep["failures"] == [
            {"x": 0, "classes": 4, "carrier": 4, "valuesMatch": False,
             "stable": True},
            {"check": "naturality", "x": 0, "x2": 1, "h": []}]

    def test_non_functorial_map_fails_pasting_identity(self):
        rep = istar_composite(ZeroConstants(), 1, 0, carrier_bound=3)
        assert (rep.sample_count, rep.pass_count) == (4, 3)
        # four classes, but all of one value
        assert rep.failures == [{"check": "pasting-identity", "classes": 4,
                                 "distinct": 1, "expected": 4, "k": 1,
                                 "x": 0}]

    def test_broken_invariant_is_a_roundtrip_failure(self):
        with pytest.raises(InvariantBroken):
            monad_from_theory(phi(PointToZero()), 1, 2)
        rep = roundtrip_check(PointToZero(), 2)
        # x = 0 passes both its checks; x = 1 and 2 have no coend, so
        # their naturality is not checked
        assert (rep.sample_count, rep.pass_count) == (6, 4)
        assert rep.failures == [
            {"check": "coend", "x": x,
             "error": "coend relation breaks the invariant"}
            for x in (1, 2)]
        assert rep.stability == {"x=0": True}

    def test_broken_invariant_is_an_istar_failure(self):
        rep = istar_composite(PointToZero(), 1, 2)
        assert (rep.sample_count, rep.pass_count) == (12, 10)
        assert rep.failures == [
            {"check": "pasting-identity", "k": 1, "x": x,
             "expected": expected,
             "error": "coend relation breaks the invariant"}
            for x, expected in ((1, 2), (2, 3))]

    def test_broken_invariant_exits_one_from_the_cli(self, capsys,
                                                     monkeypatch):
        mutant = PointToZero()
        monkeypatch.setitem(cli.FRAGMENTS, mutant.name, mutant)
        code, rep = cli_report(capsys, "roundtrip", "--monad", mutant.name,
                               "--bound", "2")
        assert code == 1
        assert [f["check"] for f in rep["failures"]] == ["coend", "coend"]

    def test_universe_without_room_fails_istar_bijection(self):
        # one-element universes carry only the constant maps [2] -> F[1]
        rep = istar_composite(POINTED_MONAD, 2, 1, universe_cap=1)
        assert (rep.sample_count, rep.pass_count) == (12, 11)
        assert rep.failures == [{"check": "istar-bijection", "classes": 2,
                                 "distinct": 2, "expected": 4, "k": 2,
                                 "n": 1}]


def test_broken_invariant_is_a_keyprop_failure():
    # x = 1 on breaks the invariant: each such (j, n) fails with the
    # error, and the others are still checked
    rep = verify_keyprop(PointToZero(), 2, 2)
    assert (rep.sample_count, rep.pass_count) == (10, 5)
    assert rep.failures == [
        {"j": j, "n": n, "error": "coend relation breaks the invariant"}
        for j in (1, 2) for n in (1, 2)] + [{"check": "pair-strings"}]
    assert "j=1,n=1" not in rep.stability
