import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lawvere.builtin import (ABELIAN_GROUP, BASE_THEORIES, COMMUTATIVE_MONOID,
                             IDENTITY_THEORY, MONOID, POINTED, SEMIGROUP)
from lawvere.distlaw import ps_monoid_theory, ring_theory
from lawvere.parser import parse_term
from lawvere.sampling import random_term
from lawvere.terms import (App, OperationSymbol, StructuralError, TheorySpec,
                           Var, brute_force_normal_forms, substitute,
                           term_size)
from lawvere.theory import TheoryMorphism, morphism
from .conftest import words_over


SRC = Path(__file__).resolve().parent.parent / "src"


def mono(text, arity):
    return parse_term(text, MONOID, arity)


def abel(text, arity):
    return parse_term(text, ABELIAN_GROUP, arity)


class TestSubstitute:
    def test_diagonal(self):
        t = mono("ab", 2)
        got = MONOID.normalize(substitute(t, (Var(0), Var(0))))
        assert got == mono("aa", 1)

    def test_composite_three_ary_operation(self):
        # x^2 y applied to (abc, ab^2c^2)
        t = mono("a^2b", 2)
        sigma = (mono("abc", 3), mono("ab^2c^2", 3))
        got = MONOID.normalize(substitute(t, sigma))
        assert got == mono("abcabcab^2c^2", 3)

    def test_identity_tuple(self):
        t = abel("a-b+c", 3)
        assert substitute(t, (Var(0), Var(1), Var(2))) == t

    def test_arity_mismatch(self):
        with pytest.raises(StructuralError):
            substitute(mono("ab", 2), (Var(0),))


class TestNormalize:
    def test_abgroup_cancellation(self):
        assert abel("a+b-a", 3) == Var(1)

    def test_monoid_flattening(self):
        raw = App(MONOID.op("mul"),
                  (App(MONOID.op("mul"), (Var(0), Var(1))), Var(2)))
        assert MONOID.normalize(raw) == mono("abc", 3)

    def test_abgroup_coefficient_form(self):
        add = ABELIAN_GROUP.op("add")
        assert ABELIAN_GROUP.normalize(App(add, (Var(0), Var(0)))) == \
            abel("a+a", 1)

    def test_unknown_operation_rejected(self):
        with pytest.raises(StructuralError):
            ABELIAN_GROUP.normalize(mono("ab", 2))
        with pytest.raises(StructuralError):
            IDENTITY_THEORY.normalize(mono("ab", 2))


class TestEnumerate:
    def test_monoid_words_up_to_length_two(self):
        # oracle: plain words of length <= 2 over two letters, 7 of them
        oracle = {w for w in words_over(2, 2)}
        got = MONOID.enumerate_normal(2, 3)
        assert len(got) == len(oracle) == 7
        expected = {mono("1", 2), mono("a", 2), mono("b", 2), mono("aa", 2),
                    mono("ab", 2), mono("ba", 2), mono("bb", 2)}
        assert set(got) == expected

    def test_size_zero_bound(self):
        assert MONOID.enumerate_normal(0, 0) == []
        assert MONOID.enumerate_normal(0, 1) == [mono("1", 0)]

    def test_pointed_has_two_normal_forms(self):
        for bound in (1, 4, 9):
            got = POINTED.enumerate_normal(1, bound)
            assert got == [Var(0), parse_term("1", POINTED, 1)]

    @pytest.mark.parametrize("spec,k,bound", [
        (MONOID, 2, 5), (SEMIGROUP, 2, 5), (ABELIAN_GROUP, 2, 5),
        (COMMUTATIVE_MONOID, 2, 5), (POINTED, 2, 5), (IDENTITY_THEORY, 3, 2),
    ])
    def test_matches_brute_force(self, spec, k, bound):
        # oracle: enumerate every raw term and keep the self-normal ones
        assert spec.enumerate_normal(k, bound) == \
            brute_force_normal_forms(spec, k, bound)

    @pytest.mark.parametrize("spec", [MONOID, ABELIAN_GROUP, SEMIGROUP])
    def test_duplicate_free_and_self_normal(self, spec):
        got = spec.enumerate_normal(3, 5)
        assert len(got) == len(set(got))
        for t in got:
            assert spec.normalize(t) == t
            assert term_size(t) <= 5


def counting_copy(spec, normalizer=None):
    """The same theory as a fresh spec whose normalizer counts its inputs."""
    seen = []
    inner = normalizer or spec.normalizer

    def counted(t):
        seen.append(t)
        return inner(t)

    return TheorySpec(spec.name, spec.signature, counted,
                      spec.atom_enumerator, spec.axioms), seen


MEMO_THEORIES = [*BASE_THEORIES.values(), ring_theory(), ps_monoid_theory()]


class TestNormalFormMemo:
    @pytest.mark.parametrize("spec", MEMO_THEORIES, ids=lambda s: s.name)
    def test_memo_agrees_with_normalizer(self, spec):
        fresh, seen = counting_copy(spec)
        rng = random.Random(5)
        terms = spec.enumerate_normal(2, 4)
        terms += [random_term(spec, 2, rng, 3) for _ in range(60)]
        for t in terms:
            want = spec.normalizer(t)
            assert fresh.normalize(t) == want
            assert fresh.normalize(t) == want
        # the normalizer ran once per distinct input, not once per call
        assert sorted(seen, key=repr) == sorted(set(terms), key=repr)

    def test_foreign_operation_raises_on_every_call(self):
        fresh, _ = counting_copy(ABELIAN_GROUP)
        foreign = mono("ab", 2)
        with pytest.raises(StructuralError):
            fresh.normalize(foreign)
        assert fresh.normalize(abel("a+b-a", 2)) == Var(1)
        with pytest.raises(StructuralError):
            fresh.normalize(foreign)

    def test_normalizer_failure_is_not_cached(self):
        def picky(t):
            if t == Var(1):
                raise StructuralError("rejected")
            return MONOID.normalizer(t)

        fresh, seen = counting_copy(MONOID, picky)
        for _ in range(2):
            with pytest.raises(StructuralError):
                fresh.normalize(Var(1))
        assert seen == [Var(1), Var(1)]

    def test_non_idempotent_normalizer_still_rejected(self):
        mul = MONOID.op("mul")

        def doubling(t):
            n = MONOID.normalizer(t)
            return App(mul, (n, n))

        mutant, _ = counting_copy(MONOID, doubling)
        with pytest.raises(StructuralError, match="not in normal form"):
            morphism(mutant, 1, [Var(0)])
        # a component the memo has seen as an input is checked all the same
        square = App(mul, (Var(0), Var(0)))
        mutant.normalize(square)
        with pytest.raises(StructuralError, match="not in normal form"):
            TheoryMorphism(mutant, 1, 1, (square,))

    def test_equality_hash_and_repr_ignore_the_memo(self):
        a = TheorySpec(MONOID.name, MONOID.signature, MONOID.normalizer,
                       MONOID.atom_enumerator, MONOID.axioms)
        b = dataclasses.replace(a)
        before = (hash(a), repr(a))
        a.normalize(mono("ab", 2))
        assert a.op_set == b.op_set == frozenset(MONOID.signature)
        assert a == b and a == MONOID
        assert hash(a) == hash(b) == hash(MONOID) == before[0]
        assert repr(a) == before[1] == "TheorySpec(monoid)"


def subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


MUL = MONOID.op("mul")
ONE = MONOID.op("one")
SAMPLE = App(MUL, (Var(0), App(ONE, ())))


class TestTermContract:
    """Terms are tuples whose hash and repr are pinned: dict, set and sort
    orders, and with them every report, depend on both."""

    def test_repr_is_pinned(self):
        assert repr(MUL) == "mul/2@monoid"
        assert repr(Var(3)) == "Var(index=3)"
        assert repr(SAMPLE) == ("App(op=mul/2@monoid, args=(Var(index=0), "
                                "App(op=one/0@monoid, args=())))")
        assert str(SAMPLE) == repr(SAMPLE)

    @pytest.mark.parametrize("spec", MEMO_THEORIES, ids=lambda s: s.name)
    def test_hash_is_the_hash_of_the_field_tuple(self, spec):
        rng = random.Random(11)
        terms = spec.enumerate_normal(2, 5)
        terms += [random_term(spec, 3, rng, 4) for _ in range(60)]
        for t in terms:
            for u in subterms(t):
                if isinstance(u, Var):
                    assert hash(u) == hash((u.index,))
                    continue
                assert hash(u) == hash((u.op, u.args))
                op = u.op
                assert hash(op) == hash((op.name, op.arity, op.theory))

    @pytest.mark.parametrize("value,field", [
        (MUL, "name"), (Var(0), "index"), (SAMPLE, "op"), (SAMPLE, "args")])
    def test_fields_are_read_only(self, value, field):
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_keyword_construction(self):
        assert OperationSymbol(name="mul", arity=2, theory="monoid") == MUL
        assert Var(index=0) == Var(0)
        assert App(op=MUL, args=(Var(index=0), App(ONE, ()))) == SAMPLE

    def test_structural_checks(self):
        with pytest.raises(StructuralError, match="negative arity"):
            OperationSymbol("f", -1, "t")
        with pytest.raises(StructuralError, match="variable index"):
            Var(-1)
        with pytest.raises(StructuralError, match="applied to 1 arguments"):
            App(MUL, (Var(0),))

    def test_a_term_equals_the_plain_tuple_of_its_fields(self):
        # documented: plain tuples of this shape must not share a dict or
        # set with terms
        assert Var(0) == (0,)
        assert SAMPLE == (MUL, SAMPLE.args)
        assert Var(0) != App(ONE, ())

    @pytest.mark.parametrize("roundtrip", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("value", [MUL, Var(2), SAMPLE],
                             ids=["op", "var", "app"])
    def test_copy_and_pickle_round_trip(self, roundtrip, value):
        got = roundtrip(value)
        assert got == value and hash(got) == hash(value)
        assert [type(u) for u in subterms(got)] == \
            [type(u) for u in subterms(value)]
        assert repr(got) == repr(value)

    def test_hashing_a_deep_term_raises_instead_of_crashing(self):
        # built iteratively, the way build_word does; hashing recurses, and
        # must hit the recursion limit rather than overflow the C stack
        script = ("from lawvere.builtin import MUL\n"
                  "from lawvere.terms import App, Var\n"
                  "out = Var(0)\n"
                  "for _ in range(100000):\n"
                  "    out = App(MUL, (Var(0), out))\n"
                  "hash(out)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode > 0, proc.returncode
        assert "RecursionError" in proc.stderr


# hypothesis strategies for raw terms over a fixed signature


def raw_terms(spec, k, max_depth=3):
    leaves = [st.builds(Var, st.integers(0, k - 1))]
    leaves.extend(st.just(App(op, ())) for op in spec.signature
                  if op.arity == 0)
    base = st.one_of(leaves)

    def extend(children):
        apps = [st.builds(lambda *a, op=op: App(op, tuple(a)),
                          *([children] * op.arity))
                for op in spec.signature if op.arity > 0]
        return st.one_of(apps) if apps else children

    return st.recursive(base, extend, max_leaves=2 ** max_depth)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_substitution_is_associative(data):
    spec = data.draw(st.sampled_from([MONOID, ABELIAN_GROUP, SEMIGROUP]))
    t = data.draw(raw_terms(spec, 2))
    sigma = tuple(data.draw(raw_terms(spec, 2)) for _ in range(2))
    tau = tuple(data.draw(raw_terms(spec, 2)) for _ in range(2))
    left = substitute(substitute(t, sigma), tau)
    right = substitute(t, tuple(substitute(s, tau) for s in sigma))
    assert left == right


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_normalizer_is_idempotent_and_congruent(data):
    spec = data.draw(st.sampled_from(
        [MONOID, ABELIAN_GROUP, SEMIGROUP, COMMUTATIVE_MONOID]))
    t = data.draw(raw_terms(spec, 2))
    n = spec.normalize(t)
    assert spec.normalize(n) == n
    # congruence: substituting raw inputs or their normal forms agrees
    sigma = tuple(data.draw(raw_terms(spec, 2)) for _ in range(2))
    via_raw = spec.normalize(substitute(t, sigma))
    via_normal = spec.normalize(substitute(
        n, tuple(spec.normalize(s) for s in sigma)))
    assert via_raw == via_normal
