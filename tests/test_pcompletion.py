import itertools

import pytest

from lawvere.correspondence import monad_from_theory, phi
from lawvere.fincat import chain_category, discrete_category
from lawvere.fragments import (FRAGMENTS, FREE_MONOID_MONAD,
                               IDENTITY_MONAD, POINTED_MONAD,
                               FinitaryMonadFragment, PointedMonad)
from lawvere.pcompletion import (KeypropComputation, _actions_ok,
                                 _elementary_maps, _pair_strings_ok,
                                 eta_homset, mu_homset, oplus, p_category,
                                 p_on_profunctor, verify_keyprop)
from lawvere.profunctor import (_label_key, constant_profunctor,
                                hom_profunctor)
from lawvere.report import Report
from lawvere.terms import StructuralError


class TestPCategory:
    def test_strings_and_arity_homs(self):
        one = discrete_category(["*"], name="one")
        p1 = p_category(one, 3)
        # morphisms between strings of units are plain index functions
        a, b = ("*",) * 2, ("*",) * 3
        assert len(p1.hom(a, b)) == 2 ** 3
        assert len(p1.hom(b, a)) == 3 ** 2
        assert len(p1.hom((), a)) == 0
        assert len(p1.hom(a, ())) == 1

    def test_componentwise_morphisms(self):
        c = chain_category(2)
        pc = p_category(c, 2)
        # (0,) -> (1,): index function picks position 0, component 0 -> 1
        assert len(pc.hom((0,), (1,))) == 1
        assert len(pc.hom((1,), (0,))) == 0
        # either position of (0, 1) maps into 1, each in one way
        assert len(pc.hom((0, 1), (1,))) == 2


class TestPOnProfunctor:
    def test_empty_source_string_is_singleton(self):
        C = discrete_category(["a"])
        D = discrete_category(["b"])
        F = constant_profunctor(C, D, ["x", "y"])
        PF = p_on_profunctor(F, 2)
        for b in (("b",), ("b", "b"), ()):
            assert len(PF.elements(b, ())) == 1

    def test_singleton_strings_restrict_to_f(self):
        C = discrete_category(["a"])
        D = discrete_category(["b"])
        F = constant_profunctor(C, D, ["x", "y"])
        PF = p_on_profunctor(F, 2)
        assert len(PF.elements(("b",), ("a",))) == 2

    def test_counting_formula(self):
        # |PF| over a two-position target and one-position source is the
        # size of the coproduct over index functions of the product
        C = discrete_category(["a"])
        D = discrete_category(["b"])
        F = constant_profunctor(C, D, ["x", "y"])
        PF = p_on_profunctor(F, 2)
        assert len(PF.elements(("b", "b"), ("a",))) == 2 * 2

    def test_actions_functorial_on_chain(self):
        c = chain_category(2)
        F = hom_profunctor(c)
        # validation happens in the constructor
        p_on_profunctor(F, 2)


class TestKleisliData:
    def test_mu_two_singletons(self):
        assert len(mu_homset(2, (1, 1))) == 4

    def test_mu_empty_string(self):
        assert len(mu_homset(1, ())) == 1

    def test_eta(self):
        assert eta_homset(3) == [(0,), (1,), (2,)]


class ForgetTwo(PointedMonad):
    """A map that misses two or more of its outputs sends every element
    to the point: the canonical insertions of length-two strings then
    land on the wrong singleton element, while every map that keyprop at
    j, n <= 1 applies stays correct."""
    name = "pointed-forget-two"

    def map(self, table, n_to, e):
        if n_to - len(set(table)) >= 2:
            return self.POINT
        return super().map(table, n_to, e)


class TestKeyprop:
    def test_pointed_one_two(self):
        comp = KeypropComputation(POINTED_MONAD, 1, 2, k_cap=2)
        # classes must biject with Set(2, F[1]), which has 4 elements
        assert comp.class_count() == 4

    def test_any_fragment_n_zero(self):
        for frag in (POINTED_MONAD, IDENTITY_MONAD):
            comp = KeypropComputation(frag, 2, 0, k_cap=3)
            assert comp.class_count() == 1

    def test_identity_counts(self):
        for j, n in itertools.product(range(3), repeat=2):
            comp = KeypropComputation(IDENTITY_MONAD, j, n, k_cap=j + 1)
            assert comp.class_count() == j ** n

    def test_full_reports(self):
        rep = verify_keyprop(POINTED_MONAD, 2, 2)
        assert rep.passed
        assert rep.stability["pairStrings"]
        rep = verify_keyprop(IDENTITY_MONAD, 2, 2)
        assert rep.passed

    def test_unnatural_action_breaks_the_invariant(self):
        class SwapZeroOne(PointedMonad):
            """Relabelling onto two or more inputs also swaps 0 and 1."""
            name = "pointed-unnatural"

            def map(self, table, n_to, e):
                out = super().map(table, n_to, e)
                return 1 - out if n_to >= 2 and out in (0, 1) else out

        with pytest.raises(StructuralError, match="breaks the invariant"):
            KeypropComputation(SwapZeroOne(), 2, 1, k_cap=2)

    def test_pair_strings_catch_a_wrong_insertion(self):
        rep = verify_keyprop(ForgetTwo(), 1, 1)
        assert rep.failures == [{"check": "pair-strings"}]
        assert rep.pass_count == rep.sample_count - 1
        assert not rep.stability.pop("pairStrings")
        assert all(rep.stability.values())

    @pytest.mark.parametrize("name", sorted(FRAGMENTS))
    def test_pair_strings_hold_for_every_builtin_fragment(self, name):
        fragment = FRAGMENTS[name]
        bound = None if fragment.finite else 2
        assert _pair_strings_ok(fragment, 2, 2, 2, bound)

    def test_map_outside_the_carrier_is_named(self):
        class Escape(PointedMonad):
            """Relabelling onto two or more inputs can leave F[n]."""
            name = "pointed-escape"

            def map(self, table, n_to, e):
                return "far" if n_to >= 2 and e == self.POINT else \
                    super().map(table, n_to, e)

        with pytest.raises(StructuralError,
                           match="pointed-escape.*outside the bounded"):
            KeypropComputation(Escape(), 1, 1, k_cap=2)

    def test_carrier_listing_an_element_twice_is_named(self):
        class Twice(PointedMonad):
            name = "pointed-twice"

            def carrier(self, n, bound=None):
                return super().carrier(n, bound) + [self.POINT]

        with pytest.raises(StructuralError,
                           match="pointed-twice.*F\\[0\\] lists an element "
                                 "twice"):
            KeypropComputation(Twice(), 1, 1, k_cap=2)


def _reference_classes(fragment, j, n, k_cap, bound):
    """The quotient by a plain dict union-find over (k, y, xs) tuples, the
    least ``_label_key`` member of each class at its root."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    carriers = [fragment.carrier(k, bound) for k in range(k_cap + 1)]
    for k, carrier in enumerate(carriers):
        for y in itertools.product(range(j), repeat=k):
            for xs in itertools.product(carrier, repeat=n):
                parent[(k, y, xs)] = (k, y, xs)
    for (k_from, k_to, g) in _elementary_maps(k_cap):
        for y in itertools.product(range(j), repeat=k_to):
            yg = tuple(y[v] for v in g)
            for zs in itertools.product(carriers[k_from], repeat=n):
                mapped = tuple(fragment.map(g, k_to, z) for z in zs)
                ra, rb = find((k_to, y, mapped)), find((k_from, yg, zs))
                if ra != rb:
                    if _label_key(rb) < _label_key(ra):
                        ra, rb = rb, ra
                    parent[rb] = ra
    out = {}
    for x in parent:
        out.setdefault(find(x), []).append(x)
    return out


@pytest.mark.parametrize("name", sorted(FRAGMENTS))
def test_kernel_matches_dict_union_find(name):
    frag = FRAGMENTS[name]
    for bound in ([None] if frag.finite else [1, 2, 3]):
        for j, n, k_cap in itertools.product(range(3), range(3), range(4)):
            got = KeypropComputation(frag, j, n, k_cap, bound).classes()
            want = _reference_classes(frag, j, n, k_cap, bound)
            assert list(got.items()) == list(want.items()), \
                (name, bound, j, n, k_cap)


@pytest.mark.parametrize("fragment", [POINTED_MONAD, IDENTITY_MONAD],
                         ids=lambda f: f.name)
def test_kernel_matches_dict_union_find_at_workload_scale(fragment):
    # the coend-quotient workload's keyprop sizes: j = 3, n = 2 at
    # k_cap 4, then the stability level
    comp = KeypropComputation(fragment, 3, 2, 4)
    comp.extend()
    assert list(comp.classes().items()) == list(
        _reference_classes(fragment, 3, 2, 5, None).items())


class Powerset(FinitaryMonadFragment):
    """Finite subsets: F[k] is every subset of [k], F(g) takes images."""
    name = "powerset"
    finite = True

    def carrier(self, n, bound=None):
        return [frozenset(s) for r in range(n + 1)
                for s in itertools.combinations(range(n), r)]

    def map(self, table, n_to, e):
        return frozenset(table[i] for i in e)


def test_merges_relabel_either_class(monkeypatch):
    # at j = 3, n = 1 the level-4 relations join old classes of several
    # members each, the ``_union`` argument's class larger in some merges
    # and smaller in others
    sizes = []
    union = KeypropComputation._union

    def traced(comp, ra, rb):
        sizes.append(tuple(len(comp._members.get(r, ())) + 1
                           for r in (ra, rb)))
        union(comp, ra, rb)

    monkeypatch.setattr(KeypropComputation, "_union", traced)
    comp = KeypropComputation(Powerset(), 3, 1, 4)
    multi = [(a, b) for a, b in sizes if a > 1 and b > 1]
    assert any(a < b for a, b in multi) and any(a > b for a, b in multi)
    assert list(comp.classes().items()) == list(
        _reference_classes(Powerset(), 3, 1, 4, None).items())
    assert comp.class_count() == 2 ** 3
    assert verify_keyprop(Powerset(), 2, 2).passed


def test_representative_is_least_label_not_first_member():
    # with j = 11 the class of the word (2, 10) has its first member at
    # y = (2, 10) but its least _label_key member at y = (10, 2)
    got = KeypropComputation(FREE_MONOID_MONAD, 11, 1, 2, 2).classes()
    assert list(got.items()) == list(
        _reference_classes(FREE_MONOID_MONAD, 11, 1, 2, 2).items())
    members = next(ms for ms in got.values() if (2, (2, 10), ((0, 1),)) in ms)
    assert members[0] == (2, (2, 10), ((0, 1),))
    assert (2, (10, 2), ((1, 0),)) in got


def test_representative_past_level_nine_is_least_label():
    # "(10, ..." reprs below "(2, ...", so from k_cap 10 on the least
    # label of a class need not share its first member's (k, y): the
    # representative is the least label, not read off the numbering
    classes = KeypropComputation(IDENTITY_MONAD, 2, 2, 10).classes()
    assert all(rep == min(members, key=_label_key)
               for rep, members in classes.items())
    rep = next(r for r, ms in classes.items() if ms[0] == (2, (0, 1), (0, 1)))
    assert rep == (10, (0,) * 9 + (1,), (0, 9))


class TestOplus:
    def test_unit_laws(self):
        f = [0, "pt", 1]
        empty = []
        assert oplus(POINTED_MONAD, f, 2, empty, 0) == f
        assert oplus(POINTED_MONAD, empty, 0, f, 2) == f

    def test_pointed_table(self):
        got = oplus(POINTED_MONAD, [PointedMonad.POINT], 1, [0], 1)
        assert got == ["pt", 1]
        # oracle: the canonical map F[1] + F[1] -> F[2] sends the first
        # block's point to the point and the second block's 0 to 1
        canonical_first = {0: 0, "pt": "pt"}
        canonical_second = {0: 1, "pt": "pt"}
        assert got == [canonical_first["pt"], canonical_second[0]]

    def test_associativity_instance(self):
        fs = [([0], 1), (["pt"], 1), ([1, 0], 2)]
        (f1, n1), (f2, n2), (f3, n3) = fs
        left = oplus(POINTED_MONAD,
                     oplus(POINTED_MONAD, f1, n1, f2, n2), n1 + n2, f3, n3)
        right = oplus(POINTED_MONAD, f1, n1,
                      oplus(POINTED_MONAD, f2, n2, f3, n3), n2 + n3)
        assert left == right

    def test_action_compatibility(self):
        # precomposition: (g1 (+) g2) o (f1 + f2) = (g1 o f1) (+) (g2 o f2)
        g1, n1 = [0, "pt"], 1
        g2, n2 = [1], 2
        f1 = (1, 0)   # table [2] -> [2] acting on positions of g1
        f2 = (0,)     # table [1] -> [1]
        blocks = oplus(POINTED_MONAD, g1, n1, g2, n2)
        f_sum = [f1[i] for i in range(len(f1))] + \
                [len(f1) + f2[i] for i in range(len(f2))]
        lhs = [blocks[f_sum[i]] for i in range(len(f_sum))]
        rhs = oplus(POINTED_MONAD,
                    [g1[f1[i]] for i in range(len(f1))], n1,
                    [g2[f2[i]] for i in range(len(f2))], n2)
        assert lhs == rhs

    def test_target_action_compatibility(self):
        # postcomposition with F(h1 + h2) distributes over the blocks
        F = POINTED_MONAD
        g1, n1 = [0, "pt"], 2
        g2, n2 = [0], 1
        h1 = (1, 0)   # [2] -> [2]
        h2 = (0,)     # [1] -> [1]
        h_sum = tuple(h1[i] for i in range(n1)) + \
            tuple(n1 + h2[i] for i in range(n2))
        lhs = [F.map(h_sum, n1 + n2, e)
               for e in oplus(F, g1, n1, g2, n2)]
        rhs = oplus(F, [F.map(h1, n1, e) for e in g1], n1,
                    [F.map(h2, n2, e) for e in g2], n2)
        assert lhs == rhs

    def test_monoid_words_block_sum(self):
        got = oplus(FREE_MONOID_MONAD, [(0, 1)], 2, [(0,)], 1)
        assert got == [(0, 1), (2,)]


# ---------------------------------------------------------------------------
# the quotient grown in place against fresh builds


@pytest.mark.parametrize("name", sorted(FRAGMENTS))
def test_extension_matches_a_fresh_build(name):
    frag = FRAGMENTS[name]
    for bound in ([None] if frag.finite else [1, 2, 3]):
        for j, n, k_cap in itertools.product(range(3), range(3), range(4)):
            comp = KeypropComputation(frag, j, n, k_cap, bound)
            before = comp.classes()
            comp.extend()
            fresh = KeypropComputation(frag, j, n, k_cap + 1, bound)
            at = (name, bound, j, n, k_cap)
            assert comp.k_cap == k_cap + 1, at
            assert list(comp.classes().items()) == \
                list(fresh.classes().items()), at
            assert comp.class_count() == fresh.class_count() == \
                len(fresh.classes()), at
            # classes read before the extension are not touched by it
            assert list(before.items()) == list(KeypropComputation(
                frag, j, n, k_cap, bound).classes().items()), at


def reference_verify_keyprop(fragment, j_bound, n_bound, *,
                             carrier_bound=None, pair_entry_cap=2):
    """``verify_keyprop`` as it was with a second build at k_cap + 1
    for stability."""
    rep = Report(subject=f"keyprop:{fragment.name}",
                 bounds={"jBound": j_bound, "nBound": n_bound,
                         "pairEntryCap": pair_entry_cap})
    stability = {}
    for j in range(j_bound + 1):
        for n in range(n_bound + 1):
            k_cap = j + 1
            comp = KeypropComputation(fragment, j, n, k_cap, carrier_bound)
            comp_next = KeypropComputation(fragment, j, n, k_cap + 1,
                                           carrier_bound)
            expected = [tuple(v) for v in itertools.product(
                fragment.carrier(j, carrier_bound), repeat=n)]
            rep.sample_count += 1
            classes = comp.classes()
            invs = sorted(set(comp.invariant(r) for r in classes),
                          key=_label_key)
            ok = (len(classes) == len(expected)
                  and len(invs) == len(classes)
                  and sorted(expected, key=_label_key) == invs)
            stable = comp_next.class_count() == len(classes)
            stability[f"j={j},n={n}"] = stable
            if ok and stable and _actions_ok(comp, list(comp.classes())):
                rep.pass_count += 1
            else:
                rep.add_failure(j=j, n=n, classes=len(classes),
                                expected=len(expected), stable=stable)
    rep.sample_count += 1
    pair_ok = _pair_strings_ok(fragment, 2, 2, pair_entry_cap,
                               carrier_bound)
    stability["pairStrings"] = pair_ok
    if pair_ok:
        rep.pass_count += 1
    else:
        rep.add_failure(check="pair-strings")
    rep.stability = stability
    return rep


@pytest.mark.parametrize("fragment, bound, j_bound, n_bound", [
    (IDENTITY_MONAD, None, 2, 2),
    (POINTED_MONAD, None, 2, 2),
    (FRAGMENTS["free-monoid"], 1, 1, 2),
    (FRAGMENTS["free-semigroup"], 2, 1, 1),
    (FRAGMENTS["free-ring"], 1, 1, 1),
    (ForgetTwo(), None, 2, 1),
], ids=lambda v: getattr(v, "name", repr(v)))
def test_verify_keyprop_matches_two_builds(fragment, bound, j_bound,
                                           n_bound):
    got = verify_keyprop(fragment, j_bound, n_bound, carrier_bound=bound)
    want = reference_verify_keyprop(fragment, j_bound, n_bound,
                                    carrier_bound=bound)
    assert got.to_json_dict() == want.to_json_dict()
    assert got.stability == want.stability


class BreakAtThree(PointedMonad):
    """Natural on arities up to 2; a non-monotone g: [3] -> [2] sends the
    point to 0.  Such a g is no elementary map, so the quotient of
    levels 0..3 is the lawful one, but its value row at level 3 is
    wrong."""
    name = "pointed-break-at-three"

    def map(self, table, n_to, e):
        if (len(table) == 3 and n_to == 2 and e == self.POINT
                and list(table) != sorted(table)):
            return 0
        return super().map(table, n_to, e)


class MergeAtThree(PointedMonad):
    """Natural on arities up to 2.  At arity 3 the injection (0, 1) sends
    0 to the point, which joins the class of 0 to the class of the point
    only through level 3, and every map [3] -> [1] sends everything to
    the point, so each element of level 3 agrees with the merged class's
    root."""
    name = "pointed-merge-at-three"

    def map(self, table, n_to, e):
        if n_to == 3 and tuple(table) == (0, 1) and e == 0:
            return self.POINT
        if len(table) == 3 and n_to == 1:
            return self.POINT
        return super().map(table, n_to, e)


@pytest.mark.parametrize("fragment, j", [(BreakAtThree(), 2),
                                         (MergeAtThree(), 1)],
                         ids=["new-element", "old-classes-merge"])
def test_stability_step_checks_the_invariant(fragment, j):
    comp = KeypropComputation(fragment, j, 1, k_cap=2)
    with pytest.raises(StructuralError, match="breaks the invariant"):
        comp.extend()
    with pytest.raises(StructuralError, match="breaks the invariant"):
        monad_from_theory(phi(fragment), j, 2)
    with pytest.raises(StructuralError, match="breaks the invariant"):
        KeypropComputation(fragment, j, 1, k_cap=3)
