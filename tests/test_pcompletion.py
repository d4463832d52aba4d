import itertools
import tracemalloc

import pytest

from lawvere import pcompletion
from lawvere.correspondence import monad_from_theory, phi
from lawvere.fincat import Morphism, chain_category, discrete_category
from lawvere.fragments import (FRAGMENTS, FREE_MONOID_MONAD,
                               IDENTITY_MONAD, POINTED_MONAD,
                               FinitaryMonadFragment, PointedMonad)
from lawvere.pcompletion import (KeypropComputation, _actions_ok,
                                 _elementary_maps, _pair_strings_ok,
                                 p_category, p_on_profunctor,
                                 verify_keyprop)
from lawvere.profunctor import (_label_key, compose_prof,
                                constant_profunctor, hom_profunctor,
                                prof_iso)
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


def reference_p_tables(cat, max_len):
    """``p_category``'s morphism list and composition table as the
    all-pairs scan built them: every morphism against every other, the
    pairs that do not compose skipped."""
    objects = list(pcompletion.all_strings(cat.objects, max_len))
    morphisms, data = [], {}
    for src in objects:
        for tgt in objects:
            for alpha in itertools.product(range(len(src)), repeat=len(tgt)):
                pools = [cat.hom(src[alpha[i]], tgt[i])
                         for i in range(len(tgt))]
                for comps in itertools.product(*pools):
                    nm = pcompletion._pmor_name(
                        src, tgt, alpha, tuple(c.name for c in comps))
                    morphisms.append(Morphism(nm, src, tgt))
                    data[nm] = (alpha, comps)
    comp = {}
    for f in morphisms:
        fa, fc = data[f.name]
        for g in morphisms:
            if f.tgt != g.src:
                continue
            ga, gc = data[g.name]
            alpha = tuple(fa[ga[i]] for i in range(len(ga)))
            comps = tuple(cat.compose(gc[i], fc[ga[i]])
                          for i in range(len(ga)))
            comp[(g.name, f.name)] = pcompletion._pmor_name(
                f.src, g.tgt, alpha, tuple(c.name for c in comps))
    return morphisms, comp


class TestPCategoryTables:
    @pytest.mark.parametrize("make,max_len", [
        (lambda: chain_category(2), 3),
        (lambda: discrete_category(["x", "y"]), 2),
    ], ids=["chain2-3", "discrete2-2"])
    def test_same_tables_as_the_all_pairs_scan(self, make, max_len,
                                               monkeypatch):
        cat = make()
        built = []
        real = pcompletion.FiniteCategory

        def recording(name, objects, morphisms, idents, comp):
            built.append((list(morphisms), comp))
            return real(name, objects, morphisms, idents, comp)

        monkeypatch.setattr(pcompletion, "FiniteCategory", recording)
        pcompletion.p_category(cat, max_len)
        morphisms, comp = built[0]
        want_morphisms, want_comp = reference_p_tables(cat, max_len)
        assert morphisms == want_morphisms
        # the same entries, inserted in the same order
        assert list(comp.items()) == list(want_comp.items())


class TestPOnProfunctor:
    def test_empty_source_string_is_singleton(self):
        C = discrete_category(["a"])
        D = discrete_category(["b"])
        F = constant_profunctor(C, D, ["x", "y"])
        PF = p_on_profunctor(F, 2)
        for b in (("b",), ("b", "b"), ()):
            assert len(PF.table[(b, ())]) == 1

    def test_singleton_strings_restrict_to_f(self):
        C = discrete_category(["a"])
        D = discrete_category(["b"])
        F = constant_profunctor(C, D, ["x", "y"])
        PF = p_on_profunctor(F, 2)
        assert len(PF.table[(("b",), ("a",))]) == 2

    def test_counting_formula(self):
        # |PF| over a two-position target and one-position source is the
        # size of the coproduct over index functions of the product
        C = discrete_category(["a"])
        D = discrete_category(["b"])
        F = constant_profunctor(C, D, ["x", "y"])
        PF = p_on_profunctor(F, 2)
        assert len(PF.table[(("b", "b"), ("a",))]) == 2 * 2

    def test_actions_functorial_on_chain(self):
        c = chain_category(2)
        F = hom_profunctor(c)
        # validation happens in the constructor
        p_on_profunctor(F, 2)

    def test_endo_extension_has_a_unit(self):
        # one P(C) on both sides, so the extension composes with itself;
        # the extended hom profunctor is the unit for that composition
        P = p_on_profunctor(hom_profunctor(discrete_category(["x"])), 2)
        assert P.src is P.tgt
        assert prof_iso(compose_prof(P, P), P) is not None


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

    def test_actions_check_catches_a_non_functorial_map(self):
        class CollapseTwoToOne(PointedMonad):
            """Every map [2] -> [1] sends everything to the point, so
            postcomposing a value in F[2] is not the fiber's action."""
            name = "pointed-collapse"

            def map(self, table, n_to, e):
                if len(table) == 2 and n_to == 1:
                    return self.POINT
                return super().map(table, n_to, e)

        comp = KeypropComputation(POINTED_MONAD, 2, 1, k_cap=3)
        reps = comp.representatives()
        assert _actions_ok(comp, reps)
        comp.fragment = CollapseTwoToOne()
        assert not _actions_ok(comp, reps)

    def test_actions_check_reaches_the_injections_out_of_one(self):
        class PointToZero(PointedMonad):
            """Every map [1] -> [2] sends the point to 0."""
            name = "pointed-point-to-zero"

            def map(self, table, n_to, e):
                if len(table) == 1 and n_to == 2 and e == self.POINT:
                    return 0
                return super().map(table, n_to, e)

        comp = KeypropComputation(POINTED_MONAD, 1, 1, k_cap=2)
        reps = comp.representatives()
        assert _actions_ok(comp, reps)
        comp.fragment = PointToZero()
        assert not _actions_ok(comp, reps)

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

    def test_pair_strings_build_no_quotient(self, monkeypatch):
        def no_quotient(*args, **kwargs):
            raise AssertionError("a quotient was built")

        monkeypatch.setattr(pcompletion, "KeypropComputation", no_quotient)
        assert _pair_strings_ok(POINTED_MONAD, 2, 2, 2, None)

    def test_pair_strings_fail_an_insertion_that_leaves_the_carrier(self):
        class Escape(PointedMonad):
            name = "pointed-escape"

            def map(self, table, n_to, e):
                return "far" if n_to >= 2 and e == self.POINT else \
                    super().map(table, n_to, e)

        assert not _pair_strings_ok(Escape(), 2, 2, 2, None)

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


def _elements(comp):
    """Every element of the quotient, decoded in numbering order."""
    return [(k, y, xs) for k in range(comp.k_cap + 1)
            for y in itertools.product(range(comp.j), repeat=k)
            for xs in itertools.product(comp._carriers[k], repeat=comp.n)]


def _kernel_partition(comp, elements):
    """The kernel's classes of the given elements, grouped by the root of
    each element's number, in the order the elements come."""
    roots = dict(zip(_elements(comp), comp._parent))
    out = {}
    for e in elements:
        out.setdefault(roots[e], []).append(e)
    return list(out.values())


def assert_matches_reference(comp, want, at=None):
    """The kernel has the reference's elements, its partition and, in
    order, its representatives."""
    elements = [e for members in want.values() for e in members]
    assert len(comp._parent) == len(elements), at
    assert _kernel_partition(comp, elements) == list(want.values()), at
    assert comp.representatives() == list(want), at


@pytest.mark.parametrize("name", sorted(FRAGMENTS))
def test_kernel_matches_dict_union_find(name):
    frag = FRAGMENTS[name]
    for bound in ([None] if frag.finite else [1, 2, 3]):
        for j, n, k_cap in itertools.product(range(3), range(3), range(4)):
            assert_matches_reference(
                KeypropComputation(frag, j, n, k_cap, bound),
                _reference_classes(frag, j, n, k_cap, bound),
                (name, bound, j, n, k_cap))


@pytest.mark.parametrize("fragment", [POINTED_MONAD, IDENTITY_MONAD],
                         ids=lambda f: f.name)
def test_kernel_matches_dict_union_find_at_workload_scale(fragment):
    # the coend-quotient workload's keyprop sizes: j = 3, n = 2 at
    # k_cap 4, then the stability level
    comp = KeypropComputation(fragment, 3, 2, 4)
    comp.extend()
    assert_matches_reference(comp, _reference_classes(fragment, 3, 2, 5, None))


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
    assert_matches_reference(comp, _reference_classes(Powerset(), 3, 1, 4,
                                                      None))
    assert comp.class_count() == 2 ** 3
    assert verify_keyprop(Powerset(), 2, 2).passed


def test_representative_is_least_label_not_first_member():
    # with j = 11 the class of the word (2, 10) has its first member at
    # y = (2, 10) but its least _label_key member at y = (10, 2)
    comp = KeypropComputation(FREE_MONOID_MONAD, 11, 1, 2, 2)
    assert_matches_reference(
        comp, _reference_classes(FREE_MONOID_MONAD, 11, 1, 2, 2))
    members = next(ms for ms in _kernel_partition(comp, _elements(comp))
                   if (2, (2, 10), ((0, 1),)) in ms)
    assert members[0] == (2, (2, 10), ((0, 1),))
    assert (2, (10, 2), ((1, 0),)) in comp.representatives()


def test_representative_past_level_nine_is_least_label():
    # "(10, ..." reprs below "(2, ...", so from k_cap 10 on the least
    # label of a class need not share its first member's (k, y): the
    # representative is the least label, not read off the numbering
    comp = KeypropComputation(IDENTITY_MONAD, 2, 2, 10)
    classes = _kernel_partition(comp, _elements(comp))
    reps = comp.representatives()
    assert reps == [min(members, key=_label_key) for members in classes]
    rep = next(r for r, ms in zip(reps, classes)
               if ms[0] == (2, (0, 1), (0, 1)))
    assert rep == (10, (0,) * 9 + (1,), (0, 9))


def test_representatives_build_no_member_lists():
    # the read-out keeps one member per class, so its peak stays far
    # below that of decoding every member into per-class lists
    comp = KeypropComputation(POINTED_MONAD, 3, 3, 4)
    peaks = []
    for read in (comp.representatives,
                 lambda: _kernel_partition(comp, _elements(comp))):
        tracemalloc.start()
        try:
            read()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] / 10, peaks


# ---------------------------------------------------------------------------
# the quotient grown in place against fresh builds


@pytest.mark.parametrize("name", sorted(FRAGMENTS))
def test_extension_matches_a_fresh_build(name):
    frag = FRAGMENTS[name]
    for bound in ([None] if frag.finite else [1, 2, 3]):
        for j, n, k_cap in itertools.product(range(3), range(3), range(4)):
            comp = KeypropComputation(frag, j, n, k_cap, bound)
            before = comp.representatives()
            comp.extend()
            fresh = KeypropComputation(frag, j, n, k_cap + 1, bound)
            at = (name, bound, j, n, k_cap)
            assert comp.k_cap == k_cap + 1, at
            elements = _elements(fresh)
            assert _kernel_partition(comp, elements) == \
                _kernel_partition(fresh, elements), at
            assert comp.representatives() == fresh.representatives(), at
            assert comp.class_count() == fresh.class_count() == \
                len(fresh.representatives()) == \
                len(fresh.class_values()), at
            # representatives read before the extension are not
            # touched by it
            assert before == KeypropComputation(
                frag, j, n, k_cap, bound).representatives(), at


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
            reps = comp.representatives()
            invs = sorted(set(comp.invariant(r) for r in reps),
                          key=_label_key)
            ok = (len(reps) == len(expected)
                  and len(invs) == len(reps)
                  and sorted(expected, key=_label_key) == invs)
            stable = comp_next.class_count() == len(reps)
            stability[f"j={j},n={n}"] = stable
            if ok and stable and _actions_ok(comp, reps):
                rep.pass_count += 1
            else:
                rep.add_failure(j=j, n=n, classes=len(reps),
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
