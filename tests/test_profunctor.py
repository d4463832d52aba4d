import gc
import itertools
import random
import re
import weakref

import pytest

from lawvere.builtin import POINTED
from lawvere.correspondence import phi
from lawvere.fincat import (FiniteCategory, FiniteFunctor, Morphism,
                            chain_category, compose_functors,
                            constant_functor, discrete_category,
                            identity_functor, iso_pair_category,
                            monoid_category)
from lawvere.fragments import IDENTITY_MONAD, POINTED_MONAD
from lawvere.pcompletion import p_category
from lawvere.profunctor import (BimoduleMonad, FiniteProfunctor,
                                compose_prof, constant_profunctor,
                                functor_to_monad, hom_profunctor,
                                monad_to_functor, prof_iso,
                                relabel_profunctor, representable,
                                _label_key)
from lawvere.terms import StructuralError, Var
from lawvere.theory import compose as theory_compose, morphism


def z2_category():
    return monoid_category([0, 1], {(a, b): (a + b) % 2
                                    for a in (0, 1) for b in (0, 1)}, 0,
                           name="z2")


def category_pool():
    return [discrete_category(["x"]), discrete_category(["x", "y"]),
            chain_category(2), chain_category(3), z2_category()]


def out_of(cat, x) -> list:
    """The morphisms with source x, in declaration order, by a scan."""
    return [m for m in cat.morphisms if m.src == x]


def into(cat, x) -> list:
    """The morphisms with target x, in declaration order, by a scan."""
    return [m for m in cat.morphisms if m.tgt == x]


def composable_pairs(cat) -> list:
    """Every (g, f) with g after f defined: f in declaration order, then
    each g out of f's target."""
    return [(g, f) for f in cat.morphisms for g in out_of(cat, f.tgt)]


def elements(p, d, c) -> tuple:
    return p.table.get((d, c), ())


def act(p, side: str, m, over, x):
    """The C- or D-action of the morphism m, raising the validator's
    message when the dict has no entry."""
    actions = p.c_action if side == "C" else p.d_action
    try:
        return actions[(m.name, over, x)]
    except KeyError:
        raise StructuralError(f"{p.name}: no {side}-action of {m.name} "
                              f"on {x!r} over {over!r}") from None


SWAP = {"a": "b", "b": "a"}
FIX = {"a": "a", "b": "b"}


def z2_module(c_one: dict, d_one: dict, z2=None, name="m"):
    """An endo-profunctor on Z/2 with one entry, the keys of ``c_one``:
    the generator "1" acts by ``c_one`` on the C side and by ``d_one`` on
    the D side, and "0" acts as the identity on both."""
    z2 = z2 or z2_category()
    elements = tuple(c_one)
    c_action = {("0", "*", x): x for x in elements}
    c_action.update({("1", "*", x): y for x, y in c_one.items()})
    d_action = {("0", "*", x): x for x in elements}
    d_action.update({("1", "*", x): y for x, y in d_one.items()})
    return FiniteProfunctor(name, z2, z2, {("*", "*"): elements},
                            c_action, d_action)


def functor_pool(rng, src, tgt):
    out = [constant_functor(src, tgt, o) for o in tgt.objects]
    if src is tgt:
        out.append(identity_functor(src))
    return out


def profunctor_pool(rng, src, tgt):
    pool = [constant_profunctor(src, tgt, ["u"]),
            constant_profunctor(src, tgt, ["u", "v"])]
    if src is tgt:
        pool.append(hom_profunctor(src))
    for F in functor_pool(rng, src, tgt):
        pool.append(representable(F))
    return pool


class TestCategories:
    def test_duplicate_objects_rejected(self):
        with pytest.raises(StructuralError, match="^duplicate objects$"):
            FiniteCategory("c", ["x", "x"], [Morphism("id", "x", "x")],
                           {"x": "id"}, {("id", "id"): "id"})

    def test_bad_composition_rejected(self):
        ms = [Morphism("id_x", "x", "x"), Morphism("f", "x", "x")]
        comp = {("id_x", "id_x"): "id_x", ("f", "id_x"): "f",
                ("id_x", "f"): "f", ("f", "f"): "id_x"}
        FiniteCategory("ok", ["x"], ms, {"x": "id_x"}, comp)
        bad = dict(comp)
        bad[("f", "f")] = "f"
        bad[("f", "id_x")] = "id_x"
        with pytest.raises(StructuralError):
            FiniteCategory("bad", ["x"], ms, {"x": "id_x"}, bad)

    def test_associativity_only_failure_rejected(self):
        # e is a two-sided unit and every composite stays at the one
        # object, but (b a) a = a a = b while b (a a) = b b = a
        ms = [Morphism(n, "x", "x") for n in ("e", "a", "b")]
        comp = {(g, f): g if f == "e" else f if g == "e" else
                ("b" if (g, f) == ("a", "a") else "a")
                for g in "eab" for f in "eab"}
        with pytest.raises(StructuralError, match="^associativity fails$"):
            FiniteCategory("non-assoc", ["x"], ms, {"x": "e"}, comp)

    def test_missing_composite_is_a_structural_error(self):
        ms = [Morphism("id_x", "x", "x"), Morphism("f", "x", "x")]
        with pytest.raises(StructuralError,
                           match="^x: the composition table names no "
                                 "morphism for f:x->x after id_x:x->x$"):
            FiniteCategory("x", ["x"], ms, {"x": "id_x"},
                           {("id_x", "id_x"): "id_x"})
        # a composite named in the table that is not a morphism
        with pytest.raises(StructuralError, match="names no morphism"):
            FiniteCategory("x", ["x"], ms[:1], {"x": "id_x"},
                           {("id_x", "id_x"): "g"})

    def test_endpoint_index_in_declaration_order(self):
        cat = chain_category(3)
        assert [m for m, _ in cat.arrows[1].out] == ["1->1", "1->2"]
        assert [m for m, _ in cat.arrows[2].into] == ["0->2", "1->2", "2->2"]
        assert [m.name for m in cat.hom(0, 2)] == ["0->2"]
        assert cat.hom(2, 0) == () and cat.hom("nowhere", 0) == ()
        assert list(cat.composition) == [
            (g.name, f.name) for f in cat.morphisms for g in cat.morphisms
            if f.tgt == g.src]

    def test_fop_truncation_matches_basic_morphisms(self):
        cat = phi(IDENTITY_MONAD).truncate([0, 1, 2])
        # arrows k -> m are tables [m] -> [k]
        assert len(cat.hom(2, 2)) == 4
        assert len(cat.hom(2, 0)) == 1
        assert len(cat.hom(0, 1)) == 0

    def test_identity_that_names_no_morphism_rejected(self):
        with pytest.raises(StructuralError,
                           match="^c: the identity of 'x' names no "
                                 "morphism: 'nope'$"):
            FiniteCategory("c", ["x"], [Morphism("id", "x", "x")],
                           {"x": "nope"}, {("id", "id"): "id"})


class TestFunctors:
    def test_broken_endpoints_rejected(self):
        c = chain_category(2)
        with pytest.raises(StructuralError,
                           match="^functor breaks endpoints at 0->1:0->1$"):
            FiniteFunctor(c, c, {0: 0, 1: 1},
                          {"0->0": "0->0", "0->1": "0->0", "1->1": "1->1"})

    def test_broken_identity_rejected(self):
        z2 = z2_category()
        with pytest.raises(StructuralError,
                           match=r"^functor breaks identity at '\*'$"):
            FiniteFunctor(z2, z2, {"*": "*"}, {"0": "1", "1": "1"})

    def test_broken_composition_rejected(self):
        z3 = monoid_category(range(3), {(a, b): (a + b) % 3
                                        for a in range(3) for b in range(3)},
                             0, name="z3")
        z2 = z2_category()
        # 1 + 1 = 2 goes to 1, but 1 + 1 = 0 in Z/2
        with pytest.raises(StructuralError,
                           match="^functor breaks composition$"):
            FiniteFunctor(z3, z2, {"*": "*"}, {"0": "0", "1": "1", "2": "1"})
        FiniteFunctor(z3, z2, {"*": "*"}, {"0": "0", "1": "0", "2": "0"})


def coend_category_pool():
    """The categories the coend-quotient benchmark composes over."""
    return category_pool() + [iso_pair_category()]


def reference_validate(p):
    """The reference for ``FiniteProfunctor._validate``'s first failure:
    the same checks read from ``table`` and the two action dicts one
    lookup at a time, over every (morphism, morphism) pair, identities
    included, with the arrows at each object found by scanning
    ``morphisms``."""
    for d in p.tgt.objects:
        for c in p.src.objects:
            for x in elements(p, d, c):
                for f in out_of(p.src, c):
                    y = act(p, "C", f, d, x)
                    if y not in elements(p, d, f.tgt):
                        raise StructuralError(
                            f"{p.name}: C-action leaves the table")
                for g in into(p.tgt, d):
                    y = act(p, "D", g, c, x)
                    if y not in elements(p, g.src, c):
                        raise StructuralError(
                            f"{p.name}: D-action leaves the table")
                idc = p.src.identity(c)
                if act(p, "C", idc, d, x) != x:
                    raise StructuralError(f"{p.name}: C-identity acts")
                idd = p.tgt.identity(d)
                if act(p, "D", idd, c, x) != x:
                    raise StructuralError(f"{p.name}: D-identity acts")
    for g2, g1 in composable_pairs(p.src):
        gf = p.src.compose(g2, g1)
        for d in p.tgt.objects:
            for x in elements(p, d, g1.src):
                if act(p, "C", g2, d, act(p, "C", g1, d, x)) != \
                        act(p, "C", gf, d, x):
                    raise StructuralError(
                        f"{p.name}: C-action not functorial")
    for g2, g1 in composable_pairs(p.tgt):
        gf = p.tgt.compose(g2, g1)
        for c in p.src.objects:
            for x in elements(p, gf.tgt, c):
                if act(p, "D", g1, c, act(p, "D", g2, c, x)) != \
                        act(p, "D", gf, c, x):
                    raise StructuralError(
                        f"{p.name}: D-action not functorial")
    for f in p.src.morphisms:
        for g in p.tgt.morphisms:
            for x in elements(p, g.tgt, f.src):
                a = act(p, "D", g, f.tgt, act(p, "C", f, g.tgt, x))
                b = act(p, "C", f, g.src, act(p, "D", g, f.src, x))
                if a != b:
                    raise StructuralError(
                        f"{p.name}: actions do not commute")


def validation_corpus(seed: int) -> list:
    """Const, rep and hom tables over every pair of pool categories, and
    seeded coend composites of them."""
    rng = random.Random(seed)
    cats = coend_category_pool()
    pools = {(s, t): profunctor_pool(rng, cats[s], cats[t])
             for s in range(len(cats)) for t in range(len(cats))}
    corpus = [p for pool in pools.values() for p in pool]
    for _ in range(40):
        b, c, d = (rng.randrange(len(cats)) for _ in range(3))
        corpus.append(compose_prof(rng.choice(pools[(c, d)]),
                                   rng.choice(pools[(b, c)])))
    return corpus


def action_mutants(p, rng):
    """Each action entry deleted, and each given another label: one from
    the table when there is one, else a label from nowhere."""
    labels = sorted({x for xs in p.table.values() for x in xs},
                    key=_label_key)
    for side in ("c_action", "d_action"):
        actions = getattr(p, side)
        for key in actions:
            deleted = dict(actions)
            del deleted[key]
            others = [x for x in labels if x != actions[key]]
            relabelled = dict(actions)
            relabelled[key] = rng.choice(others) if others else "stranger"
            for mutant in (deleted, relabelled):
                yield {"c_action": p.c_action, "d_action": p.d_action,
                       side: mutant}


def first_failure(validate) -> object:
    try:
        validate()
    except StructuralError as exc:
        return str(exc)
    return None


class TestArrowIndex:
    @pytest.mark.parametrize("cat", coend_category_pool() + [
        phi(POINTED_MONAD).truncate(range(3)),
        p_category(chain_category(2), 2)], ids=lambda cat: cat.name)
    def test_index_matches_the_category(self, cat):
        # the composition table holds exactly the composable pairs, in
        # the order of a scan of ``morphisms``
        assert list(cat.composition) == [(g.name, f.name) for g, f
                                         in composable_pairs(cat)]
        pairs = [(g, f) for g, f in composable_pairs(cat)
                 if g != cat.identity(g.src) and f != cat.identity(f.src)]
        for x in cat.objects:
            at = cat.arrows[x]
            ident = cat.identity(x).name
            assert at.identity == ident
            assert at.out == tuple((m.name, m.tgt) for m in out_of(cat, x))
            assert at.into == tuple((m.name, m.src) for m in into(cat, x))
            assert at.out_ni == tuple(a for a in at.out if a[0] != ident)
            assert at.into_ni == tuple(a for a in at.into if a[0] != ident)
            triple = lambda g, f: (g.name, f.name,
                                   cat.composition[(g.name, f.name)])
            assert at.after_from == tuple(
                triple(g, f) for g, f in pairs if f.src == x)
            assert at.after_into == tuple(
                triple(g, f) for g, f in pairs if g.tgt == x)
            for y in cat.objects:
                assert cat.hom(x, y) == tuple(m for m in out_of(cat, x)
                                              if m.tgt == y)
        assert set(cat.arrows) == set(cat.objects)
        assert cat.arrows is cat.arrows


class TestProfunctorValidation:
    def test_mutant_tables_rejected_at_their_check(self):
        bad_identity = z2_module(SWAP, FIX)
        cases = {
            "C-action leaves the table": ({"a": "z", "b": "b"}, FIX),
            "D-action leaves the table": (FIX, {"a": "z", "b": "b"}),
            "C-action not functorial": ({"a": "a", "b": "a"}, FIX),
            "D-action not functorial": (FIX, {"a": "a", "b": "a"}),
            # two involutions of {a, b, c} that do not commute
            "actions do not commute": ({"a": "b", "b": "a", "c": "c"},
                                       {"a": "a", "b": "c", "c": "b"}),
        }
        for message, (c_one, d_one) in cases.items():
            with pytest.raises(StructuralError, match=f"^m: {message}$"):
                z2_module(c_one, d_one)
        for side in ("C", "D"):
            c_action = dict(bad_identity.c_action)
            d_action = dict(bad_identity.d_action)
            (c_action if side == "C" else d_action)[("0", "*", "a")] = "b"
            with pytest.raises(StructuralError,
                               match=f"^m: {side}-identity acts$"):
                FiniteProfunctor("m", bad_identity.src, bad_identity.tgt,
                                 bad_identity.table, c_action, d_action)

    def test_missing_action_is_a_structural_error(self):
        c = chain_category(2)
        const = constant_profunctor(c, c, ["u"])
        for side, key in (("D", ("1->1", 0, "u")), ("C", ("0->0", 1, "u"))):
            actions = {"C": dict(const.c_action), "D": dict(const.d_action)}
            del actions[side][key]
            with pytest.raises(StructuralError,
                               match=f"^const: no {side}-action of {key[0]} "
                                     f"on 'u' over {key[1]}$"):
                FiniteProfunctor("const", c, c, const.table, actions["C"],
                                 actions["D"])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_first_failure_matches_the_reference(self, seed):
        rng = random.Random(f"mutants {seed}")
        seen = set()
        mutants = 0
        for p in validation_corpus(seed):
            assert first_failure(lambda: reference_validate(p)) is None
            for actions in action_mutants(p, rng):
                old = object.__new__(FiniteProfunctor)
                old.__dict__.update(name=p.name, src=p.src, tgt=p.tgt,
                                    table=p.table, **actions)
                expected = first_failure(lambda: reference_validate(old))
                assert first_failure(lambda: FiniteProfunctor(
                    p.name, p.src, p.tgt, p.table, **actions)) == expected
                seen.add(expected and expected.split(": ")[1].split(" of ")[0])
                mutants += 1
        assert mutants > 5000
        # every check is the first to fail on some mutant, and some
        # mutants pass both
        assert seen == {None, "no C-action", "no D-action",
                        "C-action leaves the table",
                        "D-action leaves the table", "C-identity acts",
                        "D-identity acts", "C-action not functorial",
                        "D-action not functorial", "actions do not commute"}

    def test_cell_over_an_unknown_object_rejected(self):
        one = discrete_category(["x"])
        ident = {("id_x", "x", "e"): "e"}
        for key in (("ghost", "x"), ("x", "ghost"), ("x",)):
            for elements in (["g1", "g2"], []):
                with pytest.raises(StructuralError,
                                   match=f"^h: cell {re.escape(repr(key))} "
                                         "is not over an object of "
                                         "discrete1 and an object of "
                                         "discrete1$"):
                    FiniteProfunctor("h", one, one, {("x", "x"): ["e"],
                                                     key: elements},
                                     ident, ident)

    def test_cell_listing_an_element_twice_rejected(self):
        one = discrete_category(["x"])
        ident = {("id_x", "x", x): x for x in "ef"}
        for cell in (["e", "e"], ["e", "f", "e"], ["f", "e", "f"]):
            with pytest.raises(StructuralError,
                               match=f"^h: cell \\('x', 'x'\\) lists "
                                     f"'{cell[-1]}' twice$"):
                FiniteProfunctor("h", one, one, {("x", "x"): cell}, ident,
                                 ident)
        assert FiniteProfunctor("h", one, one, {("x", "x"): ["e", "f"]},
                                ident, ident).total_size() == 2

    def test_commuting_involutions_accepted(self):
        for c_one in (SWAP, FIX):
            for d_one in (SWAP, FIX):
                assert z2_module(c_one, d_one).total_size() == 2


class TestComposeProf:
    def test_unit_laws_up_to_natural_iso(self):
        rng = random.Random(4)
        for cat in category_pool():
            ident = hom_profunctor(cat)
            for p in profunctor_pool(rng, cat, cat):
                assert prof_iso(compose_prof(ident, p), p) is not None
                assert prof_iso(compose_prof(p, ident), p) is not None

    def test_representables_compose(self):
        rng = random.Random(5)
        cats = category_pool()
        done = 0
        for C, D, E in itertools.product(cats[:4], repeat=3):
            for f in functor_pool(rng, C, D)[:2]:
                for g in functor_pool(rng, D, E)[:2]:
                    lhs = compose_prof(representable(g), representable(f))
                    rhs = representable(compose_functors(g, f))
                    assert prof_iso(lhs, rhs) is not None
                    done += 1
        assert done >= 20

    def test_associativity_up_to_iso_on_random_triples(self):
        rng = random.Random(6)
        cats = category_pool()
        for _ in range(25):
            B, C, D, E = (rng.choice(cats) for _ in range(4))
            f = rng.choice(profunctor_pool(rng, B, C))
            g = rng.choice(profunctor_pool(rng, C, D))
            h = rng.choice(profunctor_pool(rng, D, E))
            lhs = compose_prof(h, compose_prof(g, f))
            rhs = compose_prof(compose_prof(h, g), f)
            assert prof_iso(lhs, rhs) is not None

    def test_middle_mismatch_rejected(self):
        a, b = discrete_category(["x"]), chain_category(2)
        p = constant_profunctor(a, a, ["u"])
        q = constant_profunctor(b, b, ["u"])
        with pytest.raises(StructuralError):
            compose_prof(q, p)


class TestProfIso:
    def test_identity_family(self):
        p = hom_profunctor(chain_category(3))
        iso = prof_iso(p, p)
        assert iso is not None
        for cell, beta in iso.items():
            assert all(k == v for k, v in beta.items())

    def test_relabeled_found(self):
        p = hom_profunctor(chain_category(3))
        assert prof_iso(p, relabel_profunctor(p, "w")) is not None

    def test_cardinality_mismatch_none(self):
        c = chain_category(2)
        assert prof_iso(constant_profunctor(c, c, ["u"]),
                        constant_profunctor(c, c, ["u", "v"])) is None

    def test_action_mismatch_none(self):
        # same sizes everywhere, incompatible actions
        c = monoid_category([0, 1], {(a, b): (a + b) % 2
                                     for a in (0, 1) for b in (0, 1)}, 0)
        hom = hom_profunctor(c)
        const = constant_profunctor(c, c, ["u", "v"])
        assert prof_iso(hom, const) is None

    def test_search_leaves_no_cycle(self):
        # the search state is freed on return, without the cycle collector
        p = hom_profunctor(chain_category(3))
        q = relabel_profunctor(p, "w")
        refs = [weakref.ref(p), weakref.ref(q)]
        gc.disable()
        try:
            assert prof_iso(p, q) is not None
            assert prof_iso(p, constant_profunctor(p.src, p.tgt,
                                                   ["u"])) is None
            del p, q
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()

    def test_different_targets_none(self):
        d2 = discrete_category([0, 1])
        p = constant_profunctor(d2, d2, ["x"])
        q = constant_profunctor(d2, chain_category(2), ["x"])
        assert prof_iso(p, q) is None
        assert prof_iso(q, p) is None

    def test_search_matches_the_four_loop_search(self):
        rng = random.Random(1)
        cats = category_pool()
        z2 = cats[-1]
        found = same_sizes_no_iso = 0
        for src in cats:
            pool = [p for tgt in cats for p in profunctor_pool(rng, src, tgt)]
            if src is z2:
                # with hom(z2) and the constant {u, v}: one cell of size
                # 2 each, no two of the four isomorphic
                pool += [z2_module(SWAP, FIX, z2), z2_module(FIX, SWAP, z2)]
            pool += [relabel_profunctor(p, "w") for p in pool]
            for a in pool:
                for b in pool:
                    got = prof_iso(a, b)
                    assert got == four_loop_prof_iso(a, b)
                    found += got is not None
                    same_sizes_no_iso += got is None and a.tgt is b.tgt and all(
                        len(elements(a, *k)) == len(elements(b, *k))
                        for k in set(a.table) | set(b.table))
        assert found > 500 and same_sizes_no_iso > 100

    def test_search_matches_the_recursive_reference(self):
        rng = random.Random(0)
        found = 0
        for c in category_pool():
            pool = profunctor_pool(rng, c, c)
            pool += [compose_prof(a, b) for a in pool[:3] for b in pool[:3]]
            pool += [relabel_profunctor(a, "w") for a in pool[:4]]
            for a in pool:
                for b in pool:
                    got = prof_iso(a, b)
                    assert got == reference_prof_iso(a, b)
                    if got is not None:
                        assert list(got) == list(reference_prof_iso(a, b))
                        found += 1
        assert found


def four_loop_prof_iso(p, q):
    """prof_iso with the four scans of its consistency check: every arrow
    into or out of the cell, on either side, found by filtering the
    morphisms; the target test is added to it."""
    if p.src != q.src and p.src is not q.src:
        return None
    if p.tgt is not q.tgt:
        return None
    cells = sorted(set(p.table) | set(q.table), key=_label_key)
    for cell in cells:
        if len(elements(p, *cell)) != len(elements(q, *cell)):
            return None
    assign: dict = {}

    def consistent(cell) -> bool:
        d, c = cell
        beta = assign[cell]
        for f in p.src.morphisms:
            if f.src != c:
                continue
            other = (d, f.tgt)
            if other not in assign:
                continue
            for x, qx in beta.items():
                if assign[other][act(p, "C", f, d, x)] != \
                        act(q, "C", f, d, qx):
                    return False
        for f in p.src.morphisms:
            if f.tgt != c:
                continue
            other = (d, f.src)
            if other in assign:
                for x, qx in assign[other].items():
                    if beta.get(act(p, "C", f, d, x)) != act(q, "C", f, d, qx):
                        return False
        for g in p.tgt.morphisms:
            if g.tgt != d:
                continue
            other = (g.src, c)
            if other not in assign:
                continue
            for x, qx in beta.items():
                if assign[other][act(p, "D", g, c, x)] != \
                        act(q, "D", g, c, qx):
                    return False
        for g in p.tgt.morphisms:
            if g.src != d:
                continue
            other = (g.tgt, c)
            if other in assign:
                for x, qx in assign[other].items():
                    if beta.get(act(p, "D", g, c, x)) != act(q, "D", g, c, qx):
                        return False
        return True

    # depth-first over the cells in order, one permutation iterator per
    # cell on the path; a loop, so no self-referencing closure keeps the
    # tables alive after the call
    tries: list = []
    i = 0
    while 0 <= i < len(cells):
        if len(tries) == i:
            cell = cells[i]
            tries.append((cell, elements(p, *cell),
                          itertools.permutations(elements(q, *cell))))
        cell, pe, perms = tries[i]
        for perm in perms:
            assign[cell] = dict(zip(pe, perm))
            if consistent(cell):
                i += 1
                break
        else:
            del assign[cell]
            tries.pop()
            i -= 1
    return dict(assign) if i == len(cells) else None


def reference_prof_iso(p, q):
    """prof_iso with its search as a recursive inner function."""
    if p.src != q.src and p.src is not q.src:
        return None
    cells = sorted(set(p.table) | set(q.table), key=_label_key)
    for cell in cells:
        if len(elements(p, *cell)) != len(elements(q, *cell)):
            return None
    assign = {}

    def natural(cell):
        # every square whose two corners are solved commutes
        d, c = cell
        beta = assign[cell]
        for f in p.src.morphisms:
            if f.src == c and (d, f.tgt) in assign:
                for x, qx in beta.items():
                    if assign[(d, f.tgt)][act(p, "C", f, d, x)] != \
                            act(q, "C", f, d, qx):
                        return False
            if f.tgt == c and (d, f.src) in assign:
                for x, qx in assign[(d, f.src)].items():
                    if beta.get(act(p, "C", f, d, x)) != act(q, "C", f, d, qx):
                        return False
        for g in p.tgt.morphisms:
            if g.tgt == d and (g.src, c) in assign:
                for x, qx in beta.items():
                    if assign[(g.src, c)][act(p, "D", g, c, x)] != \
                            act(q, "D", g, c, qx):
                        return False
            if g.src == d and (g.tgt, c) in assign:
                for x, qx in assign[(g.tgt, c)].items():
                    if beta.get(act(p, "D", g, c, x)) != act(q, "D", g, c, qx):
                        return False
        return True

    def solve(i):
        if i == len(cells):
            return True
        cell = cells[i]
        for perm in itertools.permutations(elements(q, *cell)):
            assign[cell] = dict(zip(elements(p, *cell), perm))
            if natural(cell) and solve(i + 1):
                return True
        del assign[cell]
        return False

    return dict(assign) if solve(0) else None


class TestBimodules:
    def test_trivial_base_monad_is_identity_functor(self):
        cat = chain_category(2)
        m = functor_to_monad(identity_functor(cat))
        a, functor, names = monad_to_functor(m)
        assert sorted(x.name for x in a.morphisms) == \
            sorted(names[(e.src, e.tgt, e.name)] for e in cat.morphisms)

    def test_z2_monoid_monad(self):
        one = discrete_category(["*"], name="one")
        z2 = monoid_category([0, 1], {(a, b): (a + b) % 2
                                      for a in (0, 1) for b in (0, 1)}, 0,
                             name="z2")
        emb = FiniteFunctor(one, z2, {"*": "*"}, {"id_*": "0"})
        m = functor_to_monad(emb)
        a, functor, _ = monad_to_functor(m)
        assert len(a.hom("*", "*")) == 2

    def test_pointed_hom_tables_over_two_arities(self):
        # the embedded arity category inside the pointed theory, on {0, 1}
        fop = phi(IDENTITY_MONAD).truncate([0, 1], name="fop01")
        pt = POINTED
        tuples = {}
        morphs = []
        comp = {}
        for k in (0, 1):
            for m in (0, 1):
                opts = [Var(i) for i in range(k)]
                from lawvere.terms import App
                opts.append(App(pt.op("point"), ()))
                for comps in itertools.product(opts, repeat=m):
                    mor = morphism(pt, k, list(comps))
                    name = f"{k}to{m}:{comps!r}"
                    tuples[(k, m, mor.components)] = name
                    morphs.append((Morphism(name, k, m), mor))
        for m0, mor0 in morphs:
            for m1, mor1 in morphs:
                if m0.tgt == m1.src:
                    c = theory_compose(mor1, mor0)
                    comp[(m1.name, m0.name)] = \
                        tuples[(c.source, c.target, c.components)]
        idents = {k: tuples[(k, k, tuple(Var(i) for i in range(k)))]
                  for k in (0, 1)}
        ptcat = FiniteCategory("pointed01", [0, 1],
                               [m for m, _ in morphs], idents, comp)
        # an arrow k -> m of the arity category is named "k->m:" and its
        # table [m] -> [k], comma-separated
        emb = FiniteFunctor(
            fop, ptcat, {0: 0, 1: 1},
            {f.name: tuples[(f.src, f.tgt,
                             tuple(Var(int(v)) for v in
                                   f.name.split(":")[1].split(",") if v))]
             for f in fop.morphisms})
        m = functor_to_monad(emb)
        a, functor, names = monad_to_functor(m)
        assert len(a.morphisms) == len(ptcat.morphisms)
        # round-trip on the nose: the category, tables and functor return
        assert sorted(x.name for x in a.morphisms) == \
            sorted(x.name for x in ptcat.morphisms)
        assert functor.mor_map == emb.mor_map
        again = functor_to_monad(
            FiniteFunctor(fop, a, functor.obj_map, functor.mor_map))
        assert again.module.table == m.module.table
        assert again.unit == m.unit

    def test_labels_repeated_across_cells(self):
        base = discrete_category(["a", "b"])
        action = {("id_a", "a", 0): 0, ("id_b", "b", 0): 0}
        module = FiniteProfunctor("m", base, base,
                                  {("a", "a"): (0,), ("b", "b"): (0,)},
                                  action, action)
        m = BimoduleMonad("repeat", base, module,
                          {"id_a": 0, "id_b": 0}, lambda e1, e2: 0)
        cat, functor, names = monad_to_functor(m)
        assert names == {("a", "a", 0): "e0", ("b", "b", 0): "e1"}
        assert [cat.identity(x).name for x in "ab"] == ["e0", "e1"]
        assert functor.mor_map == {"id_a": "e0", "id_b": "e1"}

    def test_z4_mutants_rejected_naming_the_monad(self):
        one = discrete_category(["*"], name="one")
        z4 = monoid_category(range(4), {(a, b): (a + b) % 4
                                        for a in range(4)
                                        for b in range(4)}, 0, name="z4")
        good = functor_to_monad(FiniteFunctor(one, z4, {"*": "*"},
                                              {"id_*": "0"}))

        def changed(results):
            return lambda e1, e2: results.get((e1, e2), good.mult(e1, e2))

        mutants = [
            # 1 1 = 3: (1 1) 2 = 1 but 1 (1 2) = 0
            ("associativity fails", changed({("1", "1"): "3"})),
            # 0 1 = 2; over one object the identity acts trivially, so
            # "act_d is composition with the unit" is the unit law
            ("pre-action is not composition", changed({("0", "1"): "2"})),
            ("pre-action is not composition", lambda e1, e2: "0"),
            # 1 2 = 3 and 1 3 = 0 swapped: (1 1) 2 = 0 but 1 (1 2) = 1
            ("associativity fails", changed({("1", "2"): "0",
                                             ("1", "3"): "3"})),
        ]
        for message, mult in mutants:
            with pytest.raises(StructuralError,
                               match=f"^broken: {message}$"):
                BimoduleMonad("broken", good.base, good.module, good.unit,
                              mult)

    def test_broken_mult_rejected(self):
        one = discrete_category(["*"], name="one")
        z3 = monoid_category([0, 1, 2],
                             {(a, b): (a + b) % 3
                              for a in (0, 1, 2) for b in (0, 1, 2)}, 0,
                             name="z3")
        emb = FiniteFunctor(one, z3, {"*": "*"}, {"id_*": "0"})
        good = functor_to_monad(emb)
        bad_mult = lambda e1, e2: "0"
        with pytest.raises(StructuralError):
            BimoduleMonad("broken", good.base, good.module, good.unit,
                          bad_mult)
