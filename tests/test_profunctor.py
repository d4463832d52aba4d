import gc
import itertools
import random
import weakref

import pytest

from lawvere.builtin import POINTED
from lawvere.correspondence import phi
from lawvere.fincat import (FiniteCategory, FiniteFunctor, Morphism,
                            chain_category, compose_functors,
                            constant_functor, discrete_category,
                            identity_functor, monoid_category)
from lawvere.fragments import IDENTITY_MONAD
from lawvere.profunctor import (BimoduleMonad, compose_prof,
                                constant_profunctor, functor_to_monad,
                                hom_profunctor, monad_to_functor, prof_iso,
                                relabel_profunctor, representable,
                                _label_key)
from lawvere.terms import StructuralError, Var
from lawvere.theory import compose as theory_compose, morphism


def category_pool():
    z2 = monoid_category([0, 1], {(a, b): (a + b) % 2
                                  for a in (0, 1) for b in (0, 1)}, 0,
                         name="z2")
    return [discrete_category(["x"]), discrete_category(["x", "y"]),
            chain_category(2), chain_category(3), z2]


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

    def test_fop_truncation_matches_basic_morphisms(self):
        cat = phi(IDENTITY_MONAD).truncate([0, 1, 2])
        # arrows k -> m are tables [m] -> [k]
        assert len(cat.hom(2, 2)) == 4
        assert len(cat.hom(2, 0)) == 1
        assert len(cat.hom(0, 1)) == 0


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


def reference_prof_iso(p, q):
    """prof_iso with its search as a recursive inner function."""
    if p.src != q.src and p.src is not q.src:
        return None
    cells = sorted(set(p.table) | set(q.table), key=_label_key)
    for cell in cells:
        if len(p.elements(*cell)) != len(q.elements(*cell)):
            return None
    assign = {}

    def natural(cell):
        # every square whose two corners are solved commutes
        d, c = cell
        beta = assign[cell]
        for f in p.src.morphisms:
            if f.src == c and (d, f.tgt) in assign:
                for x, qx in beta.items():
                    if assign[(d, f.tgt)][p.act_c(f, d, x)] != \
                            q.act_c(f, d, qx):
                        return False
            if f.tgt == c and (d, f.src) in assign:
                for x, qx in assign[(d, f.src)].items():
                    if beta.get(p.act_c(f, d, x)) != q.act_c(f, d, qx):
                        return False
        for g in p.tgt.morphisms:
            if g.tgt == d and (g.src, c) in assign:
                for x, qx in beta.items():
                    if assign[(g.src, c)][p.act_d(g, c, x)] != \
                            q.act_d(g, c, qx):
                        return False
            if g.src == d and (g.tgt, c) in assign:
                for x, qx in assign[(g.tgt, c)].items():
                    if beta.get(p.act_d(g, c, x)) != q.act_d(g, c, qx):
                        return False
        return True

    def solve(i):
        if i == len(cells):
            return True
        cell = cells[i]
        for perm in itertools.permutations(q.elements(*cell)):
            assign[cell] = dict(zip(p.elements(*cell), perm))
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
            sorted(names[e.name] for e in cat.morphisms)

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
