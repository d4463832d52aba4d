"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s or -v to see them live)."""
import itertools
import random
import time


from lawvere.builtin import ABELIAN_GROUP, MONOID, POINTED, SEMIGROUP
from lawvere.correspondence import (TheoryFragment,
                                    composite_correspondence_check)
from lawvere.distlaw import (RING_LAW, apply_law, check_law_axioms,
                             check_yang_baxter, ring3_series)
from lawvere.factorization import (FactorizationPair, check_fs_over_base,
                                   check_strict_fs, factorize,
                                   zigzag_equivalent)
from lawvere.fincat import chain_category, iso_pair_category
from lawvere.fragments import (FREE_MONOID_MONAD, FREE_RING_MONAD,
                               IDENTITY_MONAD, POINTED_MONAD)
from lawvere.parser import parse_term
from lawvere.pcompletion import verify_keyprop
from lawvere.profunctor import (compose_prof, hom_profunctor, prof_iso,
                                representable)
from lawvere.correspondence import roundtrip_check
from lawvere.sampling import Sampler
from lawvere.terms import App
from lawvere.theory import LawvereTheory, check_product_structure, morphism
from .conftest import words_over
from .test_profunctor import category_pool, functor_pool, profunctor_pool


def announce(number, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] acceptance {number}: {detail}")
    assert ok


def test_criterion_1_ring_law_beck_diagrams(ring_mutant):
    t0 = time.perf_counter()
    rep = check_law_axioms(RING_LAW, Sampler(seed=0, samples=500,
                                             max_depth=3, max_arity=4))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and all(d.sample_count >= 500 for d in rep.diagrams)
    mutant_rep = check_law_axioms(ring_mutant, Sampler(seed=0, samples=500,
                                                       max_depth=3,
                                                       max_arity=4))
    witness = mutant_rep.first_failure
    ok = ok and not mutant_rep.passed and witness is not None \
        and witness["leftValue"] != witness["rightValue"]
    ok = ok and elapsed < 10.0
    announce(1, ok, f"ring law 500 samples clean in {elapsed:.1f}s; "
                    f"mutant witness {witness['input']!r}")


def test_criterion_2_yang_baxter_ring3():
    t0 = time.perf_counter()
    rep = check_yang_baxter(ring3_series(), Sampler(seed=0, samples=300))
    elapsed = time.perf_counter() - t0
    hexagons = [f for f in rep.failures if f.get("stage", "").startswith(
        "hexagon")]
    brackets = [f for f in rep.failures
                if f.get("stage") == "bracketing-agreement"]
    ok = rep.passed and not hexagons and not brackets and elapsed < 30.0
    announce(2, ok, f"hexagons and bracketings on 300 samples in "
                    f"{elapsed:.1f}s")


def test_criterion_3_paper_fixtures(ring):
    # (a) the law expands a product of sums
    t = App(MONOID.op("mul"), (parse_term("a+b", ABELIAN_GROUP, 4),
                               parse_term("c+d", ABELIAN_GROUP, 4)))
    a_ok = apply_law(RING_LAW, t) == parse_term("ac+bc+ad+bd", ring, 4)

    # (b) tuple composition by substitution
    from lawvere.theory import compose
    f = morphism(MONOID, 3, [parse_term("abc", MONOID, 3),
                             parse_term("ab^2c^2", MONOID, 3)])
    g = morphism(MONOID, 2, [parse_term("a^2b", MONOID, 2)])
    b_ok = compose(g, f).components == \
        (parse_term("abc abc ab^2c^2".replace(" ", ""), MONOID, 3),)

    # (c) canonical factorization of ab + c
    h = morphism(ring, 3, [parse_term("ab+c", ring, 3)])
    pair = factorize(ring, MONOID, ABELIAN_GROUP, h)
    c_ok = (pair.middle == 2
            and set(pair.left.components) == {parse_term("ab", ring, 3),
                                              parse_term("c", ring, 3)}
            and pair.right.components == (parse_term("a+b", ring, 2),)
            and pair.recompose() == h)

    # (d) zigzag relations between alternative factorizations
    padded = FactorizationPair(
        ring, MONOID, ABELIAN_GROUP,
        morphism(ring, 3, [parse_term(s, ring, 3)
                           for s in ("ab", "c", "abc")]),
        morphism(ring, 3, [parse_term("a+b", ring, 3)]))
    eq, wit = zigzag_equivalent(pair, padded, bound=1)
    d_ok = eq and wit is not None and len(wit) == 1 and wit.validate()

    sq = FactorizationPair(
        ring, MONOID, ABELIAN_GROUP,
        morphism(ring, 1, [parse_term(s, ring, 1)
                           for s in ("a^2", "a^2", "a")]),
        morphism(ring, 3, [parse_term("a+b", ring, 3)]))
    canon = factorize(ring, MONOID, ABELIAN_GROUP, sq.recompose())
    eq1, w1 = zigzag_equivalent(sq, canon, bound=1)
    eq1r, w1r = zigzag_equivalent(canon, sq, bound=1)
    eq2, w2 = zigzag_equivalent(sq, canon, bound=2)
    d_ok = (d_ok and eq1 and w1 is None and eq1r and w1r is None
            and eq2 and w2 is not None and len(w2) == 2
            and w2.middles() == [3, 2, 1] and w2.validate())
    announce(3, a_ok and b_ok and c_ok and d_ok,
             f"fixtures a={a_ok} b={b_ok} c={c_ok} d={d_ok}")


def test_criterion_4_factorization_sweep(ring):
    rep = check_fs_over_base(ring, MONOID, ABELIAN_GROUP, 2, 5,
                             witness_sample=24)
    existence = not any(f.get("check") == "existence" for f in rep.failures)
    uniqueness = not any(f.get("check") in ("zigzag-uniqueness", "witness",
                                            "alt-recompose")
                         for f in rep.failures)
    ok = rep.passed and existence and uniqueness \
        and rep.bounds["alternativesChecked"] > 0
    announce(4, ok, f"{rep.sample_count} morphisms, "
                    f"{rep.bounds['alternativesChecked']} alternatives")


def test_criterion_5_word_count_ladder(ps_monoid):
    from lawvere.builtin import word_atoms

    def word_length(t):
        if t == parse_term("1", ps_monoid, 2):
            return 0
        return len(word_atoms(t, SEMIGROUP.op("mul")))

    expected = [1, 3, 7, 15, 31, 63, 127]
    got = []
    for ell in range(7):
        pool = ps_monoid.enumerate_normal(2, max(1, 2 * ell - 1))
        got.append(len([t for t in pool if word_length(t) <= ell]))
    oracle = [len(words_over(2, ell)) for ell in range(7)]
    ok = got == expected == oracle
    announce(5, ok, f"hom(2,1) counts {got}")


def test_criterion_6_keyprop():
    t0 = time.perf_counter()
    rep_p = verify_keyprop(POINTED_MONAD, 3, 3)
    rep_i = verify_keyprop(IDENTITY_MONAD, 3, 3)
    elapsed = time.perf_counter() - t0
    ok = rep_p.passed and rep_i.passed and elapsed < 60.0
    ok = ok and all(rep_p.stability.values()) and \
        all(rep_i.stability.values())
    announce(6, ok, f"pointed and identity up to (3,3) in {elapsed:.1f}s")


def test_criterion_7_coend_engine():
    rng = random.Random(0)
    cats = category_pool()
    assert all(len(c.objects) <= 3 for c in cats)
    triples = 0
    ok = True
    while triples < 50:
        B, C, D, E = (rng.choice(cats) for _ in range(4))
        f = rng.choice(profunctor_pool(rng, B, C))
        g = rng.choice(profunctor_pool(rng, C, D))
        h = rng.choice(profunctor_pool(rng, D, E))
        lhs = compose_prof(h, compose_prof(g, f))
        rhs = compose_prof(compose_prof(h, g), f)
        ok = ok and prof_iso(lhs, rhs) is not None
        ident = hom_profunctor(B)
        ok = ok and prof_iso(compose_prof(f, ident), f) is not None
        ident2 = hom_profunctor(C)
        ok = ok and prof_iso(compose_prof(ident2, f), f) is not None
        triples += 1
    # representable composition against the functor-composition oracle
    from lawvere.fincat import compose_functors
    reps = 0
    for C, D, E in itertools.product(cats[:4], repeat=3):
        for f in functor_pool(rng, C, D)[:2]:
            for g in functor_pool(rng, D, E)[:2]:
                lhs = compose_prof(representable(g), representable(f))
                rhs = representable(compose_functors(g, f))
                ok = ok and prof_iso(lhs, rhs) is not None
                reps += 1
    announce(7, ok, f"{triples} associativity triples, {reps} representable "
                    f"composites")


def test_criterion_8_roundtrips():
    reports = {
        "identity": roundtrip_check(IDENTITY_MONAD, 3),
        "pointed": roundtrip_check(POINTED_MONAD, 3),
        "free-monoid": roundtrip_check(FREE_MONOID_MONAD, 2, truncation=3,
                                       size_bound=3),
    }
    ok = all(r.passed for r in reports.values())
    ok = ok and all(r.stability and all(r.stability.values())
                    for r in reports.values())
    announce(8, ok, "; ".join(
        f"{name} stable at {list(r.stability)}"
        for name, r in reports.items()))


def test_criterion_9_composite_correspondence(ring):
    rep = composite_correspondence_check(
        RING_LAW, FREE_RING_MONAD, size_bound=6, arity_bound=2, spec=ring)
    prod = check_product_structure(LawvereTheory(TheoryFragment(ring)),
                                   1, 2, p_values=(1, 2), size_bound=3,
                                   sample_count=150)
    ok = rep.passed and prod.passed
    announce(9, ok, f"hom bijections at size 6 and product structure "
                    f"({prod.pass_count}/{prod.sample_count})")


def test_criterion_10_strict_factorisation_systems():
    cat = chain_category(3)
    ids = [cat.identity(o) for o in cat.objects]
    left = ids + [cat.morphism("0->1")]
    right = ids + [cat.morphism("1->2")]
    rep = check_strict_fs(cat, left, right)
    chain_ok = rep.passed and "interchange" in rep.bounds

    iso = iso_pair_category()
    rep_iso = check_strict_fs(iso, list(iso.morphisms), list(iso.morphisms))
    iso_ok = not rep_iso.passed and any(
        f["check"] == "unique-factorization" for f in rep_iso.failures)
    announce(10, chain_ok and iso_ok,
             f"chain interchange axioms pass; isomorphism example fails "
             f"uniqueness as predicted")
