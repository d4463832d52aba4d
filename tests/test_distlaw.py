import itertools
import random
from math import prod

import pytest

from lawvere.builtin import (ABELIAN_GROUP, IDENTITY_THEORY, MONOID, POINTED,
                             SEMIGROUP, build_combo, build_word, combo_of,
                             word_atoms)
from lawvere.distlaw import (BUILTIN_LAWS, DistributiveLawSpec,
                             DistributiveSeries, PS_LAW,
                             POINTED_SUM_LAW, RING_LAW, SEMIGROUP_SUM_LAW,
                             apply_law, check_law_axioms, check_layer_order,
                             check_yang_baxter, composite_theory,
                             layered_normalize, ring3_series,
                             series_composite_left, series_composite_right,
                             split_layer, trivial_law)
from lawvere.parser import parse_term
from lawvere.sampling import Sampler, random_term
from lawvere.terms import App, StructuralError, Var, sort_key, substitute
from .conftest import (eval_ring_term, make_diagram_mutant,
                       make_dropping_mutant, make_ring_mutant, words_over)


class TestApplyLaw:
    def test_product_of_sums(self, ring):
        t = App(MONOID.op("mul"),
                (parse_term("a+b", ABELIAN_GROUP, 4),
                 parse_term("c+d", ABELIAN_GROUP, 4)))
        got = apply_law(RING_LAW, t)
        assert got == parse_term("ac+bc+ad+bd", ring, 4)

    def test_pure_outer_term_is_fixed(self):
        t = parse_term("a+b-c", ABELIAN_GROUP, 3)
        assert apply_law(RING_LAW, t) == t

    def test_right_distribution_with_integer_oracle(self, ring):
        t = App(MONOID.op("mul"),
                (parse_term("a+b", ABELIAN_GROUP, 3), Var(2)))
        got = apply_law(RING_LAW, t)
        assert got == parse_term("ac+bc", ring, 3)
        rng = random.Random(1)
        for _ in range(50):
            env = [rng.randint(-5, 5) for _ in range(3)]
            assert eval_ring_term(got, env) == eval_ring_term(t, env)

    def test_layering_violation_rejected(self):
        # additive node above a product is not inner-over-outer layered
        bad = App(ABELIAN_GROUP.op("add"),
                  (App(MONOID.op("mul"),
                       (parse_term("a+b", ABELIAN_GROUP, 2), Var(0))),
                   Var(1)))
        assert check_layer_order(
            bad, [MONOID.op_set, ABELIAN_GROUP.op_set]) is False
        with pytest.raises(StructuralError):
            apply_law(RING_LAW, bad)

    def test_unit_deletion(self, ps_monoid):
        t = App(SEMIGROUP.op("mul"),
                (parse_term("1", POINTED, 2),
                 App(SEMIGROUP.op("mul"),
                     (Var(0), parse_term("1", POINTED, 2)))))
        assert apply_law(PS_LAW, t) == Var(0)
        all_units = App(SEMIGROUP.op("mul"),
                        (parse_term("1", POINTED, 1),
                         parse_term("1", POINTED, 1)))
        assert apply_law(PS_LAW, all_units) == parse_term("1", POINTED, 1)

    def test_output_is_fixed_by_renormalization(self, ring):
        rng = random.Random(7)
        union = ring
        for _ in range(80):
            t = random_term(union, 3, rng, 3)
            nf = ring.normalize(t)
            assert ring.normalize(nf) == nf
            assert check_layer_order(
                nf, [ABELIAN_GROUP.op_set, MONOID.op_set])


def reference_expansion(law, t):
    """The expansion rewrite as it was when each slot's summands were
    sorted before taking the product."""
    mult, additive = law.inner, law.outer
    mul = mult.op("mul")
    unit = mult.op("one") if mult.has_op("one") else None
    add, zero = additive.op("add"), additive.op("zero")
    neg = additive.op("neg") if additive.has_op("neg") else None
    skel, leaves = split_layer(t, mult.op_set)
    slots = [v.index for v in word_atoms(skel, mul, unit)]
    combos = [sorted(combo_of(leaves[i], add, neg, zero).items(),
                     key=lambda kv: sort_key(kv[0])) for i in slots]
    acc = {}
    for choice in itertools.product(*combos):
        coeff = prod((c for _, c in choice), start=1)
        chain = []
        for a, _ in choice:
            chain.extend(word_atoms(a, mul, unit))
        key = build_word(chain, mul, unit)
        acc[key] = acc.get(key, 0) + coeff
    acc = {k: v for k, v in acc.items() if v != 0}
    return build_combo(acc, add, neg, zero)


@pytest.mark.parametrize("law", [RING_LAW, SEMIGROUP_SUM_LAW],
                         ids=lambda law: law.name)
def test_expansion_matches_the_sorted_reference(law):
    # the order of the product only decides insertion into the
    # accumulator, and build_combo sorts that by a total order
    S, T = law.inner, law.outer
    add, neg, zero = T.op("add"), T.op("neg"), T.op("zero")
    rng = random.Random(13)
    multi = 0
    for _ in range(300):
        k, j, m = (rng.randint(1, 3) for _ in range(3))
        sigma = random_term(S, j, rng, 3)
        below = tuple(random_term(S, k, rng, 2) for _ in range(m))
        xis = tuple(substitute(random_term(T, m, rng, 2), below)
                    for _ in range(j))
        t = substitute(sigma, xis)
        _, leaves = split_layer(t, S.op_set)
        sums = [x for x in leaves if len(combo_of(x, add, neg, zero)) > 1]
        multi += len(sums) > 1
        assert law.rewrite(t) == reference_expansion(law, t)
    assert multi >= 5


class TestAxioms:
    def test_ring_law_passes(self):
        rep = check_law_axioms(RING_LAW, Sampler(samples=150, seed=5))
        assert rep.passed
        assert all(d.sample_count == 150 for d in rep.diagrams)

    def test_semantic_soundness_of_samples(self):
        # the rewrite preserves integer semantics on layered samples
        rng = random.Random(3)
        for _ in range(60):
            k = rng.randint(1, 3)
            t = random_term(MONOID, k, rng, 2)
            xs = [random_term(ABELIAN_GROUP, k, rng, 2) for _ in range(k)]
            layered = substitute(t, tuple(xs))
            out = apply_law(RING_LAW, layered)
            for _ in range(50):
                env = [rng.randint(-4, 4) for _ in range(k)]
                assert eval_ring_term(out, env) == \
                    eval_ring_term(layered, env)

    def test_semantic_soundness_of_square_legs(self):
        # both legs of the outer multiplication square evaluate equally
        # under the integer interpretation at random assignments
        from lawvere.distlaw import layered_normalize, split_layer
        rng = random.Random(8)
        for _ in range(40):
            k = rng.randint(1, 3)
            j, m = rng.randint(1, 3), rng.randint(1, 3)
            sigma = random_term(MONOID, j, rng, 2)
            xis = [random_term(ABELIAN_GROUP, m, rng, 2) for _ in range(j)]
            zetas = [random_term(ABELIAN_GROUP, k, rng, 2)
                     for _ in range(m)]
            merged = [ABELIAN_GROUP.normalize(substitute(x, tuple(zetas)))
                      for x in xis]
            bottom = apply_law(RING_LAW, substitute(sigma, tuple(merged)))
            v = RING_LAW.rewrite(substitute(sigma, tuple(xis)))
            skel, atoms = split_layer(v, ABELIAN_GROUP.op_set)
            hatted = [RING_LAW.rewrite(substitute(w, tuple(zetas)))
                      for w in atoms]
            top = layered_normalize(substitute(skel, tuple(hatted)),
                                    [ABELIAN_GROUP, MONOID])
            for _ in range(50):
                env = [rng.randint(-3, 3) for _ in range(k)]
                want = eval_ring_term(bottom, env)
                assert eval_ring_term(top, env) == want

    def test_mutant_fails_mult_outer_with_witness(self, ring_mutant):
        rep = check_law_axioms(ring_mutant, Sampler(samples=200, seed=0))
        assert not rep.passed
        assert rep.diagram("unit-inner").passed
        assert rep.diagram("unit-outer").passed
        assert not rep.diagram("mult-outer").passed
        witness = rep.diagram("mult-outer").failures[0]
        assert witness["leftValue"] != witness["rightValue"]

    @pytest.mark.parametrize("diagram", ["unit-inner", "unit-outer",
                                         "mult-inner", "naturality"])
    def test_each_diagram_catches_its_mutant(self, diagram):
        # default bounds; a mutant can also fail diagrams that feed the
        # law the same kind of input, but never slips past its own
        rep = check_law_axioms(make_diagram_mutant(diagram))
        failed = {d.diagram for d in rep.diagrams if d.failures}
        assert diagram in failed
        witness = rep.diagram(diagram).failures[0]
        assert witness["leftValue"] != witness["rightValue"]
        if diagram == "mult-inner":
            assert failed == {"mult-inner"}

    @pytest.mark.parametrize("name, not_layered", [
        ("pointed-semigroup", 260), ("ring", 309)])
    def test_a_rewrite_that_swaps_nothing_fails(self, name, not_layered):
        # the identity leaves an S-over-T input as it is, so both legs of
        # the naturality square agree; only the layering check sees that
        # nothing was swapped (the ring's mult-outer square fails too)
        law = BUILTIN_LAWS[name]
        identity = DistributiveLawSpec("identity", law.inner, law.outer,
                                       lambda t: t)
        rep = check_law_axioms(identity)
        assert not rep.passed
        nat = rep.diagram("naturality")
        assert nat.sample_count == 500
        assert len(nat.failures) == not_layered
        assert {f["rightValue"] for f in nat.failures} == {"not layered"}
        assert all(f["leftValue"] == f["input"] for f in nat.failures)

    def test_identity_inner_law_vacuous(self):
        law = trivial_law(IDENTITY_THEORY, ABELIAN_GROUP)
        rep = check_law_axioms(law, Sampler(samples=80))
        assert rep.passed

    def test_zero_samples_vacuous_pass(self):
        rep = check_law_axioms(RING_LAW, Sampler(samples=0))
        assert rep.passed
        assert all(d.sample_count == 0 for d in rep.diagrams)


class TestCompositeTheory:
    def test_ring_normal_forms_are_integer_combinations(self, ring):
        t = parse_term("(a+b)(a-b)", ring, 2)
        assert t == parse_term("aa+ba-ab-bb", ring, 2)
        assert ring.normalize(t) == t

    def test_composite_rejects_broken_law(self, ring_mutant):
        with pytest.raises(StructuralError):
            composite_theory(ring_mutant)

    def test_identity_outer_gives_back_inner(self):
        law = trivial_law(MONOID, IDENTITY_THEORY)
        spec = composite_theory(law, check=False)
        t = parse_term("a(ba)", spec, 2)
        assert t == parse_term("aba", MONOID, 3)
        assert spec.enumerate_normal(2, 3) == MONOID.enumerate_normal(2, 3)

    def test_monoid_from_pointed_semigroup(self, ps_monoid):
        # normal forms are all words including the empty one
        for ell in range(5):
            bound = max(1, 2 * ell - 1)
            nfs = ps_monoid.enumerate_normal(2, bound)
            oracle = words_over(2, ell)
            short = [w for w in oracle if len(w) <= ell]
            if ell >= 1:
                assert len(nfs) == len(short)

    def test_composite_normalizer_idempotent_and_congruent(self, ring,
                                                           ps_monoid):
        rng = random.Random(13)
        for spec in (ring, ps_monoid):
            for _ in range(60):
                t = random_term(spec, 2, rng, 3)
                sigma = tuple(random_term(spec, 2, rng, 2)
                              for _ in range(2))
                n = spec.normalize(t)
                assert spec.normalize(n) == n
                via_raw = spec.normalize(substitute(t, sigma))
                via_nf = spec.normalize(substitute(
                    n, tuple(spec.normalize(s) for s in sigma)))
                assert via_raw == via_nf

    def test_word_count_ladder(self, ps_monoid):
        # 2^0 + ... + 2^l words of length <= l, by the independent oracle
        def word_length(t):
            if t == parse_term("1", ps_monoid, 2):
                return 0
            from lawvere.builtin import word_atoms
            return len(word_atoms(t, SEMIGROUP.op("mul")))

        for ell in range(7):
            pool = ps_monoid.enumerate_normal(2, max(1, 2 * ell - 1))
            got = [t for t in pool if word_length(t) <= ell]
            assert len(got) == len(words_over(2, ell)) == 2 ** (ell + 1) - 1


class TestYangBaxter:
    def test_ring3_passes(self):
        rep = check_yang_baxter(ring3_series(), Sampler(samples=80, seed=11))
        assert rep.passed

    def test_identity_member_series_passes(self):
        laws = {
            (1, 0): trivial_law(IDENTITY_THEORY, ABELIAN_GROUP),
            (2, 0): SEMIGROUP_SUM_LAW,
            (2, 1): trivial_law(SEMIGROUP, IDENTITY_THEORY),
        }
        series = DistributiveSeries(
            theories=(ABELIAN_GROUP, IDENTITY_THEORY, SEMIGROUP),
            laws=laws, name="identity-middle")
        rep = check_yang_baxter(series, Sampler(samples=50, seed=2))
        assert rep.passed

    def test_mutated_series_fails_with_witness(self):
        broken_sg = make_dropping_mutant(SEMIGROUP, ABELIAN_GROUP,
                                         name="broken-sg")
        laws = {(1, 0): POINTED_SUM_LAW, (2, 0): broken_sg, (2, 1): PS_LAW}
        series = DistributiveSeries(
            theories=(ABELIAN_GROUP, POINTED, SEMIGROUP),
            laws=laws, name="ring3-broken")
        rep = check_yang_baxter(series, Sampler(samples=60, seed=3))
        assert not rep.passed
        assert rep.failures

    def test_missing_law_rejected(self):
        with pytest.raises(StructuralError):
            DistributiveSeries(theories=(ABELIAN_GROUP, POINTED, SEMIGROUP),
                               laws={(1, 0): POINTED_SUM_LAW}, name="partial")

    def test_two_theory_series_degenerates_to_law_check(self):
        series = DistributiveSeries(theories=(ABELIAN_GROUP, MONOID),
                                    laws={(1, 0): RING_LAW}, name="ring2")
        rep = check_yang_baxter(series, Sampler(samples=40, seed=4))
        assert rep.passed

    def test_bracketings_agree_on_layered_samples(self):
        series = ring3_series()
        left = series_composite_left(series)
        right = series_composite_right(series)
        rng = random.Random(9)
        for _ in range(60):
            t = random_term(left, 3, rng, 3)
            assert left.normalize(t) == right.normalize(t)


def test_builtin_law_registry():
    assert set(BUILTIN_LAWS) == {"ring", "pointed-semigroup",
                                 "semigroup-sum", "pointed-sum"}
    for law in BUILTIN_LAWS.values():
        rep = check_law_axioms(law, Sampler(samples=60, seed=1))
        assert rep.passed
