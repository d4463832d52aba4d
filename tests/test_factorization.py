import functools
import itertools
import json
import random

import pytest

from collections import deque

from lawvere import factorization
from lawvere.builtin import (ABELIAN_GROUP, ADD, BASE_THEORIES, MONOID, MUL,
                             NEG, ONE, POINTED, SEMIGROUP, build_word)
from lawvere.distlaw import split_layer
from lawvere.factorization import (FactorizationPair, canonicalize,
                                   check_fs_over_base, check_strict_fs,
                                   factorize, zigzag_equivalent)
from lawvere.fincat import chain_category, iso_pair_category, monoid_category
from lawvere.parser import parse_term
from lawvere.report import Report
from lawvere.terms import App, StructuralError, Var, max_var, substitute
from lawvere.theory import (BaseFunction, TheoryMorphism, _trusted,
                            _var_occurrences, basic_morphism, compose,
                            morphism)


def ring_pair(ring, left_texts, right_texts, source):
    middle = len(left_texts)
    left = morphism(ring, source, [parse_term(s, ring, source)
                                   for s in left_texts])
    right = morphism(ring, middle, [parse_term(s, ring, middle)
                                    for s in right_texts])
    return FactorizationPair(ring, MONOID, ABELIAN_GROUP, left, right)


def unpruned_forward_steps(f, cap):
    """The forward loop of ``_neighbours`` without its image pruning:
    every base function [j2] -> [middle] is tried."""
    theory, j = f.theory, f.middle
    for j2 in range(cap + 1):
        for table in itertools.product(range(j), repeat=j2):
            u = BaseFunction(j2, j, table)
            g_left = _trusted(theory, f.source, tuple(
                f.left.components[v] for v in table))
            for g_right in factorization._lift_tuple(f.right.components, u,
                                                     theory):
                try:
                    g = FactorizationPair(theory, f.inner, f.outer, g_left,
                                          _trusted(theory, j2, g_right))
                except StructuralError:
                    continue
                yield g.key(), u, True


def reference_lift_tuple(comps, u, theory, limit=400):
    """``_lift_tuple`` with its renaming check: every lift is renamed back
    along u and renormalized."""
    rename = tuple(Var(u(i)) for i in range(u.dom))
    per = []
    for c in comps:
        lifts = [t for t in factorization._lifts_of(c, u, limit)
                 if theory.is_normal(t)
                 and theory.normalize(substitute(t, rename)) == c]
        if not lifts:
            return
        per.append(lifts)
    count = 1
    for p in per:
        count *= len(p)
        if count > limit:
            return
    yield from itertools.product(*per)


def reference_neighbours(f, cap, pool):
    """``reference_neighbour_pairs`` as (key, base, forward)."""
    for g, step in reference_neighbour_pairs(f, cap, pool):
        yield g.key(), step.base, step.forward


def reference_neighbour_pairs(f, cap, pool):
    """``_neighbours`` with the right parts renamed by hand and every check
    run: the renaming check on lifts, the purity check on forward
    neighbours, the public checks on pool-filled left parts and both
    triangles on backward ones; yields (pair, step)."""
    theory, inner, outer = f.theory, f.inner, f.outer
    j = f.middle
    used = {v for c in f.right.components for v in _var_occurrences(c)}
    for j2 in range(cap + 1):
        for table in itertools.product(range(j), repeat=j2):
            if not used.issubset(table):
                continue
            u = BaseFunction(j2, j, table)
            g_left = _trusted(theory, f.source, tuple(
                f.left.components[v] for v in table))
            for g_right in reference_lift_tuple(f.right.components, u,
                                                theory):
                try:
                    g = FactorizationPair(theory, inner, outer, g_left,
                                          _trusted(theory, j2, g_right))
                except StructuralError:
                    continue
                yield g, factorization.ZigzagStep(u, forward=True)
        for table in itertools.product(range(j2), repeat=j):
            u = BaseFunction(j, j2, table)
            slots = [None] * j2
            ok = True
            for v, want in zip(table, f.left.components):
                if slots[v] is None:
                    slots[v] = want
                elif slots[v] != want:
                    ok = False
                    break
            if not ok:
                continue
            free = [i for i in range(j2) if slots[i] is None]
            if len(free) > 3:
                continue
            g_right = _trusted(theory, j2, tuple(
                theory.normalize(substitute(c, tuple(map(Var, table))))
                for c in f.right.components))
            for fill in itertools.product(pool, repeat=len(free)):
                comps = list(slots)
                for idx, t in zip(free, fill):
                    comps[idx] = t
                try:
                    g = FactorizationPair(
                        theory, inner, outer,
                        TheoryMorphism(theory, f.source, j2, tuple(comps)),
                        g_right)
                except StructuralError:
                    continue
                if factorization._step_holds(
                        g, f, factorization.ZigzagStep(u, forward=True)):
                    yield g, factorization.ZigzagStep(u, forward=False)


def alternatives(pair):
    """``_bounded_alternatives`` with the spare pool at pair's source."""
    return factorization._bounded_alternatives(pair, factorization._spare_pool(
        pair.theory, pair.inner, pair.source))


def reference_spare_atom(pair):
    """The first inner-theory atom of size <= 3 over pair's source that is
    not in its left part, enumerated for this pair alone."""
    pool = pair.inner.atom_enumerator(
        tuple(Var(i) for i in range(pair.source)), 3)
    for t in pool:
        if t not in pair.left.components:
            return t
    return None


def reference_alternatives(pair):
    """``_bounded_alternatives`` with the pad, duplicate and reverse
    variants each renamed by hand; yields keys."""
    theory, j = pair.theory, pair.middle
    comps = pair.left.components

    def renamed(sigma):
        return tuple(theory.normalize(substitute(c, sigma))
                     for c in pair.right.components)

    spare = reference_spare_atom(pair)
    if spare is not None:
        left = TheoryMorphism(theory, pair.source, j + 1, comps + (spare,))
        yield left.components, renamed(tuple(Var(i) for i in range(j + 1)))
    if j >= 1:
        left = TheoryMorphism(theory, pair.source, j + 1,
                              comps + (comps[0],))
        yield left.components, renamed(
            tuple(Var(i) for i in range(j)) + (Var(0),))
    if j >= 2:
        left = TheoryMorphism(theory, pair.source, j, comps[::-1])
        yield left.components, renamed(
            tuple(Var(j - 1 - i) for i in range(j)))


def reference_search_witness(p, q, bound, atom_pool):
    """``_search_witness`` as it was before its pool was filtered: every
    pool term is offered and a fill that fails the public checks is
    skipped (``reference_neighbour_pairs``)."""
    if p.key() == q.key():
        return factorization.ZigzagWitness([p], [])
    if bound <= 0:
        return None
    cap = max(p.middle, q.middle) + bound
    pool = set(atom_pool or [])
    pool.update(p.left.components)
    pool.update(q.left.components)
    pool = sorted(pool, key=lambda t: (factorization.term_size(t), repr(t)))
    target = q.key()
    seen = {p.key()}
    queue = deque([(p, [p], [])])
    while queue:
        cur, pairs, steps = queue.popleft()
        if len(steps) >= bound:
            continue
        for nxt, step in reference_neighbour_pairs(cur, cap, pool):
            k = nxt.key()
            if k in seen:
                continue
            seen.add(k)
            np, ns = pairs + [nxt], steps + [step]
            if k == target:
                return factorization.ZigzagWitness(np, ns)
            queue.append((nxt, np, ns))
    return None


def reference_factorize(theory, inner, outer, f):
    """``factorize`` as split_layer, then substitute, then the public
    constructors."""
    atom_index = {}
    right = []
    for c in f.components:
        skel, atoms = split_layer(c, outer.op_set)
        remap = []
        for a in atoms:
            atom_index.setdefault(a, len(atom_index))
            remap.append(Var(atom_index[a]))
        right.append(substitute(skel, tuple(remap)))
    return FactorizationPair(
        theory, inner, outer,
        morphism(theory, f.source, list(atom_index)),
        morphism(theory, len(atom_index), right))


def reference_sweep(theory, inner, outer, arity_bound, size_bound,
                    witness_bound=2, witness_sample=24):
    """``check_fs_over_base`` with every part built through the public
    constructors, the alternatives from ``reference_alternatives`` and
    each alternative decided by ``zigzag_equivalent``."""
    rep = Report(subject=f"fs-over-base:{theory.name}",
                 bounds={"arityBound": arity_bound, "sizeBound": size_bound,
                         "witnessBound": witness_bound})
    nfs = {k: theory.enumerate_normal(k, size_bound)
           for k in range(arity_bound + 1)}
    alt_total = picked = 0
    for k in range(arity_bound + 1):
        for m in range(arity_bound + 1):
            for comps in itertools.product(nfs[k], repeat=m):
                f = TheoryMorphism(theory, k, m, tuple(comps))
                rep.sample_count += 1
                pair = reference_factorize(theory, inner, outer, f)
                if pair.recompose() != f:
                    rep.add_failure(check="existence", morphism=repr(f))
                    continue
                ok = True
                alts = [FactorizationPair(
                    theory, inner, outer,
                    TheoryMorphism(theory, k, len(left), left),
                    TheoryMorphism(theory, len(left), m, right))
                    for left, right in reference_alternatives(pair)]
                alt_total += len(alts)
                for alt in alts:
                    if alt.recompose() != f:
                        rep.add_failure(check="alt-recompose", alt=repr(alt))
                        ok = False
                        continue
                    if not zigzag_equivalent(pair, alt, bound=-1)[0]:
                        rep.add_failure(check="zigzag-uniqueness",
                                        morphism=repr(f), alt=repr(alt))
                        ok = False
                if ok and alts and picked < witness_sample:
                    picked += 1
                    wit = reference_search_witness(pair, alts[0],
                                                   witness_bound, None)
                    if wit is None or not wit.validate():
                        rep.add_failure(check="witness", morphism=repr(f),
                                        alt=repr(alts[0]))
                        ok = False
                if ok:
                    rep.pass_count += 1
    rep.bounds["alternativesChecked"] = alt_total
    return rep


def assert_public_checks_pass(pair):
    """The pair and both its parts rebuilt through the public, checking
    constructors equal it."""
    left, right = (TheoryMorphism(pair.theory, part.source, part.target,
                                  part.components)
                   for part in (pair.left, pair.right))
    assert FactorizationPair(pair.theory, pair.inner, pair.outer, left,
                             right) == pair


def assert_neighbours_match_reference(x):
    """Compare ``_neighbours`` with the reference at cap middle + 1, with
    x's left components as the pool; returns the number of steps."""
    cap, pool = x.middle + 1, x.left.components
    got = [(g.key(), step.base, step.forward)
           for g, step in factorization._neighbours(x, cap, pool)]
    assert got == list(reference_neighbours(x, cap, pool))
    return len(got)


def search_neighbours(p, q, bound, atom_pool):
    """``_neighbours`` of p, with the cap and the filtered pool that
    ``_search_witness(p, q, bound, atom_pool)`` gives it."""
    pool = {*(atom_pool or ()), *p.left.components, *q.left.components}
    pool = sorted((t for t in pool if factorization._left_atom_ok(
        t, p.theory, p.inner, p.source)),
        key=lambda t: (factorization.term_size(t), repr(t)))
    cap = max(p.middle, q.middle) + bound
    return list(factorization._neighbours(p, cap, pool))


def record_searches(monkeypatch):
    """Wrap ``_search_witness``; the list returned collects each search's
    arguments and witness."""
    real = factorization._search_witness
    searches = []

    def record(*args):
        wit = real(*args)
        searches.append((args, wit))
        return wit

    monkeypatch.setattr(factorization, "_search_witness", record)
    return searches


def expanding_neighbours(f, cap, pool):
    """``_neighbours`` as it was before ``_step_to``, verbatim but for
    module prefixes and comments."""
    theory, inner, outer = f.theory, f.inner, f.outer
    j = f.middle
    used = {v for c in f.right.components for v in _var_occurrences(c)}
    for j2 in range(0, cap + 1):
        for table in itertools.product(range(j), repeat=j2):
            if not used.issubset(table):
                continue
            u = BaseFunction(j2, j, table)
            g_left = _trusted(theory, f.source,
                              tuple(f.left.components[u(i)]
                                    for i in range(j2)))
            for g_right in factorization._lift_tuple(f.right.components, u,
                                                     theory):
                g = factorization._trusted_pair(
                    theory, inner, outer, g_left,
                    _trusted(theory, j2, g_right))
                yield g, factorization.ZigzagStep(u, forward=True)
        for table in itertools.product(range(j2), repeat=j):
            u = BaseFunction(j, j2, table)
            slots = [None] * j2
            ok = True
            for i in range(j):
                want = f.left.components[i]
                if slots[u(i)] is None:
                    slots[u(i)] = want
                elif slots[u(i)] != want:
                    ok = False
                    break
            if not ok:
                continue
            free = [i for i in range(j2) if slots[i] is None]
            if len(free) > 3:
                continue
            g_right = compose(f.right, basic_morphism(theory, u))
            for fill in itertools.product(pool, repeat=len(free)):
                comps = list(slots)
                for idx, t in zip(free, fill):
                    comps[idx] = t
                g = factorization._trusted_pair(
                    theory, inner, outer,
                    _trusted(theory, f.source, tuple(comps)), g_right)
                yield g, factorization.ZigzagStep(u, forward=False)


def expanding_search_witness(p, q, bound, atom_pool):
    """``_search_witness`` as it was before ``_step_to``, verbatim but for
    module prefixes and comments: every dequeued pair is expanded in
    full and each neighbour compared with the target."""
    if p.key() == q.key():
        return factorization.ZigzagWitness([p], [])
    if bound <= 0:
        return None
    cap = max(p.middle, q.middle) + bound
    pool = set(atom_pool or [])
    pool.update(p.left.components)
    pool.update(q.left.components)
    pool = sorted((t for t in pool
                   if factorization._left_atom_ok(t, p.theory, p.inner,
                                                  p.source)),
                  key=lambda t: (factorization.term_size(t), repr(t)))
    start = p.key()
    target = q.key()
    seen = {start}
    queue = deque([(p, [p], [])])
    while queue:
        cur, pairs, steps = queue.popleft()
        if len(steps) >= bound:
            continue
        for nxt, step in expanding_neighbours(cur, cap, pool):
            k = nxt.key()
            if k in seen:
                continue
            seen.add(k)
            np, ns = pairs + [nxt], steps + [step]
            if k == target:
                return factorization.ZigzagWitness(np, ns)
            queue.append((nxt, np, ns))
    return None


def random_ring_morphism(ring, rng):
    """An arity-3 ring morphism of one or two components, each a signed
    sum of one to three random words of length at most 3."""
    comps = []
    for _ in range(rng.randint(1, 2)):
        summands = []
        for _ in range(rng.randint(1, 3)):
            w = build_word([Var(rng.randrange(3))
                            for _ in range(rng.randrange(4))], MUL, ONE)
            summands.append(App(NEG, (w,)) if rng.random() < 0.3 else w)
        comps.append(functools.reduce(lambda a, b: App(ADD, (a, b)),
                                      summands))
    return morphism(ring, 3, comps)


class TestFactorize:
    def test_ab_plus_c(self, ring):
        f = morphism(ring, 3, [parse_term("ab+c", ring, 3)])
        pair = factorize(ring, MONOID, ABELIAN_GROUP, f)
        assert pair.middle == 2
        assert set(pair.left.components) == {parse_term("ab", ring, 3),
                                             parse_term("c", ring, 3)}
        assert pair.right.components == (parse_term("a+b", ring, 2),)
        assert pair.recompose() == f

    def test_duplicate_square_collapses(self, ring):
        f = morphism(ring, 1, [parse_term("a^2+a^2", ring, 1)])
        pair = factorize(ring, MONOID, ABELIAN_GROUP, f)
        assert pair.middle == 1
        assert pair.left.components == (parse_term("a^2", ring, 1),)
        assert pair.right.components == (parse_term("a+a", ring, 1),)

    def test_pure_inner_morphism(self, ring):
        f = morphism(ring, 2, [parse_term("ab", ring, 2),
                               parse_term("ba", ring, 2)])
        pair = factorize(ring, MONOID, ABELIAN_GROUP, f)
        assert pair.left == f
        assert pair.right.components == (Var(0), Var(1))

    def test_non_normal_input_rejected(self, ring):
        from lawvere.terms import App
        raw = App(MONOID.op("mul"),
                  (parse_term("a+b", ring, 2), Var(0)))
        bad = TheoryMorphism.__new__(TheoryMorphism)
        object.__setattr__(bad, "theory", ring)
        object.__setattr__(bad, "source", 2)
        object.__setattr__(bad, "target", 1)
        object.__setattr__(bad, "components", (raw,))
        with pytest.raises(StructuralError):
            factorize(ring, MONOID, ABELIAN_GROUP, bad)

    def test_factorize_output_is_already_canonical(self, ring):
        pool = ring.enumerate_normal(2, 5)
        for comps in itertools.product(pool[:12], repeat=1):
            f = TheoryMorphism(ring, 2, 1, comps)
            pair = factorize(ring, MONOID, ABELIAN_GROUP, f)
            assert canonicalize(pair).key() == pair.key()


def sample_pairs(ring):
    """Canonical pairs of a spread of ring morphisms, with the three
    raw alternatives of each."""
    out = []
    for comps in itertools.product(ring.enumerate_normal(2, 4)[:8],
                                   repeat=2):
        pair = factorize(ring, MONOID, ABELIAN_GROUP,
                         TheoryMorphism(ring, 2, 2, comps))
        out.append(pair)
        out.extend(alternatives(pair))
    return out


def negated_first_right_part(real):
    """``_trusted_pair`` with the right part's first component negated:
    every pair built through it, ``factorize``'s included, recomposes to
    another morphism unless that component is 0."""
    def mutant(theory, inner, outer, left, right):
        comps = right.components
        if comps:
            comps = (theory.normalize(App(NEG, (comps[0],))),) + comps[1:]
            right = TheoryMorphism(theory, right.source, right.target, comps)
        return real(theory, inner, outer, left, right)
    return mutant


class TestStoredResults:
    """A pair keeps its recomposition and its canonical form once asked
    for; neither may change an answer."""

    def test_recompose_is_composed_once(self, ring):
        for pair in sample_pairs(ring):
            got = pair.recompose()
            assert got == compose(pair.right, pair.left)
            assert pair.recompose() is got
            # the stored composite is not a field: equality and hashing
            # ignore it
            twin = FactorizationPair(ring, MONOID, ABELIAN_GROUP, pair.left,
                                     pair.right)
            assert twin == pair and hash(twin) == hash(pair)

    def test_canonicalize_is_idempotent(self, ring):
        for pair in sample_pairs(ring):
            canon = canonicalize(pair)
            assert canonicalize(pair) is canon
            assert canonicalize(canon).key() == canon.key()
            assert canon.recompose() == pair.recompose()
            assert canon.key() == factorize(
                ring, MONOID, ABELIAN_GROUP, pair.recompose()).key()

    def test_a_pair_that_does_not_recompose_fails_existence(
            self, ring, monkeypatch):
        monkeypatch.setattr(
            factorization, "_trusted_pair",
            negated_first_right_part(factorization._trusted_pair))
        rep = check_fs_over_base(ring, MONOID, ABELIAN_GROUP, 1, 4,
                                 witness_sample=6)
        assert not rep.passed
        assert {f["check"] for f in rep.failures} == {"existence"}
        # one failure per morphism whose first component is not 0; the
        # others still pass
        assert rep.pass_count + len(rep.failures) == rep.sample_count
        assert rep.pass_count > 0


class TestZigzag:
    def test_spurious_entry_is_one_projection_away(self, ring):
        p = ring_pair(ring, ["ab", "c"], ["a+b"], 3)
        q = ring_pair(ring, ["ab", "c", "abc"], ["a+b"], 3)
        eq, wit = zigzag_equivalent(p, q, bound=1)
        assert eq
        assert wit is not None and len(wit) == 1
        assert wit.validate()

    def test_square_pair_needs_length_two(self, ring):
        p = ring_pair(ring, ["a^2", "a^2", "a"], ["a+b"], 1)
        q = ring_pair(ring, ["a^2"], ["a+a"], 1)
        eq, wit1 = zigzag_equivalent(p, q, bound=1)
        assert eq and wit1 is None
        eq, wit1r = zigzag_equivalent(q, p, bound=1)
        assert eq and wit1r is None
        eq, wit2 = zigzag_equivalent(p, q, bound=2)
        assert eq and wit2 is not None and len(wit2) == 2
        assert wit2.middles() == [3, 2, 1]
        assert wit2.validate()

    def test_reflexive_with_empty_witness(self, ring):
        p = ring_pair(ring, ["ab", "c"], ["a+b"], 3)
        eq, wit = zigzag_equivalent(p, p, bound=2)
        assert eq and wit is not None and len(wit) == 0

    def test_mismatched_endpoints_rejected(self, ring):
        p = ring_pair(ring, ["ab", "c"], ["a+b"], 3)
        q = ring_pair(ring, ["ab"], ["a"], 2)
        with pytest.raises(StructuralError):
            zigzag_equivalent(p, q)

    def test_pairs_over_different_layers_rejected(self, ring, ps_monoid):
        # the same source and target, but another theory, inner or outer
        p = ring_pair(ring, ["ab"], ["a"], 2)
        comps = p.left, p.right
        others = [
            FactorizationPair(ring, ring, ABELIAN_GROUP, *comps),
            FactorizationPair(ring, MONOID, ring, *comps),
            factorize(ps_monoid, SEMIGROUP, POINTED, morphism(
                ps_monoid, 2, [parse_term("ab", ps_monoid, 2)])),
        ]
        for q in others:
            assert (q.source, q.target) == (p.source, p.target)
            for x, y in [(p, q), (q, p)]:
                with pytest.raises(StructuralError,
                                   match="different theories or layers"):
                    zigzag_equivalent(x, y, bound=1)

    def test_inequivalent_when_recompositions_differ(self, ring):
        p = ring_pair(ring, ["ab", "c"], ["a+b"], 3)
        q = ring_pair(ring, ["ab", "c"], ["a-b"], 3)
        eq, _ = zigzag_equivalent(p, q)
        assert not eq

    def test_equivalence_relation_on_samples(self, ring):
        base = morphism(ring, 2, [parse_term("ab+a", ring, 2)])
        canon = factorize(ring, MONOID, ABELIAN_GROUP, base)
        variants = [
            canon,
            ring_pair(ring, ["ab", "a"], ["a+b"], 2),
            ring_pair(ring, ["a", "ab"], ["b+a"], 2),
            ring_pair(ring, ["ab", "a", "bb"], ["a+b"], 2),
            ring_pair(ring, ["ab", "ab", "a"], ["a+c"], 2),
        ]
        for x in variants:
            assert zigzag_equivalent(x, x, bound=-1)[0]
        for x, y in itertools.product(variants, repeat=2):
            assert zigzag_equivalent(x, y, bound=-1)[0]
        # transitivity through explicit witnesses concatenates
        _, w1 = zigzag_equivalent(variants[1], variants[3], bound=2)
        _, w2 = zigzag_equivalent(variants[3], variants[4], bound=2)
        assert w1 is not None and w2 is not None
        assert w1.validate() and w2.validate()

    def test_soundness_equivalent_implies_same_recomposition(self, ring):
        pool = ring.enumerate_normal(2, 4)
        pairs = []
        for t in pool[:10]:
            f = TheoryMorphism(ring, 2, 1, (t,))
            pairs.append(factorize(ring, MONOID, ABELIAN_GROUP, f))
        for p, q in itertools.combinations(pairs, 2):
            eq, _ = zigzag_equivalent(p, q, bound=-1)
            assert eq == (p.recompose() == q.recompose())


class TestSweep:
    def test_ring_small_sweep(self, ring):
        rep = check_fs_over_base(ring, MONOID, ABELIAN_GROUP, 1, 4,
                                 witness_sample=6)
        assert rep.passed
        assert rep.bounds["alternativesChecked"] > 0

    def test_ps_monoid_sweep_up_to_length_four(self, ps_monoid):
        # node-count bound 7 is exactly word length 4
        rep = check_fs_over_base(ps_monoid, SEMIGROUP, POINTED, 2, 7,
                                 witness_sample=6)
        assert rep.passed

    def test_unchecked_parts_pass_the_public_checks(self, ring, monkeypatch):
        # factorize, _neighbours, _bounded_alternatives and the witness
        # search build their parts without re-running the morphism
        # checks; every part they build on the ring (2, 3) sweep must pass
        # them.  The sweep's searches each end in one step, so _neighbours
        # is driven on their start pairs, with their caps and pools
        real_factorize = factorization.factorize
        real_alternatives = factorization._bounded_alternatives
        seen = {"factorize": [], "neighbours": [], "alternatives": [],
                "witnesses": []}

        def record_factorize(*args):
            pair = real_factorize(*args)
            seen["factorize"].append(pair)
            return pair

        def record_alternatives(*args):
            for alt in real_alternatives(*args):
                seen["alternatives"].append(alt)
                yield alt

        monkeypatch.setattr(factorization, "factorize", record_factorize)
        monkeypatch.setattr(factorization, "_bounded_alternatives",
                            record_alternatives)
        searches = record_searches(monkeypatch)
        rep = check_fs_over_base(ring, MONOID, ABELIAN_GROUP, 2, 3)
        assert rep.passed
        for args, wit in searches:
            seen["neighbours"] += [g for g, _ in search_neighbours(*args)]
            seen["witnesses"] += wit.pairs
        assert all(seen.values())
        for pairs in seen.values():
            for pair in pairs:
                for part in (pair.left, pair.right):
                    assert part == TheoryMorphism(ring, part.source,
                                                  part.target,
                                                  part.components)

    @pytest.mark.parametrize("text, source", [("ab+c", 3), ("a-b+c", 3)])
    def test_every_neighbour_passes_the_public_checks(self, ring, text,
                                                      source):
        # the sweep reaches few neighbours; these factorizations also have
        # lifts that are not normal, which _lift_tuple must filter out
        f = morphism(ring, source, [parse_term(text, ring, source)])
        pair = factorize(ring, MONOID, ABELIAN_GROUP, f)
        neighbours = list(factorization._neighbours(
            pair, pair.middle + 1, pair.left.components))
        assert len(neighbours) > 20
        for g, step in neighbours:
            for part in (g.left, g.right):
                assert part == TheoryMorphism(ring, part.source, part.target,
                                              part.components)
            assert factorization._step_holds(pair, g, step)

    @pytest.mark.parametrize("theory_name, inner, outer, arity, size", [
        ("ring", MONOID, ABELIAN_GROUP, 2, 2),
        ("ps_monoid", SEMIGROUP, POINTED, 2, 3)], ids=["ring", "ps-monoid"])
    def test_forward_pruning_is_exact(self, request, theory_name, inner,
                                      outer, arity, size):
        # skipping base functions whose image misses a used middle must
        # leave the forward neighbours and their order unchanged; the
        # sweep's pad alternatives have an unused middle and its zero
        # components use no middle at all
        theory = request.getfixturevalue(theory_name)
        nfs = {k: theory.enumerate_normal(k, size) for k in range(arity + 1)}
        pairs = skipped = 0
        for k, m in itertools.product(range(arity + 1), repeat=2):
            for comps in itertools.product(nfs[k], repeat=m):
                pair = factorize(theory, inner, outer,
                                 TheoryMorphism(theory, k, m, comps))
                for x in [pair, *alternatives(pair)]:
                    cap = x.middle + 1
                    got = [(g.key(), step.base, step.forward)
                           for g, step in factorization._neighbours(x, cap,
                                                                    ())
                           if step.forward]
                    assert got == list(unpruned_forward_steps(x, cap))
                    pairs += 1
                    used = {v for c in x.right.components
                            for v in _var_occurrences(c)}
                    skipped += sum(
                        not used <= set(table)
                        for j2 in range(cap + 1)
                        for table in itertools.product(range(x.middle),
                                                       repeat=j2))
        assert pairs > 100 and skipped > 0

    @pytest.mark.parametrize("theory_name, inner, outer, arity, size", [
        ("ring", MONOID, ABELIAN_GROUP, 2, 2),
        ("ps_monoid", SEMIGROUP, POINTED, 2, 3)], ids=["ring", "ps-monoid"])
    def test_search_matches_the_reference_on_sweeps(self, request,
                                                    theory_name, inner,
                                                    outer, arity, size):
        # neighbours and alternatives built through compose and basic
        # morphisms, without the checks that hold by construction, must
        # equal the hand-renamed, fully checked reference in content and
        # order
        theory = request.getfixturevalue(theory_name)
        nfs = {k: theory.enumerate_normal(k, size) for k in range(arity + 1)}
        pairs = steps = 0
        for k, m in itertools.product(range(arity + 1), repeat=2):
            for comps in itertools.product(nfs[k], repeat=m):
                pair = factorize(theory, inner, outer,
                                 TheoryMorphism(theory, k, m, comps))
                alts = list(alternatives(pair))
                assert [alt.key() for alt in alts] == list(
                    reference_alternatives(pair))
                for x in [pair, *alts]:
                    steps += assert_neighbours_match_reference(x)
                    pairs += 1
        assert pairs > 100 and steps > 1000

    @pytest.mark.parametrize("text", ["ab+c", "a-b+c"])
    def test_search_matches_the_reference_with_unnormal_lifts(self, ring,
                                                             text):
        f = morphism(ring, 3, [parse_term(text, ring, 3)])
        pair = factorize(ring, MONOID, ABELIAN_GROUP, f)
        assert [alt.key() for alt in alternatives(pair)] == list(
            reference_alternatives(pair))
        assert assert_neighbours_match_reference(pair) > 20

    def test_raw_factorization_not_unique(self, ring):
        # at least two distinct raw factorizations of ab + c exist
        f = morphism(ring, 3, [parse_term("ab+c", ring, 3)])
        canon = factorize(ring, MONOID, ABELIAN_GROUP, f)
        alt = ring_pair(ring, ["ab", "c", "abc"], ["a+b"], 3)
        assert alt.recompose() == f
        assert alt.key() != canon.key()


SWEEPS = [("ring", MONOID, ABELIAN_GROUP, 2, 3),
          ("ps_monoid", SEMIGROUP, POINTED, 2, 5)]
SWEEP_IDS = ["ring-2-3", "ps-monoid-2-5"]


class TestTrustedConstruction:
    """The sweep and the search build pairs and morphisms without the
    public checks; what they build must pass them, and what they report
    must be what the fully checked construction reports."""

    @pytest.mark.parametrize("theory_name, inner, outer, arity, size",
                             SWEEPS, ids=SWEEP_IDS)
    def test_every_built_pair_passes_the_public_checks(
            self, request, monkeypatch, theory_name, inner, outer, arity,
            size):
        theory = request.getfixturevalue(theory_name)
        real_factorize = factorization.factorize
        real_alternatives = factorization._bounded_alternatives
        seen = {"factorize": [], "forward": [], "backward": [],
                "alternatives": [], "witnesses": []}

        def record_factorize(*args):
            pair = real_factorize(*args)
            seen["factorize"].append(pair)
            return pair

        def record_alternatives(*args):
            for alt in real_alternatives(*args):
                seen["alternatives"].append(alt)
                yield alt

        monkeypatch.setattr(factorization, "factorize", record_factorize)
        monkeypatch.setattr(factorization, "_bounded_alternatives",
                            record_alternatives)
        searches = record_searches(monkeypatch)
        assert check_fs_over_base(theory, inner, outer, arity, size).passed
        # _neighbours on each search's start pair, cap and pool
        for args, wit in searches:
            for g, step in search_neighbours(*args):
                seen["forward" if step.forward else "backward"].append(g)
            seen["witnesses"] += wit.pairs
        assert all(seen.values())
        for pairs in seen.values():
            for pair in pairs:
                assert_public_checks_pass(pair)

    @pytest.mark.parametrize("name", sorted(BASE_THEORIES) + [
        "ring", "ps_monoid"])
    def test_atom_enumerators_list_only_normal_forms(self, request, name):
        # check_fs_over_base builds its hom-sets from these unchecked; a
        # base theory can be an inner layer, so its forms must be pure
        if name in BASE_THEORIES:
            spec = BASE_THEORIES[name]
        else:
            spec = request.getfixturevalue(name)
        for k in range(4):
            atoms = tuple(Var(i) for i in range(k))
            for bound in range(6):
                for t in spec.atom_enumerator(atoms, bound):
                    assert max_var(t) < k
                    assert spec.is_normal(t)
                    if name in BASE_THEORIES:
                        assert factorization.is_pure(t, spec)

    @pytest.mark.parametrize("theory_name, inner, outer, arity, size", [
        ("ring", MONOID, ABELIAN_GROUP, 2, 3),
        ("ring", MONOID, ABELIAN_GROUP, 3, 2),
        ("ps_monoid", SEMIGROUP, POINTED, 2, 5)],
        ids=["ring-2-3", "ring-3-2", "ps-monoid-2-5"])
    def test_sweep_matches_the_checked_reference(self, request, theory_name,
                                                 inner, outer, arity, size):
        theory = request.getfixturevalue(theory_name)
        got = check_fs_over_base(theory, inner, outer, arity, size)
        want = reference_sweep(theory, inner, outer, arity, size)
        assert want.bounds["alternativesChecked"] > 0
        assert got.to_json_dict() == want.to_json_dict()

    @pytest.mark.parametrize("make", [
        lambda mul, a: App(mul, (App(mul, (a, a)), a)),
        lambda mul, a: App(mul, (a, Var(a.index + 1))),
    ], ids=["not-normal", "outside-the-source"])
    def test_spare_pool_rejects_a_bad_atom(self, ring, make):
        # a broken inner enumerator is caught once, before the sweep
        from dataclasses import replace
        mul = MONOID.op("mul")
        broken = replace(MONOID, atom_enumerator=lambda atoms, bound: [
            make(mul, a) for a in atoms[:1]])
        with pytest.raises(StructuralError):
            factorization._spare_pool(ring, broken, 1)
        with pytest.raises(StructuralError):
            check_fs_over_base(ring, broken, ABELIAN_GROUP, 1, 2)

    @pytest.mark.parametrize("left_texts, right_texts, alt_left, alt_right", [
        (["ab", "c"], ["a+b"], ["ab", "c", "abc"], ["a+b"]),
        (["ab", "c"], ["a+b"], ["c", "ab"], ["b+a"]),
        (["a^2"], ["a+a"], ["a^2", "a^2", "a"], ["a+b"]),
    ], ids=["pad", "swap", "square"])
    def test_search_matches_the_reference_on_a_mixed_pool(
            self, ring, left_texts, right_texts, alt_left, alt_right):
        # _neighbours trusts its pool, which _search_witness filters: the
        # pairs it yields with the search's cap and pool, and the witness's
        # pairs, must pass the public checks, and the witness must be the
        # one found when every pool term was offered and checked
        yielded = []
        source = 3
        p = ring_pair(ring, left_texts, right_texts, source)
        q = ring_pair(ring, alt_left, alt_right, source)
        mul = MONOID.op("mul")
        pool = [
            parse_term("a+b", ring, 2),              # impure
            App(mul, (App(mul, (Var(0), Var(1))), Var(2))),  # not normal
            parse_term("d", ring, 4),                # outside the source
            App(SEMIGROUP.op("mul"), (Var(0), Var(1))),  # foreign op
            parse_term("abc", ring, 3),
            parse_term("bb", ring, 3),
            parse_term("1", ring, 0),
        ]
        assert not ring.is_normal(pool[1])
        for x, y in [(p, q), (q, p)]:
            eq, wit = zigzag_equivalent(x, y, bound=2, atom_pool=pool)
            want = reference_search_witness(x, y, 2, pool)
            assert eq and want is not None and wit is not None
            assert [g.key() for g in wit.pairs] == [
                g.key() for g in want.pairs]
            assert wit.steps == want.steps
            assert wit.validate()
            yielded += wit.pairs
            yielded += [g for g, _ in search_neighbours(x, y, 2, pool)]
        assert yielded
        for g in yielded:
            assert_public_checks_pass(g)


class TestOneStepTest:
    """``_search_witness`` tests each dequeued pair for the target one step
    away before expanding it; it must return the very witness the search
    that expands every pair returns."""

    @staticmethod
    def assert_same_witness(p, q, bound, atom_pool=None):
        wit = zigzag_equivalent(p, q, bound=bound, atom_pool=atom_pool)[1]
        ref = expanding_search_witness(p, q, bound, atom_pool)
        if ref is None:
            assert wit is None
            return None
        assert wit is not None
        assert wit.pairs == ref.pairs
        assert wit.steps == ref.steps
        assert wit.validate()
        return wit

    def test_ring_zigzags_of_every_shape(self, ring):
        found = {"pad": 0, "dup": 0, "perm": 0}
        for seed in range(12):
            rng = random.Random(seed)
            pair = factorize(ring, MONOID, ABELIAN_GROUP,
                             random_ring_morphism(ring, rng))
            # pad, dup and perm in that order, as far as the middle allows
            kinds = ["pad", "dup", "perm"][:len(list(alternatives(pair)))]
            for kind, alt in zip(kinds, alternatives(pair)):
                for bound in (0, 1, 2):
                    for x, y in [(pair, alt), (alt, pair)]:
                        wit = self.assert_same_witness(x, y, bound)
                        found[kind] += wit is not None and len(wit) > 0
        assert all(found.values())

    def test_ps_monoid_pairs(self, ps_monoid):
        lengths = set()
        for k, m in itertools.product(range(3), repeat=2):
            for comps in itertools.product(
                    ps_monoid.enumerate_normal(k, 4), repeat=m):
                pair = factorize(ps_monoid, SEMIGROUP, POINTED,
                                 TheoryMorphism(ps_monoid, k, m, comps))
                for alt in alternatives(pair):
                    for x, y in [(pair, alt), (alt, pair)]:
                        wit = self.assert_same_witness(x, y, 2)
                        lengths.add(None if wit is None else len(wit))
        assert 1 in lengths

    def test_depth_two_and_no_witness_within_the_bound(self, ring):
        p = ring_pair(ring, ["a^2", "a^2", "a"], ["a+b"], 1)
        q = ring_pair(ring, ["a^2"], ["a+a"], 1)
        for x, y in [(p, q), (q, p)]:
            assert self.assert_same_witness(x, y, 1) is None
            assert len(self.assert_same_witness(x, y, 2)) == 2

    def test_a_target_entry_outside_the_search_pool(self, ring):
        # q's spare entry a+b is checked against q's inner layer, the whole
        # ring, but the search's pool keeps only terms pure in p's;
        # zigzag_equivalent rejects pairs over different layers, so the
        # search is called directly
        p = ring_pair(ring, ["ab"], ["a"], 2)
        q = FactorizationPair(
            ring, ring, ABELIAN_GROUP,
            morphism(ring, 2, [parse_term(t, ring, 2) for t in ("ab", "a+b")]),
            morphism(ring, 2, [Var(0)]))
        with pytest.raises(StructuralError, match="different theories"):
            zigzag_equivalent(p, q, bound=-1)
        for bound in (1, 2):
            assert factorization._search_witness(p, q, bound, None) is None
            assert expanding_search_witness(p, q, bound, None) is None

    def test_a_forward_step_past_the_lift_limit(self, ring):
        # q is a forward neighbour of p along [2] -> [1], but its five
        # components have five normal lifts each, and _lift_tuple gives up
        # on more than 400 tuples
        p = ring_pair(ring, ["ab"], ["a+a+a+a"] * 5, 2)
        q = ring_pair(ring, ["ab", "ab"], ["a+a+b+b"] + ["a+a+a+a"] * 4, 2)
        u = BaseFunction(2, 1, (0, 0))
        assert q.right.components in factorization._lift_tuple(
            p.right.components, u, ring, limit=10 ** 6)
        assert not list(factorization._lift_tuple(p.right.components, u,
                                                  ring))
        for bound in (0, 1, 2):
            for x, y in [(p, q), (q, p)]:
                self.assert_same_witness(x, y, bound)


def perturbed_alternatives(real):
    """``_bounded_alternatives`` with the first right component of each
    alternative replaced: by the outer theory's constant, or by the first
    middle variable where it is that constant already."""
    def alternatives(pair, spares):
        theory, outer = pair.theory, pair.outer
        const = next(op for op in outer.signature if op.arity == 0)
        for alt in real(pair, spares):
            comps = alt.right.components
            bump = theory.normalize(App(const, ()))
            if comps and comps[0] == bump and alt.middle:
                bump = Var(0)
            if comps and comps[0] != bump:
                alt = FactorizationPair(
                    theory, alt.inner, outer, alt.left,
                    TheoryMorphism(theory, alt.middle, alt.target,
                                   (bump,) + comps[1:]))
            yield alt
    return alternatives


def wrong_last_step(real):
    """``_search_witness`` with the base function of the witness's last step
    replaced by another one of the same domain."""
    def search(*args):
        wit = real(*args)
        if wit is not None and wit.steps:
            last = wit.steps[-1]
            u = last.base
            if u.cod > 1:
                wrong = BaseFunction(u.dom, u.cod, tuple(
                    (v + 1) % u.cod for v in u.table))
            else:
                wrong = BaseFunction(u.dom, 2, (1,) * u.dom)
            wit.steps[-1] = factorization.ZigzagStep(wrong, last.forward)
        return wit
    return search


class TestCheckFsMutants:
    """Each check-fs mutant must make the default sweep of the CLI fail on
    the check it targets: ``alt-recompose`` or ``witness``, the two checks
    the sweep makes on alternatives."""

    @pytest.mark.parametrize("theory", ["ring", "ps-monoid"])
    @pytest.mark.parametrize("name, make, check", [
        ("_bounded_alternatives", perturbed_alternatives, "alt-recompose"),
        ("_search_witness", wrong_last_step, "witness"),
        ("_search_witness", lambda real: lambda *args: None, "witness"),
    ], ids=["perturbed-right-part", "wrong-last-base", "no-witness"])
    def test_mutant_fails_its_check(self, capsys, monkeypatch, theory, name,
                                    make, check):
        from lawvere.cli import main
        monkeypatch.setattr(factorization, name,
                            make(getattr(factorization, name)))
        code = main(["check-fs", "--theory", theory, "--json"])
        failures = json.loads(capsys.readouterr().out)["failures"]
        assert code == 1
        assert {f["check"] for f in failures} == {check}


class TestStrictFS:
    def test_chain_category(self):
        cat = chain_category(3)
        ids = [cat.morphism(f"{i}->{i}") for i in range(3)]
        L = ids + [cat.morphism("0->1")]
        R = ids + [cat.morphism("1->2")]
        rep = check_strict_fs(cat, L, R)
        assert rep.passed
        law = rep.bounds["interchange"]
        # pushing the only step-one arrow past the only step-two arrow
        assert law["1->2,2->2"] == ("1->1", "1->2")
        assert law["0->0,0->1"] == ("0->1", "1->1")

    def test_left_everything_right_identities(self):
        cat = chain_category(3)
        ids = [cat.identity(o) for o in cat.objects]
        rep = check_strict_fs(cat, list(cat.morphisms), ids)
        assert rep.passed

    def test_nontrivial_isomorphism_breaks_uniqueness(self):
        cat = iso_pair_category()
        rep = check_strict_fs(cat, list(cat.morphisms), list(cat.morphisms))
        assert not rep.passed
        assert any(f["check"] == "unique-factorization"
                   for f in rep.failures)

    def test_z2_uniqueness_failure(self):
        z2 = monoid_category([0, 1],
                             {(a, b): (a + b) % 2
                              for a in (0, 1) for b in (0, 1)}, 0)
        rep = check_strict_fs(z2, list(z2.morphisms), list(z2.morphisms))
        assert not rep.passed

    @pytest.mark.parametrize("left, right, check, outside", [
        ("01", "02", "mult-left", "outsideLeft"),
        ("02", "01", "mult-right", "outsideRight")])
    def test_class_not_closed_under_composition(self, left, right, check,
                                                outside):
        # in Z/4 each element is uniquely a sum of one element of {0, 1}
        # and one of {0, 2}, but 1 + 1 = 2 is not in {0, 1}
        z4 = monoid_category(range(4), {(a, b): (a + b) % 4 for a in range(4)
                                        for b in range(4)}, 0)
        rep = check_strict_fs(z4, [z4.morphism(c) for c in left],
                              [z4.morphism(c) for c in right])
        assert (rep.sample_count, rep.pass_count) == (24, 22)
        assert {(f["check"], f[outside]) for f in rep.failures} == \
            {(check, "2")}
