"""Factorisation of composite-theory morphisms, and strict factorisation
systems on finite categories.

A morphism of a composite theory (outer layer B over inner layer A)
factors through a middle arity as a pure-A part followed by a pure-B
part.  The factorization is canonical but not unique: alternatives are
identified up to zigzags of basic morphisms whose triangles commute on
the appropriate sides, and the decision procedure compares canonical
forms while an optional bounded search produces an explicit witness
chain.

The public ``FactorizationPair(...)`` checks that the parts meet at the
middle and that each is pure in its layer.  The sweep and the search
build their pairs through the internal ``_trusted_pair`` and their
morphisms through ``theory._trusted``, skipping checks that hold by
construction; every check that can fail runs once, where its input
enters.  The construction sites and the contract each rests on are
listed in the ``theory`` module docstring.

A pair never changes after construction, so ``recompose()`` and
``canonicalize`` compute their result once per pair and keep it in the
pair's ``__dict__``, beside the fields, where neither equality nor
hashing reads it.  Nothing seeds them: a pair from ``factorize`` is
recomposed from its own parts, never handed its input, so the sweep's
``existence`` check still composes them.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .fincat import FiniteCategory, Morphism
from .report import Report
from .terms import (App, StructuralError, Term, TheorySpec, Var, max_var,
                    ops_used, term_size)
from .theory import (BaseFunction, TheoryMorphism, _trusted, _var_occurrences,
                     basic_morphism, compose)


def is_pure(t: Term, spec: TheorySpec) -> bool:
    return ops_used(t) <= spec.op_set


@dataclass(frozen=True)
class FactorizationPair:
    """A composite morphism split as inner-part then outer-part.

    ``left``: k -> middle with pure inner-theory components;
    ``right``: middle -> m with pure outer-theory components.
    """
    theory: TheorySpec
    inner: TheorySpec
    outer: TheorySpec
    left: TheoryMorphism
    right: TheoryMorphism

    def __post_init__(self):
        if self.left.target != self.right.source:
            raise StructuralError("middle objects do not match")
        for c in self.left.components:
            if not is_pure(c, self.inner):
                raise StructuralError("left part is not pure inner-theory")
        for c in self.right.components:
            if not is_pure(c, self.outer):
                raise StructuralError("right part is not pure outer-theory")

    @property
    def middle(self) -> int:
        return self.left.target

    @property
    def source(self) -> int:
        return self.left.source

    @property
    def target(self) -> int:
        return self.right.target

    def recompose(self) -> TheoryMorphism:
        """``right`` after ``left``, composed on the first call and kept
        on the pair (see the module docstring)."""
        got = self.__dict__.get("_composite")
        if got is None:
            got = self.__dict__["_composite"] = compose(self.right, self.left)
        return got

    def key(self):
        return (self.left.components, self.right.components)

    def __repr__(self):
        from .parser import format_term
        ls = ",".join(format_term(c) for c in self.left.components)
        rs = ",".join(format_term(c) for c in self.right.components)
        return (f"FactorizationPair({self.source}->{self.middle}->"
                f"{self.target}; left=[{ls}]; right=[{rs}])")


def _trusted_pair(theory: TheorySpec, inner: TheorySpec, outer: TheorySpec,
                  left: TheoryMorphism,
                  right: TheoryMorphism) -> FactorizationPair:
    """A pair whose parts are known to meet at the middle, with ``left``
    pure inner-theory and ``right`` pure outer-theory; the checks of
    ``__post_init__`` are skipped, as ``theory._trusted`` skips a
    morphism's.  Internal: only for the construction sites listed in the
    module docstring."""
    p = object.__new__(FactorizationPair)
    p.__dict__.update(theory=theory, inner=inner, outer=outer, left=left,
                      right=right)
    return p


def factorize(theory: TheorySpec, inner: TheorySpec, outer: TheorySpec,
              f: TheoryMorphism) -> FactorizationPair:
    """Canonical factorization of a normal composite-theory morphism.

    The middle collects the distinct inner-layer atoms of all components
    in first-occurrence order; the right part replaces each atom by its
    middle variable.  No middle coordinate is duplicated or unused.
    A morphism of ``theory`` was checked when it was built; one of an
    equal but distinct spec has its components checked here.
    """
    if f.theory is not theory:
        for c in f.components:
            if not theory.is_normal(c):
                raise StructuralError("factorize expects normal components")
    outer_ops = outer.op_set
    atom_index: dict = {}

    # split off the outer layer and rename each atom to its middle
    # variable in one walk, as split_layer then substitute would
    def go(u: Term) -> Term:
        if isinstance(u, App) and u.op in outer_ops:
            return tuple.__new__(App, (u.op, tuple(go(a) for a in u.args)))
        i = atom_index.get(u)
        if i is None:
            i = atom_index[u] = len(atom_index)
        return tuple.__new__(Var, (i,))

    # the skeletons are outer-layer terms over the middle variables, so the
    # right part is pure and in range once normalized; the atoms are
    # subterms of f's components, in range, but pure inner-theory only
    # when f is normal, which is checked on their normal forms
    right = tuple(theory.normalize(go(c)) for c in f.components)
    left = tuple(theory.normalize(a) for a in atom_index)
    for c in left:
        if not is_pure(c, inner):
            raise StructuralError("left part is not pure inner-theory")
    return _trusted_pair(theory, inner, outer,
                         _trusted(theory, f.source, left),
                         _trusted(theory, len(atom_index), right))


def canonicalize(pair: FactorizationPair) -> FactorizationPair:
    """Delete unused middles, merge duplicate left entries, sort by first
    use: one ``factorize`` of the recomposition, whose output is canonical.
    Made on the first call for a pair and kept on it."""
    got = pair.__dict__.get("_canonical")
    if got is None:
        got = pair.__dict__["_canonical"] = factorize(
            pair.theory, pair.inner, pair.outer, pair.recompose())
    return got


@dataclass(frozen=True)
class ZigzagStep:
    """One basic-morphism bridge between consecutive factorizations.

    ``forward`` means the base function maps the later middle into the
    earlier one (the arrow points from the earlier pair to the later one);
    ``_step_holds`` checks its two triangle equations.
    """
    base: BaseFunction
    forward: bool


@dataclass
class ZigzagWitness:
    pairs: list
    steps: list

    def __len__(self):
        return len(self.steps)

    def validate(self) -> bool:
        for i, step in enumerate(self.steps):
            a, b = self.pairs[i], self.pairs[i + 1]
            if not _step_holds(a, b, step):
                return False
        return True

    def middles(self) -> list:
        return [p.middle for p in self.pairs]


def _step_holds(a: FactorizationPair, b: FactorizationPair,
                step: ZigzagStep) -> bool:
    """Triangles for an arrow a -> b (forward) or b -> a (backward)."""
    src, dst = (a, b) if step.forward else (b, a)
    u = basic_morphism(a.theory, step.base)
    try:
        left_ok = compose(u, src.left) == dst.left
        right_ok = compose(dst.right, u) == src.right
    except StructuralError:
        return False
    return left_ok and right_ok


def zigzag_equivalent(p: FactorizationPair, q: FactorizationPair,
                      bound: int = 0,
                      atom_pool: Optional[Sequence[Term]] = None):
    """Decide equivalence; optionally search for an explicit witness.

    The decision compares canonical forms and never depends on the
    search.  With ``bound >= 0`` a breadth-first search over single-step
    neighbours (middles capped at max(middles) + bound) tries to exhibit
    a chain of length <= bound, so ``bound == 0`` finds only the empty
    chain between equal pairs; ``None`` means no witness within bounds,
    not inequivalence.  Pairs over different theories or layers are
    rejected: each would be canonicalized by its own outer layer.
    """
    if (p.theory, p.inner, p.outer) != (q.theory, q.inner, q.outer):
        raise StructuralError("factorizations over different theories or "
                              "layers")
    if (p.source, p.target) != (q.source, q.target):
        raise StructuralError("factorization endpoints differ")
    equivalent = canonicalize(p).key() == canonicalize(q).key()
    witness = None
    if equivalent and bound >= 0:
        witness = _search_witness(p, q, bound, atom_pool)
    return equivalent, witness


def _search_witness(p: FactorizationPair, q: FactorizationPair, bound: int,
                    atom_pool: Optional[Sequence[Term]]) -> Optional[ZigzagWitness]:
    """Breadth-first search for a shortest zigzag from p to q.  A dequeued
    pair is expanded by ``_neighbours`` only if q is not one step away
    (``_step_to``) and the pair is above the last level; ``_step_to``
    says why the chain is the one a full expansion would return."""
    if p.key() == q.key():
        return ZigzagWitness([p], [])
    if bound <= 0:
        return None
    cap = max(p.middle, q.middle) + bound
    pool = set(atom_pool or [])
    pool.update(p.left.components)
    pool.update(q.left.components)
    # a backward neighbour is a checked pair exactly when every pool term
    # it uses is one, so the pool is checked here, once per search
    pool = sorted((t for t in pool
                   if _left_atom_ok(t, p.theory, p.inner, p.source)),
                  key=lambda t: (term_size(t), repr(t)))
    seen = {p.key()}
    queue = deque([(p, [p], [])])
    while queue:
        cur, pairs, steps = queue.popleft()
        step = _step_to(cur, q, pool)
        if step is not None:
            theory = cur.theory
            last = _trusted_pair(
                theory, cur.inner, cur.outer,
                _trusted(theory, cur.source, q.left.components),
                _trusted(theory, q.middle, q.right.components))
            return ZigzagWitness(pairs + [last], steps + [step])
        if len(steps) + 1 >= bound:
            continue
        for nxt, step in _neighbours(cur, cap, pool):
            k = nxt.key()
            if k not in seen:
                seen.add(k)
                queue.append((nxt, pairs + [nxt], steps + [step]))
    return None


def _left_atom_ok(t: Term, theory: TheorySpec, inner: TheorySpec,
                  source: int) -> bool:
    """Whether t can stand in a left part out of ``source``: within the
    source, pure inner-theory and normal in ``theory``."""
    try:
        return (max_var(t) < source and is_pure(t, inner)
                and theory.is_normal(t))
    except StructuralError:
        return False


def _forward_picks(f: FactorizationPair, j2: int) -> Iterator[tuple]:
    """Forward steps out of f to middle j2, as (table of u: [j2] -> [j],
    left part picked from f's along u).  A table whose image misses a
    middle variable that f.right uses is skipped; this is exact, as a
    component using it has no lift and ``_lift_tuple`` would yield
    nothing."""
    used = {v for c in f.right.components for v in _var_occurrences(c)}
    comps = f.left.components
    for table in itertools.product(range(f.middle), repeat=j2):
        if used.issubset(table):
            yield table, tuple(comps[v] for v in table)


def _backward_slots(f: FactorizationPair, j2: int) -> Iterator[tuple]:
    """Backward steps into f from middle j2, as (table of u: [j] -> [j2],
    slots): a slot in u's image holds the f.left entries sent to it, which
    must agree, and the others, at most three, hold None."""
    comps = f.left.components
    for table in itertools.product(range(j2), repeat=f.middle):
        image = dict(zip(table, comps))
        if len(image) >= j2 - 3 and all(
                image[v] == c for v, c in zip(table, comps)):
            yield table, [image.get(i) for i in range(j2)]


def _step_to(f: FactorizationPair, q: FactorizationPair,
             pool: Sequence[Term]) -> Optional[ZigzagStep]:
    """The step of the first pair with q's key that ``_neighbours(f, cap,
    pool)`` yields, or None; a search stops there, as q's key is never
    seen.  Only steps to q's middle can match, forward first: a forward
    one must pick q.left before any lift is built, a backward one must
    agree with q.left on its slots and fill the rest from the pool before
    its right part is composed.  The pairs skipped cannot raise: forward
    lifts use only the component's own operations, and a backward
    ``compose`` renames within range."""
    theory, j, j2 = f.theory, f.middle, q.middle
    left, right = q.left.components, q.right.components
    for table, g_left in _forward_picks(f, j2):
        if g_left == left:
            u = BaseFunction(j2, j, table)
            if right in _lift_tuple(f.right.components, u, theory):
                return ZigzagStep(u, forward=True)
    for table, slots in _backward_slots(f, j2):
        if all(t in pool if s is None else s == t
               for s, t in zip(slots, left)):
            u = BaseFunction(j, j2, table)
            if compose(f.right, basic_morphism(theory, u)).components == right:
                return ZigzagStep(u, forward=False)
    return None


def _neighbours(f: FactorizationPair, cap: int,
                pool: Sequence[Term]) -> Iterator[tuple]:
    """All pairs one basic step away from f; every step is a commuting
    triangle and every pair a checked one by construction, so none is
    checked here.  ``pool`` holds only terms that may stand in f's left
    part (``_search_witness`` filters it).  ``_step_to`` finds one given
    pair among them without building the others."""
    theory, inner, outer = f.theory, f.inner, f.outer
    j = f.middle
    for j2 in range(0, cap + 1):
        # arrows f -> g: base u: [j2] -> [j]; g.left is picked from f.left,
        # g.right is any normal lift of f.right along the renaming; both
        # are normal, in range and pure already
        for table, picked in _forward_picks(f, j2):
            u = BaseFunction(j2, j, table)
            g_left = _trusted(theory, f.source, picked)
            for g_right in _lift_tuple(f.right.components, u, theory):
                g = _trusted_pair(theory, inner, outer, g_left,
                                  _trusted(theory, j2, g_right))
                yield g, ZigzagStep(u, forward=True)
        # arrows g -> f: base u: [j] -> [j2]; g.right is f.right renamed
        # along u, g.left agrees with f.left on the image and is filled
        # from the pool elsewhere
        for table, slots in _backward_slots(f, j2):
            u = BaseFunction(j, j2, table)
            free = [i for i in range(j2) if slots[i] is None]
            g_right = compose(f.right, basic_morphism(theory, u))
            for fill in itertools.product(pool, repeat=len(free)):
                comps = list(slots)
                for idx, t in zip(free, fill):
                    comps[idx] = t
                g = _trusted_pair(theory, inner, outer,
                                  _trusted(theory, f.source, tuple(comps)),
                                  g_right)
                yield g, ZigzagStep(u, forward=False)


def _lift_tuple(comps: Sequence[Term], u: BaseFunction,
                theory: TheorySpec, limit: int = 400) -> Iterator[tuple]:
    """Tuples of normal terms over [u.dom] that rename along u to comps."""
    per = []
    for c in comps:
        # a raw lift renames back to c symbol for symbol
        lifts = [t for t in _lifts_of(c, u, limit) if theory.is_normal(t)]
        if not lifts:
            return
        per.append(lifts)
    count = 1
    for p in per:
        count *= len(p)
        if count > limit:
            return
    yield from itertools.product(*per)


def _lifts_of(t: Term, u: BaseFunction, limit: int) -> list:
    """Raw preimage terms of t under variable renaming by u."""
    pre: dict = {}
    for i in range(u.dom):
        pre.setdefault(u(i), []).append(i)

    def go(x: Term) -> list:
        if isinstance(x, Var):
            return [Var(i) for i in pre.get(x.index, [])]
        parts = [go(a) for a in x.args]
        out = []
        for combo in itertools.product(*parts):
            out.append(App(x.op, combo))
            if len(out) > limit:
                break
        return out

    return go(t)[:limit]


# ---------------------------------------------------------------------------
# property sweep over a composite theory


def check_fs_over_base(theory: TheorySpec, inner: TheorySpec,
                       outer: TheorySpec, arity_bound: int, size_bound: int,
                       *, witness_bound: int = 2,
                       witness_sample: int = 24) -> Report:
    """Existence, alternatives and zigzag witnesses over all bounded
    morphisms.

    Every enumerated morphism must factorize and recompose to itself
    (``existence``); every alternative factorization from
    ``_bounded_alternatives`` must recompose to it too
    (``alt-recompose``); and for the first ``witness_sample`` morphisms
    with alternatives that all recompose, an explicit zigzag chain from
    the canonical factorization to the first alternative is demanded and
    validated (``witness``).
    """
    rep = Report(subject=f"fs-over-base:{theory.name}",
                 bounds={"arityBound": arity_bound, "sizeBound": size_bound,
                         "witnessBound": witness_bound})
    # atom_enumerator lists normal forms only, so the hom-set morphisms
    # are built unchecked; the spare atoms are checked once per arity
    nfs = {k: theory.enumerate_normal(k, size_bound)
           for k in range(arity_bound + 1)}
    spares = {k: _spare_pool(theory, inner, k)
              for k in range(arity_bound + 1)}
    alt_total = 0
    picked = 0
    for k in range(arity_bound + 1):
        for m in range(arity_bound + 1):
            for comps in itertools.product(nfs[k], repeat=m):
                f = _trusted(theory, k, comps)
                rep.sample_count += 1
                pair = factorize(theory, inner, outer, f)
                if pair.recompose() != f:
                    rep.add_failure(check="existence", morphism=repr(f))
                    continue
                ok = True
                alternatives = list(_bounded_alternatives(pair, spares[k]))
                alt_total += len(alternatives)
                for alt in alternatives:
                    if alt.recompose() != f:
                        rep.add_failure(check="alt-recompose",
                                        alt=repr(alt))
                        ok = False
                if ok and alternatives and picked < witness_sample:
                    picked += 1
                    eq, wit = zigzag_equivalent(pair, alternatives[0],
                                                bound=witness_bound)
                    if wit is None or not wit.validate():
                        rep.add_failure(check="witness", morphism=repr(f),
                                        alt=repr(alternatives[0]))
                        ok = False
                if ok:
                    rep.pass_count += 1
    rep.bounds["alternativesChecked"] = alt_total
    return rep


def _bounded_alternatives(pair: FactorizationPair,
                          spares: Sequence[Term]
                          ) -> Iterator[FactorizationPair]:
    """A spread of raw factorizations of the same morphism: padded with a
    spare atom (the first of ``spares``, pair's ``_spare_pool``, not in
    its left part), entry duplicated, and middle reversed; the right part
    is renamed along the base function that relates the two middles.

    Every left part extends or permutes pair's checked one, by a checked
    spare atom at most, and every right part is pair's renamed, so no
    part is checked again."""
    theory, inner, outer = pair.theory, pair.inner, pair.outer
    j = pair.middle
    comps = pair.left.components
    spare = next((t for t in spares if t not in comps), None)
    variants = []
    if spare is not None:
        variants.append((comps + (spare,), tuple(range(j))))
    if j >= 1:
        variants.append((comps + (comps[0],), tuple(range(j))))
    if j >= 2:
        variants.append((comps[::-1], tuple(reversed(range(j)))))
    for new_left, table in variants:
        u = BaseFunction(j, len(new_left), table)
        yield _trusted_pair(theory, inner, outer,
                            _trusted(theory, pair.source, new_left),
                            compose(pair.right, basic_morphism(theory, u)))


def _spare_pool(theory: TheorySpec, inner: TheorySpec, source: int) -> list:
    """The candidate spare atoms over ``source`` variables: the inner
    theory's normal forms of size <= 3, each checked to fit a left part."""
    pool = inner.atom_enumerator(tuple(Var(i) for i in range(source)), 3)
    for t in pool:
        if not _left_atom_ok(t, theory, inner, source):
            raise StructuralError(
                f"spare atom {t!r} does not fit a left part out of {source}")
    return pool


# ---------------------------------------------------------------------------
# strict factorisation systems on finite categories


def check_strict_fs(cat: FiniteCategory, left: Sequence[Morphism],
                    right: Sequence[Morphism]) -> Report:
    """Unique on-the-nose factorization, then the induced interchange data.

    On success the rewrite sending a right-then-left composite to its
    unique left-then-right factorization is extracted and its two unit and
    two multiplication compatibilities are verified exhaustively; the data
    is stored on the report under ``bounds['interchange']``.
    """
    rep = Report(subject=f"strict-fs:{cat.name}", bounds={})
    lset, rset = set(left), set(right)
    for x in cat.objects:
        if cat.identity(x) not in lset or cat.identity(x) not in rset:
            rep.add_failure(check="identities", object=repr(x))
    factor: dict = {}
    for f in cat.morphisms:
        pairs = [(l, r) for l in left for r in right
                 if l.src == f.src and r.tgt == f.tgt and l.tgt == r.src
                 and cat.compose(r, l) == f]
        if rep.check(len(pairs) == 1, check="unique-factorization",
                     morphism=f.name, count=len(pairs)):
            factor[f] = pairs[0]
    if not rep.passed:
        return rep

    # distributive-law data: (r then l) composites rewritten to (l' then r')
    law = {}
    for r in right:
        for l in left:
            if r.tgt == l.src:
                law[(r.name, l.name)] = factor[cat.compose(l, r)]
    rep.bounds["interchange"] = {
        f"{r},{l}": (out_l.name, out_r.name)
        for (r, l), (out_l, out_r) in law.items()}

    for r in right:
        lid = cat.identity(r.tgt)
        rep.check(law[(r.name, lid.name)] == (cat.identity(r.src), r),
                  check="unit-left", r=r.name)
    for l in left:
        rid = cat.identity(l.src)
        rep.check(law[(rid.name, l.name)] == (l, cat.identity(l.tgt)),
                  check="unit-right", l=l.name)
    for r in right:
        for l1 in left:
            if r.tgt != l1.src:
                continue
            for l2 in left:
                if l1.tgt != l2.src:
                    continue
                a1, b1 = law[(r.name, l1.name)]
                a2, b2 = law[(b1.name, l2.name)]
                l21 = cat.compose(l2, l1)
                direct = law.get((r.name, l21.name))
                outside = {} if direct else {"outsideLeft": l21.name}
                rep.check((cat.compose(a2, a1), b2) == direct,
                          check="mult-left", r=r.name, l1=l1.name, l2=l2.name,
                          **outside)
    for l in left:
        for r1 in right:
            if r1.tgt != l.src:
                continue
            for r2 in right:
                if r2.tgt != r1.src:
                    continue
                a1, b1 = law[(r1.name, l.name)]
                a2, b2 = law[(r2.name, a1.name)]
                r12 = cat.compose(r1, r2)
                direct = law.get((r12.name, l.name))
                outside = {} if direct else {"outsideRight": r12.name}
                rep.check((a2, cat.compose(b1, b2)) == direct,
                          check="mult-right", l=l.name, r1=r1.name, r2=r2.name,
                          **outside)
    return rep
