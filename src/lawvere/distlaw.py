"""Executable distributive laws between term theories.

A law with inner theory S and outer theory T rewrites terms whose S-layer
sits above their T-layer into terms layered the other way round, with both
layers normalized.  The composite theory puts T outermost: its normal
forms are T-layer canonical forms whose atoms are S-layer canonical forms
over the variables.

Layering: a term is layered for an ordered list of theories when, along
every root-to-leaf path, operations of an earlier (outer) theory never
appear strictly below operations of a later (inner) one.  Subterms headed
by operations of none of the listed theories count as innermost and are
treated as opaque atoms, which is what lets the same rewriters run inside
three-theory stacks.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import prod
from typing import Callable, Optional, Sequence

from .builtin import (LAYER_READERS, build_combo, build_word, combo_of,
                      word_atoms)
from .parser import format_term
from .report import AxiomReport, Report
from .sampling import Sampler, random_term
from .terms import App, StructuralError, Term, TheorySpec, Var, substitute


def split_layer(t: Term, ops: frozenset) -> tuple:
    """Split into a skeleton over slot variables plus positional atoms.

    The skeleton uses only operations from ``ops``; the atoms are the
    maximal subterms headed by anything else.  ``substitute(skeleton,
    atoms)`` restores the input.
    """
    atoms: list = []

    def go(u: Term) -> Term:
        if isinstance(u, App) and u.op in ops:
            return tuple.__new__(App, (u.op, tuple(go(a) for a in u.args)))
        atoms.append(u)
        return tuple.__new__(Var, (len(atoms) - 1,))

    return go(t), atoms


def check_layer_order(t: Term, layer_ops: Sequence[frozenset]) -> bool:
    """True when layer indices never decrease along root-to-leaf paths."""
    def level(u: Term) -> int:
        for i, ops in enumerate(layer_ops):
            if u.op in ops:
                return i
        return len(layer_ops)

    def go(u: Term, floor: int) -> bool:
        if isinstance(u, Var):
            return True
        lv = level(u)
        if lv < floor:
            return False
        return all(go(a, lv) for a in u.args)

    return go(t, 0)


def layered_normalize(t: Term, order: Sequence[TheorySpec]) -> Term:
    """Normalize each layer of an already layered term, outermost first.

    Unlike a composite theory's normalizer this never invokes the law, so
    it can serve as the neutral comparison form in axiom checks.  The
    layer-order check recurses, one frame per level; the normal form is
    ``_layered_nf``'s.
    """
    if not check_layer_order(t, [s.op_set for s in order]):
        raise StructuralError(
            f"term is not layered for {[s.name for s in order]}")
    return _layered_nf(t, order)


def _layered_nf(t: Term, order: Sequence[TheorySpec]) -> Term:
    """The head's normal form of t with each atom of its layer (each
    maximal subterm headed by anything else) replaced by its own
    ``_layered_nf`` over the rest of the order.

    A built-in head (``LAYER_READERS``) reads its layer in one loop and
    normalizes each atom as it meets it, once per run of one atom object,
    without ``split_layer`` or ``substitute``; only the calls for deeper
    layers nest, a few frames per layer rather than per level.  Any other
    head, such as a composite, is split, its atoms normalized, and the
    term rebuilt with ``substitute``, which all recurse per level.
    """
    head = order[0]
    if len(order) == 1:
        return head.normalizer(t)
    rest = order[1:]
    leaf = (rest[0].normalizer if len(rest) == 1
            else lambda a: _layered_nf(a, rest))
    read = LAYER_READERS.get(id(head))
    if read is not None:
        return read(t, leaf)
    skel, atoms = split_layer(t, head.op_set)
    return head.normalizer(substitute(skel, [leaf(a) for a in atoms]))


@dataclass(frozen=True)
class DistributiveLawSpec:
    """A rewriter moving the inner theory's layer below the outer one.

    ``rewrite`` must accept any term whose inner-theory operations sit
    above its outer-theory operations (anything else opaque below), and
    must return the same element with the outer layer on top and both
    layers normalized.
    """
    name: str
    inner: TheorySpec
    outer: TheorySpec
    rewrite: Callable[[Term], Term]
    description: str = ""

    def __repr__(self):
        return f"DistributiveLawSpec({self.name}: {self.inner.name} over {self.outer.name})"


def apply_law(law: DistributiveLawSpec, t: Term) -> Term:
    """Validate the input layering, then rewrite."""
    if not check_layer_order(t, [law.inner.op_set, law.outer.op_set]):
        raise StructuralError(
            f"term is not {law.inner.name}-over-{law.outer.name} layered")
    return law.rewrite(t)


def multiplicative_over_additive_law(mult: TheorySpec,
                                     additive: TheorySpec,
                                     name: str = "") -> DistributiveLawSpec:
    """Full distributive expansion of products over signed sums.

    Each product position contributes one choice of atom per summand;
    signs multiply, so (-a)b rewrites to -(ab).  Works for both unital and
    non-unital multiplication.
    """
    mul = mult.op("mul")
    unit = mult.op("one") if mult.has_op("one") else None
    add = additive.op("add")
    neg = additive.op("neg") if additive.has_op("neg") else None
    zero = additive.op("zero")

    def rw(t: Term) -> Term:
        # each summand as (its word's atoms, its coefficient), flattened
        # once here rather than once per choice below
        combos = [[(word_atoms(a, mul, unit), c)
                   for a, c in combo_of(leaf, add, neg, zero).items()]
                  for leaf in word_atoms(t, mul, unit)]
        # keyed by atom chain: equal chains make equal words, so each
        # surviving monomial is built once, in first-occurrence order
        acc: dict = {}
        for choice in itertools.product(*combos):
            coeff = prod((c for _, c in choice), start=1)
            chain: list = []
            for w, _ in choice:
                chain.extend(w)
            key = tuple(chain)
            acc[key] = acc.get(key, 0) + coeff
        return build_combo({build_word(k, mul, unit): v
                            for k, v in acc.items() if v != 0},
                           add, neg, zero)

    return DistributiveLawSpec(
        name=name or f"{mult.name}-over-{additive.name}",
        inner=mult, outer=additive, rewrite=rw,
        description="expand products over sums, multiplying signs")


def multiplicative_over_pointed_law(mult: TheorySpec, pointed: TheorySpec,
                                    name: str = "") -> DistributiveLawSpec:
    """Delete unit letters from words; the all-units word becomes the point."""
    mul = mult.op("mul")
    unit = mult.op("one") if mult.has_op("one") else None
    point = App(pointed.op("point"), ())

    def rw(t: Term) -> Term:
        kept: list = []
        for leaf in word_atoms(t, mul, unit):
            if leaf == point:
                continue
            kept.extend(word_atoms(leaf, mul, unit))
        if not kept:
            return point
        return build_word(kept, mul, unit)

    return DistributiveLawSpec(
        name=name or f"{mult.name}-over-{pointed.name}",
        inner=mult, outer=pointed, rewrite=rw,
        description="drop unit letters; the empty remainder is the point")


def pointed_over_additive_law(pointed: TheorySpec, additive: TheorySpec,
                              name: str = "") -> DistributiveLawSpec:
    """Relayering only: a sum stays a sum, the point becomes a basis atom."""
    add = additive.op("add")
    neg = additive.op("neg") if additive.has_op("neg") else None
    zero = additive.op("zero")

    def rw(t: Term) -> Term:
        return build_combo(combo_of(t, add, neg, zero), add, neg, zero)

    return DistributiveLawSpec(
        name=name or f"{pointed.name}-over-{additive.name}",
        inner=pointed, outer=additive, rewrite=rw,
        description="the point is already a normal-form atom")


def trivial_law(inner: TheorySpec, outer: TheorySpec,
                name: str = "") -> DistributiveLawSpec:
    """Law for the case where one side is the identity theory."""
    def rw(t: Term) -> Term:
        return _layered_nf(t, [outer, inner])

    return DistributiveLawSpec(
        name=name or f"{inner.name}-over-{outer.name}",
        inner=inner, outer=outer, rewrite=rw,
        description="one side has no operations; renormalize layers")


def composite_theory(law: DistributiveLawSpec, *, name: str = "",
                     check: bool = True,
                     sampler: Optional[Sampler] = None) -> TheorySpec:
    """The theory whose normal forms are outer-layer forms over inner atoms.

    By default the law's compatibility diagrams are checked first and a
    failing law is rejected with its counterexample.
    """
    if check:
        rep = check_law_axioms(law, sampler or Sampler(samples=120))
        if not rep.passed:
            raise StructuralError(
                f"law {law.name} fails its axioms: {rep.first_failure}")
    outer, inner = law.outer, law.inner
    signature = outer.signature + inner.signature
    outer_ops = outer.op_set
    inner_ops = inner.op_set

    def normalize_fn(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        args = tuple(normalize_fn(a) for a in t.args)
        v = App(t.op, args)
        if t.op in outer_ops:
            return outer.normalizer(v)
        if t.op in inner_ops:
            return law.rewrite(v)
        return v

    def enum_fn(atoms, bound):
        inner_nfs = inner.atom_enumerator(atoms, bound)
        return outer.atom_enumerator(inner_nfs, bound)

    return TheorySpec(
        name=name or f"{outer.name}*{inner.name}",
        signature=signature,
        normalizer=normalize_fn,
        atom_enumerator=enum_fn,
        axioms=f"{outer.name} over {inner.name} via {law.name}",
    )


# ---------------------------------------------------------------------------
# compatibility diagrams

_EST_CAP = 10 ** 9
_EXPANSION_LIMIT = 400


def expansion_estimate(t: Term) -> int:
    """Monomial count full distribution would produce; used to veto samples
    whose canonical forms would be combinatorially large."""
    if isinstance(t, Var):
        return 1
    name = t.op.name
    if name == "mul":
        return min(expansion_estimate(t.args[0])
                   * expansion_estimate(t.args[1]), _EST_CAP)
    if name == "add":
        return min(expansion_estimate(t.args[0])
                   + expansion_estimate(t.args[1]), _EST_CAP)
    if name == "neg":
        return expansion_estimate(t.args[0])
    if name == "zero":
        return 0
    return 1


def _draw(make, measure, limit: int = _EXPANSION_LIMIT, attempts: int = 60):
    """Redraw until the sample's expansion stays manageable."""
    shrink = 0
    for n in range(attempts):
        if n and n % 15 == 0:
            shrink += 1
        got = make(shrink)
        if measure(got) <= limit:
            return got
    return make(99)  # depth collapses to leaves; always small


def check_law_axioms(law: DistributiveLawSpec,
                     sampler: Optional[Sampler] = None) -> AxiomReport:
    """Evaluate both legs of the four compatibility diagrams on samples.

    Diagrams: the two unit triangles (a pure layer passes through
    unchanged) and the two multiplication squares (rewriting commutes with
    flattening a repeated layer).  A naturality square under variable
    renaming is checked as well.  Failures carry the offending input and
    both values, printed.

    Each diagram normalizes its first leg, then its second leg only when
    that term differs (by ``==``) from the first: a passing law usually
    gives the same term twice.
    """
    sampler = sampler or Sampler()
    rng = sampler.rng()
    S, T = law.inner, law.outer
    rep = AxiomReport(subject=f"law:{law.name}", seed=sampler.seed)
    d_unit_s = rep.diagram("unit-inner")
    d_mult_s = rep.diagram("mult-inner")
    d_unit_t = rep.diagram("unit-outer")
    d_mult_t = rep.diagram("mult-outer")
    d_nat = rep.diagram("naturality")
    if sampler.samples <= 0:
        return rep
    nf = lambda t: _layered_nf(t, [T, S])

    def nf_again(t: Term, first: Term, first_nf: Term) -> Term:
        """The second leg's normal form, reusing the first leg's."""
        return first_nf if t == first else nf(t)

    def rand(spec: TheorySpec, arity: int, shrink: int) -> Term:
        depth = max(0, sampler.max_depth - shrink)
        if spec.signature or arity > 0:
            return random_term(spec, arity, rng, depth)
        return Var(0)

    for _ in range(sampler.samples):
        k = rng.randint(1, sampler.max_arity)
        j = rng.randint(1, sampler.max_width)
        m = rng.randint(1, sampler.max_width)

        # unit triangle on the inner side: pure outer input is fixed
        t_pure = _draw(lambda sh: T.normalizer(rand(T, k, sh)),
                       expansion_estimate)
        d_unit_s.sample_count += 1
        moved = law.rewrite(t_pure)
        got = nf(moved)
        want = nf_again(t_pure, moved, got)
        if got != want:
            d_unit_s.add_failure(format_term(t_pure), format_term(got),
                                 format_term(want))

        # unit triangle on the outer side: pure inner input is fixed
        s_pure = _draw(lambda sh: rand(S, k, sh), expansion_estimate)
        d_unit_t.sample_count += 1
        moved = law.rewrite(s_pure)
        got = nf(moved)
        want = nf_again(s_pure, moved, got)
        if got != want:
            d_unit_t.add_failure(format_term(s_pure), format_term(got),
                                 format_term(want))

        # multiplication square, inner side: S-over-S-over-T
        def make_mult_s(sh):
            sigma = rand(S, j, sh)
            rhos = [rand(S, m, sh) for _ in range(j)]
            xis = [rand(T, k, sh) for _ in range(m)]
            flat = substitute(substitute(sigma, tuple(rhos)), tuple(xis))
            return sigma, rhos, xis, flat

        sigma, rhos, xis, flat = _draw(make_mult_s,
                                       lambda q: expansion_estimate(q[3]))
        d_mult_s.sample_count += 1
        bottom_raw = law.rewrite(flat)
        bottom = nf(bottom_raw)
        psis = [law.rewrite(substitute(r, tuple(xis))) for r in rhos]
        top = nf_again(law.rewrite(substitute(sigma, tuple(psis))),
                       bottom_raw, bottom)
        if top != bottom:
            d_mult_s.add_failure(format_term(flat), format_term(top),
                                 format_term(bottom))

        # multiplication square, outer side: S-over-T-over-T
        def make_mult_t(sh):
            sigma2 = rand(S, j, sh)
            xis2 = [rand(T, m, sh) for _ in range(j)]
            zetas = [rand(T, k, sh) for _ in range(m)]
            merged = [T.normalizer(substitute(x, tuple(zetas)))
                      for x in xis2]
            return sigma2, xis2, zetas, substitute(sigma2, tuple(merged))

        sigma2, xis2, zetas, flat_t = _draw(make_mult_t,
                                            lambda q: expansion_estimate(q[3]))
        d_mult_t.sample_count += 1
        bottom_raw = law.rewrite(flat_t)
        bottom = nf(bottom_raw)
        v = law.rewrite(substitute(sigma2, tuple(xis2)))
        skel, atoms = split_layer(v, T.op_set)
        # a canonical v repeats one atom object per copy: rewrite it once
        zetas = tuple(zetas)
        hat: dict = {}
        for w in atoms:
            if id(w) not in hat:
                hat[id(w)] = law.rewrite(substitute(w, zetas))
        top = nf_again(substitute(skel, [hat[id(w)] for w in atoms]),
                       bottom_raw, bottom)
        if top != bottom:
            d_mult_t.add_failure(format_term(flat_t),
                                 format_term(top), format_term(bottom))

        # naturality under variable renaming
        def make_nat(sh):
            s_nat = rand(S, m, sh)
            x_nat = [rand(T, k, sh) for _ in range(m)]
            return substitute(s_nat, tuple(x_nat))

        t_nat = _draw(make_nat, expansion_estimate)
        fn = tuple(rng.randrange(k + 1) for _ in range(k))
        d_nat.sample_count += 1
        lhs_raw = substitute(law.rewrite(t_nat), tuple(Var(i) for i in fn))
        lhs = nf(lhs_raw)
        rhs = nf_again(
            law.rewrite(substitute(t_nat, tuple(Var(i) for i in fn))),
            lhs_raw, lhs)
        if lhs != rhs:
            d_nat.add_failure(format_term(t_nat), format_term(lhs),
                              format_term(rhs))
    return rep


# ---------------------------------------------------------------------------
# distributive series and the hexagon condition


@dataclass(frozen=True)
class DistributiveSeries:
    """Theories T1..Tn, outermost first, with a law for every inner pair.

    ``law(i, j)`` for i > j moves Ti (more inner) below Tj (more outer);
    in composite order the stack reads T1 over T2 over ... over Tn.
    """
    theories: tuple
    laws: dict = field(compare=False)
    name: str = "series"

    def __post_init__(self):
        n = len(self.theories)
        for i in range(1, n):
            for j in range(i):
                if (i, j) not in self.laws:
                    raise StructuralError(f"missing law for pair ({i}, {j})")
                law = self.laws[(i, j)]
                if law.inner != self.theories[i] or law.outer != self.theories[j]:
                    raise StructuralError(
                        f"law for ({i}, {j}) has wrong theories")

    def law(self, i: int, j: int) -> DistributiveLawSpec:
        return self.laws[(i, j)]


def whisker(context_ops: frozenset, rw: Callable[[Term], Term]):
    """Apply a rewriter below a skeleton of context operations."""
    def f(t: Term) -> Term:
        skel, atoms = split_layer(t, context_ops)
        return substitute(skel, tuple(rw(a) for a in atoms))
    return f


def _union_ops(theories: Sequence[TheorySpec]) -> frozenset:
    out: frozenset = frozenset()
    for s in theories:
        out |= s.op_set
    return out


def series_composite_left(series: DistributiveSeries, *, check: bool = False,
                          sampler: Optional[Sampler] = None) -> TheorySpec:
    """Composite built as T1 over (T2 over (... over Tn))."""
    return _series_composite(series, 0, check=check, sampler=sampler)


def _series_composite(series: DistributiveSeries, start: int, *,
                      check: bool, sampler) -> TheorySpec:
    ths = series.theories
    n = len(ths)
    if start == n - 1:
        return ths[start]
    inner_spec = _series_composite(series, start + 1, check=check,
                                   sampler=sampler)
    outer = ths[start]

    def rw(t: Term) -> Term:
        # move the outermost theory of the composite out through each of
        # the stacked inner layers, innermost law first
        cur = t
        for c in range(n - 1, start, -1):
            ctx = _union_ops(ths[start + 1:c])
            cur = whisker(ctx, series.law(c, start).rewrite)(cur)
        return _layered_nf(cur, [outer, inner_spec])

    law = DistributiveLawSpec(
        name=f"{series.name}:tail-over-{outer.name}",
        inner=inner_spec, outer=outer, rewrite=rw)
    return composite_theory(law, check=check, sampler=sampler,
                            name=f"{outer.name}*{inner_spec.name}")


def series_composite_right(series: DistributiveSeries, *, check: bool = False,
                           sampler: Optional[Sampler] = None) -> TheorySpec:
    """Composite built as ((T1 over T2) ... ) over Tn."""
    ths = series.theories
    n = len(ths)
    spec = ths[0]
    for c in range(1, n):
        prefix = ths[:c]
        inner = ths[c]

        def rw(t: Term, c=c, prefix=prefix, outer_spec=spec) -> Term:
            cur = t
            for j in range(0, c):
                ctx = _union_ops(prefix[:j])
                cur = whisker(ctx, series.law(c, j).rewrite)(cur)
            return _layered_nf(cur, [outer_spec, ths[c]])

        law = DistributiveLawSpec(
            name=f"{series.name}:{inner.name}-under-prefix",
            inner=inner, outer=spec, rewrite=rw)
        spec = composite_theory(law, check=check, sampler=sampler,
                                name=f"{spec.name}*{inner.name}")
    return spec


def check_yang_baxter(series: DistributiveSeries,
                      sampler: Optional[Sampler] = None) -> Report:
    """Hexagon condition for every inner triple, plus bracketing agreement.

    For each i > j > k both composite paths from the Ti-Tj-Tk layering to
    the Tk-Tj-Ti layering are evaluated on random stacked terms; the
    second path's term is normalized only when it differs from the
    first's.  The two composite theories built from the extreme
    bracketings must agree on random raw terms over the union signature.
    """
    sampler = sampler or Sampler(samples=300)
    rng = sampler.rng()
    rep = Report(subject=f"yang-baxter:{series.name}",
                 bounds={"samples": sampler.samples,
                         "maxDepth": sampler.max_depth,
                         "maxArity": sampler.max_arity},
                 seed=sampler.seed)
    ths = series.theories
    n = len(ths)

    for (i, j) in sorted(series.laws):
        axiom = check_law_axioms(series.laws[(i, j)], sampler)
        rep.check(axiom.passed, stage="pairwise-law",
                  law=series.laws[(i, j)].name, witness=axiom.first_failure)

    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if i > j > k]
    for (i, j, k) in triples:
        Ti, Tj, Tk = ths[i], ths[j], ths[k]
        lam_ij = series.law(i, j).rewrite
        lam_ik = series.law(i, k).rewrite
        lam_jk = series.law(j, k).rewrite
        order = [Tk, Tj, Ti]
        for _ in range(sampler.samples):
            arity = rng.randint(1, sampler.max_arity)
            wj = rng.randint(1, sampler.max_width)
            wk = rng.randint(1, sampler.max_width)

            def make_stack(sh):
                depth = max(0, sampler.max_depth - sh)
                sigma = random_term(Ti, wj, rng, depth)
                betas = [random_term(Tj, wk, rng, depth) for _ in range(wj)]
                gammas = [random_term(Tk, arity, rng, depth)
                          for _ in range(wk)]
                return substitute(sigma, tuple(substitute(b, tuple(gammas))
                                               for b in betas))

            t = _draw(make_stack, expansion_estimate)
            rep.sample_count += 1
            try:
                top = lam_ij(t)
                top = whisker(Tj.op_set, lam_ik)(top)
                top = lam_jk(top)
                bot = whisker(Ti.op_set, lam_jk)(t)
                bot = lam_ik(bot)
                bot = whisker(Tk.op_set, lam_ij)(bot)
                lt = layered_normalize(top, order)
                # a pure function of its input: an equal leg reuses it
                lb = lt if bot == top else layered_normalize(bot, order)
            except StructuralError as exc:
                rep.add_failure(stage=f"hexagon({i},{j},{k})",
                                input=format_term(t), error=str(exc))
                continue
            if lt != lb:
                rep.add_failure(stage=f"hexagon({i},{j},{k})",
                                input=format_term(t),
                                left=format_term(lt), right=format_term(lb))
            else:
                rep.pass_count += 1

    left = series_composite_left(series)
    right = series_composite_right(series)
    union = TheorySpec(name="union", signature=left.signature,
                       normalizer=lambda t: t,
                       atom_enumerator=lambda a, b: [])
    for _ in range(sampler.samples):
        arity = rng.randint(1, sampler.max_arity)
        t = _draw(lambda sh: random_term(union, arity, rng,
                                         max(0, sampler.max_depth + 1 - sh)),
                  expansion_estimate)
        rep.sample_count += 1
        try:
            lv, rv = left.normalize(t), right.normalize(t)
        except StructuralError as exc:
            rep.add_failure(stage="bracketing-agreement",
                            input=format_term(t), error=str(exc))
            continue
        if lv != rv:
            rep.add_failure(stage="bracketing-agreement",
                            input=format_term(t), left=format_term(lv),
                            right=format_term(rv))
        else:
            rep.pass_count += 1
    return rep


# ---------------------------------------------------------------------------
# built-in laws and composites

from functools import lru_cache

from .builtin import ABELIAN_GROUP, MONOID, POINTED, SEMIGROUP

RING_LAW = multiplicative_over_additive_law(MONOID, ABELIAN_GROUP,
                                            name="ring")
PS_LAW = multiplicative_over_pointed_law(SEMIGROUP, POINTED,
                                         name="pointed-semigroup")
SEMIGROUP_SUM_LAW = multiplicative_over_additive_law(SEMIGROUP, ABELIAN_GROUP,
                                                     name="semigroup-sum")
POINTED_SUM_LAW = pointed_over_additive_law(POINTED, ABELIAN_GROUP,
                                            name="pointed-sum")

BUILTIN_LAWS = {
    "ring": RING_LAW,
    "pointed-semigroup": PS_LAW,
    "semigroup-sum": SEMIGROUP_SUM_LAW,
    "pointed-sum": POINTED_SUM_LAW,
}


@lru_cache(maxsize=None)
def ring_theory() -> TheorySpec:
    """Sums of words with integer coefficients."""
    return composite_theory(RING_LAW, name="ring", check=False)


@lru_cache(maxsize=None)
def ps_monoid_theory() -> TheorySpec:
    """Words including the empty one; the point is the unit."""
    return composite_theory(PS_LAW, name="ps-monoid", check=False)


@lru_cache(maxsize=None)
def ring3_series() -> DistributiveSeries:
    """Rings from sums over pointed sets over non-unital products."""
    return DistributiveSeries(
        theories=(ABELIAN_GROUP, POINTED, SEMIGROUP),
        laws={(1, 0): POINTED_SUM_LAW,
              (2, 0): SEMIGROUP_SUM_LAW,
              (2, 1): PS_LAW},
        name="ring3")


BUILTIN_SERIES = {"ring3": ring3_series}
