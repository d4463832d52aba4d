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

from .builtin import (LAYER_READERS, build_sorted_combo, build_word,
                      combo_of, word_atoms)
from .parser import format_term
from .report import AxiomReport, Report
from .sampling import Sampler, random_term
from .terms import (App, StructuralError, Term, TheorySpec, Var, sort_key,
                    substitute)


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


def whisker(ops: frozenset, rw: Callable[[Term], Term]):
    """Apply ``rw`` to every atom below a skeleton of ``ops`` operations:
    split the layer, map its atoms, rebuild the term.

    ``rw`` runs once per distinct atom object (keyed by ``id``), since a
    canonical form repeats one atom object per copy; it must be pure.
    """
    def f(t: Term) -> Term:
        skel, atoms = split_layer(t, ops)
        done: dict = {}
        for a in atoms:
            if id(a) not in done:
                done[id(a)] = rw(a)
        return substitute(skel, [done[id(a)] for a in atoms])
    return f


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
    head, such as a composite, goes through ``whisker``: split, each
    distinct atom object normalized once, rebuilt, all recursing per
    level.
    """
    head = order[0]
    if len(order) == 1:
        return head.normalizer(t)
    rest = order[1:]
    leaf = (rest[0].normalizer if len(rest) == 1
            else lambda a: _layered_nf(a, rest))
    return _layer_reader(head)(t, leaf)


def _layer_reader(spec: TheorySpec) -> Callable[[Term, Callable], Term]:
    """``read(t, leaf)``: the normal form of the layer of ``spec``'s
    operations at the top of t, with each atom replaced by ``leaf(atom)``.
    A built-in spec reads it in one loop (``LAYER_READERS``); any other
    splits it with ``whisker`` and normalizes the rebuilt term."""
    read = LAYER_READERS.get(id(spec))
    if read is not None:
        return read
    return lambda t, leaf: spec.normalizer(whisker(spec.op_set, leaf)(t))


@dataclass(frozen=True)
class DistributiveLawSpec:
    """A rewriter moving the inner theory's layer below the outer one.

    ``rewrite`` must accept any term whose inner-theory operations sit
    above its outer-theory operations (anything else opaque below), and
    must return the same element with the outer layer on top and both
    layers normalized.  A composite theory's normalizer calls it once
    per maximal inner layer, on that whole layer in the inner theory's
    normal form over atoms that are composite normal forms: outer
    layers over inner ones, which it must read through as well.
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
    unit_key = sort_key(App(unit, ())) if unit is not None else None

    def word_key(chain: tuple, keys: list):
        # sort_key of the right-nested word over the chain's atoms
        if not chain:
            return unit_key
        size, key = keys[chain[-1]]
        for i in reversed(chain[:-1]):
            s, k = keys[i]
            size += 1 + s
            key = (1, mul.name, mul.theory, (k, key))
        return size, key

    def rw(t: Term) -> Term:
        # each distinct atom gets a number, in first-occurrence order, and
        # each summand is (its word's atom numbers, its coefficient),
        # flattened once here rather than once per choice below
        number: dict = {}
        combos = [[(tuple([number.setdefault(a, len(number))
                           for a in word_atoms(s, mul, unit)]), c)
                   for s, c in combo_of(leaf, add, neg, zero).items()]
                  for leaf in word_atoms(t, mul, unit)]
        # keyed by chain of atom numbers: equal chains make equal words
        acc: dict = {}
        for choice in itertools.product(*combos):
            coeff = prod((c for _, c in choice), start=1)
            chain: list = []
            for w, _ in choice:
                chain.extend(w)
            key = tuple(chain)
            acc[key] = acc.get(key, 0) + coeff
        # the surviving monomials are sorted by keys put together from
        # their atoms' keys, one sort_key per atom (a single monomial
        # needs no order), then each is built once
        atoms = list(number)
        items = [kv for kv in acc.items() if kv[1] != 0]
        if len(items) > 1:
            keys = [sort_key(a) for a in atoms]
            items.sort(key=lambda kv: word_key(kv[0], keys))
        return build_sorted_combo(
            [(build_word([atoms[i] for i in k], mul, unit), v)
             for k, v in items], add, neg, zero)

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
    """Relayering only: a sum stays a sum, the point becomes a basis atom,
    so the rewrite is the additive normal form."""
    return DistributiveLawSpec(
        name=name or f"{pointed.name}-over-{additive.name}",
        inner=pointed, outer=additive, rewrite=additive.normalizer,
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
                     check: bool = True) -> TheorySpec:
    """The theory whose normal forms are outer-layer forms over inner atoms.

    The normalizer reads each maximal layer once, at its topmost node,
    with every atom of the layer (every maximal subterm headed by
    anything else) replaced by its own normal form, as ``_layered_nf``
    does: an outer layer is read into the outer theory's normal form,
    and an inner layer into the inner theory's, which ``law.rewrite``
    then turns outer side up, one call per inner layer (``_layer_reader``
    reads a layer).  A node of neither theory is rebuilt over its
    arguments' normal forms.

    By default the law's compatibility diagrams are checked first, on 120
    samples, and a failing law is rejected with its counterexample.
    """
    if check:
        rep = check_law_axioms(law, Sampler(samples=120))
        if not rep.passed:
            raise StructuralError(
                f"law {law.name} fails its axioms: {rep.first_failure}")
    outer, inner = law.outer, law.inner
    signature = outer.signature + inner.signature
    outer_ops = outer.op_set
    inner_ops = inner.op_set

    read_outer = _layer_reader(outer)
    read_inner = _layer_reader(inner)

    def normalize_fn(t: Term) -> Term:
        if isinstance(t, Var):
            return t
        op = t[0]
        if op in outer_ops:
            return read_outer(t, normalize_fn)
        if op in inner_ops:
            return law.rewrite(read_inner(t, normalize_fn))
        return tuple.__new__(App, (op, tuple([normalize_fn(a)
                                              for a in t[1]])))

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
    renaming is checked as well, after the rewrite of its S-over-T input
    is checked to be layered T over S: a rewrite that is not fails the
    sample with "not layered" as its second value, so a rewrite that swaps
    no layers fails.  Failures carry the offending input and both values,
    printed.

    One helper, ``compare``, counts each sample.  Two legs that are equal
    (by ``==``) pass at once, with no normal form, since a passing law
    usually gives the same term twice; only legs that differ are
    normalized, the first leg first.  So a normalizer that rejects a
    law's output raises at the first sample whose legs differ.
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
    layers = [T.op_set, S.op_set]

    def compare(diagram, shown: Term, first: Term, second: Term,
                top_first: bool = False):
        """Count one sample of ``diagram``.  A failure prints ``shown``
        and both legs' forms, ``second`` (a square's top leg) first when
        ``top_first``."""
        diagram.sample_count += 1
        if second == first:
            return
        a = _layered_nf(first, [T, S])
        b = _layered_nf(second, [T, S])
        if a != b:
            if top_first:
                a, b = b, a
            diagram.add_failure(format_term(shown), format_term(a),
                                format_term(b))

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
        compare(d_unit_s, t_pure, law.rewrite(t_pure), t_pure)

        # unit triangle on the outer side: pure inner input is fixed
        s_pure = _draw(lambda sh: rand(S, k, sh), expansion_estimate)
        compare(d_unit_t, s_pure, law.rewrite(s_pure), s_pure)

        # multiplication square, inner side: S-over-S-over-T
        def make_mult_s(sh):
            sigma = rand(S, j, sh)
            rhos = [rand(S, m, sh) for _ in range(j)]
            xis = [rand(T, k, sh) for _ in range(m)]
            flat = substitute(substitute(sigma, tuple(rhos)), tuple(xis))
            return sigma, rhos, xis, flat

        sigma, rhos, xis, flat = _draw(make_mult_s,
                                       lambda q: expansion_estimate(q[3]))
        psis = [law.rewrite(substitute(r, tuple(xis))) for r in rhos]
        compare(d_mult_s, flat, law.rewrite(flat),
                law.rewrite(substitute(sigma, tuple(psis))), top_first=True)

        # multiplication square, outer side: S-over-T-over-T
        def make_mult_t(sh):
            sigma2 = rand(S, j, sh)
            xis2 = [rand(T, m, sh) for _ in range(j)]
            zetas = tuple(rand(T, k, sh) for _ in range(m))
            merged = [T.normalizer(substitute(x, zetas)) for x in xis2]
            return sigma2, xis2, zetas, substitute(sigma2, tuple(merged))

        sigma2, xis2, zetas, flat_t = _draw(make_mult_t,
                                            lambda q: expansion_estimate(q[3]))
        top = whisker(T.op_set, lambda w: law.rewrite(substitute(w, zetas)))(
            law.rewrite(substitute(sigma2, tuple(xis2))))
        compare(d_mult_t, flat_t, law.rewrite(flat_t), top, top_first=True)

        # naturality under variable renaming
        def make_nat(sh):
            s_nat = rand(S, m, sh)
            x_nat = [rand(T, k, sh) for _ in range(m)]
            return substitute(s_nat, tuple(x_nat))

        t_nat = _draw(make_nat, expansion_estimate)
        rename = tuple(Var(rng.randrange(k + 1)) for _ in range(k))
        swapped = law.rewrite(t_nat)
        if not check_layer_order(swapped, layers):
            d_nat.sample_count += 1
            d_nat.add_failure(format_term(t_nat), format_term(swapped),
                              "not layered")
            continue
        compare(d_nat, t_nat, substitute(swapped, rename),
                law.rewrite(substitute(t_nat, rename)))
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


def series_composite_left(series: DistributiveSeries) -> TheorySpec:
    """Composite built as T1 over (T2 over (... over Tn))."""
    return _series_composite(series, 0)


def _series_composite(series: DistributiveSeries, start: int) -> TheorySpec:
    ths = series.theories
    n = len(ths)
    if start == n - 1:
        return ths[start]
    inner_spec = _series_composite(series, start + 1)
    outer = ths[start]

    def rw(t: Term) -> Term:
        # move the outermost theory of the composite out through each of
        # the stacked inner layers, innermost law first
        cur = t
        for c in range(n - 1, start, -1):
            ctx = frozenset().union(*(s.op_set for s in ths[start + 1:c]))
            cur = whisker(ctx, series.law(c, start).rewrite)(cur)
        return _layered_nf(cur, [outer, inner_spec])

    law = DistributiveLawSpec(
        name=f"{series.name}:tail-over-{outer.name}",
        inner=inner_spec, outer=outer, rewrite=rw)
    return composite_theory(law, check=False,
                            name=f"{outer.name}*{inner_spec.name}")


def series_composite_right(series: DistributiveSeries) -> TheorySpec:
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
                ctx = frozenset().union(*(s.op_set for s in prefix[:j]))
                cur = whisker(ctx, series.law(c, j).rewrite)(cur)
            return _layered_nf(cur, [outer_spec, ths[c]])

        law = DistributiveLawSpec(
            name=f"{series.name}:{inner.name}-under-prefix",
            inner=inner, outer=spec, rewrite=rw)
        spec = composite_theory(law, check=False,
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

    def agree(stage: str, t: Term, legs: Callable[[Term], tuple]):
        """Count one sample of ``stage``: the two values ``legs(t)`` must
        be equal.  Terms are printed only on a failure."""
        try:
            lv, rv = legs(t)
        except StructuralError as exc:
            rep.check(False, stage=stage, input=format_term(t),
                      error=str(exc))
            return
        if lv == rv:
            rep.check(True)
        else:
            rep.check(False, stage=stage, input=format_term(t),
                      left=format_term(lv), right=format_term(rv))

    triples = [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
               if i > j > k]
    for (i, j, k) in triples:
        Ti, Tj, Tk = ths[i], ths[j], ths[k]
        lam_ij = series.law(i, j).rewrite
        lam_ik = series.law(i, k).rewrite
        lam_jk = series.law(j, k).rewrite
        order = [Tk, Tj, Ti]

        def hexagon(t: Term) -> tuple:
            top = lam_jk(whisker(Tj.op_set, lam_ik)(lam_ij(t)))
            bot = whisker(Tk.op_set, lam_ij)(
                lam_ik(whisker(Ti.op_set, lam_jk)(t)))
            lt = layered_normalize(top, order)
            # a pure function of its input: an equal leg reuses it
            return lt, lt if bot == top else layered_normalize(bot, order)

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

            agree(f"hexagon({i},{j},{k})", _draw(make_stack,
                                                 expansion_estimate), hexagon)

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
        agree("bracketing-agreement", t,
              lambda t: (left.normalize(t), right.normalize(t)))
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
