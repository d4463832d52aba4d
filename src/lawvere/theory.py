"""Algebraic theories as categories of arities.

``LawvereTheory(fragment)`` is Phi of a finitary monad fragment: a
morphism n -> m is an m-tuple of elements of F[n], composition is Kleisli
substitution, and variable picking embeds the category of finite sets,
contravariantly, through the unit.  Objects are natural numbers and k + m
is the product of k and m.  A term theory's is
``LawvereTheory(correspondence.TheoryFragment(spec))``: its elements are
normal terms and composing substitutes and renormalizes.  Hom-sets of
infinite carriers are enumerated under a size bound; finite ones
tabulate as a ``FiniteCategory`` through ``truncate``.

``TheoryMorphism`` is a term-theory morphism that carries its spec, the
form factorisation works on.  Every public way to build one validates it:
``TheoryMorphism(...)`` checks the component count, that no component
uses a variable outside the source arity and that each component is
normal, and ``morphism()`` normalizes its components and then runs the
same checks.  Morphisms whose components are normal and within the
source by construction go through the internal ``_trusted`` instead,
which skips the checks.  Each site rests on one ``TheorySpec`` contract:

* idempotent normalizers that fix variables: ``compose`` (normal forms of
  substitutions of in-range components; after an inclusion, whose
  component i is ``Var(i)``, the composite's components are g's own,
  neither substituted nor normalized, which is exact only because every
  morphism's components, trusted ones included, are normal),
  ``basic_morphism`` (variables only) and ``factorization.factorize``
  (normal forms of subterms of the input, each checked pure in the inner
  layer, and of outer skeletons over the middle variables);
* normal enumerators (``atom_enumerator`` lists only normal forms over
  the atoms it is given): the hom-set morphisms of
  ``factorization.check_fs_over_base``;
* components picked from, or permuted within, an already-checked
  morphism, plus atoms checked once where they enter: the left parts of
  ``factorization._bounded_alternatives`` (the spare atoms are checked
  once per source arity), of ``factorization._neighbours`` (its pool
  is filtered once per search by ``_search_witness``) and of a witness's
  last pair, which ``_step_to`` finds by the same steps.  Their right
  parts are renamings by ``compose`` or normal lifts over the same outer
  operations.

A mutant normalizer that breaks the contract is still caught wherever a
morphism is built from outside.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .fincat import FiniteCategory, Morphism
from .fragments import FinitaryMonadFragment
from .report import Report
from .terms import (StructuralError, Term, TheorySpec, Var, max_var,
                    substitute)


@dataclass(frozen=True)
class BaseFunction:
    """A function [dom] -> [cod]; read contravariantly it is the basic
    morphism cod -> dom of every theory."""
    dom: int
    cod: int
    table: tuple

    def __post_init__(self):
        if len(self.table) != self.dom:
            raise StructuralError("table length differs from dom")
        if any(not (0 <= v < self.cod) for v in self.table):
            raise StructuralError("table entry outside cod")

    def __call__(self, i: int) -> int:
        return self.table[i]


def compose_base(g: BaseFunction, f: BaseFunction) -> BaseFunction:
    """g after f as plain functions."""
    if f.cod != g.dom:
        raise StructuralError("base functions do not compose")
    return BaseFunction(f.dom, g.cod, tuple(g.table[v] for v in f.table))


def identity_base(n: int) -> BaseFunction:
    return BaseFunction(n, n, tuple(range(n)))


def all_base_functions(dom: int, cod: int) -> Iterator[BaseFunction]:
    for table in itertools.product(range(cod), repeat=dom):
        yield BaseFunction(dom, cod, table)


@dataclass(frozen=True)
class TheoryMorphism:
    theory: TheorySpec
    source: int
    target: int
    components: tuple

    def __post_init__(self):
        if len(self.components) != self.target:
            raise StructuralError(
                f"expected {self.target} components, got {len(self.components)}")
        for c in self.components:
            if max_var(c) >= self.source:
                raise StructuralError(
                    f"component uses a variable outside arity {self.source}")
            if not self.theory.is_normal(c):
                raise StructuralError("component is not in normal form")

    def __repr__(self):
        return (f"TheoryMorphism({self.theory.name}: {self.source}->"
                f"{self.target}, {list(self.components)})")


def _trusted(theory: TheorySpec, source: int,
             components: tuple) -> TheoryMorphism:
    """A morphism from components known to be normal and to use only
    variables below ``source``; the checks of ``__post_init__`` are
    skipped.  Internal: only for the construction sites listed in the
    module docstring."""
    f = object.__new__(TheoryMorphism)
    f.__dict__.update(theory=theory, source=source,
                      target=len(components), components=components)
    return f


def morphism(theory: TheorySpec, source: int,
             components: Sequence[Term]) -> TheoryMorphism:
    """Build a morphism, normalizing the given components."""
    comps = tuple(theory.normalize(c) for c in components)
    return TheoryMorphism(theory, source, len(comps), comps)


def identity_morphism(theory: TheorySpec, k: int) -> TheoryMorphism:
    return TheoryMorphism(theory, k, k, _variables(k))


def compose(g: TheoryMorphism, f: TheoryMorphism) -> TheoryMorphism:
    """Substitution composition; g after f."""
    if f.theory is not g.theory and f.theory != g.theory:
        raise StructuralError("morphisms live in different theories")
    if f.target != g.source:
        raise StructuralError(
            f"objects do not match: {f.target} vs {g.source}")
    if f.components == _variables(f.target):
        # f includes f.target into f.source: g's normal components, over
        # variables below f.target, are the composite's
        return _trusted(g.theory, f.source, g.components)
    # f's components use variables below f.source, so these do too
    comps = tuple(g.theory.normalize(substitute(c, f.components))
                  for c in g.components)
    return _trusted(g.theory, f.source, comps)


@functools.cache
def _variables(n: int) -> tuple:
    """``(Var(0), ..., Var(n - 1))``.  A component equals ``Var(i)`` only
    if it is one: an ``App`` is a pair, a ``Var`` a one-tuple."""
    return tuple(map(Var, range(n)))


def basic_morphism(theory: TheorySpec, alpha: BaseFunction) -> TheoryMorphism:
    """The embedding of a base function: component i is Var(alpha(i)).
    Trusted: alpha bounds the variables, and every variable is normal."""
    return _trusted(theory, alpha.cod, tuple(map(Var, alpha.table)))


class LawvereTheory:
    """Phi of a fragment: hom(n, m) is the functions [m] -> F[n], as
    m-tuples of carrier elements; composition is Kleisli."""

    def __init__(self, fragment: FinitaryMonadFragment):
        self.fragment = fragment
        self.name = fragment.name

    def hom(self, n: int, m: int, bound: Optional[int] = None) -> list:
        return list(itertools.product(self.fragment.carrier(n, bound),
                                      repeat=m))

    def compose(self, g: tuple, f: tuple) -> tuple:
        """g: m -> p after f: n -> m, both as element tuples."""
        return tuple(self.fragment.subst(e, f) for e in g)

    def identity(self, n: int) -> tuple:
        return tuple(self.fragment.unit(n, i) for i in range(n))

    def basic(self, alpha: BaseFunction) -> tuple:
        """The embedded morphism alpha.cod -> alpha.dom."""
        return tuple(self.fragment.unit(alpha.cod, alpha(i))
                     for i in range(alpha.dom))

    def truncate(self, sizes: Sequence[int],
                 name: str = "") -> FiniteCategory:
        """The full subcategory on the arities ``sizes``, validated; the
        arrow f: n -> m is named ``n->m:`` and f's elements joined by
        commas.  Only fragments with finite carriers have one."""
        if not self.fragment.finite:
            raise StructuralError(
                f"{self.name} has infinite carriers: no finite truncation")
        objects = list(sizes)
        homs = {(n, m): self.hom(n, m) for n in objects for m in objects}

        def mname(n, m, f):
            return f"{n}->{m}:{','.join(map(str, f))}"

        morphisms = [Morphism(mname(n, m, f), n, m)
                     for (n, m), fs in homs.items() for f in fs]
        comp = {(mname(m, p, g), mname(n, m, f)):
                mname(n, p, self.compose(g, f))
                for (n, m), fs in homs.items() for f in fs
                for p in objects for g in homs[(m, p)]}
        idents = {n: mname(n, n, self.identity(n)) for n in objects}
        return FiniteCategory(name or f"{self.name}{objects}", objects,
                              morphisms, idents, comp)


class NoDiagonalsTheory(LawvereTheory):
    """A term theory restricted to the tuples in which no variable is
    used twice across the components.

    Dropping the diagonal basic morphisms breaks the product structure;
    this exists purely as a counterexample feed for the product checker.
    """

    def hom(self, n: int, m: int, bound: Optional[int] = None) -> list:
        out = []
        for f in super().hom(n, m, bound):
            occ = [v for c in f for v in _var_occurrences(c)]
            if len(occ) == len(set(occ)):
                out.append(f)
        return out


def _var_occurrences(t: Term) -> list:
    if isinstance(t, Var):
        return [t.index]
    out: list = []
    for a in t.args:
        out.extend(_var_occurrences(a))
    return out


def check_product_structure(theory: LawvereTheory, k: int, m: int,
                            *, p_values: Iterable[int] = (0, 1, 2),
                            size_bound: int = 3,
                            sample_count: Optional[int] = None,
                            seed: int = 0) -> Report:
    """Verify that k + m behaves as the product of k and m.

    For morphism pairs (f: p -> k, g: p -> m) checks that the pairing
    f + g is in the bounded hom-set p -> k + m and satisfies the
    projection equations, and for morphisms h: p -> k + m that pairing
    the two projections of h gives h back.  Failures are collected, not
    raised; bounds that leave nothing to check raise ``StructuralError``.
    """
    import random
    rng = random.Random(seed)
    ps = list(p_values)
    rep = Report(subject=f"product-structure:{theory.name}",
                 bounds={"k": k, "m": m, "sizeBound": size_bound, "p": ps},
                 seed=seed)
    p1 = theory.basic(BaseFunction(k, k + m, tuple(range(k))))
    p2 = theory.basic(BaseFunction(m, k + m, tuple(range(k, k + m))))

    def run_pair(f, g, hom_km):
        rep.sample_count += 1
        h = f + g
        ok = True
        if h not in hom_km:
            rep.add_failure(check="pairing-exists", f=repr(f), g=repr(g))
            ok = False
        else:
            if theory.compose(p1, h) != f:
                rep.add_failure(check="projection-1", f=repr(f), g=repr(g))
                ok = False
            if theory.compose(p2, h) != g:
                rep.add_failure(check="projection-2", f=repr(f), g=repr(g))
                ok = False
        if ok:
            rep.pass_count += 1

    for p in ps:
        fs = theory.hom(p, k, size_bound)
        gs = theory.hom(p, m, size_bound)
        hs = theory.hom(p, k + m, size_bound)
        if sample_count is not None:
            pairs = [(rng.choice(fs), rng.choice(gs))
                     for _ in range(sample_count) if fs and gs]
            picks = [rng.choice(hs) for _ in range(sample_count) if hs]
        else:
            pairs = list(itertools.product(fs, gs))
            picks = hs
        hom_km = set(hs)
        for f, g in pairs:
            run_pair(f, g, hom_km)
        for h in picks:
            rep.check(theory.compose(p1, h) + theory.compose(p2, h) == h,
                      check="surjective-pairing", h=repr(h))
    if not rep.sample_count:
        raise StructuralError(
            f"k={k}, m={m}, p in {ps} and size bound {size_bound} leave "
            "nothing to check")
    return rep


def morphism_to_json(f: TheoryMorphism) -> dict:
    from .parser import format_term
    return {"source": f.source, "target": f.target,
            "components": [format_term(c) for c in f.components]}


def morphism_from_json(data: dict, theory: TheorySpec) -> TheoryMorphism:
    from .parser import parse_term
    comps = [parse_term(s, theory, data["source"])
             for s in data["components"]]
    got = TheoryMorphism(theory, data["source"], data["target"], tuple(comps))
    return got
