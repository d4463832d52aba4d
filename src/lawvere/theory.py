"""Algebraic theories as categories of arities.

A morphism k -> m is an m-tuple of normal terms in k variables; composing
g after f substitutes f's tuple into each component of g and renormalizes.
Objects are natural numbers, k + m is the product of k and m, and the
basic morphisms (variable picking) embed the category of finite sets,
contravariantly.

Every public way to build a morphism validates it: ``TheoryMorphism(...)``
checks the component count, that no component uses a variable outside the
source arity and that each component is normal, and ``morphism()``
normalizes its components and then runs the same checks.  Morphisms whose
components are normal and within the source by construction go through
the internal ``_trusted`` instead, which skips the checks.  Each site
rests on one ``TheorySpec`` contract:

* idempotent normalizers that fix variables: ``compose`` (normal forms of
  substitutions of in-range components), ``basic_morphism`` (variables
  only) and ``factorization.factorize`` (normal forms of subterms of the
  input and of outer skeletons over the middle variables);
* normal enumerators (``atom_enumerator`` lists only normal forms over
  the atoms it is given): the hom-set morphisms of
  ``factorization.check_fs_over_base``;
* components picked from, or permuted within, an already-checked
  morphism, plus atoms checked once where they enter: the left parts of
  ``factorization._bounded_alternatives`` (the spare atoms are checked
  once per source arity), of ``factorization._neighbours`` (its pool
  is filtered once per search by ``_search_witness``) and of a witness's
  last pair, which ``_step_to`` finds by the same steps.

A mutant normalizer that breaks the contract is still caught wherever a
morphism is built from outside.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

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
    return TheoryMorphism(theory, k, k, tuple(Var(i) for i in range(k)))


def compose(g: TheoryMorphism, f: TheoryMorphism) -> TheoryMorphism:
    """Substitution composition; g after f."""
    if f.theory is not g.theory and f.theory != g.theory:
        raise StructuralError("morphisms live in different theories")
    if f.target != g.source:
        raise StructuralError(
            f"objects do not match: {f.target} vs {g.source}")
    # f's components use variables below f.source, so these do too
    comps = tuple(g.theory.normalize(substitute(c, f.components))
                  for c in g.components)
    return _trusted(g.theory, f.source, comps)


def basic_morphism(theory: TheorySpec, alpha: BaseFunction) -> TheoryMorphism:
    """The embedding of a base function: component i is Var(alpha(i)).
    Trusted: alpha bounds the variables, and every variable is normal."""
    return _trusted(theory, alpha.cod, tuple(map(Var, alpha.table)))


def pairing(f: TheoryMorphism, g: TheoryMorphism) -> TheoryMorphism:
    """The tuple <f, g>: p -> k + m by concatenating components."""
    if f.source != g.source:
        raise StructuralError("pairing needs a common source")
    return TheoryMorphism(f.theory, f.source, f.target + g.target,
                          f.components + g.components)


def projections(theory: TheorySpec, k: int, m: int):
    """The two product projections out of k + m."""
    p1 = basic_morphism(theory, BaseFunction(k, k + m, tuple(range(k))))
    p2 = basic_morphism(theory, BaseFunction(m, k + m,
                                             tuple(range(k, k + m))))
    return p1, p2


class LawvereTheory:
    """A theory spec viewed as a category with enumerable hom-sets.

    Hom-sets are intensional: most are infinite, so they are only ever
    enumerated under a size bound.
    """

    def __init__(self, spec: TheorySpec):
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def identity(self, k: int) -> TheoryMorphism:
        return identity_morphism(self.spec, k)

    def compose(self, g: TheoryMorphism, f: TheoryMorphism) -> TheoryMorphism:
        return compose(g, f)

    def basic(self, alpha: BaseFunction) -> TheoryMorphism:
        return basic_morphism(self.spec, alpha)

    def contains(self, f: TheoryMorphism) -> bool:
        return True

    def hom_terms(self, k: int, size_bound: int) -> list:
        return self.spec.enumerate_normal(k, size_bound)

    def hom(self, k: int, m: int, size_bound: int) -> Iterator[TheoryMorphism]:
        """All morphisms k -> m whose components have size <= size_bound."""
        pool = self.hom_terms(k, size_bound)
        for comps in itertools.product(pool, repeat=m):
            yield TheoryMorphism(self.spec, k, m, tuple(comps))

    def hom_in(self, k: int, m: int, size_bound: int) -> Iterator[TheoryMorphism]:
        return (f for f in self.hom(k, m, size_bound) if self.contains(f))


class NoDiagonalsTheory(LawvereTheory):
    """Restriction in which no variable may be used twice across a tuple.

    Dropping the diagonal basic morphisms breaks the product structure;
    this exists purely as a counterexample feed for the product checker.
    """

    def contains(self, f: TheoryMorphism) -> bool:
        occ: list = []
        for c in f.components:
            occ.extend(_var_occurrences(c))
        return len(occ) == len(set(occ))


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
    exists in the category and satisfies the projection equations, and for
    morphisms h: p -> k + m that pairing the two projections of h gives h
    back.  Failures are collected, not raised.
    """
    import random
    rng = random.Random(seed)
    rep = Report(subject=f"product-structure:{theory.name}",
                 bounds={"k": k, "m": m, "sizeBound": size_bound,
                         "p": list(p_values)},
                 seed=seed)
    p1, p2 = projections(theory.spec, k, m)

    def run_pair(f, g):
        rep.sample_count += 1
        h = pairing(f, g)
        ok = True
        if not theory.contains(h):
            rep.add_failure(check="pairing-exists", f=repr(f), g=repr(g))
            ok = False
        else:
            if compose(p1, h) != f:
                rep.add_failure(check="projection-1", f=repr(f), g=repr(g))
                ok = False
            if compose(p2, h) != g:
                rep.add_failure(check="projection-2", f=repr(f), g=repr(g))
                ok = False
        if ok:
            rep.pass_count += 1

    def run_surjective(h):
        rep.sample_count += 1
        back = pairing(compose(p1, h), compose(p2, h))
        if back != h:
            rep.add_failure(check="surjective-pairing", h=repr(h))
        else:
            rep.pass_count += 1

    for p in p_values:
        fs = list(theory.hom_in(p, k, size_bound))
        gs = list(theory.hom_in(p, m, size_bound))
        hs = list(theory.hom_in(p, k + m, size_bound))
        if sample_count is not None:
            pairs = [(rng.choice(fs), rng.choice(gs))
                     for _ in range(sample_count) if fs and gs]
            picks = [rng.choice(hs) for _ in range(sample_count) if hs]
        else:
            pairs = list(itertools.product(fs, gs))
            picks = hs
        for f, g in pairs:
            run_pair(f, g)
        for h in picks:
            run_surjective(h)
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
