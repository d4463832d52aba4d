"""The dictionary between theories of arities and finitary monads
presented by fragments.

One direction is ``phi``: a fragment tabulates as the theory
``theory.LawvereTheory(fragment)``, whose morphisms n -> m are the
functions from [m] into the carrier F[n], composed by Kleisli
substitution; a term theory's is ``phi(TheoryFragment(spec))``.  The
other direction rebuilds a monad's value on a finite set as a truncated
coend over arities, with an explicit stabilization flag.

Every quotient over arities here, in ``monad_from_theory``,
``roundtrip_check`` and both halves of ``istar_composite``, is the one
arity coend ``pcompletion.KeypropComputation`` that keyprop uses, read
through its representatives and its class values alone.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

from .distlaw import DistributiveLawSpec, check_law_axioms, composite_theory
from .fragments import IDENTITY_MONAD, FinitaryMonadFragment
from .parser import format_term
from .pcompletion import KeypropComputation
from .profunctor import _label_key
from .report import Report
from .sampling import Sampler
from .terms import StructuralError, Term, TheorySpec, Var, substitute
from .theory import LawvereTheory


def phi(fragment: FinitaryMonadFragment) -> LawvereTheory:
    """Tabulate a finitary monad fragment as a theory of arities."""
    return LawvereTheory(fragment)


class TheoryFragment(FinitaryMonadFragment):
    """A term theory's normal forms as a fragment: F[n] is the normal
    forms over n variables (5 nodes unless bounded otherwise), acting by
    renaming variables and substituting, each followed by normalization."""

    def __init__(self, spec: TheorySpec):
        self.spec = spec
        self.name = spec.name

    def carrier(self, n, bound=None):
        return self.spec.enumerate_normal(n, 5 if bound is None else bound)

    def map(self, table, n_to, e):
        return self.subst(e, tuple(Var(i) for i in table))

    def _unit(self, i):
        return Var(i)

    def subst(self, e, sigma):
        return self.spec.normalize(substitute(e, sigma))


# ---------------------------------------------------------------------------
# natural transformations between fragments


@dataclass
class MonadMap:
    """A transformation between fragments, one component per arity."""
    name: str
    src: FinitaryMonadFragment
    tgt: FinitaryMonadFragment
    component: Callable

    def at(self, n: int, e):
        return self.component(n, e)


def monad_map_natural(alpha: MonadMap, n_bound: int,
                      carrier_bound: Optional[int] = None) -> bool:
    """Exhaustive naturality squares over tables between small arities."""
    for n in range(n_bound + 1):
        for m in range(n_bound + 1):
            for table in itertools.product(range(m), repeat=n):
                for e in alpha.src.carrier(n, carrier_bound):
                    lhs = alpha.tgt.map(table, m, alpha.at(n, e))
                    rhs = alpha.at(m, alpha.src.map(table, m, e))
                    if lhs != rhs:
                        return False
    return True


def tabulate_map(alpha: MonadMap, f: tuple, n: int) -> tuple:
    """Post-compose a tabulated morphism with the transformation."""
    return tuple(alpha.at(n, e) for e in f)


def reconstruct_map(tableF: LawvereTheory, tableG: LawvereTheory,
                    beta: Callable, n_bound: int,
                    carrier_bound: Optional[int] = None) -> Optional[MonadMap]:
    """Rebuild a transformation from the (n, 1) components of a natural
    family and verify the family is its tabulation on the fragment."""
    comp: dict = {}
    for n in range(n_bound + 1):
        for e in tableF.fragment.carrier(n, carrier_bound):
            out = beta(n, 1, (e,))
            comp[(n, e)] = out[0]
    alpha = MonadMap(name="reconstructed", src=tableF.fragment,
                     tgt=tableG.fragment,
                     component=lambda n, e: comp[(n, e)])
    for n in range(n_bound + 1):
        for m in range(3):
            for f in tableF.hom(n, m, carrier_bound):
                if beta(n, m, f) != tabulate_map(alpha, f, n):
                    return None
    return alpha


# ---------------------------------------------------------------------------
# the coend reconstruction of a monad from a theory


@dataclass
class CoendResult:
    """Each class's representative -> its value in F[x], classes in the
    order of their first members."""
    invariants: dict
    stable: bool
    truncation: int

    @property
    def size(self) -> int:
        return len(self.invariants)


def monad_from_theory(table: LawvereTheory, x: int, truncation: int,
                      size_bound: Optional[int] = None) -> CoendResult:
    """Value on a set of size x of the monad rebuilt from a theory table.

    Elements are classes of an operation e of some arity n <= truncation
    together with an assignment v: [n] -> [x] of its inputs, written
    (n, v, (e,)) and valued in F[x]; the result carries a flag recording
    whether one more arity level changes the quotient.  The
    representatives and their invariants are read at the truncation; the
    flag comes from extending the same quotient by one level in place and
    comparing class counts.
    """
    comp = KeypropComputation(table.fragment, x, 1, truncation, size_bound)
    invariants = {r: comp.invariant(r)[0] for r in comp.representatives()}
    comp.extend()
    return CoendResult(invariants=invariants,
                       stable=comp.class_count() == len(invariants),
                       truncation=truncation)


def roundtrip_check(fragment: FinitaryMonadFragment, x_bound: int,
                    *, truncation: Optional[int] = None,
                    size_bound: Optional[int] = None) -> Report:
    """Rebuilding the tabulated fragment recovers it, naturally.

    For every x <= x_bound the coend classes biject with the carrier F[x]
    through evaluation, and for every function between the tested sets
    the class-level transport matches the fragment's own action.  A
    negative x_bound leaves nothing to check and raises
    ``StructuralError``.
    """
    table = phi(fragment)
    trunc = truncation if truncation is not None else x_bound + 1
    rep = Report(subject=f"roundtrip:{fragment.name}",
                 bounds={"xBound": x_bound, "truncation": trunc,
                         "sizeBound": size_bound})
    stability = {}
    results = {}
    for x in range(x_bound + 1):
        res = monad_from_theory(table, x, trunc, size_bound)
        results[x] = res
        carrier = fragment.carrier(x, size_bound)
        invs = sorted(set(map(_label_key, res.invariants.values())))
        want = sorted(set(map(_label_key, carrier)))
        stability[f"x={x}"] = res.stable
        rep.check(res.size == len(carrier) and invs == want and res.stable,
                  x=x, classes=res.size, carrier=len(carrier),
                  valuesMatch=invs == want, stable=res.stable)
    # naturality of the identification under every function [x] -> [x2]
    for x in range(x_bound + 1):
        for x2 in range(x_bound + 1):
            for h in itertools.product(range(x2), repeat=x):
                rep.check(all(
                    fragment.map(h, x2, inv) ==
                    fragment.map(tuple(h[v[i]] for i in range(n)), x2, e)
                    for (n, v, (e,)), inv in results[x].invariants.items()),
                    check="naturality", x=x, x2=x2, h=h)
    if not rep.sample_count:
        raise StructuralError(f"x bound {x_bound} leaves nothing to check")
    rep.stability = stability
    return rep


# ---------------------------------------------------------------------------
# composite theories against composite monads


def encode_term(fragment: FinitaryMonadFragment, t: Term):
    """Interpret a term as a fragment element: variables through the unit,
    operations through the fragment's interpretation table."""
    if isinstance(t, Var):
        return fragment._unit(t.index)
    op = fragment.interpretation.get(t.op.name)
    if op is None:
        raise StructuralError(
            f"no interpretation of {t.op!r} in fragment {fragment.name}")
    return op(*(encode_term(fragment, a) for a in t.args))


def composition_pools(theory: TheorySpec, size_bound: int) -> tuple:
    """The arity-1 and arity-2 normal forms that
    ``composite_correspondence_check`` draws compositions from."""
    return (theory.enumerate_normal(1, size_bound),
            theory.enumerate_normal(2, min(size_bound, 5)))


def composite_correspondence_check(law: DistributiveLawSpec,
                                   fragment: FinitaryMonadFragment,
                                   *, size_bound: int = 5,
                                   arity_bound: int = 2,
                                   sampler: Optional[Sampler] = None,
                                   spec: Optional[TheorySpec] = None) -> Report:
    """The composite theory tabulates the composite monad.

    The law's axioms must pass on the sampler's draws, hom-sets within the
    size bound must biject with the fragment's bounded carriers under term
    interpretation, and compositions must agree on deterministic samples.
    The composite's product structure is not checked here: run
    ``check_product_structure`` on ``phi(TheoryFragment(spec))``.
    """
    sampler = sampler or Sampler(samples=150)
    theory = spec if spec is not None else composite_theory(law, check=False)
    pool1, pool2 = composition_pools(theory, size_bound)
    if sampler.samples and not (pool1 and pool2):
        raise StructuralError(
            f"size bound {size_bound} leaves no normal forms of arity 1 "
            "or 2 to compose")
    rep = Report(subject=f"correspondence:{law.name}",
                 bounds={"sizeBound": size_bound, "arityBound": arity_bound},
                 seed=sampler.seed)
    # with no samples the law-axioms stage draws nothing, so it is not
    # counted as a pass
    if sampler.samples > 0:
        axioms = check_law_axioms(law, sampler)
        if not rep.check(axioms.passed, check="law-axioms",
                         witness=axioms.first_failure):
            return rep

    frag_bound = fragment.bound_for_display_size(size_bound)
    for k in range(arity_bound + 1):
        terms = theory.enumerate_normal(k, size_bound)
        keys = sorted(_label_key(encode_term(fragment, t)) for t in terms)
        carrier = fragment.carrier(k, frag_bound)
        rep.check(len(set(keys)) == len(terms)
                  and keys == sorted(map(_label_key, carrier)),
                  check="hom-bijection", arity=k, terms=len(terms),
                  carrier=len(carrier))

    # compositions agree along the interpretation
    rng = sampler.rng()
    table = phi(fragment)
    for _ in range(min(sampler.samples, 80)):
        g = rng.choice(pool2)
        f1, f2 = rng.choice(pool1), rng.choice(pool1)
        composed = theory.normalize(substitute(g, (f1, f2)))
        via_fragment = table.compose(
            (encode_term(fragment, g),),
            tuple(encode_term(fragment, c) for c in (f1, f2)))[0]
        rep.check(encode_term(fragment, composed) == via_fragment,
                  check="composition", g=format_term(g),
                  f1=format_term(f1), f2=format_term(f2))
    return rep


# ---------------------------------------------------------------------------
# the universe-detour construction


def istar_composite(fragment: FinitaryMonadFragment, k_bound: int,
                    n_bound: int, *, universe_cap: Optional[int] = None,
                    carrier_bound: Optional[int] = None) -> Report:
    """Pass through a finite universe of sets and back down to arities.

    Classes of (X, a: [k] -> [X], b: [X] -> F[n]) under the universe
    action must biject with the functions [k] -> F[n], naturally; and
    inserting the detour after a second fragment leaves composites
    unchanged (checked as the same quotient statement with the carrier
    of the second fragment as the target).

    Both quotients are arity coends: the universe one is the identity
    monad's, with b indexing F[n] by position, and the pasting one is the
    fragment's own.  Each is read through its class values alone.  A
    negative bound leaves nothing to check and raises ``StructuralError``.
    """
    rep = Report(subject=f"istar:{fragment.name}",
                 bounds={"kBound": k_bound, "nBound": n_bound})

    def tally(check: str, comp: KeypropComputation, expected: int, **at):
        values = comp.class_values()
        distinct = len(set(values))
        rep.check(len(values) == distinct == expected, check=check,
                  classes=len(values), distinct=distinct, expected=expected,
                  **at)

    for n in range(n_bound + 1):
        size = len(fragment.carrier(n, carrier_bound))
        cap = universe_cap if universe_cap is not None else size + 1
        for k in range(k_bound + 1):
            tally("istar-bijection",
                  KeypropComputation(IDENTITY_MONAD, size, k, cap),
                  size ** k, k=k, n=n)

    # inserting the detour after the fragment changes nothing: the coend
    # over arities of (k-tuples in F[n]) x (assignments [n] -> [x]) must
    # still be the functions [k] -> F[x]
    for x in range(min(n_bound, 2) + 1):
        size = len(fragment.carrier(x, carrier_bound))
        for k in range(k_bound + 1):
            tally("pasting-identity",
                  KeypropComputation(fragment, x, k, x + 2, carrier_bound),
                  size ** k, k=k, x=x)
    if not rep.sample_count:
        raise StructuralError(
            f"k bound {k_bound} and n bound {n_bound} leave nothing to check")
    return rep
