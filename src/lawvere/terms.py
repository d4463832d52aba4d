"""Term syntax over finite signatures, with positional variables.

Conventions used throughout the package:

* Variables are positional: ``Var(i)`` stands for the i-th input.  The
  ambient variable count k is not stored on the node; it travels with the
  surrounding morphism, enumerator or CLI request, and every entry point
  validates indices against it.
* A term is *pure* for a theory when every operation node belongs to that
  theory's signature.  Layer-level helpers elsewhere treat subterms headed
  by foreign operations as opaque atoms, so the same normalizers serve both
  plain and layered theories.
* ``sort_key`` (size, then structure) is the total order behind every
  canonical sort; canonical forms must not depend on the order subterms
  were encountered.
* Terms are immutable tuples with structural equality and hashing, both
  run by ``tuple`` in C: ``OperationSymbol`` is ``(name, arity, theory)``,
  ``Var`` is ``(index,)`` and ``App`` is ``(op, args)``.  A term hashes
  as that plain tuple does; set and dict iteration orders, and with them
  the reports, depend on these values.  A term also equals the plain
  tuple of its fields (``Var(0) == (0,)``), so terms and plain tuples of
  the same shape must not key one dict or set.  None do: fragment
  elements such as the free monoid's words (tuples of ints) never share
  a container with terms, and the correspondence checks compare the two
  only through ``profunctor._label_key``, which includes the type.

* Depth.  ``builtin.word_atoms`` and ``builtin.combo_of``, which flatten
  a product or sum layer, are loops over an explicit stack and take
  chains of any length; the multiplicative law rewriters read their
  input through them alone and no longer call ``split_layer``.  So do
  the built-in normalizers, and ``distlaw._layered_nf`` reads a built-in
  head's layer through them without ``split_layer`` or ``substitute``:
  its calls nest a few frames per layer, not per level.  The composite
  normalizers (``distlaw.composite_theory``) read a layer the same way
  at a built-in head, so they too recurse once per layer there; at a
  composite head they go through ``whisker``, and at a head of neither
  theory they recurse per level.  ``sampling.random_term`` draws a
  term in one loop over an explicit stack.  Every other traversal still
  recurses: ``substitute`` and ``sort_key`` one frame per level, and
  ``term_size``, ``distlaw.expansion_estimate``, ``parser.format_term``,
  the parser, and hashing and comparing (in C, with ``App.__hash__``
  adding a Python frame per level) one to two frames per level.
  ``distlaw.split_layer`` (called only by ``distlaw.whisker``, which
  serves ``_layered_nf`` and the composite normalizers at a composite
  head, the series composites' rewrites, the hexagon paths and the outer
  multiplication square) and ``distlaw.check_layer_order`` (so
  ``layered_normalize``) take two frames per level, an inner ``go`` and
  the generator over its arguments, and delete ``go`` when they return,
  so the closure that refers to itself leaves no cycle for the
  collector.  So term depth is bounded by the recursion limit set
  below.  The README's ``check-yb --series ring3 --samples 300 --seed
  7`` still ends in RecursionError in ``split_layer``, reached through
  ``whisker``, and the benchmark pins that answer
  (``perfbench/expected.json``) until the traversals are made iterative
  (ROADMAP item 1).

All values are immutable after construction and safe to share; the one
exception is the normal-form memo inside each ``TheorySpec``, which only
grows, with entries computed by a pure normalizer.
"""
from __future__ import annotations

import functools
import itertools
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterator, Sequence, Union

# canonical forms are right-nested chains, so the depth of the recursive
# traversals (all but the layer loops named under Depth above) grows
# with combination length; the default limit is too tight for that
sys.setrecursionlimit(max(sys.getrecursionlimit(), 20000))


class StructuralError(ValueError):
    """Ill-formed input: arity mismatch, unknown symbol, bad layering."""


class OperationSymbol(tuple):
    """``name/arity@theory``; the tuple ``(name, arity, theory)``."""
    __slots__ = ()
    name = property(itemgetter(0))
    arity = property(itemgetter(1))
    theory = property(itemgetter(2))

    def __new__(cls, name: str, arity: int, theory: str):
        if arity < 0:
            raise StructuralError(f"negative arity for {name}")
        return tuple.__new__(cls, (name, arity, theory))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"{self.name}/{self.arity}@{self.theory}"


class Var(tuple):
    """The positional variable ``Var(index)``; the tuple ``(index,)``."""
    __slots__ = ()
    index = property(itemgetter(0))

    def __new__(cls, index: int):
        if index < 0:
            raise StructuralError("variable index must be >= 0")
        return tuple.__new__(cls, (index,))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"Var(index={self.index!r})"


class App(tuple):
    """An operation applied to a tuple of terms; the tuple ``(op, args)``."""
    __slots__ = ()
    op = property(itemgetter(0))
    args = property(itemgetter(1))

    def __new__(cls, op: OperationSymbol, args: tuple):
        check_arity(op, len(args))
        return tuple.__new__(cls, (op, args))

    # tuple.__hash__ alone recurses in C, where a term deeper than the
    # stack crashes the interpreter; a Python frame per level makes the
    # recursion limit apply and raise RecursionError instead
    def __hash__(self):
        return tuple.__hash__(self)

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"App(op={self.op!r}, args={self.args!r})"


Term = Union[Var, App]

# ``tuple.__new__(App, (op, args))`` and ``tuple.__new__(Var, (i,))`` build
# a node without the checks of its __new__.  The package does so only for
# nodes that are well-formed by construction: a copy of an existing node's
# op with as many args, or a symbol whose arity the caller checked once
# with ``check_arity``.


def check_arity(op: OperationSymbol, n: int) -> None:
    """Raise ``StructuralError`` unless ``op`` takes ``n`` arguments."""
    if op.arity != n:
        raise StructuralError(f"{op!r} applied to {n} arguments")


def term_size(t: Term) -> int:
    """Node count of the syntax tree; the uniform truncation metric."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(term_size(a) for a in t.args)


def sort_key(t: Term):
    """Canonical sort key: ``(term_size(t), structure)``, in one walk.

    The structure part puts Var before App, variables by index and
    applications by symbol name, theory and then their args' structures.
    """
    if isinstance(t, Var):
        return (1, (0, t[0]))
    (name, _, theory), args = t
    if len(args) == 2:
        s0, k0 = sort_key(args[0])
        s1, k1 = sort_key(args[1])
        return (1 + s0 + s1, (1, name, theory, (k0, k1)))
    size = 1
    keys = []
    for a in args:
        s, k = sort_key(a)
        size += s
        keys.append(k)
    return (size, (1, name, theory, tuple(keys)))


def max_var(t: Term) -> int:
    """Largest variable index used, or -1 for a closed term."""
    if isinstance(t, Var):
        return t.index
    return max((max_var(a) for a in t.args), default=-1)


def substitute(t: Term, sigma: Sequence[Term]) -> Term:
    """Simultaneously replace ``Var(i)`` by ``sigma[i]``.

    The result is not normalized.  Raises ``StructuralError`` when the term
    uses a variable outside the tuple.
    """
    if isinstance(t, Var):
        if t[0] >= len(sigma):
            raise StructuralError(
                f"variable {t.index} outside substitution of length {len(sigma)}")
        return sigma[t[0]]
    op, args = t
    if len(args) == 2:
        args = (substitute(args[0], sigma), substitute(args[1], sigma))
    else:
        args = tuple([substitute(a, sigma) for a in args])
    return tuple.__new__(App, (op, args))


def ops_used(t: Term) -> set:
    if isinstance(t, Var):
        return set()
    out = {t.op}
    for a in t.args:
        out |= ops_used(a)
    return out


@dataclass(frozen=True)
class TheorySpec:
    """An algebraic theory presented by a signature and a normalizer.

    ``normalizer`` maps any term to the canonical representative of its
    equivalence class; it must be idempotent and a congruence, and it
    must map every ``Var(i)`` to itself, so a bare variable is normal
    (``theory.basic_morphism`` builds on that unchecked).  It is
    written to normalize only the layer built from this theory's own
    operations, leaving foreign-headed subterms untouched, which is what
    makes composite theories stackable.

    ``normalizer`` must also be pure: ``normalize`` memoizes its results
    per spec instance, keyed by input term.  Only successes are stored; a
    term with a foreign operation, or one the normalizer rejects, raises
    again on every call.  Normal forms are not stored as their own inputs,
    so ``is_normal`` still runs the normalizer on a term it has not seen.

    ``atom_enumerator(atoms, bound)`` lists every normal layer form over
    the given distinct atom subterms whose node count stays within
    ``bound``; over ``atoms = (Var(0), ..., Var(k-1))`` this is exactly
    the set of normal forms in k variables.  It must list nothing else:
    ``factorization.check_fs_over_base`` builds its hom-set morphisms
    from ``enumerate_normal`` without checking them.
    """
    name: str
    signature: tuple
    normalizer: Callable[[Term], Term]
    atom_enumerator: Callable[[Sequence[Term], int], list]
    axioms: str = ""
    _nf: dict = field(default_factory=dict, init=False, repr=False,
                      compare=False, hash=False)

    @functools.cached_property
    def op_set(self) -> frozenset:
        return frozenset(self.signature)

    def op(self, name: str) -> OperationSymbol:
        for o in self.signature:
            if o.name == name:
                return o
        raise StructuralError(f"theory {self.name} has no operation {name!r}")

    def has_op(self, name: str) -> bool:
        return any(o.name == name for o in self.signature)

    def validate_ops(self, t: Term):
        bad = ops_used(t) - self.op_set
        if bad:
            raise StructuralError(
                f"operations {sorted(map(repr, bad))} unknown to theory {self.name}")

    def normalize(self, t: Term) -> Term:
        nf = self._nf.get(t)
        if nf is None:
            self.validate_ops(t)
            nf = self._nf[t] = self.normalizer(t)
        return nf

    def is_normal(self, t: Term) -> bool:
        return self.normalize(t) == t

    def enumerate_normal(self, k: int, size_bound: int) -> list:
        """All normal forms in k variables of size <= size_bound, sorted."""
        atoms = tuple(Var(i) for i in range(k))
        return sorted(self.atom_enumerator(atoms, size_bound), key=sort_key)

    def __repr__(self):
        return f"TheorySpec({self.name})"


def all_raw_terms(signature: Sequence[OperationSymbol], k: int,
                  size_bound: int) -> Iterator[Term]:
    """Every well-formed term over the signature, by size then key.

    Brute-force oracle support; sizes grow fast, keep bounds small.
    """
    by_size: dict = {}

    def of_size(s: int) -> list:
        if s in by_size:
            return by_size[s]
        out = []
        if s == 1:
            out.extend(Var(i) for i in range(k))
            out.extend(App(op, ()) for op in signature if op.arity == 0)
        else:
            for op in signature:
                r = op.arity
                if r == 0 or r > s - 1:
                    continue
                for cut in _compositions(s - 1, r):
                    for args in itertools.product(*(of_size(c) for c in cut)):
                        out.append(App(op, args))
        by_size[s] = out
        return out

    for s in range(1, size_bound + 1):
        yield from sorted(of_size(s), key=sort_key)


def _compositions(total: int, parts: int):
    """All tuples of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_force_normal_forms(spec: TheorySpec, k: int, size_bound: int) -> list:
    """Independent slow path: filter raw terms down to the self-normal ones."""
    out = [t for t in all_raw_terms(spec.signature, k, size_bound)
           if spec.normalize(t) == t]
    return sorted(out, key=sort_key)
