"""Built-in theories and their layer-level canonical forms.

Canonical forms:

* monoid / semigroup: flattened words, rebuilt as right-nested products;
  the empty word is the unit constant (monoid only).
* abelian group: an integer-coefficient combination of atoms, rebuilt as a
  right-nested sum with atoms sorted by ``sort_key``, negative entries
  wrapped per copy, zero the empty combination.
* commutative monoid: the same with nonnegative coefficients.
* pointed set: the point constant or the atom itself.
* identity: variables only.

Every normalizer here touches only the layer made of its own operations and
treats any foreign-headed subterm as an opaque atom, so composite theories
can stack them.
"""
from __future__ import annotations

from typing import Callable, Optional, Sequence

from .terms import (App, OperationSymbol, StructuralError, Term, TheorySpec,
                    check_arity, sort_key, term_size)

MUL = OperationSymbol("mul", 2, "monoid")
ONE = OperationSymbol("one", 0, "monoid")
SG_MUL = OperationSymbol("mul", 2, "semigroup")
POINT = OperationSymbol("point", 0, "pointed")
ADD = OperationSymbol("add", 2, "abgroup")
NEG = OperationSymbol("neg", 1, "abgroup")
ZERO = OperationSymbol("zero", 0, "abgroup")
CM_ADD = OperationSymbol("add", 2, "cmonoid")
CM_ZERO = OperationSymbol("zero", 0, "cmonoid")


def word_atoms(t: Term, mul: OperationSymbol,
               unit: Optional[OperationSymbol] = None,
               leaf: Optional[Callable[[Term], Term]] = None) -> list:
    """Flatten a product layer into its left-to-right list of atoms.

    With ``leaf``, each atom stands for ``leaf(atom)``, itself flattened
    when it is a product or the unit: the atoms of the layer read with
    every atom replaced by its image.  ``leaf`` runs once per run of one
    atom object.
    """
    out = []
    stack = [t]
    prev = prev_image = None
    while stack:
        u = stack.pop()
        # down the left spine; right factors wait on the stack
        while isinstance(u, App) and u[0] == mul:
            stack.append(u[1][1])
            u = u[1][0]
        if unit is not None and isinstance(u, App) and u[0] == unit:
            continue
        if leaf is not None:
            if u is not prev:
                prev, prev_image = u, leaf(u)
            u = prev_image
            if isinstance(u, App) and (u[0] == mul or u[0] == unit):
                out.extend(word_atoms(u, mul, unit))
                continue
        out.append(u)
    return out


def build_word(atoms: Sequence[Term], mul: OperationSymbol,
               unit: Optional[OperationSymbol] = None) -> Term:
    """Right-nested product of the atoms; empty word needs a unit."""
    if not atoms:
        if unit is None:
            raise StructuralError("empty word in a theory without a unit")
        return App(unit, ())
    if len(atoms) > 1:
        check_arity(mul, 2)
    out = atoms[-1]
    for a in reversed(atoms[:-1]):
        out = tuple.__new__(App, (mul, (a, out)))
    return out


def combo_of(t: Term, add: OperationSymbol, neg: Optional[OperationSymbol],
             zero: OperationSymbol,
             leaf: Optional[Callable[[Term], Term]] = None) -> dict:
    """Signed multiset of atoms of an additive layer, zeros dropped.

    Keys keep the order of their first occurrence, left to right.  With
    ``leaf``, each atom counts as ``leaf(atom)``, itself read as a sum
    when it is one: the multiset of the layer with every atom replaced by
    its image.  A canonical sum repeats one atom object c times; each run
    of one object is hashed, and passed to ``leaf``, once.
    """
    acc: dict = {}
    run, count = None, 0
    # the sentinel at the bottom ends the last run
    stack = [(None, 0), (t, 1)]
    while stack:
        u, sign = stack.pop()
        if u is run:
            count += sign
            continue
        if isinstance(u, App):
            op, args = u
            if op == add:
                stack.append((args[1], sign))
                stack.append((args[0], sign))
                continue
            if op == neg:
                stack.append((args[0], -sign))
                continue
            if op == zero:
                continue
        if run is not None:
            if leaf is None:
                acc[run] = acc.get(run, 0) + count
            else:
                image = leaf(run)
                if isinstance(image, App) and image[0] in (add, neg, zero):
                    for a, c in combo_of(image, add, neg, zero).items():
                        acc[a] = acc.get(a, 0) + c * count
                else:
                    acc[image] = acc.get(image, 0) + count
        run, count = u, sign
    return {a: c for a, c in acc.items() if c != 0}


def build_combo(combo: dict, add: OperationSymbol,
                neg: Optional[OperationSymbol], zero: OperationSymbol) -> Term:
    """Canonical right-nested sum: atoms sorted by ``sort_key``, then
    ``build_sorted_combo``."""
    return build_sorted_combo(
        sorted(combo.items(), key=lambda kv: sort_key(kv[0])), add, neg, zero)


def build_sorted_combo(items: Sequence[tuple], add: OperationSymbol,
                       neg: Optional[OperationSymbol],
                       zero: OperationSymbol) -> Term:
    """Canonical right-nested sum of (atom, coefficient) items that are
    already in ``sort_key`` order: |c| copies each, negs per copy.  It
    reads no atom, so a caller that knows the order builds no key."""
    parts = []
    for atom, c in items:
        if c > 0:
            parts.extend([atom] * c)
        else:
            if neg is None:
                raise StructuralError("negative coefficient without negation")
            check_arity(neg, 1)
            parts.extend([tuple.__new__(App, (neg, (atom,)))] * (-c))
    if not parts:
        return App(zero, ())
    if len(parts) > 1:
        check_arity(add, 2)
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = tuple.__new__(App, (add, (p, out)))
    return out


# Each normalizer below also takes ``leaf``, the normalizer of the layers
# beneath: ``normalizer(t, leaf)`` equals ``normalizer(substitute(skel,
# [leaf(a) for a in atoms]))`` for ``skel, atoms = split_layer(t, op_set)``,
# computed in one walk of the layer (``LAYER_READERS``).

def _monoid_normalize(t: Term, leaf=None) -> Term:
    return build_word(word_atoms(t, MUL, ONE, leaf), MUL, ONE)


def _semigroup_normalize(t: Term, leaf=None) -> Term:
    return build_word(word_atoms(t, SG_MUL, None, leaf), SG_MUL)


def _pointed_normalize(t: Term, leaf=None) -> Term:
    if leaf is None or (isinstance(t, App) and t[0] == POINT):
        return t
    return leaf(t)


def _abgroup_normalize(t: Term, leaf=None) -> Term:
    return build_combo(combo_of(t, ADD, NEG, ZERO, leaf), ADD, NEG, ZERO)


def _cmonoid_normalize(t: Term, leaf=None) -> Term:
    return build_combo(combo_of(t, CM_ADD, None, CM_ZERO, leaf),
                       CM_ADD, None, CM_ZERO)


def _identity_normalize(t: Term, leaf=None) -> Term:
    return t if leaf is None else leaf(t)


def word_enumerator(mul: OperationSymbol, unit: Optional[OperationSymbol]):
    def enum(atoms: Sequence[Term], bound: int) -> list:
        atoms = sorted(set(atoms), key=sort_key)
        out = []
        if unit is not None and bound >= 1:
            out.append(App(unit, ()))

        def extend(seq: list, size: int):
            for a in atoms:
                s = size + term_size(a) + (1 if seq else 0)
                if s > bound:
                    continue
                word = seq + [a]
                out.append(build_word(word, mul, unit))
                extend(word, s)

        extend([], 0)
        return out

    return enum


def combo_enumerator(add: OperationSymbol, neg: Optional[OperationSymbol],
                     zero: OperationSymbol):
    def enum(atoms: Sequence[Term], bound: int) -> list:
        atoms = sorted(set(atoms), key=sort_key)
        out = []
        if bound < 1:
            return out

        def rec(i: int, parts: list, copies: int, psize: int):
            if i == len(atoms):
                combo = dict(parts)
                out.append(build_combo(combo, add, neg, zero))
                return
            rec(i + 1, parts, copies, psize)
            a = atoms[i]
            sa = term_size(a)
            c = 1
            while True:
                pos = c * sa
                fits_pos = psize + pos + copies + c - 1 <= bound
                if fits_pos:
                    rec(i + 1, parts + [(a, c)], copies + c, psize + pos)
                fits_neg = False
                if neg is not None:
                    negp = c * sa + c
                    fits_neg = psize + negp + copies + c - 1 <= bound
                    if fits_neg:
                        rec(i + 1, parts + [(a, -c)], copies + c, psize + negp)
                if not fits_pos and not fits_neg:
                    break
                c += 1

        rec(0, [], 0, 0)
        return out

    return enum


def _pointed_enum(atoms: Sequence[Term], bound: int) -> list:
    out = [App(POINT, ())] if bound >= 1 else []
    out.extend(a for a in sorted(set(atoms), key=sort_key)
               if term_size(a) <= bound)
    return out


def _identity_enum(atoms: Sequence[Term], bound: int) -> list:
    return [a for a in sorted(set(atoms), key=sort_key)
            if term_size(a) <= bound]


MONOID = TheorySpec(
    name="monoid",
    signature=(MUL, ONE),
    normalizer=_monoid_normalize,
    atom_enumerator=word_enumerator(MUL, ONE),
    axioms="(xy)z = x(yz); 1x = x1 = x",
)

SEMIGROUP = TheorySpec(
    name="semigroup",
    signature=(SG_MUL,),
    normalizer=_semigroup_normalize,
    atom_enumerator=word_enumerator(SG_MUL, None),
    axioms="(xy)z = x(yz)",
)

POINTED = TheorySpec(
    name="pointed",
    signature=(POINT,),
    normalizer=_pointed_normalize,
    atom_enumerator=_pointed_enum,
    axioms="no equations; one distinguished constant",
)

ABELIAN_GROUP = TheorySpec(
    name="abgroup",
    signature=(ADD, NEG, ZERO),
    normalizer=_abgroup_normalize,
    atom_enumerator=combo_enumerator(ADD, NEG, ZERO),
    axioms="abelian group laws for +, -, 0",
)

COMMUTATIVE_MONOID = TheorySpec(
    name="cmonoid",
    signature=(CM_ADD, CM_ZERO),
    normalizer=_cmonoid_normalize,
    atom_enumerator=combo_enumerator(CM_ADD, None, CM_ZERO),
    axioms="commutative monoid laws for +, 0",
)

IDENTITY_THEORY = TheorySpec(
    name="identity",
    signature=(),
    normalizer=_identity_normalize,
    atom_enumerator=_identity_enum,
    axioms="no operations",
)

BASE_THEORIES = {
    s.name: s
    for s in (MONOID, SEMIGROUP, POINTED, ABELIAN_GROUP, COMMUTATIVE_MONOID,
              IDENTITY_THEORY)
}

# normalizer(t, leaf) of each built-in spec, by id: a spec hashes by its
# fields on every lookup, and these objects live as long as the module
LAYER_READERS = {id(s): s.normalizer for s in BASE_THEORIES.values()}
