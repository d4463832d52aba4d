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

from typing import Optional, Sequence

from .terms import (App, OperationSymbol, StructuralError, Term, TheorySpec,
                    Var, check_arity, sort_key, term_size)

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
               unit: Optional[OperationSymbol] = None) -> list:
    """Flatten a product layer into its left-to-right list of atoms."""
    out = []
    stack = [t]
    while stack:
        u = stack.pop()
        # down the left spine; right factors wait on the stack
        while isinstance(u, App) and u.op == mul:
            stack.append(u.args[1])
            u = u.args[0]
        if unit is None or not (isinstance(u, App) and u.op == unit):
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
             zero: OperationSymbol) -> dict:
    """Signed multiset of atoms of an additive layer, zeros dropped.

    Keys keep the order of their first occurrence, left to right.
    """
    acc: dict = {}
    stack = [(t, 1)]
    while stack:
        u, sign = stack.pop()
        if isinstance(u, App):
            op = u.op
            if op == add:
                stack.append((u.args[1], sign))
                stack.append((u.args[0], sign))
                continue
            if neg is not None and op == neg:
                stack.append((u.args[0], -sign))
                continue
            if op == zero:
                continue
        acc[u] = acc.get(u, 0) + sign
    return {a: c for a, c in acc.items() if c != 0}


def build_combo(combo: dict, add: OperationSymbol,
                neg: Optional[OperationSymbol], zero: OperationSymbol) -> Term:
    """Canonical right-nested sum: atoms sorted, |c| copies each, negs per copy."""
    parts = []
    for atom, c in sorted(combo.items(), key=lambda kv: sort_key(kv[0])):
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


def _monoid_normalize(t: Term) -> Term:
    return build_word(word_atoms(t, MUL, ONE), MUL, ONE)


def _semigroup_normalize(t: Term) -> Term:
    return build_word(word_atoms(t, SG_MUL), SG_MUL)


def _pointed_normalize(t: Term) -> Term:
    return t


def _abgroup_normalize(t: Term) -> Term:
    return build_combo(combo_of(t, ADD, NEG, ZERO), ADD, NEG, ZERO)


def _cmonoid_normalize(t: Term) -> Term:
    return build_combo(combo_of(t, CM_ADD, None, CM_ZERO), CM_ADD, None, CM_ZERO)


def _identity_normalize(t: Term) -> Term:
    return t


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
