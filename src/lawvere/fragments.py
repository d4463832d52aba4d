"""Finitary monads presented by their values on finite sets.

A fragment exposes the carrier F[n] (possibly under an enumeration bound
when infinite), the action on functions between finite sets, the unit,
and Kleisli substitution.  Elements are plain hashable data, deliberately
independent of the term machinery, so fragments can serve as oracles for
the theory-side computations:

* identity: the element i of [n] is the integer i;
* pointed: integers 0..n, with n itself the added point;
* free monoid: tuples of letters (words), bounded by length;
* free ring: sorted tuples of (word, coefficient) pairs with nonzero
  integer coefficients, bounded by the node count their canonical sum
  display would have.
"""
from __future__ import annotations

import itertools
from typing import Optional, Sequence

from .terms import StructuralError


class FinitaryMonadFragment:
    name: str = "abstract"
    finite: bool = False  # finite carriers (no enumeration bound needed)
    # operation name -> function of the interpreted arguments giving an
    # element; read by ``correspondence.encode_term``
    interpretation: dict = {}

    def carrier(self, n: int, bound: Optional[int] = None) -> list:
        raise NotImplementedError

    def map(self, table: Sequence[int], n_to: int, e):
        """Apply F(g) for g: [n] -> [n_to] given by the index table."""
        raise NotImplementedError

    def unit(self, n: int, i: int):
        if not 0 <= i < n:
            raise StructuralError("unit index out of range")
        return self._unit(i)

    def _unit(self, i: int):
        raise NotImplementedError

    def subst(self, e, sigma: Sequence):
        """Kleisli extension: e lives over len(sigma) inputs, every
        sigma[i] over a common carrier."""
        raise NotImplementedError

    def bound_for_display_size(self, size_bound: int) -> Optional[int]:
        """Carrier bound matching a node-count bound on canonical displays."""
        return size_bound

    def __repr__(self):
        return f"FinitaryMonadFragment({self.name})"


class IdentityMonad(FinitaryMonadFragment):
    name = "identity"
    finite = True

    def carrier(self, n, bound=None):
        return list(range(n))

    def map(self, table, n_to, e):
        return table[e]

    def _unit(self, i):
        return i

    def subst(self, e, sigma):
        return sigma[e]


class PointedMonad(FinitaryMonadFragment):
    """X plus one added point, encoded by the sentinel "pt"."""
    name = "pointed"
    finite = True
    POINT = "pt"
    interpretation = {"point": lambda: PointedMonad.POINT}

    def carrier(self, n, bound=None):
        return list(range(n)) + [self.POINT]

    def map(self, table, n_to, e):
        if e == self.POINT:
            return e
        return table[e]

    def _unit(self, i):
        return i

    def subst(self, e, sigma):
        if e == self.POINT:
            return e
        return sigma[e]


class FreeMonoidMonad(FinitaryMonadFragment):
    """Words over the input set; bounded enumeration by word length."""
    name = "free-monoid"
    finite = False
    interpretation = {"mul": lambda u, v: u + v, "one": lambda: (),
                      "point": lambda: ()}

    def carrier(self, n, bound=None):
        if bound is None:
            raise StructuralError("free monoid carriers need a length bound")
        out = []
        for length in range(bound + 1):
            out.extend(itertools.product(range(n), repeat=length))
        return out

    def map(self, table, n_to, e):
        return tuple(table[i] for i in e)

    def _unit(self, i):
        return (i,)

    def subst(self, e, sigma):
        out: tuple = ()
        for letter in e:
            out = out + sigma[letter]
        return out

    def bound_for_display_size(self, size_bound):
        # a word of length L displays as 2L - 1 nodes (1 when empty), so
        # size 0 admits no word: length bound -1 leaves the carrier empty
        if size_bound < 1:
            return -1
        return (size_bound + 1) // 2


class FreeSemigroupMonad(FreeMonoidMonad):
    """Nonempty words only, so nothing interprets a constant."""
    name = "free-semigroup"
    interpretation = {"mul": lambda u, v: u + v}

    def carrier(self, n, bound=None):
        return [w for w in super().carrier(n, bound) if w]


def poly_add(p: dict, q: dict) -> dict:
    out = dict(p)
    for w, c in q.items():
        out[w] = out.get(w, 0) + c
        if out[w] == 0:
            del out[w]
    return out


def poly_scale(p: dict, k: int) -> dict:
    if k == 0:
        return {}
    return {w: c * k for w, c in p.items()}


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for w1, c1 in p.items():
        for w2, c2 in q.items():
            w = w1 + w2
            out[w] = out.get(w, 0) + c1 * c2
            if out[w] == 0:
                del out[w]
    return out


def poly_canonical(p: dict) -> tuple:
    return tuple(sorted(p.items(), key=lambda wc: (len(wc[0]), wc[0])))


class FreeRingMonad(FinitaryMonadFragment):
    """Integer combinations of words, as sorted (word, coefficient) tuples;
    bounded enumeration by display size."""
    name = "free-ring"
    finite = False
    interpretation = {
        "mul": lambda p, q: poly_canonical(poly_mul(dict(p), dict(q))),
        "one": lambda: (((), 1),),
        "add": lambda p, q: poly_canonical(poly_add(dict(p), dict(q))),
        "neg": lambda p: poly_canonical(poly_scale(dict(p), -1)),
        "zero": lambda: (),
    }

    def carrier(self, n, bound=None):
        if bound is None:
            raise StructuralError("free ring carriers need a size bound")
        max_len = (bound + 1) // 2
        words = []
        for length in range(max_len + 1):
            words.extend(itertools.product(range(n), repeat=length))
        words.sort(key=lambda w: (len(w), w))
        out = []

        def rec(i: int, entries: list, copies: int, psize: int):
            if i == len(words):
                out.append(tuple(entries))
                return
            rec(i + 1, entries, copies, psize)
            w = words[i]
            wsize = max(1, 2 * len(w) - 1)
            c = 1
            while True:
                pos = c * wsize
                ok_pos = psize + pos + copies + c - 1 <= bound
                if ok_pos:
                    rec(i + 1, entries + [(w, c)], copies + c, psize + pos)
                negp = c * wsize + c
                ok_neg = psize + negp + copies + c - 1 <= bound
                if ok_neg:
                    rec(i + 1, entries + [(w, -c)], copies + c, psize + negp)
                if not ok_pos and not ok_neg:
                    break
                c += 1

        if bound >= 1:
            rec(0, [], 0, 0)
        return sorted(set(out))

    def map(self, table, n_to, e):
        out: dict = {}
        for w, c in e:
            w2 = tuple(table[i] for i in w)
            out[w2] = out.get(w2, 0) + c
            if out[w2] == 0:
                del out[w2]
        return poly_canonical(out)

    def _unit(self, i):
        return (((i,), 1),)

    def subst(self, e, sigma):
        acc: dict = {}
        for w, c in e:
            term = {(): 1}
            for letter in w:
                term = poly_mul(term, dict(sigma[letter]))
            acc = poly_add(acc, poly_scale(term, c))
        return poly_canonical(acc)


IDENTITY_MONAD = IdentityMonad()
POINTED_MONAD = PointedMonad()
FREE_MONOID_MONAD = FreeMonoidMonad()
FREE_SEMIGROUP_MONAD = FreeSemigroupMonad()
FREE_RING_MONAD = FreeRingMonad()

FRAGMENTS = {
    f.name: f
    for f in (IDENTITY_MONAD, POINTED_MONAD, FREE_MONOID_MONAD,
              FREE_SEMIGROUP_MONAD, FREE_RING_MONAD)
}
