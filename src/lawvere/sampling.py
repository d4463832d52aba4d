"""Deterministic random generation of terms for property checks.

Defaults keep whole suites under a minute: depth <= 3, layer width <= 4,
ambient arity <= 4, 500 samples, seed 0.  Every checker echoes its seed in
its report so runs can be replayed.

``random_term`` draws its tree in one loop, in preorder, over an explicit
stack of open nodes, and consumes the random stream exactly as the
recursive ``choice``/``randrange`` version would: each pick below n is
``Random._randbelow``'s, ``getrandbits(n.bit_length())`` until the value
is below n.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .terms import App, StructuralError, Term, TheorySpec, Var


@dataclass
class Sampler:
    seed: int = 0
    samples: int = 500
    max_depth: int = 3
    max_width: int = 4
    max_arity: int = 4

    def rng(self) -> random.Random:
        return random.Random(self.seed)


def random_term(spec: TheorySpec, k: int, rng: random.Random,
                depth: int) -> Term:
    """A raw (not normalized) term over the theory's signature.

    A node at depth <= 0, or in a signature without operations of positive
    arity, is a leaf; otherwise it is a leaf with probability 0.3.  A leaf
    is picked uniformly from the variables (as one choice, when k > 0) and
    the constants, a variable's index uniformly below k, and an inner
    node's operation uniformly from those of positive arity, signature
    order throughout.
    """
    consts, inner = [], []
    for op in spec.signature:
        (inner if op.arity > 0 else consts).append(op)
    var = 1 if k > 0 else 0
    n_leaf, n_inner = len(consts) + var, len(inner)
    if not n_leaf:
        raise StructuralError(
            f"theory {spec.name} has no closed terms over 0 variables")
    b_leaf, b_inner, b_var = (n_leaf.bit_length(), n_inner.bit_length(),
                              k.bit_length())
    rand, bits = rng.random, rng.getrandbits

    # every node is well-formed by construction: an op with as many args
    # as its arity, or a variable below k.  An open node is
    # (op, arity, args so far); `depth` is that of the next node drawn.
    stack: list = []
    while True:
        if depth > 0 and n_inner and rand() >= 0.3:
            r = bits(b_inner)
            while r >= n_inner:
                r = bits(b_inner)
            op = inner[r]
            stack.append((op, op.arity, []))
            depth -= 1
            continue
        r = bits(b_leaf)
        while r >= n_leaf:
            r = bits(b_leaf)
        if r < var:
            r = bits(b_var)
            while r >= k:
                r = bits(b_var)
            node = tuple.__new__(Var, (r,))
        else:
            node = tuple.__new__(App, (consts[r - var], ()))
        # hand the node to its parent, closing every node it completes
        while stack:
            op, arity, args = stack[-1]
            args.append(node)
            if len(args) < arity:
                break
            stack.pop()
            node = tuple.__new__(App, (op, tuple(args)))
            depth += 1
        else:
            return node
