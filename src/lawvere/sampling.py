"""Deterministic random generation of terms for property checks.

Defaults keep whole suites under a minute: depth <= 3, layer width <= 4,
ambient arity <= 4, 500 samples, seed 0.  Every checker echoes its seed in
its report so runs can be replayed.
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
    """A raw (not normalized) term over the theory's signature."""
    leaves = []
    if k > 0:
        leaves.append("var")
    leaves.extend(op for op in spec.signature if op.arity == 0)
    if not leaves:
        raise StructuralError(
            f"theory {spec.name} has no closed terms over 0 variables")
    inner = [(op, op.arity) for op in spec.signature if op.arity > 0]
    rand, choice, randrange = rng.random, rng.choice, rng.randrange

    # every node is well-formed by construction: an op with as many args
    # as its arity, or a variable below k
    def draw(depth: int) -> Term:
        if depth <= 0 or not inner or rand() < 0.3:
            pick = choice(leaves)
            if pick == "var":
                return tuple.__new__(Var, (randrange(k),))
            return tuple.__new__(App, (pick, ()))
        op, arity = choice(inner)
        if arity == 2:
            args = (draw(depth - 1), draw(depth - 1))
        else:
            args = tuple([draw(depth - 1) for _ in range(arity)])
        return tuple.__new__(App, (op, args))

    return draw(depth)
