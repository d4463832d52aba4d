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
    inner = [op for op in spec.signature if op.arity > 0]
    if depth <= 0 or not inner or rng.random() < 0.3:
        pick = rng.choice(leaves)
        if pick == "var":
            return Var(rng.randrange(k))
        return App(pick, ())
    op = rng.choice(inner)
    return App(op, tuple(random_term(spec, k, rng, depth - 1)
                         for _ in range(op.arity)))
