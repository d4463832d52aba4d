import itertools

import pytest

from lawvere.builtin import (ABELIAN_GROUP, MONOID, build_combo, build_word,
                             combo_of, word_atoms)
from lawvere.distlaw import (DistributiveLawSpec, ps_monoid_theory,
                             ring_theory, split_layer)
from lawvere.terms import sort_key


@pytest.fixture(scope="session")
def ring():
    return ring_theory()


@pytest.fixture(scope="session")
def ps_monoid():
    return ps_monoid_theory()


def make_dropping_mutant(mult_theory, additive_theory,
                         name="dropping-mutant") -> DistributiveLawSpec:
    """Swaps the layers without expanding products: only the first summand
    of each factor survives once a word has two or more letters.  Unit
    diagrams still pass; the multiplication squares do not."""
    from lawvere.distlaw import multiplicative_over_additive_law
    true_law = multiplicative_over_additive_law(mult_theory, additive_theory)
    mul = mult_theory.op("mul")
    one = mult_theory.op("one") if mult_theory.has_op("one") else None
    add = additive_theory.op("add")
    neg = additive_theory.op("neg")
    zero = additive_theory.op("zero")

    def rewrite(t):
        skel, leaves = split_layer(t, mult_theory.op_set)
        slots = [v.index for v in word_atoms(skel, mul, one)]
        if len(slots) <= 1:
            return true_law.rewrite(t)
        combos = [sorted(combo_of(leaves[i], add, neg, zero).items(),
                         key=lambda kv: sort_key(kv[0])) for i in slots]
        acc = {}
        if all(combos):
            coeff = 1
            chain = []
            for entry in combos:
                atom, c = entry[0]
                coeff *= c
                chain.extend(word_atoms(atom, mul, one))
            key = build_word(chain, mul, one)
            acc[key] = coeff
        acc = {k: v for k, v in acc.items() if v}
        return build_combo(acc, add, neg, zero)

    return DistributiveLawSpec(name, mult_theory, additive_theory, rewrite)


def make_diagram_mutant(diagram: str) -> DistributiveLawSpec:
    """The ring law, wrong on the inputs one compatibility diagram feeds
    it (the other diagrams may see such inputs too):

    * ``unit-inner``: a normal sum with no product comes back negated;
    * ``unit-outer``: a product with no sum comes back reversed;
    * ``mult-inner``: sums carrying products below a product (the top leg
      of the inner square rewrites such terms) come back negated;
    * ``naturality``: when the input has a sum, the letters of each
      monomial are sorted by variable index, which renaming undoes.
    """
    from lawvere.distlaw import RING_LAW, check_layer_order
    from lawvere.terms import ops_used
    S, T = RING_LAW.inner, RING_LAW.outer
    mul, one = S.op("mul"), S.op("one")
    add, neg, zero = T.op("add"), T.op("neg"), T.op("zero")

    def negated(t):
        return build_combo({a: -c for a, c in combo_of(
            t, add, neg, zero).items()}, add, neg, zero)

    def rewrite(t):
        ops = ops_used(t)
        has_s, has_t = bool(ops & S.op_set), bool(ops & T.op_set)
        if diagram == "unit-inner" and has_t and not has_s \
                and T.normalizer(t) == t:
            return negated(t)
        if diagram == "unit-outer" and not has_t:
            return build_word(word_atoms(t, mul, one)[::-1], mul, one)
        out = RING_LAW.rewrite(t)
        if diagram == "mult-inner" and not check_layer_order(
                t, [S.op_set, T.op_set]):
            return negated(out)
        if diagram == "naturality" and has_t:
            acc = {}
            for w, c in combo_of(out, add, neg, zero).items():
                letters = sorted(word_atoms(w, mul, one),
                                 key=lambda v: v.index)
                key = build_word(letters, mul, one)
                acc[key] = acc.get(key, 0) + c
            return build_combo({w: c for w, c in acc.items() if c},
                               add, neg, zero)
        return out

    return DistributiveLawSpec(f"{diagram}-mutant", S, T, rewrite)


def make_ring_mutant() -> DistributiveLawSpec:
    return make_dropping_mutant(MONOID, ABELIAN_GROUP, name="ring-mutant")


@pytest.fixture(scope="session")
def ring_mutant():
    return make_ring_mutant()


def words_over(k: int, max_len: int):
    """Independent word-enumeration oracle."""
    out = []
    for length in range(max_len + 1):
        out.extend(itertools.product(range(k), repeat=length))
    return out


def eval_ring_term(t, env):
    """Independent integer-arithmetic interpretation of ring-signature
    terms ('mul'/'one'/'add'/'neg'/'zero'/'point' by name)."""
    from lawvere.terms import Var
    if isinstance(t, Var):
        return env[t.index]
    name = t.op.name
    vals = [eval_ring_term(a, env) for a in t.args]
    if name == "mul":
        return vals[0] * vals[1]
    if name in ("one", "point"):
        return 1
    if name == "add":
        return vals[0] + vals[1]
    if name == "neg":
        return -vals[0]
    if name == "zero":
        return 0
    raise AssertionError(f"no interpretation for {name}")
