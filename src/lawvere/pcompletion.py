"""The free finite-product completion, truncated, and its profunctor
extension.

Objects of the completion of a category A are finite strings of
A-objects; a morphism from one string to another pairs an index function
with componentwise A-morphisms.  Over the terminal category the
completion is the category of arities: a morphism n -> m is a function
table [m] -> [n].

``verify_keyprop`` checks, by explicit union-find coend, that extending a
set-valued table F along the completion and multiplying back down yields
the table (j, n) -> Set(n, F[j]), including its actions, with the quotient
stable both in the entry-size direction and when strings one longer are
adjoined (whose classes all collapse onto single-entry strings through the
canonical insertions).

``KeypropComputation`` is the package's one coend over arities: an
element (k, y, xs) pairs n operations xs of arity k with an assignment
y: [k] -> [j] of their inputs.  Besides keyprop it serves the round trip
and ``monad_from_theory`` (n = 1) in ``correspondence`` and both
quotients of ``istar_composite``.  It keeps no list of elements: it
numbers them in enumeration order (level by level, then y, then xs, each
read as a mixed-radix number), and its callers read a class only as its
representative and its invariant value: ``representatives()`` decodes
the members one at a time and keeps one per class, and
``class_values()`` decodes none.  Its union-find is flat: a list holds
the root of every number's class, so relating two elements compares two
list entries, and a merge relabels the smaller class.
Levels are added in place, one at a time, so a stability check extends
the quotient by one level instead of building it again.  The invariant
is kept per class, and a new level's values come from one row of
``F.map`` calls per (level, y).  Each class is named by its least member
under ``_label_key``.
"""
from __future__ import annotations

import collections
import functools
import itertools
import operator
from array import array
from typing import Optional, Sequence

from .fincat import FiniteCategory, Morphism
from .fragments import FinitaryMonadFragment
from .profunctor import FiniteProfunctor, _label_key
from .report import Report
from .terms import StructuralError


def all_strings(objects: Sequence, max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(objects, repeat=length)


def _pmor_name(src, tgt, alpha, comps) -> str:
    return f"{src}|{tgt}|{alpha}|{comps}"


def p_category(cat: FiniteCategory, max_len: int,
               name: str = "") -> FiniteCategory:
    """Truncated completion: strings up to the given length."""
    objects = list(all_strings(cat.objects, max_len))
    morphisms = []
    data = {}
    for src in objects:
        n = len(src)
        for tgt in objects:
            m = len(tgt)
            for alpha in itertools.product(range(n), repeat=m):
                pools = [cat.hom(src[alpha[i]], tgt[i]) for i in range(m)]
                for comps in itertools.product(*pools):
                    nm = _pmor_name(src, tgt, alpha,
                                    tuple(c.name for c in comps))
                    morphisms.append(Morphism(nm, src, tgt))
                    data[nm] = (alpha, comps)
    comp = {}
    for f in morphisms:
        fa, fc = data[f.name]
        for g in morphisms:
            if f.tgt != g.src:
                continue
            ga, gc = data[g.name]
            alpha = tuple(fa[ga[i]] for i in range(len(ga)))
            comps = tuple(cat.compose(gc[i], fc[ga[i]])
                          for i in range(len(ga)))
            comp[(g.name, f.name)] = _pmor_name(
                f.src, g.tgt, alpha, tuple(c.name for c in comps))
    idents = {}
    for o in objects:
        n = len(o)
        idents[o] = _pmor_name(o, o, tuple(range(n)),
                               tuple(cat.identity(o[i]).name
                                     for i in range(n)))
    pc = FiniteCategory(name or f"P({cat.name})<= {max_len}", objects,
                        morphisms, idents, comp)
    pc.p_data = data  # index function and componentwise morphisms by name
    return pc


def p_on_profunctor(f: FiniteProfunctor, max_len: int,
                    name: str = "") -> FiniteProfunctor:
    """Extend a profunctor to strings: an element over (target string b,
    source string a) is an index function from positions of a into
    positions of b together with one element per position."""
    PC = p_category(f.src, max_len)
    # an endo-profunctor's extension must be one too
    PD = PC if f.tgt is f.src else p_category(f.tgt, max_len)
    ft, fc, fd = f.table, f.c_action, f.d_action
    table = {}
    for b in PD.objects:
        n = len(b)
        for a in PC.objects:
            m = len(a)
            entries = []
            for alpha in itertools.product(range(n), repeat=m):
                pools = [ft.get((b[alpha[j]], a[j]), ()) for j in range(m)]
                for xs in itertools.product(*pools):
                    entries.append((alpha, xs))
            table[(b, a)] = tuple(entries)
    c_action = {}
    d_action = {}
    for b in PD.objects:
        for a in PC.objects:
            for (alpha, xs) in table[(b, a)]:
                for phi, _ in PC.arrows[a].out:
                    # phi: a -> a2 with index beta: [len(a2)] -> [len(a)]
                    beta, comps = PC.p_data[phi]
                    new_alpha = tuple(alpha[i] for i in beta)
                    new_xs = tuple(fc[(h.name, b[alpha[i]], xs[i])]
                                   for i, h in zip(beta, comps))
                    c_action[(phi, b, (alpha, xs))] = (new_alpha, new_xs)
                for psi, _ in PD.arrows[b].into:
                    # psi: b2 -> b with index gamma: [len(b)] -> [len(b2)];
                    # each picked position is transported contravariantly
                    gamma, comps = PD.p_data[psi]
                    new_alpha = tuple(gamma[i] for i in alpha)
                    new_xs = tuple(fd[(comps[i].name, c, x)]
                                   for i, c, x in zip(alpha, a, xs))
                    d_action[(psi, a, (alpha, xs))] = (new_alpha, new_xs)
    return FiniteProfunctor(name or f"P({f.name})", PC, PD, table,
                            c_action, d_action)


# ---------------------------------------------------------------------------
# the key coend


def _elementary_maps(k_cap: int):
    """Generators of all functions between [0..k_cap]: monotone injections
    and surjections one level apart plus adjacent transpositions."""
    gens = []
    for k in range(k_cap):
        # skip injections [k] -> [k+1]
        for miss in range(k + 1):
            table = tuple(v if v < miss else v + 1 for v in range(k))
            gens.append((k, k + 1, table))
    for k in range(1, k_cap + 1):
        # merge surjections [k] -> [k-1]
        for hit in range(k - 1):
            table = tuple(min(v, hit) if v <= hit else v - 1
                          for v in range(k))
            gens.append((k, k - 1, table))
    for k in range(2, k_cap + 1):
        # adjacent transpositions [k] -> [k]
        for i in range(k - 1):
            table = list(range(k))
            table[i], table[i + 1] = table[i + 1], table[i]
            gens.append((k, k, tuple(table)))
    return gens


# the root entry of an element that no relation has reached yet
_UNREACHED = -1


class InvariantBroken(StructuralError):
    """A coend relation joins two elements whose invariant values differ:
    the fragment's ``map`` is not a functor on the bounded carriers."""


class KeypropComputation:
    """Union-find quotient of sum_k Set([k],[j]) x F[k]^n under the action
    relations, with the canonical invariant into Set(n, F[j]), which must
    take a single value on every class.

    The quotient grows level by level: ``__init__`` adds levels
    0..k_cap through ``extend()``, and ``extend()`` adds the next level
    to the same quotient in place, which is how stability is checked.
    Elements are never stored.  Element (k, y, xs) is known by its
    number: level k starts where level k - 1 ends, and inside it (y, xs)
    sits at rank(y) * |F[k]|^n + rank(xs), where rank(y) reads y in base
    j and rank(xs) reads the carrier positions of xs in base |F[k]|.
    The union-find is flat: entry i of ``_parent`` is the root of
    element i's class, so a find is one list read.  A new level's
    entries are ``_UNREACHED`` until a relation joins them to a class;
    the elements no relation reaches become their own roots before the
    level's transpositions run.  A class keeps its members other than
    the root in an ``array('q')`` under its root, which holds no int
    object per element, and a merge relabels the smaller class.  A new
    level is related along the elementary maps that touch it, each
    acting through a table of carrier positions built from one
    ``F.map`` call per carrier element; the roots of a y-block's two
    sides are read and compared in C, and only the relations whose
    roots differ are visited one by one.  The invariant is
    kept as one value per class root: the old roots are carried to
    their new roots, and each new element's value is read from one row
    of ``F.map`` calls per (level, y).  A carrier that lists an element
    twice, or a map that leaves the bounded carrier, raises
    ``StructuralError``; a relation that joins two values raises
    ``InvariantBroken``, a subclass of it.

    A class's representative is its least member under ``_label_key``,
    chosen when ``representatives()`` walks the elements; classes come in
    the order of their first members.  No class's members are ever
    decoded into a list.
    """

    def __init__(self, fragment: FinitaryMonadFragment, j: int, n: int,
                 k_cap: int, carrier_bound: Optional[int] = None):
        self.fragment = fragment
        self.j = j
        self.n = n
        self.k_cap = -1
        self.carrier_bound = carrier_bound
        self._carriers: dict = {}
        self._positions: dict = {}
        self._offsets: list = []
        self._parent: list = []
        self._members = collections.defaultdict(functools.partial(array, "q"))
        self._values: dict = {}
        for _ in range(k_cap + 1):
            self.extend()

    def extend(self):
        """Add level k_cap + 1: number its elements after the others,
        relate them along the elementary maps that touch the level (the
        maps between lower levels are related already) and check the
        invariant."""
        k = self.k_cap + 1
        carrier = list(self.fragment.carrier(k, self.carrier_bound))
        positions = {x: i for i, x in enumerate(carrier)}
        if len(positions) != len(carrier):
            raise StructuralError(
                f"fragment {self.fragment.name}: carrier F[{k}] lists an "
                "element twice")
        self._carriers[k] = carrier
        self._positions[k] = positions
        start = len(self._parent)
        self._offsets.append(start)
        self._parent.extend(
            itertools.repeat(_UNREACHED, self.j ** k * len(carrier) ** self.n))
        self.k_cap = k
        maps = [m for m in _elementary_maps(k) if k in m[:2]]
        for (k_from, k_to, g) in maps:
            if k_from != k_to:
                self._relate(k_from, k_to, g)
        # the transpositions relate the new level with itself, so every
        # element they read must have a root first
        parent, i = self._parent, start
        try:
            while True:
                i = parent.index(_UNREACHED, i)
                parent[i] = i
        except ValueError:
            pass
        for (k_from, k_to, g) in maps:
            if k_from == k_to:
                self._relate(k_from, k_to, g)
        self._check_invariant(k)

    def _ys(self, k: int):
        return itertools.product(range(self.j), repeat=k)

    def _xs(self, k: int):
        return itertools.product(self._carriers[k], repeat=self.n)

    def _map_positions(self, g, k_from: int, k_to: int) -> list:
        """Carrier position of F(g) z for each z in F[k_from]."""
        F = self.fragment
        positions = self._positions[k_to]
        out = []
        for z in self._carriers[k_from]:
            p = positions.get(F.map(g, k_to, z))
            if p is None:
                raise StructuralError(
                    f"fragment {F.name}: F.map sends {z!r} along {g} "
                    f"outside the bounded carrier F[{k_to}]")
            out.append(p)
        return out

    def _relate(self, k_from: int, k_to: int, g: tuple):
        # g: [k_from] -> [k_to]; relate (k_to, y, F(g) zs) with
        # (k_from, y o g, zs).  Position p of y lands at every i with
        # g[i] = p in y o g, whose rank is read in base j.
        j, n, parent = self.j, self.n, self._parent
        members = self._members
        weights = [sum(j ** (k_from - 1 - i) for i in range(k_from)
                       if g[i] == p) for p in range(k_to)]
        yg_ranks = _ranks([d * w for d in range(j)] for w in weights)
        if not yg_ranks:
            return
        m_to = len(self._carriers[k_to])
        # rank of F(g) zs for every zs, in rank order of zs
        mapped = [0]
        if n:
            positions = self._map_positions(g, k_from, k_to)
            mapped = _ranks([p * m_to ** (n - 1 - t) for p in positions]
                            for t in range(n))
            if not mapped:
                return
        to_base, to_size = self._offsets[k_to], m_to ** n
        from_base, from_size = self._offsets[k_from], len(mapped)
        pick = (operator.itemgetter(*mapped) if from_size > 1
                else lambda block, r=mapped[0]: (block[r],))
        relations = range(from_size)
        for rank_y, rank_yg in enumerate(yg_ranks):
            a0 = to_base + rank_y * to_size
            b0 = from_base + rank_yg * from_size
            # the roots of a y-block's two sides, read in C; only the
            # relations whose roots differ are looked at one by one
            left = pick(parent[a0:a0 + to_size])
            right = tuple(parent[b0:b0 + from_size])
            if left == right:
                continue
            for t in itertools.compress(relations,
                                        map(operator.ne, left, right)):
                a, b = a0 + mapped[t], b0 + t
                ra, rb = parent[a], parent[b]
                if ra == rb:
                    continue
                if ra is _UNREACHED:
                    new, root = a, rb
                elif rb is _UNREACHED:
                    new, root = b, ra
                else:
                    self._union(ra, rb)
                    continue
                parent[new] = root
                members[root].append(new)

    def _union(self, ra: int, rb: int):
        """Merge the classes rooted at ra and rb: the smaller class takes
        the other's root."""
        parent, members = self._parent, self._members
        if len(members.get(ra, ())) < len(members.get(rb, ())):
            ra, rb = rb, ra
        mb = members.pop(rb, ())
        for i in mb:
            parent[i] = ra
        parent[rb] = ra
        ma = members[ra]
        ma.extend(mb)
        ma.append(rb)

    def _check_invariant(self, k: int):
        # every element of an old class has its class's value, so the
        # invariant holds when merged old classes agree and each new
        # element agrees with its class
        parent = self._parent
        values: dict = {}
        for root, value in self._values.items():
            if values.setdefault(parent[root], value) != value:
                raise InvariantBroken("coend relation breaks the invariant")
        F, j, n = self.fragment, self.j, self.n
        carrier = self._carriers[k]
        i = self._offsets[k]
        size = len(carrier) ** n
        for y in self._ys(k):
            # F(y) on F[k] once; the values of (y, xs) in rank order of xs
            row = [F.map(y, j, z) for z in carrier] if n else ()
            for root, value in zip(parent[i:i + size],
                                   itertools.product(row, repeat=n)):
                if values.setdefault(root, value) != value:
                    raise InvariantBroken(
                        "coend relation breaks the invariant")
            i += size
        self._values = values

    def invariant(self, element) -> tuple:
        k, y, xs = element
        return tuple(self.fragment.map(y, self.j, x) for x in xs)

    def representatives(self) -> list:
        """Each class's least ``_label_key`` member, classes in the
        order of their first members.  One walk of the numbering keeps
        one (member, key) pair per root; a member's key is computed only
        once a second member of its class turns up."""
        roots = iter(self._parent)
        kept: dict = {}
        for k in range(self.k_cap + 1):
            xss = list(self._xs(k))
            for y in self._ys(k):
                for xs in xss:
                    root = next(roots)
                    pair = kept.get(root)
                    if pair is None:
                        kept[root] = ((k, y, xs), None)
                        continue
                    rep, key = pair
                    if key is None:
                        key = _label_key(rep)
                    member = (k, y, xs)
                    other = _label_key(member)
                    kept[root] = (member, other) if other < key else (rep, key)
        return [rep for rep, _ in kept.values()]

    def class_values(self) -> list:
        """The invariant value of each class, one per class."""
        return list(self._values.values())

    def class_count(self) -> int:
        return len(self._values)


def _ranks(columns) -> list:
    """Every sum of one value per column, in itertools.product order."""
    out = [0]
    for column in columns:
        out = [r + v for r in out for v in column]
    return out


def verify_keyprop(fragment: FinitaryMonadFragment, j_bound: int,
                   n_bound: int, *, carrier_bound: Optional[int] = None,
                   pair_entry_cap: int = 2) -> Report:
    """Brute-force check that the extended-then-multiplied table is
    (j, n) -> Set(n, F[j]) in cardinality and action.

    For every j, n within bounds the singleton-string coend is computed at
    entry cap j + 1 and compared against Set(n, F[j]) through the
    canonical invariant; it is then extended in place to entry cap j + 2
    (stability: the class count must not change), and every elementary
    map out of [j] (the injections into [j + 1], the merges into [j - 1]
    and the transpositions of [j]) must act on the entry-cap j + 1 class
    representatives as it acts on Set(n, F[j]).  A relation that breaks
    the invariant fails that (j, n) and records the error.
    Separately, strings of length two are adjoined at a small scale: each
    must reduce through the canonical insertions to a singleton element
    with the same value in Set(n, F[j]), so that gluing them on changes
    no class.
    """
    rep = Report(subject=f"keyprop:{fragment.name}",
                 bounds={"jBound": j_bound, "nBound": n_bound,
                         "pairEntryCap": pair_entry_cap})
    stability = {}
    for j in range(j_bound + 1):
        for n in range(n_bound + 1):
            try:
                comp = KeypropComputation(fragment, j, n, j + 1,
                                          carrier_bound)
                values = comp.class_values()
                reps = comp.representatives()
                comp.extend()
            except InvariantBroken as exc:
                rep.check(False, j=j, n=n, error=str(exc))
                continue
            expected = [tuple(v) for v in itertools.product(
                fragment.carrier(j, carrier_bound), repeat=n)]
            invs = sorted(set(values), key=_label_key)
            ok = (len(values) == len(expected)
                  and len(invs) == len(values)
                  and sorted(expected, key=_label_key) == invs)
            stable = comp.class_count() == len(values)
            stability[f"j={j},n={n}"] = stable
            rep.check(ok and stable and _actions_ok(comp, reps), j=j, n=n,
                      classes=len(values), expected=len(expected),
                      stable=stable)
    pair_ok = _pair_strings_ok(fragment, 2, 2, pair_entry_cap,
                               carrier_bound)
    stability["pairStrings"] = pair_ok
    rep.check(pair_ok, check="pair-strings")
    rep.stability = stability
    return rep


def _actions_ok(comp: KeypropComputation, reps) -> bool:
    """Both hom actions agree with the Set(n, F[j]) ones through the
    invariant, on every representative in ``reps`` and every elementary
    map out of [j].  Neither membership nor the invariant of an element
    changes when the quotient grows, so ``comp`` may have grown past the
    representatives' levels."""
    F, j = comp.fragment, comp.j
    for (a, b, g) in _elementary_maps(j + 1):
        if a != j:
            continue
        # g: [j] -> [b] acts on the j side by postcomposition
        for r in reps:
            k, y, xs = r
            moved_inv = tuple(F.map(g, b, v) for v in comp.invariant(r))
            fiber_inv = tuple(
                F.map(tuple(g[v] for v in y), b, x) for x in xs)
            if moved_inv != fiber_inv:
                return False
    # The n side holds by construction.  Precomposing (k, y, xs) with
    # v: [n] -> [n] gives (k, y, xs o v), an element because its
    # components are the representative's own, and component t of its
    # invariant is F.map(y, j, xs[v[t]]), the same call as component
    # v[t] of the representative's.
    return True


def _pair_strings_ok(fragment: FinitaryMonadFragment, j: int, n: int,
                     entry_cap: int,
                     carrier_bound: Optional[int]) -> bool:
    """Adjoining length-two strings must not change the quotient.

    A pair element (("pair", k1, k2), y, (alpha, xs)) is glued to its
    reduction along the canonical insertions ins1, ins2 of [k1] and [k2]
    into [k1 + k2]: the singleton element (k1 + k2, y, F(ins) xs).  The
    reduction must be an element of the singleton quotient (each F(ins) x
    lies in the bounded carrier F[k1 + k2]), and the pair element's own
    value, F(y o ins) x per component, must be the reduction's invariant,
    F(y)(F(ins) x); otherwise the gluing would merge two classes.  No
    quotient is built: neither test reads one.
    """
    F = fragment
    members = [set(F.carrier(k, carrier_bound))
               for k in range(2 * entry_cap + 1)]
    checked = 0
    for k1 in range(entry_cap + 1):
        for k2 in range(entry_cap + 1):
            total = k1 + k2
            inserts = (tuple(range(k1)), tuple(range(k1, total)))
            pools = [F.carrier(k, carrier_bound) for k in (k1, k2)]
            reduced = [{x: F.map(ins, total, x) for x in pool}
                       for ins, pool in zip(inserts, pools)]
            for y in itertools.product(range(j), repeat=total):
                y_ins = [tuple(y[i] for i in ins) for ins in inserts]
                for alpha in itertools.product(range(2), repeat=n):
                    for xs in itertools.product(
                            *(pools[alpha[t]] for t in range(n))):
                        checked += 1
                        target = [reduced[alpha[t]][xs[t]] for t in range(n)]
                        if not members[total].issuperset(target):
                            return False
                        value = tuple(F.map(y_ins[alpha[t]], j, xs[t])
                                      for t in range(n))
                        if value != tuple(F.map(y, j, z) for z in target):
                            return False
    return checked > 0
