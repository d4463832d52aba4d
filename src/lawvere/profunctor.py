"""Profunctors between finite categories as validated tables, composed by
coend: a disjoint union of pairs quotiented by the middle category's
action, computed with union-find.

Conventions.  A profunctor F from C to D assigns a finite set F(d, c) to
each pair of objects, covariant in the C argument and contravariant in
the D argument:

* ``act_c(f, d, x)``: for f: c -> c' sends x in F(d, c) to F(d, c');
* ``act_d(g, c, x)``: for g: d' -> d sends x in F(d, c) to F(d', c).

A monad in Prof is an endo-profunctor read in arrow form: an element of
F(x, y) is an arrow x -> y, ``act_d`` by f: x' -> x precomposes and
``act_c`` by g: y -> y' postcomposes.  With a unit and a multiplication
that composes arrows, that is exactly an identity-on-objects functor out
of the base (``monad_to_functor`` and ``functor_to_monad``).

Validation.  ``FiniteProfunctor`` checks its tables in this order, and
raises at the first failure:

1. one walk over the non-empty cells, d over the target's objects and c
   over the source's: the cell lists no element twice; then, element by
   element, every arrow out of c acts (a missing entry raises "no
   C-action") into the table, every arrow into d likewise, and the two
   identities act trivially;
2. every cell is over an object of each category;
3. the C-action is functorial, then the D-action, then the two actions
   commute.

Step 3 skips identity arrows.  That is exact: step 1 has shown that
identities fix every element of every cell, so a square with an identity
side commutes.  Every check reads ``table``, ``c_action``, ``d_action``
and the categories' ``arrows`` index directly; so do ``compose_prof`` and
``prof_iso``, which rely on the same facts about their validated inputs.
"""
from __future__ import annotations

import itertools
from typing import Callable, Optional, Sequence

from .fincat import (FiniteCategory, FiniteFunctor, Morphism,
                     identity_functor)
from .terms import StructuralError


class DisjointSet:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        if x not in self.parent:
            self.parent[x] = x

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic representative: the smaller repr wins
            if _label_key(rb) < _label_key(ra):
                ra, rb = rb, ra
            self.parent[rb] = ra

    def classes(self) -> dict:
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


def _label_key(x):
    return (str(type(x)), repr(x))


class FiniteProfunctor:
    def __init__(self, name: str, src: FiniteCategory, tgt: FiniteCategory,
                 table: dict, c_action: dict, d_action: dict):
        """``table[(d, c)]`` lists the elements; ``c_action[(f.name, d, x)]``
        and ``d_action[(g.name, c, x)]`` give the two actions."""
        self.name = name
        self.src = src
        self.tgt = tgt
        self.table = {k: tuple(v) for k, v in table.items()}
        self.c_action = dict(c_action)
        self.d_action = dict(d_action)
        self._validate()

    def elements(self, d, c) -> tuple:
        return self.table.get((d, c), ())

    def _missing(self, side: str, name, over, x) -> StructuralError:
        return StructuralError(f"{self.name}: no {side}-action of {name} "
                               f"on {x!r} over {over!r}")

    def act_c(self, f: Morphism, d, x):
        try:
            return self.c_action[(f.name, d, x)]
        except KeyError:
            raise self._missing("C", f.name, d, x) from None

    def act_d(self, g: Morphism, c, x):
        try:
            return self.d_action[(g.name, c, x)]
        except KeyError:
            raise self._missing("D", g.name, c, x) from None

    def total_size(self) -> int:
        return sum(len(v) for v in self.table.values())

    def __repr__(self):
        return (f"FiniteProfunctor({self.name}: {self.src.name} -> "
                f"{self.tgt.name}, {self.total_size()} elements)")

    def _validate(self):
        """The checks of the module docstring, in its order."""
        name, table = self.name, self.table
        cact, dact = self.c_action, self.d_action
        C, D = self.src.arrows, self.tgt.arrows
        met = 0
        cells = []
        for d in self.tgt.objects:
            at_d = D[d]
            for c in self.src.objects:
                xs = table.get((d, c))
                if xs is None:
                    continue
                met += 1
                if not xs:
                    continue
                if len(xs) > 1 and len(set(xs)) != len(xs):
                    twice = next(x for i, x in enumerate(xs)
                                 if x in xs[:i])
                    raise StructuralError(
                        f"{name}: cell ({d!r}, {c!r}) lists {twice!r} twice")
                at_c = C[c]
                cells.append((d, c, xs, at_c, at_d))
                for x in xs:
                    for f, c2 in at_c.out:
                        try:
                            y = cact[(f, d, x)]
                        except KeyError:
                            raise self._missing("C", f, d, x) from None
                        if y not in table.get((d, c2), ()):
                            raise StructuralError(
                                f"{name}: C-action leaves the table")
                    for g, d2 in at_d.into:
                        try:
                            y = dact[(g, c, x)]
                        except KeyError:
                            raise self._missing("D", g, c, x) from None
                        if y not in table.get((d2, c), ()):
                            raise StructuralError(
                                f"{name}: D-action leaves the table")
                    if cact[(at_c.identity, d, x)] != x:
                        raise StructuralError(f"{name}: C-identity acts")
                    if dact[(at_d.identity, c, x)] != x:
                        raise StructuralError(f"{name}: D-identity acts")
        if met != len(table):
            # objects are distinct, so some key is over no pair of them
            ghost = next(k for k in table if not (
                isinstance(k, tuple) and len(k) == 2
                and k[0] in D and k[1] in C))
            raise StructuralError(
                f"{name}: cell {ghost!r} is not over an object of "
                f"{self.tgt.name} and an object of {self.src.name}")
        # every action of every walked element is in the dicts and lands
        # in a walked cell, so the lookups below cannot miss
        for d, c, xs, at_c, _ in cells:
            for g2, g1, gf in at_c.after_from:
                for x in xs:
                    if cact[(g2, d, cact[(g1, d, x)])] != cact[(gf, d, x)]:
                        raise StructuralError(
                            f"{name}: C-action not functorial")
        for d, c, xs, _, at_d in cells:
            for g2, g1, gf in at_d.after_into:
                for x in xs:
                    if dact[(g1, c, dact[(g2, c, x)])] != dact[(gf, c, x)]:
                        raise StructuralError(
                            f"{name}: D-action not functorial")
        # the two actions commute
        for d, c, xs, at_c, at_d in cells:
            for f, c2 in at_c.out_ni:
                fxs = [cact[(f, d, x)] for x in xs]
                for g, d2 in at_d.into_ni:
                    for x, fx in zip(xs, fxs):
                        if dact[(g, c2, fx)] != cact[(f, d2, dact[(g, c, x)])]:
                            raise StructuralError(
                                f"{name}: actions do not commute")


def hom_profunctor(cat: FiniteCategory) -> FiniteProfunctor:
    """The identity 1-cell: table (d, c) -> hom(d, c)."""
    return representable(identity_functor(cat), f"hom({cat.name})")


def representable(functor: FiniteFunctor, name: str = "") -> FiniteProfunctor:
    """For H: C -> D the table (d, c) -> D(d, Hc)."""
    C, D = functor.src, functor.tgt
    table = {(d, c): tuple(m.name for m in D.hom(d, functor.on_obj(c)))
             for d in D.objects for c in C.objects}
    c_action = {}
    d_action = {}
    for d in D.objects:
        for c in C.objects:
            for mname in table[(d, c)]:
                m = D.morphism(mname)
                for f in C.out_of(c):
                    c_action[(f.name, d, mname)] = \
                        D.compose(functor.on_mor(f), m).name
                for g in D.into(d):
                    d_action[(g.name, c, mname)] = D.compose(m, g).name
    return FiniteProfunctor(name or f"rep({functor.src.name})",
                            C, D, table, c_action, d_action)


def constant_profunctor(src: FiniteCategory, tgt: FiniteCategory,
                        labels: Sequence, name: str = "const") -> FiniteProfunctor:
    """Every entry the same set, every morphism acting as the identity."""
    table = {(d, c): tuple(labels)
             for d in tgt.objects for c in src.objects}
    c_action = {(f.name, d, x): x for f in src.morphisms
                for d in tgt.objects for x in labels}
    d_action = {(g.name, c, x): x for g in tgt.morphisms
                for c in src.objects for x in labels}
    return FiniteProfunctor(name, src, tgt, table, c_action, d_action)


def relabel_profunctor(p: FiniteProfunctor, tag: str) -> FiniteProfunctor:
    """The same profunctor with every element wrapped; used to exercise
    isomorphism search on distinct but isomorphic tables."""
    wrap = lambda x: (tag, x)
    table = {k: tuple(wrap(x) for x in v) for k, v in p.table.items()}
    c_action = {(f, d, wrap(x)): wrap(y)
                for (f, d, x), y in p.c_action.items()}
    d_action = {(g, c, wrap(x)): wrap(y)
                for (g, c, x), y in p.d_action.items()}
    return FiniteProfunctor(f"{p.name}[{tag}]", p.src, p.tgt, table,
                            c_action, d_action)


def compose_prof(g: FiniteProfunctor, f: FiniteProfunctor,
                 name: str = "") -> FiniteProfunctor:
    """Coend composite of f: C -> D then g: D -> E.

    Elements over (e, c) are classes of pairs (d, y in g(e, d), x in
    f(d, c)) under the relation identifying the two ways a middle
    morphism can act; classes are labelled by their least member.
    """
    if f.tgt is not g.src and f.tgt != g.src:
        raise StructuralError("middle categories differ")
    C, D, E = f.src, f.tgt, g.tgt
    # both factors were validated to let identities act trivially, so an
    # identity's union would join each pair to itself
    arrows = [(h.name, h.src, h.tgt) for h in D.morphisms
              if h.name != D.arrows[h.src].identity]
    gt, gc = g.table, g.c_action
    ft, fd = f.table, f.d_action
    dsets: dict = {}
    for e in E.objects:
        for c in C.objects:
            ds = DisjointSet()
            for d in D.objects:
                ys = gt.get((e, d))
                xs = ft.get((d, c)) if ys else None
                if xs:
                    for y in ys:
                        for x in xs:
                            ds.add((d, y, x))
            for h, d, d2 in arrows:
                # h: d -> d'; (h acting into g) vs (h acting into f)
                ys = gt.get((e, d))
                xs = ft.get((d2, c)) if ys else None
                if xs:
                    for y in ys:
                        hy = gc[(h, e, y)]
                        for x in xs:
                            ds.union((d2, hy, x), (d, y, fd[(h, c, x)]))
            dsets[(e, c)] = ds

    table = {k: tuple(sorted(ds.classes(), key=_label_key))
             for k, ds in dsets.items()}

    fc, gd = f.c_action, g.d_action
    c_action = {}
    d_action = {}
    for (e, c), reps in table.items():
        outs, ins = C.arrows[c].out, E.arrows[e].into
        for rep in reps:
            d, y, x = rep
            for h, c2 in outs:
                c_action[(h, e, rep)] = dsets[(e, c2)].find(
                    (d, y, fc[(h, d, x)]))
            for h, e2 in ins:
                d_action[(h, c, rep)] = dsets[(e2, c)].find(
                    (d, gd[(h, d, y)], x))
    return FiniteProfunctor(name or f"{g.name}*{f.name}", C, E, table,
                            c_action, d_action)


def prof_iso(p: FiniteProfunctor, q: FiniteProfunctor) -> Optional[dict]:
    """Search for a natural family of bijections between two tables.

    Returns a dict (d, c) -> {p-element: q-element} or None.  Complete for
    tables whose entries are small; entries are solved in a fixed order
    with naturality pruning against already-solved neighbours.
    """
    if p.src is not q.src or p.tgt is not q.tgt:
        return None
    cells = sorted(set(p.table) | set(q.table), key=_label_key)
    pt, qt = p.table, q.table
    for cell in cells:
        if len(pt.get(cell, ())) != len(qt.get(cell, ())):
            return None
    # the naturality squares of each arrow between two cells, filed under
    # the later cell: the search solves cells in order, so a cell's
    # squares are exactly those whose two cells are solved once it is.
    # Identity arrows act trivially on both tables, so their squares
    # always commute and are left out
    C, D = p.src.arrows, p.tgt.arrows
    rank = {cell: i for i, cell in enumerate(cells)}
    squares: dict = {cell: [] for cell in cells}
    for cell in cells:
        d, c = cell
        arrows = [((d, c2), p.c_action, q.c_action, f, d)
                  for f, c2 in C[c].out_ni]
        arrows += [((d2, c), p.d_action, q.d_action, g, c)
                   for g, d2 in D[d].into_ni]
        for other, act_p, act_q, m, fixed in arrows:
            if other in rank:
                later = max(cell, other, key=rank.__getitem__)
                squares[later].append((cell, other, act_p, act_q, m, fixed))
    assign: dict = {}

    def consistent(cell) -> bool:
        for src, tgt, act_p, act_q, m, fixed in squares[cell]:
            beta = assign[tgt]
            for x, qx in assign[src].items():
                if beta[act_p[(m, fixed, x)]] != act_q[(m, fixed, qx)]:
                    return False
        return True

    # depth-first over the cells in order, one permutation iterator per
    # cell on the path; a loop, so no self-referencing closure keeps the
    # tables alive after the call
    tries: list = []
    i = 0
    while 0 <= i < len(cells):
        if len(tries) == i:
            cell = cells[i]
            tries.append((cell, pt.get(cell, ()),
                          itertools.permutations(qt.get(cell, ()))))
        cell, pe, perms = tries[i]
        for perm in perms:
            assign[cell] = dict(zip(pe, perm))
            if consistent(cell):
                i += 1
                break
        else:
            del assign[cell]
            tries.pop()
            i -= 1
    return dict(assign) if i == len(cells) else None


# ---------------------------------------------------------------------------
# monads in Prof, read in arrow form


class BimoduleMonad:
    """An endo-profunctor on the base read in arrow form, with a unit and an
    arrow-wise multiplication; exactly the data of an identity-on-objects
    functor out of the base."""

    def __init__(self, name: str, base: FiniteCategory,
                 module: FiniteProfunctor, unit: dict, mult: Callable):
        """``module.table[(x, y)]`` are the arrows x -> y; ``act_d`` by
        f: x' -> x precomposes and ``act_c`` by g: y -> y' postcomposes.
        ``unit[f.name]`` embeds a base arrow; ``mult(e1, e2)`` composes
        arrows e1: x -> y then e2: y -> z of the module."""
        self.name = name
        self.base = base
        self.module = module
        self.unit = dict(unit)
        self.mult = mult
        self._validate()

    def _composable(self):
        for (x, y), es in self.module.table.items():
            for z in self.base.objects:
                for e1 in es:
                    for e2 in self.module.elements(y, z):
                        yield x, y, z, e1, e2

    def _validate(self):
        """The unit and the multiplication land in the module, and both
        actions are composition with the unit; then ``monad_to_functor``
        validates the category and the functor from the base, which checks
        the unit laws, associativity and a unit that preserves composition.

        These are the monad laws.  Balance over the middle action follows
        from associativity once the actions are composition:
        mult(act_c(f, e1), e2) = mult(mult(e1, unit f), e2)
        = mult(e1, mult(unit f, e2)) = mult(e1, act_d(f, e2)).  Conversely
        the monad laws force the actions to be composition: balance with
        e1 = unit(id) and a unit compatible with the actions gives
        mult(unit f, e) = mult(unit id, act_d(f, e)) = act_d(f, e).
        """
        mod = self.module
        for f in self.base.morphisms:
            if self.unit[f.name] not in mod.elements(f.src, f.tgt):
                raise StructuralError(f"{self.name}: unit escapes the module")
        for x, y, z, e1, e2 in self._composable():
            if self.mult(e1, e2) not in mod.elements(x, z):
                raise StructuralError(f"{self.name}: mult escapes the module")
        for (x, y), es in mod.table.items():
            for e in es:
                for f in self.base.into(x):
                    if mod.act_d(f, y, e) != self.mult(self.unit[f.name], e):
                        raise StructuralError(
                            f"{self.name}: pre-action is not composition")
                for g in self.base.out_of(y):
                    if mod.act_c(g, x, e) != self.mult(e, self.unit[g.name]):
                        raise StructuralError(
                            f"{self.name}: post-action is not composition")
        try:
            monad_to_functor(self)
        except StructuralError as exc:
            raise StructuralError(f"{self.name}: {exc}") from exc


def monad_to_functor(m: BimoduleMonad):
    """Present the monad as a category on the same objects plus the
    identity-on-objects functor from the base; both validated.

    Also returns ``names[(x, y, e)]``, the morphism name of element e of
    the cell (x, y).
    String element labels are kept as morphism names, so rebuilding the
    monad of an identity-on-objects functor round-trips on the nose.
    """
    base = m.base
    elements = [(x, y, e) for (x, y), es in
                sorted(m.module.table.items(), key=_label_key) for e in es]
    labels = [e for _, _, e in elements]
    keep = all(isinstance(e, str) for e in labels) and \
        len(set(labels)) == len(labels)
    names = {(x, y, e): e if keep else f"e{i}"
             for i, (x, y, e) in enumerate(elements)}
    morphisms = [Morphism(names[(x, y, e)], x, y) for x, y, e in elements]
    comp = {}
    for x, y, z, e1, e2 in m._composable():
        comp[(names[(y, z, e2)], names[(x, y, e1)])] = \
            names[(x, z, m.mult(e1, e2))]
    idents = {x: names[(x, x, m.unit[base.identity(x).name])]
              for x in base.objects}
    cat = FiniteCategory(f"cat({m.name})", base.objects, morphisms, idents,
                         comp)
    functor = FiniteFunctor(
        base, cat, {o: o for o in base.objects},
        {f.name: names[(f.src, f.tgt, m.unit[f.name])]
         for f in base.morphisms})
    return cat, functor, names


def functor_to_monad(functor: FiniteFunctor, name: str = "") -> BimoduleMonad:
    """The inverse construction from an identity-on-objects functor."""
    base, cat = functor.src, functor.tgt
    if any(functor.on_obj(o) != o for o in base.objects):
        raise StructuralError("functor must be the identity on objects")
    table = {(x, y): tuple(m.name for m in cat.hom(x, y))
             for x in base.objects for y in base.objects}
    c_action = {}
    d_action = {}
    for (x, y), es in table.items():
        for e in es:
            for f in base.into(x):
                d_action[(f.name, y, e)] = cat.compose(
                    cat.morphism(e), functor.on_mor(f)).name
            for f in base.out_of(y):
                c_action[(f.name, x, e)] = cat.compose(
                    functor.on_mor(f), cat.morphism(e)).name
    module = FiniteProfunctor(f"homs({cat.name})", base, base, table,
                              c_action, d_action)
    unit = {f.name: functor.on_mor(f).name for f in base.morphisms}
    mult = lambda e1, e2: cat.compose(cat.morphism(e2), cat.morphism(e1)).name
    return BimoduleMonad(name or f"monad({cat.name})", base, module, unit,
                         mult)
