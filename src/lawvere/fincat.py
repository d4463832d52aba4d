"""Finite categories as explicit tables, with exhaustive law checking.

Morphisms are identified by name; the composition table maps a composable
pair (g after f) to the resulting morphism name.  Constructors validate
the category laws exhaustively, so anything that typechecks here really
is a category.

A category indexes its morphisms by endpoint once, in declaration order:
``out_of(x)``, ``into(x)`` and ``hom(x, y)`` read that index, so no other
module scans ``morphisms`` to find the arrows that leave or enter an
object.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Sequence

from .terms import StructuralError


@dataclass(frozen=True)
class Morphism:
    name: str
    src: object
    tgt: object

    def __repr__(self):
        return f"{self.name}:{self.src}->{self.tgt}"


def _index(morphisms, key) -> dict:
    out: dict = {}
    for m in morphisms:
        out.setdefault(key(m), []).append(m)
    return {k: tuple(ms) for k, ms in out.items()}


class FiniteCategory:
    def __init__(self, name: str, objects: Sequence, morphisms: Sequence[Morphism],
                 identities: dict, composition: dict):
        """``composition[(g.name, f.name)]`` is the name of g after f."""
        self.name = name
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self._by_name = {m.name: m for m in morphisms}
        if len(self._by_name) != len(morphisms):
            raise StructuralError("duplicate morphism names")
        self._identities = dict(identities)
        self._composition = dict(composition)
        self._out = _index(self.morphisms, attrgetter("src"))
        self._in = _index(self.morphisms, attrgetter("tgt"))
        self._hom = _index(self.morphisms, attrgetter("src", "tgt"))
        self._validate()

    def __repr__(self):
        return (f"FiniteCategory({self.name}: {len(self.objects)} objects, "
                f"{len(self.morphisms)} morphisms)")

    def morphism(self, name: str) -> Morphism:
        return self._by_name[name]

    def identity(self, obj) -> Morphism:
        return self._by_name[self._identities[obj]]

    def compose(self, g: Morphism, f: Morphism) -> Morphism:
        """g after f; f: x -> y, g: y -> z."""
        if f.tgt != g.src:
            raise StructuralError(f"{g!r} after {f!r} undefined")
        try:
            return self._by_name[self._composition[(g.name, f.name)]]
        except KeyError:
            raise StructuralError(
                f"{self.name}: the composition table names no morphism "
                f"for {g!r} after {f!r}") from None

    def out_of(self, x) -> tuple:
        """The morphisms with source x, in declaration order."""
        return self._out.get(x, ())

    def into(self, x) -> tuple:
        """The morphisms with target x, in declaration order."""
        return self._in.get(x, ())

    def hom(self, x, y) -> tuple:
        return self._hom.get((x, y), ())

    def composable_pairs(self):
        for f in self.morphisms:
            for g in self.out_of(f.tgt):
                yield g, f

    def _validate(self):
        for obj in self.objects:
            if obj not in self._identities:
                raise StructuralError(f"no identity for {obj!r}")
            i = self.identity(obj)
            if (i.src, i.tgt) != (obj, obj):
                raise StructuralError(f"identity of {obj!r} has wrong ends")
        for m in self.morphisms:
            if m.src not in self.objects or m.tgt not in self.objects:
                raise StructuralError(f"{m!r} has unknown endpoints")
        for g, f in self.composable_pairs():
            h = self.compose(g, f)
            if (h.src, h.tgt) != (f.src, g.tgt):
                raise StructuralError(f"composite of {g!r} after {f!r} "
                                      f"has wrong endpoints")
        for m in self.morphisms:
            if self.compose(m, self.identity(m.src)) != m:
                raise StructuralError(f"right identity fails at {m!r}")
            if self.compose(self.identity(m.tgt), m) != m:
                raise StructuralError(f"left identity fails at {m!r}")
        # every composite above has the right endpoints, so the
        # associativity walk reads the table by name, one column per
        # right factor (after[f][g] names g f): for each g, every h (g f)
        # against (h g) f, picked in C
        after: dict = {}
        for (g, f), gf in self._composition.items():
            after.setdefault(f, {})[g] = gf
        for g in self.morphisms:
            hs = [h.name for h in self.out_of(g.tgt)]
            pick_h = itemgetter(*hs)
            pick_hg = itemgetter(*[after[g.name][h] for h in hs])
            for f in self.into(g.src):
                col = after[f.name]
                if pick_h(after[col[g.name]]) != pick_hg(col):
                    raise StructuralError("associativity fails")


def discrete_category(objects: Sequence, name: str = "") -> FiniteCategory:
    morphisms = [Morphism(f"id_{o}", o, o) for o in objects]
    comp = {(m.name, m.name): m.name for m in morphisms}
    return FiniteCategory(name or f"discrete{len(list(objects))}", objects,
                          morphisms, {o: f"id_{o}" for o in objects}, comp)


def chain_category(n: int, name: str = "") -> FiniteCategory:
    """Free category on the chain 0 -> 1 -> ... -> n-1: one arrow i -> j
    for every i <= j."""
    objects = list(range(n))
    morphisms = [Morphism(f"{i}->{j}", i, j)
                 for i in range(n) for j in range(i, n)]
    comp = {(f"{j}->{k}", f"{i}->{j}"): f"{i}->{k}"
            for i in objects for j in range(i, n) for k in range(j, n)}
    return FiniteCategory(name or f"chain{n}", objects, morphisms,
                          {i: f"{i}->{i}" for i in objects}, comp)


def monoid_category(elements: Sequence, table: dict, unit,
                    name: str = "") -> FiniteCategory:
    """One-object category from a finite monoid multiplication table;
    ``table[(a, b)]`` is a then b read as composition g after f with
    f = a, g = b."""
    obj = "*"
    morphisms = [Morphism(str(e), obj, obj) for e in elements]
    comp = {(str(b), str(a)): str(table[(b, a)])
            for a in elements for b in elements}
    return FiniteCategory(name or "monoid-cat", [obj], morphisms,
                          {obj: str(unit)}, comp)


def iso_pair_category(name: str = "iso2") -> FiniteCategory:
    """Two objects with a pair of mutually inverse arrows between them."""
    objects = ["x", "y"]
    morphisms = [Morphism("id_x", "x", "x"), Morphism("id_y", "y", "y"),
                 Morphism("u", "x", "y"), Morphism("v", "y", "x")]
    comp = {
        ("id_x", "id_x"): "id_x", ("id_y", "id_y"): "id_y",
        ("u", "id_x"): "u", ("id_y", "u"): "u",
        ("v", "id_y"): "v", ("id_x", "v"): "v",
        ("v", "u"): "id_x", ("u", "v"): "id_y",
    }
    return FiniteCategory(name, objects, morphisms,
                          {"x": "id_x", "y": "id_y"}, comp)


class FiniteFunctor:
    def __init__(self, src: FiniteCategory, tgt: FiniteCategory,
                 obj_map: dict, mor_map: dict):
        self.src = src
        self.tgt = tgt
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        self._validate()

    def on_obj(self, x):
        return self.obj_map[x]

    def on_mor(self, f: Morphism) -> Morphism:
        return self.tgt.morphism(self.mor_map[f.name])

    def _validate(self):
        for f in self.src.morphisms:
            ff = self.on_mor(f)
            if (ff.src, ff.tgt) != (self.on_obj(f.src), self.on_obj(f.tgt)):
                raise StructuralError(f"functor breaks endpoints at {f!r}")
        for x in self.src.objects:
            if self.on_mor(self.src.identity(x)) != \
                    self.tgt.identity(self.on_obj(x)):
                raise StructuralError(f"functor breaks identity at {x!r}")
        for g, f in self.src.composable_pairs():
            if self.on_mor(self.src.compose(g, f)) != \
                    self.tgt.compose(self.on_mor(g), self.on_mor(f)):
                raise StructuralError("functor breaks composition")


def identity_functor(cat: FiniteCategory) -> FiniteFunctor:
    return FiniteFunctor(cat, cat, {o: o for o in cat.objects},
                         {m.name: m.name for m in cat.morphisms})


def compose_functors(g: FiniteFunctor, f: FiniteFunctor) -> FiniteFunctor:
    return FiniteFunctor(f.src, g.tgt,
                         {o: g.on_obj(f.on_obj(o)) for o in f.src.objects},
                         {m.name: g.on_mor(f.on_mor(m)).name
                          for m in f.src.morphisms})


def constant_functor(src: FiniteCategory, tgt: FiniteCategory,
                     obj) -> FiniteFunctor:
    ident = tgt.identity(obj)
    return FiniteFunctor(src, tgt, {o: obj for o in src.objects},
                         {m.name: ident.name for m in src.morphisms})
