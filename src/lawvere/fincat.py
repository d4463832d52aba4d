"""Finite categories as explicit tables, with exhaustive law checking.

Morphisms are identified by name; the composition table maps a composable
pair (g after f) to the resulting morphism name.  Constructors validate
the category laws exhaustively, so anything that typechecks here really
is a category.

The law checks walk the arrows at each object in declaration order, and
the category keeps what they walked as its one index:

* ``arrows[x]`` holds, by name, the identity of x, the arrows out of x
  as (name, target) and into x as (name, source), the same two lists
  without the identity, and the composable triples (g, f, g f) of
  non-identity arrows, filed by f's source (``after_from``) and by g's
  target (``after_into``);
* ``hom(x, y)`` is the ``Morphism``s from x to y, in declaration order;
* ``composition[(g, f)]`` names g after f, for exactly the composable
  pairs.

No other module scans ``morphisms`` to find the arrows that leave or
enter an object.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import NamedTuple, Sequence

from .terms import StructuralError


@dataclass(frozen=True)
class Morphism:
    name: str
    src: object
    tgt: object

    def __repr__(self):
        return f"{self.name}:{self.src}->{self.tgt}"


class Arrows(NamedTuple):
    """The arrows at one object, by name; see the module docstring."""
    identity: str
    out: tuple
    into: tuple
    out_ni: tuple
    into_ni: tuple
    after_from: tuple
    after_into: tuple


class FiniteCategory:
    def __init__(self, name: str, objects: Sequence, morphisms: Sequence[Morphism],
                 identities: dict, composition: dict):
        """``composition[(g.name, f.name)]`` is the name of g after f."""
        self.name = name
        self.objects = tuple(objects)
        if len(set(self.objects)) != len(self.objects):
            raise StructuralError("duplicate objects")
        self.morphisms = tuple(morphisms)
        self._by_name = {m.name: m for m in morphisms}
        if len(self._by_name) != len(morphisms):
            raise StructuralError("duplicate morphism names")
        self._identities = dict(identities)
        # read by ``compose`` while ``_validate`` checks it, which then
        # keeps only its composable entries
        self.composition = composition
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
            return self._by_name[self.composition[(g.name, f.name)]]
        except KeyError:
            raise StructuralError(
                f"{self.name}: the composition table names no morphism "
                f"for {g!r} after {f!r}") from None

    def hom(self, x, y) -> tuple:
        return self._hom.get((x, y), ())

    def _validate(self):
        ids = self._identities
        for obj in self.objects:
            if obj not in ids:
                raise StructuralError(f"no identity for {obj!r}")
            if ids[obj] not in self._by_name:
                raise StructuralError(f"{self.name}: the identity of {obj!r} "
                                      f"names no morphism: {ids[obj]!r}")
            i = self.identity(obj)
            if (i.src, i.tgt) != (obj, obj):
                raise StructuralError(f"identity of {obj!r} has wrong ends")
        out: dict = {x: [] for x in self.objects}
        into: dict = {x: [] for x in self.objects}
        hom: dict = {}
        for m in self.morphisms:
            if m.src not in out or m.tgt not in out:
                raise StructuralError(f"{m!r} has unknown endpoints")
            out[m.src].append(m)
            into[m.tgt].append(m)
            hom.setdefault((m.src, m.tgt), []).append(m)
        # one walk over the composable pairs, f then each g out of its
        # target; after[f][g] names g f
        id_names = {ids[x] for x in self.objects}
        after_from: dict = {x: [] for x in self.objects}
        after_into: dict = {x: [] for x in self.objects}
        composition: dict = {}
        after: dict = {}
        for f in self.morphisms:
            col = after[f.name] = {}
            for g in out[f.tgt]:
                h = self.compose(g, f)
                if (h.src, h.tgt) != (f.src, g.tgt):
                    raise StructuralError(f"composite of {g!r} after {f!r} "
                                          f"has wrong endpoints")
                composition[(g.name, f.name)] = col[g.name] = h.name
                if f.name not in id_names and g.name not in id_names:
                    triple = (g.name, f.name, h.name)
                    after_from[f.src].append(triple)
                    after_into[g.tgt].append(triple)
        for m in self.morphisms:
            if after[ids[m.src]][m.name] != m.name:
                raise StructuralError(f"right identity fails at {m!r}")
            if after[m.name][ids[m.tgt]] != m.name:
                raise StructuralError(f"left identity fails at {m!r}")
        # every composite above has the right endpoints, so the
        # associativity walk reads the table by name, one column per
        # right factor: for each g, every h (g f) against (h g) f, picked
        # in C
        for g in self.morphisms:
            hs = [h.name for h in out[g.tgt]]
            pick_h = itemgetter(*hs)
            pick_hg = itemgetter(*[after[g.name][h] for h in hs])
            for f in into[g.src]:
                col = after[f.name]
                if pick_h(after[col[g.name]]) != pick_hg(col):
                    raise StructuralError("associativity fails")
        self.composition = composition
        self._hom = {k: tuple(ms) for k, ms in hom.items()}
        self.arrows = {}
        for x in self.objects:
            outs = tuple((m.name, m.tgt) for m in out[x])
            ins = tuple((m.name, m.src) for m in into[x])
            self.arrows[x] = Arrows(
                ids[x], outs, ins,
                tuple(a for a in outs if a[0] not in id_names),
                tuple(a for a in ins if a[0] not in id_names),
                tuple(after_from[x]), tuple(after_into[x]))


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
        mor_map = self.mor_map
        for f in self.src.morphisms:
            ff = self.on_mor(f)
            if (ff.src, ff.tgt) != (self.on_obj(f.src), self.on_obj(f.tgt)):
                raise StructuralError(f"functor breaks endpoints at {f!r}")
        for x in self.src.objects:
            if mor_map[self.src.arrows[x].identity] != \
                    self.tgt.arrows[self.on_obj(x)].identity:
                raise StructuralError(f"functor breaks identity at {x!r}")
        # the endpoints are kept, so every image pair is composable
        for (g, f), gf in self.src.composition.items():
            if mor_map[gf] != self.tgt.composition[(mor_map[g], mor_map[f])]:
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
