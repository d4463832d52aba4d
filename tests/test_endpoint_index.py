"""Only ``fincat`` decides which arrows leave or enter an object.

``FiniteCategory`` keeps one index, built while it checks its laws:
every other module reads ``arrows`` or ``hom``.  A loop over a
``morphisms`` attribute that begins by filtering its variable's ``src``
or ``tgt`` re-derives that index.
"""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lawvere"


def _is_endpoint(node, var: str) -> bool:
    return isinstance(node, ast.Attribute) and node.attr in ("src", "tgt") \
        and isinstance(node.value, ast.Name) and node.value.id == var


def _compares_endpoint(test, var: str) -> bool:
    """Whether the condition compares ``var.src`` or ``var.tgt`` with
    something, which is what a filter for one object does."""
    return any(isinstance(n, ast.Compare)
               and any(_is_endpoint(side, var)
                       for side in [n.left, *n.comparators])
               for n in ast.walk(test))


def endpoint_scans(source: str) -> list:
    """Line numbers of loops over ``<expr>.morphisms`` whose first
    statement (or, in a comprehension, whose condition) filters the loop
    variable by an endpoint."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For):
            loop, filters = node, node.body[:1]
            filters = [s.test for s in filters if isinstance(s, ast.If)]
        elif isinstance(node, ast.comprehension):
            loop, filters = node, node.ifs
        else:
            continue
        if not (isinstance(loop.iter, ast.Attribute)
                and loop.iter.attr == "morphisms"
                and isinstance(loop.target, ast.Name)):
            continue
        if any(_compares_endpoint(t, loop.target.id) for t in filters):
            found.append(loop.iter.lineno)
    return found


def test_no_module_but_fincat_filters_morphisms_by_endpoint():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    scans = {path.name: endpoint_scans(path.read_text())
             for path in sources if path.name != "fincat.py"}
    assert {name: lines for name, lines in scans.items() if lines} == {}


def test_the_guard_sees_each_form_of_scan():
    loop = ("for f in cat.morphisms:\n"
            "    if f.src != c:\n"
            "        continue\n"
            "    use(f)\n")
    inline = ("for g in self.tgt.morphisms:\n"
              "    if g.tgt == d:\n"
              "        use(g)\n")
    comprehension = "xs = [m for m in C.morphisms if m.src == c]\n"
    for source in (loop, inline, comprehension):
        assert endpoint_scans(source) == [1]
    # a loop that filters later, filters another name or only passes an
    # endpoint on is not a scan for the arrows at one object
    assert endpoint_scans("for f in cat.morphisms:\n"
                          "    n += 1\n"
                          "    if f.src == c:\n"
                          "        use(f)\n") == []
    assert endpoint_scans("for f in cat.morphisms:\n"
                          "    if g.src == c:\n"
                          "        use(f)\n") == []
    assert endpoint_scans("for f in cat.morphisms:\n"
                          "    if look(f.src, f.tgt):\n"
                          "        use(f)\n") == []
    assert endpoint_scans("for f in morphisms:\n"
                          "    if f.src == c:\n"
                          "        use(f)\n") == []
