"""Which functions of ``src/lawvere`` do the acceptance and CLI tests
never call?

Run by hand from the repository root:

    PYTHONPATH=src python tests/unreached.py [pytest arguments]

It runs ``tests/test_acceptance.py`` and ``tests/test_cli.py`` (or the
given pytest arguments) in this process under a ``sys.settrace`` call
tracer, then prints every function, method and nested function defined
in ``src/lawvere`` whose code never started, with its line count, and a
last line with the totals.  Lambdas are not counted, and commands that
the CLI tests run in a subprocess are not traced.  Only the trace hook
is used, so nothing beyond the standard library and the test runner is
needed.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lawvere"
DEFAULT_TESTS = ["tests/test_acceptance.py", "tests/test_cli.py"]


def definitions(path: Path) -> list:
    """(first line, name, line count) of every ``def`` in a module,
    nested ones and methods included; the first line is the first
    decorator's, as a code object's ``co_firstlineno`` is."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] +
                        [d.lineno for d in node.decorator_list])
            out.append((first, node.name, node.end_lineno - first + 1))
    return out


def run_traced(args: list) -> set:
    """Run pytest on ``args``; the (path, first line) of every code
    object in ``src/lawvere`` that was called."""
    import pytest

    called: set = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        called.add((code.co_filename, code.co_firstlineno))
        # no local tracing: only calls are recorded

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    if code not in (0, 1):
        raise SystemExit(f"pytest exited {code}")
    files = {name: Path(name).resolve() for name, _ in called}
    return {(files[name], line) for name, line in called
            if files[name].parent == PACKAGE}


def main(argv: list) -> int:
    called = run_traced(argv or DEFAULT_TESTS)
    total = lines = 0
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        for first, name, count in definitions(path):
            total += 1
            if (path, first) not in called:
                unreached.append((path.name, first, name, count))
                lines += count
    for fname, first, name, count in unreached:
        print(f"{fname}:{first} {name} ({count} lines)")
    print(f"unreached: {len(unreached)} of {total} functions, "
          f"{lines} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
