import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lawvere"


def top_level_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 10
    foreign = {(path.name, name) for path in sources
               for name in top_level_imports(path)
               if name != "lawvere" and name not in sys.stdlib_module_names}
    assert foreign == set()
