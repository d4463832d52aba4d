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


def unread_imports(path):
    """The names a module's imports bind that the module never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            bound.update(alias.asname or alias.name.partition(".")[0]
                         for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_is_read():
    # __init__.py imports names to re-export them
    unread = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "__init__.py"
              for name in unread_imports(path)}
    assert unread == set()
