import ast
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "skelpoly"


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imported(tree, relative=False):
    """Each name a tree imports from skelpoly: by a relative import when
    `relative`, else from `skelpoly` or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 if relative else (node.module or "").startswith("skelpoly")
        ):
            yield from (alias.name for alias in node.names)


def _referenced(tree):
    """Every name a tree uses as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_caller_in_the_package_or_the_acceptance_suite():
    # An exported name is used when a module of the package references it outside
    # its own definition, or the acceptance suite imports it; a use inside the
    # definition of an unused name does not count, so a record that only an
    # unused function returns is unused too.
    exports = set(_imported(_parse(PACKAGE / "__init__.py"), relative=True))
    assert len(exports) > 50
    statements = []  # (the names a top-level statement defines, the names it uses)
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in _parse(path).body:
                defined = {getattr(node, "name", None)} - {None}
                statements.append((defined, _referenced(node) - defined))
    pinned = set(_imported(_parse(ROOT / "tests" / "test_acceptance.py")))
    unused, previous = set(), None
    while unused != previous:
        previous = unused
        used = set().union(*(uses for defined, uses in statements if not defined & unused))
        unused = exports - used - pinned
    assert sorted(unused) == []


def test_the_package_imports_only_the_standard_library():
    # pyproject declares no dependencies: every absolute import of the package
    # names a standard-library module
    outside = set()
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside.update(
                (path.name, name) for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            )
    assert sorted(outside) == []


def test_only_the_tableaux_module_reads_the_syt_table():
    # every count by descent composition goes through `tableaux.descent_tally`, so a
    # new route to f_(shape, alpha) changes that one function's body
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py")
        if path.name not in ("__init__.py", "tableaux.py")
        and "yamanouchi_table" in _referenced(_parse(path))
    )
    assert readers == []
