"""Process pools in the package start in one place: the verifier's loop
over cells (``involutions.verify_involution``).  It imports
``multiprocessing`` inside the function, as it starts a pool, so importing
a module never pays for it.  A pool or a module-level import anywhere else
fails here."""

import ast
from pathlib import Path

import kostka

ALLOWED = {("involutions", "verify_involution")}
PROCESS_MODULES = {"multiprocessing", "concurrent"}
POOL_NAMES = {"Pool", "ProcessPoolExecutor"}


def _called(node):
    """The name a call calls: ``Pool`` for ``Pool(2)`` and ``mp.Pool(2)``."""
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _imported(node):
    """The top-level modules an import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return {node.module.split(".")[0]}
    return set()


def _uses():
    """[(module, enclosing function or None, what)] for each import of a
    process module and each pool construction in the package."""
    found = []

    def visit(node, stem, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if _imported(node) & PROCESS_MODULES:
            found.append((stem, function, "import"))
        if isinstance(node, ast.Call) and _called(node) in POOL_NAMES:
            found.append((stem, function, "pool"))
        for child in ast.iter_child_nodes(node):
            visit(child, stem, function)

    for path in sorted(Path(kostka.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_multiprocessing_is_imported_only_where_the_pool_starts():
    found = _uses()
    at_module_level = [(stem, what) for stem, function, what in found if function is None]
    assert not at_module_level
    assert {(stem, function) for stem, function, _ in found} == ALLOWED
    assert {what for _, _, what in found} == {"import", "pool"}
