"""Memoization in the package lives in one place: the verifier's
per-degree index (``involutions._index``, bounded to one family and
degree).  A cache anywhere else fails here, so the decision stays in one
module."""

import ast
from pathlib import Path

import kostka

ALLOWED = {("involutions", "_index")}
CACHE_NAMES = {"cache", "lru_cache", "cached_property"}


def _name(node):
    """The called name of a decorator or call: ``lru_cache`` for
    ``lru_cache``, ``lru_cache(maxsize=1)`` and ``functools.lru_cache``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _caches():
    """{(module, function): decorator node} for every cache decorator in the
    package, and every cache built by a plain call, keyed by its line."""
    found = {}
    for path in sorted(Path(kostka.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        decorators = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for deco in node.decorator_list:
                    if _name(deco) in CACHE_NAMES:
                        found[path.stem, node.name] = deco
                        decorators.add(id(deco))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in decorators:
                if _name(node) in CACHE_NAMES:
                    found[path.stem, f"line {node.lineno}"] = node
    return found


def test_caches_sit_only_on_the_index():
    found = _caches()
    assert set(found) <= ALLOWED, sorted(set(found) - ALLOWED)
    # the index is the verifier's memo, and it holds one (family, degree)
    index = found["involutions", "_index"]
    assert isinstance(index, ast.Call) and _name(index) == "lru_cache"
    assert [(k.arg, ast.literal_eval(k.value)) for k in index.keywords] == [("maxsize", 1)]
