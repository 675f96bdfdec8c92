"""The stage walk of a tunnel hook covering is written once, in
``tunnelhooks.replay_hooks``: only there is a stage's ``GBPRDiagram`` built
and a hook cut out of it with ``_hook_at``.  Every other constructor
(``build_thc``) replays a permutation, so the two cannot drift apart."""

import ast
from pathlib import Path

import kostka

GUARDED = {"GBPRDiagram", "_hook_at"}


def _calls():
    """[(enclosing function or None, name)] for each call of a guarded name
    in ``tunnelhooks``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in GUARDED):
            found.append((function, node.func.id))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    path = Path(kostka.__file__).parent / "tunnelhooks.py"
    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_only_replay_hooks_walks_the_stages():
    found = _calls()
    assert [call for call in found if call[0] != "replay_hooks"] == []
    # the walk still builds each stage and cuts its hook
    assert {name for _, name in found} == GUARDED
