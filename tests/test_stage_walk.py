"""The stage walk of a tunnel hook covering is written once, in
``tunnelhooks.replay_hooks``: only there is a stage's ``GBPRDiagram`` built
(through the trusted builder ``GBPRDiagram._of``) and a hook cut out of it
with ``_hook_at``.  Every other constructor (``build_thc``) replays a
permutation, so the two cannot drift apart."""

import ast
from pathlib import Path

import kostka

STAGE_WALK = {"GBPRDiagram._of", "_hook_at"}
GUARDED = STAGE_WALK | {"GBPRDiagram"}


def _guarded_name(func):
    """The guarded name a call's function expression ends in, or None:
    ``_hook_at``, ``GBPRDiagram`` or ``GBPRDiagram._of``, bare or reached
    through a module (``th._hook_at``, ``tunnelhooks.GBPRDiagram._of``)."""
    parts = []
    while isinstance(func, ast.Attribute):
        parts.append(func.attr)
        func = func.value
    if not isinstance(func, ast.Name):
        return None
    parts.append(func.id)
    dotted = ".".join(reversed(parts))
    return next((name for name in GUARDED if dotted == name or dotted.endswith("." + name)),
                None)


def _calls():
    """[(module, enclosing function or None, name)] for each call of a
    guarded name anywhere in the package."""
    found = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            name = _guarded_name(node.func)
            if name is not None:
                found.append((module, function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted(Path(kostka.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return found


def test_only_replay_hooks_walks_the_stages():
    found = _calls()
    assert [call for call in found if call[:2] != ("tunnelhooks", "replay_hooks")] == []
    # the walk still builds each stage, unchecked, and cuts its hook
    assert {name for _, _, name in found} == STAGE_WALK
