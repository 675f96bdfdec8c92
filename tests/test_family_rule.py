"""The pair families' rule is written once, in ``involutions``: how each
family reads a covering's weights (``_weights``) and which shapes its
coverings take (``_shapes``, which also labels its cells).  A weight
reading or a shape listing anywhere else in the module fails here, so the
index, the enumerator, the validator and ``rho`` cannot drift apart."""

import ast
from pathlib import Path

import kostka

# owner function -> the functions (by name) and methods (by attribute) it alone may read
RULES = {
    "_weights": ({"perm_inverse", "flatten", "dec"}, {"delta", "content"}),
    "_shapes": ({"partitions_of", "compositions_of"}, set()),
}


def _reads():
    """[(enclosing function or None, name)] for each read of a guarded name
    in ``involutions``: a bare name (a call or an alias) or an attribute."""
    functions = set().union(*(names for names, _ in RULES.values()))
    attributes = set().union(*(attrs for _, attrs in RULES.values()))
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and node.id in functions:
            found.append((function, node.id))
        if isinstance(node, ast.Attribute) and node.attr in attributes:
            found.append((function, node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    path = Path(kostka.__file__).parent / "involutions.py"
    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def test_each_family_rule_is_read_only_by_its_owner():
    found = _reads()
    owner = {name: rule for rule, (names, attrs) in RULES.items() for name in names | attrs}
    assert [(function, name) for function, name in found if function != owner[name]] == []
    # each owner still states its rule
    assert {function for function, _ in found} == set(RULES)
