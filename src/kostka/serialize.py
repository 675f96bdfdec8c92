"""Canonical JSON encodings for every object the package exchanges.

Schemas (all keys sorted, compact separators, so serialization is
byte-stable):

* covering:  {"kind": "thc", "shape": [...], "perm": [...]}
* tableau:   {"kind": "tableau", "shape": [...], "rows": [[...], ...]}
* rim hooks: {"kind": "srht", "shape": [...], "hooks": [[[i, j], ...], ...]}
* pair:      {"setKind": "A".."E", "left": ..., "right": ...}; the tableau
  sits on the left for A/B and on the right for C/D/E
* trace:     {"kind": "trace", "maps": [...], "pairs": [...]}; a ``rho``
  walk, its end pairs D and its interior pairs E
* matrix:    {"kind": "matrix", "degree": n, "indexKind": ...,
              "labels": [[...], ...], "entries": [[...], ...]}

Compositions and permutations are plain integer arrays.
"""

from __future__ import annotations

import json
from typing import Any

from .involutions import Pair, Trace
from .matrices import TransitionMatrix
from .rimhooks import SpecialRimHookTableau
from .tableaux import Rows, shape_of
from .tunnelhooks import TunnelHookCovering


_RECORD_KINDS = {TunnelHookCovering: "thc", SpecialRimHookTableau: "srht", Pair: "pair",
                 Trace: "trace", TransitionMatrix: "matrix"}


def kind_of(value: Any) -> str:
    """The kind of a package object: "thc", "srht", "pair", "trace", "matrix",
    "tableau" or "sequence" (a composition or permutation); ValueError for
    anything else.  The only code that tells objects apart.  A record is a
    tuple equal to the plain tuple of its fields, but never ``type(value) is
    tuple``, so only a plain tuple is a bare tableau (at least one row, each
    a plain tuple) or a sequence (any other, the empty one included)."""
    if type(value) is tuple:
        return "tableau" if value and all(type(row) is tuple for row in value) else "sequence"
    kind = _RECORD_KINDS.get(type(value))
    if kind is None:
        raise ValueError(f"not a package object: {type(value).__name__}")
    return kind


def thc_to_obj(covering: TunnelHookCovering) -> dict:
    return {"kind": "thc", "shape": list(covering.shape), "perm": list(covering.perm)}


def tableau_to_obj(rows: Rows) -> dict:
    return {
        "kind": "tableau",
        "shape": list(shape_of(rows)),
        "rows": [list(row) for row in rows],
    }


def srht_to_obj(tableau: SpecialRimHookTableau) -> dict:
    return {
        "kind": "srht",
        "shape": list(tableau.shape),
        "hooks": [[list(cell) for cell in path] for path in tableau.hooks],
    }


def pair_to_obj(pair: Pair) -> dict:
    thc_obj = thc_to_obj(pair.thc)
    tab_obj = tableau_to_obj(pair.tableau)
    if pair.kind in ("A", "B"):
        left, right = tab_obj, thc_obj
    else:
        left, right = thc_obj, tab_obj
    return {"setKind": pair.kind, "left": left, "right": right}


def trace_to_obj(trace: Trace) -> dict:
    return {
        "kind": "trace",
        "maps": list(trace.maps),
        "pairs": [pair_to_obj(p) for p in trace.pairs],
    }


def matrix_to_obj(matrix: TransitionMatrix) -> dict:
    return {
        "kind": "matrix",
        "degree": matrix.degree,
        "indexKind": matrix.index_kind,
        "labels": [list(label) for label in matrix.labels],
        "entries": [list(row) for row in matrix.entries],
    }


def matrix_to_csv(matrix: TransitionMatrix) -> str:
    """Labeled header row, then integer entries row-major."""
    header = ";".join("(" + ",".join(map(str, label)) + ")" for label in matrix.labels)
    lines = [header]
    lines.extend(",".join(map(str, row)) for row in matrix.entries)
    return "\n".join(lines)


def _list(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list")
    return value


def _ints(value: Any, what: str) -> tuple[int, ...]:
    for x in _list(value, what):
        if type(x) is not int:
            raise ValueError(f"{what} must be a list of integers")
    return tuple(value)


def parse_object(data: Any):
    """Typed object from a parsed JSON value; dispatches on the kind tag.

    Raises ValueError for an unknown kind, for a missing or wrong-typed
    field, and for a tableau, covering or rim hook tableau with no row.
    """
    if isinstance(data, list):
        return _ints(data, "a bare sequence")  # composition or permutation
    if not isinstance(data, dict):
        raise ValueError(f"cannot parse {data!r}")
    if "setKind" in data:
        kind = data["setKind"]
        left = parse_object(data.get("left"))
        right = parse_object(data.get("right"))
        if kind in ("A", "B"):
            tableau, covering = left, right
        elif kind in ("C", "D", "E"):
            covering, tableau = left, right
        else:
            raise ValueError(f"unknown pair family {kind!r}")
        if kind_of(covering) != "thc":
            raise ValueError("pair is missing its covering side")
        if kind_of(tableau) != "tableau":
            raise ValueError("pair is missing its tableau side")
        return Pair(kind, covering, tableau)
    kind = data.get("kind")
    if kind == "thc":
        shape, perm = _ints(data.get("shape"), "shape"), _ints(data.get("perm"), "perm")
        if not shape:
            raise ValueError("a covering has at least one row")
        return TunnelHookCovering(shape, perm)
    if kind == "tableau":
        rows = tuple(_ints(row, "a tableau row") for row in _list(data.get("rows"), "rows"))
        if not rows:
            raise ValueError("a tableau has at least one row")
        if "shape" in data and _ints(data["shape"], "shape") != shape_of(rows):
            raise ValueError("tableau shape field disagrees with its rows")
        return rows
    if kind == "srht":
        hooks = tuple(
            tuple(_ints(cell, "a hook cell") for cell in _list(path, "a hook path"))
            for path in _list(data.get("hooks"), "hooks")
        )
        if any(len(cell) != 2 for path in hooks for cell in path):
            raise ValueError("a hook cell must be [row, column]")
        shape = _ints(data.get("shape"), "shape")
        if not shape:
            raise ValueError("a rim hook tableau has at least one row")
        return SpecialRimHookTableau(shape, hooks)
    if kind == "trace":
        pairs = tuple(parse_object(p) for p in _list(data.get("pairs"), "pairs"))
        maps = tuple(_list(data.get("maps"), "maps"))
        if not all(kind_of(p) == "pair" for p in pairs) or not all(type(m) is str for m in maps):
            raise ValueError("a trace holds pair objects and map names")
        return Trace(pairs, maps)
    if kind == "matrix":
        if type(data.get("degree")) is not int:
            raise ValueError("degree must be an integer")
        if data.get("indexKind") not in ("compositions", "partitions"):
            raise ValueError("indexKind must be 'compositions' or 'partitions'")
        return TransitionMatrix(
            data["degree"],
            data["indexKind"],
            tuple(_ints(label, "a label") for label in _list(data.get("labels"), "labels")),
            tuple(_ints(row, "a matrix row") for row in _list(data.get("entries"), "entries")),
        )
    raise ValueError(f"unknown object kind {kind!r}")


_ENCODERS = {"thc": thc_to_obj, "srht": srht_to_obj, "pair": pair_to_obj, "trace": trace_to_obj,
             "matrix": matrix_to_obj, "tableau": tableau_to_obj, "sequence": list}
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def to_obj(value: Any) -> Any:
    """JSON-ready form of any package object, by its :func:`kind_of`."""
    return _ENCODERS[kind_of(value)](value)


def dumps(value: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace; byte-stable."""
    return _CANONICAL.encode(to_obj(value))


def loads(text: str):
    return parse_object(json.loads(text))
