"""Command-line surface: matrices, verification, enumeration, bijections,
involutions, rendering, validation.

Subcommands::

    kostka matrix     --n N --kind {K,Kinv,NK,NKinv} [--format csv|json]
    kostka verify     --n N --identity {kkinv,kinvk,nk-nkinv,nkinv-nk,involutions}
                      [--workers W]  (the library verifier checks the involution
                      suites in a pool of up to W processes; identities use one)
    kostka enumerate  {compositions,partitions,immaculate,ssyt,thc,srht} ...
    kostka involution run --alg {phi,chi,psi,theta,rho} --input PAIR.json
                      [--trace] [--format json|ascii]
    kostka bijection  --direction DIR --input OBJ.json
    kostka render     --input OBJ.json --format {ascii,tikz}
    kostka validate   --input OBJ.json  (a JSON verdict; exit 1 when invalid)

Every command is deterministic given identical inputs and flags.  Exit
codes: 0 pass, 1 counterexample found, 2 usage error (including degree-cap
refusals; raise --cap explicitly for large degrees) or stdout closed early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import involutions as inv
from . import matrices as mx
from . import render as rd
from . import serialize as sz
from .core import DegreeError, NoPreimageError, compositions_of, is_composition, partitions_of
from .rimhooks import (
    enumerate_srht,
    perm_srt,
    srht_from_perm,
    srht_to_thc,
    thc_to_srht,
    validate_srht,
)
from .tableaux import enumerate_immaculate, enumerate_ssyt, is_immaculate, is_ssyt
from .tunnelhooks import enumerate_thc, perm_of_thc, thc_from_perm

DEFAULT_CAP = 10

_MATRIX_BUILDERS = {
    "K": mx.sym_K,
    "Kinv": mx.sym_Kinv,
    "NK": mx.nsym_K,
    "NKinv": mx.nsym_Kinv,
}


def _check_cap(n: int, cap: int, job: str) -> None:
    """``job``: a matrix kind, or a ``verify`` identity.  A refusal words its
    cost in closed form, so it is immediate at any degree."""
    if n < 1:
        raise DegreeError(f"degree must be >= 1, got {n}")
    if n > cap:
        if job == "involutions":
            cost = f"four maps over every pair of degree <= {n} (pairs grow roughly 5x per degree)"
        elif job in ("K", "Kinv", "kkinv", "kinvk"):
            cost = f"~p({n})^2 entry counts over p({n}) partition labels"
        else:
            cost = (f"~4^{n - 1} entry counts over 2^{n - 1} composition labels "
                    "(cost grows roughly 4x per degree)")
        raise ValueError(f"refusing degree {n} > cap {cap}: {cost}; pass --cap {n} to proceed")


def _read_json(path: str):
    try:
        text = sys.stdin.read() if path == "-" else Path(path).read_text()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror}") from None
    return json.loads(text)


def _parse_as(data, kind: str):
    value = sz.parse_object(data)
    if sz.kind_of(value) != kind:
        raise ValueError(f"expected a {kind} object")
    return value


# -- matrix -------------------------------------------------------------------


def cmd_matrix(args) -> int:
    _check_cap(args.n, args.cap, args.kind)
    matrix = _MATRIX_BUILDERS[args.kind](args.n)
    if args.format == "csv":
        print(sz.matrix_to_csv(matrix))
    else:
        print(sz.dumps(matrix))
    return 0


# -- verify -------------------------------------------------------------------


def _verify_identity(identity: str, n: int) -> dict | None:
    """None on success, else a counterexample record."""
    for m in range(1, n + 1):
        bad = _identity_at(identity, m)
        if bad is not None:
            row, col, value = bad
            return {"identity": identity, "degree": m, "row": list(row), "col": list(col),
                    "value": value}
    return None


def _identity_at(identity: str, m: int) -> tuple | None:
    """The first entry of degree m's product off the identity, or None.  One
    degree per call, so its matrices are freed before the next is built."""
    sym = identity in ("kkinv", "kinvk")
    k, kinv = (mx.sym_K(m), mx.sym_Kinv(m)) if sym else (mx.nsym_K(m), mx.nsym_Kinv(m))
    product = mx.mat_mul(k, kinv) if identity in ("kkinv", "nk-nkinv") else mx.mat_mul(kinv, k)
    return mx.first_non_identity(product)


def _verify_involutions(n: int, workers: int) -> dict | None:
    for map_name in ("phi", "chi", "psi", "rho"):
        report = inv.verify_involution(map_name, n, workers)
        if report.violations:
            bad = {"map": map_name, "indices": [list(index) for index in report.cell],
                   "violation": report.violations[0]}
            if report.pair is not None:
                bad["pair"] = sz.pair_to_obj(report.pair)
            return bad
        stats = f"map={map_name} pairs={report.pairs_checked} fixed={report.fixed_points}"
        if map_name == "rho":
            stats += f" longest-walk={report.max_walk}"
        print(f"PASS {stats}")
    return None


def cmd_verify(args) -> int:
    _check_cap(args.n, args.cap, args.identity)
    if args.workers < 1:
        raise ValueError(f"workers must be at least 1, got {args.workers}")
    if args.identity == "involutions":
        bad = _verify_involutions(args.n, args.workers)
    else:
        bad = _verify_identity(args.identity, args.n)
    if bad is None:
        print(f"PASS {args.identity} n<={args.n}")
        return 0
    print(json.dumps(bad, sort_keys=True))
    return 1


# -- enumerate ----------------------------------------------------------------


def _parse_parts(text: str) -> tuple[int, ...]:
    fields = text.split(",")
    if "" in fields:
        raise ValueError(f"empty field in comma list {text!r}")
    return tuple(int(x) for x in fields)


def cmd_enumerate(args) -> int:
    if args.what == "compositions":
        objects = compositions_of(args.n)
    elif args.what == "partitions":
        objects = partitions_of(args.n)
    elif args.what == "immaculate":
        objects = enumerate_immaculate(_parse_parts(args.shape), _parse_parts(args.content))
    elif args.what == "ssyt":
        objects = enumerate_ssyt(_parse_parts(args.shape), _parse_parts(args.content))
    elif args.what == "thc":
        coverings = enumerate_thc(_parse_parts(args.content), _parse_parts(args.shape))
        objects = [covering for covering, _ in coverings]
    else:
        objects = enumerate_srht(_parse_parts(args.shape))
    for value in objects:
        print(sz.dumps(value))
    return 0


# -- involution ---------------------------------------------------------------


# alg -> (map, the pair families it acts on)
_ALGS = {
    "phi": (inv.phi, ("A",)),
    "chi": (inv.chi, ("B",)),
    "psi": (inv.psi, ("C", "D", "E")),
    "theta": (inv.theta, ("E",)),
    "rho": (inv.rho, ("D",)),
}


def cmd_involution(args) -> int:
    pair = _parse_as(_read_json(args.input), "pair")
    apply, families = _ALGS[args.alg]
    if pair.kind not in families:
        raise ValueError(f"{args.alg} acts on {'/'.join(families)} pairs, got setKind {pair.kind}")
    inv.validate_pair(pair)
    result, trace = apply(pair) if args.alg == "rho" else (apply(pair), None)
    if args.format == "ascii":
        print(rd.render_trace(trace) if (args.trace and trace) else rd.render_pair(result))
    else:
        print(sz.dumps(result))
        if args.trace and trace is not None:
            print(sz.dumps(trace))
    return 0


# -- bijection ----------------------------------------------------------------


def _loose_shape_perm(data) -> tuple[tuple[int, ...], tuple[int, ...]]:
    if not isinstance(data, dict) or not all(
        isinstance(data.get(key), list) for key in ("shape", "perm")
    ):
        raise ValueError('expected {"shape": [...], "perm": [...]}')
    if not data["shape"]:
        raise ValueError("a shape has at least one row")
    return sz.parse_object(data["shape"]), sz.parse_object(data["perm"])


# direction -> (parsed input kind, or None for a {"shape", "perm"} object; map)
_BIJECTIONS = {
    "thc-to-perm": ("thc", perm_of_thc),
    "perm-to-thc": (None, thc_from_perm),
    "srht-to-perm": ("srht", perm_srt),
    "perm-to-srht": (None, srht_from_perm),
    "srht-to-thc": ("srht", srht_to_thc),
    "thc-to-srht": ("thc", thc_to_srht),
}


def cmd_bijection(args) -> int:
    data = _read_json(args.input)
    source, apply = _BIJECTIONS[args.direction]
    if source is None:
        print(sz.dumps(apply(*_loose_shape_perm(data))))
    else:
        value = _parse_as(data, source)
        _check(value)
        print(sz.dumps(apply(value)))
    return 0


# -- validate -----------------------------------------------------------------


def _check(value) -> dict | None:
    """Raise ValueError unless a parsed object keeps its structural
    invariants; else its verdict fields, or None for a bare sequence (a
    composition, which may also be read as a permutation)."""
    kind = sz.kind_of(value)
    if kind == "thc":
        value.hooks()  # replays the construction, checking every weight
    elif kind == "srht":
        validate_srht(value)
    elif kind == "pair":
        left, right = inv.validate_pair(value)
        return {"kind": "pair", "setKind": value.kind, "left": list(left), "right": list(right)}
    elif kind == "trace":
        inv.validate_trace(value)
    elif kind == "tableau":
        if not is_immaculate(value):
            raise ValueError("rows are not an immaculate filling")
        return {"kind": "tableau", "ssyt": is_ssyt(value)}
    elif kind == "sequence":
        if not value:
            raise ValueError("a bare sequence has at least one entry")
        if not is_composition(value):
            raise ValueError(f"shape {value} is not a composition")
        return None
    else:
        raise ValueError("nothing to validate")
    return {"kind": kind}


def cmd_validate(args) -> int:
    """Check an object's structural invariants; JSON verdict on stdout."""
    data = _read_json(args.input)
    try:
        verdict = _check(sz.parse_object(data))
        if verdict is None:
            raise ValueError("nothing to validate")
        verdict["valid"] = True
    except ValueError as err:
        print(json.dumps({"valid": False, "reason": str(err)}, sort_keys=True))
        return 1
    print(json.dumps(verdict, sort_keys=True))
    return 0


# -- render -------------------------------------------------------------------


def cmd_render(args) -> int:
    value = sz.parse_object(_read_json(args.input))
    _check(value)
    print(rd.render_object(value, args.format))
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kostka", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_matrix = sub.add_parser("matrix", help="emit a transition matrix")
    p_matrix.add_argument("--n", type=int, required=True)
    p_matrix.add_argument("--kind", choices=sorted(_MATRIX_BUILDERS), required=True)
    p_matrix.add_argument("--format", choices=["csv", "json"], default="csv")
    p_matrix.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_matrix.set_defaults(func=cmd_matrix)

    p_verify = sub.add_parser("verify", help="check a matrix identity or the involution suites")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument(
        "--identity",
        choices=["kkinv", "kinvk", "nk-nkinv", "nkinv-nk", "involutions"],
        required=True,
    )
    p_verify.add_argument("--workers", type=int, default=1,
                          help="processes of the library verifier's pool for --identity "
                               "involutions; matrix identities use one")
    p_verify.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p_verify.set_defaults(func=cmd_verify)

    p_enum = sub.add_parser("enumerate", help="list combinatorial objects as JSON lines")
    enum_sub = p_enum.add_subparsers(dest="what", required=True)
    for what in ("compositions", "partitions"):
        q = enum_sub.add_parser(what)
        q.add_argument("--n", type=int, required=True)
        q.set_defaults(func=cmd_enumerate)
    for what in ("immaculate", "ssyt"):
        q = enum_sub.add_parser(what)
        q.add_argument("--shape", required=True)
        q.add_argument("--content", required=True)
        q.set_defaults(func=cmd_enumerate)
    q = enum_sub.add_parser("thc")
    q.add_argument("--content", required=True)
    q.add_argument("--shape", required=True)
    q.set_defaults(func=cmd_enumerate)
    q = enum_sub.add_parser("srht")
    q.add_argument("--shape", required=True)
    q.set_defaults(func=cmd_enumerate)

    p_inv = sub.add_parser("involution", help="apply one of the pair maps")
    inv_sub = p_inv.add_subparsers(dest="action", required=True)
    p_run = inv_sub.add_parser("run")
    p_run.add_argument("--alg", choices=list(_ALGS), required=True)
    p_run.add_argument("--input", required=True, help="pair JSON path, or - for stdin")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--format", choices=["json", "ascii"], default="json")
    p_run.set_defaults(func=cmd_involution)

    p_bij = sub.add_parser("bijection", help="apply a permutation/covering/rim-hook bijection")
    p_bij.add_argument("--direction", choices=list(_BIJECTIONS), required=True)
    p_bij.add_argument("--input", required=True)
    p_bij.set_defaults(func=cmd_bijection)

    p_render = sub.add_parser("render", help="draw an object as ASCII or TikZ")
    p_render.add_argument("--input", required=True)
    p_render.add_argument("--format", choices=["ascii", "tikz"], default="ascii")
    p_render.set_defaults(func=cmd_render)

    p_validate = sub.add_parser("validate", help="check an object's invariants")
    p_validate.add_argument("--input", required=True)
    p_validate.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    """Run one command.  The input boundary: a ValueError escaping a command
    means its outside input was malformed, and exits 2 with one line; so does
    a RecursionError, as the tableau backtracker recurses once per cell
    after each row's run of its least value, and ``delta_choices`` once per
    row.  A reader that closes stdout early also exits 2: output never
    delivered is neither a pass nor a counterexample."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here rather than at exit
        return code
    except BrokenPipeError:
        # quiet the interpreter's last flush of what stdout still holds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("output not delivered: the reader closed stdout", file=sys.stderr)
    except NoPreimageError as err:
        print(f"no preimage: {err}", file=sys.stderr)
    except ValueError as err:
        print(f"invalid input: {err}", file=sys.stderr)
    except RecursionError as err:
        print(f"invalid input: too deep for the recursive search ({err})", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
