"""ASCII and TikZ drawings of diagrams, tableaux, coverings, and walks.

ASCII output is deterministic, so drawings can serve as regression
fixtures.  TikZ output follows the same drawing conventions as the ASCII
forms (rows growing downward, hooks as rounded overlays); styling is
intentionally minimal.
"""

from __future__ import annotations

from typing import Sequence

from .involutions import Pair, Trace
from .rimhooks import SpecialRimHookTableau
from .serialize import kind_of
from .tableaux import Rows
from .tunnelhooks import TunnelHookCovering

Cell = tuple[int, int]


def render_diagram(shape: Sequence[int]) -> str:
    """Grid of (row, column) coordinates, one diagram row per line."""
    return "\n".join(
        "".join(f"({i},{j})" for j in range(1, shape[i - 1] + 1))
        for i in range(1, len(shape) + 1)
    )


def render_tableau(rows: Rows) -> str:
    width = max((len(str(v)) for row in rows for v in row), default=1)
    return "\n".join(" ".join(str(v).rjust(width) for v in row) for row in rows)


def _hook_labels(paths: Sequence[Sequence[Cell]]) -> dict[Cell, int]:
    """Each cell's hook number, counting the paths from 1."""
    return {cell: index for index, path in enumerate(paths, start=1) for cell in path}


def render_thc(covering: TunnelHookCovering) -> str:
    """Each consumed cell shows its hook number; cells past the end of
    their diagram row are marked with a trailing apostrophe."""
    labels = _hook_labels([hook.cells for hook in covering.hooks()])
    shape = covering.shape
    n_rows = max(r for r, _ in labels)
    width = len(str(len(shape))) + 2  # room for the out-of-row mark
    lines = [
        f"shape={_fmt(shape)} perm={_fmt(covering.perm)} delta={_fmt(covering.delta())}"
    ]
    for i in range(1, n_rows + 1):
        cols = [c for (r, c) in labels if r == i]
        row_len = shape[i - 1] if i <= len(shape) else 0
        tokens = []
        for j in range(1, max(cols, default=0) + 1):
            if (i, j) in labels:
                mark = "'" if j > row_len else ""
                tokens.append((str(labels[(i, j)]) + mark).rjust(width))
            else:
                tokens.append("." .rjust(width))
        lines.append("".join(tokens).rstrip())
    return "\n".join(lines)


def render_srht(tableau: SpecialRimHookTableau) -> str:
    lines = [f"shape={_fmt(tableau.shape)}"]
    labels = _hook_labels(tableau.hooks)
    width = len(str(len(tableau.hooks))) + 1
    for i in range(1, len(tableau.shape) + 1):
        lines.append(
            "".join(
                str(labels[(i, j)]).rjust(width)
                for j in range(1, tableau.shape[i - 1] + 1)
            )
        )
    return "\n".join(lines)


def render_pair(pair: Pair) -> str:
    return "\n".join(
        [
            f"[{pair.kind}-pair]",
            render_tableau(pair.tableau),
            render_thc(pair.thc),
        ]
    )


def render_trace(trace: Trace) -> str:
    panels = [render_pair(trace.pairs[0])]
    for map_name, pair in zip(trace.maps, trace.pairs[1:]):
        panels.append(f"--{map_name}-->")
        panels.append(render_pair(pair))
    return "\n".join(panels)


def _fmt(seq: Sequence[int]) -> str:
    return "(" + ",".join(map(str, seq)) + ")"


# -- TikZ --------------------------------------------------------------------


def _tikz_grid(shape: Sequence[int], entries: Rows | None = None) -> list[str]:
    lines = []
    for i in range(1, len(shape) + 1):
        for j in range(1, shape[i - 1] + 1):
            lines.append(
                f"\\draw ({j - 0.5},{i - 0.5}) rectangle ({j + 0.5},{i + 0.5});"
            )
            if entries is not None:
                lines.append(f"\\node at ({j},{i}) {{{entries[i - 1][j - 1]}}};")
    return lines


def _tikz_wrap(body: list[str]) -> str:
    return "\n".join(
        ["\\begin{tikzpicture}[yscale=-1,scale=.55]", *body, "\\end{tikzpicture}"]
    )


def tikz_diagram(shape: Sequence[int]) -> str:
    return _tikz_wrap(_tikz_grid(shape))


def tikz_tableau(rows: Rows) -> str:
    return _tikz_wrap(_tikz_grid([len(r) for r in rows], rows))


def _tikz_hook_overlays(paths: Sequence[Sequence[Cell]]) -> list[str]:
    lines = ["\\begin{scope}[on background layer]"]
    lines.append(
        "\\tikzset{every path/.style={line width=7pt,color=black,"
        "line cap=round,opacity=.15,rounded corners}}"
    )
    for path in paths:
        points = "--".join(f"({c},{r})" for (r, c) in path)
        if len(path) == 1:
            ((r, c),) = path
            points = f"({c - 0.25},{r})--({c + 0.25},{r})"
        lines.append(f"\\draw {points};")
    lines.append("\\end{scope}")
    return lines


def tikz_thc(covering: TunnelHookCovering) -> str:
    body = _tikz_grid(covering.shape)
    body += _tikz_hook_overlays([h.cells for h in covering.hooks()])
    return _tikz_wrap(body)


def tikz_srht(tableau: SpecialRimHookTableau) -> str:
    body = _tikz_grid(tableau.shape)
    body += _tikz_hook_overlays(tableau.hooks)
    return _tikz_wrap(body)


def tikz_pair(pair: Pair) -> str:
    """A/B: the tableau, then the covering, as :func:`render_pair` draws
    them (their shapes differ); C/D/E: the entries on the covering."""
    if pair.kind in ("A", "B"):
        return tikz_tableau(pair.tableau) + "\n" + tikz_thc(pair.thc)
    body = _tikz_grid(pair.thc.shape, None)
    for i, row in enumerate(pair.tableau, start=1):
        for j, v in enumerate(row, start=1):
            body.append(f"\\node at ({j},{i}) {{{v}}};")
    body += _tikz_hook_overlays([h.cells for h in pair.thc.hooks()])
    return _tikz_wrap(body)


_DRAWERS = {
    "ascii": {"thc": render_thc, "srht": render_srht, "pair": render_pair, "trace": render_trace,
              "tableau": render_tableau, "sequence": render_diagram},
    "tikz": {"thc": tikz_thc, "srht": tikz_srht, "pair": tikz_pair,
             "tableau": tikz_tableau, "sequence": tikz_diagram},
}


def render_object(value, fmt: str = "ascii") -> str:
    """Dispatch renderer used by the command line, by the value's
    :func:`~kostka.serialize.kind_of`."""
    drawers = _DRAWERS.get(fmt)
    if drawers is None:
        raise ValueError(f"unknown format {fmt!r}")
    kind = kind_of(value)
    if kind not in drawers:
        where = " as TikZ" if fmt == "tikz" else ""
        raise ValueError(f"cannot render {type(value).__name__}{where}")
    return drawers[kind](value)
