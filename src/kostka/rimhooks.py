"""Special rim hook tableaux and their bijection with hook coverings.

A special rim hook tableau breaks a partition diagram into rim hooks, each a
monotone south/west path of cells reaching column 1.  Hooks are stored as
cell paths from the initial (northeastern-most) cell to the terminal cell,
ordered by terminal row.  Cells are 1-based (row, column).

Each tableau determines a permutation: position i looks at the diagonal
i - shape_i + 1; if some hook starts there the value is that hook's terminal
row, and otherwise it is i - shape_i.  This map is a bijection onto the
permutations with shape_i - i + sigma_i >= 0 everywhere, and matching a
tableau with the hook covering carrying the same permutation is a sign- and
weight-preserving bijection onto the coverings with nonnegative weights.

The inverse, :func:`srht_from_perm`, builds one tableau per such permutation,
each a tiling of the diagram by monotone rim paths listed by terminal row, and
the tests find no other tiling.  So it is the one statement of what a tableau
is: :func:`validate_srht` accepts exactly the tableaux of their permutations.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import (
    IntSeq,
    NoPreimageError,
    Perm,
    dec,
    flatten,
    is_partition,
    is_perm,
)
from .tunnelhooks import TunnelHookCovering, delta_choices

Cell = tuple[int, int]
HookPath = tuple[Cell, ...]


class _SRHTFields(NamedTuple):
    shape: IntSeq
    hooks: tuple[HookPath, ...]


class SpecialRimHookTableau(_SRHTFields):
    __slots__ = ()

    def __new__(cls, shape: IntSeq, hooks: tuple[HookPath, ...]) -> SpecialRimHookTableau:
        if not is_partition(shape):
            raise ValueError(f"shape {shape} is not a partition")
        return tuple.__new__(cls, (shape, hooks))

    def initial_cells(self) -> tuple[Cell, ...]:
        return tuple(h[0] for h in self.hooks)


def validate_srht(tableau: SpecialRimHookTableau) -> None:
    """Raise ValueError unless the tableau is the one its permutation builds."""
    if not all(tableau.hooks):
        raise ValueError("empty hook path")
    sigma = perm_srt(tableau)
    try:
        rebuilt = srht_from_perm(tableau.shape, sigma)
    except NoPreimageError as err:  # the tableau, not a caller's permutation, is at fault
        raise ValueError(f"permutation {sigma}: {err}") from None
    if rebuilt != tableau:
        raise ValueError(f"permutation {sigma} builds the hooks {rebuilt.hooks}")


def _initial_diagonals(tableau: SpecialRimHookTableau) -> dict[int, HookPath]:
    """Map initial-cell diagonal -> hook; diagonals are unique per tableau."""
    by_diag: dict[int, HookPath] = {}
    for path in tableau.hooks:
        r, c = path[0]
        d = r - c + 1
        if d in by_diag:
            raise ValueError(f"two initial cells on diagonal {d}")
        by_diag[d] = path
    return by_diag


def perm_srt(tableau: SpecialRimHookTableau) -> Perm:
    """The permutation encoded by the tableau's hooks and shape."""
    shape = tableau.shape
    ell = len(shape)
    by_diag = _initial_diagonals(tableau)
    probed = set()
    sigma = []
    for i in range(1, ell + 1):
        d = i - shape[i - 1] + 1
        probed.add(d)
        hook = by_diag.get(d)
        if hook is not None:
            sigma.append(hook[-1][0])
        else:
            v = i - shape[i - 1]
            if v < 1:
                raise ValueError(
                    f"empty diagonal {d} forces value {v} < 1; tableau is malformed"
                )
            sigma.append(v)
    if set(by_diag) - probed:
        raise ValueError("a hook starts on a diagonal no row selects")
    result = tuple(sigma)
    if not is_perm(result):
        raise ValueError(f"derived images {result} are not a permutation")
    return result


def perm_cycles_srt(tableau: SpecialRimHookTableau) -> list[tuple[int, ...]]:
    """One descending cycle per hook: terminal row down to initial row.

    Multiplying the cycles in terminal-row order (rightmost applied first)
    reproduces :func:`perm_srt`.
    """
    return [
        tuple(range(path[-1][0], path[0][0] - 1, -1)) for path in tableau.hooks
    ]


def srht_sign(tableau: SpecialRimHookTableau) -> int:
    """(-1) to the number of rows crossed by the hooks."""
    crossed = sum(path[-1][0] - path[0][0] for path in tableau.hooks)
    return -1 if crossed % 2 else 1


def gamma(tableau: SpecialRimHookTableau) -> IntSeq:
    """Per-position weights: the size of the hook starting on diagonal
    i - shape_i + 1, or 0 when that diagonal starts no hook."""
    shape = tableau.shape
    by_diag = _initial_diagonals(tableau)
    return tuple(
        len(by_diag.get(i - shape[i - 1] + 1, ()))
        for i in range(1, len(shape) + 1)
    )


def srht_content(tableau: SpecialRimHookTableau) -> IntSeq:
    """The partition rearrangement of the nonzero hook sizes."""
    return dec(flatten(gamma(tableau)))


def srht_from_perm(shape: Sequence[int], perm: Sequence[int]) -> SpecialRimHookTableau:
    """The unique tableau of the given shape whose permutation is ``perm``.

    Requires shape_i - i + perm_i >= 0 for every i; peels off the hook
    terminating in the last row, which runs along the outer rim from
    (i, shape_i) down to (l, 1) where perm_i = l, then recurses on what is
    left in place.
    """
    shape = tuple(shape)
    perm = tuple(perm)
    if not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    if len(shape) != len(perm) or not is_perm(perm):
        raise ValueError(f"{perm} is not a permutation of the shape's rows")
    for i in range(len(shape)):
        if shape[i] - (i + 1) + perm[i] < 0:
            raise NoPreimageError(
                f"no tableau: row {i + 1} has {shape[i]} - {i + 1} + {perm[i]} < 0"
            )
    lam = list(shape)
    sig = list(perm)
    hooks: list[HookPath] = []
    while lam:
        ell = len(lam)
        if lam[-1] == 0:
            if sig[-1] != ell:
                raise ValueError("empty row must carry a fixed point")
            lam.pop()
            sig.pop()
            continue
        i = sig.index(ell) + 1
        r, c = i, lam[i - 1]
        path = [(r, c)]
        while (r, c) != (ell, 1):
            if r < ell and lam[r] >= c:
                r += 1
            else:
                c -= 1
            path.append((r, c))
        hooks.append(tuple(path))
        lam = lam[: i - 1] + [lam[j] - 1 for j in range(i, ell)]
        sig = sig[: i - 1] + sig[i:]
    hooks.sort(key=lambda h: h[-1][0])
    return SpecialRimHookTableau(shape, tuple(hooks))


def enumerate_srht(shape: Sequence[int]) -> list[SpecialRimHookTableau]:
    """All special rim hook tableaux of the given partition shape, one per
    permutation with shape_i - i + sigma_i >= 0: the permutations of the
    coverings with nonnegative weights, from :func:`delta_choices`."""
    shape = tuple(shape)
    if not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    return [srht_from_perm(shape, perm) for perm, _ in delta_choices(shape)]


def srht_to_thc(tableau: SpecialRimHookTableau) -> TunnelHookCovering:
    """The covering of the same shape carrying the same permutation.

    This is a bijection onto the coverings with componentwise nonnegative
    weights, and the weight sequences agree on both sides.
    """
    return TunnelHookCovering(tableau.shape, perm_srt(tableau))


def thc_to_srht(covering: TunnelHookCovering) -> SpecialRimHookTableau:
    """Inverse of :func:`srht_to_thc`; requires a partition shape, nonnegative weights."""
    return srht_from_perm(covering.shape, covering.perm)


def is_srht_and_thc(tableau: SpecialRimHookTableau) -> bool:
    """True when the tableau is simultaneously a covering: every hook starts
    at the end of its row (and, as always, terminates in column 1)."""
    shape = tableau.shape
    return all(
        path[0][1] == shape[path[0][0] - 1] and path[-1][1] == 1
        for path in tableau.hooks
    )
