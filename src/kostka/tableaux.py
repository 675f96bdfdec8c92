"""Fillings of composition diagrams: immaculate tableaux and SSYT.

A tableau is a tuple of rows, each row a weakly increasing tuple of positive
integers; the first column strictly increases from top to bottom.  A
semistandard Young tableau (SSYT) additionally has partition shape and
strictly increasing columns.

One row-by-row backtracker in reading order serves both kinds, so results
come out in lexicographic order by reading word and the output order is
stable.  Each row opens with its forced run (the least value left, all its
copies), so a dead opening is cut without search.  The enumerators are
plain functions: the involution verifier keeps the fillings it re-reads in
its per-degree index (``involutions._index``), by composition content.
The Kostka matrices do not list tableaux (they count them in
``matrices``); the enumerators stay their independent oracle.
One pass over the rows, :func:`scan`, states what a valid filling is: the
predicates read it, and so do ``validate_pair``, ``pair_indices`` and
``psi``, which labels a D/E image by it.
"""

from __future__ import annotations

from operator import lt
from typing import Callable, Sequence

from .core import is_composition, is_partition

Rows = tuple[tuple[int, ...], ...]


def shape_of(rows: Rows) -> tuple[int, ...]:
    return tuple(map(len, rows))


def content_vector(rows: Rows, m: int) -> tuple[int, ...]:
    """Multiplicity vector of the entries 1..m; entries above m are an error."""
    counts = [0] * m
    for row in rows:
        for v in row:
            if not 1 <= v <= m:
                raise ValueError(f"entry {v} outside 1..{m}")
            counts[v - 1] += 1
    return tuple(counts)


def scan(rows: Rows) -> tuple[tuple[int, ...], int, bool]:
    """(shape, largest entry, is an SSYT) of the rows, read in one pass.
    Raises ValueError unless they are an immaculate filling: at least one
    row, none empty, each weakly increasing, the first column strictly
    increasing from 1 up."""
    first = top = 0  # entries start at 1
    strict = True
    above: tuple[int, ...] = ()
    for row in rows:
        if not row or row[0] <= first:
            raise ValueError("tableau rows are not an immaculate filling")
        first = prev = row[0]
        for v in row:
            if v < prev:
                raise ValueError("tableau rows are not an immaculate filling")
            prev = v
        if prev > top:
            top = prev
        if strict and above:
            strict = len(row) <= len(above) and all(map(lt, above, row))
        above = row
    if not rows:
        raise ValueError("tableau rows are not an immaculate filling")
    return tuple(map(len, rows)), top, strict


def is_immaculate(rows: Rows) -> bool:
    try:
        scan(rows)
    except ValueError:
        return False
    return True


def is_ssyt(rows: Rows) -> bool:
    try:
        return scan(rows)[2]
    except ValueError:
        return False


def enumerate_immaculate(shape: tuple[int, ...], content: tuple[int, ...]) -> tuple[Rows, ...]:
    """All immaculate tableaux of the given shape and exact content vector.

    ``content`` is a weak composition giving the multiplicity of each value
    1..len(content); trailing zeros are significant (they forbid the values).
    """
    if not is_composition(shape):
        raise ValueError(f"shape {shape} is not a composition")
    _check_content(shape, content)
    return _fill(shape, content, strict=False)


def enumerate_ssyt(shape: tuple[int, ...], content: tuple[int, ...]) -> tuple[Rows, ...]:
    """All semistandard Young tableaux of the given partition shape and content."""
    if not is_partition(shape):
        raise ValueError(f"shape {shape} is not a partition")
    _check_content(shape, content)
    return _fill(shape, content, strict=True)


def _check_content(shape: Sequence[int], content: Sequence[int]) -> None:
    """ValueError unless the content is nonnegative and its total is the
    shape's size."""
    if any(c < 0 for c in content):
        raise ValueError(f"content {content} has a negative entry")
    if sum(shape) != sum(content):
        raise ValueError("shape size and content total differ")


def relabelling(content: Sequence[int]) -> tuple[tuple[int, ...], Callable]:
    """(nonzero, relabel): the content's nonzero entries, and the map from their
    fillings onto those of ``content`` taking k to the k-th nonzero position; it
    keeps order, so the row and column rules and reading-word order hold."""
    values = [k for k, c in enumerate(content, 1) if c]
    if len(values) == len(content):
        return tuple(content), lambda fillings: fillings
    at = (0, *values).__getitem__  # k -> the k-th nonzero position
    return tuple(content[k - 1] for k in values), lambda fillings: tuple(
        tuple(tuple(map(at, row)) for row in rows) for rows in fillings)


def _fill(shape: Sequence[int], content: Sequence[int], strict: bool) -> tuple[Rows, ...]:
    """The fillings with weakly increasing rows, in reading-word order.

    An entry must exceed the one above it in the first column, and in every
    column when ``strict``.  Each row opens with its forced run: the least
    value v left and every copy of it.  Every entry of a later row exceeds
    this row's first entry, so that entry is v and no copy of v can go lower.
    The earlier rows' runs used up every value up to ``above[0]``, so v
    exceeds it; the row is dead, unsearched, when v has more copies than it
    has cells, or when ``strict`` and the entry above the run's last copy is
    not below v (``above`` increases weakly, so that one covers the run).
    """
    m = len(content)
    counts = list(content)
    results: list[Rows] = []
    rows: list[tuple[int, ...]] = []

    def fill_row(i: int) -> None:
        if i == len(shape):
            results.append(tuple(rows))
            return
        length = shape[i]
        above = rows[i - 1] if i > 0 else (0,)  # (0,): entries start at 1
        checked = length if strict and i > 0 else 0
        least = above[0] + 1
        while not counts[least - 1]:  # copies are left: the rows ahead need them
            least += 1
        run = counts[least - 1]
        if run > length or (checked and above[run - 1] >= least):
            return
        counts[least - 1] = 0
        row = [least] * run

        def place(j: int, lo: int) -> None:
            if j == length:
                rows.append(tuple(row))
                fill_row(i + 1)
                rows.pop()
                return
            if j < checked and above[j] >= lo:
                lo = above[j] + 1
            for v in range(lo, m + 1):
                if counts[v - 1] == 0:
                    continue
                counts[v - 1] -= 1
                row.append(v)
                place(j + 1, v)
                row.pop()
                counts[v - 1] += 1

        place(run, least + 1)
        counts[least - 1] = run

    fill_row(0)
    return tuple(results)


def bender_knuth(rows: Rows, k: int) -> Rows:
    """Exchange the multiplicities of k and k+1 in an SSYT.

    An entry k is paired when k+1 sits directly below it, and an entry k+1
    is paired when k sits directly above; paired entries stay put.  In each
    row the free k's and free (k+1)'s form one contiguous block, which is
    rewritten with the two counts exchanged.  Applying the map twice gives
    back the input.
    """
    if k < 1:
        raise ValueError("value index must be >= 1")
    out = []
    for i, row in enumerate(rows):
        above = rows[i - 1] if i > 0 else ()
        below = rows[i + 1] if i + 1 < len(rows) else ()
        free_k = [
            j
            for j, v in enumerate(row)
            if v == k and not (j < len(below) and below[j] == k + 1)
        ]
        free_k1 = [
            j
            for j, v in enumerate(row)
            if v == k + 1 and not (j < len(above) and above[j] == k)
        ]
        if not free_k and not free_k1:
            out.append(row)
            continue
        positions = free_k + free_k1
        b = len(free_k1)
        new_row = list(row)
        for t, j in enumerate(positions):
            new_row[j] = k if t < b else k + 1
        out.append(tuple(new_row))
    return tuple(out)

