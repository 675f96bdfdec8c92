"""Independent brute-force oracles the tests check the library against.

Everything here recomputes quantities from first principles by a different
route than the library: partition counts by the pentagonal recurrence,
permutation signs by bubble sorting, rim hook tableaux by raw path search
over cell sets, tableau counts by filtering all multiset arrangements,
tableau order by a backtracker that tries every value in every cell,
pair sets by scanning every covering of the degree for each cell,
the Sym inverse Kostka matrix by listing one permutation per Jacobi-Trudi term,
the NSym inverse by listing every tunnel hook covering of each shape,
a hook's boundary cells by probing the eight neighbours of each cell,
a stage's terminal cells by listing one per end row and checking their diagonals,
matrix products by the full triple loop, and the exhaustive involution check
by applying the map twice to every pair.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from kostka import core, involutions as inv
from kostka.involutions import Pair
from kostka.matrices import TransitionMatrix, _signed_counts, jacobi_trudi_terms
from kostka.tableaux import enumerate_immaculate, enumerate_ssyt
from kostka.tunnelhooks import TunnelHookCovering, delta_choices, diagonal


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def bubble_sign(perm) -> int:
    """Sign via counting adjacent swaps of a bubble sort."""
    seq = list(perm)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return -1 if swaps % 2 else 1


def arrangements_of_content(content):
    """All distinct sequences using value k exactly content[k-1] times."""
    pool = []
    for value, count in enumerate(content, start=1):
        pool.extend([value] * count)
    return sorted(set(itertools.permutations(pool)))


def immaculate_by_filter(shape, content):
    """Immaculate tableaux by filtering every arrangement of the content."""
    out = []
    for word in arrangements_of_content(content):
        rows = []
        pos = 0
        for length in shape:
            rows.append(word[pos : pos + length])
            pos += length
        ok = all(
            all(row[i] <= row[i + 1] for i in range(len(row) - 1)) for row in rows
        ) and all(rows[i][0] < rows[i + 1][0] for i in range(len(rows) - 1))
        if ok:
            out.append(tuple(rows))
    return out


def ssyt_by_filter(shape, content):
    out = []
    for rows in immaculate_by_filter(shape, content):
        if all(
            rows[i][j] < rows[i + 1][j]
            for i in range(len(rows) - 1)
            for j in range(len(rows[i + 1]))
        ):
            out.append(rows)
    return out


def fill_cell_by_cell(shape, content, strict):
    """``tableaux._fill`` without the forced run: every cell, a row's first
    included, tries each value left that its row and the entry above allow,
    so the fillings come out in reading-word order and dead openings are
    searched to the end."""
    m = len(content)
    counts = list(content)
    results = []
    rows = []

    def fill_row(i):
        if i == len(shape):
            results.append(tuple(rows))
            return
        length = shape[i]
        above = rows[i - 1] if i > 0 else (0,)
        checked = length if strict and i > 0 else 0
        row = []

        def place(j, lo):
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

        place(0, above[0] + 1)

    fill_row(0)
    return tuple(results)


def naive_enumerate_srht(shape):
    """All tilings of the diagram by monotone south/west paths ending in
    column 1, found by raw search: repeatedly take the northeastern-most
    uncovered cell (it must start a hook) and try every path from it."""
    cells = {
        (i, j) for i in range(1, len(shape) + 1) for j in range(1, shape[i - 1] + 1)
    }
    results = []

    def next_start(uncovered):
        row = min(r for (r, _) in uncovered)
        col = max(c for (r, c) in uncovered if r == row)
        return (row, col)

    def extend(path, uncovered, hooks):
        r, c = path[-1]
        if c == 1:
            place(uncovered - set(path), hooks + [tuple(path)])
        for step in ((r + 1, c), (r, c - 1)):
            if step in uncovered and step not in path:
                path.append(step)
                extend(path, uncovered, hooks)
                path.pop()

    def place(uncovered, hooks):
        if not uncovered:
            results.append(tuple(sorted(hooks, key=lambda h: h[-1][0])))
            return
        extend([next_start(uncovered)], uncovered, hooks)

    place(cells, [])
    return results


def fraction_inverse(entries):
    """Exact inverse via plain Gaussian elimination over Fractions."""
    n = len(entries)
    m = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(entries)
    ]
    for k in range(n):
        pivot_row = next(r for r in range(k, n) if m[r][k] != 0)
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot = m[k][k]
        m[k] = [x / pivot for x in m[k]]
        for r in range(n):
            if r != k and m[r][k] != 0:
                factor = m[r][k]
                m[r] = [x - factor * y for x, y in zip(m[r], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def mat_mul_dense(a, b):
    """a * b by the triple loop over every column of b: the dense product
    the library's sparse ``mat_mul`` replaced."""
    if a.degree != b.degree or a.index_kind != b.index_kind:
        raise ValueError("matrices are indexed by different sets")
    size = a.size
    b_rows = b.entries
    product = []
    for i in range(size):
        a_row = a.entries[i]
        acc = [0] * size
        for k in range(size):
            coeff = a_row[k]
            if coeff == 0:
                continue
            b_row = b_rows[k]
            for j in range(size):
                acc[j] += coeff * b_row[j]
        product.append(tuple(acc))
    return TransitionMatrix(a.degree, a.index_kind, a.labels, tuple(product))


# the scan's own memo: a test scans every cell of a degree
_scan_choices = functools.cache(delta_choices)
_scan_immaculate = functools.cache(enumerate_immaculate)
_scan_ssyt = functools.cache(enumerate_ssyt)


def pairs_by_scan(kind, left, right):
    """The pair set of one index pair by scanning every shape of the degree:
    the per-cell search the library's per-degree covering index replaced.
    A/B keep the coverings of shape ``right`` and fill the shape ``left``
    with their weights, for B with position i of the content read as
    ``delta[perm.index(i + 1)]``; C/D/E keep the coverings whose content
    gives ``left`` and fill their own shape with ``right``."""
    left, right = tuple(left), tuple(right)
    n = sum(left)
    shapes = core.partitions_of(n) if kind in ("B", "D") else core.compositions_of(n)
    fill = _scan_ssyt if kind in ("B", "D") else _scan_immaculate
    out = []
    for shape in shapes:
        for perm, delta in _scan_choices(shape):
            if kind in ("A", "B"):
                if shape != right:
                    continue
                if kind == "B":
                    delta = tuple(delta[perm.index(i + 1)] for i in range(len(perm)))
                fillings = fill(left, delta)
            else:
                weight = core.flatten(delta)
                if (weight if kind == "C" else core.dec(weight)) != left:
                    continue
                fillings = fill(shape, right)
            covering = TunnelHookCovering(shape, perm)
            out.extend(Pair(kind, covering, rows) for rows in fillings)
    return tuple(out)


def sym_Kinv_by_terms(n):
    """K^-1 of Sym summed over the surviving Jacobi-Trudi terms, one
    ``delta_choices`` permutation each: the covering route the library's
    rim hook peel replaced."""
    return _signed_counts(n, "partitions", jacobi_trudi_terms)


def nsym_Kinv_by_coverings(n):
    """K^-1 of NSym summed over every tunnel hook covering of each shape,
    one ``delta_choices`` permutation each: the listing route the library's
    first-row hook peel replaced."""
    return _signed_counts(
        n,
        "compositions",
        lambda beta: (
            (core.perm_sign(perm), core.flatten(delta)) for perm, delta in delta_choices(beta)
        ),
    )


def boundary_cells_by_probe(diagram, i):
    """Non-grey cells of row i adjacent (8 directions) to grey or the wall,
    found by probing every neighbour of each cell from the first non-grey
    one on: the probe the library's read of the grey profile replaced."""

    def is_grey(r, c):
        if c == 0:
            return True
        return 1 <= r <= len(diagram.shape) and 1 <= c <= diagram.nu[r - 1]

    cells = []
    c = diagram.nu[i - 1] + 1
    while True:
        adjacent = any(
            is_grey(rr, cc)
            for rr in (i - 1, i, i + 1)
            for cc in (c - 1, c, c + 1)
            if (rr, cc) != (i, c)
        )
        if not adjacent:
            break
        cells.append((i, c))
        c += 1
    return cells


def available_terminals(diagram, r):
    """Legal terminal cells for a hook starting in row r: one per end row.

    The terminal in row p is the leftmost non-grey cell (p, nu_p + 1); its
    left neighbor is grey (or the wall).  The terminals occupy distinct
    diagonals, which is what makes the permutation encoding possible: this
    checks it at every stage it is asked about, where the library's walk
    looks up one diagonal.
    """
    ell = len(diagram.shape)
    if not 1 <= r <= ell:
        raise ValueError(f"row {r} out of range")
    terminals = [(p, diagram.nu[p - 1] + 1) for p in range(r, ell + 1)]
    diags = [diagonal(t) for t in terminals]
    if len(set(diags)) != len(diags):
        raise ValueError(f"grey profile {diagram.nu} puts two terminals on one diagonal")
    return terminals


def verify_cell_per_pair(map_name, cell):
    """``involutions.verify_cell`` as one loop over the pairs, applying the
    map to each pair and to its image: the per-pair check the library's
    orbit visiting replaced.  Reads the map and the pair set through the
    module, so a test's stand-ins reach it too."""
    kind = inv._family(map_name)
    apply = inv._MAPS[map_name][1]
    left, right = cell
    report = inv.InvolutionReport(kind=kind, map_name=map_name, degree=sum(left))
    pairs = inv.enumerate_pairs(kind, left, right)
    signed = 0

    def fail(violation):
        report.violations.append(f"{violation}: {pair}")
        report.pair = pair
        return report

    for pair in pairs:
        report.pairs_checked += 1
        sign = pair.thc.sign()
        signed += sign
        if map_name == "rho":
            image, trace = apply(pair)
            report.max_walk = max(report.max_walk, len(trace.maps))
            back, _ = apply(image)
        else:
            image = apply(pair)
            back = apply(image)
        if back != pair:
            return fail(f"{map_name} is not an involution at {left},{right}")
        try:
            indices = inv.validate_trace(trace) if map_name == "rho" else inv.validate_pair(image)
        except ValueError:
            indices = None
        if indices != (left, right):
            return fail(f"image leaves {kind}[{left},{right}]")
        if image == pair:
            report.fixed_points += 1
            if left != right:
                return fail(f"off-diagonal fixed point at {left},{right}")
            if sign != 1:
                return fail(f"fixed point of negative sign at {left}")
        elif image.thc.sign() != -sign:
            return fail(f"{map_name} failed to reverse sign at {left},{right}")
    expected = 1 if left == right else 0
    if signed != expected:
        report.violations.append(
            f"signed sum over {kind}[{left},{right}] is {signed}, want {expected}"
        )
    elif left == right and len(pairs) != 1:
        report.violations.append(f"diagonal set {kind}[{left},{left}] has {len(pairs)} pairs, want 1")
    return report
