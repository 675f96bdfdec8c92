"""Exact integer transition matrices built from combinatorial counts.

Each Kostka matrix is counted by one Pieri walk over content prefixes, which
grows shapes value by value and yields every column's entries, without
building any tableau.  The walk expands each (shape, copies of the next
value) once per matrix and keeps the image for the rest of that call, so
later contents only add counts.  Both inverses are counted as well, each by
peeling one hook at a time and keeping every minor's counts for the rest of
the call: the Sym inverse peels the special rim hook that ends in the last
row, the NSym inverse the tunnel hook of the first row.  Listing rim hook
tableaux (and, in the tests, Jacobi-Trudi terms and tunnel hook coverings)
stays as an independent route to each inverse.

Rows and columns are labeled by the canonical composition order (the NSym
pair) or by partitions in reverse-lexicographic order (the Sym pair).  All
arithmetic is exact machine integers; Python ints never overflow, and the
entries at desk scale are small anyway.

Matrices are stored dense.  Even at the CLI cap (degree 10, 512 x 512 on
the composition side) that is a few hundred thousand ints, so a sparse
representation is not worth its complexity here.  Most entries are zero,
though (92% of NK^-1(10)), so :func:`mat_mul` reads only the nonzeros of
its right factor.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .core import IntSeq, compositions_of, dec, flatten, partitions_of, perm_sign
from .rimhooks import enumerate_srht, srht_content, srht_sign
from .tunnelhooks import delta_choices


class _MatrixFields(NamedTuple):
    degree: int
    index_kind: str  # "compositions" | "partitions"
    labels: tuple[IntSeq, ...]
    entries: tuple[tuple[int, ...], ...]


class TransitionMatrix(_MatrixFields):
    __slots__ = ()

    def __new__(cls, degree: int, index_kind: str, labels: tuple[IntSeq, ...],
                entries: tuple[tuple[int, ...], ...]) -> TransitionMatrix:
        size = len(labels)
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError("matrix must be square over its labels")
        return tuple.__new__(cls, (degree, index_kind, labels, entries))

    @property
    def size(self) -> int:
        return len(self.labels)

    def entry(self, row_label: Sequence[int], col_label: Sequence[int]) -> int:
        i = self.labels.index(tuple(row_label))
        j = self.labels.index(tuple(col_label))
        return self.entries[i][j]


def _labels(degree: int, index_kind: str) -> tuple[IntSeq, ...]:
    if index_kind == "compositions":
        return tuple(compositions_of(degree))
    if index_kind == "partitions":
        return tuple(partitions_of(degree))
    raise ValueError(f"unknown index kind {index_kind!r}")


def _signed_counts(
    n: int, index_kind: str, terms: Callable[[IntSeq], Iterable[tuple[int, IntSeq]]]
) -> TransitionMatrix:
    """Entry (row, col): the sum of the weights of the terms of col whose
    label is row; ``terms(col)`` yields (weight, row label) pairs and is
    called once per column."""
    labels = _labels(n, index_kind)
    index = {label: i for i, label in enumerate(labels)}
    entries = [[0] * len(labels) for _ in labels]
    for j, col in enumerate(labels):
        for weight, row in terms(col):
            entries[index[row]][j] += weight
    for i, row in enumerate(entries):  # each list goes as its tuple comes
        entries[i] = tuple(row)
    return TransitionMatrix(n, index_kind, labels, tuple(entries))


def _pieri(state: IntSeq, c: int, strip: bool) -> tuple[IntSeq, ...]:
    """The shapes grown from state (a shape) by c copies of the next value,
    each once: the rows grow and one new row may start below them (the
    immaculate Pieri rule, arXiv:1208.5191).  With ``strip`` the cells form a
    horizontal strip (Stanley, EC2 7.10): row i > 0 stays within the old row
    i - 1, and a new row within the old last row."""
    partial = [((), c)]
    for i, have in enumerate(state):
        high = state[i - 1] if strip and i else have + c
        partial = [
            (grown + (length,), left - (length - have))
            for grown, left in partial
            for length in range(have, min(high, have + left) + 1)
        ]
    shapes = []
    for grown, left in partial:
        if left:
            if strip and state and left > state[-1]:
                continue
            grown += (left,)
        shapes.append(grown)
    return tuple(shapes)


def _fillings(strip: bool) -> Callable[[IntSeq], Iterable[tuple[int, IntSeq]]]:
    """``terms`` for :func:`_signed_counts`: (count, shape) for every shape
    the content fills, its values 1, 2, ... placed in turn from the empty
    shape.

    A state's image under c copies of a value depends only on (state, c), so
    ``images`` keeps each :func:`_pieri` result for the rest of the call:
    every (state, c) is expanded once per matrix, and a step only adds each
    state's count into the shapes of its image."""
    images: dict[tuple[IntSeq, int], tuple[IntSeq, ...]] = {}
    shapes: dict[IntSeq, IntSeq] = {}  # one tuple per shape, shared by every image

    def grow(counts: dict[IntSeq, int], c: int) -> dict[IntSeq, int]:
        out: dict[IntSeq, int] = {}
        for state, count in counts.items():
            image = images.get((state, c))
            if image is None:
                image = tuple(shapes.setdefault(s, s) for s in _pieri(state, c, strip))
                images[state, c] = image
            for shape in image:
                out[shape] = out.get(shape, 0) + count
        return out

    def terms(content: IntSeq) -> Iterable[tuple[int, IntSeq]]:
        counts: dict[IntSeq, int] = {(): 1}
        for c in content:
            counts = grow(counts, c)
        return ((count, shape) for shape, count in counts.items())

    return terms


def nsym_K(n: int) -> TransitionMatrix:
    """Entry (alpha, beta): number of immaculate tableaux of shape alpha and
    content beta."""
    return _signed_counts(n, "compositions", _fillings(strip=False))


_NO_TERMS: Mapping[IntSeq, int] = MappingProxyType({})  # shared by every empty minor


def _peel(rows: IntSeq, free: IntSeq, memo: dict) -> Mapping[IntSeq, int]:
    """Signed content counts of the tunnel hook coverings of ``rows`` whose
    hooks end on the free diagonals ``free``, given as increasing offsets
    from the first row.

    A covering of beta is a permutation: row r's hook ends on diagonal
    perm_r and has weight beta_r + perm_r - r.  Peeling row 1, the i-th
    smallest free offset u (from 0) gives weight rows[0] + u, kept in the
    content unless 0 and no covering if negative.  It leaves i smaller
    values to the rows below, so it adds i inversions: sign (-1)^i.  The
    rows below see only their lengths and the offsets left, read from the
    next row (each one less), so ``memo`` keys a minor by that pair and
    keeps its counts for every column of the call.

    Row j below takes offset o only if rest_j + o - j >= 0.  When the least
    offset left is below every such floor, no covering of the minor exists,
    and every larger u leaves an offset at least as small: the scan ends.
    """
    first, rest = rows[0], rows[1:]
    floor = min((j - length for j, length in enumerate(rest)), default=0)
    shifted = tuple(o - 1 for o in free)
    out: dict[IntSeq, int] = {}
    vanishing = None  # the weight-0 branch: its contents may meet and cancel others
    for i, u in enumerate(free):
        weight = first + u
        if weight < 0:
            continue
        below = shifted[:i] + shifted[i + 1 :]
        if below and below[0] < floor:
            break
        minor = memo.get((rest, below))
        if minor is None:
            minor = memo[rest, below] = _peel(rest, below, memo)
        sign = -1 if i & 1 else 1
        if weight:  # distinct first entries: no other branch's content collides
            out.update({(weight,) + content: sign * count for content, count in minor.items()})
        else:
            vanishing = minor, sign
    if vanishing:
        minor, sign = vanishing
        for content, count in minor.items():
            total = out.get(content, 0) + sign * count
            if total:
                out[content] = total
            else:
                del out[content]
    return out or _NO_TERMS


def nsym_Kinv(n: int) -> TransitionMatrix:
    """Entry (alpha, beta): signed count of tunnel hook coverings of shape
    beta with content alpha, i.e. of the terms of the immaculate
    Jacobi-Trudi determinant.  Column beta peels row 1's hook (:func:`_peel`)
    on the offsets 0..l-1.  The minors' counts are shared by every column of
    the call and dropped with it; a column, of degree n, is never a minor, so
    it is not kept."""
    memo: dict[tuple[IntSeq, IntSeq], Mapping[IntSeq, int]] = {((), ()): {(): 1}}
    return _signed_counts(
        n,
        "compositions",
        lambda beta: (
            (count, alpha)
            for alpha, count in _peel(beta, tuple(range(len(beta))), memo).items()
        ),
    )


def sym_K(n: int) -> TransitionMatrix:
    """Entry (lam, mu): number of SSYT of shape lam and content mu."""
    return _signed_counts(n, "partitions", _fillings(strip=True))


def sym_Kinv(n: int) -> TransitionMatrix:
    """Entry (lam, mu): signed count of special rim hook tableaux of shape mu
    with hook sizes lam (Egecioglu-Remmel), i.e. of the terms of
    det(h_{mu_i - i + j}) with exponents lam.  Counted by peeling the hook
    that ends in the last row (expanding along the last column): from row i
    of l it has mu_i + l - i cells, sign (-1)^(l - i), and leaves mu_1..mu_{i-1},
    mu_{i+1} - 1, ..., mu_l - 1; subshape counts are memoized for the call."""
    memo: dict[IntSeq, dict[IntSeq, int]] = {(): {(): 1}}

    def counts(mu: IntSeq) -> dict[IntSeq, int]:
        if mu not in memo:
            ell = len(mu)
            out: dict[IntSeq, int] = {}
            for i, part in enumerate(mu):
                size, sign = part + ell - 1 - i, (-1) ** (ell - 1 - i)
                rest = mu[:i] + tuple(p - 1 for p in mu[i + 1 :] if p > 1)
                for sizes, count in counts(rest).items():
                    key = tuple(sorted(sizes + (size,), reverse=True))
                    out[key] = out.get(key, 0) + sign * count
            memo[mu] = {key: count for key, count in out.items() if count}
        return memo[mu]

    return _signed_counts(n, "partitions", lambda mu: ((c, lam) for lam, c in counts(mu).items()))


def sym_Kinv_from_rim_hooks(n: int) -> TransitionMatrix:
    """Entry (lam, mu): signed count of special rim hook tableaux of shape mu
    and content lam; must agree with :func:`sym_Kinv` entrywise."""
    return _signed_counts(
        n,
        "partitions",
        lambda mu: ((srht_sign(t), srht_content(t)) for t in enumerate_srht(mu)),
    )


def mat_mul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
    """The product a * b, dense like its factors.

    The nonzero (column, value) list of each row of b is built once; each
    nonzero coefficient a[i][k] then adds only over row k's list.  A zero
    entry of b adds nothing to any sum, so skipping it leaves every entry
    of the product exactly as the full triple loop computes it.
    """
    if a.degree != b.degree or a.index_kind != b.index_kind:
        raise ValueError("matrices are indexed by different sets")
    size = a.size
    b_nonzeros = [[(j, v) for j, v in enumerate(row) if v] for row in b.entries]
    product = []
    for a_row in a.entries:
        acc = [0] * size
        for coeff, nonzeros in zip(a_row, b_nonzeros):
            if coeff:
                for j, v in nonzeros:
                    acc[j] += coeff * v
        product.append(tuple(acc))
    return TransitionMatrix(a.degree, a.index_kind, a.labels, tuple(product))


def first_non_identity(a: TransitionMatrix) -> tuple[IntSeq, IntSeq, int] | None:
    """(row label, column label, value) of the first entry, in row-major
    order, where a differs from the identity; None when it is the identity."""
    for i, row in enumerate(a.entries):
        for j, entry in enumerate(row):
            if entry != (1 if i == j else 0):
                return a.labels[i], a.labels[j], entry
    return None


def is_identity(a: TransitionMatrix) -> bool:
    return first_non_identity(a) is None


def exact_integer_inverse(
    entries: Sequence[Sequence[int]],
) -> tuple[tuple[int, ...], ...]:
    """Inverse of an integer matrix by fraction-free Gauss-Jordan elimination.

    One Bareiss-style sweep on [A | I] leaves d * I on the left and d * A^-1
    on the right, with d the determinant of the row-swapped matrix; every
    intermediate division is exact.  Raises when A is singular or when the
    inverse is not integral.
    """
    n = len(entries)
    m = [list(map(int, row)) + [int(i == j) for j in range(n)] for i, row in enumerate(entries)]
    prev = 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                raise ValueError("matrix is singular")
            m[k], m[swap] = m[swap], m[k]
        pivot = m[k][k]
        for i in range(n):
            if i == k:
                continue
            factor = m[i][k]
            row_i = m[i]
            row_k = m[k]
            for j in range(2 * n):
                if j == k:
                    continue
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    d = m[n - 1][n - 1]
    if any(m[i][i] != d for i in range(n)):
        raise ValueError("elimination did not reach a scalar diagonal")
    inverse = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            q, rem = divmod(m[i][j], d)
            if rem:
                raise ValueError("inverse is not an integer matrix")
            row.append(q)
        inverse.append(tuple(row))
    return tuple(inverse)


def exact_inverse_matrix(a: TransitionMatrix) -> TransitionMatrix:
    return TransitionMatrix(
        a.degree, a.index_kind, a.labels, exact_integer_inverse(a.entries)
    )


def jacobi_trudi_terms(lam: Sequence[int]) -> list[tuple[int, IntSeq]]:
    """The surviving terms of det(h_{lam_i - i + j}), one per permutation: an
    oracle for the determinant-term checks, not a route :func:`sym_Kinv` takes.

    A permutation contributes iff lam_i - i + sigma_i >= 0 for all i (an
    index below zero kills the term); the term is recorded as its sign and
    the decreasingly sorted exponent multiset with zeros dropped (h_0 = 1).
    """
    lam = tuple(lam)
    return [
        (perm_sign(perm), dec(flatten(delta)))
        for perm, delta in delta_choices(lam)
    ]
