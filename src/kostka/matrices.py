"""Exact integer transition matrices built from combinatorial counts.

The Kostka matrices count tableaux by a transfer DP over content prefixes,
without building any tableau; the inverses sum the signs of enumerated hook
coverings or rim hook tableaux.

Rows and columns are labeled by the canonical composition order (the NSym
pair) or by partitions in reverse-lexicographic order (the Sym pair).  All
arithmetic is exact machine integers; Python ints never overflow, and the
entries at desk scale are small anyway.

Matrices are stored dense.  Even at the CLI cap (degree 10, 512 x 512 on
the composition side) that is a few hundred thousand ints, so the sparse
representation is not worth its complexity here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import IntSeq, compositions_of, dec, flatten, is_composition, partitions_of, perm_sign
from .rimhooks import enumerate_srht, srht_content, srht_sign
from .tunnelhooks import delta_choices


@dataclass(frozen=True)
class TransitionMatrix:
    degree: int
    index_kind: str  # "compositions" | "partitions"
    labels: tuple[IntSeq, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        size = len(self.labels)
        if len(self.entries) != size or any(len(row) != size for row in self.entries):
            raise ValueError("matrix must be square over its labels")

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


def identity_matrix(degree: int, index_kind: str) -> TransitionMatrix:
    labels = _labels(degree, index_kind)
    size = len(labels)
    entries = tuple(
        tuple(1 if i == j else 0 for j in range(size)) for i in range(size)
    )
    return TransitionMatrix(degree, index_kind, labels, entries)


def _signed_counts(
    n: int, index_kind: str, terms: Callable[[IntSeq], Iterable[tuple[int, IntSeq]]]
) -> TransitionMatrix:
    """Entry (row, col): the sum of the signs of the terms of col whose
    label is row; ``terms(col)`` yields (sign, row label) pairs."""
    labels = _labels(n, index_kind)
    index = {label: i for i, label in enumerate(labels)}
    entries = [[0] * len(labels) for _ in labels]
    for j, col in enumerate(labels):
        for sign, row in terms(col):
            entries[index[row]][j] += sign
    return TransitionMatrix(n, index_kind, labels, tuple(map(tuple, entries)))


def _grow(
    counts: dict[IntSeq, int], c: int, highs: Callable[[IntSeq], IntSeq]
) -> dict[IntSeq, int]:
    """Place c copies of the next value: row i of each state grows from its
    length to at most ``highs(state)[i]``, by c cells in all."""
    out: dict[IntSeq, int] = {}
    for state, count in counts.items():
        partial = [((), c)]
        for have, high in zip(state, highs(state)):
            partial = [
                (grown + (length,), left - (length - have))
                for grown, left in partial
                for length in range(have, min(high, have + left) + 1)
            ]
        for grown, left in partial:
            if left == 0:
                out[grown] = out.get(grown, 0) + count
    return out


def _count_fillings(
    shape: IntSeq, contents: Sequence[IntSeq], highs: Callable[[IntSeq], IntSeq]
) -> tuple[int, ...]:
    """The number of fillings of ``shape`` with each content.

    The values 1, 2, ... are placed in turn; a state is the tuple of filled
    row lengths, and ``highs(state)`` bounds the lengths one value can reach
    from it.  The state counts of a content prefix stay on ``path`` for the
    contents after it, so in label order (a depth-first walk of the prefix
    tree) every prefix is grown once.  The last value must complete the
    shape, so its count is read off the states it can complete.
    """
    path = [{(0,) * len(shape): 1}]  # path[k]: state counts after k values
    placed: IntSeq = ()  # the values path covers
    out = []
    for beta in contents:
        head = beta[:-1]
        k = 0
        while k < min(len(placed), len(head)) and placed[k] == head[k]:
            k += 1
        del path[k + 1 :]
        for c in head[k:]:
            path.append(_grow(path[-1], c, highs))
        placed = head
        out.append(sum(
            count for state, count in path[-1].items()
            if all(a <= high for a, high in zip(shape, highs(state)))
        ))
    return tuple(out)


def nsym_K_row(alpha: IntSeq) -> tuple[int, ...]:
    """Row alpha of :func:`nsym_K`: the number of immaculate tableaux of
    shape alpha for every content of its degree, in label order.

    Counted by the immaculate Pieri rule (Berg, Bergeron, Saliola, Serrano,
    Zabrocki, arXiv:1208.5191): a value lengthens the rows already started,
    up to alpha, and may start only the next row down.
    """
    labels = compositions_of(sum(alpha))
    if not is_composition(alpha):
        raise ValueError(f"shape {alpha} is not a composition")

    def highs(state: IntSeq) -> IntSeq:
        started = sum(1 for length in state if length)
        return tuple(alpha[: started + 1]) + (0,) * (len(alpha) - started - 1)

    return _count_fillings(tuple(alpha), labels, highs)


def nsym_K(n: int) -> TransitionMatrix:
    """Entry (alpha, beta): number of immaculate tableaux of shape alpha and
    content beta."""
    labels = _labels(n, "compositions")
    return TransitionMatrix(n, "compositions", labels, tuple(map(nsym_K_row, labels)))


def nsym_Kinv(n: int) -> TransitionMatrix:
    """Entry (alpha, beta): signed count of hook coverings of shape beta with
    content alpha."""
    return _signed_counts(
        n,
        "compositions",
        lambda beta: ((perm_sign(perm), flatten(delta)) for perm, delta in delta_choices(beta)),
    )


def sym_K(n: int) -> TransitionMatrix:
    """Entry (lam, mu): number of SSYT of shape lam and content mu."""
    labels = _labels(n, "partitions")

    def row(lam: IntSeq) -> tuple[int, ...]:
        # a value adds a horizontal strip: row i stays within row i - 1
        def highs(state: IntSeq) -> IntSeq:
            return tuple(map(min, lam, (lam[0],) + state[:-1]))

        return _count_fillings(lam, labels, highs)

    return TransitionMatrix(n, "partitions", labels, tuple(map(row, labels)))


def sym_Kinv(n: int) -> TransitionMatrix:
    """Entry (lam, mu): signed count of hook coverings of partition shape mu
    whose content rearranges to lam (summing over all content orderings)."""
    return _signed_counts(n, "partitions", jacobi_trudi_terms)


def sym_Kinv_from_rim_hooks(n: int) -> TransitionMatrix:
    """Entry (lam, mu): signed count of special rim hook tableaux of shape mu
    and content lam; must agree with :func:`sym_Kinv` entrywise."""
    return _signed_counts(
        n,
        "partitions",
        lambda mu: ((srht_sign(t), srht_content(t)) for t in enumerate_srht(mu)),
    )


def mat_mul(a: TransitionMatrix, b: TransitionMatrix) -> TransitionMatrix:
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


def is_identity(a: TransitionMatrix) -> bool:
    return all(
        entry == (1 if i == j else 0)
        for i, row in enumerate(a.entries)
        for j, entry in enumerate(row)
    )


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
    """The surviving terms of det(h_{lam_i - i + j}), one per permutation.

    A permutation contributes iff lam_i - i + sigma_i >= 0 for all i (an
    index below zero kills the term); the term is recorded as its sign and
    the decreasingly sorted exponent multiset with zeros dropped (h_0 = 1).
    """
    lam = tuple(lam)
    return [
        (perm_sign(perm), dec(flatten(delta)))
        for perm, delta in delta_choices(lam)
    ]
