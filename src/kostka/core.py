"""Integer-sequence combinatorics and the permutation toolkit.

Compositions, partitions and weak compositions are plain tuples of ints;
permutations are tuples in one-line notation acting on {1, .., n}.  All
values are immutable and all functions are pure, so everything here can be
shared freely across threads or worker processes.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence


class DegreeError(ValueError):
    """Requested an enumeration at degree n < 1."""


class InvalidContentError(ValueError):
    """A sequence with a negative entry has no content."""


class NoPreimageError(ValueError):
    """A bijection was evaluated outside of its image."""


IntSeq = tuple[int, ...]


def is_composition(parts: Sequence[int]) -> bool:
    for p in parts:
        if p < 1:
            return False
    return True


def is_partition(parts: Sequence[int]) -> bool:
    prev = parts[0] if parts else 1
    for p in parts:
        if not 1 <= p <= prev:
            return False
        prev = p
    return True


def compositions_of(n: int) -> list[IntSeq]:
    """All 2^(n-1) compositions of n in canonical order.

    The order comes from the (n-1)-bit boundary encoding of a composition,
    read most-significant-bit first, ascending: bit j (from the left) set
    means a part boundary after position j.  So n=3 enumerates as
    (3), (2,1), (1,2), (1,1,1).  This order fixes matrix row/column order
    throughout the package.
    """
    if n < 1:
        raise DegreeError(f"degree must be >= 1, got {n}")
    out: list[IntSeq] = []
    for mask in range(1 << (n - 1)):
        parts = []
        run = 1
        for pos in range(n - 1):
            if (mask >> (n - 2 - pos)) & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        parts.append(run)
        out.append(tuple(parts))
    return out


def partitions_of(n: int) -> list[IntSeq]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n < 1:
        raise DegreeError(f"degree must be >= 1, got {n}")
    out: list[IntSeq] = []

    def descend(remaining: int, largest: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(remaining, largest), 0, -1):
            acc.append(part)
            descend(remaining - part, part, acc)
            acc.pop()

    descend(n, n, [])
    return out


def dec(parts: Sequence[int]) -> IntSeq:
    """The weakly decreasing rearrangement of a composition."""
    return tuple(sorted(parts, reverse=True))


def flatten(seq: Sequence[int]) -> IntSeq:
    """Drop zeros, preserving the order of the remaining entries.

    Entries must be nonnegative: a weight sequence with a negative entry
    has no content.
    """
    for x in seq:
        if x < 0:
            raise InvalidContentError(f"negative entry in {tuple(seq)}")
    return tuple([x for x in seq if x])


def dominates(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """Prefix sums of alpha weakly dominate those of beta (zero-padded)."""
    if sum(alpha) != sum(beta):
        raise ValueError("dominance compares sequences of equal total")
    acc_a = acc_b = 0
    for a, b in itertools.zip_longest(alpha, beta, fillvalue=0):
        acc_a += a
        acc_b += b
        if acc_a < acc_b:
            return False
    return True


def lex_geq(alpha: Sequence[int], beta: Sequence[int]) -> bool:
    """alpha = beta, or alpha is larger at the first differing index.

    Two distinct compositions of the same n always differ at an index both
    possess, so plain tuple comparison is the lexicographic order.
    """
    return tuple(alpha) >= tuple(beta)


# -- permutations -----------------------------------------------------------

Perm = tuple[int, ...]


def is_perm(images: Sequence[int]) -> bool:
    return sorted(images) == list(range(1, len(images) + 1))


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


def permutations_of(n: int) -> Iterator[Perm]:
    return itertools.permutations(range(1, n + 1))


def perm_compose(sigma: Perm, tau: Perm) -> Perm:
    """Right-to-left product: (sigma tau)(i) = sigma(tau(i))."""
    if len(sigma) != len(tau):
        raise ValueError("cannot compose permutations of different lengths")
    return tuple(sigma[t - 1] for t in tau)


def perm_inverse(sigma: Perm) -> Perm:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v - 1] = i + 1
    return tuple(inv)


def perm_sign(sigma: Perm) -> int:
    """Parity of the inversion count, +1 even and -1 odd, read off the
    cycles: a permutation of n points with c cycles has parity n - c."""
    seen = [False] * len(sigma)
    parity = len(sigma)
    for start in range(len(sigma)):
        if seen[start]:
            continue
        parity -= 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
    return -1 if parity % 2 else 1


def lehmer_code(sigma: Perm) -> IntSeq:
    """Per-position counts of smaller values appearing further right."""
    return tuple(
        sum(1 for j in range(i + 1, len(sigma)) if sigma[j] < sigma[i])
        for i in range(len(sigma))
    )


def lehmer_decode(code: Sequence[int]) -> Perm:
    """Inverse of :func:`lehmer_code`."""
    available = list(range(1, len(code) + 1))
    out = []
    for c in code:
        out.append(available.pop(c))
    return tuple(out)


def transposition(n: int, k: int) -> Perm:
    """The adjacent transposition swapping k and k+1, in one-line notation."""
    if not 1 <= k < n:
        raise ValueError(f"transposition index {k} out of range for S_{n}")
    images = list(range(1, n + 1))
    images[k - 1], images[k] = images[k], images[k - 1]
    return tuple(images)


def swap_values(sigma: Perm, k: int) -> Perm:
    """Left multiplication by the transposition of k, k+1 (value swap), 1 <= k < n."""
    out = list(sigma)
    i, j = out.index(k), out.index(k + 1)
    out[i], out[j] = k + 1, k
    return tuple(out)


def swap_positions(sigma: Perm, k: int) -> Perm:
    """Right multiplication by the transposition of k, k+1 (position swap)."""
    out = list(sigma)
    out[k - 1], out[k] = out[k], out[k - 1]
    return tuple(out)


def embed(sigma: Perm, m: int) -> Perm:
    """Extend sigma by fixed points so it acts on {1, .., m}."""
    if m < len(sigma):
        raise ValueError(f"cannot embed a permutation of length {len(sigma)} into S_{m}")
    return tuple(sigma) + tuple(range(len(sigma) + 1, m + 1))


def delete_fixed_point(sigma: Perm, pos: int) -> Perm:
    """Remove position pos (which sigma must fix) and relabel larger values."""
    if sigma[pos - 1] != pos:
        raise ValueError(f"position {pos} is not a fixed point of {sigma}")
    return tuple(v - 1 if v > pos else v for i, v in enumerate(sigma) if i != pos - 1)


def cycle_to_perm(cycle: Sequence[int], n: int) -> Perm:
    """One-line form of the cycle (c1 c2 .. cm) inside S_n."""
    images = list(range(1, n + 1))
    for a, b in zip(cycle, cycle[1:]):
        images[a - 1] = b
    if cycle:
        images[cycle[-1] - 1] = cycle[0]
    return tuple(images)


def cycles_to_perm(cycles: Iterable[Sequence[int]], n: int) -> Perm:
    """Product of the listed cycles, applied right to left."""
    result = identity_perm(n)
    for cycle in cycles:
        result = perm_compose(result, cycle_to_perm(cycle, n))
    return result
