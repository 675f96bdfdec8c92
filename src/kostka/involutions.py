"""Sign-reversing involutions on tableau/hook-covering pairs.

Five maps act on five families of pairs, all matched through the weight
sequence of the covering:

* A(alpha, beta): immaculate tableau of shape alpha whose content equals the
  covering's weight sequence; covering of shape beta.  Map: ``phi``.
* B(lam, mu): SSYT of shape lam whose content is the weight sequence read in
  the order the permutation's inverse prescribes; covering of shape mu.
  Map: ``chi``.
* C(alpha, beta): covering of content alpha and an immaculate tableau of
  content beta on a common shape.  Map: ``psi``.
* D(lam, mu) / E(lam, mu): as C but the covering's content rearranges to
  lam and the tableau has content mu; D additionally requires the tableau
  to be semistandard.  Map on D: ``rho``, which alternates ``psi`` with the
  cell-block swap ``theta`` through E until it lands back in D.  ``theta``
  acts on the E pairs outside D only, and its image is always an E pair.

Each map fixes exactly the diagonal pairs (left index equal to right index)
and flips the covering's sign everywhere else, so the signed pair counts
reduce to Kronecker deltas: that is the matrix-identity machinery.

``phi``, ``chi``, ``psi`` and ``theta`` are pairwise-independent involutions;
``rho`` composes the last two along alternating paths.  All maps are pure;
selection helpers are exposed separately so tests can pin the choices.

The families differ only in how they read a covering's weights: ``_weights``
states that rule once, and ``_shapes`` lists each family's covering shapes.
``validate_pair``, ``pair_indices`` and ``psi``'s D/E label share one scan
of the rows, ``tableaux.scan``, the one statement of column-strictness;
``theta_selection`` is the one code that locates a bad cell.
``enumerate_pairs`` reads a per-degree index, the one memo of the
enumeration path: the coverings of every shape of the degree, found in one
pass and filed under the index they give (the shape for A/B, the weights
for C/D/E), and the fillings of each (shape, composition content) read so
far, which A/B relabel to their weights.  The index holds one (family,
degree) at a time, and a filling enters it only after ``validate_pair``.
``verify_cell`` checks a map exhaustively on one cell.  Closure is
membership: an image must be one of the cell's enumerated pairs, and each
interior pair of ``rho``'s walk, an E pair, must pass ``validate_pair``
with the cell's indices; membership certifies the walk's D ends.  The
set's size must be ``_size``, the Pieri walk's Kostka counts summed over
the cell's coverings: that certifies the fillings, and the tests' check
of the NK^-1 peel against the listed coverings certifies the coverings.
It visits the pair set one orbit at a time: the map sends an unvisited
pair p to q and q back to p, and that one visit checks both pairs, so
the map runs twice per orbit rather than twice per pair.
``validate_trace`` checks a trace read from outside: its D ends and every
pair, then that it is ``rho``'s own walk from its first pair.  The maps
build their image coverings with ``TunnelHookCovering._of``, which skips
the checks of the covering's ``__new__``: an image is valid by construction,
and membership compares it with the members, whose coverings the checking
constructor built.  Pairs, traces and coverings are tuples (``NamedTuple``
records), so the membership dict and ``rho``'s seen set hash and compare
them in C.
``verify_involution``, serial or pooled, is the one loop over cells.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from itertools import chain, zip_longest
from typing import Callable, NamedTuple

from .core import (
    DegreeError,
    IntSeq,
    compositions_of,
    dec,
    delete_fixed_point,
    embed,
    flatten,
    is_composition,
    is_partition,
    partitions_of,
    perm_inverse,
    swap_positions,
    swap_values,
)
from .tableaux import (
    Rows,
    bender_knuth,
    content_vector,
    enumerate_immaculate,
    enumerate_ssyt,
    relabelling,
    scan,
    shape_of,
)
from .matrices import nsym_K, sym_K
from .tunnelhooks import TunnelHookCovering, delta_choices


class Pair(NamedTuple):
    """A covering and a tableau, labelled with their family.  A pair hashes
    and compares as the tuple (kind, thc, tableau), in C, so it equals any
    tuple with the same entries: tell objects apart with
    :func:`kostka.serialize.kind_of`."""

    kind: str  # "A" | "B" | "C" | "D" | "E"
    thc: TunnelHookCovering
    tableau: Rows


class Trace(NamedTuple):
    """A walk produced by ``rho``: pairs[0] is the input, pairs[-1] the
    output, both D pairs, the pairs between them E pairs, and maps[i]
    named the step from pairs[i] to pairs[i+1]."""

    pairs: tuple[Pair, ...]
    maps: tuple[str, ...]


def _weights(kind: str, covering: TunnelHookCovering) -> IntSeq:
    """The family's reading of the covering's weights delta: A takes delta as
    the tableau's content, B reads it through the permutation's inverse, C
    drops its zeros and D/E also sort it.  A negative weight raises
    ValueError, for C/D/E as ``flatten``'s InvalidContentError."""
    delta = covering.delta()
    if kind in ("A", "B"):
        if delta and min(delta) < 0:
            raise ValueError("covering weights must be nonnegative")
        return delta if kind == "A" else tuple([delta[j - 1] for j in perm_inverse(covering.perm)])
    weight = flatten(delta)
    return weight if kind == "C" else dec(weight)


def _shapes(kind: str, n: int) -> tuple[IntSeq, ...]:
    """The family's degree-n covering shapes in label order, which also label
    its cells (:func:`index_cells`): partitions for B/D, else compositions."""
    return partitions_of(n) if kind in ("B", "D") else compositions_of(n)


def validate_pair(pair: Pair) -> tuple[IntSeq, IntSeq]:
    """Check the pair's membership conditions; return its (left, right) indices.

    A: (tableau shape, covering shape), the tableau's content equal to the
    covering's weights as :func:`_weights` reads them.  B: likewise, with the
    tableau column-strict and the covering shape a partition.  C/D/E: a common
    shape, indices as :func:`pair_indices` reads them; D additionally needs
    the tableau column-strict.  Raises ValueError with the violated condition.
    """
    kind, covering, rows = pair
    shape, top, strict = scan(rows)
    if kind in ("A", "B"):
        if kind == "B" and not strict:
            raise ValueError("tableau must be column-strict")
        if kind == "B" and not is_partition(covering.shape):
            raise ValueError("covering shape must be a partition")
        weights = _weights(kind, covering)
        if content_vector(rows, len(weights)) != weights:
            read = "covering" if kind == "A" else "reordered"
            raise ValueError(f"tableau content differs from the {read} weights")
        return shape, covering.shape
    if kind in ("C", "D", "E"):
        if shape != covering.shape:
            raise ValueError("tableau and covering shapes differ")
        if kind == "D" and not strict:
            raise ValueError("tableau must be column-strict")
        return _indices(pair, shape, top)
    raise ValueError(f"unknown pair family {kind!r}")


def validate_trace(trace: Trace) -> tuple[IntSeq, IntSeq]:
    """Check a ``rho`` walk read from outside; return the (left, right)
    indices all its pairs share.  A trace is valid exactly when it is
    ``rho``'s walk from its first pair.  Raises ValueError, at the first
    check that fails, when the trace is malformed, does not start and end
    in D, a pair fails :func:`validate_pair` as labelled (E inside the
    walk), two pairs have different indices, ``rho`` refuses the first pair,
    or the trace parts from ``rho``'s walk at some step (one past the
    shorter walk's end counts).  ``rho`` reads no label, hence the pair
    checks first; the index check catches a ``psi`` or ``theta`` that
    changes a content mid-walk and restores it, which ``rho`` would follow."""
    pairs = trace.pairs
    if not pairs or len(trace.maps) != len(pairs) - 1:
        raise ValueError("a trace holds one or more pairs and one map between each two")
    if pairs[0].kind != "D" or pairs[-1].kind != "D":
        raise ValueError("a rho walk starts and ends in D")
    indices = set(map(validate_pair, pairs))
    if len(indices) != 1:
        raise ValueError("trace pairs have different indices")
    _, walk = rho(pairs[0])
    steps = zip_longest(zip(trace.maps, pairs[1:]), zip(walk.maps, walk.pairs[1:]))
    for k, (step, rhos) in enumerate(steps, start=1):
        if step != rhos:
            raise ValueError(f"the trace parts from rho's walk at step {k}")
    return indices.pop()


def _misplaced(pair: Pair, cell: tuple[IntSeq, IntSeq]) -> str | None:
    """Why the pair fails :func:`validate_pair` or lies outside the cell; None if it lies in it."""
    try:
        indices = validate_pair(pair)
    except ValueError as err:
        return str(err)
    return None if indices == cell else f"its indices are {indices}"


@lru_cache(maxsize=1)
def _index(kind: str, n: int) -> tuple[dict[IntSeq, tuple], dict[tuple, tuple[Rows, ...]], tuple]:
    """The memo of :func:`enumerate_pairs` for one (family, degree): the
    degree-n coverings bucketed by index, a dict of tableau fillings keyed by
    (shape, composition content) that ``enumerate_pairs`` fills, and :func:`_size`'s counts.

    Every bucket holds (covering, content, relabel) entries, the weights as
    :func:`_weights` reads them through ``relabelling`` (the identity for
    C/D/E, whose weights are compositions), keyed by the right index for A/B
    (the covering shape) and by the left index for C/D/E (the weights), in
    :func:`_shapes` order, then in ``delta_choices`` order.  One (family,
    degree) is held at a time: the verifier asks for cells degree by degree
    and map by map, so memory does not grow with the degrees visited."""
    buckets: dict[IntSeq, list] = {}
    for shape in _shapes(kind, n):
        for perm, _ in delta_choices(shape):
            covering = TunnelHookCovering(shape, perm)
            weights = _weights(kind, covering)
            key = shape if kind in ("A", "B") else weights
            buckets.setdefault(key, []).append((covering, *relabelling(weights)))
    # a covering reads a line of the Pieri walk's Kostka matrix: A/B the column
    # of its (sorted for B) weights, C/D/E the row of its (partition for D) shape
    matrix = sym_K(n) if kind in ("B", "D") else nsym_K(n)
    lines = dict(zip(matrix.labels, zip(*matrix.entries) if kind in ("A", "B") else matrix.entries))
    zero = (0,) * len(matrix.labels)
    sizes: dict[IntSeq, tuple[int, ...]] = {}
    for key, bucket in buckets.items():
        reads = (content if kind == "A" else _weights("D", covering) if kind == "B"
                 else covering.shape for covering, content, _ in bucket)
        sizes[key] = tuple(map(sum, zip(*(lines.get(read, zero) for read in reads))))
    position = {label: i for i, label in enumerate(matrix.labels)}
    return {key: tuple(bucket) for key, bucket in buckets.items()}, {}, (sizes, position)


def _size(kind: str, left: IntSeq, right: IntSeq) -> int:
    """The size of the pair set, with no filling listed: the Kostka lines
    its bucket's coverings read, summed, at the cell's other index."""
    _, _, (sizes, position) = _index(kind, sum(left))
    key, other = (right, left) if kind in ("A", "B") else (left, right)
    return sizes[key][position[other]] if key in sizes else 0


def enumerate_pairs(kind: str, left: IntSeq, right: IntSeq) -> tuple[Pair, ...]:
    """The complete pair set of the given family and index pair, read from
    the per-degree index :func:`_index`.  Each entry of the cell's bucket is
    filled: A/B fill the shape ``left`` with the weights' nonzero entries
    and relabel, C/D/E fill the covering's shape with the content ``right``.

    Raises ValueError on an index the family cannot have: not a composition,
    of another degree, or not a partition where the family sorts it (both
    indices of B, the left index of D/E).  A filling enters the memo once
    :func:`validate_pair` puts it, relabelled, in this cell with the
    covering that asked for it.  A later reader needs no check: relabelling
    keeps the row and column rules and makes the content the reader's
    weights by construction.  A filling that fails raises RuntimeError."""
    left = tuple(left)
    right = tuple(right)
    if kind not in ("A", "B", "C", "D", "E"):
        raise ValueError(f"unknown pair family {kind!r}")
    if not (is_composition(left) and is_composition(right)):
        raise ValueError(f"indices {left}, {right} must be compositions")
    if sum(right) != sum(left):
        raise ValueError("indices must have equal degree")
    if kind == "B" and not (is_partition(left) and is_partition(right)):
        raise ValueError(f"B indices must be partitions, got {left}, {right}")
    if kind in ("D", "E") and not is_partition(left):
        raise ValueError(f"the left index of {kind} must be a partition, got {left}")
    buckets, fillings, _ = _index(kind, sum(left))
    fill = enumerate_ssyt if kind in ("B", "D") else enumerate_immaculate
    by_shape = kind in ("A", "B")
    out: list[Pair] = []
    for covering, content, relabel in buckets.get(right if by_shape else left, ()):
        key = (left, content) if by_shape else (covering.shape, right)
        rows = fillings.get(key)
        if rows is None:
            rows = fill(*key)
            for filling, read in zip(rows, relabel(rows)):
                why = _misplaced(Pair(kind, covering, read), (left, right))
                if why is not None:
                    raise RuntimeError(f"{fill.__name__}{key} gave {filling}, "
                                       f"outside {kind}[{left},{right}]: {why}")
            fillings[key] = rows
        out.extend(Pair(kind, covering, t) for t in relabel(rows))
    return tuple(out)


# -- phi on A ---------------------------------------------------------------


def phi_selection(pair: Pair) -> tuple[int, int, int] | None:
    """(row m, value q_m, replacement value p), or None on a fixed point.

    In each row, q_i is the entry whose image under the covering's
    permutation is largest; m is the first row where that image differs
    from the row number.
    """
    _, (_, sigma), rows = pair
    for i, row in enumerate(rows, start=1):
        q_i = row[0]
        image = sigma[q_i - 1]
        for v in row:
            if sigma[v - 1] > image:
                q_i, image = v, sigma[v - 1]
        if image != i:
            return i, q_i, sigma.index(image - 1) + 1
    return None


def phi(pair: Pair) -> Pair:
    """Trade one cell's value against an adjacent transposition of the
    covering's permutation; fixes exactly the diagonal pairs of A."""
    selection = phi_selection(pair)
    if selection is None:
        return pair
    m, q_m, p = selection
    kind, (shape, sigma), rows = pair
    covering = TunnelHookCovering._of(shape, swap_values(sigma, sigma[q_m - 1] - 1))
    row = list(rows[m - 1])
    row.remove(q_m)
    row.append(p)
    row.sort()
    return Pair(kind, covering, rows[: m - 1] + (tuple(row),) + rows[m:])


# -- chi on B ---------------------------------------------------------------


def chi_selection(pair: Pair) -> tuple[int, int] | None:
    """(row m, value q_m) with q_m the largest entry of the first row whose
    largest entry differs from the row number; None on a fixed point."""
    for i, row in enumerate(pair.tableau, start=1):
        if row[-1] != i:  # rows weakly increase: the last entry is the largest
            return i, row[-1]
    return None


def chi(pair: Pair) -> Pair:
    """Lower the leftmost maximal entry of the selected row, then rebalance
    the two touched values everywhere with the multiplicity-exchange swap."""
    selection = chi_selection(pair)
    if selection is None:
        return pair
    m, q_m = selection
    kind, (shape, sigma), rows = pair
    covering = TunnelHookCovering._of(shape, swap_values(sigma, q_m - 1))
    row = list(rows[m - 1])
    row[row.index(q_m)] = q_m - 1
    return Pair(kind, covering, bender_knuth(rows[: m - 1] + (tuple(row),) + rows[m:], q_m - 1))


# -- psi on C (and on E, inside rho) ---------------------------------------


def psi_selection(pair: Pair) -> tuple[int, int, int] | None:
    """(cutoff row k, moving value v, source row r), or None on a fixed point.

    Rows below k are already frozen: row i holds nothing but the value
    M - l + i (M the maximal entry, l the number of rows), that value occurs
    nowhere else, and the permutation fixes i.  v is the moving value
    M - l + k and r the row containing v whose permutation image is least.
    Rows weakly increase, so a row's last entry is its maximum, and it holds
    nothing but v exactly when its first and last entries are v.  Row i is
    asked only once rows i+1..l are frozen, and those hold only their own,
    larger values, so "v occurs nowhere else" reads rows 1..i-1 alone.
    """
    _, (_, sigma), rows = pair
    k, v = len(rows), max([row[-1] for row in rows])  # v = M - l + k as k steps up
    while (k and sigma[k - 1] == k and rows[k - 1][0] == v == rows[k - 1][-1]
           and v not in chain.from_iterable(rows[: k - 1])):
        k -= 1
        v -= 1
    if k == 0:
        return None
    r = 0
    for j, row in enumerate(rows, start=1):
        if v in row and (not r or sigma[j - 1] < sigma[r - 1]):
            r = j
    return k, v, r


def psi(pair: Pair) -> Pair:
    """Move one copy of the moving value between rows, adjusting the
    permutation by one adjacent transposition; the shape may gain a one-cell
    row, or lose its row r when that row empties.  A C image stays C; a D/E
    image is D when ``tableaux.scan`` finds an SSYT, else E."""
    selection = psi_selection(pair)
    if selection is None:
        return pair
    k, v, r = selection
    kind, (_, sigma), rows = pair
    ell = len(rows)
    if rows[r - 1][-1] != v:
        raise ValueError("the moving value must close its source row")
    if sigma[r - 1] == k:
        # open a fresh one-cell row right below row k
        new_rows = list(rows)
        new_rows[r - 1] = rows[r - 1][:-1]
        new_rows.insert(k, (v,))
        if not new_rows[r - 1]:
            raise ValueError("source row emptied while opening a new row")
        perm = swap_values(embed(sigma, ell + 1), k)
    else:
        q = sigma[r - 1]
        p = sigma.index(q + 1) + 1
        new_rows = list(rows)
        new_rows[r - 1] = rows[r - 1][:-1]
        new_rows[p - 1] = rows[p - 1] + (v,)
        perm = swap_values(sigma, q)
        if not new_rows[r - 1]:
            del new_rows[r - 1]
            perm = delete_fixed_point(perm, r)
    rows_out = tuple(new_rows)
    label = "C" if kind == "C" else "D" if scan(rows_out)[2] else "E"
    return Pair(label, TunnelHookCovering._of(shape_of(rows_out), perm), rows_out)


# -- theta on E \ D ---------------------------------------------------------


def theta_selection(rows: Rows) -> tuple[int, int]:
    """(row t, column i) of the acting bad cell, one whose upper neighbour is
    missing or not smaller: the leftmost bad column, then the lowest row with
    a bad cell there.  A row's first bad cell is its first such column."""
    t = i = 0
    for r in range(1, len(rows)):
        above, row = rows[r - 1], rows[r]
        j, end = 0, min(len(above), len(row))
        while j < end and above[j] < row[j]:
            j += 1
        if j < len(row) and (not t or j < i):
            t, i = r + 1, j + 1
    if not t:
        raise ValueError("theta needs a bad cell")
    return t, i


def theta(pair: Pair) -> Pair:
    """Swap the cell blocks right of the bad column between rows t-1 and t,
    and swap the same two positions of the permutation (right to left).  The
    image is E unchecked: ``theta`` is an involution on the E pairs outside
    D, so its image, a ``theta`` input, has a bad cell."""
    _, (_, sigma), rows = pair
    t, i = theta_selection(rows)
    above = rows[t - 2]
    row = rows[t - 1]
    new_above = above[: i - 1] + row[i:]
    new_row = row[:i] + above[i - 1 :]
    new_rows = rows[: t - 2] + (new_above, new_row) + rows[t:]
    covering = TunnelHookCovering._of(shape_of(new_rows), swap_positions(sigma, t - 1))
    return Pair("E", covering, new_rows)


# -- rho on D ---------------------------------------------------------------


def pair_indices(pair: Pair) -> tuple[IntSeq, IntSeq]:
    """(left, right) for a C/D/E pair: the covering's weights as the family
    reads them, and the tableau's content vector, which must be a
    composition.  The rows must be an immaculate filling (``tableaux.scan``)."""
    return _indices(pair, *scan(pair.tableau)[:2])


def _indices(pair: Pair, shape: IntSeq, top: int) -> tuple[IntSeq, IntSeq]:
    """:func:`pair_indices` from the rows' shape and largest entry ``top``: a
    composition content uses 1..top, so top above the cell count is refused."""
    kind, covering, rows = pair
    left = _weights(kind, covering)
    if top > sum(shape) or not all(right := content_vector(rows, top)):
        raise ValueError("tableau content must be a composition")
    return left, right


def rho(pair: Pair) -> tuple[Pair, Trace]:
    """Alternate ``psi`` and ``theta`` through E until ``psi`` lands in D.

    Fixed exactly when lam = mu.  The walk needs no step bound: by the
    involution principle an alternating walk started in D never meets a
    pair twice, and ``psi`` and ``theta`` conserve both contents, so there
    are finitely many pairs to meet.  A pair met twice can only mean a
    structural bug and raises RuntimeError.  The content mu must be a
    partition, else ValueError: SSYT counts do not see the order of a
    content, so D(lam, mu) has signed count 1 when lam = dec mu != mu, yet
    no diagonal pair, and no sign-reversing involution fixed only on the
    diagonal exists on it.
    """
    lam, mu = pair_indices(pair)
    if not is_partition(mu):
        raise ValueError(f"rho acts on D pairs whose content is a partition, got {mu}")
    if lam == mu:
        return pair, Trace((pair,), ())
    pairs = [pair]
    maps: list[str] = []
    seen = {pair}
    while True:
        for name, step in (("psi", psi), ("theta", theta)):
            current = step(pairs[-1])
            if current in seen:
                raise RuntimeError(
                    f"alternating walk met a pair twice at step {len(maps) + 1}; "
                    "structural bug"
                )
            seen.add(current)
            pairs.append(current)
            maps.append(name)
            if current.kind == "D":
                return current, Trace(tuple(pairs), tuple(maps))


# -- exhaustive verification -------------------------------------------------


class InvolutionReport:
    """The counts of a check over some cells, and its first violation."""

    def __init__(self, kind: str, map_name: str, degree: int) -> None:
        self.kind = kind
        self.map_name = map_name
        self.degree = degree
        self.pairs_checked = 0
        self.fixed_points = 0
        self.max_walk = 0
        self.violations: list[str] = []
        self.pair: Pair | None = None  # the pair of the first violation, if it has one
        self.cell: tuple[IntSeq, IntSeq] | None = None  # the index pair of the first violation

    @property
    def ok(self) -> bool:
        return not self.violations


_MAPS: dict[str, tuple[str, Callable[[Pair], Pair]]] = {
    "phi": ("A", phi),
    "chi": ("B", chi),
    "psi": ("C", psi),
    "rho": ("D", rho),  # type: ignore[dict-item]
}


def _family(map_name: str) -> str:
    if map_name not in _MAPS:
        raise ValueError(f"unknown map {map_name!r}")
    return _MAPS[map_name][0]


def index_cells(map_name: str, n: int) -> list[tuple[IntSeq, IntSeq]]:
    """Every (left, right) index pair of the map's family at degree <= n,
    degree by degree, each in label order.  DegreeError if n < 1."""
    kind = _family(map_name)
    if n < 1:
        raise DegreeError(f"degree must be >= 1, got {n}")
    cells: list[tuple[IntSeq, IntSeq]] = []
    for degree in range(1, n + 1):
        indices = _shapes(kind, degree)
        cells.extend((left, right) for left in indices for right in indices)
    return cells


def verify_cell(map_name: str, cell: tuple[IntSeq, IntSeq]) -> InvolutionReport:
    """Exhaustively check one map on the pair set of one index pair.

    Checks: the map is an involution, keeps the set closed, reverses the
    covering's sign off its fixed points, fixes exactly the diagonal pairs
    (which carry sign +1 and are unique), that the signed pair count is the
    Kronecker delta, and that the set holds the :func:`_size` pairs the
    Pieri walk counts, so no pair is missing or repeated.  Closure is
    membership: each image must be one of the enumerated pairs, whose
    fillings :func:`enumerate_pairs` validated as they entered its memo.
    For ``rho``, whose walks pass through E, each interior pair of the walk
    from p, an E pair as labelled, must pass :func:`validate_pair` with the
    cell's indices, and the walk back from q must be it reversed (``psi``
    and ``theta`` are involutions).  :func:`validate_trace` would add only
    its comparison with ``rho``'s walk, which the walk here is by
    construction; membership certifies the walk's ends.
    An image outside the set is reported as leaving it when it fails
    :func:`validate_pair` or has other indices, else as missing from it.

    The pairs are visited one orbit at a time: a pair p not yet met gives
    q = map(p) and map(q), which must be p, so one visit checks both pairs
    of the orbit {p, q} (each as the image of the other) and q is skipped
    when the scan reaches it.  As the maps are pure this asserts for every
    pair what applying the map to it twice would, with half the calls; the
    counts of the report still cover every pair.
    The report holds at most one violation: checking stops at the first.
    A violation at one pair records the pair whose image broke the rule;
    the three violations of the whole set (signed sum, diagonal count, pair
    count) record none.  A ``rho`` cell whose content is no partition raises
    ``rho``'s ValueError before any pair is listed.
    """
    kind = _family(map_name)
    apply = _MAPS[map_name][1]
    left, right = cell
    if map_name == "rho" and not is_partition(right):
        raise ValueError(f"rho acts on D pairs whose content is a partition, got {right}")
    report = InvolutionReport(kind=kind, map_name=map_name, degree=sum(left))
    pairs = enumerate_pairs(kind, left, right)
    position = {pair: i for i, pair in enumerate(pairs)}  # the members, and where each sits
    done = [False] * len(pairs)  # partners already checked with their orbit
    signed = 0
    complain = report.violations.append

    def fail(violation: str, pair: Pair) -> InvolutionReport:
        complain(f"{violation}: {pair}")
        report.pair = pair
        return report

    def walk(pair: Pair) -> tuple[Pair, Trace | None]:
        return apply(pair) if map_name == "rho" else (apply(pair), None)

    for i, pair in enumerate(pairs):
        report.pairs_checked += 1
        sign = pair.thc.sign()
        signed += sign
        if done[i]:
            continue
        image, trace = walk(pair)
        back, back_trace = walk(image)
        if back != pair:
            return fail(f"{map_name} is not an involution at {left},{right}", pair)
        if trace is not None:  # the walks of rho pass through E, outside the set
            report.max_walk = max(report.max_walk, len(trace.maps))
            if any(_misplaced(step, (left, right)) is not None for step in trace.pairs[1:-1]):
                return fail(f"image leaves {kind}[{left},{right}]", pair)
            if back_trace != Trace(trace.pairs[::-1], trace.maps[::-1]):
                return fail(f"image leaves {kind}[{left},{right}]", image)
        j = position.get(image)
        if j is None:
            outside = _misplaced(image, (left, right)) is not None
            where = "leaves" if outside else "missing from the enumerated"
            return fail(f"image {where} {kind}[{left},{right}]", pair)
        if image == pair:
            report.fixed_points += 1
            if left != right:
                return fail(f"off-diagonal fixed point at {left},{right}", pair)
            if sign != 1:
                return fail(f"fixed point of negative sign at {left}", pair)
        elif image.thc.sign() != -sign:
            return fail(f"{map_name} failed to reverse sign at {left},{right}", pair)
        done[j] = True
    expected = 1 if left == right else 0
    if signed != expected:
        complain(f"signed sum over {kind}[{left},{right}] is {signed}, want {expected}")
    elif left == right and len(pairs) != 1:
        complain(f"diagonal set {kind}[{left},{left}] has {len(pairs)} pairs, want 1")
    elif len(pairs) != (size := _size(kind, left, right)):
        complain(f"{kind}[{left},{right}] has {len(pairs)} pairs, the Pieri walk counts {size}")
    return report


def verify_involution(map_name: str, n: int, workers: int = 1) -> InvolutionReport:
    """:func:`verify_cell` over every index pair at degree <= n, in
    :func:`index_cells` order, up to the first cell with a violation, which
    the report names as ``cell`` beside the counts of the cells checked.
    With ``workers`` > 1 a pool of ``min(workers, cells, CPUs)`` processes
    checks the cells in chunks, read back in order, so the report is the
    serial one; the pool ends at the first violation.  ValueError if
    ``workers`` < 1, DegreeError (from :func:`index_cells`) if n < 1."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    cells = index_cells(map_name, n)
    check = partial(verify_cell, map_name)
    size = min(workers, len(cells), os.cpu_count() or 1)
    if size < 2:
        return _add_up(map_name, n, cells, map(check, cells))
    from multiprocessing import Pool  # here only: importing it costs ~10 ms

    with Pool(size) as pool:
        return _add_up(map_name, n, cells, pool.imap(check, cells, -(-len(cells) // (4 * size))))


def _add_up(map_name: str, n: int, cells: list, parts) -> InvolutionReport:
    """The counts of ``parts``, the reports of ``cells`` in order, added up to
    the first with a violation, whose violations, pair and cell it takes."""
    report = InvolutionReport(kind=_family(map_name), map_name=map_name, degree=n)
    for cell, part in zip(cells, parts):
        report.pairs_checked += part.pairs_checked
        report.fixed_points += part.fixed_points
        report.max_walk = max(report.max_walk, part.max_walk)
        if part.violations:
            report.violations, report.pair, report.cell = part.violations, part.pair, cell
            break
    return report
