"""Hook coverings of composition diagrams and their permutation encoding.

A covering assigns to each row r of a diagram a "tunnel hook": the blue and
red cells of row r in a stage-wise colored diagram (or one purple cell when
there are none), together with every boundary cell of the rows the hook
passes through on its way down to a terminal cell.  Coverings of a shape of
length l are in bijection with permutations of {1..l}: hook r terminates on
the diagonal sigma(r), and the sign of the covering is the sign of sigma.

The canonical representation of a covering is the (shape, permutation) pair;
the colored-diagram geometry is replayed on demand by :func:`replay_hooks`,
the one stage walk, and :func:`build_thc` replays the permutation that its
terminal choices form.  Replaying keeps the expensive part out of
enumeration loops while still exercising the full construction for
validation and rendering.  Nothing is cached: :func:`delta_choices`, the
one permutation search behind coverings, rim hooks and content filters, is
a plain function.

Cells are 1-based (row, column) pairs; the diagonal of a cell (r, c) is
r - c + 1.  Column 0 acts as an implicit grey wall, so row p's terminal, its
leftmost non-grey cell (p, nu_p + 1), lies on diagonal p - nu_p.  That a
stage's terminals lie on distinct diagonals is certified in the tests, by the
replay digest of every covering of degree <= 7 (recorded while every stage
passed the full check) and by the oracle ``available_terminals``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import (
    IntSeq,
    Perm,
    cycle_to_perm,
    embed,
    flatten,
    is_composition,
    is_perm,
    perm_compose,
    perm_sign,
)

Cell = tuple[int, int]


def diagonal(cell: Cell) -> int:
    r, c = cell
    return r - c + 1


class _GBPRFields(NamedTuple):
    shape: IntSeq
    nu: IntSeq


class GBPRDiagram(_GBPRFields):
    """A stage of the colored construction: shape plus grey profile.

    Row i holds nu[i] grey cells; right of them sit blue cells (row still
    has cells to place), or red cells (the grey overshoots the row), and
    purple cells fill the rest of the row out to infinity.  Shape entries
    may be zero or negative in intermediate stages.
    """

    __slots__ = ()

    def __new__(cls, shape: IntSeq, nu: IntSeq) -> GBPRDiagram:
        if len(shape) != len(nu):
            raise ValueError("shape and grey profile lengths differ")
        if any(g < 0 for g in nu):
            raise ValueError("grey profile entries must be >= 0")
        return tuple.__new__(cls, (shape, nu))

    @classmethod
    def _of(cls, shape: IntSeq, nu: IntSeq) -> GBPRDiagram:
        """The stage without the constructor's checks, for :func:`replay_hooks`."""
        return tuple.__new__(cls, (shape, nu))

    def row_spans(self, i: int) -> tuple[int, int, int]:
        """(grey end, blue end, red end) column bounds for row i (1-based), nondecreasing."""
        a = self.shape[i - 1]
        g = self.nu[i - 1]
        if a > 0 and g <= a:
            return g, a, a
        return g, g, 2 * g - a

    def color(self, i: int, j: int) -> str:
        """Color letter G/B/R/P of cell (i, j), j >= 1."""
        if not 1 <= i <= len(self.shape):
            raise ValueError(f"row {i} out of range")
        if j < 1:
            raise ValueError("columns are 1-based")
        grey_end, blue_end, red_end = self.row_spans(i)
        if j <= grey_end:
            return "G"
        if j <= blue_end:
            return "B"
        if j <= red_end:
            return "R"
        return "P"


def boundary_cells(diagram: GBPRDiagram, i: int) -> list[Cell]:
    """Non-grey cells of row i adjacent (8 directions) to grey or the wall.

    Grey fills a prefix of every row, so the run is read off the profile:
    columns nu_i + 1 .. M + 1, with M the largest nu over the rows i - 1,
    i and i + 1 that exist.  Column 0 is the wall, so c = 1 always
    qualifies.  Any other cell (i, c) qualifies when a neighbour is grey;
    the least neighbour column it can use is c - 1, and a row's column
    c - 1 is grey exactly when c - 1 <= that row's nu.  So c qualifies
    exactly when c <= M + 1, and the run starts at the first non-grey
    cell, nu_i + 1 <= M + 1.
    """
    nu = diagram.nu
    reach = max(nu[max(i - 2, 0) : i + 1])
    return [(i, c) for c in range(nu[i - 1] + 1, reach + 2)]


class TunnelHook(NamedTuple):
    start_row: int
    end_row: int
    terminal: Cell
    cells: tuple[Cell, ...]
    red_in_start_row: int
    purple_in_start_row: int
    delta: int

    @property
    def sign(self) -> int:
        return -1 if (self.end_row - self.start_row) % 2 else 1


def _hook_at(diagram: GBPRDiagram, r: int, p: int) -> TunnelHook:
    """The hook from row r to row p at the current stage.  It holds its terminal
    (p, nu_p + 1): row r's cells and every boundary run start at column nu + 1."""
    grey_end, blue_end, red_end = diagram.row_spans(r)
    red = red_end - blue_end
    purple = int(red_end == grey_end)  # no blue or red cell: one purple cell
    cells = [(r, c) for c in range(grey_end + 1, red_end + 1)] or [(r, grey_end + 1)]
    for i in range(r + 1, p + 1):
        cells.extend(boundary_cells(diagram, i))
    return TunnelHook(
        start_row=r,
        end_row=p,
        terminal=(p, diagram.nu[p - 1] + 1),
        cells=tuple(cells),
        red_in_start_row=red,
        purple_in_start_row=purple,
        delta=len(cells) - 2 * red - purple,
    )


class _CoveringFields(NamedTuple):
    shape: IntSeq
    perm: Perm


class TunnelHookCovering(_CoveringFields):
    """A covering in canonical (shape, permutation) form.

    The constructor checks that the shape is a composition and the
    permutation one of its length.  :meth:`_of` is the trusted builder that
    skips those checks; only the four pair maps of ``involutions`` (``phi``,
    ``chi``, ``psi`` and ``theta``) call it, for their image coverings.

    A covering hashes and compares as the tuple (shape, perm), in C, so it
    equals any tuple with the same entries: tell objects apart with
    :func:`kostka.serialize.kind_of`.  ``_replace`` and ``_make`` skip the
    checks too; the package does not call them.
    """

    __slots__ = ()

    def __new__(cls, shape: IntSeq, perm: Perm) -> TunnelHookCovering:
        if not is_composition(shape):
            raise ValueError(f"shape {shape} is not a composition")
        if len(shape) != len(perm):
            raise ValueError("shape and permutation lengths differ")
        if not is_perm(perm):
            raise ValueError(f"{perm} is not a permutation")
        return tuple.__new__(cls, (shape, perm))

    @classmethod
    def _of(cls, shape: IntSeq, perm: Perm) -> TunnelHookCovering:
        """The covering (shape, perm), built as a bare tuple without the
        constructor's checks.

        For the image of a pair map applied to a pair of its family, whose
        covering passed the constructor.  The image is valid by construction:
        ``swap_values``, ``swap_positions``, ``embed`` and
        ``delete_fixed_point`` turn a permutation into a permutation of the
        right length, and every image shape is the covering's own or
        ``shape_of`` nonempty rows (``psi`` raises when opening a row would
        empty its source row and otherwise deletes the emptied row; ``theta``
        acts from column 2 onwards, as column 1 of an immaculate filling
        strictly increases).  The verifier does not rest on that argument:
        ``verify_cell`` requires every final image to equal a member of the
        cell, and each member's covering was built by the constructor in
        ``involutions._index``.
        """
        return tuple.__new__(cls, (shape, perm))

    def delta(self) -> IntSeq:
        """Per-row weights: delta_i = shape_i + perm_i - i.  May be negative."""
        return tuple([p + s - i for i, (p, s) in enumerate(zip(*self), 1)])

    def content(self) -> IntSeq:
        """The zero-stripped weight sequence; errors when a weight is negative."""
        return flatten(self.delta())

    def sign(self) -> int:
        return perm_sign(self.perm)

    def hooks(self) -> tuple[TunnelHook, ...]:
        return replay_hooks(self.shape, self.perm)


def thc_from_perm(shape: Sequence[int], perm: Sequence[int]) -> TunnelHookCovering:
    """The unique covering of the given shape with the given permutation."""
    return TunnelHookCovering(tuple(shape), tuple(perm))


def replay_hooks(shape: IntSeq, perm: Perm) -> tuple[TunnelHook, ...]:
    """Run the stage-wise construction, hook by hook, for (shape, perm).

    Hook r ends in the one row p >= r whose terminal lies on diagonal
    perm[r], p - nu_p == perm[r]; no such row, or two, raises.  Stages are
    built unchecked (``GBPRDiagram._of``): the walk's profile has one entry
    per row, starts at zero and only grows.  Each hook's cell-wise weight is
    checked against shape_r + perm_r - r, so a geometry bug cannot pass.
    """
    ell = len(shape)
    nu = [0] * ell
    hooks: list[TunnelHook] = []
    for r in range(1, ell + 1):
        target = perm[r - 1]
        ends = [p for p in range(r, ell + 1) if p - nu[p - 1] == target]
        if not ends:
            raise ValueError(
                f"no available terminal on diagonal {target} at stage {r} of {shape}"
            )
        if len(ends) > 1:
            raise ValueError(f"grey profile {tuple(nu)} puts two terminals on one diagonal")
        hook = _hook_at(GBPRDiagram._of(shape, tuple(nu)), r, ends[0])
        expected = shape[r - 1] + perm[r - 1] - r
        if hook.delta != expected:
            raise ValueError(
                f"cell-wise weight {hook.delta} of hook {r} disagrees with "
                f"{expected} for shape {shape}, perm {perm}"
            )
        for i, _ in hook.cells:
            nu[i - 1] += 1
        hooks.append(hook)
    return tuple(hooks)


def build_thc(
    shape: Sequence[int], terminals: Sequence[Cell]
) -> tuple[TunnelHookCovering, tuple[TunnelHook, ...]]:
    """Build a covering from explicit terminal-cell choices by replaying them.

    The diagonals of the choices are the permutation.  A choice off every
    available diagonal fails the replay, diagonals that repeat fail the
    constructor, and hook r must end on choice r itself, not only on its
    diagonal.
    """
    if len(terminals) != len(shape):
        raise ValueError("one terminal choice per row is required")
    choices = [tuple(choice) for choice in terminals]
    covering = TunnelHookCovering(tuple(shape), tuple(diagonal(c) for c in choices))
    hooks = covering.hooks()
    for r, (hook, choice) in enumerate(zip(hooks, choices), start=1):
        if hook.terminal != choice:
            raise ValueError(f"illegal terminal {choice} at stage {r}")
    return covering, hooks


def perm_of_thc(covering: TunnelHookCovering) -> Perm:
    """Read the permutation off the replayed geometry: terminal diagonals."""
    return tuple(diagonal(h.terminal) for h in covering.hooks())


def delta_choices(shape: IntSeq) -> tuple[tuple[Perm, IntSeq], ...]:
    """All (perm, delta) pairs of the shape with componentwise delta >= 0.

    Backtracks with the bound perm_r >= L_r = max(1, r - shape_r) instead of
    filtering all of S_l; the survivors are exactly the coverings that carry
    a content, and, for a partition shape, the permutations of its special
    rim hook tableaux.  Ordered lexicographically by permutation.

    Dead branches are cut: once perm_1..perm_r are placed, let s be the
    smallest value not yet used.  Every later row r' takes a value of at
    least L_{r'}, so when s is below the least L of the rows after r, no row
    can ever take s and the subtree holds no permutation.  The cut is exact:
    it drops only empty subtrees, so the output and its order are those of
    the uncut search.  A larger perm_r leaves s where it is, so the first
    dead candidate for row r ends the loop over them.  Not cached: the
    involution verifier keeps the coverings of the degree it checks in its
    index (``involutions._index``), and the other callers (``enumerate_thc``,
    ``rimhooks.enumerate_srht``, ``matrices.jacobi_trudi_terms`` and the
    ``walks`` sampler of ``perfbench``) pay one search per call.
    """
    ell = len(shape)
    low = [0] + [max(1, r - shape[r - 1]) for r in range(1, ell + 1)]  # low[r] = L_r
    # after_min[r]: the least L_{r'} over r' > r; ell + 1 past the last row
    after_min = [ell + 1] * (ell + 1)
    for r in range(ell - 1, 0, -1):
        after_min[r] = min(low[r + 1], after_min[r + 1])
    out: list[tuple[Perm, IntSeq]] = []
    used = [False] * (ell + 2)  # used[ell + 1] stays False: it ends the scan below
    sigma: list[int] = []

    def dfs(r: int, smallest: int) -> None:
        if r > ell:
            perm = tuple(sigma)
            out.append((perm, tuple(shape[i] + perm[i] - (i + 1) for i in range(ell))))
            return
        for v in range(low[r], ell + 1):
            if used[v]:
                continue
            used[v] = True
            s = smallest
            while used[s]:
                s += 1
            if s < after_min[r]:
                used[v] = False
                break
            sigma.append(v)
            dfs(r + 1, s)
            sigma.pop()
            used[v] = False

    dfs(1, 1)
    return tuple(out)


def enumerate_thc(
    content: Sequence[int], shape: Sequence[int]
) -> list[tuple[TunnelHookCovering, int]]:
    """All coverings of the given shape whose content is exactly ``content``,
    with their signs, ordered lexicographically by permutation.

    Coverings whose weight sequence has a negative entry carry no content;
    :func:`delta_choices` never yields them.
    """
    content = tuple(content)
    shape = tuple(shape)
    if not is_composition(content) or not is_composition(shape):
        raise ValueError("content and shape must be compositions")
    if sum(content) != sum(shape):
        raise ValueError("content and shape have different totals")
    return [
        (TunnelHookCovering(shape, perm), perm_sign(perm))
        for perm, delta in delta_choices(shape)
        if flatten(delta) == content
    ]


def perm_cycles_thc(covering: TunnelHookCovering) -> list[tuple[int, ...]]:
    """One descending cycle per hook: end row down to start row.

    Multiplying the cycles in row order (rightmost applied first)
    reproduces the covering's permutation.
    """
    return [
        tuple(range(h.end_row, h.start_row - 1, -1)) for h in covering.hooks()
    ]


def _truncated_terminal(hook: TunnelHook, k: int) -> Cell:
    """Terminal of the hook after rows below k are cut: leftmost cell in its last surviving row."""
    row = min(hook.end_row, k)
    col = min(c for (r, c) in hook.cells if r == row)
    return (row, col)


def truncate_thc(covering: TunnelHookCovering, k: int) -> TunnelHookCovering:
    """The covering of the first k rows obtained by cutting rows below k."""
    if not 1 <= k <= len(covering.shape):
        raise ValueError(f"row count {k} out of range")
    hooks = covering.hooks()
    perm = tuple(diagonal(_truncated_terminal(hooks[i], k)) for i in range(k))
    return TunnelHookCovering(covering.shape[:k], perm)


def perm_incremental(covering: TunnelHookCovering, k: int) -> Perm:
    """Permutation of the k-row truncation, built row by row.

    Appending row j multiplies on the left by the increasing cycle of the
    diagonals of the terminal cells sitting in row j of the truncation.
    """
    if not 1 <= k <= len(covering.shape):
        raise ValueError(f"row count {k} out of range")
    hooks = covering.hooks()
    perm: Perm = ()
    for j in range(1, k + 1):
        ds = sorted(
            diagonal(_truncated_terminal(hooks[i - 1], j))
            for i in range(1, j + 1)
            if min(hooks[i - 1].end_row, j) == j
        )
        perm = perm_compose(cycle_to_perm(ds, j), embed(perm, j))
    return perm
