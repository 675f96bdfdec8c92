import pytest

from kostka import core, rimhooks as rh, tunnelhooks as th
from oracles import naive_enumerate_srht

BIG_SHAPE = (8, 7, 7, 4, 4, 4, 2, 2, 2)
BIG_PERM = (1, 6, 4, 3, 9, 2, 5, 8, 7)

# The six hook paths of the big worked example, initial cell to terminal
# cell, listed by terminal row.
BIG_HOOKS = (
    tuple((1, c) for c in range(8, 0, -1)),
    ((2, 2), (2, 1), (3, 1)),
    ((2, 6), (2, 5), (2, 4), (2, 3), (3, 3), (3, 2), (4, 2), (4, 1)),
    ((2, 7), (3, 7), (3, 6), (3, 5), (3, 4), (4, 4), (4, 3), (5, 3), (5, 2), (5, 1), (6, 1)),
    ((7, 1), (8, 1)),
    ((5, 4), (6, 4), (6, 3), (6, 2), (7, 2), (8, 2), (9, 2), (9, 1)),
)

BIG = rh.SpecialRimHookTableau(BIG_SHAPE, BIG_HOOKS)


def test_big_fixture_is_valid():
    rh.validate_srht(BIG)


def test_perm_srt_big_example():
    assert rh.perm_srt(BIG) == BIG_PERM


def test_perm_cycles_big_example():
    cycles = rh.perm_cycles_srt(BIG)
    assert cycles == [
        (1,),
        (3, 2),
        (4, 3, 2),
        (6, 5, 4, 3, 2),
        (8, 7),
        (9, 8, 7, 6, 5),
    ]
    assert core.cycles_to_perm(cycles, 9) == BIG_PERM


def test_gamma_big_example():
    assert rh.gamma(BIG) == (8, 11, 8, 3, 8, 0, 0, 2, 0)
    assert rh.srht_content(BIG) == (11, 8, 8, 8, 3, 2)


def test_srht_from_perm_reconstructs_big_example():
    rebuilt = rh.srht_from_perm(BIG_SHAPE, BIG_PERM)
    assert rebuilt == BIG


def test_big_example_maps_to_same_permutation_covering():
    covering = rh.srht_to_thc(BIG)
    assert covering == th.thc_from_perm(BIG_SHAPE, BIG_PERM)
    assert rh.gamma(BIG) == covering.delta()
    assert rh.thc_to_srht(covering) == BIG


def test_single_column_single_hook():
    tableau = rh.SpecialRimHookTableau((1, 1, 1), ((((1, 1)), (2, 1), (3, 1)),))
    rh.validate_srht(tableau)
    assert rh.perm_srt(tableau) == (3, 1, 2)
    assert rh.srht_sign(tableau) == 1  # crosses two rows
    assert rh.is_srht_and_thc(tableau)


def test_row_hooks_are_identity():
    for lam in [(4,), (3, 2), (4, 2, 1)]:
        tableau = rh.srht_from_perm(lam, core.identity_perm(len(lam)))
        assert all(
            path == tuple((i + 1, c) for c in range(lam[i], 0, -1))
            for i, path in enumerate(tableau.hooks)
        )
        assert rh.gamma(tableau) == lam
        assert rh.srht_sign(tableau) == 1
        assert rh.is_srht_and_thc(tableau)
        assert rh.srht_to_thc(tableau).delta() == lam


def test_big_example_is_not_a_covering():
    # one hook begins at (2,7), the row's end, but another begins at (2,6)
    assert not rh.is_srht_and_thc(BIG)


def test_shape_8774_tableau_maps_to_known_covering():
    tableau = rh.srht_from_perm((8, 7, 7, 4), (1, 3, 4, 2))
    covering = rh.srht_to_thc(tableau)
    assert covering == th.thc_from_perm((8, 7, 7, 4), (1, 3, 4, 2))
    assert rh.gamma(tableau) == (8, 8, 8, 2)


def test_divergence_input_content():
    tableau = rh.srht_from_perm((3, 2, 1), (3, 1, 2))
    assert rh.gamma(tableau) == (5, 1, 0)
    assert rh.srht_content(tableau) == (5, 1)


def test_enumeration_counts():
    assert len(rh.enumerate_srht((1,))) == 1
    assert len(rh.enumerate_srht((2, 1))) == 2
    for n in range(1, 7):
        assert len(rh.enumerate_srht((n,))) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_enumeration_matches_naive_partition_search(n):
    for lam in core.partitions_of(n):
        ours = {t.hooks for t in rh.enumerate_srht(lam)}
        brute = set(naive_enumerate_srht(lam))
        assert ours == brute


@pytest.mark.parametrize("n", range(1, 9))
def test_perm_characterization_and_sign(n):
    for lam in core.partitions_of(n):
        perms = [perm for perm, _ in th.delta_choices(lam)]
        tableaux = rh.enumerate_srht(lam)
        seen = set()
        for tableau in tableaux:
            rh.validate_srht(tableau)
            sigma = rh.perm_srt(tableau)
            ell = len(lam)
            assert all(lam[i] - (i + 1) + sigma[i] >= 0 for i in range(ell))
            assert sigma not in seen
            seen.add(sigma)
            assert rh.srht_sign(tableau) == core.perm_sign(sigma)
            assert rh.gamma(tableau) == tuple(
                lam[i] - (i + 1) + sigma[i] for i in range(ell)
            )
            assert rh.srht_from_perm(lam, sigma) == tableau
            covering = rh.srht_to_thc(tableau)
            assert all(d >= 0 for d in covering.delta())
            assert rh.gamma(tableau) == covering.delta()
        assert seen == set(perms)


@pytest.mark.parametrize("n", range(1, 9))
def test_cycles_agree_exhaustively(n):
    for lam in core.partitions_of(n):
        for tableau in rh.enumerate_srht(lam):
            cycles = rh.perm_cycles_srt(tableau)
            assert core.cycles_to_perm(cycles, len(lam)) == rh.perm_srt(tableau)


@pytest.mark.parametrize("n", range(1, 8))
def test_bijection_with_nonnegative_coverings(n):
    # every covering with componentwise nonnegative weights is hit exactly once
    for lam in core.partitions_of(n):
        images = {rh.srht_to_thc(t).perm for t in rh.enumerate_srht(lam)}
        nonneg = {perm for perm, _ in th.delta_choices(lam)}
        assert images == nonneg


def test_covering_tableaux_are_fixed_by_the_bijection():
    # tilings that are both: every hook starts at its row end; such a tableau
    # maps to the covering with the same hook structure
    for n in range(1, 8):
        for lam in core.partitions_of(n):
            for tableau in rh.enumerate_srht(lam):
                if not rh.is_srht_and_thc(tableau):
                    continue
                covering = rh.srht_to_thc(tableau)
                hook_cells = {
                    cell for h in covering.hooks() for cell in h.cells
                }
                diagram = {
                    (i + 1, j + 1)
                    for i in range(len(lam))
                    for j in range(lam[i])
                }
                tableau_cells = {c for h in tableau.hooks for c in h}
                assert tableau_cells == diagram
                # within the diagram the covering uses exactly the same cells
                assert {c for c in hook_cells if c in diagram} == diagram
                # and hook-by-hook the in-diagram cell sets coincide for the
                # hooks that carry cells
                by_terminal_srht = {h[-1][0]: set(h) for h in tableau.hooks}
                for h in covering.hooks():
                    in_diag = {c for c in h.cells if c in diagram}
                    if h.delta > 0:
                        assert in_diag == by_terminal_srht[h.end_row]


def test_no_preimage_error_names_index():
    with pytest.raises(core.NoPreimageError) as err:
        rh.srht_from_perm((2, 1, 1), (2, 3, 1))
    assert "row 3" in str(err.value)


def test_validate_srht_refuses_a_permutation_with_no_tableau():
    # the hooks read the permutation (2, 3, 1), which row 3 of (1, 1, 1)
    # cannot carry: a malformed tableau, so a plain ValueError
    tableau = rh.SpecialRimHookTableau(
        (1, 1, 1), (((1, 1), (2, 1)), ((2, 1), (3, 1)), ((3, 1), (1, 1)))
    )
    assert rh.perm_srt(tableau) == (2, 3, 1)
    with pytest.raises(ValueError, match=r"^permutation \(2, 3, 1\): no tableau: row 3 ") as err:
        rh.validate_srht(tableau)
    assert not isinstance(err.value, core.NoPreimageError)


def test_nonpartition_shape_rejected():
    with pytest.raises(ValueError):
        rh.srht_from_perm((1, 2), (1, 2))


def _mutations(shape, hooks):
    """Each single mutation of a hook list: empty, reverse or split a path,
    drop one of its cells, add a diagram cell or an outside neighbour at
    either end, and drop, swap or merge whole hooks."""
    diagram = [(i, j) for i, part in enumerate(shape, 1) for j in range(1, part + 1)]
    out = []
    for i, path in enumerate(hooks):
        before, after = hooks[:i], hooks[i + 1:]
        (r, c), (s, d) = path[0], path[-1]
        out.append(before + ((),) + after)
        out.append(before + (path[::-1],) + after)
        out.append(before + after)
        out += [before + (path[:j] + path[j + 1:],) + after for j in range(len(path))]
        out += [before + (path[:j], path[j:]) + after for j in range(1, len(path))]
        out += [before + ((cell,) + path,) + after for cell in diagram + [(r - 1, c), (r, c + 1)]]
        out += [before + (path + (cell,),) + after for cell in diagram + [(s + 1, d), (s, d - 1)]]
        for j in range(i + 1, len(hooks)):
            swapped = list(hooks)
            swapped[i], swapped[j] = hooks[j], hooks[i]
            out.append(tuple(swapped))
            rest = before + hooks[i + 1:j] + hooks[j + 1:]
            out += [(path + hooks[j],) + rest, (hooks[j] + path,) + rest]
    return out


_PERM_SRT_REFUSALS = (
    "two initial cells on diagonal",
    "empty diagonal",
    "a hook starts on a diagonal no row selects",
    "are not a permutation",
)


def _refusal(tableau):
    """Which of validate_srht's refusals a tableau meets, found by the
    functions that state them: an empty path, one of perm_srt's four, or a
    permutation that rebuilds other hooks; None for a valid tableau."""
    if not all(tableau.hooks):
        return "empty hook path"
    try:
        sigma = rh.perm_srt(tableau)
    except ValueError as err:
        return next(key for key in _PERM_SRT_REFUSALS if key in str(err))
    return None if rh.srht_from_perm(tableau.shape, sigma) == tableau else "rebuild"


def test_validate_srht_accepts_exactly_the_tilings():
    # every tableau of degree <= 6 and every single mutation of one: the
    # validator accepts the raw search's tilings and refuses the rest with
    # ValueError, and the corpus meets every refusal
    reached = set()
    for n in range(1, 7):
        for lam in core.partitions_of(n):
            tilings = set(naive_enumerate_srht(lam))
            corpus = set(tilings).union(*(_mutations(lam, hooks) for hooks in tilings))
            for hooks in corpus:
                tableau = rh.SpecialRimHookTableau(lam, hooks)
                try:
                    rh.validate_srht(tableau)
                except ValueError:
                    assert hooks not in tilings
                    reached.add(_refusal(tableau))
                else:
                    assert hooks in tilings
    assert reached == {"empty hook path", "rebuild", *_PERM_SRT_REFUSALS}
