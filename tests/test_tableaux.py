import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kostka import core, involutions as inv, tableaux
from oracles import fill_cell_by_cell, immaculate_by_filter, ssyt_by_filter

# The running example pair from the shape-(4,3,4,3,1,5) covering: an
# immaculate filling of shape (4,3,7,6) whose content is the covering's
# weight sequence (4,3,5,2,2,4).
BIG_IMMACULATE = (
    (1, 1, 1, 1),
    (2, 2, 2),
    (3, 3, 3, 3, 3, 4, 6),
    (4, 5, 5, 6, 6, 6),
)

# SSYT of shape (6,5,5,4) with content (6,5,0,4,3,2).
BIG_SSYT = (
    (1, 1, 1, 1, 1, 1),
    (2, 2, 2, 2, 2),
    (4, 4, 4, 4, 5),
    (5, 5, 6, 6),
)


def test_content_vector():
    assert tableaux.content_vector(BIG_IMMACULATE, 6) == (4, 3, 5, 2, 2, 4)
    assert tableaux.content_vector(BIG_SSYT, 6) == (6, 5, 0, 4, 3, 2)
    assert tableaux.content_vector(((1, 1, 1),), 1) == (3,)
    with pytest.raises(ValueError):
        tableaux.content_vector(BIG_SSYT, 5)


def test_validators():
    assert tableaux.is_immaculate(BIG_IMMACULATE)
    assert not tableaux.is_ssyt(BIG_IMMACULATE)  # shape is not a partition
    assert tableaux.is_ssyt(BIG_SSYT)
    assert not tableaux.is_immaculate(((1, 2), (1,)))  # first column ties
    assert not tableaux.is_immaculate(((2, 1),))  # row decreases


def test_enumerate_immaculate_single_row():
    result = tableaux.enumerate_immaculate((2,), (1, 1))
    assert result == (((1, 2),),)


def test_enumerate_immaculate_diagonal_unique():
    for n in range(1, 9):
        for alpha in core.compositions_of(n):
            assert len(tableaux.enumerate_immaculate(alpha, alpha)) == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_immaculate_lex_vanishing(n):
    comps = core.compositions_of(n)
    for alpha, beta in itertools.product(comps, repeat=2):
        count = len(tableaux.enumerate_immaculate(alpha, beta))
        if not core.lex_geq(alpha, beta):
            assert count == 0


def _contents(n, indices):
    """The given indices, then every content of total n over the values
    1..n+1: inner and trailing zeros, and every order of the nonzero
    entries.  Most of these cells are empty."""
    yield from indices
    for content in itertools.product(range(n + 1), repeat=n + 1):
        if sum(content) == n:
            yield content


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_immaculate_against_filter_oracle(n):
    comps = core.compositions_of(n)
    for alpha in comps:
        for content in _contents(n, comps):
            ours = tableaux.enumerate_immaculate(alpha, content)
            assert sorted(ours) == sorted(immaculate_by_filter(alpha, content))
            assert all(tableaux.is_immaculate(rows) for rows in ours)
            nonzero, relabel = tableaux.relabelling(content)
            assert ours == relabel(tableaux.enumerate_immaculate(alpha, nonzero))
            # row i starts with a value >= i, so in a filling of the nonzero
            # entries the values <= k sit in rows 1..k
            if ours:
                assert core.dominates(alpha, nonzero)


@pytest.mark.parametrize("n", range(1, 7))
def test_fill_order_against_cell_by_cell_oracle(n):
    # the filter oracles compare sorted lists; this pins the order too, over
    # empty cells as well as nonempty ones
    for strict, shapes in ((False, core.compositions_of(n)), (True, core.partitions_of(n))):
        contents = list(_contents(n, shapes))
        for shape in shapes:
            for content in contents:
                assert tableaux._fill(shape, content, strict) == fill_cell_by_cell(
                    shape, content, strict
                ), (shape, content, strict)


def test_fill_order_against_cell_by_cell_oracle_sampled():
    rng = random.Random(20251118)
    for n in (8, 9):
        compositions = core.compositions_of(n)
        partitions = core.partitions_of(n)
        for _ in range(100):
            strict = rng.random() < 0.5
            shape = rng.choice(partitions if strict else compositions)
            content = [0] * rng.randint(1, n + 1)
            for _ in range(n):
                content[rng.randrange(len(content))] += 1
            content = tuple(content)
            assert tableaux._fill(shape, content, strict) == fill_cell_by_cell(
                shape, content, strict
            ), (shape, content, strict)


def test_one_repeated_value_fills_a_long_row_without_recursion():
    # the forced run fills the row in one step, past the recursion limit
    assert tableaux.enumerate_immaculate((1000,), (1000,)) == (((1,) * 1000,),)
    assert tableaux.enumerate_ssyt((1000,), (1000,)) == (((1,) * 1000,),)


def test_enumerate_ssyt_fixtures():
    assert len(tableaux.enumerate_ssyt((2, 1), (1, 1, 1))) == 2
    assert tableaux.enumerate_ssyt((1, 1), (2,)) == ()
    for n in range(1, 9):
        for lam in core.partitions_of(n):
            assert len(tableaux.enumerate_ssyt(lam, lam)) == 1


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_ssyt_against_filter_oracle(n):
    parts = core.partitions_of(n)
    for lam in parts:
        for content in _contents(n, parts):
            ours = tableaux.enumerate_ssyt(lam, content)
            assert sorted(ours) == sorted(ssyt_by_filter(lam, content))
            assert all(tableaux.is_ssyt(rows) for rows in ours)
            nonzero, relabel = tableaux.relabelling(content)
            assert ours == relabel(tableaux.enumerate_ssyt(lam, nonzero))
            # a cell is empty just when the shape fails to dominate the
            # sorted content (Bender-Knuth moves permute a content without
            # changing the number of fillings)
            assert bool(ours) == core.dominates(lam, core.dec(content))


def test_enumeration_order_is_reading_word_lex():
    result = tableaux.enumerate_immaculate((2, 2), (1, 1, 1, 1))
    words = [tuple(v for row in rows for v in row) for rows in result]
    assert words == sorted(words)


def test_bender_knuth_block_swap_example():
    # After lowering the leftmost 5 of row 3, the exchange at value 4 turns
    # three unpaired 4's into 5's while the two paired columns stay put.
    start = (
        (1, 1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2),
        (4, 4, 4, 4, 4),
        (5, 5, 6, 6),
    )
    swapped = tableaux.bender_knuth(start, 4)
    assert swapped[2] == (4, 4, 5, 5, 5)
    assert swapped[0] == start[0] and swapped[1] == start[1] and swapped[3] == start[3]
    assert tableaux.bender_knuth(swapped, 4) == start


def test_bender_knuth_absent_values_is_identity():
    rows = ((1, 1), (2, 3))
    assert tableaux.bender_knuth(rows, 5) == rows


def _all_ssyt_up_to(n):
    for lam in core.partitions_of(n):
        for content in itertools.product(range(n + 1), repeat=n):
            if sum(content) != n:
                continue
            yield from tableaux.enumerate_ssyt(lam, content)


@pytest.mark.parametrize("n", range(1, 7))
def test_bender_knuth_involution_exhaustive(n):
    for rows in _all_ssyt_up_to(n):
        m = max(max(row) for row in rows) + 1
        for k in range(1, m):
            image = tableaux.bender_knuth(rows, k)
            assert tableaux.is_ssyt(image)
            before = tableaux.content_vector(rows, m + 1)
            after = tableaux.content_vector(image, m + 1)
            assert after[k - 1] == before[k]
            assert after[k] == before[k - 1]
            for idx in range(m + 1):
                if idx not in (k - 1, k):
                    assert after[idx] == before[idx]
            assert tableaux.bender_knuth(image, k) == rows


BAD_CELL_ROWS = (
    (1, 1, 1, 1, 2, 2, 3, 3, 4),
    (2, 2, 5),
    (3, 3, 5, 5, 5),
    (4, 4, 4, 6, 6, 7, 7),
    (8, 8, 9, 9),
)


def test_bad_cells_wide_example():
    # column 3 holds the leftmost bad cells, in rows 3 and 4; theta acts on the lower
    assert inv.theta_selection(BAD_CELL_ROWS) == (4, 3)


def test_bad_cells_empty_for_ssyt():
    for rows in (BIG_SSYT, ((1,), (2,), (5,))):
        with pytest.raises(ValueError, match="theta needs a bad cell"):
            inv.theta_selection(rows)


def _has_bad_cell(rows):
    try:
        inv.theta_selection(rows)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("n", range(1, 7))
def test_bad_cells_characterize_ssyt(n):
    # no bad cell <=> partition shape and column strict
    for shape in core.compositions_of(n):
        for content in itertools.product(range(n + 1), repeat=n):
            if sum(content) != n:
                continue
            for rows in tableaux.enumerate_immaculate(shape, content):
                assert _has_bad_cell(rows) != tableaux.is_ssyt(rows)


@settings(max_examples=200)
@given(st.data())
def test_bender_knuth_involution_property(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    lam = data.draw(st.sampled_from(core.partitions_of(n)))
    # the counts of n draws from range(n): every length-n content of total n
    draws = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n))
    content = [draws.count(i) for i in range(n)]
    options = tableaux.enumerate_ssyt(lam, tuple(content))
    if not options:
        return
    rows = data.draw(st.sampled_from(options))
    k = data.draw(st.integers(min_value=1, max_value=n))
    assert tableaux.bender_knuth(tableaux.bender_knuth(rows, k), k) == rows
