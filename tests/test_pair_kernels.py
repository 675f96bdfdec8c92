"""The per-pair kernels against the bodies they replaced (``tests/oracles.py``).

Each kernel now reads a pair's rows and fields once.  It must give the same
value as the old body, or raise the same exception with the same text, on
every pair of families A-E at degree <= 5 and on a corpus of broken pairs
made from them.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import oracles
import pytest

from kostka import core, involutions as inv, serialize as sz, tableaux
from kostka.tunnelhooks import TunnelHookCovering

DATA = Path(__file__).parent / "data"


def outcome(function, *args):
    """The value, or the exception's type and text."""
    try:
        return "value", function(*args)
    except Exception as err:  # the comparison is the point: any exception
        return type(err), str(err)


def _indices(kind, n):
    """The index pairs of family ``kind`` at degree n that ``enumerate_pairs``
    admits: B on partitions, the left index of D/E a partition."""
    comps, parts = core.compositions_of(n), core.partitions_of(n)
    lefts = parts if kind in ("B", "D", "E") else comps
    rights = parts if kind == "B" else comps
    return itertools.product(lefts, rights)


def _pairs(top):
    return [pair for n in range(1, top + 1) for kind in "ABCDE"
            for left, right in _indices(kind, n)
            for pair in inv.enumerate_pairs(kind, left, right)]


PAIRS = _pairs(5)


def _broken(pair):
    """Pairs one edit away from a valid one: relabelled to every family (and
    an unknown one), given every covering of the same shape (negative
    weights, mismatched contents), and with one entry edited (0, out of
    order, the first column not increasing, a column not strict, a gap in
    the content, an entry above the cell count)."""
    kind, covering, rows = pair
    shape = covering.shape
    for label in "ABCDEF":
        yield inv.Pair(label, covering, rows)
    for perm in itertools.permutations(range(1, len(shape) + 1)):
        yield inv.Pair(kind, TunnelHookCovering(shape, perm), rows)
    for i, row in enumerate(rows):
        for j in range(len(row)):
            for value in {0, row[j] - 1, row[j] + 1, row[j] + 2, sum(shape) + 1}:
                edited = row[:j] + (value,) + row[j + 1:]
                yield inv.Pair(kind, covering, rows[:i] + (edited,) + rows[i + 1:])
        if i:  # the first column, equal to the row above's
            yield inv.Pair(kind, covering, rows[:i] + (rows[i - 1][:1] + row[1:],) + rows[i + 1:])
    yield inv.Pair(kind, covering, rows[::-1])  # rows out of order
    yield inv.Pair(kind, covering, ())
    yield inv.Pair(kind, covering, rows + ((),))


BROKEN = [bad for pair in _pairs(4) for bad in _broken(pair)]


def test_the_corpus_reaches_every_check():
    # every message validate_pair can give comes up, so no check goes untested
    messages = {outcome(oracles.validate_pair, pair)[1] for pair in BROKEN}
    for text in ("tableau rows are not an immaculate filling",
                 "covering weights must be nonnegative",
                 "tableau content differs from the covering weights",
                 "tableau content differs from the reordered weights",
                 "tableau must be column-strict",
                 "covering shape must be a partition",
                 "tableau and covering shapes differ",
                 "tableau content must be a composition",
                 "unknown pair family 'F'"):
        assert text in messages, text
    assert any(str(m).startswith("negative entry in") for m in messages)
    assert any(str(m).startswith("entry ") and "outside 1.." in str(m) for m in messages)


@pytest.mark.parametrize("corpus", ["valid", "broken"])
def test_validate_pair_against_the_old_body(corpus):
    pairs = PAIRS if corpus == "valid" else BROKEN
    for pair in pairs:
        assert outcome(inv.validate_pair, pair) == outcome(oracles.validate_pair, pair), pair


@pytest.mark.parametrize("corpus", ["valid", "broken"])
def test_pair_indices_against_the_old_body_on_immaculate_rows(corpus):
    # the shared scan refuses rows that are no immaculate filling, which the
    # old pair_indices read as they were
    pairs = PAIRS if corpus == "valid" else BROKEN
    for pair in pairs:
        if pair.kind in "CDE" and oracles.is_immaculate(pair.tableau):
            assert outcome(inv.pair_indices, pair) == outcome(oracles.pair_indices, pair), pair


def test_tableau_predicates_against_the_old_bodies():
    rows_seen = {pair.tableau for pair in PAIRS + BROKEN}
    rows_seen |= {(), ((),), ((1,), ()), ((-1,),), ((0, 1),), ((2,), (1,)), ((1, 1), (1,))}
    for rows in rows_seen:
        assert tableaux.is_immaculate(rows) == oracles.is_immaculate(rows), rows
        assert tableaux.is_ssyt(rows) == oracles.is_ssyt(rows), rows
        assert tableaux.bad_cells(rows) == oracles.bad_cells(rows), rows
        assert tableaux.shape_of(rows) == oracles.shape_of(rows), rows


def test_sequence_helpers_against_the_old_bodies():
    for length in range(5):
        for parts in itertools.product(range(-1, 4), repeat=length):
            assert core.is_composition(parts) == oracles.is_composition(parts), parts
            assert core.is_partition(parts) == oracles.is_partition(parts), parts
            assert core.is_partition(list(parts)) == oracles.is_partition(list(parts)), parts
            assert outcome(core.flatten, parts) == outcome(oracles.flatten, parts), parts
            covering = TunnelHookCovering._of(parts, tuple(range(1, length + 1)))
            assert covering.delta() == oracles.delta(covering), parts


def test_swap_values_against_the_old_body():
    # the domain is a permutation and 1 <= k < n: both values are there
    for n in range(2, 6):
        for sigma in core.permutations_of(n):
            for k in range(1, n):
                assert core.swap_values(sigma, k) == oracles.swap_values(sigma, k), (sigma, k)


def test_map_selections_against_the_old_bodies():
    for pair in PAIRS:
        if pair.kind == "A":
            assert inv.phi_selection(pair) == oracles.phi_selection(pair), pair
        elif pair.kind == "B":
            assert inv.chi_selection(pair) == oracles.chi_selection(pair), pair
        else:
            assert inv.psi_selection(pair) == oracles.psi_selection(pair), pair
        if pair.kind == "E" and oracles.bad_cells(pair.tableau):
            assert inv.theta_selection(pair.tableau) == oracles.theta_selection(pair.tableau)
    with pytest.raises(ValueError, match="theta needs a bad cell"):
        inv.theta_selection(((1, 1), (2,)))


def test_dumps_against_json_dumps():
    fixtures = sorted(DATA.glob("*.json"))
    assert len(fixtures) == 16
    objects = [sz.loads(path.read_text()) for path in fixtures]
    objects += [pair for pair in PAIRS if sum(pair.thc.shape) <= 4]
    for value in objects:
        assert sz.dumps(value) == oracles.dumps(value)
