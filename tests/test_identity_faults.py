"""The fault table of the identity route, ``kostka verify --identity``.

The route builds a degree's Kostka matrix and its inverse, multiplies them
with ``matrices.mat_mul`` and asks ``matrices.first_non_identity`` for the
first entry off the identity in row-major order.  Each row names the claim
the route checks, the identity and degree it runs to, and a fault injected
with ``monkeypatch``: the run passes without it and, with it, reports the
row's exact counterexample record.  K·K⁻¹ = I (``kkinv``) and K⁻¹·K = I
(``kinvk``) are the Sym identities; ``nk-nkinv`` and ``nkinv-nk`` the NSym
ones.
"""

import json
from typing import Callable, NamedTuple

import pytest

from kostka import cli, matrices as mx


class Fault(NamedTuple):
    claim: str  # what the route proves that the fault breaks
    identity: str
    n: int  # the degree the run goes up to
    inject: Callable  # installs the fault
    record: dict  # the counterexample, less its identity


def _edited(matrix, i, j, change):
    entries = [list(row) for row in matrix.entries]
    entries[i][j] += change
    return mx.TransitionMatrix(matrix.degree, matrix.index_kind, matrix.labels,
                               tuple(map(tuple, entries)))


def sym_K_entry_raised(monkeypatch):  # K[(2,1),(1,1,1)] = 2 reads 3
    real = mx.sym_K
    monkeypatch.setattr(mx, "sym_K", lambda n: _edited(real(n), 1, 2, 1) if n == 3 else real(n))


def mat_mul_drops_a_term(monkeypatch):
    # entry ((3),(1,1,1)) of K·K⁻¹ leaves out K[(3),(2,1)]·K⁻¹[(2,1),(1,1,1)] = 1·(-2)
    real = mx.mat_mul

    def dropping(a, b):
        product = real(a, b)
        if a.degree != 3:
            return product
        return _edited(product, 0, 2, -a.entries[0][1] * b.entries[1][2])

    monkeypatch.setattr(mx, "mat_mul", dropping)


def diagonal_skipped(monkeypatch):  # every entry is held to 0, the identity's 1s too
    monkeypatch.setattr(mx, "first_non_identity", lambda a: next(
        ((a.labels[i], a.labels[j], entry) for i, row in enumerate(a.entries)
         for j, entry in enumerate(row) if entry), None))


def _edit_entries(monkeypatch, name, degree, *edits):  # edits: (i, j, change) at degree
    real = getattr(mx, name)

    def edited(n):
        matrix = real(n)
        for i, j, change in edits if n == degree else ():
            matrix = _edited(matrix, i, j, change)
        return matrix

    monkeypatch.setattr(mx, name, edited)


def nsym_K_entry_raised(monkeypatch):  # NK[(2,1),(1,1,1)] = 2 reads 3
    _edit_entries(monkeypatch, "nsym_K", 3, (1, 3, 1))


def sym_Kinv_entry_raised(monkeypatch):  # K⁻¹[(2,1),(1,1,1)] = -2 reads -1
    _edit_entries(monkeypatch, "sym_Kinv", 3, (1, 2, 1))


def nsym_Kinv_entry_raised(monkeypatch):  # NK⁻¹[(2,1),(1,2)] = -1 reads 0
    _edit_entries(monkeypatch, "nsym_Kinv", 3, (1, 2, 1))


def two_sym_Kinv_entries_raised(monkeypatch):
    # K⁻¹[(4),(1,1,1,1)] = -1 reads 0 and K⁻¹[(3,1),(2,2)] = -1 reads 0: K⁻¹·K is
    # wrong at (0,4) and at (1,2), (1,3), (1,4), so its row-major and
    # column-major firsts differ
    _edit_entries(monkeypatch, "sym_Kinv", 4, (0, 4, 1), (1, 2, 1))


def read_column_major(monkeypatch):  # with two_sym_Kinv_entries_raised, names (1,2), not (0,4)
    two_sym_Kinv_entries_raised(monkeypatch)
    monkeypatch.setattr(mx, "first_non_identity", lambda a: next(
        ((a.labels[i], a.labels[j], a.entries[i][j]) for j in range(a.size)
         for i in range(a.size) if a.entries[i][j] != (i == j)), None))


def strip_rule_broken(monkeypatch):
    # from state (2,2), two copies of a value may stack in one column: (3,3)
    # grows row 2 past the old row 1, so K[(3,3),(2,2,2)] = 1 reads 2
    real = mx._pieri

    def pieri(state, c, strip):
        shapes = real(state, c, strip)
        return shapes + ((3, 3),) if strip and state == (2, 2) and c == 2 else shapes

    monkeypatch.setattr(mx, "_pieri", pieri)


def peel_sign_flipped(monkeypatch):
    # column (1,1,1) peels row 1's hook at offset 1 with sign +1, not -1: only
    # that branch's contents start with weight 1 + 1, so NK⁻¹[(2,1),(1,1,1)] = -1 reads 1
    real = mx._peel

    def peel(rows, free, memo):
        out = real(rows, free, memo)
        if (rows, free) != ((1, 1, 1), (0, 1, 2)):
            return out
        return {content: -count if content[0] == rows[0] + free[1] else count
                for content, count in out.items()}

    monkeypatch.setattr(mx, "_peel", peel)


ROWS = [
    Fault("K K^-1 = I: the SSYT counts of K", "kkinv", 4, sym_K_entry_raised,
          {"degree": 3, "row": [2, 1], "col": [1, 1, 1], "value": 1}),
    Fault("K^-1 K = I: the SSYT counts of K", "kinvk", 4, sym_K_entry_raised,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": -1}),
    Fault("K K^-1 = I: every term of the product", "kkinv", 4, mat_mul_drops_a_term,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": 2}),
    Fault("NK NK^-1 = I: the diagonal of the identity is 1", "nk-nkinv", 4, diagonal_skipped,
          {"degree": 1, "row": [1], "col": [1], "value": 1}),
    Fault("NK NK^-1 = I: the immaculate counts of NK", "nk-nkinv", 4, nsym_K_entry_raised,
          {"degree": 3, "row": [2, 1], "col": [1, 1, 1], "value": 1}),
    Fault("NK^-1 NK = I: the immaculate counts of NK", "nkinv-nk", 4, nsym_K_entry_raised,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": -1}),
    Fault("K K^-1 = I: the signed rim hook counts of K^-1", "kkinv", 4, sym_Kinv_entry_raised,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": 1}),
    Fault("K^-1 K = I: the signed rim hook counts of K^-1", "kinvk", 4, sym_Kinv_entry_raised,
          {"degree": 3, "row": [2, 1], "col": [1, 1, 1], "value": 1}),
    Fault("NK NK^-1 = I: the signed covering counts of NK^-1", "nk-nkinv", 4,
          nsym_Kinv_entry_raised, {"degree": 3, "row": [3], "col": [1, 2], "value": 1}),
    Fault("NK^-1 NK = I: the signed covering counts of NK^-1", "nkinv-nk", 4,
          nsym_Kinv_entry_raised, {"degree": 3, "row": [2, 1], "col": [1, 2], "value": 1}),
    Fault("K^-1 K = I: the first entry off the identity, row-major", "kinvk", 4,
          two_sym_Kinv_entries_raised, {"degree": 4, "row": [4], "col": [1, 1, 1, 1], "value": 1}),
    Fault("K^-1 K = I: the first entry off the identity, row-major", "kinvk", 4,
          read_column_major, {"degree": 4, "row": [3, 1], "col": [2, 2], "value": 1}),
    Fault("K K^-1 = I: K's Pieri walk adds horizontal strips", "kkinv", 6, strip_rule_broken,
          {"degree": 6, "row": [3, 3], "col": [2, 2, 2], "value": 1}),
    Fault("NK NK^-1 = I: NK^-1's peel signs (-1)^offset", "nk-nkinv", 4, peel_sign_flipped,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": 2}),
]


def _verify(capsys, row):
    code = cli.main(["verify", "--identity", row.identity, "--n", str(row.n)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.identity}-{row.inject.__name__}")
def test_the_route_reports_the_fault(row, monkeypatch, capsys):
    assert _verify(capsys, row) == (0, f"PASS {row.identity} n<={row.n}\n")
    row.inject(monkeypatch)
    record = {**row.record, "identity": row.identity}
    assert _verify(capsys, row) == (1, json.dumps(record, sort_keys=True) + "\n")
