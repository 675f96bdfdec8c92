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


ROWS = [
    Fault("K K^-1 = I: the SSYT counts of K", "kkinv", 4, sym_K_entry_raised,
          {"degree": 3, "row": [2, 1], "col": [1, 1, 1], "value": 1}),
    Fault("K^-1 K = I: the SSYT counts of K", "kinvk", 4, sym_K_entry_raised,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": -1}),
    Fault("K K^-1 = I: every term of the product", "kkinv", 4, mat_mul_drops_a_term,
          {"degree": 3, "row": [3], "col": [1, 1, 1], "value": 2}),
    Fault("NK NK^-1 = I: the diagonal of the identity is 1", "nk-nkinv", 4, diagonal_skipped,
          {"degree": 1, "row": [1], "col": [1], "value": 1}),
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
