"""The fault table of the involution certificate, ``involutions.verify_cell``.

Each row names a claim of the paper, the map and cell that certify it, and a
fault that breaks the claim, injected with ``monkeypatch``: the cell (for the
walk row, the walk from its pair) passes without it and reports the row's
violation with it.  Deleting any one check of the certificate fails a row.
``phi`` on A proves NK·NK⁻¹ = I, ``chi`` on B K·K⁻¹ = I, ``psi`` on C
NK⁻¹·NK = I, and ``rho``, the Garsia–Milne walk through E, K⁻¹·K = I on D.
"""

import re
from typing import Callable, NamedTuple

import pytest
from oracles import verify_cell_per_pair

from kostka import involutions as inv
from kostka.tunnelhooks import TunnelHookCovering, thc_from_perm

SAME = "as verify_cell"  # the per-pair oracle reports what verify_cell does


class Fault(NamedTuple):
    claim: str  # what the paper proves that the fault breaks
    map_name: str
    cell: tuple  # an index pair, or the pair the walk row's rho starts from
    inject: Callable  # installs the fault; returns the pair the report must name, or None
    expected: str | tuple  # the violation less its pair, or (exception, pattern)
    oracle: str | None = None  # tests/oracles.verify_cell_per_pair's violation, or SAME
    counts: tuple | None = None  # the report's (pairs_checked, fixed_points)


ORBIT = ((2, 1), (1, 1, 1))  # its first C pair p and q = psi(p) form an orbit
WALKS = ((3, 2), (2, 2, 1))  # its first D pair walks under rho
A_ORBIT = ((2, 1), (1, 2))  # its two A pairs form one phi orbit
RHO_STORY = inv.Pair("D", thc_from_perm((4, 2, 2), (2, 1, 3)), ((1, 1, 4, 4), (2, 2), (3, 3)))


def _orbit(map_name, cell):
    pair = inv.enumerate_pairs(inv._family(map_name), *cell)[0]
    image = inv.rho(pair)[0] if map_name == "rho" else getattr(inv, map_name)(pair)
    assert image != pair
    return pair, image


def _map(monkeypatch, map_name, apply):
    monkeypatch.setitem(inv._MAPS, map_name, (inv._family(map_name), apply))


def _pairs(monkeypatch, change):
    """Every pair set becomes ``change`` of the enumerated one."""
    enumerate_pairs = inv.enumerate_pairs
    monkeypatch.setattr(inv, "enumerate_pairs", lambda *cell: change(enumerate_pairs(*cell)))


def _repeating(pair):
    """The pair with a covering whose permutation repeats its first value,
    built as the maps build their images, past the constructor's checks."""
    perm = pair.thc.perm
    bad = pair._replace(thc=TunnelHookCovering._of(pair.thc.shape, perm[:1] * 2 + perm[2:]))
    with pytest.raises(ValueError, match="not a permutation"):
        thc_from_perm(bad.thc.shape, bad.thc.perm)
    return bad


def _fillings(monkeypatch, fill, key, bad):
    """``bad`` first among the fillings ``fill`` (an enumerator's name) lists for ``key``."""
    enumerate_fillings = getattr(inv, fill)
    monkeypatch.setattr(inv, fill, lambda *cell: (
        (bad,) + enumerate_fillings(*cell)[1:] if cell == key else enumerate_fillings(*cell)))


def theta_is_psi(monkeypatch):  # the walk steps back to its input, enumerating nothing
    monkeypatch.setattr(inv, "theta", inv.psi)
    monkeypatch.setattr(inv, "enumerate_pairs", None)


def relabelled(monkeypatch):  # still an involution, but its images are E pairs
    _map(monkeypatch, "psi", lambda pair: inv.psi(pair)._replace(kind="E" if pair.kind == "C" else "C"))
    return inv.enumerate_pairs("C", (1, 2), (1, 1, 1))[0]


def fixes_all(monkeypatch):
    _map(monkeypatch, "psi", lambda pair: pair)
    return inv.enumerate_pairs("C", (2,), (1, 1))[0]


def empty(monkeypatch):
    _pairs(monkeypatch, lambda pairs: ())


def no_way_back(monkeypatch):
    p, q = _orbit("psi", ORBIT)
    _map(monkeypatch, "psi", lambda pair: q if pair == q else inv.psi(pair))
    return p


def back_walk_detours(monkeypatch):  # only the walk back from the partner q is wrong
    p, q = _orbit("rho", WALKS)
    stranger = inv.enumerate_pairs("D", (3, 2), (3, 1, 1))[0]
    rho = inv.rho
    _map(monkeypatch, "rho",
         lambda pair: (p, inv.Trace((q, stranger, p), ("psi", "theta"))) if pair == q else rho(pair))
    return q


def walks_detour(monkeypatch):  # the two walks agree, and no walk may be replayed
    p, q = _orbit("rho", WALKS)
    stranger = inv.enumerate_pairs("D", (3, 2), (3, 1, 1))[0]
    rho, other = inv.rho, {p: q, q: p}
    _map(monkeypatch, "rho", lambda pair: rho(pair) if pair not in other else (
        other[pair], inv.Trace((pair, stranger, stranger, other[pair]), ("psi", "theta", "psi"))))
    monkeypatch.setattr(inv, "validate_trace", None)
    return p


def image_no_covering(monkeypatch):
    p, q = _orbit("phi", ((2,), (1, 1)))
    bad = _repeating(q)
    phi = inv.phi
    _map(monkeypatch, "phi", lambda pair: {p: bad, bad: p}.get(pair) or phi(pair))
    return p


def walk_no_covering(monkeypatch):  # psi's first step goes wrong, then the walk rejoins its course
    p = inv.enumerate_pairs("D", (2, 2), (1, 1, 1, 1))[4]
    q, trace = inv.rho(p)
    assert len(trace.maps) == 3
    x, y = trace.pairs[1:3]
    bad_x = _repeating(x)
    bad_y = inv.theta(bad_x)
    psi = inv.psi
    monkeypatch.setattr(inv, "psi", lambda pair: bad_x if pair == p else psi(y if pair == bad_y else pair))
    assert inv.rho(p) == (q, inv.Trace((p, bad_x, bad_y, q), trace.maps))
    return p


def content_changes_midwalk(monkeypatch):  # psi leaves mu = (2, 2, 1) and comes back to it
    p = inv.enumerate_pairs("D", *WALKS)[1]
    q, trace = inv.rho(p)
    assert trace.maps == ("psi", "theta", "psi")
    # 3 read as 2 in the walk's two E pairs: content (2, 3), and theta still joins them
    x, y = (pair._replace(tableau=tuple(tuple(min(v, 2) for v in row) for row in pair.tableau))
            for pair in trace.pairs[1:3])
    assert inv.validate_pair(x) == inv.validate_pair(y) == ((3, 2), (2, 3)) and inv.theta(x) == y
    psi, other = inv.psi, {p: x, x: p, y: q, q: y}
    monkeypatch.setattr(inv, "psi", lambda pair: other.get(pair) or psi(pair))
    return p


def image_dropped(monkeypatch):  # every image still validates
    p, q = _orbit("psi", ORBIT)
    _pairs(monkeypatch, lambda pairs: tuple(pair for pair in pairs if pair != q))
    return p


def partners_of_one_sign(monkeypatch):  # an involution that keeps the set closed
    p, p2 = inv.enumerate_pairs("C", *ORBIT)[:2]
    assert p.thc.sign() == p2.thc.sign() == 1
    _map(monkeypatch, "psi", lambda pair: {p: p2, p2: p}.get(pair) or inv.psi(pair))
    return p


def negative_diagonal(monkeypatch):
    negative = inv.enumerate_pairs("C", *ORBIT)[2]
    assert negative.thc.sign() == -1
    _pairs(monkeypatch, lambda pairs: (negative,))
    _map(monkeypatch, "psi", lambda pair: pair)
    return negative


def diagonal_padded(monkeypatch):  # two psi orbits: every pair passes, the signs still sum to 1
    extra = inv.enumerate_pairs("C", *ORBIT)
    _pairs(monkeypatch, lambda pairs: pairs + extra)


def filling_of_other_content(monkeypatch):
    _fillings(monkeypatch, "enumerate_immaculate", ((2, 1), (1, 2)), ((1, 2), (3,)))


def filling_not_immaculate(monkeypatch):
    _fillings(monkeypatch, "enumerate_immaculate", ((3,), (2, 1)), ((2, 1, 1),))


def filling_not_column_strict(monkeypatch):  # immaculate, of the content B and D ask for
    _fillings(monkeypatch, "enumerate_ssyt", ((2, 2), (1, 1, 1, 1)), ((1, 4), (2, 3)))


def orbit_dropped(monkeypatch):
    orbit = _orbit("phi", A_ORBIT)
    _pairs(monkeypatch, lambda pairs: tuple(pair for pair in pairs if pair not in orbit))


def orbit_repeated(monkeypatch):
    orbit = _orbit("phi", A_ORBIT)
    _pairs(monkeypatch, lambda pairs: pairs + orbit)


ROWS = [
    Fault("rho, the Garsia-Milne walk, meets no pair twice", "rho", RHO_STORY,
          theta_is_psi, (RuntimeError, "met a pair twice")),
    Fault("psi maps C(alpha, beta) into itself", "psi", ((1, 2), (1, 1, 1)),
          relabelled, "image leaves C[(1, 2),(1, 1, 1)]"),
    Fault("psi fixes only diagonal pairs", "psi", ((2,), (1, 1)),
          fixes_all, "off-diagonal fixed point at (2,),(1, 1)"),
    Fault("NK^-1 NK = I: the signs of C(alpha, alpha) sum to 1", "psi", ((2,), (2,)),
          empty, "signed sum over C[(2,),(2,)] is 0, want 1"),
    Fault("psi is an involution", "psi", ORBIT,
          no_way_back, "psi is not an involution at (2, 1),(1, 1, 1)", SAME),
    Fault("rho is an involution: the walk back is the walk reversed", "rho", WALKS,
          back_walk_detours, "image leaves D[(3, 2),(2, 2, 1)]", SAME),
    Fault("rho's walk stays in E(lam, mu)", "rho", WALKS,
          walks_detour, "image leaves D[(3, 2),(2, 2, 1)]"),
    Fault("phi maps A(alpha, beta) into itself", "phi", ((2,), (1, 1)),
          image_no_covering, "image leaves A[(2,),(1, 1)]"),
    Fault("rho's walk stays in E(lam, mu)", "rho", ((2, 2), (1, 1, 1, 1)),
          walk_no_covering, "image leaves D[(2, 2),(1, 1, 1, 1)]"),
    Fault("rho's walk stays in E(lam, mu): psi and theta conserve both contents", "rho", WALKS,
          content_changes_midwalk, "image leaves D[(3, 2),(2, 2, 1)]", SAME),
    Fault("psi maps C(alpha, beta) onto itself", "psi", ORBIT,
          image_dropped, "image missing from the enumerated C[(2, 1),(1, 1, 1)]",
          "signed sum over C[(2, 1),(1, 1, 1)] is 1, want 0"),
    Fault("psi reverses the sign off its fixed points", "psi", ORBIT,
          partners_of_one_sign, "psi failed to reverse sign at (2, 1),(1, 1, 1)", SAME),
    Fault("a fixed point has sign +1", "psi", ((2, 1), (2, 1)),
          negative_diagonal, "fixed point of negative sign at (2, 1)"),
    Fault("C(alpha, alpha) is one pair", "psi", ((2, 1), (2, 1)),
          diagonal_padded, "diagonal set C[(2, 1),(2, 1)] has 5 pairs, want 1", counts=(5, 1)),
    Fault("every enumerated filling lies in its A cell", "phi", ((2, 1), (1, 2)),
          filling_of_other_content,
          (RuntimeError, re.escape("gave ((1, 2), (3,)), outside A[(2, 1),(1, 2)]"))),
    Fault("every enumerated filling lies in its A cell", "phi", ((3,), (1, 2)),
          filling_not_immaculate,
          (RuntimeError, re.escape("gave ((2, 1, 1),), outside A[(3,),(1, 2)]"))),
    Fault("every enumerated filling lies in its B cell", "chi", ((2, 2), (1, 1, 1, 1)),
          filling_not_column_strict,
          (RuntimeError, re.escape("gave ((1, 4), (2, 3)), outside B[(2, 2),(1, 1, 1, 1)]: "
                                   "tableau must be column-strict"))),
    Fault("every enumerated filling lies in its D cell", "rho", ((2, 2), (1, 1, 1, 1)),
          filling_not_column_strict,
          (RuntimeError, re.escape("gave ((1, 4), (2, 3)), outside D[(2, 2),(1, 1, 1, 1)]: "
                                   "tableau must be column-strict"))),
    Fault("A(alpha, beta) holds every pair: the Pieri walk counts them", "phi", A_ORBIT,
          orbit_dropped, "A[(2, 1),(1, 2)] has 0 pairs, the Pieri walk counts 2", counts=(0, 0)),
    Fault("A(alpha, beta) holds each pair once: the Pieri walk counts them", "phi", A_ORBIT,
          orbit_repeated, "A[(2, 1),(1, 2)] has 4 pairs, the Pieri walk counts 2", counts=(4, 0)),
]


def _run(row):
    if isinstance(row.cell, inv.Pair):
        return inv.rho(row.cell)
    return inv.verify_cell(row.map_name, row.cell)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"{row.map_name}-{row.inject.__name__}")
def test_the_certificate_catches_the_fault(row, monkeypatch):
    inv._index.cache_clear()  # a fault's fillings must neither meet nor outlive another's
    try:
        clean = _run(row)
        assert clean.ok if isinstance(clean, inv.InvolutionReport) else clean[0].kind == "D"
        inv._index.cache_clear()
        named = row.inject(monkeypatch)
        if isinstance(row.expected, tuple):
            with pytest.raises(row.expected[0], match=row.expected[1]):
                _run(row)
            return
        said = [row.expected if named is None else f"{row.expected}: {named}"]
        report = _run(row)
        assert (report.violations, report.pair) == (said, named)
        if row.counts is not None:
            assert (report.pairs_checked, report.fixed_points) == row.counts
        if row.oracle is not None:
            oracle = verify_cell_per_pair(row.map_name, row.cell)
            want = (said, named) if row.oracle is SAME else ([row.oracle], None)
            assert (oracle.violations, oracle.pair) == want
    finally:
        inv._index.cache_clear()


def test_a_trace_whose_content_changes_midwalk_is_refused(monkeypatch):
    # under the fault the walk is rho's own, so comparing with rho's walk
    # passes it: only the check that every pair has one index pair refuses it
    p = content_changes_midwalk(monkeypatch)
    _, trace = inv.rho(p)
    assert len({inv.validate_pair(pair) for pair in trace.pairs}) == 2
    with pytest.raises(ValueError, match="^trace pairs have different indices$"):
        inv.validate_trace(trace)
