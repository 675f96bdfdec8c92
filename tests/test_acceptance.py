"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion.  Setting KOSTKA_RELEASE=1 raises the involution-suite bound from
degree 6 to degree 10 for chi and rho and to degree 8 for phi and psi, the
NSym identity bound from degree 8 to degree 11 and the Sym identity bound
from degree 10 to degree 16.
"""

import itertools
import os
from collections import Counter
from pathlib import Path

from kostka import core, involutions as inv, matrices as mx
from kostka import rimhooks as rh, serialize as sz, tableaux, tunnelhooks as th
from kostka.render import render_trace
from oracles import sym_Kinv_by_terms

DATA = Path(__file__).parent / "data"
RELEASE = os.environ.get("KOSTKA_RELEASE") == "1"
INVOLUTION_BOUNDS = (
    {"phi": 8, "chi": 10, "psi": 8, "rho": 10} if RELEASE
    else {"phi": 6, "chi": 6, "psi": 6, "rho": 6}
)
NSYM_IDENTITY_BOUND = 11 if RELEASE else 8
SYM_IDENTITY_BOUND = 16 if RELEASE else 10


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] PASS {message}")


def test_criterion_1_nsym_identities():
    for n in range(1, NSYM_IDENTITY_BOUND + 1):
        k = mx.nsym_K(n)
        kinv = mx.nsym_Kinv(n)
        assert mx.is_identity(mx.mat_mul(k, kinv)), f"NK NKinv != I at degree {n}"
        assert mx.is_identity(mx.mat_mul(kinv, k)), f"NKinv NK != I at degree {n}"
    _report(
        1,
        "NSym K and K-inverse multiply to the identity, both orders, "
        f"n <= {NSYM_IDENTITY_BOUND}",
    )


def test_criterion_2_sym_identities():
    for n in range(1, SYM_IDENTITY_BOUND + 1):
        k = mx.sym_K(n)
        kinv = mx.sym_Kinv(n)
        assert mx.is_identity(mx.mat_mul(k, kinv)), f"K Kinv != I at degree {n}"
        assert mx.is_identity(mx.mat_mul(kinv, k)), f"Kinv K != I at degree {n}"
    _report(
        2, f"Sym K and K-inverse multiply to the identity, both orders, n <= {SYM_IDENTITY_BOUND}"
    )


def test_criterion_3_involution_suites():
    for map_name, bound in INVOLUTION_BOUNDS.items():
        report = inv.verify_involution(map_name, bound)
        assert report.ok, report.violations
        assert report.pairs_checked > 0
    bounds = ", ".join(f"{name} n <= {bound}" for name, bound in INVOLUTION_BOUNDS.items())
    _report(
        3,
        f"phi/chi/psi/rho are sign-reversing involutions with diagonal fixed "
        f"points and delta signed sums, {bounds}",
    )


def test_criterion_4_theta_suite():
    checked = 0
    for n in range(1, 6):
        parts = core.partitions_of(n)
        for lam, mu in itertools.product(parts, repeat=2):
            if lam == mu:
                continue
            in_d = {
                (p.thc, p.tableau) for p in inv.enumerate_pairs("D", lam, mu)
            }
            for pair in inv.enumerate_pairs("E", lam, mu):
                if (pair.thc, pair.tableau) in in_d:
                    continue
                assert not tableaux.is_ssyt(pair.tableau)
                t, _ = inv.theta_selection(pair.tableau)
                image = inv.theta(pair)
                checked += 1
                assert not tableaux.is_ssyt(image.tableau)
                assert inv.theta(image) == pair
                assert image.thc.sign() == -pair.thc.sign()
                before, after = pair.thc.delta(), image.thc.delta()
                assert after[t - 2] == before[t - 1]
                assert after[t - 1] == before[t - 2]
                assert after[: t - 2] == before[: t - 2]
                assert after[t:] == before[t:]
    assert checked > 0
    _report(4, f"theta flips sign and swaps the touched weights on {checked} pairs, n <= 5")


def test_criterion_5a_perm_thc_roundtrip():
    count = 0
    for n in range(1, 8):
        for shape in core.compositions_of(n):
            if len(shape) > 6:
                continue
            for perm in core.permutations_of(len(shape)):
                covering = th.thc_from_perm(shape, perm)
                assert th.perm_of_thc(covering) == perm
                assert covering.sign() == core.perm_sign(perm)
                count += 1
    _report(5, f"(a) perm <-> covering round-trips with signs on {count} coverings")


def test_criterion_5b_perm_srt_injective_with_image():
    for n in range(1, 9):
        for lam in core.partitions_of(n):
            ell = len(lam)
            seen = set()
            for tableau in rh.enumerate_srht(lam):
                sigma = rh.perm_srt(tableau)
                assert sigma not in seen
                seen.add(sigma)
            expected = {
                sigma
                for sigma in core.permutations_of(ell)
                if all(lam[i] - (i + 1) + sigma[i] >= 0 for i in range(ell))
            }
            assert seen == expected
    _report(5, "(b) tableau permutations are injective with the stated image, n <= 8")


def test_criterion_5c_weight_preserving_bijection():
    for n in range(1, 9):
        for lam in core.partitions_of(n):
            images = set()
            for tableau in rh.enumerate_srht(lam):
                covering = rh.srht_to_thc(tableau)
                delta = covering.delta()
                assert all(d >= 0 for d in delta)
                assert rh.gamma(tableau) == delta
                images.add(covering.perm)
            assert images == {perm for perm, _ in th.delta_choices(lam)}
    _report(5, "(c) rim hook tableaux biject onto nonnegative coverings, weights equal, n <= 8")


def test_criterion_5d_lehmer_heights():
    for n in range(1, 7):
        for shape in core.compositions_of(n):
            for perm in core.permutations_of(len(shape)):
                covering = th.thc_from_perm(shape, perm)
                code = core.lehmer_code(perm)
                for i, hook in enumerate(covering.hooks()):
                    assert code[i] == hook.end_row - hook.start_row
    _report(5, "(d) Lehmer code entries equal hook drops, exhaustive n <= 6")


def test_criterion_5e_cycle_and_incremental_formulas():
    for n in range(1, 9):
        for lam in core.partitions_of(n):
            for tableau in rh.enumerate_srht(lam):
                cycles = rh.perm_cycles_srt(tableau)
                assert core.cycles_to_perm(cycles, len(lam)) == rh.perm_srt(tableau)
    for n in range(1, 8):
        for shape in core.compositions_of(n):
            ell = len(shape)
            for perm in core.permutations_of(ell):
                covering = th.thc_from_perm(shape, perm)
                assert core.cycles_to_perm(th.perm_cycles_thc(covering), ell) == perm
                assert th.perm_incremental(covering, ell) == perm
    _report(5, "(e) cycle and row-by-row permutation formulas agree with direct computation")


def test_criterion_6_cross_oracles():
    for n in range(1, 9):
        a = mx.sym_Kinv(n)
        b = mx.sym_Kinv_from_rim_hooks(n)
        c = mx.exact_inverse_matrix(mx.sym_K(n))
        d = sym_Kinv_by_terms(n)
        assert a.entries == b.entries == c.entries == d.entries, f"inverse routes disagree at {n}"
        for lam in core.partitions_of(n):
            det_terms = Counter(mx.jacobi_trudi_terms(lam))
            hook_terms = Counter(
                (rh.srht_sign(t), core.dec(core.flatten(rh.gamma(t))))
                for t in rh.enumerate_srht(lam)
            )
            assert det_terms == hook_terms, f"determinant terms disagree at {lam}"
    _report(
        6,
        "rim hook peel = covering sums = rim hook sums = fraction-free inverse; "
        "determinant term multisets match, n <= 8",
    )


def _frozen(name: str) -> str:
    return (DATA / name).read_text()


def _canonical(value) -> str:
    return sz.dumps(value) + "\n"


def test_criterion_7_worked_example_regressions():
    wide = th.thc_from_perm((8, 7, 7, 4), (1, 3, 4, 2))
    assert th.perm_of_thc(wide) == (1, 3, 4, 2)
    assert _canonical(wide) == _frozen("covering_8774.json")

    phi_pair = sz.loads(_frozen("phi_pair.json").strip())
    image = inv.phi(phi_pair)
    assert image.thc.perm == (1, 2, 5, 3, 6, 4)
    assert image.tableau[2] == (3, 3, 3, 3, 3, 3, 4)
    assert _canonical(image) == _frozen("phi_output.json")

    chi_pair = sz.loads(_frozen("chi_pair.json").strip())
    image = inv.chi(chi_pair)
    assert image.thc.perm == (1, 2, 5, 4, 3, 6)
    assert image.tableau[2] == (4, 4, 5, 5, 5)
    assert _canonical(image) == _frozen("chi_output.json")

    move_pair = sz.loads(_frozen("psi_move_pair.json").strip())
    image = inv.psi(move_pair)
    assert image.thc.shape == (4, 4, 3) and image.thc.perm == (3, 1, 2)
    assert _canonical(image) == _frozen("psi_move_output.json")

    grow_pair = sz.loads(_frozen("psi_grow_pair.json").strip())
    image = inv.psi(grow_pair)
    assert image.tableau[3] == (6,)
    assert image.thc.perm == (2, 1, 4, 3, 5, 6)
    assert _canonical(image) == _frozen("psi_grow_output.json")

    small = inv.Pair(
        "D", th.thc_from_perm((2, 2, 1), (1, 3, 2)), ((1, 2), (3, 4), (5,))
    )
    _, trace = inv.rho(small)
    states = [(p.thc.shape, p.thc.perm) for p in trace.pairs]
    assert states == [
        ((2, 2, 1), (1, 3, 2)),
        ((2, 3), (1, 2)),
        ((2, 3), (2, 1)),
        ((3, 2), (1, 2)),
    ]
    assert _canonical(trace) == _frozen("walk_short_trace.json")

    story = inv.Pair(
        "D", th.thc_from_perm((4, 2, 2), (2, 1, 3)), ((1, 1, 4, 4), (2, 2), (3, 3))
    )
    _, story_trace = inv.rho(story)
    assert len(story_trace.pairs) == 10
    assert _canonical(story_trace) == _frozen("walk_long_trace.json")
    assert render_trace(story_trace) + "\n" == _frozen("walk_long_trace.txt")

    divergence = sz.loads(_frozen("divergence_input.json").strip())
    result, _ = inv.rho(divergence)
    assert result.tableau == ((1, 1, 1, 3), (2, 2))
    assert _canonical(result) == _frozen("divergence_output.json")
    recorded = sz.loads(_frozen("divergence_alt_output.json").strip())
    assert recorded.tableau == ((1, 1, 1, 2), (2, 3))
    assert result.thc == recorded.thc
    assert result.tableau != recorded.tableau

    big_perm = (1, 6, 4, 3, 9, 2, 5, 8, 7)
    big = sz.loads(_frozen("big_srht.json").strip())
    assert rh.perm_srt(big) == big_perm
    big_covering = sz.loads(_frozen("big_thc.json").strip())
    assert big_covering.perm == big_perm
    assert rh.srht_to_thc(big) == big_covering

    sketch = th.thc_from_perm((2, 3, 2, 1), (2, 4, 1, 3))
    route_direct = th.perm_of_thc(sketch)
    route_cycles = core.cycles_to_perm(th.perm_cycles_thc(sketch), 4)
    route_rows = th.perm_incremental(sketch, 4)
    assert route_direct == route_cycles == route_rows == (2, 4, 1, 3)

    _report(7, "all figure and worked-example regressions replay byte-exactly")


def test_criterion_8_structural_properties():
    # unitriangularity and lex/dominance vanishing
    for n in range(1, 7):
        for mat in (mx.nsym_K(n), mx.nsym_Kinv(n)):
            for i, alpha in enumerate(mat.labels):
                assert mat.entries[i][i] == 1
                for j, beta in enumerate(mat.labels):
                    if mat.entries[i][j] != 0:
                        assert core.lex_geq(alpha, beta)
        for alpha, beta in itertools.product(core.compositions_of(n), repeat=2):
            if th.enumerate_thc(alpha, beta):
                assert core.dominates(alpha, beta)
            if tableaux.enumerate_immaculate(alpha, beta):
                assert core.lex_geq(alpha, beta)

    # one initial cell per diagonal
    for n in range(1, 9):
        for lam in core.partitions_of(n):
            for tableau in rh.enumerate_srht(lam):
                diagonals = [r - c + 1 for (r, c) in tableau.initial_cells()]
                assert len(set(diagonals)) == len(diagonals)

    # tilings that are simultaneously coverings are fixed by the bijection
    for n in range(1, 8):
        for lam in core.partitions_of(n):
            for tableau in rh.enumerate_srht(lam):
                if rh.is_srht_and_thc(tableau):
                    covering = rh.srht_to_thc(tableau)
                    assert covering.perm == rh.perm_srt(tableau)
                    assert rh.thc_to_srht(covering) == tableau

    # the alternating walk conserves both contents at every step
    for n in range(1, 7):
        parts = core.partitions_of(n)
        for lam, mu in itertools.product(parts, repeat=2):
            for pair in inv.enumerate_pairs("D", lam, mu):
                _, trace = inv.rho(pair)
                assert len(set(trace.pairs)) == len(trace.pairs)
                for step in trace.pairs:
                    assert core.dec(step.thc.content()) == lam
                    m = max(max(row) for row in step.tableau)
                    vec = tableaux.content_vector(step.tableau, m)
                    assert core.flatten(vec) == mu
                if lam != mu:
                    assert len(trace.maps) % 2 == 1
    _report(8, "structural properties hold: triangularity, vanishing, diagonals, fixed tilings, conserved contents")
