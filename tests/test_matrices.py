import functools
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from kostka import core, matrices as mx, tableaux
from oracles import fraction_inverse, mat_mul_dense, nsym_Kinv_by_coverings, sym_Kinv_by_terms


def test_nsym_k_degree_two():
    k = mx.nsym_K(2)
    assert k.labels == ((2,), (1, 1))
    assert k.entries == ((1, 1), (0, 1))


def test_nsym_kinv_degree_two():
    kinv = mx.nsym_Kinv(2)
    assert kinv.entries == ((1, -1), (0, 1))


def test_sym_pair_degree_two():
    assert mx.sym_K(2).entries == ((1, 1), (0, 1))
    assert mx.sym_Kinv(2).entries == ((1, -1), (0, 1))


@pytest.mark.parametrize("n", range(1, 9))
def test_nsym_k_rows_count_immaculate_tableaux(n):
    k = mx.nsym_K(n)
    assert k.labels == tuple(core.compositions_of(n))
    for alpha, row in zip(k.labels, k.entries):
        expected = tuple(len(tableaux.enumerate_immaculate(alpha, beta)) for beta in k.labels)
        assert row == expected, alpha


@pytest.mark.parametrize("n", range(1, 11))
def test_sym_k_counts_ssyt(n):
    labels = core.partitions_of(n)
    expected = tuple(
        tuple(len(tableaux.enumerate_ssyt(lam, mu)) for mu in labels) for lam in labels
    )
    assert mx.sym_K(n).entries == expected


# one matrix per degree serves every example drawn from it
_nsym_K = functools.cache(mx.nsym_K)
_sym_K = functools.cache(mx.sym_K)


@seed(20251018)
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_kostka_counts_at_degrees_9_and_10(data):
    n = data.draw(st.sampled_from([9, 10]))
    compositions = core.compositions_of(n)
    alpha, beta = data.draw(st.tuples(st.sampled_from(compositions), st.sampled_from(compositions)))
    count = _nsym_K(n).entry(alpha, beta)
    assert count == len(tableaux.enumerate_immaculate(alpha, beta))
    partitions = core.partitions_of(n)
    lam, mu = data.draw(st.tuples(st.sampled_from(partitions), st.sampled_from(partitions)))
    assert _sym_K(n).entry(lam, mu) == len(tableaux.enumerate_ssyt(lam, mu))


# sha256 of repr(entries), computed before the Pieri walk kept its images;
# the enumerators cannot reach these degrees, so the digests pin the counts
@pytest.mark.parametrize("build, n, digest", [
    (mx.nsym_K, 10, "a4b434750188087f89b9a864c3917f593afe127429b1ee844d459226007c7b3d"),
    (mx.sym_K, 16, "fdd3280fee55258c257fc4131ac477c39f1968d7360f0c89f89af51a50dd309c"),
    (mx.sym_K, 18, "2488e6812f14619d9175b4fd4fb6e9eec8f5d42ea06dd4a932b663d3888f4416"),
    (mx.nsym_Kinv, 10, "9088cfdefefe2a8345aed2770aa1b76b37bafa4361b444f57f3d4b3139db3d22"),
    (mx.nsym_Kinv, 11, "0f10723b783c9b43b1caf5fd41900173ba149758cab7e2a7b74f98f80df61bd0"),
])
def test_kostka_digests_past_the_enumerators(build, n, digest):
    assert hashlib.sha256(repr(build(n).entries).encode()).hexdigest() == digest


@pytest.mark.parametrize("build, n, labels, strip", [
    (mx.nsym_K, 6, core.compositions_of, False),
    (mx.sym_K, 8, core.partitions_of, True),
])
def test_pieri_expands_each_state_once_per_call(monkeypatch, build, n, labels, strip):
    pieri = mx._pieri
    met = set()  # every (state, c) that a walk without the images expands
    for content in labels(n):
        states = {()}
        for c in content:
            met.update((state, c) for state in states)
            states = {shape for state in states for shape in pieri(state, c, strip)}
    calls = Counter()

    def counting(state, c, strip):
        calls[state, c] += 1
        return pieri(state, c, strip)

    monkeypatch.setattr(mx, "_pieri", counting)
    first = build(n)
    assert calls == Counter(met)
    # nothing outlives the call: a second one expands every state again
    calls.clear()
    assert build(n) == first
    assert calls == Counter(met)


class _Forgetful(dict):
    """A memo that keeps only what it starts with."""

    def __setitem__(self, key, value):
        pass


def test_nsym_kinv_peel_expands_each_minor_once_per_call(monkeypatch):
    peel = mx._peel
    calls = Counter()

    def counting(rows, free, memo):
        calls[rows, free] += 1
        return peel(rows, free, memo)

    monkeypatch.setattr(mx, "_peel", counting)
    # every (rows, free) that a walk without the memo expands, with repeats
    for beta in core.compositions_of(7):
        mx._peel(beta, tuple(range(len(beta))), _Forgetful({((), ()): {(): 1}}))
    met = Counter(calls.keys())
    assert calls.total() > 2 * len(met)  # minors recur, within and across columns
    calls.clear()
    first = mx.nsym_Kinv(7)
    assert calls == met
    # nothing outlives the call: a second one expands every minor again
    calls.clear()
    assert mx.nsym_Kinv(7) == first
    assert calls == met


def test_sym_k_fixtures():
    k = mx.sym_K(3)
    assert k.entry((2, 1), (1, 1, 1)) == 2
    assert k.entry((2, 1), (2, 1)) == 1
    assert mx.sym_K(2).entry((1, 1), (2,)) == 0


@pytest.mark.parametrize("n", range(1, 7))
def test_nsym_unitriangular(n):
    k = mx.nsym_K(n)
    kinv = mx.nsym_Kinv(n)
    for mat in (k, kinv):
        for i, alpha in enumerate(mat.labels):
            assert mat.entries[i][i] == 1
            for j, beta in enumerate(mat.labels):
                if mat.entries[i][j] != 0:
                    assert core.lex_geq(alpha, beta)


@pytest.mark.parametrize("n", range(1, 6))
def test_nsym_identities_small(n):
    k = mx.nsym_K(n)
    kinv = mx.nsym_Kinv(n)
    assert mx.is_identity(mx.mat_mul(k, kinv))
    assert mx.is_identity(mx.mat_mul(kinv, k))


@pytest.mark.parametrize("n", range(1, 8))
def test_sym_identities_small(n):
    k = mx.sym_K(n)
    kinv = mx.sym_Kinv(n)
    assert mx.is_identity(mx.mat_mul(k, kinv))
    assert mx.is_identity(mx.mat_mul(kinv, k))


@pytest.mark.parametrize("n", range(1, 8))
def test_sym_kinv_four_routes_agree(n):
    from_peel = mx.sym_Kinv(n)
    from_coverings = sym_Kinv_by_terms(n)
    from_rim_hooks = mx.sym_Kinv_from_rim_hooks(n)
    from_elimination = mx.exact_inverse_matrix(mx.sym_K(n))
    assert from_peel == from_coverings
    assert from_peel.entries == from_rim_hooks.entries
    assert from_peel.entries == from_elimination.entries


@pytest.mark.parametrize("n", range(1, 9))
def test_nsym_kinv_peel_matches_coverings(n):
    from_peel = mx.nsym_Kinv(n)
    assert from_peel == nsym_Kinv_by_coverings(n)
    if n <= 6:
        assert from_peel == mx.exact_inverse_matrix(mx.nsym_K(n))


@pytest.mark.parametrize("n", range(8, 11))
def test_sym_kinv_peel_matches_covering_terms(n):
    assert mx.sym_Kinv(n) == sym_Kinv_by_terms(n)


def test_sym_identities_frontier():
    for m in range(11, 15):
        k, kinv = mx.sym_K(m), mx.sym_Kinv(m)
        assert mx.is_identity(mx.mat_mul(k, kinv)), m
        assert mx.is_identity(mx.mat_mul(kinv, k)), m


def test_nsym_identities_frontier():
    k, kinv = mx.nsym_K(9), mx.nsym_Kinv(9)
    assert mx.is_identity(mx.mat_mul(k, kinv))
    assert mx.is_identity(mx.mat_mul(kinv, k))


def _random_matrix(rng, size, kind="compositions"):
    """Small signed entries, mostly zero, with one zero row and one zero
    column forced in when there is room."""
    entries = [
        [rng.choice((0, 0, 0, rng.randint(-5, 5))) for _ in range(size)] for _ in range(size)
    ]
    if size > 1:
        entries[rng.randrange(size)] = [0] * size
        zero_col = rng.randrange(size)
        for row in entries:
            row[zero_col] = 0
    labels = tuple((i + 1,) for i in range(size))
    return mx.TransitionMatrix(0, kind, labels, tuple(map(tuple, entries)))


def test_mat_mul_matches_dense_oracle_on_random_matrices():
    rng = random.Random(20251018)
    for size in range(1, 13):
        for _ in range(5):
            a, b = _random_matrix(rng, size), _random_matrix(rng, size)
            assert mx.mat_mul(a, b) == mat_mul_dense(a, b), size
            assert mx.mat_mul(b, a) == mat_mul_dense(b, a), size
    a = _random_matrix(rng, 3)
    with pytest.raises(ValueError):
        mx.mat_mul(a, _random_matrix(rng, 3, kind="partitions"))
    with pytest.raises(ValueError):
        mx.mat_mul(a, mx.TransitionMatrix(1, a.index_kind, a.labels, a.entries))


def test_mat_mul_matches_dense_oracle_on_kostka_matrices():
    pairs = [(mx.nsym_K(n), mx.nsym_Kinv(n)) for n in range(1, 8)]
    pairs += [(mx.sym_K(n), mx.sym_Kinv(n)) for n in range(1, 11)]
    for k, kinv in pairs:
        assert mx.mat_mul(k, kinv) == mat_mul_dense(k, kinv), k.degree
        assert mx.mat_mul(kinv, k) == mat_mul_dense(kinv, k), k.degree


def test_mat_mul_identity_neutral():
    a = mx.nsym_K(3)
    size = len(a.labels)
    entries = tuple(tuple(int(i == j) for j in range(size)) for i in range(size))
    ident = mx.TransitionMatrix(3, "compositions", a.labels, entries)
    assert mx.mat_mul(ident, a).entries == a.entries
    assert mx.mat_mul(a, ident).entries == a.entries
    with pytest.raises(ValueError):
        mx.mat_mul(a, mx.sym_K(3))


def test_exact_inverse_against_fraction_oracle():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(1, 6)
        # unimodular product of a unit lower and a unit upper triangular matrix
        lower = [[0] * n for _ in range(n)]
        upper = [[0] * n for _ in range(n)]
        for i in range(n):
            lower[i][i] = upper[i][i] = 1
            for j in range(i):
                lower[i][j] = rng.randint(-3, 3)
                upper[j][i] = rng.randint(-3, 3)
        a = [
            [sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        ours = mx.exact_integer_inverse(a)
        assert tuple(tuple(int(x) for x in row) for row in fraction_inverse(a)) == ours


def test_exact_inverse_rejects_singular():
    with pytest.raises(ValueError):
        mx.exact_integer_inverse([[1, 2], [2, 4]])


@pytest.mark.parametrize(
    "a",
    [
        [[0, 1], [1, 0]],
        [[0, 2, 1], [1, 1, 0], [1, 0, 0]],  # determinant -1
    ],
)
def test_exact_inverse_swaps_rows_past_a_zero_pivot(a):
    ours = mx.exact_integer_inverse(a)
    assert tuple(tuple(int(x) for x in row) for row in fraction_inverse(a)) == ours


def test_exact_inverse_rejects_a_fractional_inverse():
    with pytest.raises(ValueError, match="inverse is not an integer matrix"):
        mx.exact_integer_inverse([[2]])


def test_jacobi_trudi_fixtures():
    terms = mx.jacobi_trudi_terms((3, 2, 1))
    assert terms.count((1, (5, 1))) == 1
    assert sorted(terms) == sorted(
        [(1, (3, 2, 1)), (-1, (4, 1, 1)), (-1, (3, 3)), (1, (5, 1))]
    )
    for n in range(1, 6):
        assert mx.jacobi_trudi_terms((n,)) == [(1, (n,))]


@pytest.mark.parametrize("n", range(1, 7))
def test_jacobi_trudi_matches_rim_hook_terms(n):
    from kostka import rimhooks as rh

    for lam in core.partitions_of(n):
        determinant_terms = Counter(mx.jacobi_trudi_terms(lam))
        tableau_terms = Counter(
            (rh.srht_sign(t), core.dec(core.flatten(rh.gamma(t))))
            for t in rh.enumerate_srht(lam)
        )
        assert determinant_terms == tableau_terms
