import functools
import itertools
import multiprocessing
import tracemalloc

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import pairs_by_scan, verify_cell_per_pair

from kostka import core, involutions as inv, matrices as mx, tableaux
from kostka.tunnelhooks import delta_choices, thc_from_perm

# -- the running examples ---------------------------------------------------

PHI_INPUT = inv.Pair(
    "A",
    thc_from_perm((4, 3, 4, 3, 1, 5), (1, 2, 4, 3, 6, 5)),
    (
        (1, 1, 1, 1),
        (2, 2, 2),
        (3, 3, 3, 3, 3, 4, 6),
        (4, 5, 5, 6, 6, 6),
    ),
)

CHI_INPUT = inv.Pair(
    "B",
    thc_from_perm((6, 5, 3, 2, 2, 2), (1, 2, 4, 5, 3, 6)),
    (
        (1, 1, 1, 1, 1, 1),
        (2, 2, 2, 2, 2),
        (4, 4, 4, 4, 5),
        (5, 5, 6, 6),
    ),
)

PSI_INPUT_MOVE = inv.Pair(  # rightmost cell of row 3 moves to row 2
    "C",
    thc_from_perm((4, 3, 4), (3, 2, 1)),
    ((1, 1, 2, 6), (2, 3, 5), (4, 4, 6, 6)),
)

PSI_INPUT_NEWROW = inv.Pair(  # a one-cell row opens below row 3
    "C",
    thc_from_perm((4, 3, 3, 2, 3), (2, 1, 3, 4, 5)),
    ((1, 1, 2, 2), (2, 3, 5), (4, 6, 6), (7, 7), (8, 8, 8)),
)

RHO_SMALL = inv.Pair(  # lam=(3,2), mu=(1,1,1,1,1)
    "D",
    thc_from_perm((2, 2, 1), (1, 3, 2)),
    ((1, 2), (3, 4), (5,)),
)

RHO_STORY = inv.Pair(  # lam=(5,2,1), mu=(2,2,2,2); nine alternating steps
    "D",
    thc_from_perm((4, 2, 2), (2, 1, 3)),
    ((1, 1, 4, 4), (2, 2), (3, 3)),
)

RHO_DIVERGENCE = inv.Pair(  # lam=(5,1), mu=(3,2,1)
    "D",
    thc_from_perm((3, 2, 1), (3, 1, 2)),
    ((1, 1, 1), (2, 2), (3,)),
)


def test_phi_worked_example():
    assert inv.phi_selection(PHI_INPUT) == (3, 6, 3)
    image = inv.phi(PHI_INPUT)
    assert image.thc == thc_from_perm((4, 3, 4, 3, 1, 5), (1, 2, 5, 3, 6, 4))
    assert image.tableau[2] == (3, 3, 3, 3, 3, 3, 4)
    assert image.tableau[0] == PHI_INPUT.tableau[0]
    assert image.tableau[3] == PHI_INPUT.tableau[3]
    assert inv.phi(image) == PHI_INPUT


def test_phi_weight_shift():
    # the replacement value gains one unit of weight, the replaced loses one
    m, q_m, p = inv.phi_selection(PHI_INPUT)
    before = PHI_INPUT.thc.delta()
    after = inv.phi(PHI_INPUT).thc.delta()
    assert after[p - 1] == before[p - 1] + 1
    assert after[q_m - 1] == before[q_m - 1] - 1
    for i in range(len(before)):
        if i not in (p - 1, q_m - 1):
            assert after[i] == before[i]


def test_chi_worked_example():
    assert inv.chi_selection(CHI_INPUT) == (3, 5)
    image = inv.chi(CHI_INPUT)
    assert image.thc == thc_from_perm((6, 5, 3, 2, 2, 2), (1, 2, 5, 4, 3, 6))
    assert image.tableau[2] == (4, 4, 5, 5, 5)
    assert image.tableau[3] == (5, 5, 6, 6)
    assert inv.chi(image) == CHI_INPUT


def test_psi_move_example():
    assert inv.psi_selection(PSI_INPUT_MOVE) == (3, 6, 3)
    image = inv.psi(PSI_INPUT_MOVE)
    assert image.tableau == ((1, 1, 2, 6), (2, 3, 5, 6), (4, 4, 6))
    assert image.thc == thc_from_perm((4, 4, 3), (3, 1, 2))
    assert inv.psi(image) == PSI_INPUT_MOVE


def test_psi_new_row_example():
    assert inv.psi_selection(PSI_INPUT_NEWROW) == (3, 6, 3)
    image = inv.psi(PSI_INPUT_NEWROW)
    assert image.tableau == (
        (1, 1, 2, 2),
        (2, 3, 5),
        (4, 6),
        (6,),
        (7, 7),
        (8, 8, 8),
    )
    assert image.thc == thc_from_perm((4, 3, 2, 1, 2, 3), (2, 1, 4, 3, 5, 6))
    assert inv.psi(image) == PSI_INPUT_NEWROW


def test_psi_row_deletion_step():
    image = inv.psi(RHO_SMALL)
    assert image.tableau == ((1, 2), (3, 4, 5))
    assert image.thc == thc_from_perm((2, 3), (1, 2))
    assert inv.psi(image) == RHO_SMALL


def test_psi_preserves_covering_content():
    for pair in (PSI_INPUT_MOVE, PSI_INPUT_NEWROW, RHO_SMALL):
        image = inv.psi(pair)
        assert image.thc.content() == pair.thc.content()
        m = max(max(r) for r in pair.tableau)
        assert tableaux.content_vector(
            image.tableau, m
        ) == tableaux.content_vector(pair.tableau, m)


BLOCK_SWAP_PAIR = inv.Pair(
    "E",
    thc_from_perm((9, 3, 5, 7, 4), (1, 2, 3, 4, 5)),
    (
        (1, 1, 1, 1, 2, 2, 3, 3, 4),
        (2, 2, 5),
        (3, 3, 5, 5, 5),
        (4, 4, 4, 6, 6, 7, 7),
        (8, 8, 9, 9),
    ),
)


def test_theta_block_swap_example():
    assert inv.theta_selection(BLOCK_SWAP_PAIR.tableau) == (4, 3)
    image = inv.theta(BLOCK_SWAP_PAIR)
    assert image.thc.shape == (9, 3, 6, 6, 4)
    assert image.tableau[2] == (3, 3, 6, 6, 7, 7)
    assert image.tableau[3] == (4, 4, 4, 5, 5, 5)
    assert image.thc.perm == (1, 2, 4, 3, 5)
    # the touched weights swap, everything else is fixed
    before = BLOCK_SWAP_PAIR.thc.delta()
    after = image.thc.delta()
    assert after[2] == before[3] and after[3] == before[2]
    assert inv.theta(image) == BLOCK_SWAP_PAIR


def test_theta_empty_blocks_case():
    pair = inv.Pair(
        "E", thc_from_perm((2, 3), (1, 2)), ((1, 2), (3, 4, 5))
    )
    assert inv.theta_selection(pair.tableau) == (2, 3)
    image = inv.theta(pair)
    assert image.tableau == pair.tableau
    assert image.thc == thc_from_perm((2, 3), (2, 1))
    assert inv.theta(image) == pair


def test_rho_small_trajectory():
    result, trace = inv.rho(RHO_SMALL)
    assert trace.maps == ("psi", "theta", "psi")
    states = [(p.thc.shape, p.thc.perm) for p in trace.pairs]
    assert states == [
        ((2, 2, 1), (1, 3, 2)),
        ((2, 3), (1, 2)),
        ((2, 3), (2, 1)),
        ((3, 2), (1, 2)),
    ]
    assert result.tableau == ((1, 2, 5), (3, 4))
    back, _ = inv.rho(result)
    assert back == RHO_SMALL


def test_rho_story_trace():
    result, trace = inv.rho(RHO_STORY)
    assert len(trace.pairs) == 10
    assert trace.maps == ("psi", "theta") * 4 + ("psi",)
    shapes = [p.thc.shape for p in trace.pairs]
    assert shapes == [
        (4, 2, 2),
        (3, 2, 3),
        (3, 2, 3),
        (3, 3, 2),
        (2, 4, 2),
        (2, 3, 2, 1),
        (2, 3, 2, 1),
        (2, 2, 3, 1),
        (2, 2, 3, 1),
        (2, 2, 2, 2),
    ]
    perms = [p.thc.perm for p in trace.pairs]
    assert perms == [
        (2, 1, 3),
        (3, 1, 2),
        (3, 2, 1),
        (3, 1, 2),
        (1, 3, 2),
        (1, 4, 2, 3),
        (4, 1, 2, 3),
        (4, 2, 1, 3),
        (4, 1, 2, 3),
        (4, 1, 3, 2),
    ]
    assert result.tableau == ((1, 1), (2, 2), (3, 3), (4, 4))
    assert result.thc.sign() == -RHO_STORY.thc.sign()
    back, back_trace = inv.rho(result)
    assert back == RHO_STORY
    assert back_trace.pairs == tuple(reversed(trace.pairs))


def test_rho_trace_conserves_contents():
    lam, mu = inv.pair_indices(RHO_STORY)
    _, trace = inv.rho(RHO_STORY)
    for pair in trace.pairs:
        assert core.dec(pair.thc.content()) == lam
        m = max(max(r) for r in pair.tableau)
        assert core.flatten(tableaux.content_vector(pair.tableau, m)) == mu
    assert len(trace.maps) % 2 == 1  # alternating walks have odd length


def test_rho_divergence_example():
    result, trace = inv.rho(RHO_DIVERGENCE)
    assert result.tableau == ((1, 1, 1, 3), (2, 2))
    assert result.thc == thc_from_perm((4, 2), (2, 1))
    assert trace.maps == ("psi",)
    # a previously recorded algorithm resolves the same input to the
    # column-strict filling ((1,1,1,2),(2,3)); the two walks genuinely differ
    assert result.tableau != ((1, 1, 1, 2), (2, 3))
    recorded_other = ((1, 1, 1, 2), (2, 3))
    assert tableaux.is_ssyt(recorded_other)
    assert tableaux.content_vector(recorded_other, 3) == (3, 2, 1)


@seed(20251018)
@settings(max_examples=100, deadline=None)
@given(st.data())
def test_rho_on_random_pairs_at_degrees_9_and_10(data):
    n = data.draw(st.sampled_from([9, 10]))
    partitions = core.partitions_of(n)
    shape = data.draw(st.sampled_from(partitions))
    content = data.draw(st.sampled_from([c for c in partitions if core.dominates(shape, c)]))
    rows = data.draw(st.sampled_from(tableaux.enumerate_ssyt(shape, content)))
    perm, _ = data.draw(st.sampled_from(delta_choices(shape)))
    pair = inv.Pair("D", thc_from_perm(shape, perm), rows)
    lam, mu = inv.pair_indices(pair)
    image, trace = inv.rho(pair)
    back, _ = inv.rho(image)
    assert back == pair
    if image == pair:
        assert lam == mu and pair.thc.sign() == 1
    else:
        assert lam != mu and image.thc.sign() == -pair.thc.sign()
    assert len(set(trace.pairs)) == len(trace.pairs)
    for step in trace.pairs:
        assert inv.pair_indices(step) == (lam, mu)


# one Kostka matrix per degree names the nonzero cells to draw from
_nsym_K = functools.cache(mx.nsym_K)
_sym_K = functools.cache(mx.sym_K)


def _draw_pair(data, map_name, n):
    """A random pair of the map's family at degree n, with no draw filtered:
    the covering first, then an index its matrix entry says is fillable,
    then a filling."""
    if map_name == "chi":
        mu = data.draw(st.sampled_from(core.partitions_of(n)))
        perm, delta = data.draw(st.sampled_from(delta_choices(mu)))
        inverse = core.perm_inverse(perm)
        content = tuple(delta[inverse[i] - 1] for i in range(len(mu)))
        k, mu_dec = _sym_K(n), core.dec(core.flatten(content))
        lam = data.draw(st.sampled_from([lam for lam in k.labels if k.entry(lam, mu_dec)]))
        rows = data.draw(st.sampled_from(tableaux.enumerate_ssyt(lam, content)))
        return inv.Pair("B", thc_from_perm(mu, perm), rows)
    shape = data.draw(st.sampled_from(core.compositions_of(n)))
    perm, delta = data.draw(st.sampled_from(delta_choices(shape)))
    k = _nsym_K(n)
    if map_name == "phi":
        beta = core.flatten(delta)
        alpha = data.draw(st.sampled_from([alpha for alpha in k.labels if k.entry(alpha, beta)]))
        rows = data.draw(st.sampled_from(tableaux.enumerate_immaculate(alpha, delta)))
        return inv.Pair("A", thc_from_perm(shape, perm), rows)
    beta = data.draw(st.sampled_from([beta for beta in k.labels if k.entry(shape, beta)]))
    rows = data.draw(st.sampled_from(tableaux.enumerate_immaculate(shape, beta)))
    return inv.Pair("C", thc_from_perm(shape, perm), rows)


@pytest.mark.parametrize("map_name", ["phi", "chi", "psi"])
@seed(20251018)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_maps_on_random_pairs_at_degrees_9_and_10(map_name, data):
    n = data.draw(st.sampled_from([9, 10]))
    pair = _draw_pair(data, map_name, n)
    apply = getattr(inv, map_name)
    left, right = inv.validate_pair(pair)
    image = apply(pair)
    assert apply(image) == pair
    if image == pair:
        assert left == right and pair.thc.sign() == 1
    else:
        assert left != right and image.thc.sign() == -pair.thc.sign()
    assert inv.validate_pair(image) == (left, right)


def test_rho_fixes_diagonal():
    pair = inv.Pair(
        "D", thc_from_perm((2, 1), (1, 2)), ((1, 1), (2,))
    )
    result, trace = inv.rho(pair)
    assert result == pair
    assert trace.maps == ()


def test_rho_refuses_a_content_that_is_no_partition():
    # D(lam, mu) with mu no partition has signed count 1 when lam = dec mu but
    # no diagonal pair, so the walk from one of its pairs met a pair twice (1,
    # 3, 9 and 21 pairs at degrees 3 to 6).  validate_pair accepts every such
    # pair; rho refuses each before its walk.
    refused = 0
    for n in range(1, 7):
        for lam in core.partitions_of(n):
            for mu in core.compositions_of(n):
                if core.is_partition(mu):
                    continue
                for pair in inv.enumerate_pairs("D", lam, mu):
                    assert inv.validate_pair(pair) == (lam, mu)
                    with pytest.raises(ValueError, match=r"^rho acts on D pairs whose content "
                                                         r"is a partition, got \("):
                        inv.rho(pair)
                    refused += 1
    assert refused == 3 + 25 + 187 + 1267


# -- validate_pair verdicts --------------------------------------------------

# one pair per check, each failing that check and passing every earlier one
INVALID_PAIRS = {
    "A not immaculate": (
        inv.Pair("A", thc_from_perm((2, 1), (1, 2)), ((2,), (1,))),
        "tableau rows are not an immaculate filling",
    ),
    "A negative weight": (  # delta = (2, 2, -1)
        inv.Pair("A", thc_from_perm((1, 1, 1), (2, 3, 1)), ((1,), (2,), (3,))),
        "covering weights must be nonnegative",
    ),
    "A content mismatch": (  # content (1, 2), weights (2, 1)
        inv.Pair("A", thc_from_perm((2, 1), (1, 2)), ((1, 2, 2),)),
        "tableau content differs from the covering weights",
    ),
    "B not column-strict": (
        inv.Pair("B", thc_from_perm((2, 2), (1, 2)), ((1, 2), (2, 2))),
        "tableau must be column-strict",
    ),
    "B shape not a partition": (
        inv.Pair("B", thc_from_perm((1, 2), (1, 2)), ((1, 1), (2,))),
        "covering shape must be a partition",
    ),
    "B reordered mismatch": (  # content (3, 1) = delta, but reordered (1, 3)
        inv.Pair("B", thc_from_perm((2, 2), (2, 1)), ((1, 1, 1), (2,))),
        "tableau content differs from the reordered weights",
    ),
    "C shapes differ": (
        inv.Pair("C", thc_from_perm((2, 1), (1, 2)), ((1, 1, 2),)),
        "tableau and covering shapes differ",
    ),
    "D not column-strict": (
        inv.Pair("D", thc_from_perm((2, 2), (1, 2)), ((1, 2), (2, 2))),
        "tableau must be column-strict",
    ),
    "E negative weight": (
        inv.Pair("E", thc_from_perm((1, 1, 1), (2, 3, 1)), ((1,), (2,), (3,))),
        "negative entry in (2, 2, -1)",
    ),
    "C content with a gap": (  # content (1, 0, 2)
        inv.Pair("C", thc_from_perm((2, 1), (1, 2)), ((1, 3), (3,))),
        "tableau content must be a composition",
    ),
    "C entry above the cell count": (  # content (1, 0, 1)
        inv.Pair("C", thc_from_perm((2,), (1,)), ((1, 3),)),
        "tableau content must be a composition",
    ),
    "unknown family": (
        inv.Pair("F", thc_from_perm((1,), (1,)), ((1,),)),
        "unknown pair family 'F'",
    ),
}

# one valid pair per family with its (left, right)
VALID_PAIRS = {
    "A": (inv.Pair("A", thc_from_perm((2, 1), (1, 2)), ((1, 1), (2,))), ((2, 1), (2, 1))),
    "B": (  # delta (3, 1) read through the inverse of (2, 1)
        inv.Pair("B", thc_from_perm((2, 2), (2, 1)), ((1, 2, 2), (2,))),
        ((3, 1), (2, 2)),
    ),
    "C": (inv.Pair("C", thc_from_perm((1, 2), (1, 2)), ((1,), (2, 2))), ((1, 2), (1, 2))),
    "D": (inv.Pair("D", thc_from_perm((2, 2), (1, 2)), ((1, 2), (2, 3))), ((2, 2), (1, 2, 1))),
    "E": (inv.Pair("E", thc_from_perm((1, 2), (1, 2)), ((1,), (2, 2))), ((2, 1), (1, 2))),
}


@pytest.mark.parametrize("check", INVALID_PAIRS)
def test_validate_pair_names_the_check_that_fails(check):
    pair, message = INVALID_PAIRS[check]
    with pytest.raises(ValueError) as err:
        inv.validate_pair(pair)
    assert str(err.value) == message


@pytest.mark.parametrize("kind", VALID_PAIRS)
def test_validate_pair_gives_the_indices_of_a_valid_pair(kind):
    pair, indices = VALID_PAIRS[kind]
    assert inv.validate_pair(pair) == indices


def test_validate_pair_rejects_a_large_entry_without_counting_to_it():
    # a composition content uses every value up to its largest, so a larger
    # entry than the cell count is refused before any vector is built
    pair = inv.Pair("C", thc_from_perm((1,), (1,)), ((10**6,),))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="must be a composition"):
            inv.validate_pair(pair)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- pair sets ---------------------------------------------------------------


def test_diagonal_pair_sets_are_singletons():
    for n in range(1, 6):
        for alpha in core.compositions_of(n):
            for kind in ("A", "C"):
                pairs = inv.enumerate_pairs(kind, alpha, alpha)
                assert len(pairs) == 1
                assert pairs[0].thc.perm == core.identity_perm(len(pairs[0].thc.shape))
        for lam in core.partitions_of(n):
            for kind in ("B", "D"):
                assert len(inv.enumerate_pairs(kind, lam, lam)) == 1


@pytest.mark.parametrize("kind", ["A", "B", "C", "D", "E"])
def test_pair_sets_match_the_per_cell_scan(kind):
    # the per-degree covering index gives every cell the scan's tuple, in order
    for n in range(1, 7):
        indices = core.compositions_of(n) if kind in ("A", "C") else core.partitions_of(n)
        for left, right in itertools.product(indices, repeat=2):
            assert inv.enumerate_pairs(kind, left, right) == pairs_by_scan(kind, left, right)


def test_covering_index_holds_one_degree():
    inv.verify_involution("psi", 5)
    inv.verify_involution("rho", 5)
    assert inv._index.cache_info().currsize <= 1
    # the fillings memo is scoped with the coverings: after a degree-5 run
    # and a degree-4 one, every memo key has total 4
    inv.verify_involution("phi", 5)
    inv.verify_involution("psi", 4)
    assert inv._index.cache_info().currsize == 1
    _, fillings, _ = inv._index("C", 4)
    assert fillings
    assert {(sum(shape), sum(content)) for shape, content in fillings} == {(4, 4)}
    # one rule for every family: a memo key's content is a composition, so
    # A reads exactly the cells C reads
    for degree in range(1, 6):
        keys = {}
        for map_name in ("phi", "chi", "psi"):
            inv.verify_involution(map_name, degree)
            keys[map_name] = set(inv._index(inv._family(map_name), degree)[1])
            assert all(core.is_composition(content) for _, content in keys[map_name])
        assert keys["phi"] == keys["psi"]


@pytest.mark.parametrize(
    "kind, left, right",
    [
        ("B", (2, 1), (1, 2)),  # a covering shape that is not a partition
        ("C", (2, 0, 1), (2, 1)),  # an index that is not a composition
        ("D", (1, 2), (2, 1)),  # a left index no sorted content can be
        ("A", (2, 1), (2, 0, 1)),  # a covering shape that is not a composition
    ],
)
def test_enumerate_pairs_rejects_an_index_the_family_cannot_have(kind, left, right):
    with pytest.raises(ValueError):
        inv.enumerate_pairs(kind, left, right)


@pytest.mark.parametrize("n", range(1, 5))
def test_signed_sums_are_kronecker_delta(n):
    comps = core.compositions_of(n)
    parts = core.partitions_of(n)
    for kind, indices in (("A", comps), ("B", parts), ("C", comps), ("D", parts)):
        for left, right in itertools.product(indices, repeat=2):
            signed = sum(p.thc.sign() for p in inv.enumerate_pairs(kind, left, right))
            assert signed == (1 if left == right else 0)


# -- exhaustive verification at small degree ---------------------------------


@pytest.mark.parametrize("map_name", ["phi", "chi", "psi", "rho"])
def test_verify_involutions_small(map_name):
    report = inv.verify_involution(map_name, 4)
    assert report.ok, report.violations
    assert report.pairs_checked > 0


@pytest.mark.parametrize("n", range(2, 5))
def test_theta_suite(n):
    # involution and sign reversal on the non-column-strict pairs, with the
    # two touched weights swapping
    parts = core.partitions_of(n)
    for lam, mu in itertools.product(parts, repeat=2):
        if lam == mu:
            continue
        e_pairs = inv.enumerate_pairs("E", lam, mu)
        d_pairs = set(inv.enumerate_pairs("D", lam, mu))
        outside = [p for p in e_pairs if inv.Pair("D", p.thc, p.tableau) not in d_pairs]
        for pair in outside:
            assert tableaux.bad_cells(pair.tableau)
            t, _ = inv.theta_selection(pair.tableau)
            image = inv.theta(pair)
            assert image.thc.sign() == -pair.thc.sign()
            before, after = pair.thc.delta(), image.thc.delta()
            assert after[t - 2] == before[t - 1]
            assert after[t - 1] == before[t - 2]
            assert after[: t - 2] == before[: t - 2]
            assert after[t:] == before[t:]
            assert inv.theta(image) == pair
            assert tableaux.bad_cells(image.tableau)


@pytest.mark.parametrize("map_name", ["phi", "chi", "psi", "rho"])
def test_orbit_visiting_matches_the_per_pair_check(map_name):
    for cell in inv.index_cells(map_name, 5):
        ours = inv.verify_cell(map_name, cell)
        oracle = verify_cell_per_pair(map_name, cell)
        assert ours.ok and oracle.ok
        assert (ours.pairs_checked, ours.fixed_points, ours.max_walk) == (
            oracle.pairs_checked,
            oracle.fixed_points,
            oracle.max_walk,
        )


@pytest.mark.parametrize("map_name", ["phi", "chi", "psi", "rho"])
def test_map_images_pass_the_public_constructor(map_name):
    # the maps build their images past the constructor's checks; at n <= 5
    # every image, and every pair of a rho walk, would have passed them
    kind = inv._family(map_name)
    for cell in inv.index_cells(map_name, 5):
        for pair in inv.enumerate_pairs(kind, *cell):
            if map_name == "rho":
                images = inv.rho(pair)[1].pairs
            else:
                images = (getattr(inv, map_name)(pair),)
            for image in images:
                assert thc_from_perm(image.thc.shape, image.thc.perm) == image.thc


# (fillings validated, pairs checked, interior pairs validated) at degree
# <= 5: the memo keys every family by composition content, so A validates
# C's 291 fillings, and B's fillings of the nonzero weights serve more than
# one covering; inside verify_cell only rho validates, once per interior
# pair of its forward walks, as membership certifies the walks' ends
VALIDATED_CHECKED_INTERIOR = {
    "phi": (291, 969, 0),
    "chi": (171, 274, 0),
    "psi": (291, 985, 0),
    "rho": (89, 258, 90),
}


@pytest.mark.parametrize("map_name", ["phi", "chi", "psi", "rho"])
def test_validate_pair_runs_once_per_filling_and_on_no_image(monkeypatch, map_name):
    calls = []
    validate_pair = inv.validate_pair

    def counted(pair):
        calls.append(pair)
        return validate_pair(pair)

    monkeypatch.setattr(inv, "validate_pair", counted)
    kind = inv._family(map_name)
    validated = checked = interior = 0
    inv._index.cache_clear()
    by_degree = itertools.groupby(inv.index_cells(map_name, 5), lambda cell: sum(cell[0]))
    for degree, cells in by_degree:
        cells = list(cells)
        for cell in cells:
            inv.enumerate_pairs(kind, *cell)
        # once per filling, as it enters the memo
        assert len(calls) == sum(len(rows) for rows in inv._index(kind, degree)[1].values())
        validated += len(calls)
        calls.clear()
        for cell in cells:
            report = inv.verify_cell(map_name, cell)
            assert report.ok, report.violations
            checked += report.pairs_checked
        # every image is a member, so none is validated; a walk's interior
        # pairs lie in E, outside the set, so each is
        assert all(pair.kind == "E" for pair in calls)
        interior += len(calls)
        calls.clear()
    assert (validated, checked, interior) == VALIDATED_CHECKED_INTERIOR[map_name]
    inv._index.cache_clear()
    report = inv.verify_involution(map_name, 5)
    assert (len(calls), report.pairs_checked) == (validated + interior, checked)


def test_validate_trace_checks_interior_pairs_as_e_pairs():
    # psi and theta label the walk's interior pairs E, so a trace of the
    # old form, with every pair labelled D, is refused: its interior pairs
    # are not column-strict
    _, trace = inv.rho(RHO_STORY)
    assert [pair.kind for pair in trace.pairs] == ["D"] + ["E"] * 8 + ["D"]
    assert inv.validate_trace(trace) == inv.pair_indices(RHO_STORY)
    all_d = tuple(pair._replace(kind="D") for pair in trace.pairs)
    with pytest.raises(ValueError, match="column-strict"):
        inv.validate_trace(inv.Trace(all_d, trace.maps))
    with pytest.raises(ValueError, match="different indices"):
        inv.validate_trace(inv.Trace((RHO_STORY, RHO_SMALL), ("psi",)))


def test_only_validate_trace_replays_the_steps():
    # two interior pairs swapped: every pair still validates with the walk's
    # indices and the maps still alternate, so only validate_trace's last
    # check, the replay, refuses the walk
    _, trace = inv.rho(RHO_STORY)
    pairs = list(trace.pairs)
    pairs[1], pairs[3] = pairs[3], pairs[1]
    swapped = inv.Trace(tuple(pairs), trace.maps)
    assert inv.validate_trace(trace) == inv.pair_indices(RHO_STORY)
    with pytest.raises(ValueError, match="step 1 does not replay"):
        inv.validate_trace(swapped)


def test_validate_trace_checks_the_end_pairs():
    # cut after an interior pair, or started at one, a walk still replays
    # and alternates and its pairs pass validate_pair with one index pair:
    # only the end check refuses it, as its new first or last pair is E
    _, trace = inv.rho(RHO_STORY)
    cut = inv.Trace(trace.pairs[:2], trace.maps[:1])
    late = inv.Trace(trace.pairs[2:], trace.maps[2:])
    assert late.maps[0] == "psi" and late.pairs[0].kind == "E"
    for part in (cut, late):
        assert {inv.validate_pair(pair) for pair in part.pairs} == {inv.pair_indices(RHO_STORY)}
        assert all(getattr(inv, name)(part.pairs[k]) == part.pairs[k + 1]
                   for k, name in enumerate(part.maps))
        with pytest.raises(ValueError, match="a rho walk starts and ends in D"):
            inv.validate_trace(part)


def test_a_trace_with_no_step_holds_a_fixed_point():
    # rho walks from every pair off the diagonal, so a one-pair trace is its
    # output only on a diagonal pair
    off = inv.enumerate_pairs("D", (3, 2), (2, 2, 1))[0]
    assert inv.rho(off)[1].maps == ("psi",)
    with pytest.raises(ValueError, match="a trace with no step must hold a fixed point"):
        inv.validate_trace(inv.Trace((off,), ()))
    (fixed,) = inv.enumerate_pairs("D", (3, 2), (3, 2))
    assert inv.rho(fixed)[1] == inv.Trace((fixed,), ())
    assert inv.validate_trace(inv.Trace((fixed,), ())) == ((3, 2), (3, 2))
    # psi fixes the pair, so a step to itself would replay: the trace is
    # refused before, as rho takes no step on the diagonal
    assert inv.psi(fixed) == fixed
    with pytest.raises(ValueError, match="a trace on the diagonal takes no step"):
        inv.validate_trace(inv.Trace((fixed, fixed), ("psi",)))


def test_every_pair_of_a_rho_walk_replays_on_its_own():
    # each interior pair of every walk at n <= 6 is an E pair of the walk's
    # cell, and the map named for a step sends its pair to the next one
    walks = interior = 0
    for cell in inv.index_cells("rho", 6):
        for pair in inv.enumerate_pairs("D", *cell):
            _, trace = inv.rho(pair)
            for step in trace.pairs[1:-1]:
                assert step.kind == "E" and inv.validate_pair(step) == cell
            for k, name in enumerate(trace.maps):
                assert getattr(inv, name)(trace.pairs[k]) == trace.pairs[k + 1]
            assert trace.pairs[-1].kind == "D"
            walks += 1
            interior += len(trace.pairs[1:-1])
    assert (walks, interior) == (1051, 968)


@pytest.mark.parametrize("map_name", ["phi", "chi", "psi", "rho"])
def test_a_pool_gives_the_serial_report(map_name):
    serial = inv.verify_involution(map_name, 5)
    pooled = inv.verify_involution(map_name, 5, workers=2)  # two processes at most
    assert serial.ok and pooled.ok, pooled.violations
    assert (pooled.pairs_checked, pooled.fixed_points, pooled.max_walk) == (
        serial.pairs_checked,
        serial.fixed_points,
        serial.max_walk,
    )
    assert not multiprocessing.active_children()


def test_a_failing_pool_stops_at_the_serial_cell_and_ends(monkeypatch):
    monkeypatch.setitem(inv._MAPS, "phi", ("A", lambda pair: pair))
    serial = inv.verify_involution("phi", 5)
    pooled = inv.verify_involution("phi", 5, workers=2)
    assert serial.violations and serial.cell == ((2,), (1, 1))
    assert (pooled.violations, pooled.pair, pooled.cell, pooled.pairs_checked) == (
        serial.violations,
        serial.pair,
        serial.cell,
        serial.pairs_checked,
    )
    assert not multiprocessing.active_children()


def test_verify_involution_rejects_unknown_map():
    with pytest.raises(ValueError):
        inv.verify_involution("omega", 3)


@pytest.mark.parametrize("map_name, n", [("phi", 0), ("phi", -3), ("rho", 0)])
def test_verify_involution_refuses_a_degree_below_one(map_name, n):
    # no cell at all would be a vacuous pass over 0 pairs
    with pytest.raises(core.DegreeError, match=f"degree must be >= 1, got {n}"):
        inv.verify_involution(map_name, n)
