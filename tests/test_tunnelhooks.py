import hashlib
import itertools
from collections import Counter

import pytest
from oracles import available_terminals, boundary_cells_by_probe

from kostka import core, tunnelhooks as th


def test_gbpr_all_blue():
    d = th.GBPRDiagram((2, 3, 4, 2), (0, 0, 0, 0))
    for i, length in enumerate((2, 3, 4, 2), start=1):
        assert [d.color(i, j) for j in range(1, length + 1)] == ["B"] * length
        assert d.color(i, length + 1) == "P"


def test_gbpr_red_overshoot():
    d = th.GBPRDiagram((1,), (3,))
    assert [d.color(1, j) for j in range(1, 7)] == ["G", "G", "G", "R", "R", "P"]


def test_gbpr_zero_row():
    d = th.GBPRDiagram((0,), (0,))
    assert d.color(1, 1) == "P"  # no grey, blue, or red cells at all


def test_gbpr_negative_entry():
    d = th.GBPRDiagram((-2,), (1,))
    # one grey then |a| + nu = 3 red cells
    assert [d.color(1, j) for j in range(1, 6)] == ["G", "R", "R", "R", "P"]


def test_available_terminals_fresh():
    d = th.GBPRDiagram((8, 7, 7, 4), (0, 0, 0, 0))
    terminals = available_terminals(d, 1)
    assert terminals == [(1, 1), (2, 1), (3, 1), (4, 1)]
    assert [th.diagonal(t) for t in terminals] == [1, 2, 3, 4]


def test_available_terminals_single_row_and_last_row():
    assert available_terminals(th.GBPRDiagram((5,), (0,)), 1) == [(1, 1)]
    d = th.GBPRDiagram((2, 2, 2), (2, 1, 1))
    assert available_terminals(d, 3) == [(3, 2)]


@pytest.mark.parametrize("shape", [(2, 3, 4, 2), (1,), (0,), (-2,), (3, 1, 2)])
def test_boundary_cells_against_the_probe(shape):
    # every grey profile with entries 0..3, zero and negative rows included
    for nu in itertools.product(range(4), repeat=len(shape)):
        diagram = th.GBPRDiagram(shape, nu)
        for i in range(1, len(shape) + 1):
            assert th.boundary_cells(diagram, i) == boundary_cells_by_probe(diagram, i), (nu, i)


def test_replay_digest_of_every_covering_up_to_degree_7():
    # the hooks of all 13,699 coverings, every permutation of every
    # composition of n <= 7, as the eight-neighbour probe replayed them
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for shape in core.compositions_of(n):
            for perm in core.permutations_of(len(shape)):
                digest.update(repr(th.replay_hooks(shape, perm)).encode())
                count += 1
    assert count == 13_699
    assert digest.hexdigest() == "14e3a180e3391872c8ab250eac0e7e4b347ab724a239cd3b67cfc947d81de794"


WIDE_COVERING = th.thc_from_perm((8, 7, 7, 4), (1, 3, 4, 2))


def test_wide_covering_delta_content_sign():
    assert WIDE_COVERING.delta() == (8, 8, 8, 2)
    assert WIDE_COVERING.content() == (8, 8, 8, 2)
    assert WIDE_COVERING.sign() == 1


def test_wide_covering_hook_geometry():
    hooks = WIDE_COVERING.hooks()
    assert [h.end_row for h in hooks] == [1, 3, 4, 4]
    assert hooks[0].cells == tuple((1, c) for c in range(1, 9))
    assert hooks[1].cells == tuple((2, c) for c in range(1, 8)) + ((3, 1),)
    assert hooks[2].cells == tuple((3, c) for c in range(2, 8)) + ((4, 1), (4, 2))
    assert hooks[3].cells == ((4, 3), (4, 4))
    assert [h.sign for h in hooks] == [1, -1, -1, 1]
    assert [h.terminal for h in hooks] == [(1, 1), (3, 1), (4, 1), (4, 3)]


def test_sixrow_covering_geometry():
    v = th.thc_from_perm((4, 3, 4, 3, 1, 5), (1, 2, 5, 3, 6, 4))
    hooks = v.hooks()
    assert v.delta() == (4, 3, 6, 2, 2, 3)
    assert hooks[2].cells == ((3, 1), (3, 2), (3, 3), (3, 4), (4, 1), (5, 1))
    assert hooks[4].cells == ((5, 2), (6, 1), (6, 2))
    assert hooks[4].purple_in_start_row == 1
    assert hooks[3].cells == ((4, 2), (4, 3))
    assert hooks[5].cells == ((6, 3), (6, 4), (6, 5))


def test_sixrow_covering_weights():
    t = th.thc_from_perm((4, 3, 4, 3, 1, 5), (1, 2, 4, 3, 6, 5))
    assert t.delta() == (4, 3, 5, 2, 2, 4)


def test_identity_perm_gives_shape_as_delta():
    for shape in [(4,), (2, 3, 4, 2), (1, 1, 1), (5, 1, 2)]:
        t = th.thc_from_perm(shape, core.identity_perm(len(shape)))
        assert t.delta() == shape
        assert t.content() == shape
        assert all(h.end_row == h.start_row for h in t.hooks())


def test_story_input_covering():
    t = th.thc_from_perm((4, 2, 2), (2, 1, 3))
    assert t.delta() == (5, 1, 2)
    assert t.content() == (5, 1, 2)


def test_red_cell_covering_with_negative_delta():
    t = th.thc_from_perm((3, 1, 1), (3, 2, 1))
    assert t.delta() == (5, 1, -1)
    hooks = t.hooks()
    assert hooks[2].red_in_start_row == 1
    assert hooks[2].delta == -1
    with pytest.raises(core.InvalidContentError):
        t.content()


def _all_shapes(n_max):
    for n in range(1, n_max + 1):
        yield from core.compositions_of(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_replay_consistency_and_tiling(n):
    # cell-wise weights match the closed form (checked inside the replay),
    # hooks tile the diagram plus their out-of-row cells exactly once, and
    # the final grey profile accounts for every consumed cell
    for shape in core.compositions_of(n):
        ell = len(shape)
        diagram_cells = {
            (i, j) for i in range(1, ell + 1) for j in range(1, shape[i - 1] + 1)
        }
        for perm in core.permutations_of(ell):
            t = th.thc_from_perm(shape, perm)
            hooks = t.hooks()
            counted = Counter(cell for h in hooks for cell in h.cells)
            assert all(v == 1 for v in counted.values())
            assert diagram_cells <= set(counted)
            assert [th.diagonal(h.terminal) for h in hooks] == list(perm)
            assert core.perm_sign(perm) == t.sign()
            sign_product = 1
            for h in hooks:
                sign_product *= h.sign
            assert sign_product == t.sign()


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_of_thc_roundtrip(n):
    for shape in core.compositions_of(n):
        for perm in core.permutations_of(len(shape)):
            t = th.thc_from_perm(shape, perm)
            assert th.perm_of_thc(t) == perm


def test_roundtrip_spec_shape():
    for perm in core.permutations_of(5):
        t = th.thc_from_perm((3, 1, 2, 1, 4), perm)
        assert th.perm_of_thc(t) == perm


def test_build_thc_by_choices_is_bijective_with_perms():
    # stage-by-stage terminal choices biject with permutations, preserving sign
    from kostka.tunnelhooks import GBPRDiagram, _hook_at

    for shape in [(2, 2), (3, 1, 2), (1, 2, 1, 2), (2, 1, 1, 1)]:
        ell = len(shape)
        seen = {}

        def stage(r, nu, acc):
            if r > ell:
                covering, hooks = th.build_thc(shape, acc)
                assert covering.perm not in seen
                seen[covering.perm] = [h.terminal for h in hooks]
                return
            diagram = GBPRDiagram(shape, tuple(nu))
            for terminal in available_terminals(diagram, r):
                hook = _hook_at(diagram, r, terminal[0])
                nxt = list(nu)
                for i, _ in hook.cells:
                    nxt[i - 1] += 1
                stage(r + 1, nxt, acc + [terminal])

        stage(1, [0] * ell, [])
        assert set(seen) == set(core.permutations_of(ell))


def test_build_thc_rejects_illegal_terminal():
    # (1, 2) lies on diagonal 0, so the diagonals (0, 2) are no permutation
    with pytest.raises(ValueError, match="not a permutation"):
        th.build_thc((2, 2), [(1, 2), (2, 1)])
    # the diagonals (2, 1, 3) form a permutation, and (3, 2) lies on the
    # diagonal of the available terminal (2, 1), but it is another cell
    with pytest.raises(ValueError, match=r"illegal terminal \(3, 2\) at stage 1"):
        th.build_thc((2, 2, 2), [(3, 2), (1, 1), (3, 1)])


@pytest.mark.parametrize(
    "shape, perm, reason",
    [
        ((2, 1), (1, 1), "not a permutation"),
        ((2, 1), (2, 3), "not a permutation"),
        ((2, 0, 1), (1, 2, 3), "not a composition"),
        ((2, 1), (1, 2, 3), "lengths differ"),
    ],
)
def test_public_constructors_keep_their_checks(shape, perm, reason):
    # only the pair maps' trusted builder skips them
    for build in (th.TunnelHookCovering, th.thc_from_perm):
        with pytest.raises(ValueError, match=reason):
            build(shape, perm)
    assert th.TunnelHookCovering._of(shape, perm).perm == perm


@pytest.mark.parametrize(
    "shape, nu, reason",
    [
        ((1,), (-1,), "grey profile entries must be >= 0"),
        ((2, 1), (0, 0, 0), "shape and grey profile lengths differ"),
    ],
)
def test_public_gbpr_constructor_keeps_its_checks(shape, nu, reason):
    # only the stage walk's trusted builder skips them
    with pytest.raises(ValueError, match=reason):
        th.GBPRDiagram(shape, nu)
    assert th.GBPRDiagram._of(shape, nu).nu == nu


def test_available_terminals_oracle_rejects_a_shared_diagonal():
    # (1, 1) and (2, 2) both lie on diagonal 1
    with pytest.raises(ValueError, match="two terminals on one diagonal"):
        available_terminals(th.GBPRDiagram((1, 1), (0, 1)), 1)


def test_wide_covering_via_explicit_terminals():
    covering, hooks = th.build_thc(
        (8, 7, 7, 4), [(1, 1), (3, 1), (4, 1), (4, 3)]
    )
    assert covering == WIDE_COVERING
    assert [h.delta for h in hooks] == [8, 8, 8, 2]


def test_enumerate_thc_examples():
    result = th.enumerate_thc((2,), (1, 1))
    assert len(result) == 1
    covering, sign = result[0]
    assert covering.perm == (2, 1) and sign == -1

    for n in range(1, 7):
        for alpha in core.compositions_of(n):
            diag = th.enumerate_thc(alpha, alpha)
            assert len(diag) == 1
            assert diag[0][0].perm == core.identity_perm(len(alpha))
            assert diag[0][1] == 1


@pytest.mark.parametrize("n", range(1, 7))
def test_enumerate_thc_dominance_vanishing(n):
    comps = core.compositions_of(n)
    for alpha, beta in itertools.product(comps, repeat=2):
        found = th.enumerate_thc(alpha, beta)
        if found:
            assert core.dominates(alpha, beta)
        # cross-check against the unpruned filter over delta_choices
        expected = sum(
            1 for _, delta in th.delta_choices(beta) if core.flatten(delta) == alpha
        )
        assert len(found) == expected


def test_delta_choices_against_filter_oracle():
    """The cut search lists exactly the permutations of S_l with delta >= 0,
    in lexicographic order, on every composition of n <= 7 and every
    partition of 8."""
    shapes = [shape for n in range(1, 8) for shape in core.compositions_of(n)]
    shapes += core.partitions_of(8)
    for shape in shapes:
        ell = len(shape)
        expected = []
        for perm in itertools.permutations(range(1, ell + 1)):
            delta = tuple(shape[i] + perm[i] - (i + 1) for i in range(ell))
            if min(delta) >= 0:
                expected.append((perm, delta))
        assert th.delta_choices(shape) == tuple(expected), shape


@pytest.mark.parametrize("n", range(1, 7))
def test_lehmer_height_property(n):
    # the code entry of the permutation is the number of rows the hook spans
    for shape in core.compositions_of(n):
        for perm in core.permutations_of(len(shape)):
            t = th.thc_from_perm(shape, perm)
            code = core.lehmer_code(perm)
            for i, h in enumerate(t.hooks()):
                assert code[i] == h.end_row - h.start_row


SKETCH = th.thc_from_perm((2, 3, 2, 1), (2, 4, 1, 3))


def test_perm_cycles_sketch_example():
    cycles = th.perm_cycles_thc(SKETCH)
    assert cycles == [(2, 1), (4, 3, 2), (3,), (4,)]
    assert core.cycles_to_perm(cycles, 4) == (2, 4, 1, 3)


BIG_COVERING = th.thc_from_perm((8, 7, 7, 4, 4, 4, 2, 2, 2), (1, 6, 4, 3, 9, 2, 5, 8, 7))


def test_perm_of_thc_big_example():
    assert th.perm_of_thc(BIG_COVERING) == (1, 6, 4, 3, 9, 2, 5, 8, 7)


def test_perm_cycles_big_example():
    cycles = th.perm_cycles_thc(BIG_COVERING)
    assert cycles == [
        (1,),
        (6, 5, 4, 3, 2),
        (5, 4, 3),
        (5, 4),
        (9, 8, 7, 6, 5),
        (6,),
        (7,),
        (9, 8),
        (9,),
    ]
    assert core.cycles_to_perm(cycles, 9) == BIG_COVERING.perm


@pytest.mark.parametrize("n", range(1, 6))
def test_perm_cycles_agree_everywhere(n):
    for shape in core.compositions_of(n):
        for perm in core.permutations_of(len(shape)):
            t = th.thc_from_perm(shape, perm)
            assert core.cycles_to_perm(th.perm_cycles_thc(t), len(shape)) == perm


def test_perm_incremental_sketch_example():
    assert th.perm_incremental(SKETCH, 1) == (1,)
    assert th.perm_incremental(SKETCH, 2) == (2, 1)
    assert th.perm_incremental(SKETCH, 3) == (2, 3, 1)
    assert th.perm_incremental(SKETCH, 4) == (2, 4, 1, 3)


@pytest.mark.parametrize("n", range(1, 7))
def test_perm_incremental_agrees_with_truncation(n):
    for shape in core.compositions_of(n):
        if len(shape) > 5:
            continue
        for perm in core.permutations_of(len(shape)):
            t = th.thc_from_perm(shape, perm)
            for k in range(1, len(shape) + 1):
                truncated = th.truncate_thc(t, k)
                assert th.perm_incremental(t, k) == truncated.perm
            assert th.perm_incremental(t, len(shape)) == perm
