import pytest

from kostka import involutions as inv, matrices as mx, serialize as sz
from kostka.rimhooks import srht_from_perm
from kostka.tunnelhooks import thc_from_perm


def test_thc_roundtrip():
    covering = thc_from_perm((8, 7, 7, 4), (1, 3, 4, 2))
    text = sz.dumps(covering)
    assert sz.loads(text) == covering
    assert sz.dumps(sz.loads(text)) == text


def test_tableau_roundtrip():
    rows = ((1, 1, 2), (2, 3))
    text = sz.dumps(rows)
    assert sz.loads(text) == rows
    assert '"kind":"tableau"' in text


def test_tableau_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        sz.parse_object({"kind": "tableau", "shape": [3], "rows": [[1, 2]]})


def test_srht_roundtrip():
    tableau = srht_from_perm((3, 2, 1), (3, 1, 2))
    text = sz.dumps(tableau)
    assert sz.loads(text) == tableau
    assert sz.dumps(sz.loads(text)) == text


def test_pair_roundtrip_both_orientations():
    a_pair = inv.Pair("A", thc_from_perm((2,), (1,)), ((1, 2),))
    c_pair = inv.Pair("C", thc_from_perm((2,), (1,)), ((1, 2),))
    for pair in (a_pair, c_pair):
        assert sz.loads(sz.dumps(pair)) == pair
    # tableau side sits left for A, right for C
    assert sz.to_obj(a_pair)["left"]["kind"] == "tableau"
    assert sz.to_obj(c_pair)["left"]["kind"] == "thc"


def test_trace_roundtrip():
    pair = inv.Pair(
        "D", thc_from_perm((2, 2, 1), (1, 3, 2)), ((1, 2), (3, 4), (5,))
    )
    _, trace = inv.rho(pair)
    assert sz.loads(sz.dumps(trace)) == trace


def test_matrix_roundtrip_and_csv():
    matrix = mx.nsym_Kinv(2)
    assert sz.loads(sz.dumps(matrix)) == matrix
    assert sz.matrix_to_csv(matrix) == "(2);(1,1)\n1,-1\n0,1"


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        sz.parse_object({"kind": "widget"})


@pytest.mark.parametrize(
    "data, reason",
    [
        ({"kind": "tableau", "rows": []}, "a tableau has at least one row"),
        ({"kind": "thc", "shape": [], "perm": []}, "a covering has at least one row"),
        ({"kind": "srht", "shape": [], "hooks": []}, "a rim hook tableau has at least one row"),
    ],
)
def test_objects_with_no_row_rejected(data, reason):
    # the library constructors accept them; the input boundary does not
    with pytest.raises(ValueError, match=reason):
        sz.parse_object(data)
