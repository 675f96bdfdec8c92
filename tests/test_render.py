import re
from pathlib import Path

import pytest

from kostka import render as rd, serialize as sz
from kostka.rimhooks import srht_from_perm
from kostka.tunnelhooks import thc_from_perm


def test_render_tableau_alignment():
    out = rd.render_tableau(((1, 1, 10), (2, 3)))
    assert out.splitlines() == [" 1  1 10", " 2  3"]


def test_render_srht_labels():
    tableau = srht_from_perm((2, 2, 1), (3, 1, 2))
    out = rd.render_srht(tableau)
    assert out.splitlines()[0] == "shape=(2,2,1)"
    assert len(out.splitlines()) == 4


def test_render_thc_marks_out_of_row_cells():
    covering = thc_from_perm((1, 1), (2, 1))
    out = rd.render_thc(covering)
    assert "2'" in out  # the second hook sits past the end of row 2


def test_tikz_outputs_are_structural():
    covering = thc_from_perm((2, 1), (2, 1))
    tikz = rd.tikz_thc(covering)
    assert tikz.count("rectangle") == 3
    assert "rounded corners" in tikz
    tableau_tikz = rd.tikz_tableau(((1, 2), (2,)))
    assert "{1}" in tableau_tikz and "{2}" in tableau_tikz
    srht_tikz = rd.tikz_srht(srht_from_perm((2, 1), (2, 1)))
    assert srht_tikz.startswith("\\begin{tikzpicture}")


DATA = Path(__file__).parent / "data"
RECTANGLE = re.compile(r"\\draw \(([\d.]+),([\d.]+)\) rectangle \(([\d.]+),([\d.]+)\);")
NODE = re.compile(r"\\node at \((\d+),(\d+)\)")


@pytest.mark.parametrize("name", ["phi_pair.json", "chi_pair.json", "psi_move_pair.json"])
def test_every_tikz_node_of_a_pair_lies_in_a_drawn_cell(name):
    # an A/B pair's tableau is wider than its covering in some rows (row 3 of
    # phi_pair holds 7 entries, the covering's row 3 only 4 cells), so its
    # entries need a grid of their own
    pair = sz.loads((DATA / name).read_text())
    pictures = rd.tikz_pair(pair).split("\\end{tikzpicture}")[:-1]
    assert len(pictures) == (1 if name.startswith("psi") else 2)
    nodes = 0
    for picture in pictures:
        cells = [tuple(map(float, m)) for m in RECTANGLE.findall(picture)]
        for x, y in NODE.findall(picture):
            nodes += 1
            assert any(x0 < int(x) < x1 and y0 < int(y) < y1 for x0, y0, x1, y1 in cells), (x, y)
    assert nodes == sum(map(len, pair.tableau))
