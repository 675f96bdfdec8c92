from kostka import render as rd
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
