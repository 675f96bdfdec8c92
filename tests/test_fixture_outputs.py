"""Pin what ``kostka render`` and ``kostka validate`` print for every fixture
in ``tests/data``.  Each cell is (exit code, the first 16 hex digits of the
sha256 of stdout), for ``render --format ascii``, ``render --format tikz``
and ``validate``.  Rendering a covering replays its hooks, so a change in
the stage walk that moves a cell changes a digest here."""

import hashlib
from pathlib import Path

import pytest

from kostka import cli

DATA = Path(__file__).parent / "data"

# fixture -> (ascii, tikz, validate); a trace has no TikZ form, so it exits 2
# with nothing on stdout
PINNED = {
    "big_srht.json": ((0, "21c9c0d3316cbddf"), (0, "e587f7fc42565ae8"), (0, "31729845339c5a84")),
    "big_thc.json": ((0, "891d9e0a5116a220"), (0, "bb3c2accf1dfe48b"), (0, "c74789b905ae0b2a")),
    "chi_output.json": ((0, "cdd63f2e26994a96"), (0, "1ef43cddcca79357"), (0, "fa2786de1ccd109c")),
    "chi_pair.json": ((0, "d0d747ea57bc710f"), (0, "798ae9aef4af0a72"), (0, "fa2786de1ccd109c")),
    "covering_8774.json": ((0, "0c1c121e30f30658"), (0, "bfb1d2da990b1f7e"),
                           (0, "c74789b905ae0b2a")),
    "divergence_alt_output.json": ((0, "540ae83bc469cdcf"), (0, "542dd67d8f6f573c"),
                                   (0, "e4db9dfabd4ef5c7")),
    "divergence_input.json": ((0, "6061156a356b6ff9"), (0, "4907934dc5344e6c"),
                              (0, "e4db9dfabd4ef5c7")),
    "divergence_output.json": ((0, "db8ca5622b008289"), (0, "1fde5c667ec422b7"),
                               (0, "e4db9dfabd4ef5c7")),
    "phi_output.json": ((0, "00bb5adf22f90a35"), (0, "efef8eb946efbcfa"), (0, "cce86ded716905ce")),
    "phi_pair.json": ((0, "08c10119c6b0e181"), (0, "53f8a648de95e251"), (0, "cce86ded716905ce")),
    "psi_grow_output.json": ((0, "fb743856fd763326"), (0, "094ec19ff961c3d9"),
                             (0, "d8d85f143a05a080")),
    "psi_grow_pair.json": ((0, "836d8afebe70dc7f"), (0, "cfe3ca6831045de8"),
                           (0, "d8d85f143a05a080")),
    "psi_move_output.json": ((0, "db769b8ebcb85acd"), (0, "97d494ad4af63c9f"),
                             (0, "f7f0288793421e7a")),
    "psi_move_pair.json": ((0, "79279f731f487656"), (0, "888d6df326a12af5"),
                           (0, "f7f0288793421e7a")),
    "walk_long_trace.json": ((0, "078cb1b7a3c1c23b"), (2, "e3b0c44298fc1c14"),
                             (0, "fe010ff9b40152f9")),
    "walk_short_trace.json": ((0, "228a5042156cfd28"), (2, "e3b0c44298fc1c14"),
                              (0, "fe010ff9b40152f9")),
}

COMMANDS = (["render", "--format", "ascii"], ["render", "--format", "tikz"], ["validate"])


def test_every_fixture_is_pinned():
    assert sorted(PINNED) == sorted(path.name for path in DATA.glob("*.json"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_fixture_outputs_are_pinned(capsys, name):
    outputs = []
    for command in COMMANDS:
        code = cli.main([*command, "--input", str(DATA / name)])
        captured = capsys.readouterr()
        outputs.append((code, hashlib.sha256(captured.out.encode()).hexdigest()[:16]))
        if code == 2:
            assert captured.err == "invalid input: cannot render Trace as TikZ\n"
    assert tuple(outputs) == PINNED[name]
