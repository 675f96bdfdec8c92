"""Every record type through each dispatcher that tells objects apart:
``kostka validate``, ``kostka render`` (ASCII and TikZ), ``serialize.dumps``
and ``serialize.loads``.  Each reads the kind that ``serialize.kind_of``
gives.  The records are tuples, so ``kind_of`` takes a bare tableau or
composition from plain tuples only.  A matrix has no drawing and nothing to
validate, and a pair whose tableau side is a covering is refused: both would
be read as bare tuples if any tuple were.  The empty tuple is a sequence,
never a tableau, and no command accepts it."""

import hashlib
import json
from pathlib import Path

import pytest

from kostka import cli, serialize as sz

DATA = Path(__file__).parent / "data"
THC = {"kind": "thc", "shape": [2, 1], "perm": [1, 2]}
NOTHING = (2, "invalid input: nothing to validate")
NO_TABLEAU = (2, "invalid input: pair is missing its tableau side")
NO_ENTRY = (2, "invalid input: a bare sequence has at least one entry")
NO_ROW = (2, "invalid input: a tableau has at least one row")

# name -> (JSON input, the name of the type loads gives or the error it raises,
#          validate's verdict, render --format ascii, render --format tikz);
# a drawing is (exit code, the first 16 hex digits of the sha256 of stdout)
# and a refusal (2, its stderr line)
CASES = {
    "covering": (
        THC, "TunnelHookCovering", {"kind": "thc", "valid": True},
        (0, "2da8fe1e0cf9b36a"), (0, "d9cb39b3a4f7cca0"),
    ),
    "srht": (
        {"kind": "srht", "shape": [2, 1], "hooks": [[[1, 2], [1, 1]], [[2, 1]]]},
        "SpecialRimHookTableau", {"kind": "srht", "valid": True},
        (0, "dec0990b626b3a0e"), (0, "32e7766dae106d36"),
    ),
    "pair": (
        {"setKind": "C", "left": {"kind": "thc", "shape": [1, 2], "perm": [2, 1]},
         "right": {"kind": "tableau", "shape": [1, 2], "rows": [[1], [2, 2]]}},
        "Pair",
        {"kind": "pair", "left": [2, 1], "right": [1, 2], "setKind": "C", "valid": True},
        (0, "b894cb84a96e17a5"), (0, "6d8341be80ccf0c3"),
    ),
    "trace": (
        json.loads((DATA / "walk_short_trace.json").read_text()),
        "Trace", {"kind": "trace", "valid": True},
        (0, "228a5042156cfd28"), (2, "invalid input: cannot render Trace as TikZ"),
    ),
    "matrix": (
        {"kind": "matrix", "degree": 2, "indexKind": "compositions",
         "labels": [[2], [1, 1]], "entries": [[1, -1], [0, 1]]},
        "TransitionMatrix", {"reason": "nothing to validate", "valid": False},
        NOTHING, NOTHING,
    ),
    "pair with a covering as its tableau side": (
        {"setKind": "C", "left": THC, "right": THC},
        ValueError("pair is missing its tableau side"),
        {"reason": "pair is missing its tableau side", "valid": False},
        NO_TABLEAU, NO_TABLEAU,
    ),
    "tableau": (
        {"kind": "tableau", "shape": [2, 1], "rows": [[1, 1], [2]]},
        "tuple", {"kind": "tableau", "ssyt": True, "valid": True},
        (0, "c3a5d15cb5f8cbbc"), (0, "7ff29b841f6d2d5e"),
    ),
    "composition": (
        [2, 1], "tuple", {"reason": "nothing to validate", "valid": False},
        (0, "50a11562280cd42e"), (0, "f2ca484e745a5cf2"),
    ),
    "empty sequence": (
        [], "tuple", {"reason": "a bare sequence has at least one entry", "valid": False},
        NO_ENTRY, NO_ENTRY,
    ),
    "tableau with no rows": (
        {"kind": "tableau", "rows": []},
        ValueError("a tableau has at least one row"),
        {"reason": "a tableau has at least one row", "valid": False},
        NO_ROW, NO_ROW,
    ),
    "pair with an empty tableau side": (
        {"setKind": "C", "left": {"kind": "thc", "shape": [2], "perm": [1]}, "right": []},
        ValueError("pair is missing its tableau side"),
        {"reason": "pair is missing its tableau side", "valid": False},
        NO_TABLEAU, NO_TABLEAU,
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_each_record_type_dispatches_as_before(tmp_path, capsys, name):
    data, loaded, verdict, ascii_out, tikz_out = CASES[name]
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    source = tmp_path / "in.json"
    source.write_text(text)

    code = cli.main(["validate", "--input", str(source)])
    out = capsys.readouterr().out
    assert (code, json.loads(out)) == (0 if verdict["valid"] else 1, verdict)

    for fmt, expected in (("ascii", ascii_out), ("tikz", tikz_out)):
        code = cli.main(["render", "--format", fmt, "--input", str(source)])
        captured = capsys.readouterr()
        if expected[0] == 2:
            assert (code, captured.out, captured.err) == (2, "", expected[1] + "\n")
        else:
            digest = hashlib.sha256(captured.out.encode()).hexdigest()[:16]
            assert (code, digest) == expected

    if isinstance(loaded, ValueError):
        with pytest.raises(ValueError, match=str(loaded)):
            sz.loads(text)
        return
    value = sz.loads(text)
    assert type(value).__name__ == loaded
    assert sz.dumps(value) == text
