import json

import pytest

from kostka import cli, involutions as inv, matrices as mx, serialize as sz
from kostka.tunnelhooks import thc_from_perm


# theta acts on E pairs only: on this C pair its image would leave the cell
# (perm (1, 2), left index (1, 2)), and this D pair has no bad cell
_THETA_C_PAIR = {"setKind": "C", "left": {"kind": "thc", "shape": [1, 2], "perm": [2, 1]},
                 "right": {"kind": "tableau", "rows": [[1], [2, 2]]}}
_THETA_D_PAIR = {"setKind": "D", "left": {"kind": "thc", "shape": [3, 2], "perm": [1, 2]},
                 "right": {"kind": "tableau", "rows": [[1, 1, 2], [2, 3]]}}


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_csv_fixture(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "2", "--kind", "NKinv")
    assert code == 0
    assert out == "(2);(1,1)\n1,-1\n0,1\n"


def test_matrix_degree_one(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "1", "--kind", "K")
    assert code == 0
    assert out == "(1)\n1\n"


def test_matrix_json_structure(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--n", "5", "--kind", "NK", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 5 and len(data["labels"]) == 16
    for i in range(16):
        assert data["entries"][i][i] == 1
        for j in range(i):
            assert data["entries"][i][j] == 0


def test_matrix_cap_refusal(capsys):
    code, out, err = run_cli(capsys, "matrix", "--n", "12", "--kind", "NK")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: refusing degree 12 > cap 10")


def test_verify_identities(capsys):
    for identity in ("kkinv", "kinvk", "nk-nkinv", "nkinv-nk"):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--identity", identity)
        assert code == 0
        assert out.strip().startswith("PASS")


def test_verify_sym_frontier_under_cap(capsys):
    code, out, _ = run_cli(capsys, "verify", "--identity", "kkinv", "--n", "14", "--cap", "14")
    assert code == 0
    assert out == "PASS kkinv n<=14\n"


def test_verify_sym_cap_refusal(capsys):
    code, out, err = run_cli(capsys, "verify", "--identity", "kkinv", "--n", "11")
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: refusing degree 11 > cap 10")


def test_verify_involutions_cap_refusal(capsys):
    # the suites count pairs, not matrix entries
    code, out, err = run_cli(capsys, "verify", "--identity", "involutions", "--n", "11")
    assert (code, out) == (2, "")
    assert err == ("invalid input: refusing degree 11 > cap 10: four maps over every pair of "
                   "degree <= 11 (pairs grow roughly 5x per degree); pass --cap 11 to proceed\n")


def test_verify_involutions(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--identity", "involutions")
    assert code == 0
    assert out.count("PASS map=") == 4


@pytest.mark.parametrize("workers", ["1", "2"])
def test_verify_involutions_degree_six_stdout(capsys, workers):
    # the exact lines the involutions benchmark checks; with two workers the
    # fillings are checked as they enter the memo of each pool process
    code, out, _ = run_cli(capsys, "verify", "--identity", "involutions", "--n", "6",
                           "--workers", workers)
    assert code == 0
    assert out == (
        "PASS map=phi pairs=7323 fixed=63\n"
        "PASS map=chi pairs=1179 fixed=29\n"
        "PASS map=psi pairs=7665 fixed=63\n"
        "PASS map=rho pairs=1051 fixed=29 longest-walk=13\n"
        "PASS involutions n<=6\n"
    )


def test_enumerate_compositions(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "compositions", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["[3]", "[2,1]", "[1,2]", "[1,1,1]"]


def test_enumerate_srht(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "srht", "--shape", "2,1")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_enumerate_long_row_of_one_value(capsys):
    # the row's forced run places all 1,000 copies at once, with no recursion
    code, out, _ = run_cli(capsys, "enumerate", "immaculate", "--shape", "1000",
                           "--content", "1000")
    assert code == 0
    assert [json.loads(line)["rows"] for line in out.splitlines()] == [[[1] * 1000]]


def test_involution_run(tmp_path, capsys):
    pair = inv.Pair(
        "D", thc_from_perm((2, 2, 1), (1, 3, 2)), ((1, 2), (3, 4), (5,))
    )
    source = tmp_path / "pair.json"
    source.write_text(sz.dumps(pair))
    code, out, _ = run_cli(
        capsys, "involution", "run", "--alg", "rho", "--input", str(source), "--trace"
    )
    assert code == 0
    result_line, trace_line = out.splitlines()
    result = sz.loads(result_line)
    assert result.thc.shape == (3, 2)
    trace = sz.loads(trace_line)
    assert trace.maps == ("psi", "theta", "psi")


def test_involution_family_mismatch(tmp_path, capsys):
    pair = inv.Pair(
        "D", thc_from_perm((2, 2, 1), (1, 3, 2)), ((1, 2), (3, 4), (5,))
    )
    source = tmp_path / "pair.json"
    source.write_text(sz.dumps(pair))
    code = cli.main(
        ["involution", "run", "--alg", "phi", "--input", str(source)]
    )
    assert code == 2
    assert "acts on A pairs" in capsys.readouterr().err


@pytest.mark.parametrize("pair, kind", [(_THETA_C_PAIR, "C"), (_THETA_D_PAIR, "D")])
def test_theta_acts_on_e_pairs_only(tmp_path, capsys, pair, kind):
    source = tmp_path / "pair.json"
    source.write_text(json.dumps(pair))
    code, out, err = run_cli(capsys, "involution", "run", "--alg", "theta", "--input", str(source))
    assert (code, out, err) == (2, "", f"invalid input: theta acts on E pairs, got setKind {kind}\n")


def test_involution_rejects_invalid_pair(tmp_path, capsys):
    bad = inv.Pair("A", thc_from_perm((2,), (1,)), ((1, 2),))  # content mismatch
    source = tmp_path / "pair.json"
    source.write_text(sz.dumps(bad))
    code = cli.main(["involution", "run", "--alg", "phi", "--input", str(source)])
    assert code == 2
    assert "invalid input" in capsys.readouterr().err


def test_bijection_thc_to_perm(tmp_path, capsys):
    source = tmp_path / "thc.json"
    source.write_text(sz.dumps(thc_from_perm((8, 7, 7, 4), (1, 3, 4, 2))))
    code, out, _ = run_cli(
        capsys, "bijection", "--direction", "thc-to-perm", "--input", str(source)
    )
    assert code == 0
    assert json.loads(out) == [1, 3, 4, 2]


def test_bijection_perm_to_thc(tmp_path, capsys):
    source = tmp_path / "in.json"
    source.write_text(
        json.dumps({"shape": [8, 7, 7, 4, 4, 4, 2, 2, 2], "perm": [1, 6, 4, 3, 9, 2, 5, 8, 7]})
    )
    code, out, _ = run_cli(
        capsys, "bijection", "--direction", "perm-to-thc", "--input", str(source)
    )
    assert code == 0
    assert json.loads(out)["kind"] == "thc"


def test_bijection_no_preimage(tmp_path, capsys):
    source = tmp_path / "in.json"
    source.write_text(json.dumps({"shape": [2, 1, 1], "perm": [2, 3, 1]}))
    code, _, err = run_cli(
        capsys, "bijection", "--direction", "perm-to-srht", "--input", str(source)
    )
    assert code == 2
    assert "no preimage" in err


def test_bijection_rejects_nonpartition_srht_shape(tmp_path, capsys):
    source = tmp_path / "in.json"
    source.write_text(json.dumps({"shape": [1, 2], "perm": [1, 2]}))
    code, _, err = run_cli(
        capsys, "bijection", "--direction", "perm-to-srht", "--input", str(source)
    )
    assert code == 2
    assert "invalid input" in err


def test_bijection_boundary_valid_srht(tmp_path, capsys):
    source = tmp_path / "in.json"
    source.write_text(json.dumps({"shape": [2, 1], "perm": [2, 1]}))
    code, out, _ = run_cli(
        capsys, "bijection", "--direction", "perm-to-srht", "--input", str(source)
    )
    assert code == 0
    assert json.loads(out)["kind"] == "srht"


def test_render_diagram_fixture():
    from kostka.render import render_diagram

    assert render_diagram((2, 3, 4, 2)).splitlines() == [
        "(1,1)(1,2)",
        "(2,1)(2,2)(2,3)",
        "(3,1)(3,2)(3,3)(3,4)",
        "(4,1)(4,2)",
    ]
    assert render_diagram(()) == ""


def test_render_thc_ascii(tmp_path, capsys):
    source = tmp_path / "thc.json"
    source.write_text(sz.dumps(thc_from_perm((2, 3, 2, 1), (2, 4, 1, 3))))
    code, out, _ = run_cli(capsys, "render", "--input", str(source))
    assert code == 0
    assert "shape=(2,3,2,1)" in out
    assert "perm=(2,4,1,3)" in out


def test_render_trace_storyboard(capsys):
    from pathlib import Path

    data = Path(__file__).parent / "data"
    code, out, _ = run_cli(
        capsys, "render", "--input", str(data / "walk_long_trace.json")
    )
    assert code == 0
    assert out == (data / "walk_long_trace.txt").read_text()
    # the walk's two ends lie in D, its eight interior pairs in E
    assert (out.count("[D-pair]"), out.count("[E-pair]")) == (2, 8)


def test_render_tikz(tmp_path, capsys):
    source = tmp_path / "thc.json"
    source.write_text(sz.dumps(thc_from_perm((2, 2), (2, 1))))
    code, out, _ = run_cli(capsys, "render", "--input", str(source), "--format", "tikz")
    assert code == 0
    assert out.startswith("\\begin{tikzpicture}")
    assert "rectangle" in out


def test_validate_tableau(tmp_path, capsys):
    source = tmp_path / "tab.json"
    source.write_text(sz.dumps(((1, 1, 2), (2, 3))))
    code, out, _ = run_cli(capsys, "validate", "--input", str(source))
    assert code == 0
    assert json.loads(out) == {"kind": "tableau", "ssyt": True, "valid": True}


def test_validate_rejects_bad_tableau(tmp_path, capsys):
    source = tmp_path / "tab.json"
    source.write_text(json.dumps({"kind": "tableau", "shape": [2, 1], "rows": [[2, 1], [1]]}))
    code, out, _ = run_cli(capsys, "validate", "--input", str(source))
    assert code == 1
    assert json.loads(out)["valid"] is False


def test_validate_pair(tmp_path, capsys):
    pair = inv.Pair(
        "D", thc_from_perm((2, 2, 1), (1, 3, 2)), ((1, 2), (3, 4), (5,))
    )
    source = tmp_path / "pair.json"
    source.write_text(sz.dumps(pair))
    code, out, _ = run_cli(capsys, "validate", "--input", str(source))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] and verdict["left"] == [3, 2]
    assert verdict["right"] == [1, 1, 1, 1, 1]


def test_validate_rho_trace(capsys):
    from pathlib import Path

    source = Path(__file__).parent / "data" / "walk_long_trace.json"
    code, out, _ = run_cli(capsys, "validate", "--input", str(source))
    assert code == 0
    assert json.loads(out) == {"kind": "trace", "valid": True}


def test_each_step_of_a_trace_replays_through_the_cli(tmp_path, capsys):
    # cut out of the trace, each pair validates in its own family (D at the
    # start, E inside the walk), and the step's map sends it to the next
    from pathlib import Path

    text = (Path(__file__).parent / "data" / "walk_long_trace.json").read_text()
    trace = sz.loads(text.strip())
    source = tmp_path / "pair.json"
    for k, name in enumerate(trace.maps):
        source.write_text(sz.dumps(trace.pairs[k]))
        code, out, _ = run_cli(capsys, "validate", "--input", str(source))
        assert code == 0
        verdict = json.loads(out)
        assert (verdict["valid"], verdict["setKind"]) == (True, "E" if k else "D")
        assert (verdict["left"], verdict["right"]) == ([5, 2, 1], [2, 2, 2, 2])
        code, out, _ = run_cli(capsys, "involution", "run", "--alg", name, "--input", str(source))
        assert (code, out) == (0, sz.dumps(trace.pairs[k + 1]) + "\n")


def test_validate_rejects_mismatched_pair(tmp_path, capsys):
    bad = inv.Pair("A", thc_from_perm((2,), (1,)), ((1, 3),))
    source = tmp_path / "pair.json"
    source.write_text(sz.dumps(bad))
    code, out, _ = run_cli(capsys, "validate", "--input", str(source))
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        cli.main(["matrix", "--n", "2", "--kind", "bogus"])
    assert exc.value.code == 2


_THC = {"kind": "thc", "shape": [2, 1], "perm": [1, 2]}
_SRHT = {"kind": "srht", "shape": [2, 1], "hooks": [[[1, 2], [1, 1]], [[2, 1]]]}
_EMPTY_THC = {"kind": "thc", "shape": [], "perm": []}
_BARE_TABLEAU_PAIR = {"setKind": "C", "left": {"kind": "thc", "shape": [2], "perm": [1]},
                      "right": [1, 2]}
# psi fixes this diagonal D pair, so a step to itself replays, but rho takes no step on it
_DIAGONAL_PAIR = json.loads(sz.dumps(inv.Pair("D", thc_from_perm((1,), (1,)), ((1,),))))
# a valid D pair whose content (1, 2) is no partition: rho refuses it before walking
_D_COMPOSITION_CONTENT = {"setKind": "D", "left": _THC, "right": {"kind": "tableau",
                                                                 "rows": [[1, 2], [2]]}}


@pytest.mark.parametrize(
    "argv, payload, code",
    [
        (["involution", "run", "--alg", "phi", "--input", "missing.json"], None, 2),
        (["involution", "run", "--alg", "psi", "--input", "in.json"], "{not json", 2),
        (["enumerate", "immaculate", "--shape", "2,x", "--content", "1,1"], None, 2),
        (["enumerate", "compositions", "--n", "0"], None, 2),
        (["enumerate", "thc", "--content", "0,2", "--shape", "2"], None, 2),
        (["render", "--input", "in.json"], {"kind": "thc", "shape": [2, 1]}, 2),
        (["involution", "run", "--alg", "psi", "--input", "in.json"], _BARE_TABLEAU_PAIR, 2),
        (["bijection", "--direction", "thc-to-perm", "--input", "in.json"], _SRHT, 2),
        (["bijection", "--direction", "srht-to-thc", "--input", "in.json"], _THC, 2),
        (["bijection", "--direction", "perm-to-thc", "--input", "in.json"],
         {"shape": ["a"], "perm": [1]}, 2),
        (["validate", "--input", "in.json"], {"kind": "thc", "shape": [2, 1]}, 1),
        (["validate", "--input", "in.json"], {**_THC, "shape": "ab"}, 1),
        (["validate", "--input", "in.json"], _BARE_TABLEAU_PAIR, 1),
        (["validate", "--input", "in.json"], {"kind": "matrix", "degree": "2"}, 1),
        (["validate", "--input", "in.json"], [1, 2], 1),
        (["render", "--input", "in.json"], {"kind": "trace", "maps": [], "pairs": []}, 2),
        (["render", "--input", "in.json"], {**_SRHT, "hooks": [[[5, 5]]]}, 2),
        (["render", "--input", "in.json"], {"kind": "tableau", "rows": [[]]}, 2),
        (["bijection", "--direction", "srht-to-thc", "--input", "in.json"],
         {"kind": "srht", "shape": [1], "hooks": [[]]}, 2),
        (["bijection", "--direction", "srht-to-perm", "--input", "in.json"],
         {"kind": "srht", "shape": [1, 1], "hooks": [[[2, 1]], [[1, 1]]]}, 2),
        (["enumerate", "immaculate", "--shape", "1000", "--content", ",".join(["1"] * 1000)],
         None, 2),
        (["verify", "--identity", "involutions", "--n", "2", "--workers", "0"], None, 2),
        (["verify", "--identity", "involutions", "--n", "2", "--workers", "-3"], None, 2),
        (["verify", "--identity", "kkinv", "--n", "3", "--workers", "0"], None, 2),
        (["verify", "--identity", "nk-nkinv", "--n", "3", "--workers", "0"], None, 2),
        (["matrix", "--n", "0", "--kind", "K"], None, 2),
        (["matrix", "--n", "11", "--kind", "NK"], None, 2),
        (["involution", "run", "--alg", "theta", "--input", "in.json"], _THETA_C_PAIR, 2),
        (["involution", "run", "--alg", "theta", "--input", "in.json"], _THETA_D_PAIR, 2),
        (["enumerate", "immaculate", "--shape", "", "--content", ""], None, 2),
        (["enumerate", "ssyt", "--shape", "", "--content", ""], None, 2),
        (["enumerate", "thc", "--content", "", "--shape", ""], None, 2),
        (["enumerate", "srht", "--shape", ""], None, 2),
        (["involution", "run", "--alg", "psi", "--input", "in.json"], [], 2),
        (["involution", "run", "--alg", "psi", "--input", "in.json"],
         {"kind": "tableau", "rows": []}, 2),
        (["involution", "run", "--alg", "psi", "--input", "in.json"],
         {**_BARE_TABLEAU_PAIR, "right": []}, 2),
        (["enumerate", "srht", "--shape", "2,,1"], None, 2),
        (["enumerate", "srht", "--shape", "2,1,"], None, 2),
        (["enumerate", "ssyt", "--shape", "2,1", "--content", "1,,2"], None, 2),
        (["render", "--input", "in.json"], _EMPTY_THC, 2),
        (["render", "--format", "tikz", "--input", "in.json"], _EMPTY_THC, 2),
        (["validate", "--input", "in.json"], _EMPTY_THC, 1),
        (["bijection", "--direction", "thc-to-srht", "--input", "in.json"], _EMPTY_THC, 2),
        (["bijection", "--direction", "perm-to-thc", "--input", "in.json"],
         {"shape": [], "perm": []}, 2),
        (["bijection", "--direction", "perm-to-srht", "--input", "in.json"],
         {"shape": [], "perm": []}, 2),
        (["validate", "--input", "in.json"], {"kind": "srht", "shape": [], "hooks": []}, 1),
        (["render", "--input", "in.json"], {"kind": "srht", "shape": [], "hooks": []}, 2),
        (["validate", "--input", "in.json"],
         {"kind": "trace", "maps": ["psi"], "pairs": [_DIAGONAL_PAIR] * 2}, 1),
        (["involution", "run", "--alg", "rho", "--input", "in.json"], _D_COMPOSITION_CONTENT, 2),
    ],
)
def test_malformed_input_exit_codes(tmp_path, argv, payload, code):
    """Malformed input exits 2 with a one-line message (1 with a JSON verdict
    for validate), never a traceback; run under -O, so asserts are gone."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    if payload is not None:
        text = payload if isinstance(payload, str) else json.dumps(payload)
        (tmp_path / "in.json").write_text(text)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "kostka.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("invalid input: ") and proc.stderr.count("\n") == 1
    else:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["valid"] is False


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize(
    "argv", [["render", "--input", "walk_long_trace.json"], ["matrix", "--n", "8", "--kind", "NK"]]
)
def test_a_closed_stdout_exits_2_without_a_traceback(argv, unbuffered):
    """``kostka ... | head`` closes stdout early: the output is neither a
    pass nor a counterexample, so the command exits 2 with one line.  The
    read end is closed before the command starts, so every write fails: in
    print when unbuffered or past the buffer, else at the last flush."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
           "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kostka.cli", *argv], cwd=tests / "data", env=env,
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "output not delivered: the reader closed stdout\n"


@pytest.mark.parametrize("identity, n", [("involutions", 4), ("nk-nkinv", 5)])
def test_verify_workers_byte_identical(capsys, identity, n):
    outputs = []
    for workers in ("1", "2"):
        code, out, _ = run_cli(capsys, "verify", "--n", str(n), "--identity", identity,
                               "--workers", workers)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("edits, records", [
    # one wrong entry of NK^-1(3), at row (1,2) and column (2,1): it breaks
    # column (2,1) of NK * NK^-1 and row (1,2) of NK^-1 * NK
    ([(2, 1, 1)], {
        "nk-nkinv": {"col": [2, 1], "degree": 3, "row": [3], "value": 1},
        "nkinv-nk": {"col": [2, 1], "degree": 3, "row": [1, 2], "value": 1},
    }),
    # NK * NK^-1 goes wrong at ((2,1), (2,1)) and along column (1,1,1) from
    # row (3): the first bad entry in row-major order is the latter
    ([(0, 1, -1), (1, 1, 1), (3, 3, 1)], {
        "nk-nkinv": {"col": [1, 1, 1], "degree": 3, "row": [3], "value": 1},
        "nkinv-nk": {"col": [2, 1], "degree": 3, "row": [3], "value": -1},
    }),
])
def test_verify_reports_broken_identity(capsys, monkeypatch, edits, records):
    real = mx.nsym_Kinv

    def broken(n):
        matrix = real(n)
        if n != 3:
            return matrix
        entries = [list(row) for row in matrix.entries]
        for i, j, change in edits:
            entries[i][j] += change
        return mx.TransitionMatrix(n, matrix.index_kind, matrix.labels,
                                   tuple(map(tuple, entries)))

    monkeypatch.setattr(mx, "nsym_Kinv", broken)
    for identity, record in records.items():
        code, out, _ = run_cli(capsys, "verify", "--identity", identity, "--n", "4")
        assert code == 1
        assert out == json.dumps({**record, "identity": identity}, sort_keys=True) + "\n"


def test_verify_reports_broken_map(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(inv._MAPS, "phi", ("A", lambda pair: pair))
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--identity", "involutions")
    assert code == 1
    record = json.loads(out)
    assert set(record) == {"map", "indices", "violation", "pair"}
    left, right = record["indices"]
    assert record["map"] == "phi" and left != right
    assert record["violation"].startswith("off-diagonal fixed point")
    # the offending pair replays as it stands
    source = tmp_path / "pair.json"
    source.write_text(json.dumps(record["pair"]))
    code, out, _ = run_cli(capsys, "validate", "--input", str(source))
    assert code == 0
    verdict = json.loads(out)
    assert verdict["valid"] and [verdict["left"], verdict["right"]] == [left, right]
    code, out, _ = run_cli(capsys, "involution", "run", "--alg", "phi", "--input", str(source))
    assert code == 0
    assert json.loads(out) != record["pair"]  # the real phi moves the pair the broken one fixed


@pytest.mark.parametrize("cpus, sizes", [(3, [3] * 4), (None, []), (8, [5] * 4)])
def test_workers_bounded_by_tasks_and_cpus(capsys, monkeypatch, cpus, sizes):
    """A pool gets no more processes than tasks or CPUs; none is started here.
    The pool is the library verifier's, which imports ``Pool`` as it starts
    one."""
    import multiprocessing

    requested = []

    class RecordingPool:
        def __init__(self, size):
            requested.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            assert chunksize == 1  # 5 cells over 4 * size >= 12 slots
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr(inv.os, "cpu_count", lambda: cpus)
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--identity", "involutions",
                           "--workers", "10000")
    assert code == 0 and out.endswith("PASS involutions n<=2\n")
    assert requested == sizes  # each of the four maps has 1 + 4 cells at n <= 2


def test_a_failing_suite_stops_at_its_first_violating_cell(capsys, monkeypatch):
    # phi as the identity fixes every pair: the third A cell, ((2,), (1, 1)),
    # is the first off the diagonal; the command checks no cell past it
    monkeypatch.setitem(inv._MAPS, "phi", ("A", lambda pair: pair))
    cells = []
    verify_cell = inv.verify_cell

    def counted(map_name, cell):
        cells.append(cell)
        return verify_cell(map_name, cell)

    monkeypatch.setattr(inv, "verify_cell", counted)
    code, out, _ = run_cli(capsys, "verify", "--identity", "involutions", "--n", "6",
                           "--workers", "1")
    assert code == 1
    through_cli = list(cells)
    cells.clear()
    report = inv.verify_involution("phi", 6)
    assert through_cli == cells and len(cells) == 3
    assert json.loads(out)["indices"] == [list(index) for index in report.cell]
    assert report.cell == cells[-1] == ((2,), (1, 1))


def test_validate_replays_the_steps_of_a_trace(tmp_path, capsys):
    from pathlib import Path

    trace = json.loads((Path(__file__).parent / "data" / "walk_short_trace.json").read_text())
    repeated = {**trace, "pairs": [trace["pairs"][0]] * len(trace["pairs"])}
    renamed = {**trace, "maps": ["foo"] * len(trace["maps"])}
    for bad, reason in ((repeated, "step 1 does not replay"), (renamed, "step 1 is 'foo'")):
        source = tmp_path / "trace.json"
        source.write_text(json.dumps(bad))
        code, out, _ = run_cli(capsys, "validate", "--input", str(source))
        assert code == 1
        verdict = json.loads(out)
        assert verdict["valid"] is False and verdict["reason"].startswith(reason)
