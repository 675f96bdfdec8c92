"""Self-test of the benchmark at tiny sizes (degree <= 4, a few pairs).

    python3 perfbench/selftest.py

It runs each workload once untraced and once traced at tiny sizes and
checks that every metric ``BENCHMARK.json`` names is emitted with its unit;
that a deliberately wrong expected output and a pair that is not valid
both count as failures; that the walks input depends only on the seed;
and that a traced function the package no longer has reads as absent.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import run
from run import SRC, Walks, identity_command, involutions_command, run_workload

sys.path.insert(0, str(SRC))

TINY = {
    "identities": [identity_command("nk-nkinv", 3), identity_command("kkinv", 4)],
    "involutions": [involutions_command(3, [
        "PASS map=phi pairs=25 fixed=7",
        "PASS map=chi pairs=18 fixed=6",
        "PASS map=psi pairs=25 fixed=7",
        "PASS map=rho pairs=18 fixed=6 longest-walk=3",
    ])],
    "walks": Walks(degree=4, per_map=3),
}


def quiet_run(name, spec, trace):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run_workload(name, spec, seed=5, seconds=0.01, trace=trace)


def main() -> int:
    failures: list[str] = []
    checks = 0

    def check(ok: bool, what: str) -> None:
        nonlocal checks
        checks += 1
        if not ok:
            failures.append(what)

    config = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check({w["name"] for w in config["workloads"]} == set(run.WORKLOADS) == set(TINY),
          "workload names agree")
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in config[key]}
        for name, spec in TINY.items():
            result = quiet_run(name, spec, trace)
            where = f"{name} trace={int(trace)}"
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: correct with no failures")
            emitted = {m: v["unit"] for m, v in result["metrics"].items()}
            check(emitted == units, f"{where}: metrics and units match {key}")
            for metric, entry in result["metrics"].items():
                value = entry["value"]
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{where}: {metric} is a finite number")
                if not trace:
                    check(value > 0, f"{where}: {metric} is not 0")

    wrong = [identity_command("nk-nkinv", 3)]
    wrong[0].expected = ["PASS nk-nkinv n<=99"]
    result = quiet_run("identities", wrong, False)
    check(result["failed"] >= 1 and not result["correct"], "a wrong expected output fails")

    import walks

    lines = walks.sample_pairs(4, 3, seed=5)
    again = walks.sample_pairs(4, 3, seed=5)
    other = walks.sample_pairs(4, 3, seed=6)
    check(lines == again, "the walks input depends only on the seed")
    check(lines != other, "another seed gives another walks input")
    objs = [json.loads(line) for line in lines]
    served = walks.serve(objs)
    check(served["attempted"] == len(objs) and served["failed"] == 0, "valid pairs pass")
    broken = json.loads(lines[0])
    side = "left" if broken["setKind"] in "AB" else "right"
    broken[side]["rows"][0][0] = 0
    bad = walks.serve([broken] + objs)
    check(bad["failed"] == 1 and bad["attempted"] == len(objs) + 1,
          "an invalid pair fails")

    probe = (
        "import kostka.serialize as s\n"
        "del s.dumps\n"
        "from tracer import Tracer\n"
        "t = Tracer(); t.install(); print(t.absent)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], cwd=run.BENCH, capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    check(out.returncode == 0 and "serialize.dumps" in out.stdout,
          "a deleted traced function reads as absent")

    for what in failures:
        print(f"FAIL {what}")
    print(f"selftest: {checks - len(failures)} of {checks} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
