#!/usr/bin/env python3
"""Benchmark of the kostka package: three seeded workloads, run from outside.

    python3 perfbench/run.py --workload walks --seed 1 --seconds 30 --trace 0

Every unit of work runs in a fresh interpreter (``child.py``), so caches
start cold as they do for a user, and one process works at a time
(``--workers 1``).  A run repeats its workload until ``--seconds`` are
spent and reports medians over the repetitions.  With ``--trace 0`` it
prints the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced repetitions and prints the per-layer metrics and the tracing
overhead.  End-to-end times are paced: counted at a fixed reference speed
of the host (``pace.py``), which steadies them on a shared machine whose
speed swings; the summary prints wall times as measured beside them.  The
last line of output is one JSON object; the lines before it are a readable
summary.  ``--workload all`` runs the three in turn.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import LAYER_METRICS, layer_metrics, read_trace  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "checks_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# A run stops starting work after --seconds and gives up on a process that
# is still busy this long after the run began.
HARD_LIMIT_S = 160.0


def partition_count(n: int) -> int:
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


@dataclass
class Command:
    """One ``kostka`` CLI call, its exact expected stdout, and the number of
    checks it certifies (identity-product entries, or pairs)."""

    argv: list[str]
    expected: list[str]
    items: int


def identity_command(identity: str, n: int) -> Command:
    sizes = [
        2 ** (m - 1) if identity.startswith("nk") else partition_count(m)
        for m in range(1, n + 1)
    ]
    return Command(
        ["verify", "--identity", identity, "--n", str(n), "--workers", "1"],
        [f"PASS {identity} n<={n}"],
        sum(size * size for size in sizes),
    )


def involutions_command(n: int, map_lines: list[str]) -> Command:
    pairs = sum(int(m) for m in re.findall(r"pairs=(\d+)", " ".join(map_lines)))
    return Command(
        ["verify", "--identity", "involutions", "--n", str(n), "--workers", "1"],
        [*map_lines, f"PASS involutions n<={n}"],
        pairs,
    )


@dataclass
class Walks:
    degree: int
    per_map: int


# The PASS lines were recorded when this benchmark was added; any other
# output fails.
WORKLOADS: dict[str, list[Command] | Walks] = {
    "identities": [identity_command("nk-nkinv", 8), identity_command("kkinv", 10)],
    "involutions": [involutions_command(6, [
        "PASS map=phi pairs=7323 fixed=63",
        "PASS map=chi pairs=1179 fixed=29",
        "PASS map=psi pairs=7665 fixed=63",
        "PASS map=rho pairs=1051 fixed=29 longest-walk=13",
    ])],
    "walks": Walks(degree=8, per_map=200),
}


@dataclass
class Iteration:
    """One repetition of a workload: one or more fresh processes.  Times
    are paced (see ``pace.py``) except ``raw_wall``; ``paces`` holds each
    process's paced over wall time."""

    wall: float = 0.0
    raw_wall: float = 0.0
    work: float = 0.0
    setups: list[float] = field(default_factory=list)
    paces: list[float] = field(default_factory=list)
    items: int = 0
    rss_kb: int = 0
    attempted: int = 0
    failed: int = 0
    pairs: int = 0
    fixed: int = 0
    rho_ms: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    fatal: bool = False


class Runner:
    """Spawns the child processes of one run inside a scratch directory."""

    def __init__(self, workdir: Path, started: float) -> None:
        self.workdir = workdir
        self.started = started
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))

    def spawn(self, trace: bool, mode: str, args: list[str]) -> dict:
        self.count += 1
        result = self.workdir / f"p{self.count}.json"
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), str(int(trace)), mode, *args]
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.monotonic())
        spawned = time.monotonic()  # CLOCK_MONOTONIC, as the child's stamps
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
            timed_out = False
        except subprocess.TimeoutExpired:
            proc.kill()
            stdout, stderr = proc.communicate()
            timed_out = True
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        out = {"spawned": spawned, "exited": time.monotonic(), "stdout": stdout,
               "timed_out": timed_out, "result": None, "trace": None}
        try:
            out["result"] = json.loads(result.read_text())
            if trace:
                out["trace"] = read_trace(str(result) + ".trace")
        except (OSError, ValueError):
            pass
        ok = proc.returncode == 0 and out["result"] is not None and not timed_out
        if not ok or stderr.strip():
            tail = "\n".join(stderr.strip().splitlines()[-5:])
            print(f"child {mode} {' '.join(args)} exited {proc.returncode}"
                  f"{' (timed out)' if timed_out else ''}: {tail}", file=sys.stderr)
        return out


def _account(it: Iteration, proc: dict) -> dict | None:
    """Fold one process's timings into ``it``; None when it did not finish."""
    res = proc["result"]
    lived = proc["exited"] - proc["spawned"]
    it.raw_wall += lived
    if res is None or "ready" not in res:
        it.fatal = it.fatal or proc["timed_out"]
        it.wall += lived
        return None
    # The paced clock covers the child from its first line to the end of
    # its work; the interpreter start before that is counted at the pace of
    # the set-up, the exit after it at the pace of the whole process.
    setup_pace = res["paced_ready"] / max(res["ready"] - res["pace_started"], 1e-9)
    pace = res["paced_done"] / max(res["done"] - res["pace_started"], 1e-9)
    setup = res["paced_ready"] + (res["pace_started"] - proc["spawned"]) * setup_pace
    work = res["paced_done"] - res["paced_ready"]
    it.setups.append(setup)
    it.work += work
    it.wall += setup + work + (proc["exited"] - res["done"]) * pace
    it.paces.append(pace)
    it.rss_kb = max(it.rss_kb, res["rss_kb"])
    if proc["trace"] is not None:
        it.traces.append(proc["trace"])
    return res


def cli_iteration(runner: Runner, commands: list[Command], trace: bool) -> Iteration:
    it = Iteration()
    for command in commands:
        proc = runner.spawn(trace, "cli", command.argv)
        res = _account(it, proc)
        it.attempted += 1
        lines = proc["stdout"].splitlines()
        if res is None or res["code"] != 0 or lines != command.expected:
            it.failed += 1
            print(f"FAIL {' '.join(command.argv)}: got {lines!r}", file=sys.stderr)
            continue
        it.items += command.items
        it.pairs += sum(int(m) for m in re.findall(r"pairs=(\d+)", proc["stdout"]))
        it.fixed += sum(int(m) for m in re.findall(r"fixed=(\d+)", proc["stdout"]))
    return it


def walks_iteration(runner: Runner, pairs: Path, digest: str, total: int, trace: bool) -> Iteration:
    it = Iteration()
    proc = runner.spawn(trace, "walks", [str(pairs), digest])
    res = _account(it, proc)
    served = res.get("walks") if res else None
    if served is None:
        it.attempted, it.failed = total, total
        return it
    it.attempted, it.failed = served["attempted"], served["failed"]
    for message in served["failures"]:
        print(f"FAIL walks {message}", file=sys.stderr)
    it.items = it.pairs = served["attempted"] - served["failed"]
    it.fixed = served["fixed"]
    it.rho_ms = served["latency_ms"]["rho"]
    return it


def run_workload(name: str, spec, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    started = time.monotonic()
    (BENCH / "out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / "out"))
    try:
        runner = Runner(workdir, started)
        runner.spawn(False, "warm", [])  # compiles bytecode; not measured
        summary = [f"workload={name} seed={seed} trace={int(trace)}"]
        if isinstance(spec, Walks):
            pairs = workdir / "pairs.jsonl"
            gen = subprocess.run(
                [sys.executable, str(BENCH / "walks.py"), "--seed", str(seed),
                 "--degree", str(spec.degree), "--per-map", str(spec.per_map),
                 "--out", str(pairs)],
                cwd=ROOT, env=runner.env, capture_output=True, text=True,
                timeout=HARD_LIMIT_S / 2,
            )
            if gen.returncode != 0:
                raise RuntimeError(f"walks input generation failed: {gen.stderr.strip()}")
            digest = gen.stdout.strip()
            total = len(pairs.read_bytes().splitlines())
            summary.append(f"input pairs={total} degree={spec.degree} sha256={digest}")

            def iteration(traced: bool) -> Iteration:
                return walks_iteration(runner, pairs, digest, total, traced)
        else:
            def iteration(traced: bool) -> Iteration:
                return cli_iteration(runner, spec, traced)

        plain: list[Iteration] = []
        traced: list[Iteration] = []
        deadline = time.monotonic() + seconds
        rounds: list[float] = []
        while True:
            t0 = time.monotonic()
            plain.append(iteration(False))
            if trace:
                traced.append(iteration(True))
            rounds.append(time.monotonic() - t0)
            if any(it.fatal for it in plain + traced):
                break
            if time.monotonic() + statistics.median(rounds) > deadline:
                break
        return _report(summary, plain, traced, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(summary: list[str], plain: list[Iteration],
            traced: list[Iteration], trace: bool) -> dict:
    everything = plain + traced
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    summary.append(
        f"iterations={len(plain)}{f'+{len(traced)} traced' if trace else ''} "
        f"attempted={attempted} failed={failed} error_rate={failed / max(attempted, 1):.6g}"
    )
    good = [it for it in plain if it.failed == 0 and it.work > 0]
    wall = statistics.median(it.wall for it in plain)
    metrics: dict[str, float] = {}
    if not trace:
        setups = [s for it in plain for s in it.setups] or [0.0]
        work = sum(it.work for it in good)
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            # Throughput over the whole run: on a host whose speed drifts over
            # tens of seconds this is steadier than a per-repetition median.
            "checks_per_s": sum(it.items for it in good) / work if work else 0.0,
            "peak_rss_mb": statistics.median(it.rss_kb / 1024 for it in plain),
        }
        paces = [p for it in plain for p in it.paces] or [1.0]
        summary.append(f"setup samples={len(setups)}; processes ran at "
                       f"{min(paces):.3f}-{max(paces):.3f} of reference speed "
                       f"(median {statistics.median(paces):.3f})")
        summary.append("repetition wall_s: " + " ".join(f"{it.wall:.3f}" for it in plain))
        summary.append("  as measured:     " + " ".join(f"{it.raw_wall:.3f}" for it in plain))
        rho = [sorted(it.rho_ms) for it in good if it.rho_ms]
        if rho:
            count = len(rho[0])
            tail = max(0, count - 11)  # highest percentile with 10 samples beyond it
            summary.append(
                f"rho_p50_ms={statistics.median(statistics.median(r) for r in rho):.4f} ms "
                f"rho_tail_ms={statistics.median(r[tail] for r in rho):.4f} ms "
                f"(p{100 * (tail + 1) / count:.1f} of {count} samples per process, "
                f"median over {len(rho)} processes)"
            )
    else:
        per_iteration = [layer_metrics(it.traces, it.pairs, it.fixed) for it in traced]
        for metric in LAYER_METRICS:
            values = [m[metric] for m in per_iteration] or [0.0]
            metrics[metric] = statistics.median(values)
        traced_wall = statistics.median(it.wall for it in traced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - wall
        absent = sorted({a for it in traced for t in it.traces for a in t["absent"]})
        if absent:
            summary.append("absent (reported as 0): " + ", ".join(absent))
    units = {**END_TO_END, **LAYER_METRICS}
    for line in summary:
        print(line)
    for metric, value in metrics.items():
        print(f"  {metric} = {value:.6g} {units[metric]}")
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kostka" / "__init__.py").is_file():
        print(f"no kostka package under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        result = run_workload(name, WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
