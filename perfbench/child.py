"""One benchmark process: a fresh interpreter, so caches start cold.

    python3 perfbench/child.py RESULT TRACE cli ARGS...
    python3 perfbench/child.py RESULT TRACE walks PAIRS.jsonl SHA256
    python3 perfbench/child.py RESULT 0 warm

``cli`` runs ``kostka.cli.main(ARGS)`` as the ``kostka`` script does;
``walks`` reads the pair file and serves it through ``walks.serve``;
``warm`` only imports the package, so that later processes find its
bytecode compiled.  With TRACE=1 the tracer wraps the package first.

RESULT receives, as JSON, the CLOCK_MONOTONIC times at which set-up ended
and the work ended (the parent stamps the spawn on the same clock), the
same two times on the paced clock of ``pace.py`` with the time it started,
the exit code, the peak RSS, and the walk results.  Trace data goes to
RESULT.trace and RESULT.trace.spans.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
import traceback

from pace import Pace


def main(argv: list[str]) -> int:
    result_path, trace, mode, rest = argv[0], argv[1] == "1", argv[2], argv[3:]
    pace = Pace()
    pace.start()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out: dict = {"code": 1}
    try:
        if mode == "cli":
            import kostka.cli

            out["ready"], out["paced_ready"] = time.monotonic(), pace.now()
            try:
                out["code"] = kostka.cli.main(rest)
            except SystemExit as exc:
                out["code"] = exc.code if isinstance(exc.code, int) else 1
            sys.stdout.flush()
        elif mode == "walks":
            import kostka.involutions  # noqa: F401
            import kostka.serialize  # noqa: F401
            from walks import serve

            path, digest = rest
            with open(path, "rb") as fh:
                data = fh.read()
            if hashlib.sha256(data).hexdigest() != digest:
                raise ValueError(f"{path} does not match sha256 {digest}")
            objs = [json.loads(line) for line in data.decode().splitlines()]
            out["ready"], out["paced_ready"] = time.monotonic(), pace.now()
            out["walks"] = serve(objs, clock=pace.now)
            out["code"] = 0
        elif mode == "warm":
            import kostka.cli  # noqa: F401

            out["ready"], out["paced_ready"] = time.monotonic(), pace.now()
            out["code"] = 0
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except Exception:
        traceback.print_exc()
        out["code"] = 1
    out["done"], out["paced_done"] = time.monotonic(), pace.now()
    pace.stop()
    out["pace_started"] = pace.started
    out["rss_kb"] = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.dump(result_path + ".trace")
    with open(result_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
