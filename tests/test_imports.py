"""Importing the command line loads none of the heavy standard modules: the
package's records are tuples (no ``dataclasses``, which imports
``inspect``), and the verifier imports ``multiprocessing`` only as it
starts a pool (``tests/test_pools.py``).  Checked in a fresh interpreter
without ``site``, so nothing but ``kostka.cli`` can load them."""

import subprocess
import sys
from pathlib import Path

import kostka

HEAVY = ("dataclasses", "inspect", "multiprocessing")


def test_importing_the_cli_loads_no_heavy_module():
    src = str(Path(kostka.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import kostka.cli; "
            f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
