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


LIBRARY = ("core", "involutions", "matrices", "rimhooks", "tableaux", "tunnelhooks")


def test_the_package_binds_only_its_modules():
    """Each name has one home, its module: ``import kostka`` loads the library
    modules as attributes of the package, binds no function or class of its
    own, and ``kostka.matrices.sym_K`` is reached through its module."""
    src = str(Path(kostka.__file__).resolve().parents[1])
    code = (f"import sys, types; sys.path.insert(0, {src!r}); import kostka; "
            f"print([m for m in {LIBRARY!r} if not isinstance(getattr(kostka, m, None), types.ModuleType)]); "
            "print(sorted(k for k, v in vars(kostka).items() if isinstance(v, (type, types.FunctionType)))); "
            "print(kostka.matrices.sym_K(3).entries[0])")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n[]\n(1, 1, 1)\n", "")
