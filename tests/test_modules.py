"""How the package's modules fit together: each imports on its own, and the
names the benchmark wraps by path still resolve."""

import os
import pathlib
import subprocess
import sys

import pytest

from sopa.autodiff import Tape

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(p.stem for p in (SRC / "sopa").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_first_in_a_fresh_process(module):
    # an import cycle fails for some first imports and not for others, so
    # each module goes first in a process of its own
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", f"import sopa.{module}"], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_benchmarks_wrapped_names_resolve(monkeypatch):
    # bench/tracing.py wraps functions by module and attribute path; a moved
    # name would otherwise show only in a traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leaves bench/ as it is
    import tracing
    import workloads  # noqa: F401 -- its own imports from sopa must resolve too

    # the tracer's uninstall sets back the plain function getattr read, not
    # the staticmethod; the class keeps its own attribute
    monkeypatch.setattr(Tape, "pattern_affine", Tape.__dict__["pattern_affine"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
