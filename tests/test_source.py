"""Properties of the library source itself."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import spuncalc
import spuncalc.cli  # loads every module the benchmark tracer wraps
from spuncalc import lens

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check must raise instead
    found = []
    for path in sorted(Path(spuncalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_every_name_the_benchmark_tracer_wraps_exists():
    # the tracer wraps library functions by name and raises MissingTarget
    # for one that was deleted or renamed
    spec = importlib.util.spec_from_file_location("spuncalc_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    original = lens.cf_expand
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert lens.cf_expand is not original
    finally:
        tracer.uninstall()
    assert lens.cf_expand is original


def test_importing_one_module_loads_no_unrelated_one():
    # the package re-exports nothing, so its modules load only what they import
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spuncalc.__file__))}
    code = ("import sys, spuncalc.planar; "
            "print(sorted(m for m in ('spuncalc.cli', 'spuncalc.lens', 'spuncalc.surgery') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"
