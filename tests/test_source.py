"""Properties of the library source itself."""

import ast
import contextlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spuncalc
import spuncalc.cli  # loads every module the benchmark tracer wraps
from spuncalc import cli, errors, fourman, lens, spun

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


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
    normalize = spun.normalize
    binders = (spun, lens, cli, fourman)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert lens.cf_expand is not original
        # the tracer's fourman target is the one normalize every module
        # binds, so fourman.self_s counts it on every lens job; a second
        # copy in fourman would be wrapped alone and read 0
        assert spun.normalize is not normalize
        assert all(m.normalize is spun.normalize for m in binders)
    finally:
        tracer.uninstall()
    assert lens.cf_expand is original
    assert all(m.normalize is normalize for m in binders)


# the modules that importing each module must not load: spun is the one
# module that turns parities into targets, so the atom evaluator in
# fourman is on neither its path nor the lens path; the lens value is an
# exact pair of ints, so no command loads fractions (nor decimal, which it
# imports); the value classes are plain classes, so no import loads
# dataclasses, only a timestamped report loads datetime, and only an argv
# the table reader leaves to argparse loads argparse (and gettext). A key
# may name interpreter flags after the module: with -S, no .pth hook of
# site loads a module the import itself would not, so only corpus commands
# load importlib.resources and nothing loads pathlib
UNRELATED = {
    "spuncalc.planar": ("spuncalc.cli", "spuncalc.lens", "spuncalc.surgery"),
    "spuncalc.spun": ("spuncalc.cli", "spuncalc.lens", "spuncalc.surgery", "spuncalc.fourman"),
    "spuncalc.lens": ("spuncalc.cli", "spuncalc.fourman"),
    "spuncalc.cli": ("fractions", "decimal", "dataclasses", "datetime", "argparse", "gettext"),
    "spuncalc.cli -S": ("importlib.resources", "pathlib"),
}


@pytest.mark.parametrize("key", UNRELATED)
def test_importing_one_module_loads_no_unrelated_one(key):
    # the package re-exports nothing, so its modules load only what they import
    module, *flags = key.split()
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(spuncalc.__file__))}
    code = (f"import sys, {module}; "
            f"print(sorted(m for m in {UNRELATED[key]!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


def test_every_error_class_is_named_outside_errors():
    # a class no other module raises or catches is dead code
    package = Path(spuncalc.__file__).parent
    others = "".join(path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))
                     if path.name != "errors.py")
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, Exception)
               and obj.__module__ == errors.__name__ and obj is not errors.SpuncalcError]
    assert classes
    assert [name for name in classes if not re.search(rf"\b{name}\b", others)] == []


def test_readme_python_example_prints_its_comments():
    # the README's library example, run as written: each print() line ends
    # in a comment giving what it prints
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                          re.DOTALL)
    expected = "".join(line.split("# ", 1)[1] + "\n"
                       for line in block.splitlines() if line.startswith("print("))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert expected == "#^2 S2x~S2\n"
    assert out.getvalue() == expected


def test_one_builder_skips_the_constructor_checks():
    # errors.unchecked is the one way to build an object without its checks:
    # no class keeps a _trusted twin, and object.__new__ appears nowhere else
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(Path(spuncalc.__file__).parent.glob("*.py"))}
    assert [name for name, text in sources.items() if re.search(r"def _trusted\b", text)] == []
    assert {name: text.count("object.__new__") for name, text in sources.items()
            if "object.__new__" in text} == {"errors.py": 1}
    assert "object.__new__" in inspect.getsource(errors.unchecked)
