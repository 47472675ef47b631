"""Properties of the library source itself."""

import ast
from pathlib import Path

import spuncalc


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check must raise instead
    found = []
    for path in sorted(Path(spuncalc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
