import ast
from pathlib import Path

import hurstmodes

SRC = Path(hurstmodes.__file__).parent


def test_no_bare_assert():
    # python -O strips assert statements, so invariants must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
