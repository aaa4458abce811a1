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


def _imported_modules(tree) -> set[str]:
    """hurstmodes modules a source file imports, by their short name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1:
                names.update([node.module.split(".")[0]] if node.module else [a.name for a in node.names])
            elif node.level == 0 and (node.module or "").startswith("hurstmodes."):
                names.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("hurstmodes."))
    return names


def test_layering():
    # the statistics reach cluster, selection and gmm as plain sorted arrays;
    # only the harness turns wavelet random matrices into them.  The wavelet
    # transform takes the panel's array, so it knows nothing of synth
    imports = {path.stem: _imported_modules(ast.parse(path.read_text())) for path in SRC.glob("*.py")}
    scaling_users = sorted(m for m, names in imports.items() if "scaling" in names)
    assert scaling_users == ["__init__", "harness"]
    for module in ("cluster", "selection", "gmm"):
        assert "wavelet" not in imports[module], module
    assert imports["wavelet"] == {"errors"}
