"""One rule for every integer count the package takes.

Tensor order and dimension, Monte Carlo samples, grid steps, multistart
starts and iteration caps are all checked by ``complexity._count``: an
integer (a bool is not) at or above its minimum.  A hand-written copy of the
rule drifts from it (copies once accepted 2.5, ``True`` or nan), so this
guard allows ``isinstance(..., bool)`` in ``src/`` only inside that function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tensorlandscape"


def _bool_checks(tree: ast.Module) -> list[str]:
    """The enclosing function of each ``isinstance(_, bool)`` or
    ``isinstance(_, (..., bool, ...))`` call, "<module>" at top level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in names):
                found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, "<module>")
    return found


def test_the_count_rule_is_written_once():
    checks = {path.name: _bool_checks(ast.parse(path.read_text(encoding="utf-8")))
              for path in sorted(SRC.glob("*.py"))}
    assert {name: where for name, where in checks.items() if where} == {
        "complexity.py": ["_count"]}
