"""Source-level checks over the package modules."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chebsum"


def test_no_assert_statements():
    # Invariants must raise a ChebsumError: an assert vanishes under python -O.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in src/chebsum: {found}"
