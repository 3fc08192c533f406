"""Every imported name is used in the module that imports it.

A name counts as used when the module loads it. Package `__init__.py`
files are skipped, because their imports are the package's exports, and
so is `from __future__`, which binds no name the module reads.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROOTS = (ROOT / "src" / "fbcomp", ROOT / "tests", ROOT / "tools")


def _unused(path):
    tree = ast.parse(path.read_text(), str(path))
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        for name in names:
            if name not in loaded:
                yield f"{path.relative_to(ROOT)}:{node.lineno} {name}"


def test_every_import_is_used():
    unused = [item for root in ROOTS for path in sorted(root.rglob("*.py"))
              if path.name != "__init__.py" for item in _unused(path)]
    assert unused == []
