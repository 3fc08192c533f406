"""Every def and class in the package has a caller outside the tests.

A name counts as called when some module of `src/`, `layerbench/` (its
tests excluded) or `tools/` loads it, as a name or as an attribute. The
check goes by name only, so a second definition of a loaded name passes
too; what it catches is code that only tests still reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fbcomp"

# Test oracles and observers: kept for the tests that read state the
# program never needs to read back. Each needs a reason.
TEST_ONLY = {
    "convert_pixel": "per-pixel oracle of the converted blit",
    "unpack_channels": "inverse of pack_channels, to read pixels back",
    "crc32_combine": "oracle of the CRC spliced around a damage span",
    "fill": "fills a surface with one pixel, to set up and forge frames",
    "status": "one slot's state, to observe the queue",
    "statuses": "every slot's state, to observe the queue",
}


def _trees(*roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            if "tests" not in path.relative_to(root).parts:
                yield path, ast.parse(path.read_text(), str(path))


def _defined():
    """(name, where) of every non-dunder def and class in the package."""
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not (node.name.startswith("__")
                             and node.name.endswith("__"))):
                yield node.name, f"{path.relative_to(ROOT)}:{node.lineno}"


def _loaded():
    names = set()
    for _, tree in _trees(ROOT / "src", ROOT / "layerbench", ROOT / "tools"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
    return names


def test_every_definition_has_a_caller():
    loaded = _loaded()
    uncalled = sorted(f"{where} {name}" for name, where in _defined()
                      if name not in loaded and name not in TEST_ONLY)
    assert uncalled == []
