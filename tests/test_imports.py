"""Every module under ``src/`` and ``tests/`` uses each name it imports.

A name counts as used when it appears as a name anywhere in the module, as
the root of an attribute chain, or in the module's ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names the module imports and never uses, in source order."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_the_scan_finds_unused_imports():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os", "b"]


def test_modules_use_every_import():
    unused = {str(m): unused_imports((ROOT / m).read_text()) for m in MODULES}
    assert {m: names for m, names in unused.items() if names} == {}
