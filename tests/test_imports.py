"""Imports and definitions that nothing needs.

Every module under ``src/`` and ``tests/`` uses each name it imports: a name
counts as used when it appears as a name anywhere in the module, as the root
of an attribute chain, or in the module's ``__all__``.

Every function, class and method under ``src/`` is needed by the program,
the benchmark or the acceptance gate, not only by unit tests: its name is
referenced from ``src/`` outside its own definition, from ``pipebench/``,
from ``tests/test_acceptance.py`` or from ``tests/helpers.py``. A reference
is a name, an attribute or a string constant equal to the name, since the
benchmark patches attributes by name and the engine reads one through
``getattr``. Names in an ``__all__`` list are exported, not referenced.
Dunder methods run without being named and are not checked, nor is
``generate_state``, which numpy's bit generators call by name on the seed
sequence they are given.

Every parameter with a default, of such a function or method or of a
dataclass, is passed by some call in those same places, by keyword or by
position; a call matches by the name it is made through, and a class's
``__init__`` is called through the class name. Nested functions and
dataclass fields declared with ``field(...)`` are not checked.

Every attribute the benchmark's tracer wraps (``pipebench.spans.boundaries``)
resolves to a callable.
"""

import ast
import math
import textwrap
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
)
SOURCES = sorted((ROOT / "src").rglob("*.py"))
NEEDING = [
    *sorted((ROOT / "pipebench").rglob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "helpers.py",
]


#: Methods other code calls by name on objects the program hands it, so
#: nothing under ``src/`` names them; treated like dunders.
CALLED_BY_NAME = {"generate_state"}


def _runs_unnamed(name: str) -> bool:
    return name.startswith("__") or name in CALLED_BY_NAME


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
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
        elif _is_all(node):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def _references(node) -> Counter:
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            refs[sub.value] += 1
    return refs


def _definitions(tree):
    """(qualified name, node) of each top-level function and class and each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _runs_unnamed(item.name):
                    yield f"{node.name}.{item.name}", item


def unneeded_definitions(sources: list[str], needing: list[str]) -> list[str]:
    """Definitions in ``sources`` that no source names outside themselves."""
    trees = [ast.parse(source) for source in sources]
    refs = Counter()
    for tree in trees + [ast.parse(source) for source in needing]:
        refs += _references(tree)
        for node in tree.body:
            if _is_all(node):
                refs -= _references(node)
    return [
        qualname
        for tree in trees
        for qualname, node in _definitions(tree)
        if refs[node.name] <= _references(node)[node.name]
    ]


def _is_dataclass(node) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _function_defaults(node, is_method: bool):
    """(call position or None, name) of each parameter of ``node`` that has a default.

    A method's positions leave out ``self``.
    """
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    for index in range(first, len(positional)):
        yield index - is_method, positional[index].arg
    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _defaults(tree):
    """(call name, qualified name, position or None, parameter) of each defaulted parameter."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            for index, arg in _function_defaults(node, False):
                yield node.name, node.name, index, arg
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and (
                item.name == "__init__" or not _runs_unnamed(item.name)
            ):
                call = node.name if item.name == "__init__" else item.name
                for index, arg in _function_defaults(item, True):
                    yield call, f"{node.name}.{item.name}", index, arg
        if _is_dataclass(node):
            fields = [
                item for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            for index, item in enumerate(fields):
                value = item.value
                if value is None or (
                    isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field"
                ):
                    continue
                yield node.name, node.name, index, item.target.id


def _passed(trees) -> dict:
    """Per call name, the most positional arguments and the keywords any call passes."""
    passed = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            most, keywords = passed.get(name, (0, set()))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            passed[name] = (max(most, count), keywords | {k.arg for k in node.keywords})
    return passed


def unpassed_defaults(sources: list[str], needing: list[str]) -> list[str]:
    """Defaulted parameters in ``sources`` that no call in either list passes."""
    trees = [ast.parse(source) for source in sources]
    passed = _passed(trees + [ast.parse(source) for source in needing])
    unpassed = []
    for tree in trees:
        for call, qualname, index, arg in _defaults(tree):
            most, keywords = passed.get(call, (0, set()))
            if arg in keywords or None in keywords:
                continue
            if index is not None and most > index:
                continue
            unpassed.append(f"{qualname}({arg})")
    return unpassed


def test_the_scan_finds_unused_imports():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["os", "b"]


def test_modules_use_every_import():
    unused = {str(m): unused_imports((ROOT / m).read_text()) for m in MODULES}
    assert {m: names for m, names in unused.items() if names} == {}


def test_the_scan_finds_definitions_only_tests_need():
    source = textwrap.dedent(
        """
        __all__ = ["exported"]

        def used(): pass
        def exported(): pass
        def recursive(): return recursive()

        class Kernel:
            def __len__(self): return 0
            def by_getattr(self): pass
            def tested(self): pass
            def generate_state(self, n_words, dtype=None): pass
            def generate(self): pass
        """
    )
    needing = "used()\nk = Kernel()\ngetattr(k, 'by_getattr')\n"
    assert unneeded_definitions([source], [needing]) == [
        "exported", "recursive", "Kernel.tested", "Kernel.generate",
    ]


def test_every_definition_is_needed_beyond_unit_tests():
    sources = [path.read_text() for path in SOURCES]
    needing = [path.read_text() for path in NEEDING]
    assert unneeded_definitions(sources, needing) == []


def test_the_scan_finds_defaults_no_call_passes():
    source = textwrap.dedent(
        """
        from dataclasses import dataclass, field

        def f(a, b=1, c=2, *, d=3, e=4):
            def nested(x=label): pass
            return nested

        @dataclass
        class Settings:
            size: int
            cap: int = 5
            spare: int = 6
            cache: dict = field(default_factory=dict)

            def scaled(self, by=1.0, floor=0.0): pass

        class Plain:
            def __init__(self, width=1, height=2): pass
            def generate_state(self, n_words, dtype=None): pass
        """
    )
    needing = "f(0, 1, e=2)\nSettings(1, 2)\ns.scaled(2.0)\nPlain(**sizes)\n"
    assert unpassed_defaults([source], [needing]) == [
        "f(c)", "f(d)", "Settings.scaled(floor)", "Settings(spare)",
    ]


def test_every_default_is_passed_beyond_unit_tests():
    sources = [path.read_text() for path in SOURCES]
    needing = [path.read_text() for path in NEEDING]
    assert unpassed_defaults(sources, needing) == []


def test_benchmark_span_boundaries_resolve(monkeypatch):
    """A rename under ``src/`` fails here, not when ``--trace 1`` installs its spans."""
    monkeypatch.syspath_prepend(str(ROOT))
    from pipebench.spans import boundaries

    missing = [
        f"{owner.__name__}.{attr}"
        for owner, attr, _, _ in boundaries()
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
