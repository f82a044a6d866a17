"""Static checks of the package source."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "tweedenoise").glob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by an import anywhere in ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "from m import a as b" binds b
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_imports():
    source = "from __future__ import annotations\nimport os.path\nfrom json import dumps as d, loads\nloads('1')\n"
    assert unused_imports(source) == [(2, "os"), (3, "d")]


def names_read(trees) -> set:
    """Every name that the parsed ``trees`` read: by name, as an attribute or in an import."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unused_privates(sources: dict) -> list:
    """(file, line, name) of each module-level private name (``_x``) in ``sources``, a dict of
    file name to source, that no source reads: by name, as an attribute or in an import."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = names_read(trees.values())
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            found += [(name, node.lineno, b) for b in bound if b.startswith("_") and not b.startswith("__")]
    return sorted(f for f in found if f[2] not in read)


def test_every_private_name_is_read():
    assert unused_privates({p.name: p.read_text() for p in SRC}) == []


def test_the_check_sees_unused_privates():
    a = ("_A = 1\n_B: int = 2\n_C, d = 3, 4\n__all__ = []\ndef _f():\n    return _A\n"
         "class _K:\n    pass\ndef _g():\n    pass\ndef _h():\n    pass\n")
    b = "from a import _g\nimport a\na._h()\n"
    assert unused_privates({"a.py": a, "b.py": b}) == [("a.py", 2, "_B"), ("a.py", 3, "_C"), ("a.py", 5, "_f"),
                                                       ("a.py", 7, "_K")]


def unreached_exports(init: str, readers) -> list:
    """(line, name) of each name that the package ``init`` source imports, or lists in its
    ``_LAZY_EXPORTS`` tuple of names imported on first use, that no source in ``readers`` reads:
    by name, as an attribute or in an import."""
    read = names_read(ast.parse(source) for source in readers)
    tree = ast.parse(init)
    imported = [(alias.lineno, alias.asname or alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    imported += [(elt.lineno, elt.value) for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_LAZY_EXPORTS" for t in node.targets)
                 for elt in node.value.elts]
    return sorted((line, name) for line, name in imported if name not in read)


# saddle_density is the paper's saddle-point density; the test oracle that ROADMAP item 10 plans calls
# it.  An exception that a caller reaches fails the check too, so the list cannot go stale.
UNREACHED_ON_PURPOSE = ["saddle_density"]


def test_every_export_is_reached():
    readers = [p for p in SRC if p.name != "__init__.py"]
    readers += [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    found = unreached_exports((ROOT / "src" / "tweedenoise" / "__init__.py").read_text(),
                              [p.read_text() for p in readers])
    assert [name for _, name in found] == UNREACHED_ON_PURPOSE


def test_the_check_sees_unreached_exports():
    init = ("from .a import (\n    f,\n    g as h,\n    K,\n)\nfrom .b import v, w\n__version__ = '1'\n"
            "_LAZY_EXPORTS = (\n    'x',\n    'z',\n)\n")
    a = "def f():\n    return K\nclass K:\n    pass\n"
    b = "import pkg\nfrom pkg import w\npkg.f(pkg.g, pkg.z)\n"  # h is read by its exported name or not at all
    assert unreached_exports(init, [a, b]) == [(3, "h"), (6, "v"), (9, "x")]
