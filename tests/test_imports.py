"""Every import under src/gsm_degroot/ and tests/ is used, every function
and class of the package is used or exported, and the CLI stays cheap to
import.

No linter ships with the project, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the same module.
Package __init__ files are exempt, since their imports are re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsm_degroot

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "gsm_degroot", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport re\nre.compile('x')\n") == ["line 1: os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Kept although the package never calls it: the one-step reference that
# tests/test_dynamics.py checks simulate against (and a benchmark hook).
UNCALLED_ON_PURPOSE = {"_advance"}


def unreferenced_definitions(sources: dict[str, str], exported) -> list[str]:
    """Top-level functions and classes that no module reads and exported leaves out."""
    defined = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{module}: {name}" for name, module in defined.items()
                  if name not in read and name not in exported)


def test_checker_flags_an_unreferenced_definition():
    sources = {"a.py": "def f(): pass\nclass C: pass\n", "b.py": "from a import f\nf()\n"}
    assert unreferenced_definitions(sources, exported=()) == ["a.py: C"]
    assert unreferenced_definitions(sources, exported=("C",)) == []


def test_every_definition_is_used_or_exported():
    package = ROOT / "src" / "gsm_degroot"
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    exported = set(gsm_degroot.__all__) | UNCALLED_ON_PURPOSE
    assert unreferenced_definitions(sources, exported) == []


def test_cli_import_leaves_scipy_linear_algebra_unloaded():
    # scipy.sparse.csgraph pulls in scipy.sparse.linalg and scipy.linalg,
    # which add 150-200 ms to every command's start-up
    heavy = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
    code = f"import sys, gsm_degroot.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_cli_import_leaves_networkx_unloaded():
    # networkx adds 130-140 ms to start-up; the package samples the
    # barabasi-albert, watts-strogatz and erdos-renyi structures itself
    code = (
        "import sys, gsm_degroot.cli\n"
        "from gsm_degroot.graph import GraphGenSpec, generate\n"
        "generate(GraphGenSpec(family='barabasi-albert', n=50, m=2))\n"
        "generate(GraphGenSpec(family='watts-strogatz', n=50, k=4))\n"
        "generate(GraphGenSpec(family='erdos-renyi', n=50, edge_prob=0.2))\n"
        "print('networkx' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    assert done.stdout.strip() == "False"
