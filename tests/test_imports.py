"""Every import under src/gsm_degroot/ and tests/ is used, every function
and class of the package is used or exported, every method is read, and
the CLI stays cheap to import.

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


def imported_modules(source: str) -> set[str]:
    tree = ast.parse(source)
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    return names | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module}


def test_checker_finds_both_import_forms():
    assert imported_modules("import csv\nfrom os import path\nfrom . import x\n") == {"csv", "os"}


def test_only_csvio_imports_csv():
    # csvio owns the CSV format of every result file and input
    package = ROOT / "src" / "gsm_degroot"
    importers = sorted(path.name for path in package.glob("*.py") if "csv" in imported_modules(path.read_text()))
    assert importers == ["csvio.py"]


def number_text_sites(source: str) -> list[str]:
    """Uses of repr, called or passed, and string literals holding a \\r\\n row ending."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "repr":
            sites.append(f"line {node.lineno}: repr")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "\r\n" in node.value:
            sites.append(f"line {node.lineno}: \\r\\n")
    return sites


def test_checker_finds_repr_and_row_endings():
    source = 'x = repr(1.0)\nf"{x!r}"\nopen("a").write("1,2\\r\\n")\n"""rows end in \\\\r\\\\n"""\nmap(repr, [x])\n'
    assert number_text_sites(source) == ["line 1: repr", "line 3: \\r\\n", "line 5: repr"]


def test_only_csvio_writes_the_text_of_a_number_or_a_row_ending():
    # csvio turns every number of a result file into text; writers pass numbers
    package = ROOT / "src" / "gsm_degroot"
    writers = sorted(path.name for path in package.glob("*.py") if number_text_sites(path.read_text()))
    assert writers == ["csvio.py"]


# Kept although the package never calls it: the one-step reference that
# tests/test_dynamics.py checks simulate against (and a benchmark hook).
UNCALLED_ON_PURPOSE = {"_advance"}


def _reads(tree: ast.AST) -> set[str]:
    """The names a module loads and the attributes it reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} \
        | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def unreferenced_definitions(sources: dict[str, str], exported, readers: tuple[str, ...] = ()) -> list[str]:
    """Top-level functions, classes and constants that no module of sources
    reads and exported leaves out, and methods and properties, dunders aside,
    that neither sources nor the module texts in readers read; a constant is
    a name assigned at module level."""
    defined = {}
    methods = {}
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = module
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update((target.id, module) for target in targets
                               if isinstance(target, ast.Name) and not target.id.startswith("__"))
            if isinstance(node, ast.ClassDef):
                methods.update((f"{module}: {node.name}.{item.name}", item.name) for item in node.body
                               if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))
        read |= _reads(tree)
    read_anywhere = read.union(*(_reads(ast.parse(source)) for source in readers))
    return sorted([f"{module}: {name}" for name, module in defined.items() if name not in read and name not in exported]
                  + [where for where, name in methods.items() if name not in read_anywhere])


def test_checker_flags_an_unreferenced_definition():
    sources = {"a.py": "def f(): pass\nclass C: pass\n", "b.py": "from a import f\nf()\n"}
    assert unreferenced_definitions(sources, exported=()) == ["a.py: C"]
    assert unreferenced_definitions(sources, exported=("C",)) == []


def test_checker_flags_a_constant_that_no_module_reads():
    sources = {
        "a.py": "_ROWS = 4096\n_USED: int = 2\nLIMIT = 3\n__all__ = ['g']\ndef g(): return _USED\n",
        "b.py": "import a\nx = a.LIMIT\nx = 1\n",
    }
    assert unreferenced_definitions(sources, exported=("g",)) == ["a.py: _ROWS", "b.py: x"]


def test_checker_flags_a_method_that_no_module_reads():
    sources = {"a.py": "class C:\n    def __len__(self): return 0\n    def used(self): pass\n"
                       "    @property\n    def size(self): return 1\n    def dead(self): pass\n"}
    readers = ("from a import C\nC().used()\nprint(C().size)\n",)
    assert unreferenced_definitions(sources, exported=("C",), readers=readers) == ["a.py: C.dead"]
    assert unreferenced_definitions(sources, exported=("C",)) == ["a.py: C.dead", "a.py: C.size", "a.py: C.used"]


def test_every_definition_is_used_or_exported():
    package = ROOT / "src" / "gsm_degroot"
    sources = {path.name: path.read_text() for path in package.glob("*.py")}
    readers = tuple(path.read_text() for folder in ("tests", "perfbench") for path in (ROOT / folder).glob("*.py"))
    exported = set(gsm_degroot.__all__) | UNCALLED_ON_PURPOSE
    assert unreferenced_definitions(sources, exported, readers) == []


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
