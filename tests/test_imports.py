"""Every module of the package uses each name it imports, every public name has a caller, and the package runs on NumPy alone."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "farrowsync"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def uncalled_public_names(sources: list[str]) -> list[str]:
    """Top-level public functions and classes that no source reads, by name or attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(defined - read)


def unread_public_members(sources: list[str]) -> list[str]:
    """``Class.member`` for each public method or property of a public top-level class that no source reads as an attribute."""
    trees = [ast.parse(source) for source in sources]
    members = {
        f"{cls.name}.{node.name}": node.name
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    read = {node.attr for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return sorted(member for member, name in members.items() if name not in read)


#: Public members kept without a reader in the package, with the reason.
READER_EXEMPT = {
    "HarmonicSignalModel.evaluate": "the direct-summation reference that the signal tests compare the fast paths against",
}


def test_detector_flags_only_unread_names():
    assert unused_imports("import os, sys\nfrom a.b import c as d, e\nprint(sys.argv, d)\n") == ["e", "os"]


def test_caller_detector_flags_only_unread_public_names():
    sources = ["def f(): pass\ndef g(): pass\ndef _h(): pass\nclass C: pass\n", "from m import f\nf()\nx = obj.C\n"]
    assert uncalled_public_names(sources) == ["g"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / f"{module}.py").read_text()) == []


def test_every_public_function_and_class_has_a_caller_in_the_package():
    # The package's __init__ only re-exports, so an export is not a caller.
    assert uncalled_public_names([(PACKAGE / f"{module}.py").read_text() for module in MODULES]) == []


def test_member_detector_flags_only_unread_public_members():
    sources = [
        "class C:\n    def f(self): pass\n    @property\n    def g(self): pass\n    def _h(self): pass\n    def __len__(self): pass\nclass _D:\n    def k(self): pass\n",
        "c.f()\n",
    ]
    assert unread_public_members(sources) == ["C.g"]


def test_every_public_method_and_property_has_a_reader_in_the_package():
    unread = unread_public_members([(PACKAGE / f"{module}.py").read_text() for module in MODULES])
    assert sorted(set(unread) - set(READER_EXEMPT)) == []
    assert sorted(set(READER_EXEMPT) - set(unread)) == []  # an exemption that gained a reader is stale


def imported_modules(source: str) -> list[str]:
    """Absolute module names that an import statement anywhere in ``source`` names."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.append(node.module)
    return names


def scipy_imports(source: str) -> list[str]:
    """Modules of ``scipy`` that an import statement anywhere in ``source`` names."""
    return [name for name in imported_modules(source) if name.split(".")[0] == "scipy"]


def test_no_module_imports_scipy():
    # The package runs on NumPy alone; even scipy.fft loads scipy.special and
    # costs about 0.25 s and 20 MB per process on a 2-core VM.
    assert scipy_imports("import scipy.signal as ss\nfrom scipy import fft\nfrom scipy.fft import fft\nimport scipyx\nfrom . import scipy\n") == ["scipy.signal", "scipy", "scipy.fft"]
    assert {module: scipy_imports((PACKAGE / f"{module}.py").read_text()) for module in MODULES} == {module: [] for module in MODULES}


def test_importing_the_cli_loads_no_scipy_module():
    probe = "import farrowsync.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
    assert result.stdout.strip() == "[]"


def test_declared_dependencies_are_the_third_party_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    declared = tomllib.loads((PACKAGE.parents[1] / "pyproject.toml").read_text())["project"]["dependencies"]
    declared_names = {re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower().replace("-", "_") for requirement in declared}
    top_level = {name.split(".")[0] for path in PACKAGE.glob("*.py") for name in imported_modules(path.read_text())}
    assert declared_names == top_level - sys.stdlib_module_names == {"numpy"}
