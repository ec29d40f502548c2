"""Every module of the package uses each name it imports, and every public name has a caller."""

import ast
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
