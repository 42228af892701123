"""Properties of the package source itself."""

import ast
import re
from pathlib import Path

import pytest

import coxbrick

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "coxbrick").glob("*.py"))
# the code whose references keep a definition in `src/`; tests do not count
CALLERS = [*SOURCES, *(ROOT / "scripts").rglob("*.py"), *(ROOT / "benchmark").rglob("*.py")]

# definitions nothing in the program calls, kept on purpose
UNCALLED = {
    "grids.projective_rep": "Pi e_l, the reference that a quiver-built Pi e_l is compared with",
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements, so no check may rely on one.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    top = {id(node) for node in tree.body}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert not lines, f"{path.name}: import below module level at lines {lines}"


def _definitions(path: Path):
    """(qualified name, name) of each top-level function and class of a
    module and of each method of its classes other than dunders."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{path.stem}.{node.name}.{item.name}", item.name


def _references(path: Path) -> set[str]:
    """Identifiers, attribute names, imported names, and the identifiers
    inside string literals other than docstrings (tracing targets such as
    "bricks:rep_from_params_a", suite names passed to getattr)."""
    tree = ast.parse(path.read_text())
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_every_definition_in_src_is_called():
    referenced = set(coxbrick.__all__).union(*(_references(p) for p in CALLERS))
    defined = [qual for p in SOURCES for qual, name in _definitions(p) if name not in referenced]
    assert sorted(defined) == sorted(UNCALLED)
