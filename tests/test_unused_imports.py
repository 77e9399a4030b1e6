"""Every imported name is read somewhere in the file that imports it.

No linter is part of the test tools, so this is the one check for imports
left behind when code moves.  The package's ``__init__.py`` is skipped,
since its imports are the public names it re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/randlab", "tests", "demos", "perfbench")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    """Every annotation expression: of arguments, returns and assignments."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.FunctionDef) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def read_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, also inside quoted annotations."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in read_names(tree)
    )
    assert not unused, f"{path.relative_to(ROOT)} imports but never reads: {unused}"
