"""Static checks on the package source, with the stdlib's ``ast`` alone."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "grcvalency"
# __init__.py imports only to re-export
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of ``source`` that the
    module never names."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                imported.append(alias.asname or alias.name.partition(".")[0])
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in named]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport xml.dom\nfrom a import b as c, d\nxml.dom\nd()\n"
    assert _unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_module_level_import_is_used(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
