"""Static checks with the stdlib alone: on the package source, and on the
names the benchmark times."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grcvalency"
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


def _stages(source: str) -> list[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of the module-level ``STAGES``."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "STAGES" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    raise AssertionError("no module-level STAGES assignment")


def test_every_benchmark_stage_resolves_in_the_package():
    # the worker skips a stage it cannot find, which would silently change
    # which calls run_s sums; so each name must resolve here
    stages = _stages((ROOT / "bench" / "worker.py").read_text(encoding="utf-8"))
    assert stages
    missing = [
        f"{module}.{attribute}"
        for module, attribute in stages
        if module.partition(".")[0] != "grcvalency"
        or not hasattr(importlib.import_module(module), attribute)
    ]
    assert missing == []
