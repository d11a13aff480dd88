"""Static checks with the stdlib alone: on the package source, and on the
names the benchmark times; and that the package's exceptions pickle."""

import ast
import importlib
import pickle
import re
from pathlib import Path

import pytest

from grcvalency import (
    BetaCodeError,
    DegenerateCentroidError,
    InsufficientDataError,
    LexiconFormatError,
    PostagError,
    TreebankParseError,
    UndefinedSimilarityError,
    VectorSpaceError,
)

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "grcvalency"
SOURCES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports only to re-export
MODULES = [path for path in SOURCES if path.name != "__init__.py"]


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


def _unread_private_names(source: str) -> list[str]:
    """The private (``_name``) functions, classes and assigned names at the
    module level of ``source`` that the module never reads."""
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [
                name.id
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
            ]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        name
        for name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_the_check_finds_an_unread_private_name():
    source = (
        "_a = 1\n_b, c = 2, 3\n_d: int = 4\n__all__ = []\n"
        "def _f():\n    return _a\nclass _C:\n    _e = 5\nx = _C\n"
    )
    assert _unread_private_names(source) == ["_b", "_d", "_f"]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_module_level_private_name_is_read(path):
    # a test that imports a private name is no reader: the module must be
    assert _unread_private_names(path.read_text(encoding="utf-8")) == []


def _private_attributes_of_others(source: str) -> list[str]:
    """The ``value._name`` attributes in ``source``, in source order, whose
    value is not ``self`` or ``cls``: a private name of another object."""
    found = [
        node
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and node.attr.startswith("_")
        and not node.attr.startswith("__")
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [ast.unparse(node) for node in found]


def test_the_check_finds_a_private_attribute_of_another_object():
    source = (
        "tree._by_id\nself._a = cls._b\nx.__dict__\nobj.public\n"
        "os._exit(f()._c)\ndef g(other):\n    return other.nodes[self._d]._e\n"
    )
    assert _private_attributes_of_others(source) == [
        "tree._by_id", "os._exit", "f()._c", "other.nodes[self._d]._e"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_no_module_reads_a_private_attribute_of_another_object(path):
    # a private name is its own class's or module's layout, free to change
    assert _private_attributes_of_others(path.read_text(encoding="utf-8")) == []


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


def _declared_floor() -> tuple[int, int]:
    """The ``(major, minor)`` of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_floor_check_rejects_newer_syntax():
    with pytest.raises(SyntaxError, match="only supported in Python 3.11"):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_every_module_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), feature_version=_declared_floor())


# one instance of every exception class the package defines, built as the
# package raises it
EXCEPTION_CASES = [
    BetaCodeError("character outside the Beta Code alphabet", "%", 3),
    LexiconFormatError("lexicon file rejected", [(2, "empty verb"), (5, "malformed frame")]),
    PostagError("unknown case letter", "q", 8),
    TreebankParseError("malformed XML: mismatched tag", 120),
    VectorSpaceError("line 3: invalid UTF-8"),
    UndefinedSimilarityError("φέρω/formulaic: ναῦς has a zero vector"),
    DegenerateCentroidError("inputs cancel out; centroid is degenerate"),
    InsufficientDataError("φέρω/baseline: 1 lemma(s) in vocabulary, need at least 2"),
]


def test_every_package_exception_has_a_pickle_case():
    defined = set()
    for path in MODULES:
        module = importlib.import_module(f"grcvalency.{path.stem}")
        defined.update(
            value
            for value in vars(module).values()
            if isinstance(value, type)
            and issubclass(value, Exception)
            and value.__module__ == module.__name__
        )
    assert {type(error) for error in EXCEPTION_CASES} == defined


@pytest.mark.parametrize("error", EXCEPTION_CASES, ids=lambda error: type(error).__name__)
def test_package_exceptions_survive_pickling(error):
    # a process pool hands a worker's exception back to its caller pickled
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)  # the attributes each class sets
