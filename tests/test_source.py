"""Static checks with the stdlib alone: on the package source and its
import graph, and on the names the benchmark times; and that the package's
exceptions pickle."""

import ast
import importlib
import pickle
import re
from pathlib import Path

import pytest

import grcvalency.cli as cli
from grcvalency import (
    BetaCodeError,
    DegenerateCentroidError,
    InputError,
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


def _worker_table(table: str) -> list[tuple[str, str]]:
    """The ``(module, attribute)`` pairs that open the tuples of
    ``bench/worker.py``'s module-level ``table``; the elements after them
    need not be literals."""
    source = (ROOT / "bench" / "worker.py").read_text(encoding="utf-8")
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == table for target in node.targets
        ):
            return [tuple(ast.literal_eval(item) for item in row.elts[:2]) for row in node.value.elts]
    raise AssertionError(f"no module-level {table} assignment")


def _unresolved(names: list[tuple[str, str]]) -> list[str]:
    return [
        f"{module}.{attribute}"
        for module, attribute in names
        if module.partition(".")[0] != "grcvalency"
        or not hasattr(importlib.import_module(module), attribute)
    ]


def test_every_benchmark_stage_resolves_in_the_package():
    # the worker skips a stage it cannot find, which would silently change
    # which calls run_s sums; so each name must resolve here
    stages = _worker_table("STAGES")
    assert stages
    assert _unresolved(stages) == []


@pytest.mark.parametrize("table", ["COMMAND_LAYERS", "QUERY_LAYERS"])
def test_every_traced_layer_resolves_in_the_package(table):
    # a traced run patches each layer unchecked, so a name missing here
    # (an import dropped from a module) would crash `bench/run.py --trace 1`
    layers = _worker_table(table)
    assert layers
    assert _unresolved(layers) == []


def _called_names(source: str) -> set[str]:
    """The bare names that ``source`` calls."""
    return {
        node.func.id
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_the_check_finds_a_name_imported_but_never_called():
    source = "from .treebank import load, parse, validate\nvalidate(x)\nhandler = parse\nobj.load()\n"
    assert _called_names(source) == {"validate"}


@pytest.mark.parametrize("table", ["STAGES", "COMMAND_LAYERS"])
def test_every_benchmark_stage_is_called_by_its_name_in_its_module(table):
    # a name that resolves but is never called there (a dead import) would be
    # wrapped without error and time nothing: its stage would go dark
    uncalled = []
    for module, attribute in _worker_table(table):
        path = Path(importlib.import_module(module).__file__)
        if attribute not in _called_names(path.read_text(encoding="utf-8")):
            uncalled.append(f"{module}.{attribute}")
    assert uncalled == []


def test_the_traced_frame_parser_keeps_its_cache():
    # a traced query mix reads parse_frame's hit ratio from cache_info()
    assert hasattr(importlib.import_module("grcvalency.lexicon").parse_frame, "cache_info")


def _module_imports(source: str) -> set[str]:
    """What the module-level imports of ``source`` load: ``from .x import``
    gives ``x``, ``from . import`` gives ``__init__``, and ``import a.b`` or
    ``from a.b import`` gives the top-level ``a``."""
    loaded = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            loaded.add((node.module or "__init__") if node.level else node.module.partition(".")[0])
        elif isinstance(node, ast.Import):
            loaded.update(alias.name.partition(".")[0] for alias in node.names)
    return loaded


def _reachable(start: str, graph: dict[str, set[str]]) -> set[str]:
    seen, stack = set(), [start]
    while stack:
        name = stack.pop()
        if name not in seen:
            seen.add(name)
            stack.extend(graph.get(name, ()))
    return seen


def test_the_import_walk_follows_module_level_imports_only():
    source = (
        "import os.path\nfrom . import __version__\nfrom .frames import x\n"
        "from numpy.linalg import norm\ndef f():\n    from .lexicon import y\n"
    )
    assert _module_imports(source) == {"os", "__init__", "frames", "numpy"}
    assert _reachable("a", {"a": {"b"}, "b": {"c", "a"}, "d": {"a"}}) == {"a", "b", "c"}


def test_numpy_loads_only_with_the_lexicon_and_semantics_modules():
    # extract, betacode and --version must run where numpy is not installed
    graph = {path.stem: _module_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name for name, loaded in graph.items() if "numpy" in loaded} == {"lexicon", "semantics"}
    for start in ("cli", "__init__"):
        assert _reachable(start, graph) & {"lexicon", "semantics", "numpy"} == set(), start


def _dotted_imports(source: str) -> set[str]:
    """Every module an import statement anywhere in ``source`` names, dotted
    in full: ``from a.b import c`` gives ``a.b`` and ``a.b.c``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _imports_elementtree(source: str) -> bool:
    return any(name.startswith("xml.etree") for name in _dotted_imports(source))


def test_the_check_finds_elementtree_however_it_is_imported():
    for source in ("import xml.etree.ElementTree as ET\n", "from xml import etree\n",
                   "def f():\n    from xml.etree import ElementTree\n"):
        assert _imports_elementtree(source), source
    assert not _imports_elementtree("from xml.parsers import expat\nfrom . import etree\n")


def test_no_module_imports_elementtree():
    # the treebank reader drives expat itself, so an ElementTree import
    # would only add to every command's start-up
    importing = [path.name for path in SOURCES if _imports_elementtree(path.read_text(encoding="utf-8"))]
    assert importing == []


ROW_FORMAT = {"COLUMNS", "FRAME_GRAMMAR"}


def _row_format_names(source: str) -> set[str]:
    """The names of :data:`ROW_FORMAT` that ``source`` names, imports or
    reads as an attribute."""
    named = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    return named & ROW_FORMAT


def test_the_check_finds_the_row_format_however_it_is_named():
    source = "from .frames import COLUMNS as c\nimport frames\nframes.FRAME_GRAMMAR\nFIGURE1_COLUMNS\n"
    assert _row_format_names(source) == ROW_FORMAT
    assert _row_format_names("'COLUMNS'\nFIGURE1_COLUMNS\n") == set()


def test_only_the_frames_module_names_the_lexicon_row_format():
    # the TSV's columns and frame grammar are decided where it is read and written
    naming = {path.stem for path in SOURCES if _row_format_names(path.read_text(encoding="utf-8"))}
    assert naming == {"frames"}


# the place of a rejection in its input: a `line {n}:` prefix, or a kind of
# file named before its line
REJECTION_PREFIX = re.compile(
    r"line \{[^}]*\}:|span file line|config line|manifest line|lexicon file rejected"
)


def test_the_check_finds_a_rejection_prefix_however_it_is_spelled():
    for source in ('f"line {n}: bad"', 'f"line {n + 1}:"', '"config line 3"', "'manifest line'",
                   '"span file line"', '"lexicon file rejected"'):
        assert REJECTION_PREFIX.search(source), source
    assert not REJECTION_PREFIX.search('f"duplicate key (first at line {first})"')


def test_only_the_output_module_words_a_rejection():
    # every text input is rejected as `<path>: line N: <detail>`, worded by output.InputError
    wording = {
        path.stem for path in SOURCES if REJECTION_PREFIX.search(path.read_text(encoding="utf-8"))
    }
    assert wording == {"output"}


def _declared_floor() -> tuple[int, int]:
    """The ``(major, minor)`` of ``requires-python = ">=X.Y"`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M).groups()
    return int(major), int(minor)


def test_the_package_declares_its_version_and_console_script_once():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"]
    assert project["project"]["dynamic"] == ["version"]
    version = project["tool"]["setuptools"]["dynamic"]["version"]
    assert version == {"attr": "grcvalency.__version__"}
    module, _, name = project["project"]["scripts"]["grcvalency"].partition(":")
    assert getattr(importlib.import_module(module), name) is cli.main


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
    InputError([(2, "expected key=value")], Path("case.conf")),
    LexiconFormatError([(2, "empty verb"), (5, "malformed frame")], "lexicon.tsv"),
    PostagError("unknown case letter", "q", 8),
    TreebankParseError("malformed XML: mismatched tag", 120),
    VectorSpaceError([(3, "invalid UTF-8")], "vectors.txt"),
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
