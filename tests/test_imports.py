"""Fresh interpreters: the numpy modules (lexicon, semantics, casestudy)
load only with the commands and names that use them: ``extract``,
``betacode`` and ``--version`` run with numpy blocked, the package's public
names resolve on first use, and a wrapper set on ``cli`` before any numpy
command has run is the function that command calls.  A run writes the same
bytes whatever the interpreter's string hash seed."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import grcvalency
import grcvalency.cli as cli

from conftest import CORPUS_DIR, GOLDEN_LEXICON, MANIFEST_FILE
from test_cli import _write_case_files

SOURCE = Path(grcvalency.__file__).resolve().parent.parent

# every name the package exported when it imported all its modules eagerly
PUBLIC_NAMES = (
    "BetaCodeError", "beta_to_unicode", "CaseStudyConfig", "CaseStudyResult",
    "CaseStudySelection", "TrVObjPair", "VerbComparison", "load_config", "run_case_study",
    "select_case_study", "write_case_study_outputs", "ArgumentSlot", "FrameElement",
    "LexiconEntry", "collect_arguments", "extract_entries", "ConstructionRecord", "Lexicon",
    "LexiconFormatError", "constructions_for_verb", "diff_constructions", "frame_frequencies",
    "parse_frame", "query_entries", "read_lexicon", "stats_basic", "stats_by_author",
    "write_lexicon", "PosTag", "PostagError", "decode_postag", "encode_postag",
    "DegenerateCentroidError", "InsufficientDataError", "SimilarityDistribution",
    "UndefinedSimilarityError", "VectorSpace", "VectorSpaceError", "centroid_similarities",
    "cosine_similarity", "load_vector_space", "KSResult", "boxplot_stats", "ks_two_sample",
    "significance_stars", "summarize", "SentenceTree", "TreebankParseError",
    "ValidationReport", "WordNode", "load_manifest", "normalize_lemma",
    "parse_treebank_file", "validate_sentence",
)

# a command line run with every import of numpy failing
_NUMPY_BLOCKED = (
    "import sys; sys.modules['numpy'] = None; "
    "from grcvalency.cli import main; sys.exit(main(sys.argv[1:]))"
)


def _python(*args, cwd=None, **environ):
    """A fresh interpreter that imports grcvalency from this checkout, with
    ``environ`` added to its environment."""
    paths = [str(SOURCE), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(
        os.environ, PYTHONPATH=os.pathsep.join(paths), PYTHONIOENCODING="utf-8", **environ
    )
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120
    )


def test_importing_the_package_and_the_cli_loads_no_numpy():
    code = (
        "import sys, grcvalency, grcvalency.cli; "
        "print(sorted(name for name in sys.modules if name.partition('.')[0] == 'numpy'"
        " or name in ('grcvalency.lexicon', 'grcvalency.semantics', 'grcvalency.casestudy')))"
    )
    run = _python("-c", code)
    assert run.returncode == 0, run.stderr
    assert run.stdout == b"[]\n"


COMMANDS = {
    "extract": ["extract", str(CORPUS_DIR), "--manifest", str(MANIFEST_FILE), "-o", "lexicon.tsv"],
    "extract-figure1": [
        "extract", str(CORPUS_DIR), "--manifest", str(MANIFEST_FILE), "-o", "lexicon.tsv",
        "--figure1-layout",
    ],
    "betacode": ["betacode", "lo/gos"],
    "betacode-file": ["betacode", "--file", "lines.txt"],
    "version": ["--version"],
}


def _outputs(directory):
    """Every file in ``directory`` by name, a manifest without its timestamp."""
    outputs = {}
    for path in sorted(directory.iterdir()):
        outputs[path.name] = path.read_bytes()
        if path.name.endswith("manifest.json"):
            manifest = json.loads(outputs[path.name])
            del manifest["timestamp"]
            outputs[path.name] = manifest
    return outputs


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_a_command_that_needs_no_numpy_runs_as_it_does_with_numpy(
    argv, tmp_path, monkeypatch, capsys
):
    normal, blocked = tmp_path / "normal", tmp_path / "blocked"
    for directory in (normal, blocked):
        directory.mkdir()
        (directory / "lines.txt").write_text("lo/gos\nfrenw=n\n", encoding="utf-8")
    monkeypatch.chdir(normal)
    try:
        code = cli.main(argv)
    except SystemExit as exit:  # --version exits from the parser
        code = exit.code
    captured = capsys.readouterr()
    run = _python("-c", _NUMPY_BLOCKED, *argv, cwd=blocked)
    assert run.returncode == code, run.stderr
    assert run.stdout.decode("utf-8") == captured.out
    assert run.stderr.decode("utf-8") == captured.err
    assert _outputs(blocked) == _outputs(normal)


NUMPY_COMMANDS = {
    "stats": ["stats", str(GOLDEN_LEXICON)],
    "query": ["query", str(GOLDEN_LEXICON), "--verb", "φέρω"],
    "constructions": ["constructions", str(GOLDEN_LEXICON), "--verb", "φέρω"],
    "casestudy": ["casestudy", "--config", "case.conf"],
}


@pytest.mark.parametrize("argv", NUMPY_COMMANDS.values(), ids=NUMPY_COMMANDS.keys())
def test_a_command_that_needs_numpy_fails_on_one_error_line_without_it(argv, tmp_path):
    _write_case_files(tmp_path)  # writes the case.conf that casestudy reads
    run = _python("-c", _NUMPY_BLOCKED, *argv, cwd=tmp_path)
    assert run.returncode == 1
    assert run.stdout == b""
    [line] = run.stderr.decode("utf-8").splitlines()
    assert line.startswith("error: ") and "numpy" in line


_RECORDING = """
import importlib, json, sys
import grcvalency.cli as cli

calls = []

def recording(module, name):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return getattr(importlib.import_module(module), name)(*args, **kwargs)
    return wrapper

# set without reading the names first, before any numpy command has run
cli.read_lexicon = recording("grcvalency.lexicon", "read_lexicon")
cli.load_vector_space = recording("grcvalency.semantics", "load_vector_space")
numpy_before = "numpy" in sys.modules
codes = [cli.main(["stats", sys.argv[1]]), cli.main(["casestudy", "--config", sys.argv[2]])]
kept = [cli.read_lexicon.__name__, cli.load_vector_space.__name__]
print(json.dumps({"numpy_before": numpy_before, "codes": codes, "calls": calls, "kept": kept}))
"""


def test_a_wrapper_set_on_the_cli_before_a_numpy_command_is_what_the_command_calls(tmp_path):
    # the benchmark's worker times its stages by wrapping these names on cli
    config_path = _write_case_files(tmp_path)
    run = _python("-c", _RECORDING, str(tmp_path / "lexicon.tsv"), str(config_path))
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.decode("utf-8").splitlines()[-1])
    assert result == {
        "numpy_before": False,
        "codes": [0, 0],
        "calls": ["read_lexicon", "read_lexicon", "load_vector_space"],
        "kept": ["wrapper", "wrapper"],
    }


def test_every_public_name_resolves_from_the_package():
    namespace = {}
    exec(f"from grcvalency import {', '.join(PUBLIC_NAMES)}", namespace)
    assert [name for name in PUBLIC_NAMES if namespace[name].__name__ != name] == []
    assert all(namespace[name] is getattr(grcvalency, name) for name in PUBLIC_NAMES)


def test_an_unknown_name_is_no_attribute_of_the_package_or_the_cli():
    for module in (grcvalency, cli):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            module.no_such_name
    with pytest.raises(ImportError):
        exec("from grcvalency import no_such_name", {})


def test_extract_and_casestudy_write_the_same_bytes_under_every_hash_seed(tmp_path):
    # set and dict orders of str keys follow PYTHONHASHSEED; no output may
    config_path = _write_case_files(tmp_path)
    out = tmp_path / "out"  # the config's output_dir
    runs = {}
    for seed in ("0", "1", "12345"):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        streams = []
        for argv in (["extract", "corpus", "-o", "out/lexicon.tsv"],
                     ["casestudy", "--config", config_path.name]):
            run = _python("-m", "grcvalency.cli", *argv, cwd=tmp_path, PYTHONHASHSEED=seed)
            assert run.returncode == 0, run.stderr
            streams.append((run.stdout, run.stderr))
        runs[seed] = streams, _outputs(out)
    assert sorted(runs["0"][1]) == [
        "fig2_boxplot.csv", "lexicon.tsv", "lexicon.tsv.manifest.json",
        "lexicon.tsv.report.tsv", "manifest.json", "report.tsv", "run.log", "table5.tsv",
        "table6.tsv",
    ]
    assert runs["1"] == runs["0"]
    assert runs["12345"] == runs["0"]
