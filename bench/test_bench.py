"""Tests of the benchmark itself, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import inputs
import worker
from tracing import WRAPPER, Tracer
from grcvalency import cli
from grcvalency import lexicon as lexicon_module

BENCH = Path(__file__).resolve().parent
TINY_EXTRACT = {"files": 3, "sentences": 600}
TINY_CASE = {"sentences": 60, "lexicon_entries": 200, "tokens": 4, "types": 3, "dimension": 8}
TINY_QUERIES = {"entries": 400, "mix": 100}


def _files(directory):
    directory = Path(directory)
    return {
        str(path.relative_to(directory)): path.read_bytes().replace(str(directory).encode(), b"")
        for path in sorted(directory.rglob("*")) if path.is_file()
    }


@pytest.mark.parametrize("build, sizes", [
    (inputs.build_extract, TINY_EXTRACT),
    (inputs.build_queries, TINY_QUERIES),
    (inputs.build_casestudy, TINY_CASE),
])
def test_generator_is_byte_identical_for_a_seed(tmp_path, build, sizes):
    build(7, tmp_path / "a", **sizes)
    build(7, tmp_path / "b", **sizes)
    build(8, tmp_path / "c", **sizes)
    first = _files(tmp_path / "a")
    assert first and first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


def test_lemmas_are_distinct_after_normalisation():
    # Beta Code that differs only in mark order is one Unicode lemma; a
    # repeat would merge two planted object types into one
    lemmas = inputs._Lemmas(inputs.random.Random(188147779))
    made = [inputs.unicode_lemma(lemmas.make(kind)) for kind in ("noun", "verb") * 3000]
    assert len(set(made)) == len(made)


def _quiet(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _extract_argv(directory):
    return ["extract", str(directory / "treebank"), "-o", str(directory / "lexicon.tsv"),
            "--manifest", str(directory / "manifest.tsv")]


def test_planted_extract_expectations_hold(tmp_path):
    expected = inputs.build_extract(3, tmp_path, **TINY_EXTRACT)
    reasons = {reason for _, _, reason in expected["excluded"]}
    assert reasons == {"dangling head", "lies on a head cycle", "duplicate token_id"}
    assert expected["skipped"] and expected["entries"] > 100
    code = _quiet(_extract_argv(tmp_path))
    assert checks.check_extract(code, tmp_path / "lexicon.tsv", expected) == []


def test_extract_check_catches_a_wrong_lexicon(tmp_path):
    expected = inputs.build_extract(3, tmp_path, **TINY_EXTRACT)
    code = _quiet(_extract_argv(tmp_path))
    output = tmp_path / "lexicon.tsv"
    output.write_text(output.read_text(encoding="utf-8").replace("active_", "middle_", 1),
                      encoding="utf-8")
    assert checks.check_extract(code, output, expected)


def test_planted_casestudy_verdicts_hold(tmp_path):
    expected = inputs.build_casestudy(3, tmp_path, **TINY_CASE)
    verdicts = {(v["status"], v["method"] or v["reason"]) for v in expected["verbs"].values()}
    assert {("reported", "exact"), ("reported", "asymptotic"),
            ("dropped", "below_min_epic_tokens"), ("dropped", "insufficient_epic_types"),
            ("dropped", "insufficient_baseline_types"),
            ("dropped", "insufficient_vector_data")} == verdicts
    code = _quiet(["casestudy", "--config", expected["config"]])
    assert checks.check_casestudy(code, expected["output"], expected) == []


def test_query_answers_match_the_plain_scan(tmp_path):
    prepared = inputs.build_queries(3, tmp_path, **TINY_QUERIES)
    entries = lexicon_module.read_lexicon(prepared["lexicon"])
    ops = json.loads(Path(prepared["mix"]).read_text(encoding="utf-8"))
    assert len(ops) == TINY_QUERIES["mix"]
    latencies, failed = worker._mix(lexicon_module, entries, ops)
    assert failed == 0 and len(latencies) == len(ops)


def _patched_attributes():
    return {
        (module, attribute): getattr(sys.modules[module], attribute)
        for module, attribute, _, _ in worker.COMMAND_LAYERS + worker.QUERY_LAYERS
    }


def _traced_runs(tmp_path):
    extract = inputs.build_extract(4, tmp_path / "extract", **TINY_EXTRACT)
    case = inputs.build_casestudy(4, tmp_path / "case", **TINY_CASE)
    queries = inputs.build_queries(4, tmp_path / "queries", **TINY_QUERIES)
    entries = lexicon_module.read_lexicon(queries["lexicon"])
    ops = json.loads(Path(queries["mix"]).read_text(encoding="utf-8"))
    with contextlib.redirect_stdout(io.StringIO()):
        yield worker.traced(worker.COMMAND_LAYERS, 0, cli.main,
                            _extract_argv(tmp_path / "extract")), extract
        yield worker.traced(worker.COMMAND_LAYERS, 1, cli.main,
                            ["casestudy", "--config", case["config"]]), case
    yield worker.traced(worker.QUERY_LAYERS, 2, worker._mix, lexicon_module, entries, ops), None


def test_self_times_are_non_negative_and_sum_to_the_traced_run(tmp_path):
    names = set()
    for (_, run_s, layers, tracer), _ in _traced_runs(tmp_path):
        times = tracer.self_times()
        assert all(seconds >= -1e-9 for seconds in times.values())
        assert sum(times.values()) == pytest.approx(run_s, rel=1e-9, abs=1e-9)
        assert all(layers[name] == times[name] for name in times)
        assert len({span[4] for span in tracer.spans}) == 1
        names |= set(layers)
        path = tmp_path / "spans.tsv"
        tracer.write(path)
        assert len(path.read_text(encoding="utf-8").splitlines()) == len(tracer.spans) + 1
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in spec["per_layer"]}
    assert names | {"trace.overhead_s"} == declared


def test_wrapper_cost_moves_out_of_the_layers():
    tracer = Tracer()
    tracer.spans = [["root", 0.0, 10.0, -1, 0], ["child", 1.0, 3.0, 0, 0],
                    ["child", 4.0, 5.0, 0, 0]]
    tracer.outside, tracer.inside = 0.5, 0.25
    assert tracer.self_times() == {"root": 6.0, "child": 2.5, WRAPPER: 1.5}
    tracer.calibrate(calls=200, repeats=3)
    assert tracer.outside > 0 and tracer.inside >= 0


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = _patched_attributes()
    for (result, _, _, _), expected in _traced_runs(tmp_path):
        assert result == 0 if expected else result[1] == 0
    assert _patched_attributes() == before

    def fails():
        raise RuntimeError("inside the traced run")

    with pytest.raises(RuntimeError):
        worker.traced(worker.COMMAND_LAYERS, 3, fails)
    assert _patched_attributes() == before


def test_stages_sum_to_the_command_and_are_removed(tmp_path):
    before = {stage: getattr(sys.modules[stage[0]], stage[1]) for stage in worker.STAGES}
    inputs.build_extract(5, tmp_path, **TINY_EXTRACT)
    with contextlib.redirect_stdout(io.StringIO()):
        code, run_s, stages = worker.staged(cli.main, _extract_argv(tmp_path))
    assert code == 0
    assert all(seconds >= 0 for seconds in stages.values())
    assert sum(stages.values()) == pytest.approx(run_s, rel=1e-9, abs=1e-9)
    files = TINY_EXTRACT["files"]
    assert {f"parse_treebank_file#{index}" for index in range(files)} <= set(stages)
    assert f"parse_treebank_file#{files}" not in stages
    assert {"command#0", "extract_entries#0", "write_lexicon#0"} <= set(stages)
    assert {stage: getattr(sys.modules[stage[0]], stage[1]) for stage in worker.STAGES} == before


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    process = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "extract-corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert process.returncode != 0
    assert "correct" not in process.stdout
