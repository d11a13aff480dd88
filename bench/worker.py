"""One measured process: a fresh interpreter that imports grcvalency from
the checkout and runs one command or one short query session.

Usage: ``python3 bench/worker.py SPEC.json``; prints one JSON object as
its last line.  ``run.py`` writes the spec, starts this process, and
checks the outputs afterwards; nothing here generates inputs.
"""

import contextlib
import importlib
import io
import json
import math
import os
import resource
import sys
import unicodedata
from collections import Counter
from pathlib import Path
from time import perf_counter

from checks import result_signature
from tracing import Tracer


def _parse(tracer, args, kwargs, result):
    if result is not None:
        trees, issues = result
        skipped = sum(1 for issue in issues if issue.word_index)
        tracer.counts["treebank.words"] += skipped + sum(len(tree.nodes) for tree in trees)
        tracer.counts["treebank.words_skipped"] += skipped
        tracer.counts["treebank.sentences"] += len(trees)


def _validate(tracer, args, kwargs, result):
    if result is not None and not result.ok:
        tracer.counts["treebank.sentences_excluded"] += 1


def _counter(name, distinct=None):
    def hook(tracer, args, kwargs, result):
        tracer.counts[name] += 1
        if distinct:
            tracer.distinct[distinct].add(args[0])
    return hook


def _sized(name, measure=len):
    def hook(tracer, args, kwargs, result):
        if result is not None:
            tracer.counts[name] += measure(result)
    return hook


def _collect(tracer, args, kwargs, result):
    tracer.counts["frames.collect_arguments_calls"] += 1
    tracer.counts["frames.predicates"] += 1


def _hashed(tracer, args, kwargs, result):
    tracer.counts["manifest.bytes_hashed"] += sum(
        os.path.getsize(path) for path in kwargs["input_paths"]
    )


def _similarity(tracer, args, kwargs, result):
    lemmas, space = args[0], args[1]
    if result is not None:
        oov = len(result.oov_lemmas)
        total = oov + len(result.included_lemmas)
    else:
        total = len(lemmas)
        oov = sum(1 for lemma in lemmas
                  if unicodedata.normalize("NFC", lemma) not in space.vectors)
    tracer.counts["semantics.lemmas"] += total
    tracer.counts["semantics.oov"] += oov


def _ks_name(args, kwargs):
    return "stats.ks_exact_s" if kwargs.get("method") == "exact" else "stats.ks_asymptotic_s"


def _ks(tracer, args, kwargs, result):
    if kwargs.get("method") == "exact":
        tracer.counts["stats.ks_exact_calls"] += 1
        tracer.counts["stats.ks_exact_relabelings"] += math.comb(
            len(args[0]) + len(args[1]), len(args[0])
        )


def _verdicts(tracer, args, kwargs, result):
    if result is not None:
        tracer.counts["casestudy.verbs_reported"] += len(result.comparisons)
        tracer.counts["casestudy.verbs_dropped"] += sum(
            1 for event in result.log if event.event == "drop"
        )


# (module where the caller looks the function up, attribute, span, hook);
# a span's name is the per-layer metric its self time adds to
COMMAND_LAYERS = (
    ("grcvalency.cli", "parse_treebank_file", "treebank.parse_self_s", _parse),
    ("grcvalency.treebank", "normalize_lemma", "treebank.normalize_lemma_s",
     _counter("treebank.normalize_lemma_calls", "lemma")),
    ("grcvalency.treebank", "beta_to_unicode", "betacode.beta_to_unicode_s",
     _counter("betacode.calls")),
    ("grcvalency.treebank", "decode_postag", "postag.decode_s",
     _counter("postag.decode_calls", "tag")),
    ("grcvalency.cli", "validate_sentence", "treebank.validate_s", _validate),
    ("grcvalency.cli", "extract_entries", "frames.extract_entries_self_s",
     _sized("frames.entries")),
    ("grcvalency.frames", "collect_arguments", "frames.collect_arguments_s", _collect),
    ("grcvalency.casestudy", "collect_arguments", "frames.collect_arguments_s",
     _counter("frames.collect_arguments_calls")),
    ("grcvalency.cli", "write_lexicon", "lexicon.write_s",
     _sized("lexicon.write_bytes", int)),
    ("grcvalency.cli", "read_lexicon", "lexicon.read_s", _sized("lexicon.read_entries")),
    ("grcvalency.cli", "build_manifest", "manifest.build_s", _hashed),
    ("grcvalency.cli", "load_vector_space", "semantics.load_vectors_s",
     _sized("semantics.vectors_loaded")),
    ("grcvalency.cli", "run_case_study", "casestudy.run_self_s", _verdicts),
    ("grcvalency.casestudy", "extract_trv_obj", "casestudy.extract_pairs_s",
     _sized("casestudy.pairs")),
    ("grcvalency.casestudy", "build_baseline", "casestudy.baseline_s", None),
    ("grcvalency.casestudy", "centroid_similarities", "semantics.similarity_s", _similarity),
    ("grcvalency.casestudy", "summarize", "stats.summaries_s", None),
    ("grcvalency.casestudy", "boxplot_stats", "stats.summaries_s", None),
    ("grcvalency.casestudy", "ks_two_sample", _ks_name, _ks),
    ("grcvalency.cli", "write_case_study_outputs", "casestudy.write_outputs_s", None),
)

QUERY_LAYERS = (
    ("grcvalency.lexicon", "query_entries", "lexicon.query_entries_s",
     _counter("lexicon.query_entries_calls")),
    ("grcvalency.lexicon", "constructions_for_verb", "lexicon.constructions_s", None),
    ("grcvalency.lexicon", "diff_constructions", "lexicon.constructions_s", None),
    ("grcvalency.lexicon", "stats_basic", "lexicon.aggregate_s", None),
    ("grcvalency.lexicon", "stats_by_author", "lexicon.aggregate_s", None),
    ("grcvalency.lexicon", "frame_frequencies", "lexicon.aggregate_s", None),
)


# coarse stages timed in every untraced command.  They run a few dozen
# times per command, so their wrappers cost microseconds; each stage's
# fastest time over a run's commands is summed into run_s (run.end_to_end)
STAGES = (
    ("grcvalency.cli", "parse_treebank_file"),
    ("grcvalency.cli", "extract_entries"),
    ("grcvalency.cli", "write_lexicon"),
    ("grcvalency.cli", "read_lexicon"),
    ("grcvalency.cli", "load_vector_space"),
    ("grcvalency.cli", "run_case_study"),
    ("grcvalency.casestudy", "extract_trv_obj"),
    ("grcvalency.casestudy", "build_baseline"),
    ("grcvalency.casestudy", "centroid_similarities"),
    ("grcvalency.casestudy", "ks_two_sample"),
    ("grcvalency.cli", "write_case_study_outputs"),
    ("grcvalency.cli", "build_manifest"),
)


def staged(function, *args):
    """Run ``function`` with the STAGES that exist timed; returns (result,
    duration, seconds per stage call).  A stage call is keyed by its name
    and how many calls of that name came before it, and its time excludes
    the stages it called; the root span, ``command``, holds the rest."""
    tracer = Tracer()
    try:
        for module, attribute in STAGES:
            if hasattr(importlib.import_module(module), attribute):
                tracer.patch(module, attribute, attribute)
        result = tracer.call("command", function, *args)
    finally:
        tracer.restore()
    own = [end - start for _, start, end, _, _ in tracer.spans]
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            own[parent] -= end - start
    seen = Counter()
    stages = {}
    for (name, _, _, _, _), seconds in zip(tracer.spans, own):
        stages[f"{name}#{seen[name]}"] = seconds
        seen[name] += 1
    _, start, end, _, _ = tracer.spans[0]
    return result, end - start, stages


def _ratio(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(tracer, cache_before, cache_after):
    """Per-layer metrics of one traced run: self times, counts, ratios."""
    counts = tracer.counts
    metrics = dict(tracer.self_times())
    metrics.update(counts)
    metrics["treebank.lemma_distinct_ratio"] = _ratio(
        len(tracer.distinct["lemma"]), counts["treebank.normalize_lemma_calls"])
    metrics["postag.tag_distinct_ratio"] = _ratio(
        len(tracer.distinct["tag"]), counts["postag.decode_calls"])
    metrics["frames.entry_yield"] = _ratio(counts["frames.entries"], counts["frames.predicates"])
    metrics["semantics.oov_ratio"] = _ratio(counts["semantics.oov"], counts["semantics.lemmas"])
    hits = cache_after.hits - cache_before.hits
    metrics["lexicon.parse_frame_hit_ratio"] = _ratio(
        hits, hits + cache_after.misses - cache_before.misses)
    for helper in ("frames.predicates", "semantics.oov", "semantics.lemmas"):
        metrics.pop(helper, None)
    return metrics


def traced(layers, run_id, function, *args):
    """Run ``function`` as the root span with ``layers`` wrapped; returns
    (result, root duration, per-layer metrics, tracer) and always unwraps."""
    parse_frame = importlib.import_module("grcvalency.lexicon").parse_frame
    tracer = Tracer(run_id)
    # the hot wrappers (normalize_lemma, decode_postag, ...) carry a counter hook
    tracer.calibrate(_counter("calibration", "calibration"))
    before = parse_frame.cache_info()
    try:
        for module, attribute, name, hook in layers:
            tracer.patch(module, attribute, name, hook)
        result = tracer.call("cli.self_s", function, *args)
    finally:
        tracer.restore()
    _, start, end, _, _ = tracer.spans[0]
    return result, end - start, layer_metrics(tracer, before, parse_frame.cache_info()), tracer


def run_command(cli, spec):
    """One ``extract`` or ``casestudy`` command, its stdout discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        if spec["trace"]:
            code, run_s, layers, tracer = traced(COMMAND_LAYERS, spec["run_id"], cli.main,
                                                 spec["argv"])
            tracer.write(spec["spans"])
            run = {"run_s": run_s, "traced": True, "layers": layers, "spans": spec["spans"]}
        else:
            code, run_s, stages = staged(cli.main, spec["argv"])
            run = {"run_s": run_s, "traced": False, "stages": stages}
    return {"exit": code, "runs": [run]}


def _mix(lexicon, entries, ops):
    """One pass over the query mix: latencies in ms and failed operations."""
    latencies = []
    failed = 0
    for kind, args, expected in ops:
        query = getattr(lexicon, kind)  # looked up per call, so wrappers apply
        start = perf_counter()
        try:
            result = query(entries, **args)
        except Exception:  # a query that raises is a failed operation
            latencies.append((perf_counter() - start) * 1000.0)
            failed += 1
            continue
        latencies.append((perf_counter() - start) * 1000.0)
        if result_signature(kind, result) != expected:
            failed += 1
    return latencies, failed


def run_queries(lexicon, entries, ops, spec):
    """``spec["mixes"]`` timed mixes; with tracing, every second mix is traced."""
    runs = []
    failed = 0
    for index in range(spec["mixes"]):
        if spec["trace"] and index % 2:
            (latencies, bad), run_s, layers, tracer = traced(
                QUERY_LAYERS, spec["run_id"], _mix, lexicon, entries, ops)
            spans = f"{spec['spans']}-{index}.tsv"
            tracer.write(spans)
            runs.append({"run_s": run_s, "traced": True, "layers": layers, "spans": spans})
        else:
            start = perf_counter()
            latencies, bad = _mix(lexicon, entries, ops)
            runs.append({"run_s": perf_counter() - start, "traced": False,
                         "latencies_ms": latencies})
        failed += bad
    return {"exit": 0, "attempted": len(ops) * len(runs), "failed": failed, "runs": runs}


def main(spec_path):
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    if spec["mode"] == "queries":
        ops = json.loads(Path(spec["mix"]).read_text(encoding="utf-8"))
    start = perf_counter()
    cli = importlib.import_module("grcvalency.cli")
    import_s = perf_counter() - start
    source = Path(__file__).resolve().parent.parent / "src"
    if source not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"grcvalency imported from {cli.__file__}, not from {source}")
    if spec["mode"] == "command":
        result = run_command(cli, spec)
        result["setup_parts"] = [import_s]
    else:
        lexicon = importlib.import_module("grcvalency.lexicon")
        read_start = perf_counter()
        entries = lexicon.read_lexicon(spec["lexicon"])
        read_s = perf_counter() - read_start
        # the session's first mix pays the cold cost (parse_frame's cache,
        # anything built on first use), so it counts in setup_s, not run_s
        cold, cold_failed = _mix(lexicon, entries, ops)
        result = run_queries(lexicon, entries, ops, spec)
        result["setup_parts"] = [import_s, read_s] + [ms / 1000.0 for ms in cold]
        result["attempted"] += len(ops)
        result["failed"] += cold_failed
        for run in result["runs"]:
            if run["traced"]:
                # read once per session, outside the traced mixes
                run["layers"]["lexicon.read_s"] = read_s
                run["layers"]["lexicon.read_entries"] = len(entries)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
