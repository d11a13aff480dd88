"""Output checks: each returns the list of problems it found, empty when
the output is right.

Query results are compared with a plain scan of the lexicon TSV written
here, independent of grcvalency's parser and indexes.
"""

import hashlib
import json
from collections import Counter, defaultdict
from pathlib import Path


def split_rows(text):
    """Data rows of a lexicon TSV as lists of nine strings."""
    return [line.split("\t") for line in text.splitlines()[1:] if line]


def _elements(frame):
    """(mediator, realization) of each element of a frame string."""
    out = []
    for element in frame.partition("_")[2].split(","):
        mediator = element[1:element.index(")")] if element.startswith("(") else None
        out.append((mediator, element[element.index("[") + 1:element.index("]")]))
    return out


def scan_signature(rows, kind, args):
    """What a correct answer to one query must look like, by plain scan."""
    if kind == "query_entries":
        def keep(row):
            return (
                args.get("verb") in (None, row[3])
                and args.get("author") in (None, row[0])
                and args.get("voice") in (None, row[4])
                and (args.get("frame_contains") is None or args["frame_contains"] in row[7])
                and (args.get("realization") is None
                     or any(r == args["realization"] for _, r in _elements(row[7])))
                and (args.get("mediator") is None
                     or any(m == args["mediator"] for m, _ in _elements(row[7])))
            )
        return [sum(1 for row in rows if keep(row))]
    if kind in ("constructions_for_verb", "diff_constructions"):
        counts = Counter(row[7] for row in rows if row[3] == args["verb"])
        authors = defaultdict(set)
        for row in rows:
            if row[3] == args["verb"]:
                authors[row[7]].add(row[0])
        if kind == "diff_constructions":
            known = set(args["known_frames"])
            return [len(set(counts) - known), len(known - set(counts))]
        kept = [f for f, n in counts.items()
                if n >= args["min_count"] and len(authors[f]) >= args["min_authors"]]
        return [len(kept), sum(counts[f] for f in kept)]
    if kind == "stats_basic":
        return [len(rows), len({r[3] for r in rows}), len({r[7] for r in rows}),
                len({r[8] for r in rows})]
    if kind == "stats_by_author":
        return [len({r[0] for r in rows}) + 1, len(rows)]
    if kind == "frame_frequencies":
        return sorted(Counter(r[7] for r in rows).values(), reverse=True)[: args["top_k"]]
    raise ValueError(f"unknown query kind {kind!r}")


def result_signature(kind, result):
    """The same shape as :func:`scan_signature`, from the program's answer."""
    if kind == "query_entries":
        return [len(result)]
    if kind == "constructions_for_verb":
        return [len(result), sum(r.count for r in result)]
    if kind == "diff_constructions":
        return [len(result[0]), len(result[1])]
    if kind == "stats_basic":
        return [result["entries"], result["unique_verb_lemmas"], result["unique_frames"],
                result["unique_frame_fillers"]]
    if kind == "stats_by_author":
        return [len(result), result[-1][1]]
    if kind == "frame_frequencies":
        return [count for _, count in result]
    raise ValueError(f"unknown query kind {kind!r}")


def _read_tsv(path):
    return [line.split("\t") for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]]


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_extract(exit_code, output, expected):
    """Lexicon, report and manifest of one ``extract`` run."""
    output = Path(output)
    problems = []
    if exit_code != 0:
        problems.append(f"extract exited {exit_code}")
    try:
        lexicon = output.read_text(encoding="utf-8")
        report = _read_tsv(output.with_name(output.name + ".report.tsv"))
        manifest = json.loads(output.with_name(output.name + ".manifest.json")
                              .read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"extract output unreadable: {exc}"]
    if lexicon != expected["lexicon"]:
        got, want = lexicon.splitlines(), expected["lexicon"].splitlines()
        first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                     min(len(got), len(want)))
        problems.append(f"lexicon differs: {len(got) - 1} entries, expected {len(want) - 1}; "
                        f"first difference at line {first + 1}")
    excluded = sorted((r[0], int(r[1])) for r in report if r[2] == "sentence_excluded")
    if excluded != [(f, s) for f, s, _ in expected["excluded"]]:
        problems.append(f"excluded sentences {len(excluded)}, expected {len(expected['excluded'])}")
    details = {(r[0], int(r[1])): r[3] for r in report if r[2] == "sentence_excluded"}
    for name, sentence_id, reason in expected["excluded"]:
        if reason not in details.get((name, sentence_id), reason):
            problems.append(f"{name} sentence {sentence_id}: expected '{reason}'")
    skipped = sorted((r[0], int(r[1])) for r in report if r[2] == "word_skipped")
    if skipped != [tuple(s) for s in expected["skipped"]]:
        problems.append(f"skipped words {len(skipped)}, expected {len(expected['skipped'])}")
    if any(r[2] not in ("sentence_excluded", "word_skipped") for r in report):
        problems.append("report lists a file error")
    inputs = manifest.get("inputs", {})
    if sorted(Path(p).name for p in inputs) != expected["files"]:
        problems.append("manifest inputs differ from the treebank files")
    elif any(_sha256(p) != digest for p, digest in inputs.items()):
        problems.append("manifest checksum mismatch")
    return problems


def check_casestudy(exit_code, output_dir, expected):
    """table5, table6, run.log and manifest against the planted design."""
    output_dir = Path(output_dir)
    problems = []
    if exit_code != 0:
        problems.append(f"casestudy exited {exit_code}")
    try:
        table5 = {r[0]: (int(r[1]), int(r[2])) for r in _read_tsv(output_dir / "table5.tsv")}
        table6 = {r[0]: r[10] for r in _read_tsv(output_dir / "table6.tsv")}
        log = _read_tsv(output_dir / "run.log")
        manifest = json.loads((output_dir / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, IndexError) as exc:
        return problems + [f"casestudy output unreadable: {exc}"]
    verbs = expected["verbs"]
    reported = {v: (e["epic_types"], e["baseline_types"]) for v, e in verbs.items()
                if e["status"] == "reported"}
    if table5 != reported:
        problems.append(f"table5 holds {sorted(table5)}, expected {sorted(reported)}")
    methods = {v: e["method"] for v, e in verbs.items() if e["status"] == "reported"}
    if table6 != methods:
        problems.append("table6 verbs or KS methods differ from the design")
    drops = {r[1]: r[2] for r in log if r[0] == "drop"}
    want_drops = {v: e["reason"] for v, e in verbs.items() if e["status"] == "dropped"}
    if drops != want_drops:
        problems.append(f"dropped {drops}, expected {want_drops}")
    if {r[1] for r in log if r[0] == "report"} != set(methods):
        problems.append("run.log report events differ from table6")
    pairs = [r[3] for r in log if r[0] == "pairs"]
    want = (f"total={expected['pairs']} formulaic={expected['formulaic']} "
            f"non_formulaic={expected['pairs'] - expected['formulaic']}")
    if pairs != [want]:
        problems.append(f"pairs event {pairs}, expected {want}")
    if sorted(manifest.get("inputs", {})) != sorted(expected["inputs"]):
        problems.append("manifest inputs differ")
    return problems
