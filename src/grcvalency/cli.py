"""Command-line entry point for reproducible batch runs.

Exit codes: 0 success, 1 usage or I/O failure, 2 partial data failure
(some input files unusable, the rest processed), 3 empty result set.
"""

import argparse
import contextlib
import gc
import sys
import unicodedata
from pathlib import Path

from . import __version__
from .betacode import beta_to_unicode
from .casestudy import load_config, run_case_study, select_case_study, write_case_study_outputs
from .frames import extract_entries
from .lexicon import (
    FORMAT_VERSION,
    constructions_for_verb,
    diff_constructions,
    frame_frequencies,
    lexicon_lines,
    query_entries,
    read_lexicon,
    stats_basic,
    stats_by_author,
    write_atomic,
    write_lexicon,
)
from .manifest import build_manifest, write_manifest
from .semantics import load_vector_space
from .treebank import (
    LAYOUT_BREAK,
    TreebankParseError,
    load_manifest,
    parse_treebank_file,
    validate_sentence,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_EMPTY = 3

_ENCODING = "utf-8"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here reserves 2 for
    # partial data failures, so usage errors are forced onto exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grcvalency", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"grcvalency {__version__} (lexicon format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    extract = sub.add_parser("extract", help="build a lexicon from a treebank XML directory")
    extract.add_argument("treebank_dir")
    extract.add_argument("-o", "--output", default="lexicon.tsv")
    extract.add_argument("--manifest", help="sidecar TSV: filename<TAB>author<TAB>title")
    extract.add_argument(
        "--include-participles",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    extract.add_argument(
        "--figure1-layout",
        action="store_true",
        help="emit the eight-column layout without root_id",
    )
    extract.set_defaults(func=cmd_extract)

    stats = sub.add_parser("stats", help="aggregate tables over a lexicon TSV")
    stats.add_argument("lexicon")
    group = stats.add_mutually_exclusive_group()
    group.add_argument("--basic", action="store_true")
    group.add_argument("--by-author", action="store_true")
    group.add_argument("--frames", type=int, metavar="TOP_K")
    stats.set_defaults(func=cmd_stats)

    query = sub.add_parser("query", help="filter lexicon entries")
    query.add_argument("lexicon")
    query.add_argument("--verb")
    query.add_argument("--author")
    query.add_argument("--title")
    query.add_argument("--voice")
    query.add_argument("--frame-contains")
    query.add_argument("--realization")
    query.add_argument("--mediator")
    query.set_defaults(func=cmd_query)

    constructions = sub.add_parser(
        "constructions", help="construction inventory (and diff) for one verb"
    )
    constructions.add_argument("lexicon")
    constructions.add_argument("--verb", required=True)
    constructions.add_argument("--min-count", type=int, default=1)
    constructions.add_argument("--min-authors", type=int, default=1)
    constructions.add_argument(
        "--known-frames", help="file with one known frame per line; switches to diff output"
    )
    constructions.set_defaults(func=cmd_constructions)

    casestudy = sub.add_parser("casestudy", help="run the formulaic-vs-baseline comparison")
    casestudy.add_argument("--config", required=True)
    casestudy.add_argument("--treebank-dir")
    casestudy.add_argument("--lexicon", dest="lexicon_path")
    casestudy.add_argument("--vectors", dest="vector_space_path")
    casestudy.add_argument("--spans", dest="formula_span_path")
    casestudy.add_argument("--output-dir")
    casestudy.add_argument("--min-epic-tokens", type=int)
    casestudy.add_argument("--min-object-types", type=int)
    casestudy.set_defaults(func=cmd_casestudy)

    betacode = sub.add_parser("betacode", help="transcode Beta Code to Unicode Greek")
    betacode.add_argument("text", nargs="?")
    betacode.add_argument("--file", dest="path")
    betacode.set_defaults(func=cmd_betacode)

    return parser


def _load_corpus(directory: Path, manifest_path, report_rows, parsed_paths):
    """Parse and validate the ``*.xml`` files in ``directory`` one at a time, in
    name order, and yield each valid tree of each file that parsed.  Appends
    report rows ``(file, sentence_id, kind, detail)`` for unusable files, skipped
    words and excluded sentences to ``report_rows``, and the paths that parsed to
    ``parsed_paths``; both are complete once the stream is exhausted.  A document
    author or title holding a tab or line break fails its file, and such a subdoc
    excludes its sentence: the lexicon's TSV could not hold them.  Bad data is
    excluded and reported, never repaired; only an unreadable metadata manifest
    raises."""
    meta = load_manifest(manifest_path) if manifest_path else {}
    for path in sorted(directory.glob("*.xml")):
        try:
            data = path.read_bytes()
            file_trees, issues = parse_treebank_file(data, fallback_meta=meta.get(path.name))
        except (OSError, TreebankParseError) as exc:
            report_rows.append((path.name, "", "file_error", str(exc)))
            continue
        # every tree of a file carries the document's author and title
        broken = file_trees and [
            f"{name} {value!r} would corrupt the TSV layout"
            for name, value in (("author", file_trees[0].author), ("title", file_trees[0].title))
            if LAYOUT_BREAK.search(value)
        ]
        if broken:
            report_rows.append((path.name, "", "file_error", "; ".join(broken)))
            continue
        parsed_paths.append(path)
        for issue in issues:
            report_rows.append(
                (path.name, str(issue.sentence_id or ""), "word_skipped", issue.message)
            )
        for tree in file_trees:
            validation = validate_sentence(tree)
            if validation.ok:
                yield tree
            else:
                detail = "; ".join(validation.messages())
                report_rows.append((path.name, str(tree.sentence_id), "sentence_excluded", detail))


@contextlib.contextmanager
def _gc_paused():
    """Turn the cyclic garbage collector off for the block, then restore the
    caller's setting.  A batch run builds millions of objects and keeps most of
    them until it ends, so each collection would rescan all it has kept and
    find next to nothing to free.  Library functions leave the collector alone."""
    enabled = gc.isenabled()
    if enabled:
        # free the young garbage made so far (argument parsing leaves
        # some), which the pause would keep until the command returns
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _escape_layout_break(match) -> str:
    return match[0].encode("unicode_escape").decode("ascii")


def _write_report(path: Path, rows) -> None:
    """Write the report TSV; a tab or line break inside a field (a file name
    may hold one) is written as its Python escape, ``\\t``, ``\\n``,
    ``\\u2028`` and the like, so each row stays one line of four fields."""
    lines = ["file\tsentence_id\tkind\tdetail"] + [
        "\t".join(LAYOUT_BREAK.sub(_escape_layout_break, field) for field in row) for row in rows
    ]
    write_atomic(path, ("\n".join(lines) + "\n").encode(_ENCODING))


def _finish_run(report_path: Path, report_rows, manifest_path: Path, **manifest) -> int:
    """Write the report, then the manifest of ``build_manifest(**manifest)``
    last; returns the number of input files that failed."""
    _write_report(report_path, report_rows)
    write_manifest(build_manifest(**manifest), manifest_path)
    return sum(row[2] == "file_error" for row in report_rows)


def cmd_extract(args) -> int:
    directory = Path(args.treebank_dir)
    output = Path(args.output)
    report_path = output.with_name(output.name + ".report.tsv")
    manifest_path = output.with_name(output.name + ".manifest.json")
    for needed in (directory, output.parent):
        if not needed.is_dir():
            return _fail(f"not a directory: {needed}")
    for path in (output, report_path, manifest_path):
        if path.is_dir():  # the write's rename would fail only after the whole run
            return _fail(f"is a directory: {path}")
    report_rows, parsed_paths = [], []
    entries = extract_entries(
        _load_corpus(directory, args.manifest, report_rows, parsed_paths),
        include_participles=args.include_participles,
    )
    write_lexicon(entries, output, figure1_layout=args.figure1_layout)
    failed_files = _finish_run(
        report_path, report_rows, manifest_path,
        command="extract",
        config={
            "treebank_dir": str(directory),
            "include_participles": args.include_participles,
            "figure1_layout": args.figure1_layout,
            "manifest": args.manifest or "",
            "output": str(output),
        },
        input_paths=parsed_paths,
    )
    print(
        f"extracted {len(entries)} entries from {len(parsed_paths)} file(s); "
        f"{failed_files} file(s) failed; report: {report_path}"
    )
    return EXIT_PARTIAL if failed_files else EXIT_OK


def cmd_stats(args) -> int:
    if args.frames is not None and args.frames < 0:
        return _fail("--frames takes a non-negative count")
    lexicon = read_lexicon(args.lexicon)
    if args.by_author:
        print("author\tentries")
        for author, count in stats_by_author(lexicon):
            print(f"{author}\t{count}")
    elif args.frames is not None:
        print("frame\tcount")
        for frame, count in frame_frequencies(lexicon, args.frames):
            print(f"{frame}\t{count}")
    else:
        print("metric\tvalue")
        for metric, value in stats_basic(lexicon).items():
            print(f"{metric}\t{value}")
    return EXIT_OK


def _nfc(value):
    """A user's value in the NFC form of the lexicon's fields; None stays None."""
    return None if value is None else unicodedata.normalize("NFC", value)


def cmd_query(args) -> int:
    lexicon = read_lexicon(args.lexicon)
    filters = ("verb", "author", "title", "voice", "frame_contains", "realization", "mediator")
    entries = query_entries(lexicon, **{name: _nfc(getattr(args, name)) for name in filters})
    print("\n".join(lexicon_lines(entries)))
    return EXIT_OK if entries else EXIT_EMPTY


def cmd_constructions(args) -> int:
    lexicon = read_lexicon(args.lexicon)
    verb = _nfc(args.verb)
    if args.known_frames:
        lines = Path(args.known_frames).read_text(encoding=_ENCODING).splitlines()
        known = [_nfc(line.strip()) for line in lines if line.strip()]
        only_lexicon, only_known = diff_constructions(lexicon, verb, known)
        only_lexicon = [
            r for r in only_lexicon
            if r.count >= args.min_count and len(r.authors) >= args.min_authors
        ]
        print("side\tframe\tcount\tauthors")
        for record in only_lexicon:
            print(f"lexicon\t{record.frame}\t{record.count}\t{';'.join(sorted(record.authors))}")
        for frame in only_known:
            print(f"known\t{frame}\t\t")
        return EXIT_OK if (only_lexicon or only_known) else EXIT_EMPTY
    records = constructions_for_verb(
        lexicon, verb, min_count=args.min_count, min_authors=args.min_authors
    )
    print("verb\tframe\tcount\tauthors")
    for record in records:
        print(f"{record.verb}\t{record.frame}\t{record.count}\t{';'.join(sorted(record.authors))}")
    return EXIT_OK if records else EXIT_EMPTY


def cmd_casestudy(args) -> int:
    overrides = {
        "treebank_dir": args.treebank_dir,
        "lexicon_path": args.lexicon_path,
        "vector_space_path": args.vector_space_path,
        "formula_span_path": args.formula_span_path,
        "output_dir": args.output_dir,
        "min_epic_tokens": args.min_epic_tokens,
        "min_object_types": args.min_object_types,
    }
    config = load_config(args.config, overrides=overrides)
    for key in ("treebank_dir", "lexicon_path", "vector_space_path", "formula_span_path"):
        if not getattr(config, key):
            return _fail(f"config is missing {key}")

    directory = Path(config.treebank_dir)
    output_dir = Path(config.output_dir)
    # the outputs go into output_dir, made with its missing parents
    output_base = next(path for path in (output_dir, *output_dir.parents) if path.exists())
    for needed in (directory, output_base):
        if not needed.is_dir():
            return _fail(f"not a directory: {needed}")
    outputs = ("table5.tsv", "table6.tsv", "fig2_boxplot.csv", "run.log", "report.tsv",
               "manifest.json")
    for path in (output_dir / name for name in outputs):
        if path.is_dir():  # the write's rename would fail only after the whole run
            return _fail(f"is a directory: {path}")
    report_rows, parsed_paths = [], []
    lexicon = read_lexicon(config.lexicon_path)
    selection = select_case_study(
        config, _load_corpus(directory, config.manifest_path, report_rows, parsed_paths), lexicon
    )
    space = load_vector_space(config.vector_space_path, selection.lemmas())
    result = run_case_study(config, selection, space)

    report_path = output_dir / "report.tsv"
    paths = write_case_study_outputs(result, output_dir)
    failed_files = _finish_run(
        report_path, report_rows, output_dir / "manifest.json",
        command="casestudy",
        config={
            "epic_works": ["|".join(w) for w in config.epic_works],
            "baseline_exclusions": ["|".join(w) for w in config.baseline_exclusions],
            "min_epic_tokens": config.min_epic_tokens,
            "min_object_types": config.min_object_types,
            "include_participles": config.include_participles,
            "ks_exact_limit": config.ks_exact_limit,
            "variance_convention": "sample (n-1)",
            "quartile_convention": "midpoint-inclusive",
        },
        input_paths=parsed_paths
        + [config.lexicon_path, config.vector_space_path, config.formula_span_path],
    )
    print(
        f"reported {len(result.comparisons)} verb(s); {failed_files} file(s) failed; outputs: "
        + ", ".join(str(p) for p in [*paths.values(), report_path])
    )
    if failed_files:
        return EXIT_PARTIAL
    return EXIT_OK if result.comparisons else EXIT_EMPTY


def cmd_betacode(args) -> int:
    if args.text is None and not args.path:
        return _fail("provide TEXT or --file")
    if args.text is not None and args.path:
        return _fail("provide either TEXT or --file, not both")
    lines = (
        [args.text]
        if args.text is not None
        else Path(args.path).read_text(encoding=_ENCODING).splitlines()
    )
    converted = []  # every line, before any is printed
    for number, line in enumerate(lines, start=1):
        try:
            converted.append(beta_to_unicode(line))
        except ValueError as exc:
            return _fail(f"line {number}: {exc}" if args.path else str(exc))
    for line in converted:
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the one error boundary: any OSError or ValueError a command lets out,
    # a closed stdout included, is reported on one line and exits 1
    with _gc_paused():
        try:
            return args.func(args)
        except (OSError, ValueError) as exc:
            return _fail(str(exc))


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
