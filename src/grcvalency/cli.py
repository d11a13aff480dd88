"""Command-line entry point for reproducible batch runs.

Exit codes: 0 success, 1 usage or I/O failure, 2 partial data failure
(some input files unusable, the rest processed), 3 empty result set.
"""

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import json
import sys
import unicodedata
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .betacode import beta_to_unicode
from .frames import FORMAT_VERSION, extract_entries, lexicon_lines, read_frames, write_lexicon
from .output import InputError, read_lines, write_atomic
from .treebank import LAYOUT_BREAK, load_manifest, parse_treebank_file, validate_sentence

# what stats, query, constructions and casestudy call; the package serves
# each from the numpy module that holds it, which loads only with these commands
_NUMPY_NAMES = (
    "read_lexicon", "query_entries", "stats_basic", "stats_by_author", "frame_frequencies",
    "constructions_for_verb", "diff_constructions", "OUTPUT_NAMES", "load_config",
    "run_case_study", "select_case_study", "write_case_study_outputs", "load_vector_space",
)

# query_entries' filters, each also a --flag of the query command
_QUERY_FILTERS = ("verb", "author", "title", "voice", "frame_contains", "realization", "mediator")

# casestudy's flags that override a config key: (flag, key); load_config
# reads a flag's value as it reads the file's
_CASESTUDY_OVERRIDES = (
    ("--treebank-dir", "treebank_dir"),
    ("--lexicon", "lexicon_path"),
    ("--vectors", "vector_space_path"),
    ("--spans", "formula_span_path"),
    ("--output-dir", "output_dir"),
    ("--min-epic-tokens", "min_epic_tokens"),
    ("--min-object-types", "min_object_types"),
)


def _bind_numpy_names():
    """Bind each of ``_NUMPY_NAMES`` here, where the commands look it up,
    through the package's deferred imports; a name a caller has already
    set, such as a wrapper, is kept."""
    package = sys.modules[__package__]
    for name in _NUMPY_NAMES:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name):
    # PEP 562: a numpy command's name read before any such command has run
    if name in _NUMPY_NAMES:
        _bind_numpy_names()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARTIAL = 2
EXIT_EMPTY = 3

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


def _count(args, name: str) -> int:
    """Count flag ``name``'s value; anything but a non-negative integer raises ``ValueError``."""
    with contextlib.suppress(ValueError):
        if (count := int(getattr(args, name))) >= 0:
            return count
    raise ValueError(f"--{name.replace('_', '-')} takes a non-negative count")


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
    group.add_argument("--frames", metavar="TOP_K")
    stats.set_defaults(func=cmd_stats)

    query = sub.add_parser("query", help="filter lexicon entries")
    query.add_argument("lexicon")
    for name in _QUERY_FILTERS:
        query.add_argument("--" + name.replace("_", "-"))
    query.set_defaults(func=cmd_query)

    constructions = sub.add_parser(
        "constructions", help="construction inventory (and diff) for one verb"
    )
    constructions.add_argument("lexicon")
    constructions.add_argument("--verb", required=True)
    constructions.add_argument("--min-count", default=1)
    constructions.add_argument("--min-authors", default=1)
    constructions.add_argument(
        "--known-frames", help="file with one known frame per line; switches to diff output"
    )
    constructions.set_defaults(func=cmd_constructions)

    casestudy = sub.add_parser("casestudy", help="run the formulaic-vs-baseline comparison")
    casestudy.add_argument("--config", required=True)
    for flag, key in _CASESTUDY_OVERRIDES:
        casestudy.add_argument(flag, dest=key)
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
    ``parsed_paths``; both are complete once the stream is exhausted.  A file that
    cannot be read or that ``parse_treebank_file`` rejects (malformed XML, or an
    author or title the lexicon's TSV could not hold) is reported as a
    ``file_error``.  Bad data is excluded and reported, never repaired; only an
    unreadable metadata manifest raises."""
    meta = load_manifest(manifest_path) if manifest_path else {}
    for path in sorted(directory.glob("*.xml")):
        try:
            data = path.read_bytes()
            file_trees, issues = parse_treebank_file(data, fallback_meta=meta.get(path.name))
        except (OSError, ValueError) as exc:
            report_rows.append((path.name, "", "file_error", str(exc)))
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
    header = ("file", "sentence_id", "kind", "detail")
    write_atomic(path, (
        "\t".join(LAYOUT_BREAK.sub(_escape_layout_break, field) for field in row) + "\n"
        for row in [header, *rows]
    ))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def build_manifest(command: str, config: dict, input_paths) -> dict:
    """A run's command, settings, sha256 per input path, versions and UTC timestamp."""
    return {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in input_paths},
        "tool_version": __version__,
        "format_version": FORMAT_VERSION,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _finish_run(report_path: Path, report_rows, manifest_path: Path, **manifest) -> int:
    """Write the report, then the manifest of ``build_manifest(**manifest)`` last,
    as JSON with its keys sorted at every level; returns the number of input
    files that failed."""
    _write_report(report_path, report_rows)
    text = json.dumps(build_manifest(**manifest), ensure_ascii=False, indent=2, sort_keys=True)
    write_atomic(manifest_path, [text + "\n"])
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
    _bind_numpy_names()
    top_k = None if args.frames is None else _count(args, "frames")
    lexicon = read_lexicon(args.lexicon)
    if args.by_author:
        print("author\tentries")
        for author, count in stats_by_author(lexicon):
            print(f"{author}\t{count}")
    elif top_k is not None:
        print("frame\tcount")
        for frame, count in frame_frequencies(lexicon, top_k):
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
    _bind_numpy_names()
    lexicon = read_lexicon(args.lexicon)
    entries = query_entries(lexicon, **{name: _nfc(getattr(args, name)) for name in _QUERY_FILTERS})
    print("\n".join(lexicon_lines(entries)))
    return EXIT_OK if entries else EXIT_EMPTY


def cmd_constructions(args) -> int:
    _bind_numpy_names()
    min_count, min_authors = _count(args, "min_count"), _count(args, "min_authors")
    lexicon = read_lexicon(args.lexicon)
    verb = _nfc(args.verb)
    records = constructions_for_verb(lexicon, verb, min_count=min_count, min_authors=min_authors)
    if args.known_frames:
        known = read_frames(args.known_frames)
        only_lexicon, only_known = diff_constructions(lexicon, verb, known)
        kept = {record.frame for record in records}
        only_lexicon = [record for record in only_lexicon if record.frame in kept]
        print("side\tframe\tcount\tauthors")
        for record in only_lexicon:
            print(f"lexicon\t{record.frame}\t{record.count}\t{';'.join(sorted(record.authors))}")
        for frame in only_known:
            print(f"known\t{frame}\t\t")
        return EXIT_OK if (only_lexicon or only_known) else EXIT_EMPTY
    print("verb\tframe\tcount\tauthors")
    for record in records:
        print(f"{record.verb}\t{record.frame}\t{record.count}\t{';'.join(sorted(record.authors))}")
    return EXIT_OK if records else EXIT_EMPTY


def cmd_casestudy(args) -> int:
    _bind_numpy_names()
    overrides = {key: getattr(args, key) for _, key in _CASESTUDY_OVERRIDES}
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
    report_path, manifest_path = output_dir / "report.tsv", output_dir / "manifest.json"
    outputs = [output_dir / name for name in OUTPUT_NAMES.values()] + [report_path, manifest_path]
    for path in outputs:
        if path.is_dir():  # the write's rename would fail only after the whole run
            return _fail(f"is a directory: {path}")
    report_rows, parsed_paths = [], []
    lexicon = read_lexicon(config.lexicon_path)
    selection = select_case_study(
        config, _load_corpus(directory, config.manifest_path, report_rows, parsed_paths), lexicon
    )
    space = load_vector_space(config.vector_space_path, selection.lemmas())
    result = run_case_study(config, selection, space)

    paths = write_case_study_outputs(result, output_dir)
    failed_files = _finish_run(
        report_path, report_rows, manifest_path,
        command="casestudy",
        config={
            **dataclasses.asdict(config),
            "epic_works": ["|".join(w) for w in config.epic_works],
            "baseline_exclusions": ["|".join(w) for w in config.baseline_exclusions],
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
    lines = [args.text] if args.text is not None else read_lines(args.path)
    converted = []  # every line, before any is printed
    for number, line in enumerate(lines, start=1):
        try:
            converted.append(beta_to_unicode(line))
        except ValueError as exc:
            if args.path:
                raise InputError([(number, str(exc))], args.path) from None
            return _fail(str(exc))
    for line in converted:
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the one error boundary: any OSError or ValueError a command lets out,
    # a closed stdout included, and numpy missing where a command needs it,
    # is reported on one line and exits 1
    with _gc_paused():
        try:
            return args.func(args)
        except (OSError, ValueError, ModuleNotFoundError) as exc:
            return _fail(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
