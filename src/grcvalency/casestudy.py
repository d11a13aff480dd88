"""Transitive-verb/direct-object semantic-variation pipeline.

Extracts verb + plain-accusative-object pairs from an epic corpus,
splits them by formulaic status using externally supplied span
annotations, builds the comparison set from the lexicon minus the
overlapping works, and compares the two centroid-similarity
distributions per verb.  Emits the three report files plus a run log in
which every dropped verb carries a machine-readable reason.
"""

import csv
import io
import unicodedata
from collections import defaultdict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from .frames import collect_arguments, identify_predicates, is_plain_object, parse_frame
from .output import InputError, content_rows, write_atomic
from .semantics import (
    DegenerateCentroidError,
    InsufficientDataError,
    UndefinedSimilarityError,
    VectorSpace,
    centroid_similarities,
)
from .stats import DEFAULT_EXACT_LIMIT, KSResult, boxplot_stats, ks_two_sample, significance_stars, summarize

FORMULAIC = "formulaic"
BASELINE = "baseline"

DEFAULT_EPIC_WORKS = (
    ("Homer", "Iliad"),
    ("Homer", "Odyssey"),
    ("Hesiod", "Theogony"),
    ("Hesiod", "Works and Days"),
)

DEFAULT_BASELINE_EXCLUSIONS = (("Homer", "Iliad"), ("Homer", "Odyssey"))

# the run-log reason of a verb whose similarities cannot be computed
_DROP_REASONS = {
    InsufficientDataError: "insufficient_vector_data",
    DegenerateCentroidError: "degenerate_centroid",
    UndefinedSimilarityError: "zero_vector",
}


class TrVObjPair(NamedTuple):
    verb: str
    object: str
    sentence_id: int
    verb_token_id: int
    object_token_id: int
    work: tuple[str, str]


@dataclass
class CaseStudyConfig:
    vector_space_path: str = ""
    formula_span_path: str = ""
    epic_works: tuple = DEFAULT_EPIC_WORKS
    baseline_exclusions: tuple = DEFAULT_BASELINE_EXCLUSIONS
    min_epic_tokens: int = 50
    min_object_types: int = 10
    include_participles: bool = True
    ks_exact_limit: int = DEFAULT_EXACT_LIMIT
    # CLI-level wiring, like vector_space_path (cli loads the vectors); these
    # four and it are ignored by select_case_study and run_case_study.
    treebank_dir: str = ""
    manifest_path: str = ""
    lexicon_path: str = ""
    output_dir: str = "."

    def __post_init__(self):
        for key in ("min_epic_tokens", "min_object_types"):
            if (value := getattr(self, key)) <= 0:
                raise ValueError(f"{key} must be positive, got {value}")


@dataclass
class VerbComparison:
    verb: str
    epic_type_count: int
    baseline_type_count: int
    ks: KSResult
    stars: str
    # each of these is (formulaic, baseline)
    variances: tuple[float, float]
    oov_counts: tuple[int, int]
    boxes: tuple[dict, dict]  # boxplot_stats, fig2's rows; table6's medians are theirs


@dataclass
class LogEvent:
    event: str
    verb: str = ""
    reason: str = ""
    detail: str = ""


@dataclass
class SelectedVerb:
    verb: str
    token_count: int  # formulaic pairs
    epic_types: list[str]
    baseline_types: list[str]
    drop: LogEvent | None = None  # set when a type threshold drops the verb


@dataclass
class CaseStudySelection:
    """The verbs that reach ``min_epic_tokens``, in report order, and the
    log so far: the pair counts and the verbs below that threshold."""

    verbs: list[SelectedVerb]
    log: list[LogEvent]

    def lemmas(self) -> set[str]:
        """Every object lemma the comparison looks up: the types of the
        verbs that pass both type thresholds."""
        return {
            lemma
            for selected in self.verbs
            if selected.drop is None
            for lemma in (*selected.epic_types, *selected.baseline_types)
        }


@dataclass
class CaseStudyResult:
    comparisons: list[VerbComparison]
    log: list[LogEvent]


def load_formula_spans(source) -> dict[int, frozenset[int]]:
    """Read ``sentence_id<TAB>token_ids`` (token ids comma-separated) into
    the token ids marked formulaic per sentence; a sentence's lines merge.
    A first content row whose first field is ``sentence_id`` is a header."""
    spans = {}
    for index, (lineno, line) in enumerate(content_rows(source)):
        parts = line.split("\t")
        if index == 0 and parts[0] == "sentence_id":
            continue
        if len(parts) != 2:
            raise InputError([(lineno, "expected 2 tab-separated fields")], source)
        try:
            sentence_id = int(parts[0])
            token_ids = frozenset(int(t) for t in parts[1].split(",") if t.strip())
        except ValueError:
            raise InputError([(lineno, "ids must be integers")], source) from None
        if any(t <= 0 for t in token_ids):
            raise InputError([(lineno, "token ids must be positive")], source)
        spans[sentence_id] = spans.get(sentence_id, frozenset()) | token_ids
    return spans


def extract_trv_obj(corpus, epic_works, include_participles: bool = True) -> list[TrVObjPair]:
    """One pair per (verb token, plain object slot) inside the selected
    works; see :func:`~grcvalency.frames.is_plain_object`."""
    works = {tuple(w) for w in epic_works}
    pairs = []
    for tree in corpus:
        work = (tree.author, tree.title)
        if work not in works:
            continue
        for verb in identify_predicates(tree, include_participles):
            for slot in collect_arguments(tree, verb):
                if is_plain_object(slot):
                    pairs.append(
                        TrVObjPair(
                            verb=verb.lemma,
                            object=slot.filler,
                            sentence_id=tree.sentence_id,
                            verb_token_id=verb.token_id,
                            object_token_id=slot.filler_token_id,
                            work=work,
                        )
                    )
    return pairs


def build_baseline(lexicon, verb: str, exclusions) -> list[str]:
    """Unique filler lemmas of the verb's plain objects, skipping entries
    from the excluded works."""
    excluded = {tuple(w) for w in exclusions}
    fillers = set()
    for row in lexicon.verb_rows(verb).tolist():
        entry = lexicon.entries[row]
        if (entry.author, entry.title) in excluded:
            continue
        _, elements = parse_frame(entry.frame_fillers)
        for element in elements:
            if is_plain_object(element) and element.filler is not None:
                fillers.add(element.filler)
    return sorted(fillers)


def select_case_study(config: CaseStudyConfig, corpus, lexicon) -> CaseStudySelection:
    """Everything before the vectors: extract the pairs, keep the formulaic
    ones, apply the token and type thresholds, and log the drops they cause.
    ``corpus`` is any iterable of trees, read once, before the span file."""
    pairs = extract_trv_obj(corpus, config.epic_works, config.include_participles)
    spans = load_formula_spans(config.formula_span_path)
    objects = defaultdict(list)  # verb -> the objects of its formulaic pairs
    for pair in pairs:
        marked = spans.get(pair.sentence_id, frozenset())
        # formulaic only when both tokens sit in marked spans: a repeated
        # phrase means the phrase, not one word of it
        if pair.verb_token_id in marked and pair.object_token_id in marked:
            objects[pair.verb].append(pair.object)
    formulaic_count = sum(map(len, objects.values()))
    log = [
        LogEvent(
            event="pairs",
            detail=(
                f"total={len(pairs)} formulaic={formulaic_count} "
                f"non_formulaic={len(pairs) - formulaic_count}"
            ),
        )
    ]
    for verb in sorted(objects):
        if len(objects[verb]) < config.min_epic_tokens:
            log.append(
                LogEvent(
                    event="drop",
                    verb=verb,
                    reason="below_min_epic_tokens",
                    detail=f"{len(objects[verb])} < {config.min_epic_tokens}",
                )
            )

    verbs = []
    for verb in sorted(objects, key=lambda verb: (-len(objects[verb]), verb)):
        token_count = len(objects[verb])
        if token_count < config.min_epic_tokens:
            continue
        epic_types = sorted(set(objects[verb]))
        baseline_types = build_baseline(lexicon, verb, config.baseline_exclusions)
        selected = SelectedVerb(verb, token_count, epic_types, baseline_types)
        for reason, types in (
            ("insufficient_epic_types", epic_types),
            ("insufficient_baseline_types", baseline_types),
        ):
            if len(types) < config.min_object_types:
                selected.drop = LogEvent(
                    event="drop",
                    verb=verb,
                    reason=reason,
                    detail=f"{len(types)} < {config.min_object_types}",
                )
                break
        verbs.append(selected)
    return CaseStudySelection(verbs, log)


def run_case_study(
    config: CaseStudyConfig, selection: CaseStudySelection, space: VectorSpace
) -> CaseStudyResult:
    """Compare each selected verb's two distributions in ``space``, which
    need hold only ``selection.lemmas()``, and log the drops and reports."""
    log = list(selection.log)
    comparisons = []
    for selected in selection.verbs:
        if selected.drop is not None:
            log.append(selected.drop)
            continue
        verb, epic_types, baseline_types = (
            selected.verb, selected.epic_types, selected.baseline_types
        )
        try:
            dists = [
                centroid_similarities(types, space, verb, group)
                for group, types in ((FORMULAIC, epic_types), (BASELINE, baseline_types))
            ]
        except tuple(_DROP_REASONS) as exc:
            log.append(
                LogEvent(event="drop", verb=verb, reason=_DROP_REASONS[type(exc)], detail=str(exc))
            )
            continue
        samples = [dist.similarities for dist in dists]
        pooled = sum(map(len, samples))
        method = "exact" if pooled <= config.ks_exact_limit else "asymptotic"
        ks = ks_two_sample(*samples, method=method, exact_limit=config.ks_exact_limit)
        comparisons.append(VerbComparison(
            verb=verb,
            epic_type_count=len(epic_types),
            baseline_type_count=len(baseline_types),
            ks=ks,
            stars=significance_stars(ks.p_value),
            variances=tuple(summarize(sample)["variance"] for sample in samples),
            oov_counts=tuple(len(dist.oov_lemmas) for dist in dists),
            boxes=tuple(boxplot_stats(sample) for sample in samples),
        ))
        log.append(
            LogEvent(
                event="report",
                verb=verb,
                detail=f"epic_tokens={selected.token_count} epic_types={len(epic_types)} "
                f"baseline_types={len(baseline_types)} p={_fmt(ks.p_value)}",
            )
        )

    return CaseStudyResult(comparisons=comparisons, log=log)


def _fmt(value: float) -> str:
    return format(value, ".12g")


# the files write_case_study_outputs writes into its output_dir, by key
OUTPUT_NAMES = {"table5": "table5.tsv", "table6": "table6.tsv", "boxplot": "fig2_boxplot.csv",
                "log": "run.log"}


def write_case_study_outputs(result: CaseStudyResult, output_dir) -> dict[str, Path]:
    """Write the :data:`OUTPUT_NAMES` files, each atomically; returns their
    paths by key."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    table5 = ["verb\tepic_types\tbaseline_types\n"]
    table6 = [
        "verb\tmedian_formulaic\tmedian_baseline\tvariance_formulaic\tvariance_baseline"
        "\td_statistic\tp_value\tstars\toov_formulaic\toov_baseline\tmethod\n"
    ]
    for c in result.comparisons:
        table5.append(f"{c.verb}\t{c.epic_type_count}\t{c.baseline_type_count}\n")
        numbers = (*(box["median"] for box in c.boxes), *c.variances, c.ks.d_statistic,
                   c.ks.p_value)
        table6.append("\t".join([c.verb, *map(_fmt, numbers), c.stars, *map(str, c.oov_counts),
                                 c.ks.method]) + "\n")
    boxplot = io.StringIO()  # csv.writer ends rows with \r\n, kept as written
    writer = csv.writer(boxplot)
    quantiles = ("min_whisker", "q1", "median", "q3", "max_whisker")
    writer.writerow(["verb", "group", *quantiles, "outliers"])
    for c in result.comparisons:
        for group, box in zip((FORMULAIC, BASELINE), c.boxes):
            writer.writerow([c.verb, group, *(_fmt(box[key]) for key in quantiles),
                             ";".join(map(_fmt, box["outliers"]))])
    run_log = ["event\tverb\treason\tdetail\n"]
    run_log += [f"{e.event}\t{e.verb}\t{e.reason}\t{e.detail}\n" for e in result.log]

    lines = {"table5": table5, "table6": table6, "boxplot": [boxplot.getvalue()], "log": run_log}
    paths = {key: output_dir / name for key, name in OUTPUT_NAMES.items()}
    for key, path in paths.items():
        write_atomic(path, lines[key])
    return paths


def _parse_works(key: str, text: str) -> tuple:
    works = []
    # work names are matched to NFC treebank metadata; paths stay as spelled
    for chunk in unicodedata.normalize("NFC", text).split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        author, sep, title = chunk.partition("|")
        if not sep:
            raise ValueError(f"work entry {chunk!r} must be 'Author|Title'")
        works.append((author.strip(), title.strip()))
    return tuple(works)


def _parse_int(key: str, value) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{key} must be an integer, got {value!r}") from None


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(key: str, value: str) -> bool:
    if value.lower() not in _BOOL_VALUES:
        raise ValueError(f"{key} must be boolean-like, got {value!r}")
    return _BOOL_VALUES[value.lower()]


# how load_config reads a value, by the type of its CaseStudyConfig field
_READERS = {str: lambda key, value: value, int: _parse_int, tuple: _parse_works, bool: _parse_bool}


def load_config(source, overrides: dict | None = None) -> CaseStudyConfig:
    """Parse a key=value config file; explicit overrides win over the file.
    Each key is a :class:`CaseStudyConfig` field, read by the field's type,
    and may be given once in the file; an override is read as the file's
    value is."""
    known = {field.name for field in fields(CaseStudyConfig)}
    raw: dict = {}
    first_lines = {}  # key -> the line that gives it
    for lineno, line in content_rows(source):
        key, sep, value = line.strip().partition("=")
        if not sep:
            raise InputError([(lineno, "expected key=value")], source)
        key = key.strip()
        if key not in known:
            raise InputError([(lineno, f"unknown config key {key!r}")], source)
        if key in first_lines:
            detail = f"duplicate key {key!r} (first at line {first_lines[key]})"
            raise InputError([(lineno, detail)], source)
        first_lines[key] = lineno
        raw[key] = value.strip()
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    kwargs = {
        field.name: _READERS[field.type](field.name, raw.pop(field.name))
        for field in fields(CaseStudyConfig)
        if field.name in raw
    }
    if raw:  # the file's keys were judged as it was read: these are overrides
        raise ValueError(f"unknown config keys: {', '.join(sorted(raw))}")
    return CaseStudyConfig(**kwargs)
