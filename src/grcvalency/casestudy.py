"""Transitive-verb/direct-object semantic-variation pipeline.

Extracts verb + plain-accusative-object pairs from an epic corpus,
splits them by formulaic status using externally supplied span
annotations, builds the comparison set from the lexicon minus the
overlapping works, and compares the two centroid-similarity
distributions per verb.  Emits the three report files plus a run log in
which every dropped verb carries a machine-readable reason.
"""

import csv
import unicodedata
from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from pathlib import Path

from .frames import collect_arguments, identify_predicates
from .lexicon import parse_frame
from .semantics import (
    DegenerateCentroidError,
    InsufficientDataError,
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


@dataclass(frozen=True)
class TrVObjPair:
    verb: str
    object: str
    sentence_id: int
    verb_token_id: int
    object_token_id: int
    work: tuple[str, str]
    formulaic: bool = False


@dataclass
class FormulaSpanSet:
    """Token ids marked formulaic, per sentence; absent sentence = empty."""

    spans: dict[int, frozenset[int]]

    def contains(self, sentence_id: int, token_id: int) -> bool:
        return token_id in self.spans.get(sentence_id, frozenset())


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
    # CLI-level wiring; ignored by run_case_study itself.
    treebank_dir: str = ""
    manifest_path: str = ""
    lexicon_path: str = ""
    output_dir: str = "."

    def __post_init__(self):
        if self.min_epic_tokens <= 0 or self.min_object_types <= 0:
            raise ValueError("thresholds must be positive")


@dataclass
class VerbComparison:
    verb: str
    epic_type_count: int
    baseline_type_count: int
    median_formulaic: float
    median_baseline: float
    variance_formulaic: float
    variance_baseline: float
    ks: KSResult
    stars: str
    oov_counts: tuple[int, int]  # (formulaic, baseline)


@dataclass
class LogEvent:
    event: str
    verb: str = ""
    reason: str = ""
    detail: str = ""


@dataclass
class CaseStudyResult:
    comparisons: list[VerbComparison]
    boxplot_rows: list[dict]
    log: list[LogEvent]
    pair_count: int = 0
    formulaic_count: int = 0


def load_formula_spans(source) -> FormulaSpanSet:
    """Read ``sentence_id<TAB>token_ids`` (token ids comma-separated)."""
    text = Path(source).read_text(encoding="utf-8")
    spans = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if lineno == 1 and parts[0] == "sentence_id":
            continue
        if len(parts) != 2:
            raise ValueError(f"span file line {lineno}: expected 2 tab-separated fields")
        try:
            sentence_id = int(parts[0])
            token_ids = frozenset(int(t) for t in parts[1].split(",") if t.strip())
        except ValueError:
            raise ValueError(f"span file line {lineno}: ids must be integers")
        if any(t <= 0 for t in token_ids):
            raise ValueError(f"span file line {lineno}: token ids must be positive")
        spans[sentence_id] = spans.get(sentence_id, frozenset()) | token_ids
    return FormulaSpanSet(spans)


def extract_trv_obj(corpus, epic_works, include_participles: bool = True) -> list[TrVObjPair]:
    """One pair per (verb token, OBJ slot) with a plain accusative object:
    unmediated, base relation OBJ, inside the selected works."""
    works = {tuple(w) for w in epic_works}
    pairs = []
    for tree in corpus:
        work = (tree.author, tree.title)
        if work not in works:
            continue
        for verb in identify_predicates(tree, include_participles):
            for slot in collect_arguments(tree, verb):
                if (
                    slot.base_relation == "OBJ"
                    and slot.realization == "accusative"
                    and slot.mediator is None
                ):
                    pairs.append(
                        TrVObjPair(
                            verb=verb.lemma,
                            object=slot.filler_lemma,
                            sentence_id=tree.sentence_id,
                            verb_token_id=verb.token_id,
                            object_token_id=slot.filler_token_id,
                            work=work,
                        )
                    )
    return pairs


def mark_formulaic(pairs, spans: FormulaSpanSet) -> list[TrVObjPair]:
    """A pair is formulaic only when both its tokens sit in marked spans;
    a repeated phrase means the phrase, not one word of it."""
    marked = []
    for pair in pairs:
        flag = spans.contains(pair.sentence_id, pair.verb_token_id) and spans.contains(
            pair.sentence_id, pair.object_token_id
        )
        marked.append(replace(pair, formulaic=flag))
    return marked


def select_verbs(counts, min_epic_tokens: int) -> list[tuple[str, int]]:
    """Verbs whose formulaic pair count (``counts``: verb -> count)
    reaches the threshold, descending."""
    selected = [(verb, count) for verb, count in counts.items() if count >= min_epic_tokens]
    selected.sort(key=lambda item: (-item[1], item[0]))
    return selected


def object_types(pairs) -> list[str]:
    """Unique object lemmas, sorted."""
    return sorted({pair.object for pair in pairs})


def build_baseline(lexicon, verb: str, exclusions) -> list[str]:
    """Unique filler lemmas of unmediated accusative OBJ slots for the verb,
    skipping entries from the excluded works."""
    excluded = {tuple(w) for w in exclusions}
    fillers = set()
    for entry in lexicon.by_verb.get(verb, ()):
        if (entry.author, entry.title) in excluded:
            continue
        _, elements = parse_frame(entry.frame_fillers)
        for element in elements:
            if (
                element.base_relation == "OBJ"
                and element.realization == "accusative"
                and element.mediator is None
                and element.filler is not None
            ):
                fillers.add(element.filler)
    return sorted(fillers)


def run_case_study(config: CaseStudyConfig, corpus, lexicon, space: VectorSpace) -> CaseStudyResult:
    """Full pipeline: extract, mark, threshold, compare, and log drops."""
    spans = load_formula_spans(config.formula_span_path)
    pairs = mark_formulaic(
        extract_trv_obj(corpus, config.epic_works, config.include_participles), spans
    )
    log = []
    counts = Counter(pair.verb for pair in pairs if pair.formulaic)
    formulaic_count = counts.total()
    log.append(
        LogEvent(
            event="pairs",
            detail=(
                f"total={len(pairs)} formulaic={formulaic_count} "
                f"non_formulaic={len(pairs) - formulaic_count}"
            ),
        )
    )

    for verb, count in sorted(counts.items()):
        if count < config.min_epic_tokens:
            log.append(
                LogEvent(
                    event="drop",
                    verb=verb,
                    reason="below_min_epic_tokens",
                    detail=f"{count} < {config.min_epic_tokens}",
                )
            )
    selected = select_verbs(counts, config.min_epic_tokens)

    formulaic_by_verb = defaultdict(list)
    for pair in pairs:
        if pair.formulaic:
            formulaic_by_verb[pair.verb].append(pair)

    comparisons = []
    boxplot_rows = []
    for verb, token_count in selected:
        epic_types = object_types(formulaic_by_verb[verb])
        baseline_types = build_baseline(lexicon, verb, config.baseline_exclusions)
        if len(epic_types) < config.min_object_types:
            log.append(
                LogEvent(
                    event="drop",
                    verb=verb,
                    reason="insufficient_epic_types",
                    detail=f"{len(epic_types)} < {config.min_object_types}",
                )
            )
            continue
        if len(baseline_types) < config.min_object_types:
            log.append(
                LogEvent(
                    event="drop",
                    verb=verb,
                    reason="insufficient_baseline_types",
                    detail=f"{len(baseline_types)} < {config.min_object_types}",
                )
            )
            continue
        try:
            formulaic_dist = centroid_similarities(epic_types, space, verb, FORMULAIC)
            baseline_dist = centroid_similarities(baseline_types, space, verb, BASELINE)
        except InsufficientDataError as exc:
            log.append(
                LogEvent(event="drop", verb=verb, reason="insufficient_vector_data", detail=str(exc))
            )
            continue
        except DegenerateCentroidError as exc:
            log.append(
                LogEvent(event="drop", verb=verb, reason="degenerate_centroid", detail=str(exc))
            )
            continue
        formulaic_summary = summarize(formulaic_dist.similarities)
        baseline_summary = summarize(baseline_dist.similarities)
        pooled = len(formulaic_dist.similarities) + len(baseline_dist.similarities)
        method = "exact" if pooled <= config.ks_exact_limit else "asymptotic"
        ks = ks_two_sample(
            formulaic_dist.similarities,
            baseline_dist.similarities,
            method=method,
            exact_limit=config.ks_exact_limit,
        )
        comparison = VerbComparison(
            verb=verb,
            epic_type_count=len(epic_types),
            baseline_type_count=len(baseline_types),
            median_formulaic=formulaic_summary["median"],
            median_baseline=baseline_summary["median"],
            variance_formulaic=formulaic_summary["variance"],
            variance_baseline=baseline_summary["variance"],
            ks=ks,
            stars=significance_stars(ks.p_value),
            oov_counts=(len(formulaic_dist.oov_lemmas), len(baseline_dist.oov_lemmas)),
        )
        comparisons.append(comparison)
        log.append(
            LogEvent(
                event="report",
                verb=verb,
                detail=f"epic_tokens={token_count} epic_types={len(epic_types)} "
                f"baseline_types={len(baseline_types)} p={_fmt(ks.p_value)}",
            )
        )
        for group, dist in ((FORMULAIC, formulaic_dist), (BASELINE, baseline_dist)):
            box = boxplot_stats(dist.similarities)
            boxplot_rows.append({"verb": verb, "group": group, **box})

    return CaseStudyResult(
        comparisons=comparisons,
        boxplot_rows=boxplot_rows,
        log=log,
        pair_count=len(pairs),
        formulaic_count=formulaic_count,
    )


def _fmt(value: float) -> str:
    return format(value, ".12g")


def write_case_study_outputs(result: CaseStudyResult, output_dir) -> dict[str, Path]:
    """Write table5.tsv, table6.tsv, fig2_boxplot.csv and the run log."""
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    paths = {}

    table5 = output_dir / "table5.tsv"
    lines = ["verb\tepic_types\tbaseline_types"]
    for c in result.comparisons:
        lines.append(f"{c.verb}\t{c.epic_type_count}\t{c.baseline_type_count}")
    table5.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["table5"] = table5

    table6 = output_dir / "table6.tsv"
    header = (
        "verb\tmedian_formulaic\tmedian_baseline\tvariance_formulaic\tvariance_baseline"
        "\td_statistic\tp_value\tstars\toov_formulaic\toov_baseline\tmethod"
    )
    lines = [header]
    for c in result.comparisons:
        lines.append(
            "\t".join(
                [
                    c.verb,
                    _fmt(c.median_formulaic),
                    _fmt(c.median_baseline),
                    _fmt(c.variance_formulaic),
                    _fmt(c.variance_baseline),
                    _fmt(c.ks.d_statistic),
                    _fmt(c.ks.p_value),
                    c.stars,
                    str(c.oov_counts[0]),
                    str(c.oov_counts[1]),
                    c.ks.method,
                ]
            )
        )
    table6.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["table6"] = table6

    boxplot = output_dir / "fig2_boxplot.csv"
    with boxplot.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ["verb", "group", "min_whisker", "q1", "median", "q3", "max_whisker", "outliers"]
        )
        for row in result.boxplot_rows:
            writer.writerow(
                [
                    row["verb"],
                    row["group"],
                    _fmt(row["min_whisker"]),
                    _fmt(row["q1"]),
                    _fmt(row["median"]),
                    _fmt(row["q3"]),
                    _fmt(row["max_whisker"]),
                    ";".join(_fmt(x) for x in row["outliers"]),
                ]
            )
    paths["boxplot"] = boxplot

    run_log = output_dir / "run.log"
    lines = ["event\tverb\treason\tdetail"]
    for event in result.log:
        lines.append(f"{event.event}\t{event.verb}\t{event.reason}\t{event.detail}")
    run_log.write_text("\n".join(lines) + "\n", encoding="utf-8")
    paths["log"] = run_log
    return paths


def _parse_works(text: str):
    works = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        author, sep, title = chunk.partition("|")
        if not sep:
            raise ValueError(f"work entry {chunk!r} must be 'Author|Title'")
        works.append((author.strip(), title.strip()))
    return tuple(works)


_BOOL_VALUES = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def load_config(source, overrides: dict | None = None) -> CaseStudyConfig:
    """Parse a key=value config file; explicit overrides win over the file."""
    text = Path(source).read_text(encoding="utf-8")
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise ValueError(f"config line {lineno}: expected key=value")
        raw[key.strip()] = unicodedata.normalize("NFC", value.strip())
    if overrides:
        raw.update({k: v for k, v in overrides.items() if v is not None})

    kwargs = {}
    for key in ("vector_space_path", "formula_span_path", "treebank_dir", "manifest_path",
                "lexicon_path", "output_dir"):
        if key in raw:
            kwargs[key] = str(raw.pop(key))
    for key in ("min_epic_tokens", "min_object_types", "ks_exact_limit"):
        if key in raw:
            kwargs[key] = int(raw.pop(key))
    for key in ("epic_works", "baseline_exclusions"):
        if key in raw:
            value = raw.pop(key)
            kwargs[key] = _parse_works(value) if isinstance(value, str) else tuple(value)
    if "include_participles" in raw:
        value = raw.pop("include_participles")
        if isinstance(value, str):
            if value.lower() not in _BOOL_VALUES:
                raise ValueError(f"include_participles must be boolean-like, got {value!r}")
            value = _BOOL_VALUES[value.lower()]
        kwargs["include_participles"] = bool(value)
    if raw:
        raise ValueError(f"unknown config keys: {', '.join(sorted(raw))}")
    return CaseStudyConfig(**kwargs)
