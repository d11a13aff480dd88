import dataclasses
import random
from collections import Counter, defaultdict

import pytest

from grcvalency.casestudy import (
    BASELINE,
    FORMULAIC,
    CaseStudyConfig,
    build_baseline,
    extract_trv_obj,
    load_config,
    load_formula_spans,
    run_case_study,
    select_case_study,
    write_case_study_outputs,
)
from grcvalency.frames import parse_frame
from grcvalency.lexicon import Lexicon

import synthetic_case
from conftest import SPANS_FILE
from test_lexicon import _random_lexicon

EPIC_WORKS = (("Homer", "Iliad"), ("Hesiod", "Theogony"))

# hand scan of the bundled sample: (sentence_id, verb_token, object_token)
EXPECTED_PAIR_KEYS = sorted(
    [(sid, 2, 3) for sid in range(1021, 1036)]
    + [(sid, 1, 2) for sid in range(1036, 1041)]
    + [(1047, 1, 3), (1047, 1, 4), (1048, 1, 3), (1048, 1, 4)]
    + [(1049, 1, 3)]
    + [(2002, 1, 2), (2004, 1, 2), (2005, 1, 3), (2005, 1, 4)]
)

FORMULAIC_KEYS = {(1021, 2, 3), (1022, 2, 3), (1036, 1, 2), (1047, 1, 3), (2002, 1, 2)}


def test_span_file_parses(tmp_path):
    spans = load_formula_spans(SPANS_FILE)
    assert {2, 3} <= spans[1021]
    assert 2 in spans[1023] and 3 not in spans[1023]
    assert 999999 not in spans
    bad = tmp_path / "bad.tsv"
    bad.write_text("12\t1,0\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_formula_spans(bad)
    bad.write_text("12\t1\textra\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_formula_spans(bad)


def test_span_file_header_comments_and_merging(tmp_path):
    path = tmp_path / "spans.tsv"
    path.write_text(
        "sentence_id\ttoken_ids\n# a note\n7\t1,2\n7\t5\n", encoding="utf-8"
    )
    assert load_formula_spans(path) == {7: frozenset({1, 2, 5})}


def test_extraction_matches_hand_scan(corpus_trees):
    pairs = extract_trv_obj(corpus_trees, EPIC_WORKS)
    keys = sorted((p.sentence_id, p.verb_token_id, p.object_token_id) for p in pairs)
    assert keys == EXPECTED_PAIR_KEYS
    by_key = {(p.sentence_id, p.verb_token_id, p.object_token_id): p for p in pairs}
    assert by_key[(1021, 2, 3)].verb == "φέρω"
    assert by_key[(1021, 2, 3)].object == "δῶρον"
    assert by_key[(1021, 2, 3)].work == ("Homer", "Iliad")


def test_prepositional_accusatives_are_not_pairs(corpus_trees):
    mediated = [t for t in corpus_trees if t.sentence_id in (1044, 1045, 3006)]
    assert extract_trv_obj(mediated, EPIC_WORKS + (("Herodotus", "Histories"),)) == []


def test_participle_toggle_controls_pair_extraction(corpus_trees):
    participle_tree = [t for t in corpus_trees if t.sentence_id == 2002]
    assert len(extract_trv_obj(participle_tree, EPIC_WORKS)) == 1
    assert extract_trv_obj(participle_tree, EPIC_WORKS, include_participles=False) == []


def test_work_filter_excludes_other_authors(corpus_trees):
    pairs = extract_trv_obj(corpus_trees, [("Homer", "Iliad")])
    assert {p.work for p in pairs} == {("Homer", "Iliad")}


def _selection(corpus, spans_path, **thresholds):
    """The selection over ``corpus`` with an empty baseline lexicon."""
    config = CaseStudyConfig(formula_span_path=str(spans_path), epic_works=EPIC_WORKS,
                             **thresholds)
    return select_case_study(config, corpus, Lexicon([]))


def test_mark_formulaic_needs_both_tokens(corpus_trees, as_corpus):
    pairs = extract_trv_obj(corpus_trees, EPIC_WORKS)
    selection = _selection(as_corpus(corpus_trees), SPANS_FILE, min_epic_tokens=1)
    assert selection == _selection(corpus_trees, SPANS_FILE, min_epic_tokens=1)
    by_key = {(p.sentence_id, p.verb_token_id, p.object_token_id): p for p in pairs}
    want = Counter(by_key[key].verb for key in FORMULAIC_KEYS)
    assert {s.verb: s.token_count for s in selection.verbs} == want
    assert sorted(o for s in selection.verbs for o in s.epic_types) == sorted(
        {by_key[key].object for key in FORMULAIC_KEYS}
    )
    assert selection.log[0].detail == (
        f"total={len(pairs)} formulaic={len(FORMULAIC_KEYS)} "
        f"non_formulaic={len(pairs) - len(FORMULAIC_KEYS)}"
    )
    # 1021: both tokens marked; 1023: verb marked, object not; 1024: object
    # marked, verb not; 1030: sentence absent from spans
    spans = load_formula_spans(SPANS_FILE)
    assert (2 in spans[1023], 3 in spans[1023]) == (True, False)
    assert (2 in spans[1024], 3 in spans[1024]) == (False, True)
    assert 1030 not in spans
    four = [t for t in corpus_trees if t.sentence_id in (1021, 1023, 1024, 1030)]
    selection = _selection(four, SPANS_FILE, min_epic_tokens=1)
    assert [(s.verb, s.token_count) for s in selection.verbs] == [(by_key[1021, 2, 3].verb, 1)]
    assert selection.log[0].detail == "total=4 formulaic=1 non_formulaic=3"


def _marked(tmp_path, pairs):
    """One epic tree per (verb, object) pair and a span file marking each."""
    trees = [
        synthetic_case._pair_sentence(sentence_id, verb, obj, EPIC_WORKS[0])
        for sentence_id, (verb, obj) in enumerate(pairs, start=1)
    ]
    spans = tmp_path / "spans.tsv"
    spans.write_text("".join(f"{t.sentence_id}\t1,2\n" for t in trees), encoding="utf-8")
    return trees, spans


def test_select_verbs_threshold_boundary(tmp_path):
    counts = {"ἄγω": 50, "φέρω": 49, "δίδωμι": 50, "λαμβάνω": 51}
    trees, spans = _marked(
        tmp_path, [(verb, f"obj{i}") for verb, count in counts.items() for i in range(count)]
    )
    selection = _selection(trees, spans, min_epic_tokens=50)
    assert [(s.verb, s.token_count) for s in selection.verbs] == [
        ("λαμβάνω", 51), ("δίδωμι", 50), ("ἄγω", 50)
    ]
    assert [(e.verb, e.reason, e.detail) for e in selection.log[1:]] == [
        ("φέρω", "below_min_epic_tokens", "49 < 50")
    ]


def test_object_types_are_unique_and_sorted(tmp_path):
    objects = ["ναῦς", "ἵππος", "ναῦς", "ἀνήρ", "ἵππος"]
    trees, spans = _marked(tmp_path, [("ἄγω", obj) for obj in objects])
    (selected,) = _selection(trees, spans, min_epic_tokens=5).verbs
    assert selected.token_count == 5
    assert selected.epic_types == ["ναῦς", "ἀνήρ", "ἵππος"]  # code-point order


def test_build_baseline_hand_set(sample_lexicon):
    assert build_baseline(sample_lexicon, "φέρω", [("Homer", "Iliad"), ("Homer", "Odyssey")]) == [
        "δῶρον"
    ]
    # mediated and non-accusative slots never enter the baseline: the only
    # non-Iliad accusatives of these verbs sit behind prepositions
    assert build_baseline(sample_lexicon, "ἔχω", [("Homer", "Iliad")]) == []
    assert build_baseline(sample_lexicon, "ἄγω", [("Homer", "Iliad")]) == []
    assert build_baseline(sample_lexicon, "τίθημι", [("Homer", "Iliad")]) == ["ἀνήρ"]


def test_build_baseline_full_exclusion(sample_lexicon):
    works = {(e.author, e.title) for e in sample_lexicon.entries}
    assert build_baseline(sample_lexicon, "φέρω", works) == []


def test_baseline_never_contains_excluded_only_lemmas(sample_lexicon):
    included = build_baseline(sample_lexicon, "αἱρέω", [("Homer", "Iliad")])
    assert "ξίφος" not in included  # attested only in the Iliad
    assert included == ["ναῦς", "ἵππος"]


# slots no baseline may take (a mediated OBJ, a non-accusative OBJ, an
# accusative non-OBJ, an OBJ without a filler), and one coordinated OBJ it must
_BASELINE_DECOYS = (
    "(εἰς)OBJ[accusative]{ἀσπίς}",
    "OBJ[dative]{ξίφος}",
    "SBJ[accusative]{ἔγχος}",
    "OBJ[accusative]",
    "OBJ_CO[accusative]{κύων}",
)


def _scan_baseline(lexicon, verb, exclusions):
    fillers = set()
    for entry in lexicon.entries:
        if entry.verb != verb or (entry.author, entry.title) in set(exclusions):
            continue
        for element in parse_frame(entry.frame_fillers)[1]:
            if (
                element.label.split("_")[0] == "OBJ"
                and element.realization == "accusative"
                and element.mediator is None
                and element.filler is not None
            ):
                fillers.add(element.filler)
    return sorted(fillers)


@pytest.mark.parametrize("seed", [0, 1, 9, 80, 700])
def test_build_baseline_matches_a_scan_of_the_entries(seed):
    rng = random.Random(seed)
    for size in (0, 1, 7, 60, 300):
        entries = [
            dataclasses.replace(
                entry,
                frame_fillers=",".join(
                    [entry.frame_fillers] + rng.sample(_BASELINE_DECOYS, rng.randint(0, 3))
                ),
            )
            for entry in _random_lexicon(size, seed + size).entries
        ]
        lexicon = Lexicon(rng.sample(entries, len(entries)))  # verbs interleaved
        for exclusions in ([], [("Homer", "Iliad")], [("Homer", "Iliad"), ("Plato", "Euthyphro")]):
            for verb in ("φέρω", "ἄγω", "λύω", "ἔχω", "τίθημι", "οὐδαμός"):
                assert build_baseline(lexicon, verb, exclusions) == _scan_baseline(
                    lexicon, verb, exclusions
                ), (size, exclusions, verb)


def test_both_sides_of_the_case_study_agree_on_the_plain_object(corpus_trees, sample_lexicon):
    # the epic pairs come from the trees, the baseline from the lexicon's
    # frame_fillers; over the same trees the two must name the same objects
    works = {(tree.author, tree.title) for tree in corpus_trees}
    pairs = extract_trv_obj(corpus_trees, works)
    objects = defaultdict(set)
    for pair in pairs:
        objects[pair.verb].add(pair.object)
    verbs = {entry.verb for entry in sample_lexicon.entries}
    assert (len(pairs), len(verbs), len(objects)) == (30, 14, 10)
    assert set(objects) < verbs and sum(map(len, objects.values())) == 21
    for verb in sorted(verbs):
        assert build_baseline(sample_lexicon, verb, ()) == sorted(objects[verb]), verb


def test_run_case_study_synthetic(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
        output_dir=str(tmp_path / "out"),
    )
    result = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])

    assert [c.verb for c in result.comparisons] == [
        synthetic_case.TIGHT_VERB,
        synthetic_case.SAME_VERB,
    ]
    tight, same = result.comparisons
    assert tight.epic_type_count == 13
    assert tight.baseline_type_count == 12
    assert tight.oov_counts == (1, 0)
    assert tight.ks.p_value < 0.05
    assert tight.stars == "**"
    assert tight.median_formulaic != tight.median_baseline
    assert same.ks.d_statistic == 0.0
    assert same.ks.p_value == 1.0
    assert same.stars == ""

    drops = {(e.verb, e.reason) for e in result.log if e.event == "drop"}
    assert (synthetic_case.RARE_VERB, "below_min_epic_tokens") in drops
    assert (synthetic_case.NARROW_VERB, "insufficient_epic_types") in drops
    assert (synthetic_case.THIN_VERB, "insufficient_baseline_types") in drops
    # the tight verb's one non-formulaic epic token is not counted
    reports = {e.verb: e.detail for e in result.log if e.event == "report"}
    assert reports[synthetic_case.TIGHT_VERB].startswith("epic_tokens=60 ")

    assert result.log[0].detail == "total=285 formulaic=284 non_formulaic=1"


def test_run_case_study_is_deterministic(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
    )
    first = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])
    second = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])
    assert first.comparisons == second.comparisons
    assert first.boxplot_rows == second.boxplot_rows


def test_full_baseline_exclusion_drops_everything(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
        baseline_exclusions=(
            synthetic_case.EPIC_WORK,
            synthetic_case.BASELINE_WORK,
            ("Homer", "Odyssey"),
        ),
    )
    result = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])
    assert result.comparisons == []
    reasons = {e.reason for e in result.log if e.event == "drop"}
    assert "insufficient_baseline_types" in reasons


class _RecordingVectors(dict):
    """A vector mapping that records every lemma looked up in it."""

    def __init__(self, vectors):
        super().__init__(vectors)
        self.looked_up = set()

    def __contains__(self, lemma):
        self.looked_up.add(lemma)
        return super().__contains__(lemma)

    def __getitem__(self, lemma):
        self.looked_up.add(lemma)
        return super().__getitem__(lemma)


@pytest.mark.parametrize("min_object_types", [10, 9])  # 9 adds an insufficient_vector_data drop
def test_the_comparison_reads_only_the_selected_lemmas(tmp_path, min_object_types):
    import numpy as np

    from grcvalency import VectorSpace, load_vector_space

    case = synthetic_case.build_case(tmp_path)
    # rows the study never reads: the objects of verbs that no threshold lets through
    unused = dict.fromkeys(synthetic_case.RARE_TYPES + synthetic_case.NARROW_TYPES, np.ones(4))
    padded = synthetic_case.write_vectors(
        tmp_path / "padded.txt", VectorSpace(4, {**case["space"].vectors, **unused})
    )
    config = CaseStudyConfig(
        vector_space_path=str(padded),
        formula_span_path=str(case["spans_path"]),
        min_object_types=min_object_types,
    )
    selection = select_case_study(config, case["corpus"], case["lexicon"])
    full = load_vector_space(padded)
    recording = VectorSpace(full.dimension, _RecordingVectors(full.vectors))
    expected = run_case_study(config, selection, recording)
    assert recording.vectors.looked_up <= selection.lemmas()
    assert not selection.lemmas() & set(unused)

    selective = load_vector_space(padded, selection.lemmas())
    assert len(selective) < len(full)
    result = run_case_study(config, selection, selective)
    assert result == expected
    reasons = [event.reason for event in result.log if event.event == "drop"]
    assert ("insufficient_vector_data" in reasons) == (min_object_types == 9)


def test_outputs_are_written(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
    )
    result = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])
    paths = write_case_study_outputs(result, tmp_path / "out")
    table5 = paths["table5"].read_text(encoding="utf-8").splitlines()
    assert table5[0] == "verb\tepic_types\tbaseline_types"
    assert table5[1].split("\t") == [synthetic_case.TIGHT_VERB, "13", "12"]
    table6 = paths["table6"].read_text(encoding="utf-8").splitlines()
    assert table6[0].split("\t") == [
        "verb",
        "median_formulaic",
        "median_baseline",
        "variance_formulaic",
        "variance_baseline",
        "d_statistic",
        "p_value",
        "stars",
        "oov_formulaic",
        "oov_baseline",
        "method",
    ]
    assert len(table6) == 3
    boxplot = paths["boxplot"].read_text(encoding="utf-8").splitlines()
    assert boxplot[0].startswith("verb,group,")
    groups = {line.split(",")[1] for line in boxplot[1:]}
    assert groups == {FORMULAIC, BASELINE}
    log = paths["log"].read_text(encoding="utf-8")
    assert "below_min_epic_tokens" in log


def test_config_file_roundtrip(tmp_path):
    config_path = tmp_path / "case.conf"
    config_path.write_text(
        "\n".join(
            [
                "# comment",
                "treebank_dir = corpus",
                "lexicon_path = lex.tsv",
                "vector_space_path = vectors.txt",
                "formula_span_path = spans.tsv",
                "output_dir = out",
                "epic_works = Homer|Iliad; Hesiod|Theogony",
                "baseline_exclusions = Homer|Iliad",
                "min_epic_tokens = 5",
                "min_object_types = 3",
                "include_participles = false",
            ]
        )
        + "\n",
        encoding="utf-8",
    )
    config = load_config(config_path)
    assert config.epic_works == (("Homer", "Iliad"), ("Hesiod", "Theogony"))
    assert config.baseline_exclusions == (("Homer", "Iliad"),)
    assert config.min_epic_tokens == 5
    assert config.include_participles is False
    overridden = load_config(config_path, overrides={"min_epic_tokens": 9})
    assert overridden.min_epic_tokens == 9


def test_config_rejects_unknown_keys_and_bad_values(tmp_path):
    path = tmp_path / "bad.conf"
    path.write_text("mystery = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="mystery"):
        load_config(path)
    path.write_text("min_epic_tokens = 0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="min_epic_tokens must be positive, got 0"):
        load_config(path)
    with pytest.raises(ValueError, match="min_object_types must be positive, got -1"):
        load_config(path, overrides={"min_epic_tokens": 5, "min_object_types": -1})
    path.write_text("min_epic_tokens = ten\n", encoding="utf-8")
    with pytest.raises(ValueError, match="min_epic_tokens must be an integer, got 'ten'"):
        load_config(path)
    path.write_text("ks_exact_limit = 2.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="ks_exact_limit must be an integer, got '2.5'"):
        load_config(path)
    path.write_text("epic_works = HomerIliad\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(path)
    path.write_text("include_participles = maybe\n", encoding="utf-8")
    with pytest.raises(ValueError, match="boolean"):
        load_config(path)
    path.write_text("no-equals-sign\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key=value"):
        load_config(path)
    path.write_text("ks_exact_limit = 16\n", encoding="utf-8")
    assert load_config(path).ks_exact_limit == 16


def test_lexicon_of_excluded_works_only_gives_empty_baseline():
    lexicon = Lexicon([])
    assert build_baseline(lexicon, "φέρω", [("Homer", "Iliad")]) == []


def test_small_pooled_sizes_use_the_exact_method(tmp_path):
    import numpy as np

    from grcvalency import VectorSpace, extract_entries
    from synthetic_case import BASELINE_WORK, EPIC_WORK, _pair_sentence, write_spans, write_vectors

    trees = []
    sid = 700
    epic_objects = [f"μικρ{c}" for c in "αβγδε"]
    base_objects = [f"μακρ{c}" for c in "αβγδε"]
    for obj in epic_objects:
        sid += 1
        trees.append(_pair_sentence(sid, "χέω", obj, EPIC_WORK))
    formulaic_ids = [t.sentence_id for t in trees]
    for obj in base_objects:
        sid += 1
        trees.append(_pair_sentence(sid, "χέω", obj, BASELINE_WORK))
    rng = np.random.default_rng(7)
    space = VectorSpace(
        3, {obj: rng.normal(size=3) for obj in epic_objects + base_objects}
    )
    config = CaseStudyConfig(
        vector_space_path=str(write_vectors(tmp_path / "v.txt", space)),
        formula_span_path=str(write_spans(tmp_path / "s.tsv", formulaic_ids)),
        min_epic_tokens=2,
        min_object_types=2,
    )
    result = synthetic_case.run(config, trees, Lexicon(extract_entries(trees)), space)
    assert len(result.comparisons) == 1
    assert result.comparisons[0].ks.method == "exact"  # pooled size 10 <= 20


def test_the_exact_limit_of_the_config_picks_each_verbs_ks_method(tmp_path):
    case = synthetic_case.build_case(tmp_path)

    def comparisons(limit):
        config = CaseStudyConfig(
            vector_space_path=str(case["vectors_path"]),
            formula_span_path=str(case["spans_path"]),
            ks_exact_limit=limit,
        )
        result = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])
        return {c.verb: c.ks for c in result.comparisons}

    default = comparisons(CaseStudyConfig().ks_exact_limit)
    tight, same = default[synthetic_case.TIGHT_VERB], default[synthetic_case.SAME_VERB]
    pooled = tight.n1 + tight.n2
    assert same.n1 + same.n2 < pooled
    at_limit, below_limit = comparisons(pooled), comparisons(pooled - 1)
    assert at_limit[synthetic_case.TIGHT_VERB].method == "exact"
    assert below_limit[synthetic_case.TIGHT_VERB] == tight
    assert tight.method == "asymptotic"
    exact = at_limit[synthetic_case.TIGHT_VERB]
    assert exact.d_statistic == tight.d_statistic
    assert exact.p_value != tight.p_value
    # the other verb's pooled size is within both limits
    assert at_limit[synthetic_case.SAME_VERB].method == "exact"
    assert below_limit[synthetic_case.SAME_VERB].method == "exact"


def test_vector_failures_drop_verbs_with_logged_reasons(tmp_path):
    import numpy as np

    from grcvalency import VectorSpace, extract_entries
    from synthetic_case import BASELINE_WORK, EPIC_WORK, _pair_sentence, write_spans, write_vectors

    trees = []
    sid = 500
    # sparse verb: two epic types but only one is in the space
    for obj in ("κλέοςα", "κλεοςβ", "κλέοςα"):
        sid += 1
        trees.append(_pair_sentence(sid, "λύω", obj, EPIC_WORK))
    # antipodal verb: the two epic object vectors cancel out exactly
    for obj in ("ζυγόνα", "ζυγόνβ"):
        sid += 1
        trees.append(_pair_sentence(sid, "βάλλω", obj, EPIC_WORK))
    formulaic_ids = [t.sentence_id for t in trees]
    for verb in ("λύω", "βάλλω"):
        for obj in ("κοινόςα", "κοινόςβ"):
            sid += 1
            trees.append(_pair_sentence(sid, verb, obj, BASELINE_WORK))

    space = VectorSpace(
        2,
        {
            "κλέοςα": np.array([1.0, 0.0]),
            "ζυγόνα": np.array([1.0, 0.0]),
            "ζυγόνβ": np.array([-1.0, 0.0]),
            "κοινόςα": np.array([1.0, 1.0]),
            "κοινόςβ": np.array([0.0, 1.0]),
        },
    )
    config = CaseStudyConfig(
        vector_space_path=str(write_vectors(tmp_path / "v.txt", space)),
        formula_span_path=str(write_spans(tmp_path / "s.tsv", formulaic_ids)),
        min_epic_tokens=2,
        min_object_types=2,
    )
    result = synthetic_case.run(config, trees, Lexicon(extract_entries(trees)), space)
    assert result.comparisons == []
    drops = {(e.verb, e.reason) for e in result.log if e.event == "drop"}
    assert ("λύω", "insufficient_vector_data") in drops
    assert ("βάλλω", "degenerate_centroid") in drops


def test_a_zero_vector_drops_its_verb_and_the_run_goes_on(tmp_path):
    import numpy as np

    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
    )
    zero = synthetic_case.TIGHT_BASE_TYPES[0]
    case["space"].vectors[zero] = np.zeros(case["space"].dimension)
    result = synthetic_case.run(config, case["corpus"], case["lexicon"], case["space"])
    assert [c.verb for c in result.comparisons] == [synthetic_case.SAME_VERB]
    drops = [e for e in result.log if e.event == "drop" and e.verb == synthetic_case.TIGHT_VERB]
    assert [(e.reason, e.detail) for e in drops] == [
        ("zero_vector", f"{synthetic_case.TIGHT_VERB}/baseline: {zero} has a zero vector")
    ]
