from collections import Counter

import pytest

from grcvalency.casestudy import (
    BASELINE,
    FORMULAIC,
    CaseStudyConfig,
    TrVObjPair,
    build_baseline,
    extract_trv_obj,
    load_config,
    load_formula_spans,
    mark_formulaic,
    object_types,
    run_case_study,
    select_verbs,
    write_case_study_outputs,
)
from grcvalency.lexicon import Lexicon

import synthetic_case
from conftest import SPANS_FILE

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
    assert spans.contains(1021, 2) and spans.contains(1021, 3)
    assert spans.contains(1023, 2) and not spans.contains(1023, 3)
    assert not spans.contains(999999, 1)
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
    spans = load_formula_spans(path)
    assert spans.spans[7] == frozenset({1, 2, 5})


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


def test_mark_formulaic_needs_both_tokens(corpus_trees):
    spans = load_formula_spans(SPANS_FILE)
    pairs = mark_formulaic(extract_trv_obj(corpus_trees, EPIC_WORKS), spans)
    flagged = {
        (p.sentence_id, p.verb_token_id, p.object_token_id) for p in pairs if p.formulaic
    }
    assert flagged == FORMULAIC_KEYS
    by_sentence = {p.sentence_id: p for p in pairs}
    assert not by_sentence[1023].formulaic  # verb marked, object not
    assert not by_sentence[1024].formulaic  # object marked, verb not
    assert not by_sentence[1030].formulaic  # sentence absent from spans
    # the flags partition the pairs, per verb and overall
    verbs = {p.verb for p in pairs}
    for verb in verbs:
        of_verb = [p for p in pairs if p.verb == verb]
        formulaic = sum(1 for p in of_verb if p.formulaic)
        non_formulaic = sum(1 for p in of_verb if not p.formulaic)
        assert formulaic + non_formulaic == len(of_verb)
    assert sum(1 for p in pairs if p.formulaic) == len(FORMULAIC_KEYS)


def _pair(verb, obj, sid, formulaic):
    return TrVObjPair(verb, obj, sid, 1, 2, ("Homer", "Iliad"), formulaic)


def test_select_verbs_threshold_boundary():
    counts = Counter({"ἄγω": 50, "φέρω": 49, "δίδωμι": 50, "λαμβάνω": 51})
    selected = select_verbs(counts, 50)
    assert selected == [("λαμβάνω", 51), ("δίδωμι", 50), ("ἄγω", 50)]


def test_object_types_are_unique_and_sorted():
    pairs = [_pair("ἄγω", "ναῦς", 1, True), _pair("ἄγω", "ναῦς", 2, True)]
    assert object_types(pairs) == ["ναῦς"]
    assert object_types([]) == []


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


def test_run_case_study_synthetic(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
        output_dir=str(tmp_path / "out"),
    )
    result = run_case_study(config, case["corpus"], case["lexicon"], case["space"])

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

    formulaic = result.formulaic_count
    assert formulaic + (result.pair_count - formulaic) == result.pair_count
    assert result.pair_count == 285 and formulaic == 284


def test_run_case_study_is_deterministic(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
    )
    first = run_case_study(config, case["corpus"], case["lexicon"], case["space"])
    second = run_case_study(config, case["corpus"], case["lexicon"], case["space"])
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
    result = run_case_study(config, case["corpus"], case["lexicon"], case["space"])
    assert result.comparisons == []
    reasons = {e.reason for e in result.log if e.event == "drop"}
    assert "insufficient_baseline_types" in reasons


def test_outputs_are_written(tmp_path):
    case = synthetic_case.build_case(tmp_path)
    config = CaseStudyConfig(
        vector_space_path=str(case["vectors_path"]),
        formula_span_path=str(case["spans_path"]),
    )
    result = run_case_study(config, case["corpus"], case["lexicon"], case["space"])
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
    with pytest.raises(ValueError):
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
    result = run_case_study(config, trees, Lexicon(extract_entries(trees)), space)
    assert len(result.comparisons) == 1
    assert result.comparisons[0].ks.method == "exact"  # pooled size 10 <= 20


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
    result = run_case_study(config, trees, Lexicon(extract_entries(trees)), space)
    assert result.comparisons == []
    drops = {(e.verb, e.reason) for e in result.log if e.event == "drop"}
    assert ("λύω", "insufficient_vector_data") in drops
    assert ("βάλλω", "degenerate_centroid") in drops
