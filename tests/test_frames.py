import random
import re

import pytest

from grcvalency.frames import (
    ARGUMENT_RELATIONS,
    ArgumentSlot,
    FrameElement,
    collect_arguments,
    extract_entries,
    identify_predicates,
    parse_frame,
    realization_of,
    render_frame,
    split_relation,
)
from grcvalency.lexicon import read_lexicon
from grcvalency.postag import decode_postag
from grcvalency.treebank import (
    SentenceTree,
    WordNode,
    normalize_lemma,
    parse_treebank_file,
    validate_sentence,
)

from conftest import CORPUS_DIR, GOLDEN_LEXICON

_BRACES = re.compile(r"\{[^{}]*\}")


def _node(tree, token_id):
    return tree.nodes[tree.positions[token_id]]


def _trees(name, meta=None):
    trees, issues = parse_treebank_file((CORPUS_DIR / name).read_bytes(), fallback_meta=meta)
    assert not issues
    return {t.sentence_id: t for t in trees}


@pytest.fixture(scope="module")
def persians():
    return _trees("persians.xml", ("Aeschylus", "Persians"))


@pytest.fixture(scope="module")
def iliad():
    return _trees("iliad.xml", ("Homer", "Iliad"))


@pytest.fixture(scope="module")
def theogony():
    return _trees("theogony.xml")


def test_predicates_include_verbs_regardless_of_relation(persians):
    tree = persians[2901046]
    assert {n.token_id for n in identify_predicates(tree)} == {7, 25}
    assert _node(tree, 7).relation == "ADV"


def test_predicates_participle_toggle(theogony):
    tree = theogony[2002]
    assert [n.token_id for n in identify_predicates(tree, include_participles=True)] == [1]
    assert identify_predicates(tree, include_participles=False) == []


def test_infinitives_always_count_as_predicates(iliad):
    tree = iliad[1050]
    assert {n.token_id for n in identify_predicates(tree, include_participles=False)} == {1, 2}


def test_tree_without_verbs_has_no_predicates(iliad):
    assert identify_predicates(iliad[1041]) == []


def test_excerpt_arguments(persians):
    tree = persians[2901046]
    slots = collect_arguments(tree, _node(tree, 7))
    assert [(s.base_relation, s.filler, s.realization) for s in slots] == [
        ("SBJ", "δέος", "nominative"),
        ("OBJ", "σύ", "dative"),
    ]
    # the ATR dependents of the subject never surface as arguments
    assert {s.filler_token_id for s in slots} == {3, 5}
    # the matrix verb reaches nothing through the conjunction
    assert collect_arguments(tree, _node(tree, 25)) == []


def test_prepositional_argument_records_mediator(iliad):
    tree = iliad[1044]
    slots = collect_arguments(tree, _node(tree, 2))
    mediated = [s for s in slots if s.mediator is not None]
    assert len(mediated) == 1
    assert mediated[0].mediator == "εἰς"
    assert mediated[0].realization == "accusative"
    assert mediated[0].filler == "ναῦς"


def test_conjunction_argument_realizes_as_mood(theogony):
    tree = theogony[2001]
    slots = collect_arguments(tree, _node(tree, 1))
    assert len(slots) == 1
    assert slots[0].mediator == "ὅτι"
    assert slots[0].realization == "indicative"
    assert slots[0].filler == "φέρω"


def test_coordination_yields_one_slot_per_conjunct(iliad):
    tree = iliad[1047]
    slots = collect_arguments(tree, _node(tree, 1))
    assert [s.filler for s in slots] == ["δῶρον", "ξίφος"]
    assert all(s.label == "OBJ_CO" for s in slots)


def test_apposition_yields_suffixed_slots(theogony):
    tree = theogony[2005]
    slots = collect_arguments(tree, _node(tree, 1))
    assert [s.label for s in slots] == ["OBJ_AP", "OBJ_AP"]


def test_chained_coordination_of_prepositional_phrases(theogony):
    tree = theogony[2006]
    slots = collect_arguments(tree, _node(tree, 1))
    assert [(s.mediator, s.realization) for s in slots] == [
        ("εἰς", "accusative"),
        ("ἐν", "dative"),
    ]
    assert all(s.label == "OBJ_CO" for s in slots)


def test_coordination_suffix_comes_from_the_path_too():
    # conjuncts annotated with bare OBJ still pick up _CO from the COORD node
    verb = WordNode(1, "φέρω", decode_postag("v3spia---"), 0, "PRED")
    conj = WordNode(2, "καί", decode_postag("c--------"), 1, "COORD")
    first = WordNode(3, "δῶρον", decode_postag("n-s---na-"), 2, "OBJ")
    second = WordNode(4, "ξίφος", decode_postag("n-s---na-"), 2, "OBJ")
    tree = SentenceTree(1, "", "", "", [verb, conj, first, second])
    frame, _ = render_frame("active", collect_arguments(tree, verb))
    assert frame == "active_OBJ_CO[accusative],OBJ_CO[accusative]"


def test_only_the_first_mediator_is_recorded():
    # verb -> AuxP(εἰς) -> AuxP(ἐν) -> OBJ: one printable mediator per slot
    verb = WordNode(1, "ἄγω", decode_postag("v3spia---"), 0, "PRED")
    outer = WordNode(2, "εἰς", decode_postag("r--------"), 1, "AuxP")
    inner = WordNode(3, "ἐν", decode_postag("r--------"), 2, "AuxP")
    noun = WordNode(4, "ναῦς", decode_postag("n-s---fa-"), 3, "OBJ")
    tree = SentenceTree(1, "", "", "", [verb, outer, inner, noun])
    slots = collect_arguments(tree, verb)
    assert len(slots) == 1
    assert slots[0].mediator == "εἰς"


def test_relation_matching_is_case_insensitive(theogony):
    tree = theogony[2004]
    slots = collect_arguments(tree, _node(tree, 1))
    assert [s.base_relation for s in slots] == ["OBJ", "OCOMP"]
    assert split_relation("OComp") == ("OCOMP", False, False)
    assert split_relation("sbj_co") == ("SBJ", True, False)


_RANDOM_RELATIONS = [
    "SBJ", "OBJ", "obj", "PNOM", "OCOMP", "AuxP", "AuxC", "auxc", "COORD", "APOS", "ATR", "ADV",
    "PRED",
]
_RANDOM_SUFFIXES = ["", "", "", "_CO", "_AP", "_CO_AP", "_ap", "_XX"]
_RANDOM_TAGS = [
    decode_postag(tag)
    for tag in ("v3spia---", "n-s---ma-", "n-s---md-", "c--------", "r--------", "v--pna---")
]


def _reference_arguments(tree, verb):
    """Argument slots by a recursive walk that reads only ``tree.nodes``,
    taking the first node of each token id."""
    first = {}
    for position, node in enumerate(tree.nodes):
        first.setdefault(node.token_id, (position, node))
    slots = []
    visited = {verb.token_id}

    def walk(token_id, mediator, coord, apos):
        if token_id in visited:
            return
        visited.add(token_id)
        position, node = first[token_id]
        base, *suffixes = node.relation.upper().split("_")
        coord = coord or "CO" in suffixes or base == "COORD"
        apos = apos or "AP" in suffixes or base == "APOS"
        if base in ("SBJ", "OBJ", "PNOM", "OCOMP"):
            label = base + "_CO" * coord + "_AP" * apos
            slots.append(
                ArgumentSlot(
                    mediator, label, realization_of(node), node.lemma, token_id, position
                )
            )
        elif base in ("AUXP", "AUXC", "COORD", "APOS"):
            if mediator is None and base in ("AUXP", "AUXC"):
                mediator = node.lemma
            for child in tree.nodes:
                if child.head_id == token_id:
                    walk(child.token_id, mediator, coord, apos)

    for child in tree.nodes:
        if child.head_id == verb.token_id:
            walk(child.token_id, None, False, False)
    return slots


def test_collect_arguments_matches_a_walk_over_the_nodes():
    # trees nobody has validated: duplicate ids, dangling heads and cycles
    rng = random.Random(2203)
    seen = {"mediated": 0, "_CO": 0, "_AP": 0, "duplicates": 0, "dangling": 0, "cycles": 0}
    for _ in range(3000):
        size = rng.randint(1, 10)
        nodes = [
            WordNode(
                rng.randint(1, size + 1),
                f"λ{index}",
                rng.choice(_RANDOM_TAGS),
                rng.randint(0, size + 1),
                rng.choice(_RANDOM_RELATIONS) + rng.choice(_RANDOM_SUFFIXES),
            )
            for index in range(size)
        ]
        tree = SentenceTree(1, "", "", "", nodes)
        report = validate_sentence(tree)
        seen["duplicates"] += bool(report.duplicate_ids)
        seen["dangling"] += bool(report.dangling_heads)
        seen["cycles"] += bool(report.cycle_token_ids)
        for verb in nodes:
            slots = collect_arguments(tree, verb)
            assert slots == _reference_arguments(tree, verb)
            seen["mediated"] += sum(slot.mediator is not None for slot in slots)
            seen["_CO"] += sum("_CO" in slot.label for slot in slots)
            seen["_AP"] += sum("_AP" in slot.label for slot in slots)
    assert all(count > 100 for count in seen.values()), seen


def _skeleton(**overrides):
    defaults = dict(
        mediator=None,
        label="OBJ",
        realization="",
        filler="",
        filler_token_id=1,
        surface_position=0,
    )
    defaults.update(overrides)
    return ArgumentSlot(**defaults)


def _word(token_id, postag, lemma):
    return WordNode(token_id, lemma, decode_postag(postag), 0, "OBJ")


def test_realize_slot_case_mood_and_fallback():
    assert realization_of(_word(5, "p-s----d-", "σύ")) == "dative"
    assert realization_of(_word(2, "v--pna---", "λύω")) == "infinitive"
    assert realization_of(_word(2, "d--------", "εὖ")) == "adverb"
    # a declined participle realizes as its case, not as a mood
    assert realization_of(_word(2, "v-sppamn-", "φέρω")) == "nominative"


def test_compose_frame_reproduces_published_entry():
    slots = [
        _skeleton(
            label="SBJ",
            realization="nominative",
            filler="δέος",
            surface_position=2,
        ),
        _skeleton(realization="dative", filler="σύ", surface_position=4),
    ]
    frame, fillers = render_frame("medio-passive", slots)
    assert frame == "medio-passive_OBJ[dative],SBJ[nominative]"
    assert fillers == "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}"


def test_compose_frame_single_object():
    frame, fillers = render_frame(
        "active", [_skeleton(realization="accusative", filler="τέλος")]
    )
    assert frame == "active_OBJ[accusative]"
    assert fillers == "active_OBJ[accusative]{τέλος}"


def test_compose_frame_keeps_surface_order_of_equal_labels():
    dative = _skeleton(realization="dative", filler="ἀνήρ", surface_position=1)
    accusative = _skeleton(realization="accusative", filler="δῶρον", surface_position=5)
    frame, _ = render_frame("active", [dative, accusative])
    assert frame == "active_OBJ[dative],OBJ[accusative]"
    swapped_dative = _skeleton(realization="dative", filler="ἀνήρ", surface_position=5)
    swapped_accusative = _skeleton(
        realization="accusative", filler="δῶρον", surface_position=1
    )
    frame, _ = render_frame("active", [swapped_dative, swapped_accusative])
    assert frame == "active_OBJ[accusative],OBJ[dative]"


def test_compose_frame_rejects_empty_slots():
    with pytest.raises(ValueError):
        render_frame("active", [])


def test_frame_type_sorts_and_validates():
    subject = _skeleton(
        label="SBJ", realization="nominative", filler="δέος", surface_position=0
    )
    obj = _skeleton(realization="dative", filler="σύ", surface_position=4)
    assert render_frame("medio-passive", [subject, obj]) == (
        "medio-passive_OBJ[dative],SBJ[nominative]",
        "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}",
    )
    with pytest.raises(ValueError):
        render_frame("active", ())


_VOICES = ("active", "middle", "passive", "medio-passive", "unspecified")
_REALIZATIONS = (
    "nominative", "genitive", "dative", "accusative", "vocative",
    "infinitive", "participle", "indicative", "subjunctive", "optative", "adverb",
)
_GREEK = "αβγδεζηθικλμνξοπρςστυφχψωάέήίόύώἀἁἐἑἰὀὁὐὑῶῆῖᾳῃῳ"
# the full alphabet: Greek, punctuation the frame format allows, and the
# characters it and the TSV reserve, one draw in about 33 each
_ALPHABET = _GREEK * 6 + " _-·'" + ",()[]{}\t\n"


def _random_lemma(rng):
    return "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 9)))


def _random_slot(rng, token_id):
    mediator = _random_lemma(rng) if rng.random() < 0.3 else None
    label = rng.choice(sorted(ARGUMENT_RELATIONS))
    label += "_CO" if rng.random() < 0.3 else ""
    label += "_AP" if rng.random() < 0.2 else ""
    return ArgumentSlot(
        mediator=mediator,
        label=label,
        realization=rng.choice(_REALIZATIONS),
        filler=_random_lemma(rng),
        filler_token_id=token_id,
        surface_position=rng.randrange(30),
    )


def _rejected_at_ingest(lemma):
    try:
        normalize_lemma(lemma)
    except ValueError:
        return True
    return False


def test_render_then_parse_gives_back_every_slot_in_frame_order():
    # a frame round-trips unless one of its lemmas is one that ingest skips
    rng = random.Random(5151)
    round_trips = rejected = 0
    for _ in range(1000):
        slots = [_random_slot(rng, token_id) for token_id in range(1, rng.randint(2, 7))]
        frame_voice = rng.choice(_VOICES)
        lemmas = [slot.filler for slot in slots]
        lemmas += [slot.mediator for slot in slots if slot.mediator is not None]
        if any(map(_rejected_at_ingest, lemmas)):
            rejected += 1
            continue
        round_trips += 1
        in_frame_order = sorted(slots, key=lambda slot: (slot.label, slot.surface_position))
        for index, text in enumerate(render_frame(frame_voice, slots)):
            voice, elements = parse_frame(text)
            assert voice == frame_voice
            assert len(elements) == len(slots)
            for slot, element in zip(in_frame_order, elements):
                filler = slot.filler if index == 1 else None
                assert element == FrameElement(slot.mediator, slot.label, slot.realization, filler)
                assert element.base_relation == slot.base_relation
    assert round_trips > 300 and rejected > 300


def test_mediated_element_sorts_by_bare_label():
    mediated = _skeleton(
        mediator="εἰς",
        realization="accusative",
        filler="ναῦς",
        surface_position=3,
    )
    subject = _skeleton(
        label="SBJ",
        realization="nominative",
        filler="ἀνήρ",
        surface_position=0,
    )
    assert mediated.render() == "(εἰς)OBJ[accusative]"
    frame, _ = render_frame("active", [subject, mediated])
    assert frame == "active_(εἰς)OBJ[accusative],SBJ[nominative]"


def test_annotation_oddities_are_reproduced_verbatim():
    # an accusative-tagged subject stays an accusative subject; nothing is
    # second-guessed or repaired
    verb = WordNode(2, "αἰχμάζω", decode_postag("v3spia---"), 0, "PRED")
    subject = WordNode(1, "ὁ", decode_postag("l-s---ma-"), 2, "SBJ")
    tree = SentenceTree(77, "754-756", "Aeschylus", "Persians", [subject, verb])
    entries = extract_entries([tree])
    assert entries[0].frame == "active_SBJ[accusative]"
    assert entries[0].frame_fillers == "active_SBJ[accusative]{ὁ}"


def test_excerpt_entry_is_reproduced_exactly(persians):
    entries = extract_entries([persians[2901046]])
    assert len(entries) == 1
    entry = entries[0]
    assert entry.author == "Aeschylus"
    assert entry.title == "Persians"
    assert entry.subdoc == "703-706"
    assert entry.verb == "ἀνθίστημι"
    assert entry.voice == "medio-passive"
    assert entry.sentence_id == 2901046
    assert entry.root_id == 7
    assert entry.frame == "medio-passive_OBJ[dative],SBJ[nominative]"
    assert entry.frame_fillers == "medio-passive_OBJ[dative]{σύ},SBJ[nominative]{δέος}"


def test_argumentless_corpus_yields_nothing(iliad):
    assert extract_entries([iliad[1042], iliad[1043]]) == []


def test_extraction_matches_golden_file(corpus_trees, as_corpus):
    golden = read_lexicon(GOLDEN_LEXICON)
    assert extract_entries(as_corpus(corpus_trees)) == golden.entries


def test_extraction_is_order_independent_and_deterministic(corpus_trees):
    shuffled = list(corpus_trees)
    random.Random(3).shuffle(shuffled)
    assert extract_entries(shuffled) == extract_entries(corpus_trees)


def test_entry_invariants_over_sample(corpus_trees):
    entries = extract_entries(corpus_trees)
    predicate_count = sum(len(identify_predicates(t)) for t in corpus_trees)
    assert len(entries) <= predicate_count
    keys = [(e.author, e.title, e.verb, e.sentence_id, e.root_id) for e in entries]
    assert keys == sorted(keys)
    by_id = {t.sentence_id: t for t in corpus_trees}
    for entry in entries:
        assert _BRACES.sub("", entry.frame_fillers) == entry.frame
        assert entry.frame.startswith(entry.voice + "_")
        root = _node(by_id[entry.sentence_id], entry.root_id)
        assert root.postag.is_verbal
        labels = re.findall(r"\)?([A-Z][A-Z_]*)\[", entry.frame)
        assert labels == sorted(labels)
        for label in labels:
            assert label.split("_")[0] in {"SBJ", "OBJ", "PNOM", "OCOMP"}
