"""Constructed corpus, spans, and vector space with known geometry.

Verb profiles:
  - TIGHT_VERB: 60 formulaic epic tokens over 13 object types (one of them
    out of vocabulary); baseline objects spread widely in the space, so
    the two distributions must separate (low p, distinct medians).
  - SAME_VERB: 55 formulaic tokens; epic and baseline object types are the
    same 11 lemmas, so the distributions coincide (D = 0, no stars).
  - RARE_VERB: 49 formulaic tokens, below the 50-token threshold.
  - NARROW_VERB: enough tokens but only 9 epic object types.
  - THIN_VERB: enough tokens and epic types but only 9 baseline types.
"""

import math

from grcvalency import (
    Lexicon,
    SentenceTree,
    VectorSpace,
    WordNode,
    extract_entries,
    run_case_study,
    select_case_study,
)
from grcvalency.postag import decode_postag

import numpy as np

TIGHT_VERB = "ἄγω"
SAME_VERB = "ἔχω"
RARE_VERB = "φέρω"
NARROW_VERB = "λέγω"
THIN_VERB = "τίθημι"

EPIC_WORK = ("Homer", "Iliad")
BASELINE_WORK = ("Athenaeus", "Deipnosophistae")

_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"

_VERB_TAG = decode_postag("v3spia---")
_NOUN_ACC_TAG = decode_postag("n-s---ma-")


def _lemma(stem: str, index: int) -> str:
    return stem + _GREEK[index]


TIGHT_EPIC_TYPES = [_lemma("δεσμ", i) for i in range(13)]  # last one stays OOV
TIGHT_BASE_TYPES = [_lemma("φορτ", i) for i in range(12)]
SAME_TYPES = [_lemma("κτημ", i) for i in range(11)]
NARROW_TYPES = [_lemma("ῥημ", i) for i in range(9)]
THIN_EPIC_TYPES = [_lemma("θεσμ", i) for i in range(10)]
THIN_BASE_TYPES = [_lemma("νομ", i) for i in range(9)]
RARE_TYPES = [_lemma("δωρ", i) for i in range(12)]


def _pair_sentence(sentence_id, verb, obj, work):
    author, title = work
    nodes = [
        WordNode(1, verb, verb, verb, _VERB_TAG, 0, "PRED"),
        WordNode(2, obj, obj, obj, _NOUN_ACC_TAG, 1, "OBJ"),
    ]
    return SentenceTree(sentence_id, str(sentence_id), author, title, nodes)


def _cycle(types, count):
    return [types[i % len(types)] for i in range(count)]


def build_corpus():
    """Epic and baseline sentence trees plus the formulaic sentence ids."""
    trees = []
    formulaic_ids = []
    sentence_id = 10_000

    def add(verb, objects, work, formulaic):
        nonlocal sentence_id
        for obj in objects:
            sentence_id += 1
            trees.append(_pair_sentence(sentence_id, verb, obj, work))
            if formulaic:
                formulaic_ids.append(sentence_id)

    add(TIGHT_VERB, _cycle(TIGHT_EPIC_TYPES, 60), EPIC_WORK, formulaic=True)
    add(SAME_VERB, _cycle(SAME_TYPES, 55), EPIC_WORK, formulaic=True)
    add(RARE_VERB, _cycle(RARE_TYPES, 49), EPIC_WORK, formulaic=True)
    add(NARROW_VERB, _cycle(NARROW_TYPES, 60), EPIC_WORK, formulaic=True)
    add(THIN_VERB, _cycle(THIN_EPIC_TYPES, 60), EPIC_WORK, formulaic=True)
    # one non-formulaic epic token, so pair counts split
    add(TIGHT_VERB, [TIGHT_EPIC_TYPES[0]], EPIC_WORK, formulaic=False)

    add(TIGHT_VERB, TIGHT_BASE_TYPES, BASELINE_WORK, formulaic=False)
    add(SAME_VERB, SAME_TYPES, BASELINE_WORK, formulaic=False)
    add(THIN_VERB, THIN_BASE_TYPES, BASELINE_WORK, formulaic=False)
    return trees, formulaic_ids


def build_space() -> VectorSpace:
    vectors = {}
    # tight cluster: pairwise cosine well above 0.9
    for i, lemma in enumerate(TIGHT_EPIC_TYPES[:-1]):
        angle = 2 * math.pi * i / 12
        vectors[lemma] = np.array(
            [1.0, 0.03 * math.cos(angle), 0.03 * math.sin(angle), 0.0]
        )
    # spread fan covering a wide angular range
    for i, lemma in enumerate(TIGHT_BASE_TYPES):
        angle = 2.4 * i / 11
        vectors[lemma] = np.array([math.cos(angle), math.sin(angle), 0.2, 0.0])
    for i, lemma in enumerate(SAME_TYPES):
        angle = 1.8 * i / 10
        vectors[lemma] = np.array([0.3, math.cos(angle), math.sin(angle), 0.1])
    sizes = np.linalg.norm(np.vstack(list(vectors.values())), axis=1)
    assert np.all(sizes > 0)
    return VectorSpace(dimension=4, vectors=vectors)


def write_spans(path, formulaic_ids):
    lines = [f"{sid}\t1,2" for sid in formulaic_ids]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_vectors(path, space: VectorSpace):
    lines = [f"{len(space.vectors)} {space.dimension}"]
    for lemma, vector in space.vectors.items():
        lines.append(lemma + " " + " ".join(format(x, ".9g") for x in vector))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def build_case(tmp_path):
    """Everything run_case_study needs, with spans/vectors written to disk."""
    trees, formulaic_ids = build_corpus()
    space = build_space()
    spans_path = write_spans(tmp_path / "spans.tsv", formulaic_ids)
    vectors_path = write_vectors(tmp_path / "vectors.txt", space)
    lexicon = Lexicon(extract_entries(trees))
    return {
        "corpus": trees,
        "lexicon": lexicon,
        "space": space,
        "spans_path": spans_path,
        "vectors_path": vectors_path,
    }


def run(config, corpus, lexicon, space):
    """The case study's two steps: select the verbs, then compare them in ``space``."""
    return run_case_study(config, select_case_study(config, corpus, lexicon), space)
