from pathlib import Path

import pytest

from grcvalency import (
    Lexicon,
    extract_entries,
    load_manifest,
    load_vector_space,
    parse_treebank_file,
    validate_sentence,
)

DATA_DIR = Path(__file__).parent / "data"
CORPUS_DIR = DATA_DIR / "corpus"
GOLDEN_LEXICON = DATA_DIR / "golden_lexicon.tsv"
SPANS_FILE = DATA_DIR / "spans.tsv"
TOY_VECTORS = DATA_DIR / "toy_vectors.txt"
MANIFEST_FILE = DATA_DIR / "manifest.tsv"


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR


@pytest.fixture(scope="session")
def corpus_trees():
    meta = load_manifest(MANIFEST_FILE)
    trees = []
    for path in sorted(CORPUS_DIR.glob("*.xml")):
        parsed, issues = parse_treebank_file(path.read_bytes(), fallback_meta=meta.get(path.name))
        assert not issues
        for tree in parsed:
            assert validate_sentence(tree).ok
            trees.append(tree)
    return trees


@pytest.fixture(params=["list", "generator"])
def as_corpus(request):
    """Hands a test's trees over as a list, then as a one-shot generator:
    ``extract_entries`` and ``select_case_study`` take any iterable of trees."""
    if request.param == "list":
        return list
    return lambda trees: (tree for tree in trees)


@pytest.fixture(scope="session")
def sample_lexicon(corpus_trees):
    return Lexicon(extract_entries(corpus_trees))


@pytest.fixture(scope="session")
def toy_space():
    return load_vector_space(TOY_VECTORS)
