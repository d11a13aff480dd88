"""Corpus-driven verbal valency lexicon toolkit for Ancient Greek treebanks."""

import importlib

__version__ = "0.1.0"

from .betacode import BetaCodeError, beta_to_unicode
from .frames import (
    ArgumentSlot, FrameElement, LexiconEntry, LexiconFormatError, collect_arguments,
    extract_entries, parse_frame, write_lexicon,
)
from .postag import PosTag, PostagError, decode_postag, encode_postag
from .stats import KSResult, boxplot_stats, ks_two_sample, significance_stars, summarize
from .treebank import (
    SentenceTree, TreebankParseError, ValidationReport, WordNode, load_manifest,
    normalize_lemma, parse_treebank_file, validate_sentence,
)

# the public names of the modules that import numpy, which load on first use
_DEFERRED = {
    "casestudy": (
        "CaseStudyConfig", "CaseStudyResult", "CaseStudySelection", "OUTPUT_NAMES", "TrVObjPair",
        "VerbComparison", "load_config", "run_case_study", "select_case_study",
        "write_case_study_outputs",
    ),
    "lexicon": (
        "ConstructionRecord", "Lexicon", "constructions_for_verb", "diff_constructions",
        "frame_frequencies", "query_entries", "read_lexicon", "stats_basic", "stats_by_author",
    ),
    "semantics": (
        "DegenerateCentroidError", "InsufficientDataError", "SimilarityDistribution",
        "UndefinedSimilarityError", "VectorSpace", "VectorSpaceError",
        "centroid_similarities", "cosine_similarity", "load_vector_space",
    ),
}


def __getattr__(name):
    # PEP 562: called only for a name not bound above
    for module, names in _DEFERRED.items():
        if name in names:
            return getattr(importlib.import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
