"""Corpus-driven verbal valency lexicon toolkit for Ancient Greek treebanks."""

__version__ = "0.1.0"

from .betacode import BetaCodeError, beta_to_unicode
from .casestudy import (
    CaseStudyConfig,
    CaseStudyResult,
    CaseStudySelection,
    TrVObjPair,
    VerbComparison,
    load_config,
    run_case_study,
    select_case_study,
    write_case_study_outputs,
)
from .frames import (
    ArgumentSlot,
    FrameElement,
    LexiconEntry,
    collect_arguments,
    extract_entries,
)
from .lexicon import (
    ConstructionRecord,
    Lexicon,
    LexiconFormatError,
    constructions_for_verb,
    diff_constructions,
    frame_frequencies,
    parse_frame,
    query_entries,
    read_lexicon,
    stats_basic,
    stats_by_author,
    write_lexicon,
)
from .postag import PosTag, PostagError, decode_postag, encode_postag
from .semantics import (
    DegenerateCentroidError,
    InsufficientDataError,
    SimilarityDistribution,
    UndefinedSimilarityError,
    VectorSpace,
    VectorSpaceError,
    centroid_similarities,
    cosine_similarity,
    load_vector_space,
)
from .stats import (
    KSResult,
    boxplot_stats,
    ks_two_sample,
    significance_stars,
    summarize,
)
from .treebank import (
    SentenceTree,
    TreebankParseError,
    ValidationReport,
    WordNode,
    load_manifest,
    normalize_lemma,
    parse_treebank_file,
    validate_sentence,
)
