"""Gender debiasing for word embeddings, with bias and quality diagnostics."""

from types import ModuleType as _ModuleType

from .bias_metrics import (
    BiasedWordLists,
    SemBiasInstance,
    WeatSpec,
    bias_by_neighbors,
    bias_by_projection,
    gbwr_classification,
    gbwr_clustering,
    gbwr_correlation,
    gbwr_profession,
    gender_direction,
    load_sembias,
    load_weat_spec,
    mean_abs_projection_bias,
    select_biased_words,
    sembias_eval,
    weat_test,
)
from .debias import (
    DEFAULT_ALPHA,
    DebiasResult,
    HsrConfig,
    approximate_gender_info,
    hard_debias,
    hsr_debias,
)
from .embedding_store import (
    EmbeddingSet,
    WordPartition,
    load_embeddings,
    load_word_list,
    nearest_neighbors,
    partition,
    save_embeddings,
    top_k_neighbors,
)
from .errors import (
    ConfigError,
    FairvecError,
    InputError,
    NumericalError,
    ParseError,
    UndefinedCorrelationError,
)
from .matrix_core import (
    LinearClassifier,
    RidgeSolution,
    cosine_similarity,
    kmeans,
    pearson,
    purity,
    solve_ridge,
    spearman,
    train_linear_classifier,
)
from .quality_eval import (
    SentencePairDataset,
    WordPairDataset,
    load_sentence_pairs,
    load_word_pairs,
    sentence_embedding,
    sts_eval,
    word_similarity_eval,
    yearly_average,
)

__version__ = "0.1.0"

# The public API is every name imported above; listing it again would be a
# second copy to keep in step.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
