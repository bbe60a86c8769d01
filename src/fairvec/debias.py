"""Gender-debiasing transforms for word embeddings.

The half-sibling ridge method (``hsr``) treats gender-definition word vectors
as a noisy handle on the gender signal shared by all word vectors: every
non-definition vector is regressed onto the definition vectors (one closed-form
ridge solve, vectors as columns), the fitted part is taken as that word's
gender component, and subtracting it leaves the debiased vector. Definition
words pass through untouched.

The ``hard`` baseline instead projects every non-definition vector onto the
complement of the single direction unit(he - she).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embedding_store import EmbeddingSet, partition
from .errors import ConfigError, InputError
from .matrix_core import ZERO_NORM_EPS, solve_ridge

DEFAULT_ALPHA = 60.0

# Projections already at round-off level are left alone so that hard_debias
# is exactly idempotent.
_PROJECTION_SNAP = 1e-13


@dataclass(frozen=True)
class HsrConfig:
    """Debiasing configuration: ridge constant and the gender-definition list."""

    gender_list: Sequence[str]
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise InputError(f"alpha must be a nonnegative real, got {self.alpha}")
        if len(self.gender_list) == 0:
            raise ConfigError("gender-definition word list is empty")


@dataclass(frozen=True)
class DebiasResult:
    """Debiased embeddings plus bookkeeping about how they were produced."""

    embeddings: EmbeddingSet
    method: str  # "hsr" | "hard" | "none"
    gender_norm: float  # Frobenius norm of the subtracted gender component
    config: dict = field(default_factory=dict)


def approximate_gender_info(v_d, v_n, alpha: float) -> np.ndarray:
    """Fitted gender component of each non-definition vector.

    ``v_d`` (d x m) holds the definition vectors as columns and ``v_n``
    (d x n) the non-definition vectors. The result is v_d @ W with W the
    ridge solution of v_n on v_d; every column lies in the column space of
    v_d.
    """
    v_d = np.asarray(v_d, dtype=np.float64)
    solution = solve_ridge(v_d, v_n, alpha)
    return v_d @ solution.weights


def hsr_debias(embeddings: EmbeddingSet, config: HsrConfig) -> DebiasResult:
    """Subtract the ridge-fitted gender component from non-definition vectors.

    Vocabulary, order, and dimension are preserved; gender-definition rows are
    returned bit-for-bit unchanged.
    """
    part = partition(embeddings, config.gender_list)
    v_d = embeddings.vectors[part.definition_indices].T
    v_n = embeddings.vectors[part.neutral_indices].T
    gender = approximate_gender_info(v_d, v_n, config.alpha)
    vectors = embeddings.vectors.copy()
    vectors[part.neutral_indices] = (v_n - gender).T
    return DebiasResult(
        embeddings=EmbeddingSet(words=embeddings.words, vectors=vectors),
        method="hsr",
        gender_norm=float(np.linalg.norm(gender)),
        config={
            "alpha": config.alpha,
            "gender_words_in_vocab": int(part.definition_indices.size),
            "gender_words_missing": part.missing,
            "gender_words_missing_names": list(part.missing_words),
        },
    )


def hard_debias(embeddings: EmbeddingSet, config: HsrConfig) -> DebiasResult:
    """Project non-definition vectors onto the complement of unit(he - she)."""
    for token in ("he", "she"):
        if token not in embeddings:
            raise ConfigError(f"hard debiasing needs {token!r} in the vocabulary")
    direction = embeddings.vector("he") - embeddings.vector("she")
    norm = np.linalg.norm(direction)
    if norm < ZERO_NORM_EPS:
        raise ConfigError("'he' and 'she' vectors coincide; gender direction undefined")
    direction = direction / norm

    part = partition(embeddings, config.gender_list)
    vectors = embeddings.vectors.copy()
    neutral = vectors[part.neutral_indices]
    proj = neutral @ direction
    scale = 1.0 + np.linalg.norm(neutral, axis=1)
    apply = np.abs(proj) > _PROJECTION_SNAP * scale
    neutral[apply] -= proj[apply, None] * direction[None, :]
    vectors[part.neutral_indices] = neutral
    return DebiasResult(
        embeddings=EmbeddingSet(words=embeddings.words, vectors=vectors),
        method="hard",
        gender_norm=float(np.linalg.norm(proj[apply])),
        config={
            "direction": "he-she",
            "gender_words_in_vocab": int(part.definition_indices.size),
            "gender_words_missing": part.missing,
            "gender_words_missing_names": list(part.missing_words),
        },
    )
