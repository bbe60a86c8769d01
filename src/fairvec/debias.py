"""Gender-debiasing transforms for word embeddings.

Both methods subtract a fitted gender component from each non-definition
vector and leave definition words untouched. ``hsr`` (half-sibling ridge) fits
U diag(s^2 / (s^2 + alpha)) U^T x, the ridge regression of x on the definition
vectors V_d = U S Q^T (ESL 3.4.1), with one SVD per set and gender list.
``hard`` is the same operator with U = unit(he - she), s = 1 and alpha = 0.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding_store import EmbeddingSet, partition
from .errors import ConfigError, InputError
from .matrix_core import ZERO_NORM_EPS, _as_matrix

DEFAULT_ALPHA = 60.0

# Projections at round-off level are left alone, so hard_debias is exactly idempotent.
_PROJECTION_SNAP = 1e-13

# hsr fits (partition, basis, singular values) by set and gender list. A set
# never changes, so a fit stays valid while the set lives; the weak key frees
# the fit with the set.
_FITS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


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
    method: str  # "hsr" | "hard"
    gender_norm: float  # Frobenius norm of the subtracted gender component
    config: dict


def _principal_directions(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis (d x r) of the row space and its singular values,
    keeping those above numpy's pinv cutoff max(m, d) * eps * s_max."""
    _, singular, directions = np.linalg.svd(rows, full_matrices=False)
    kept = singular > max(rows.shape) * np.finfo(np.float64).eps * singular[:1]
    return directions[kept].T, singular[kept]


def _fitted(rows: np.ndarray, basis: np.ndarray, singular: np.ndarray, alpha: float):
    """rows @ basis diag(s^2 / (s^2 + alpha)) basis^T in the cheaper exact order:
    one d x d operator (2 n d^2 flops) or through r coefficients (4 n d r)."""
    factors = singular * singular / (singular * singular + alpha)
    if basis.shape[0] < 2 * basis.shape[1]:
        return rows @ ((basis * factors) @ basis.T)
    return ((rows @ basis) * factors) @ basis.T


def approximate_gender_info(v_d, v_n, alpha: float) -> np.ndarray:
    """Fitted gender component of each non-definition vector.

    ``v_d`` (d x m) and ``v_n`` (d x n) hold the definition and the other
    vectors as columns. The result is the ridge fit v_d (v_d^T v_d + alpha I)^-1
    v_d^T v_n; at alpha = 0, the least-squares projection onto span(v_d).
    """
    v_d, v_n = _as_matrix(v_d, "v_d"), _as_matrix(v_n, "v_n")
    if v_d.shape[0] != v_n.shape[0] or not np.isfinite(alpha) or alpha < 0:
        raise InputError(f"need equal row counts and alpha >= 0: {len(v_d)}, {len(v_n)}, {alpha}")
    return _fitted(v_n.T, *_principal_directions(v_d.T), alpha).T


def _debias(embeddings, part, rows, basis, singular, alpha, method, settings) -> DebiasResult:
    """Subtract the fitted component from the given rows; the others stay bit for bit."""
    gender = _fitted(embeddings.vectors, basis, singular, alpha)
    kept = np.ones(len(embeddings), dtype=bool)
    kept[rows] = False
    gender[kept] = 0.0  # x - 0.0 is x, even for x = -0.0
    gender_norm = float(np.linalg.norm(gender))
    vectors = np.subtract(embeddings.vectors, gender, out=gender)
    config = {**settings, "gender_words_in_vocab": int(part.definition_indices.size),
              "gender_words_missing": part.missing,
              "gender_words_missing_names": list(part.missing_words)}
    return DebiasResult(EmbeddingSet._owning(embeddings.words, vectors, embeddings._index),
                        method, gender_norm, config)


def hsr_debias(embeddings: EmbeddingSet, config: HsrConfig) -> DebiasResult:
    """Subtract the ridge-fitted gender component from non-definition vectors.

    Vocabulary, order, dimension and the definition rows (bit for bit) are
    kept. Calls on one set with one gender list share the partition and SVD.
    """
    key = tuple(config.gender_list)
    fits = _FITS.setdefault(embeddings, {})
    if key not in fits:
        part = partition(embeddings, key)
        fits[key] = (part, *_principal_directions(embeddings.vectors[part.definition_indices]))
    part, basis, singular = fits[key]
    return _debias(embeddings, part, part.neutral_indices, basis, singular, config.alpha,
                   "hsr", {"alpha": config.alpha})


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
    vectors = embeddings.vectors
    scale = 1.0 + np.sqrt(np.einsum("ij,ij->i", vectors, vectors))
    moved = np.abs(vectors @ direction) > _PROJECTION_SNAP * scale
    rows = part.neutral_indices[moved[part.neutral_indices]]
    return _debias(embeddings, part, rows, direction[:, None], np.ones(1), 0.0,
                   "hard", {"direction": "he-she"})
