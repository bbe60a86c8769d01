"""Shared fixtures: small deterministic embedding sets and builders."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pytest

from fairvec import EmbeddingSet


@dataclass(frozen=True)
class PlantedSet:
    """Synthetic embedding with a known gender component.

    Every neutral vector is semantic + coefficient * g where g = he - she lies
    in the span of the definition vectors and each semantic part is orthogonal
    to that span. The first half of the neutral words carries +beta, the
    second half -beta.
    """

    embeddings: EmbeddingSet
    gender_list: tuple[str, ...]
    g: np.ndarray
    labels: np.ndarray  # +1 / -1 per neutral word, in vocabulary order
    semantic: np.ndarray  # (n_neutral, d), the g-free parts
    coefficients: np.ndarray  # signed coefficient per neutral word


def build_planted(
    n_neutral: int = 200,
    dim: int = 20,
    n_definition: int = 6,
    beta: float = 3.0,
    noise: float = 0.5,
    seed: int = 0,
    coefficients: np.ndarray | None = None,
) -> PlantedSet:
    assert n_neutral % 2 == 0 and n_definition >= 3
    rng = np.random.default_rng(seed)

    others = rng.normal(size=(dim, n_definition - 2))
    g = others @ rng.normal(size=n_definition - 2)
    g = 2.0 * g / np.linalg.norm(g)
    he = rng.normal(size=dim)
    she = he - g
    v_d = np.column_stack([he, she, others])

    q, _ = np.linalg.qr(v_d)
    raw = rng.normal(size=(dim, n_neutral)) * noise
    semantic = raw - q @ (q.T @ raw)

    if coefficients is None:
        signs = np.repeat([1.0, -1.0], n_neutral // 2)
        coefficients = beta * signs
    coefficients = np.asarray(coefficients, dtype=np.float64)
    neutral = semantic + np.outer(g, coefficients)

    gender_words = ("he", "she") + tuple(f"def{i}" for i in range(n_definition - 2))
    half = n_neutral // 2
    neutral_words = tuple(f"m{i}" for i in range(half)) + tuple(f"f{i}" for i in range(half))
    embeddings = EmbeddingSet(
        words=gender_words + neutral_words,
        vectors=np.vstack([v_d.T, neutral.T]),
    )
    return PlantedSet(
        embeddings=embeddings,
        gender_list=gender_words,
        g=g,
        labels=np.sign(coefficients).astype(np.int64),
        semantic=semantic.T,
        coefficients=coefficients,
    )


@pytest.fixture
def planted() -> PlantedSet:
    return build_planted()


@pytest.fixture
def tiny() -> EmbeddingSet:
    """Hand-sized set: he/she plus four neutral words in 4 dimensions."""
    words = ("he", "she", "north", "south", "east", "west")
    vectors = np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.5, -0.5, 2.0, 0.0],
            [-0.5, 0.5, 0.0, 2.0],
            [1.0, -1.0, 1.0, 1.0],
            [0.0, 0.0, -1.0, 1.0],
        ]
    )
    return EmbeddingSet(words=words, vectors=vectors)


def write_embedding_file(path, embeddings: EmbeddingSet) -> None:
    from fairvec import save_embeddings

    with open(path, "w", encoding="utf-8") as handle:
        save_embeddings(embeddings, handle)


@pytest.fixture
def forks(monkeypatch):
    """Small write blocks and four usable CPUs, so that a save of a few dozen
    rows forks; the list grows by one per fork."""
    from fairvec import embedding_store

    forked = []
    real_fork = os.fork

    def counting_fork():
        forked.append(None)
        return real_fork()

    monkeypatch.setattr(embedding_store, "_WRITE_VALUES", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


@pytest.fixture
def parse_forks(forks, monkeypatch):
    """As `forks`, with parse ranges of at least 16 bytes, so that a load of
    a few rows forks too."""
    from fairvec import embedding_store

    monkeypatch.setattr(embedding_store, "_PARSE_BYTES", 16)
    return forks


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
