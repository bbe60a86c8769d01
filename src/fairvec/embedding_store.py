"""Load, hold, query, and save word-embedding sets.

File format: one entry per line, "token v1 ... vd", single-space separated,
UTF-8, LF line endings, no header. Word-list files carry one token per line
with "#" comment lines ignored.

Every loader in the package reads its source through `_lines`: a path (str
or os.PathLike), opened as UTF-8, or an iterable of lines such as an open
text file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ConfigError, InputError, ParseError
from .matrix_core import ZERO_NORM_EPS

LineSource = Union[str, os.PathLike, Iterable[str]]


def _lines(source: LineSource) -> Iterator[str]:
    """Yield the lines of a file path or of an iterable of lines."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as handle:
            yield from handle
    else:
        yield from source


@dataclass(frozen=True)
class EmbeddingSet:
    """An ordered vocabulary with one row vector per word."""

    words: tuple[str, ...]
    vectors: np.ndarray  # (|V|, dim), read-only after construction
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2:
            raise InputError("vectors must be a 2-D array of shape (|V|, dim)")
        if not np.all(np.isfinite(vectors)):
            raise InputError("vectors contain non-finite entries")
        words = tuple(self.words)
        if len(words) != vectors.shape[0]:
            raise InputError(
                f"{len(words)} words but {vectors.shape[0]} vector rows"
            )
        index = {}
        for i, w in enumerate(words):
            if w in index:
                raise InputError(f"duplicate token {w!r}")
            index[w] = i
        vectors = vectors.copy()
        vectors.setflags(write=False)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_index", index)

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise InputError(f"token {word!r} not in vocabulary") from None

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index(word)]


@dataclass(frozen=True)
class WordPartition:
    """Vocabulary split into gender-definition and remaining (neutral) indices."""

    definition_indices: np.ndarray
    neutral_indices: np.ndarray
    missing: int = 0  # list tokens that were not in the vocabulary


def load_embeddings(source: LineSource, max_words: int | None = None) -> EmbeddingSet:
    """Parse an embedding file or text stream; dimension is inferred from the first line."""
    words: list[str] = []
    rows: list[np.ndarray] = []
    seen: set[str] = set()
    dim: int | None = None
    for lineno, line in enumerate(_lines(source), start=1):
        if max_words is not None and len(words) >= max_words:
            break
        parts = line.rstrip("\r\n").split(" ")
        token = parts[0]
        values = parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise ParseError(f"line {lineno}: no vector components found")
        elif len(values) != dim:
            raise ParseError(
                f"line {lineno}: expected {dim} vector components, got {len(values)}"
            )
        if token in seen:
            raise ParseError(f"line {lineno}: duplicate token {token!r}")
        seen.add(token)
        try:
            row = np.asarray(values, dtype=np.float64)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric vector component") from None
        if not np.all(np.isfinite(row)):
            raise ParseError(f"line {lineno}: non-finite vector component")
        words.append(token)
        rows.append(row)
    if not words:
        raise ParseError("empty embedding input")
    return EmbeddingSet(words=tuple(words), vectors=np.vstack(rows))


def save_embeddings(embeddings: EmbeddingSet, sink: IO[str]) -> None:
    """Write the set in the load format.

    Values are printed with 17 significant digits, enough to reconstruct each
    float64 exactly, so load(save(x)) is bit-identical.
    """
    row_format = "%s" + " %.17g" * embeddings.dim + "\n"
    sink.writelines(
        row_format % (word, *row)
        for word, row in zip(embeddings.words, embeddings.vectors.tolist())
    )


def load_word_list(source: LineSource) -> list[str]:
    """One token per line; blank lines and '#' comment lines are ignored."""
    tokens = []
    for line in _lines(source):
        token = line.strip()
        if not token or token.startswith("#"):
            continue
        tokens.append(token)
    return tokens


def partition(embeddings: EmbeddingSet, gender_list: Sequence[str]) -> WordPartition:
    """Split the vocabulary into gender-definition indices and the rest.

    List tokens absent from the vocabulary are ignored; their count is
    reported on the returned partition.
    """
    unique = list(dict.fromkeys(gender_list))
    found = sorted(embeddings.index(w) for w in unique if w in embeddings)
    missing = len(unique) - len(found)
    if not found:
        raise ConfigError("no gender-definition word is present in the vocabulary")
    definition = np.asarray(found, dtype=np.int64)
    mask = np.ones(len(embeddings), dtype=bool)
    mask[definition] = False
    return WordPartition(
        definition_indices=definition,
        neutral_indices=np.flatnonzero(mask).astype(np.int64),
        missing=missing,
    )


def nearest_neighbors(
    embeddings: EmbeddingSet,
    query_index: int,
    k: int,
    candidate_indices: Sequence[int] | None = None,
) -> list[int]:
    """Top-k candidates by cosine similarity to the query vector.

    The query itself is excluded; ties break toward the lower vocabulary
    index, so nearest_neighbors(k1) is always a prefix of nearest_neighbors(k2)
    for k1 < k2.
    """
    n = len(embeddings)
    if not 0 <= query_index < n:
        raise InputError(f"query index {query_index} outside vocabulary of size {n}")
    if candidate_indices is None:
        candidates = np.arange(n, dtype=np.int64)
    else:
        candidates = np.unique(np.asarray(candidate_indices, dtype=np.int64))
        if candidates.size and (candidates[0] < 0 or candidates[-1] >= n):
            raise InputError("candidate index outside vocabulary")
    candidates = candidates[candidates != query_index]
    if k < 0 or k > candidates.size:
        raise InputError(
            f"k={k} but only {candidates.size} candidates besides the query"
        )

    query = embeddings.vectors[query_index]
    cand_vectors = embeddings.vectors[candidates]
    norms = np.linalg.norm(cand_vectors, axis=1)
    qnorm = np.linalg.norm(query)
    sims = np.zeros(candidates.size, dtype=np.float64)
    if qnorm >= ZERO_NORM_EPS:
        valid = norms >= ZERO_NORM_EPS
        sims[valid] = (cand_vectors[valid] @ query) / (norms[valid] * qnorm)
    order = np.lexsort((candidates, -sims))
    return [int(i) for i in candidates[order[:k]]]
