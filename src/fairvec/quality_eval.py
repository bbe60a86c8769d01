"""Embedding quality benchmarks: word similarity and sentence similarity.

Word pairs are scored by cosine and ranked against human judgements
(Spearman). Sentence pairs are scored by the cosine of averaged word
vectors (Pearson, reported x100).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding_store import EmbeddingSet, LineSource, _lines
from .errors import InputError, ParseError
from .matrix_core import cosine_rows, pearson, spearman


@dataclass(frozen=True)
class WordPairDataset:
    name: str
    entries: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise InputError(f"word-pair dataset {self.name!r} is empty")
        if not all(np.isfinite(score) for _, _, score in self.entries):
            raise InputError(f"word-pair dataset {self.name!r} has non-finite scores")


@dataclass(frozen=True)
class SentencePairDataset:
    name: str
    entries: tuple[tuple[tuple[str, ...], tuple[str, ...], float], ...]
    lowercased: bool = True  # loader normalization, recorded for provenance

    def __post_init__(self):
        if not self.entries:
            raise InputError(f"sentence-pair dataset {self.name!r} is empty")
        for s1, s2, score in self.entries:
            if not s1 or not s2:
                raise InputError(f"sentence-pair dataset {self.name!r} has an empty sentence")
            if not np.isfinite(score):
                raise InputError(f"sentence-pair dataset {self.name!r} has non-finite scores")


def word_similarity_eval(
    embeddings: EmbeddingSet, data: WordPairDataset
) -> tuple[float, int, int]:
    """Spearman correlation of pair cosines against human scores.

    Pairs with an out-of-vocabulary word are skipped and counted. Returns
    (spearman, used, skipped).
    """
    usable = [entry for entry in data.entries if entry[0] in embeddings and entry[1] in embeddings]
    if len(usable) < 2:
        raise InputError(f"dataset {data.name!r}: fewer than 2 usable pairs")
    index = embeddings.index
    model = cosine_rows(embeddings.vectors[[index(a) for a, _, _ in usable]],
                        embeddings.vectors[[index(b) for _, b, _ in usable]])
    human = [score for _, _, score in usable]
    return spearman(human, model), len(usable), len(data.entries) - len(usable)


def sentence_embedding(embeddings: EmbeddingSet, sentence: Sequence[str]) -> np.ndarray:
    """Mean of the in-vocabulary token vectors; zero vector if none are known.

    Rows are summed in sorted index order (with multiplicity), so the result
    is bitwise identical under token reordering.
    """
    index = embeddings._index
    rows = sorted(index[w] for w in sentence if w in index)
    if not rows:
        return np.zeros(embeddings.dim)
    # The sum and division of .mean(axis=0), without its Python-level overhead.
    return np.add.reduce(embeddings.vectors[rows], axis=0) / len(rows)


def sts_eval(embeddings: EmbeddingSet, data: SentencePairDataset) -> tuple[float, int, int]:
    """Pearson correlation (x100) of sentence-cosine scores against human scores.

    A pair is skipped only when both sentences embed to the zero vector;
    a single zero side scores cosine 0 and stays in. Returns
    (pearson_x100, used, skipped).
    """
    first = np.stack([sentence_embedding(embeddings, s1) for s1, _, _ in data.entries])
    second = np.stack([sentence_embedding(embeddings, s2) for _, s2, _ in data.entries])
    used = first.any(axis=1) | second.any(axis=1)
    n_used = int(np.count_nonzero(used))
    if n_used < 2:
        raise InputError(f"dataset {data.name!r}: fewer than 2 usable pairs")
    human = np.array([score for _, _, score in data.entries])[used]
    model = cosine_rows(first[used], second[used])
    return pearson(human, model) * 100.0, n_used, len(data.entries) - n_used


def yearly_average(results: Sequence[tuple[str, float]]) -> dict[str, float]:
    """Unweighted mean per task group.

    The group key is the task name's segment before the first '/'
    (e.g. "2015/headlines" groups under "2015"); names without a slash
    form their own group.
    """
    if not results:
        raise InputError("no results to average")
    groups: dict[str, list[float]] = {}
    for name, value in results:
        groups.setdefault(name.split("/", 1)[0], []).append(value)
    return {key: float(np.mean(values)) for key, values in groups.items()}


def _data_lines(source: LineSource):
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def load_word_pairs(source: LineSource, name: str) -> WordPairDataset:
    """Parse "word1 TAB word2 TAB score" lines; '#' comments are ignored."""
    entries = []
    for lineno, line in _data_lines(source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        try:
            score = float(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: score {fields[2]!r} is not a number") from None
        if not np.isfinite(score):
            raise ParseError(f"line {lineno}: score {fields[2]!r} is not finite")
        entries.append((fields[0], fields[1], score))
    if not entries:
        raise ParseError(f"word-pair file for {name!r} has no data lines")
    return WordPairDataset(name=name, entries=tuple(entries))


def load_sentence_pairs(source: LineSource, name: str) -> SentencePairDataset:
    """Parse "sentence1 TAB sentence2 TAB score" lines.

    Sentences are lowercased and whitespace-tokenized here; the dataset
    records that normalization.
    """
    entries = []
    for lineno, line in _data_lines(source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        tokens1 = tuple(fields[0].lower().split())
        tokens2 = tuple(fields[1].lower().split())
        if not tokens1 or not tokens2:
            raise ParseError(f"line {lineno}: empty sentence")
        try:
            score = float(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: score {fields[2]!r} is not a number") from None
        if not np.isfinite(score):
            raise ParseError(f"line {lineno}: score {fields[2]!r} is not finite")
        entries.append((tokens1, tokens2, score))
    if not entries:
        raise ParseError(f"sentence-pair file for {name!r} has no data lines")
    return SentencePairDataset(name=name, entries=tuple(entries), lowercased=True)
