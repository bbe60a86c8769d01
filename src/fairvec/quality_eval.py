"""Embedding quality benchmarks: word similarity and sentence similarity.

Word pairs are scored by cosine and ranked against human judgements
(Spearman). Sentence pairs are scored by the cosine of averaged word
vectors (Pearson, reported x100).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embedding_store import EmbeddingSet, LineSource, _data_lines
from .errors import InputError, ParseError
from .matrix_core import cosine_rows, pearson, spearman

# Word pairs gathered and scored at once: each block's two gathers stay in
# cache, so memory does not grow with the number of pairs.
_PAIR_BLOCK = 128


@dataclass(frozen=True)
class WordPairDataset:
    name: str
    entries: tuple[tuple[str, str, float], ...]

    def __post_init__(self):
        if not self.entries:
            raise InputError(f"word-pair dataset {self.name!r} is empty")
        if not all(math.isfinite(score) for _, _, score in self.entries):
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
            if not math.isfinite(score):
                raise InputError(f"sentence-pair dataset {self.name!r} has non-finite scores")


def word_similarity_eval(
    embeddings: EmbeddingSet, data: WordPairDataset
) -> tuple[float, int, int]:
    """Spearman correlation of pair cosines against human scores.

    Pairs with an out-of-vocabulary word are skipped and counted. Returns
    (spearman, used, skipped).
    """
    index = embeddings._index
    n = len(data.entries)
    first = np.fromiter((index.get(a, -1) for a, _, _ in data.entries), np.intp, count=n)
    second = np.fromiter((index.get(b, -1) for _, b, _ in data.entries), np.intp, count=n)
    usable = (first >= 0) & (second >= 0)
    first, second = first[usable], second[usable]
    if first.size < 2:
        raise InputError(f"dataset {data.name!r}: fewer than 2 usable pairs")
    human = np.fromiter((score for _, _, score in data.entries), np.float64, count=n)[usable]
    # cosine_rows reduces each row on its own, so blocking changes no bit.
    model = np.empty(first.size)
    vectors = embeddings.vectors
    for start in range(0, first.size, _PAIR_BLOCK):
        block = slice(start, start + _PAIR_BLOCK)
        model[block] = cosine_rows(vectors[first[block]], vectors[second[block]])
    return spearman(human, model), first.size, n - first.size


def _sentence_embeddings(embeddings: EmbeddingSet, sentences: Sequence[Sequence[str]]
                         ) -> np.ndarray:
    """(len(sentences), dim) mean in-vocabulary token vectors; zero rows for
    sentences with no known token.

    Each sentence's rows are summed in sorted index order (with
    multiplicity), starting from zero, and the sum is divided by their
    number: bitwise np.add.reduce(vectors[sorted rows], axis=0) / k per
    sentence, and so the same under token reordering. Sentences are ordered
    longest first, so the ones still summing at token position p are a
    prefix and each step gathers one row per sentence: no temporary is
    larger than the result.
    """
    index = embeddings._index
    n = len(sentences)
    lengths = np.fromiter(map(len, sentences), np.intp, count=n)
    rows = np.fromiter((index.get(w, -1) for sentence in sentences for w in sentence),
                       np.intp, count=int(lengths.sum()))
    owner = np.repeat(np.arange(n), lengths)
    known = rows >= 0
    rows, owner = rows[known], owner[known]
    # owner is non-decreasing, so one sort of owner * len(vectors) + row
    # sorts each sentence's rows and leaves the sentences where they are.
    vectors = embeddings.vectors
    keys = owner * len(vectors) + rows
    keys.sort()
    rows = keys - owner * len(vectors)
    counts = np.bincount(owner, minlength=n)
    longest_first = np.argsort(-counts, kind="stable")
    starts = (np.cumsum(counts) - counts)[longest_first]
    counts = counts[longest_first]
    sums = np.zeros((n, embeddings.dim))
    if embeddings.dim == 1:
        # numpy reduces a (k, 1) gather as one contiguous run, pairwise from
        # 8 terms on rather than row by row; reduce each sentence that way.
        for i, (start, count) in enumerate(zip(starts.tolist(), counts.tolist())):
            sums[i] = np.add.reduce(vectors[rows[start:start + count]], axis=0)
    else:
        # active[p]: how many sentences have more than p known tokens.
        active = np.searchsorted(-counts, -np.arange(counts.max(initial=0)), side="left")
        for p, c in enumerate(active.tolist()):
            sums[:c] += vectors[rows[starts[:c] + p]]
    summed = int(np.count_nonzero(counts))
    sums[:summed] /= counts[:summed, None]
    result = np.empty_like(sums)
    result[longest_first] = sums
    return result


def sentence_embedding(embeddings: EmbeddingSet, sentence: Sequence[str]) -> np.ndarray:
    """Mean of the in-vocabulary token vectors; zero vector if none are known.

    Rows are summed in sorted index order (with multiplicity), so the result
    is bitwise identical under token reordering.
    """
    return _sentence_embeddings(embeddings, [sentence])[0]


def sts_eval(embeddings: EmbeddingSet, data: SentencePairDataset) -> tuple[float, int, int]:
    """Pearson correlation (x100) of sentence-cosine scores against human scores.

    A pair is skipped only when both sentences embed to the zero vector;
    a single zero side scores cosine 0 and stays in. Returns
    (pearson_x100, used, skipped).
    """
    first = _sentence_embeddings(embeddings, [s1 for s1, _, _ in data.entries])
    second = _sentence_embeddings(embeddings, [s2 for _, s2, _ in data.entries])
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


def _scored_pairs(source: LineSource, pair) -> tuple:
    """(first, second, score) per data line "field1 TAB field2 TAB score",
    where (first, second) = pair(line number, field1, field2)."""
    entries = []
    for lineno, line in _data_lines(source):
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 tab-separated fields, got {len(fields)}")
        first, second = pair(lineno, fields[0], fields[1])
        try:
            score = float(fields[2])
        except ValueError:
            raise ParseError(f"line {lineno}: score {fields[2]!r} is not a number") from None
        if not math.isfinite(score):
            raise ParseError(f"line {lineno}: score {fields[2]!r} is not finite")
        entries.append((first, second, score))
    return tuple(entries)


def load_word_pairs(source: LineSource, name: str) -> WordPairDataset:
    """Parse "word1 TAB word2 TAB score" lines; '#' comments are ignored."""
    entries = _scored_pairs(source, lambda lineno, first, second: (first, second))
    if not entries:
        raise ParseError(f"word-pair file for {name!r} has no data lines")
    return WordPairDataset(name=name, entries=entries)


def _sentences(lineno: int, first: str, second: str) -> tuple:
    tokens = tuple(first.lower().split()), tuple(second.lower().split())
    if not all(tokens):
        raise ParseError(f"line {lineno}: empty sentence")
    return tokens


def load_sentence_pairs(source: LineSource, name: str) -> SentencePairDataset:
    """Parse "sentence1 TAB sentence2 TAB score" lines.

    Sentences are lowercased and whitespace-tokenized here; the dataset
    records that normalization.
    """
    entries = _scored_pairs(source, _sentences)
    if not entries:
        raise ParseError(f"sentence-pair file for {name!r} has no data lines")
    return SentencePairDataset(name=name, entries=entries, lowercased=True)
