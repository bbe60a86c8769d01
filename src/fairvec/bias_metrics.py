"""Gender-bias measurements.

Direction-based diagnostics (projection bias, the definition-pair selection
task) quantify how strongly word vectors align with the he-she axis.
Relation-based diagnostics (clustering, neighbor correlation, profession
neighbors, association permutation tests, gender classification) ask whether
previously biased words are still distinguishable from each other after
debiasing.

Biased-word lists and per-word "original bias" values are always computed on
the untouched embedding and then reused when scoring any debiased variant.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

from .embedding_store import (
    EmbeddingSet,
    LineSource,
    WordPartition,
    _data_lines,
    top_k_neighbors,
)
from .errors import InputError, ParseError
from .matrix_core import (
    cosine_matrix,
    cosine_rows,
    kmeans,
    pearson,
    purity,
    train_linear_classifier,
)

DEFAULT_NEIGHBORS = 100
WEAT_EXACT_LIMIT = 100_000
WEAT_SAMPLES = 10_000
SIGNIFICANCE_LEVEL = 0.05
# Rows projected at once on he - she.
_PROJECTION_ROWS = 1024


@dataclass(frozen=True)
class BiasedWordLists:
    """Most male- and most female-biased words, by projection on he - she."""

    male_biased: tuple[str, ...]
    female_biased: tuple[str, ...]

    def __post_init__(self):
        if set(self.male_biased) & set(self.female_biased):
            raise InputError("male and female biased lists overlap")

    def all_words(self) -> tuple[str, ...]:
        return self.male_biased + self.female_biased


@dataclass(frozen=True)
class SemBiasInstance:
    """Four (word, word, tag) pairs, exactly one tagged 'definition'."""

    pairs: tuple[tuple[str, str, str], ...]
    subset: bool = False

    def __post_init__(self):
        tags = [tag for _, _, tag in self.pairs]
        if sum(tag == "definition" for tag in tags) != 1:
            raise InputError("an instance needs exactly one definition pair")

    def definition_index(self) -> int:
        return next(i for i, (_, _, tag) in enumerate(self.pairs) if tag == "definition")


@dataclass(frozen=True)
class WeatSpec:
    """Two target word sets and two attribute word sets for one association test."""

    targets_x: tuple[str, ...]
    targets_y: tuple[str, ...]
    attributes_a: tuple[str, ...]
    attributes_b: tuple[str, ...]
    name: str = ""

    def __post_init__(self):
        if len(self.targets_x) != len(self.targets_y):
            raise InputError("target sets must have equal sizes")
        if len(self.targets_x) < 2:
            raise InputError("target sets need at least 2 words each")
        if not self.attributes_a or not self.attributes_b:
            raise InputError("attribute sets must be nonempty")

    def swapped(self) -> "WeatSpec":
        return replace(self, targets_x=self.targets_y, targets_y=self.targets_x)


def _rows(embeddings: EmbeddingSet, words: Iterable[str]) -> np.ndarray:
    """Vectors of the words, in order; raises on an out-of-vocabulary word."""
    return embeddings.vectors[[embeddings.index(w) for w in words]]


def gender_direction(embeddings: EmbeddingSet) -> np.ndarray:
    """The vector he - she; raises if either token is missing."""
    return embeddings.vector("he") - embeddings.vector("she")


def _projections(embeddings: EmbeddingSet, rows: Iterable[int],
                 normalized: bool = False) -> np.ndarray:
    """Projection on he - she of each vocabulary row in `rows`: the dot
    product, or in normalized mode the cosine.

    Each row is reduced on its own, so a word's value does not depend on the
    batch (a 2-D `@` sends one row to BLAS ddot and more to gemv, which round
    differently). That also lets the rows be reduced in blocks of
    _PROJECTION_ROWS, so memory does not grow with their number. A block is
    gathered, except when its rows ascend and span at most twice their
    number, as every neutral row does: then the rows it spans are reduced in
    place and the ones asked for kept, which copies no row. `rows`
    is read after he and she are looked up, so a lazy
    map(embeddings.index, words) raises for the word a per-word loop would;
    an array or a sequence is taken as it is, not element by element.
    """
    direction = gender_direction(embeddings)
    if isinstance(rows, Iterator):
        index = np.fromiter(rows, dtype=np.intp)
    else:
        index = np.asarray(rows, dtype=np.intp)
    project = cosine_rows if normalized else functools.partial(np.einsum, "ij,j->i")
    vectors = embeddings.vectors
    values = np.empty(index.size)
    for start in range(0, index.size, _PROJECTION_ROWS):
        block = index[start:start + _PROJECTION_ROWS]
        lo, hi = int(block[0]), int(block[-1]) + 1
        if hi - lo <= 2 * block.size and np.all(block[1:] >= block[:-1]):
            values[start:start + block.size] = project(vectors[lo:hi], direction)[block - lo]
        else:
            values[start:start + block.size] = project(vectors[block], direction)
    return values


def bias_by_projection(embeddings: EmbeddingSet, word: str, normalized: bool = False) -> float:
    """Projection of one word vector on the gender direction; see _projections."""
    return float(_projections(embeddings, map(embeddings.index, [word]), normalized)[0])


def mean_abs_projection_bias(
    embeddings: EmbeddingSet, lists: BiasedWordLists, normalized: bool = False
) -> float:
    """Mean |projection bias| over both biased lists; missing words are skipped."""
    index = embeddings._index
    rows = [index[w] for w in lists.all_words() if w in index]
    if not rows:
        raise InputError("no listed word is present in the vocabulary")
    return float(np.mean(np.abs(_projections(embeddings, rows, normalized))))


def select_biased_words(
    embeddings: EmbeddingSet,
    part: WordPartition,
    n_per_gender: int,
) -> BiasedWordLists:
    """Pick the n most male- and n most female-biased non-definition words.

    Male side: largest positive raw projections on he - she; female side most
    negative. Ties break toward the lower vocabulary index.
    """
    if n_per_gender < 1:
        raise InputError("n_per_gender must be >= 1")
    neutral = part.neutral_indices
    proj = _projections(embeddings, neutral)

    ranked = []
    for side, sign in (("male", 1.0), ("female", -1.0)):
        mask = sign * proj > 0
        count = int(mask.sum())
        if count < n_per_gender:
            raise InputError(f"only {count} {side}-biased candidates, need {n_per_gender}")
        rows = neutral[mask]
        top = rows[np.lexsort((rows, -sign * proj[mask]))[:n_per_gender]]
        ranked.append(tuple(embeddings.words[i] for i in top))
    return BiasedWordLists(*ranked)


def sembias_eval(
    embeddings: EmbeddingSet, instances: Sequence[SemBiasInstance]
) -> tuple[float, int, int]:
    """Definition-pair selection accuracy.

    For each instance the pair (a, b) whose difference a - b has the highest
    cosine with he - she is predicted; ties take the first maximal pair.
    Instances with out-of-vocabulary tokens are skipped. Returns
    (accuracy, used, skipped).
    """
    direction = gender_direction(embeddings)
    usable = [
        instance for instance in instances
        if all(w in embeddings for pair in instance.pairs for w in pair[:2])
    ]
    if not usable:
        raise InputError("no usable instance (all contained out-of-vocabulary tokens)")
    pairs = [pair for instance in usable for pair in instance.pairs]
    sims = cosine_rows(_rows(embeddings, [a for a, _, _ in pairs])
                       - _rows(embeddings, [b for _, b, _ in pairs]), direction)
    bounds = np.cumsum([len(instance.pairs) for instance in usable])[:-1]
    correct = sum(
        int(np.argmax(scores)) == instance.definition_index()
        for scores, instance in zip(np.split(sims, bounds), usable)
    )
    return correct / len(usable), len(usable), len(instances) - len(usable)


def gbwr_clustering(embeddings: EmbeddingSet, lists: BiasedWordLists, seed: int) -> float:
    """k-means (k=2) the listed words; purity against their list membership."""
    points = _rows(embeddings, lists.all_words())
    labels = np.array([1] * len(lists.male_biased) + [0] * len(lists.female_biased))
    assignments = kmeans(points, 2, seed)
    return purity(assignments, labels)


def _male_neighbor_counts(
    embeddings: EmbeddingSet, queries: Sequence[int], lists: BiasedWordLists, k: int
) -> np.ndarray:
    """Male-list words among each query's k nearest pool members.

    The pool is the union of both biased lists; one similarity matrix from
    the queries to the pool ranks them all.
    """
    pool = np.asarray([embeddings.index(w) for w in lists.all_words()], dtype=np.int64)
    male = np.zeros(len(embeddings), dtype=bool)
    male[pool[: len(lists.male_biased)]] = True
    return male[top_k_neighbors(embeddings, queries, k, pool)].sum(axis=1)


def bias_by_neighbors(
    embeddings: EmbeddingSet,
    word: str,
    lists: BiasedWordLists,
    k: int = DEFAULT_NEIGHBORS,
) -> float:
    """Fraction of male-biased words among the k nearest pool members.

    The candidate pool is the union of both biased lists, minus the word
    itself; neighbors are ranked by cosine similarity.
    """
    query = embeddings.index(word)
    return float(_male_neighbor_counts(embeddings, [query], lists, k)[0] / k)


def _original_bias_and_counts(embeddings: EmbeddingSet, words: Sequence[str],
                              lists: BiasedWordLists, original: EmbeddingSet, k: int,
                              normalized: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each word's projection on the original embedding and its count of
    male-list words among its k nearest pool members in `embeddings`."""
    projections = _projections(original, map(original.index, words), normalized)
    queries = [embeddings.index(w) for w in words]
    return projections, _male_neighbor_counts(embeddings, queries, lists, k)


def gbwr_correlation(
    embeddings: EmbeddingSet,
    lists: BiasedWordLists,
    original: EmbeddingSet,
    k: int = DEFAULT_NEIGHBORS,
    normalized: bool = False,
) -> float:
    """Pearson correlation between original projection bias and neighbor bias.

    Projection bias comes from the original embedding; neighbor bias from the
    embedding under evaluation.
    """
    projections, counts = _original_bias_and_counts(
        embeddings, lists.all_words(), lists, original, k, normalized)
    return pearson(projections, counts / k)


def gbwr_profession(
    embeddings: EmbeddingSet,
    professions: Sequence[str],
    lists: BiasedWordLists,
    original: EmbeddingSet,
    k: int = DEFAULT_NEIGHBORS,
    normalized: bool = False,
) -> tuple[float, list[tuple[str, int, float]]]:
    """Male-neighbor counts of profession words vs. their original bias.

    For each in-vocabulary profession, counts male-list words among its k
    nearest neighbors (pool = biased-word union) and correlates the counts
    with the original-embedding projection bias. Returns the Pearson
    coefficient and (word, male_count, original_bias) rows for plotting.
    """
    words = [w for w in professions if w in embeddings and w in original]
    projections, counts = _original_bias_and_counts(
        embeddings, words, lists, original, k, normalized)
    if len(words) < 2:
        raise InputError("fewer than 2 professions are present in the vocabulary")
    # Python ints and floats, so that the rows print as plain numbers
    points = list(zip(words, counts.tolist(), projections.tolist()))
    return pearson(projections, counts), points


def weat_test(
    embeddings: EmbeddingSet,
    spec: WeatSpec,
    seed: int,
    exact_limit: int = WEAT_EXACT_LIMIT,
) -> tuple[float, float]:
    """Differential-association permutation test.

    Per-word association s(w) is the mean cosine with attribute set A minus
    the mean with set B; the statistic sums s over targets X minus targets Y.
    The one-sided p-value is the fraction of equal-size re-partitions of
    X union Y whose statistic is >= the observed one: exact enumeration when
    the partition count fits exact_limit, otherwise seeded sampling with the
    observed partition included, so p is always in (0, 1].
    """
    targets = _rows(embeddings, spec.targets_x + spec.targets_y)
    s = (cosine_matrix(targets, _rows(embeddings, spec.attributes_a)).mean(axis=1)
         - cosine_matrix(targets, _rows(embeddings, spec.attributes_b)).mean(axis=1))
    nx = len(spec.targets_x)
    total = 2 * nx

    # Row 0 of `chosen` is the observed partition (X), so the reported
    # statistic and every permuted one come from the same expression. Row i of
    # `rest` is the ascending complement of row i of `chosen`; for subsets in
    # lexicographic order, the complements are the subsets in reverse order.
    n_partitions = comb(total, nx)
    if n_partitions <= exact_limit:
        chosen = np.array(list(itertools.combinations(range(total), nx)))
        rest = chosen[::-1]
    else:
        # one row per draw, the same stream as WEAT_SAMPLES rng.permutation calls
        draws = np.random.default_rng(seed).permuted(
            np.tile(np.arange(total), (WEAT_SAMPLES, 1)), axis=1
        )
        chosen = np.vstack([np.arange(nx), np.sort(draws[:, :nx], axis=1)])
        rest = np.vstack([np.arange(nx, total), np.sort(draws[:, nx:], axis=1)])
    statistics = s[chosen].sum(axis=1) - s[rest].sum(axis=1)
    statistic = float(statistics[0])
    p_value = int(np.count_nonzero(statistics >= statistic)) / statistics.size
    return statistic, p_value


def gbwr_classification(
    embeddings: EmbeddingSet,
    part: WordPartition,
    original: EmbeddingSet,
    seed: int,
    n_per_gender: int = 2500,
    train_per_gender: int = 500,
) -> float:
    """Accuracy of a linear classifier separating previously biased words.

    The top n_per_gender biased words per gender are selected on the original
    embedding; the train_per_gender most biased of each side form the training
    split and the rest the test split. Vectors come from the embedding under
    evaluation.
    """
    if not 1 <= train_per_gender < n_per_gender:
        raise InputError("need 1 <= train_per_gender < n_per_gender")
    lists = select_biased_words(original, part, n_per_gender)
    train_words = lists.male_biased[:train_per_gender] + lists.female_biased[:train_per_gender]
    test_words = lists.male_biased[train_per_gender:] + lists.female_biased[train_per_gender:]
    train_labels = np.array([1] * train_per_gender + [0] * train_per_gender)
    test_labels = np.array(
        [1] * (n_per_gender - train_per_gender) + [0] * (n_per_gender - train_per_gender)
    )
    model = train_linear_classifier(_rows(embeddings, train_words), train_labels, seed)
    predictions = model.predict(_rows(embeddings, test_words))
    return float(np.mean(predictions == test_labels))


def load_sembias(source: LineSource) -> list[SemBiasInstance]:
    """Parse the definition-pair selection dataset.

    Each line holds four tab-separated fields "wordA wordB tag" with tag in
    {definition, biased, other}; an optional fifth field "subset" marks the
    instance as part of the held-out subset. '#' lines are ignored.
    """
    instances = []
    for lineno, line in _data_lines(source):
        fields = line.split("\t")
        subset = False
        if len(fields) == 5:
            if fields[4].strip() != "subset":
                raise ParseError(f"line {lineno}: unknown marker {fields[4]!r}")
            subset = True
            fields = fields[:4]
        if len(fields) != 4:
            raise ParseError(f"line {lineno}: expected 4 tab-separated pairs, got {len(fields)}")
        pairs = []
        for item in fields:
            parts = item.split()
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: field {item!r} is not 'wordA wordB tag'")
            a, b, tag = parts
            if tag not in ("definition", "biased", "other"):
                raise ParseError(f"line {lineno}: unknown tag {tag!r}")
            pairs.append((a, b, tag))
        try:
            instances.append(SemBiasInstance(pairs=tuple(pairs), subset=subset))
        except InputError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return instances


_WEAT_SECTIONS = ("targets_x", "targets_y", "attributes_a", "attributes_b")


def load_weat_spec(source: LineSource, name: str = "") -> WeatSpec:
    """Parse a WEAT spec file: [section] headers with one token per line."""
    sections: dict[str, list[str]] = {key: [] for key in _WEAT_SECTIONS}
    current: str | None = None
    for lineno, line in _data_lines(source):
        token = line.strip()
        if token.startswith("name:"):
            name = token[len("name:"):].strip()
            continue
        if token.startswith("[") and token.endswith("]"):
            section = token[1:-1].strip()
            if section not in sections:
                raise ParseError(f"line {lineno}: unknown section {section!r}")
            current = section
            continue
        if current is None:
            raise ParseError(f"line {lineno}: token before any [section] header")
        sections[current].append(token)
    return WeatSpec(**{key: tuple(words) for key, words in sections.items()}, name=name)
