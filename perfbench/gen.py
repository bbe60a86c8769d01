"""Seeded input generator for the benchmark.

Scales up the planted model of ``tests/conftest.build_planted``: 202
gender-definition words (he, she and 200 others) span a subspace that holds
the gender direction g = he - she, and every other word is a semantic part
orthogonal to that subspace plus a signed multiple of g. On top of the
embedding it writes the evaluation files the CLI reads: a gender list,
SemBias-style instances, WEAT specs, professions, word-pair sets and STS
sets named by year.

The text is written by this module's own formatter, never by
``fairvec.save_embeddings``, so a change to the program does not move input
generation. Rows use the headerless "token v1 ... vd" format with six decimals,
as in common pre-trained text vectors. Nothing is cached between calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DIM = 300
N_DEFINITION = 202
BETA = 3.0
NOISE = 0.5

WORDSIM_SIZES = {"rg65": 65, "ws353": 353, "mturk771": 771, "simlex999": 999,
                 "rw2034": 2034, "men3000": 3000}
STS_TASKS = {
    "2012": ("MSRpar", "MSRvid", "SMTeuroparl", "OnWN", "SMTnews"),
    "2013": ("FNWN", "headlines", "OnWN"),
    "2014": ("deft-forum", "deft-news", "headlines", "images", "OnWN", "tweet-news"),
    "2015": ("answers-forums", "answers-students", "belief", "headlines", "images"),
    "2016": ("answer-answer", "headlines", "plagiarism", "postediting", "question-question"),
}
# (targets per side, attributes per side) for each association-test file:
# three exact 7-vs-7 tests (3432 partitions each) and one 10-vs-10 test,
# whose 184756 partitions exceed the exact limit, so it is sampled.
WEAT_SHAPES = (("weat1", 7, 8), ("weat2", 7, 8), ("weat3", 7, 8), ("weat4", 10, 8))
N_PROFESSIONS = 300
N_SEMBIAS = 440
N_SEMBIAS_SUBSET = 40


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set."""

    embeddings: str
    gender_list: str
    sembias: str
    professions: str
    weat: tuple[str, ...]
    wordsim: tuple[tuple[str, str], ...]  # (name, path)
    sts: tuple[tuple[str, str], ...]  # (year/task name, path)


def planted_matrix(rng: np.random.Generator, n_neutral: int):
    """Words and (n_rows, DIM) vectors of the planted model, plus neutral signs."""
    others = rng.normal(size=(DIM, N_DEFINITION - 2))
    g = others @ rng.normal(size=N_DEFINITION - 2)
    g = 2.0 * g / np.linalg.norm(g)
    he = rng.normal(size=DIM)
    v_d = np.column_stack([he, he - g, others])

    q, _ = np.linalg.qr(v_d)
    raw = rng.normal(size=(DIM, n_neutral)) * NOISE
    semantic = raw - q @ (q.T @ raw)
    signs = np.where(rng.random(n_neutral) < 0.5, 1.0, -1.0)
    coefficients = BETA * signs * rng.uniform(0.05, 1.0, size=n_neutral)
    neutral = semantic + np.outer(g, coefficients)

    definition_words = ["he", "she"] + [f"def{i}" for i in range(N_DEFINITION - 2)]
    neutral_words = [f"w{i}" for i in range(n_neutral)]
    vectors = np.vstack([v_d.T, neutral.T])
    # Six decimals, as written; the program parses exactly these values.
    vectors = np.round(vectors, 6)
    return definition_words, neutral_words, vectors, signs


def format_rows(words, vectors: np.ndarray) -> str:
    """Headerless text rows, six decimals per component."""
    row = "%s" + " %.6f" * vectors.shape[1] + "\n"
    return "".join(row % (word, *values) for word, values in zip(words, vectors.tolist()))


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    return path


def _sentence(rng, neutral_words, length):
    picks = rng.integers(0, len(neutral_words), size=length)
    tokens = [neutral_words[i] for i in picks]
    if rng.random() < 0.3:  # an out-of-vocabulary token, as real sentences have
        tokens.append(f"oov{int(rng.integers(0, 10**6))}")
    return " ".join(tokens)


def generate(directory: str, seed: int, n_rows: int) -> Inputs:
    """Write one complete input set for ``seed`` into ``directory``."""
    n_neutral = n_rows - N_DEFINITION
    if n_neutral < 2000:
        raise ValueError(f"need at least {N_DEFINITION + 2000} rows, got {n_rows}")
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    definition_words, neutral_words, vectors, signs = planted_matrix(rng, n_neutral)
    neutral_vectors = vectors[N_DEFINITION:]
    path = lambda name: os.path.join(directory, name)  # noqa: E731

    embeddings = _write(path("vectors.txt"),
                        format_rows(definition_words + neutral_words, vectors))
    gender_list = _write(path("gender_list.txt"),
                         "# gender-definition words\n" + "\n".join(definition_words) + "\n")

    male = np.flatnonzero(signs > 0)
    female = np.flatnonzero(signs < 0)

    lines = []
    for i in range(N_SEMBIAS):
        a, b = rng.choice(male), rng.choice(female)
        c, d, e, f = rng.choice(n_neutral, size=4, replace=False)
        pairs = ["he she definition",
                 f"{neutral_words[a]} {neutral_words[b]} biased",
                 f"{neutral_words[c]} {neutral_words[d]} other",
                 f"{neutral_words[e]} {neutral_words[f]} other"]
        order = rng.permutation(4)
        line = "\t".join(pairs[j] for j in order)
        if i >= N_SEMBIAS - N_SEMBIAS_SUBSET:
            line += "\tsubset"
        lines.append(line)
    sembias = _write(path("sembias.txt"), "\n".join(lines) + "\n")

    professions = rng.choice(n_neutral, size=N_PROFESSIONS, replace=False)
    professions = _write(path("professions.txt"),
                         "\n".join(neutral_words[i] for i in professions) + "\n")

    weat = []
    for name, n_targets, n_attributes in WEAT_SHAPES:
        xs = rng.choice(male, size=n_targets, replace=False)
        ys = rng.choice(female, size=n_targets, replace=False)
        attrs = rng.choice(np.arange(2, N_DEFINITION), size=2 * n_attributes - 2,
                           replace=False)
        a_words = ["he"] + [definition_words[i] for i in attrs[:n_attributes - 1]]
        b_words = ["she"] + [definition_words[i] for i in attrs[n_attributes - 1:]]
        text = (f"name: {name}\n[targets_x]\n" + "\n".join(neutral_words[i] for i in xs)
                + "\n[targets_y]\n" + "\n".join(neutral_words[i] for i in ys)
                + "\n[attributes_a]\n" + "\n".join(a_words)
                + "\n[attributes_b]\n" + "\n".join(b_words) + "\n")
        weat.append(_write(path(f"{name}.txt"), text))

    wordsim = []
    for name, size in WORDSIM_SIZES.items():
        left = rng.integers(0, n_neutral, size=size)
        right = rng.integers(0, n_neutral, size=size)
        a, b = neutral_vectors[left], neutral_vectors[right]
        cosine = np.sum(a * b, axis=1) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))
        scores = np.clip(5.0 + 20.0 * cosine + rng.normal(scale=1.0, size=size), 0.0, 10.0)
        rows = [f"{neutral_words[i]}\t{neutral_words[j]}\t{s:.2f}"
                for i, j, s in zip(left, right, scores)]
        wordsim.append((name, _write(path(f"ws-{name}.tsv"), "\n".join(rows) + "\n")))

    sts = []
    for year, tasks in STS_TASKS.items():
        for task in tasks:
            size = int(rng.integers(150, 450))
            rows = []
            for _ in range(size):
                s1 = _sentence(rng, neutral_words, int(rng.integers(4, 16)))
                s2 = _sentence(rng, neutral_words, int(rng.integers(4, 16)))
                rows.append(f"{s1}\t{s2}\t{rng.uniform(0.0, 5.0):.3f}")
            sts.append((f"{year}/{task}",
                        _write(path(f"sts-{year}-{task}.tsv"), "\n".join(rows) + "\n")))

    return Inputs(embeddings=embeddings, gender_list=gender_list, sembias=sembias,
                  professions=professions, weat=tuple(weat), wordsim=tuple(wordsim),
                  sts=tuple(sts))
