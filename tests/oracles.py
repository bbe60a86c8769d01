"""Independent reference implementations used to check the package.

Everything here is written straight from definitions, favoring clarity and
independence over speed, and shares no code with the package under test.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def ridge_gd(a, b, alpha, tol=1e-11, max_iter=500_000):
    """Minimize ||B - AW||_F^2 + alpha ||W||_F^2 by plain gradient descent.

    Step size 1/L with L the Lipschitz constant of the gradient, stopping on
    a tight gradient-norm threshold, so the iterate is the minimizer to well
    below 1e-6.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    gram = a.T @ a
    lipschitz = 2.0 * (float(np.linalg.eigvalsh(gram).max()) + alpha)
    step = 1.0 / lipschitz
    atb = a.T @ b
    threshold = tol * max(1.0, float(np.abs(atb).max()))
    w = np.zeros((a.shape[1], b.shape[1]))
    for _ in range(max_iter):
        grad = 2.0 * (gram @ w - atb) + 2.0 * alpha * w
        if float(np.abs(grad).max()) <= threshold:
            break
        w = w - step * grad
    return w


def rank_oracle(values):
    """1-based ranks with ties averaged, straight from the definition."""
    ranks = []
    for v in values:
        less = sum(1 for u in values if u < v)
        equal = sum(1 for u in values if u == v)
        ranks.append(less + (equal + 1) / 2.0)
    return ranks


def average_ranks_oracle(values):
    """Average-tie ranks by a walk over the stable sort order: the reference
    that fairvec's average_ranks reproduces bit for bit. A group runs while
    values equal its first one, so -0.0 ties with 0.0 and every NaN stands
    alone."""
    x = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.shape[0], dtype=np.float64)
    i = 0
    n = x.shape[0]
    while i < n:
        j = i
        while j + 1 < n and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def pearson_oracle(x, y):
    n = len(x)
    mean_x = math.fsum(x) / n
    mean_y = math.fsum(y) / n
    cov = math.fsum((a - mean_x) * (b - mean_y) for a, b in zip(x, y))
    var_x = math.fsum((a - mean_x) ** 2 for a in x)
    var_y = math.fsum((b - mean_y) ** 2 for b in y)
    return cov / math.sqrt(var_x * var_y)


def spearman_oracle(x, y):
    return pearson_oracle(rank_oracle(x), rank_oracle(y))


def sentence_embedding_oracle(vectors, index, sentence):
    """Mean of the known token rows of one sentence, one sentence at a time:
    the rows (index[w] for known w, with multiplicity) in sorted order,
    reduced by np.add.reduce over axis 0 and divided by their number; a zero
    vector if no token is known."""
    rows = sorted(index[w] for w in sentence if w in index)
    if not rows:
        return np.zeros(vectors.shape[1])
    return np.add.reduce(vectors[rows], axis=0) / len(rows)


def sse_of_assignment(points, assignment, k):
    """Within-cluster sum of squares for a fixed assignment."""
    points = np.asarray(points, dtype=np.float64)
    total = 0.0
    for c in range(k):
        members = points[[i for i, a in enumerate(assignment) if a == c]]
        if len(members):
            center = members.mean(axis=0)
            total += float(((members - center) ** 2).sum())
    return total


def kmeans_brute(points, k):
    """Globally minimal within-cluster SSE over every assignment (tiny n only)."""
    n = len(points)
    best = math.inf
    for assignment in itertools.product(range(k), repeat=n):
        best = min(best, sse_of_assignment(points, assignment, k))
    return best


def purity_oracle(assignments, labels):
    clusters: dict[int, list[int]] = {}
    for a, l in zip(assignments, labels):
        clusters.setdefault(int(a), []).append(int(l))
    majority = 0
    for members in clusters.values():
        majority += max(members.count(l) for l in set(members))
    return majority / len(labels)


def cosine_oracle(u, v):
    nu = math.sqrt(math.fsum(a * a for a in u))
    nv = math.sqrt(math.fsum(b * b for b in v))
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return math.fsum(a * b for a, b in zip(u, v)) / (nu * nv)


def neighbors_oracle(vectors, query_index, k, candidate_indices):
    """Full sort by (-cosine, index) over the candidates, query excluded."""
    query = vectors[query_index]
    scored = []
    for i in sorted(set(int(c) for c in candidate_indices)):
        if i == query_index:
            continue
        scored.append((-cosine_oracle(vectors[i], query), i))
    scored.sort()
    return [i for _, i in scored[:k]]


def weat_associations(vectors_by_word, targets, attributes_a, attributes_b):
    """s(w) per target: mean cosine with A minus mean cosine with B."""
    s = []
    for w in targets:
        sims_a = [cosine_oracle(vectors_by_word[w], vectors_by_word[a]) for a in attributes_a]
        sims_b = [cosine_oracle(vectors_by_word[w], vectors_by_word[b]) for b in attributes_b]
        s.append(math.fsum(sims_a) / len(sims_a) - math.fsum(sims_b) / len(sims_b))
    return s


def weat_exact(s, nx):
    """Observed statistic and exact one-sided p over all equal-size partitions."""
    total = len(s)
    observed = math.fsum(s[:nx]) - math.fsum(s[nx:])
    count = 0
    n_partitions = 0
    for combo in itertools.combinations(range(total), nx):
        chosen = math.fsum(s[i] for i in combo)
        rest = math.fsum(s[i] for i in range(total) if i not in combo)
        n_partitions += 1
        if chosen - rest >= observed:
            count += 1
    return observed, count / n_partitions


class LoadOracleError(ValueError):
    """Raised by load_embeddings_oracle with the loader's ParseError message."""


def load_embeddings_oracle(lines, max_words=None):
    """Words and (n, dim) vectors of embedding text, one line at a time.

    The reference for fairvec.load_embeddings: each row is split on single
    spaces after trailing whitespace is stripped, and its values are
    converted by np.asarray, which reads each string as Python's float does.
    """
    numbered = list(enumerate(lines, start=1))
    if len(numbered) >= 2:
        fields = numbered[0][1].rstrip().split(" ")
        if (len(fields) == 2 and all(f.isdecimal() for f in fields)
                and len(numbered[1][1].rstrip().split(" ")) == int(fields[1]) + 1):
            del numbered[0]
    words, rows, seen, dim = [], [], set(), None
    for lineno, line in numbered:
        if max_words is not None and len(words) >= max_words:
            break
        parts = line.rstrip().split(" ")
        token, values = parts[0], parts[1:]
        if dim is None:
            dim = len(values)
            if dim == 0:
                raise LoadOracleError(f"line {lineno}: no vector components found")
        elif len(values) != dim:
            raise LoadOracleError(
                f"line {lineno}: expected {dim} vector components, got {len(values)}")
        if token in seen:
            raise LoadOracleError(f"line {lineno}: duplicate token {token!r}")
        seen.add(token)
        try:
            row = np.asarray(values, dtype=np.float64)
        except ValueError:
            raise LoadOracleError(f"line {lineno}: non-numeric vector component") from None
        if not np.all(np.isfinite(row)):
            raise LoadOracleError(f"line {lineno}: non-finite vector component")
        words.append(token)
        rows.append(row)
    if not words:
        raise LoadOracleError("empty embedding input")
    return tuple(words), np.vstack(rows)


def linear_classifier_oracle(x, y, seed, l2=1e-4, epochs=200):
    """Weights and bias of per-sample hinge-loss subgradient descent, one step
    at a time: the reference that fairvec.train_linear_classifier reproduces
    bit for bit.

    Step t (from 1) has size eta_t = 1/(1 + l2 t) and shrinks w by
    1 - eta_t l2 = eta_t / eta_{t-1}, so w = eta_t v with eta_0 = 1. A sample
    whose margin eta_{t-1} (v . s x) + s b is below 1 adds s x to v and
    eta_t s to b; s x is a row of one C-contiguous copy of the signed points,
    and each dot product is np.dot. Sample order is a fresh permutation per
    epoch from the seed.
    """
    x = np.asarray(x, dtype=np.float64)
    signs = np.where(np.asarray(y).ravel() == 1, 1.0, -1.0)
    signed = np.ascontiguousarray(x * signs[:, None])
    rng = np.random.default_rng(seed)
    v = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    t = 0
    eta = 1.0
    for _ in range(epochs):
        for i in rng.permutation(x.shape[0]):
            t += 1
            margin = eta * np.dot(v, signed[i]) + signs[i] * b
            eta = 1.0 / (1.0 + l2 * t)
            if margin < 1.0:
                v += signed[i]
                b += eta * signs[i]
    return eta * v, float(b)


def shrinking_classifier_oracle(x, y, seed, l2=1e-4, epochs=200):
    """Weights and bias of per-sample hinge-loss subgradient descent, one step
    at a time, shrinking w at every step: the textbook form of the loop that
    linear_classifier_oracle runs with the shrink factors multiplied out.

    Step t (from 1) has size 1/(1 + l2 t) and shrinks w by 1 - eta l2; a
    sample whose margin s (w.x + b) is below 1 also moves w and b by eta s x
    and eta s. Sample order is a fresh permutation per epoch from the seed.
    """
    x = np.asarray(x, dtype=np.float64)
    signs = np.where(np.asarray(y).ravel() == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(x.shape[0]):
            t += 1
            eta = 1.0 / (1.0 + l2 * t)
            margin = signs[i] * (np.dot(w, x[i]) + b)
            w *= 1.0 - eta * l2
            if margin < 1.0:
                w += eta * signs[i] * x[i]
                b += eta * signs[i]
    return w, float(b)
