"""Dense numerical kernels: ridge solve, similarity, correlations, k-means,
clustering purity, and a small linear hinge-loss classifier.

Everything here is a pure function of its arguments and deterministic for a
given seed, so callers may invoke these concurrently.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError, UndefinedCorrelationError

# Vectors with norm below this are treated as zero for cosine purposes.
ZERO_NORM_EPS = 1e-12

# k-means: restarts, and the Lloyd iteration cap and center-movement tolerance.
_KMEANS_RESTARTS = 10
_LLOYD_MAX_ITER = 300
_LLOYD_TOL = 1e-6
# Hinge-loss classifier: L2 strength and passes over the training set.
_CLASSIFIER_L2 = 1e-4
_CLASSIFIER_EPOCHS = 200
# Finding its steps that do not update in batches: the first batch of steps
# tried at once, the largest, the shortest run without an update worth a
# batch, and the most plain steps between tries.
_SKIP_CHUNK = 32
_SKIP_MAX_CHUNK = 1 << 15
_SKIP_MIN_RUN = 4
_SKIP_MAX_WAIT = 4096


@dataclass(frozen=True, eq=False)
class RidgeSolution:
    """Weight matrix of one ridge solve."""

    weights: np.ndarray  # (m, n)


def _as_matrix(x, name: str) -> np.ndarray:
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise InputError(f"{name} must be a 2-D matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InputError(f"{name} contains non-finite entries")
    return m


def solve_ridge(a, b, alpha: float) -> RidgeSolution:
    """Solve min_W ||B - AW||_F^2 + alpha ||W||_F^2 in closed form.

    Forms the normal matrix A^T A + alpha I and factors it by Cholesky;
    alpha > 0 guarantees the matrix is positive definite. Solving the factor
    against A^T gives the m x d map (A^T A + alpha I)^-1 A^T, so the
    triangular solves cost d right-hand sides rather than one per column of
    B; a single product with B then yields the m x n weights.
    """
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    if a.shape[0] != b.shape[0]:
        raise InputError(
            f"A and B must have equal row counts, got {a.shape[0]} and {b.shape[0]}"
        )
    alpha = float(alpha)
    if not np.isfinite(alpha) or alpha < 0:
        raise InputError(f"alpha must be a nonnegative real, got {alpha}")

    gram = a.T @ a
    if alpha > 0:
        gram = gram + alpha * np.eye(a.shape[1])
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "normal-equation matrix A^T A + alpha I is not positive definite "
            f"(singular A^T A with alpha={alpha}): {exc}"
        ) from exc
    regularized_pinv = np.linalg.solve(lower.T, np.linalg.solve(lower, a.T))
    weights = regularized_pinv @ b
    return RidgeSolution(weights=weights)


_row_sums = functools.partial(np.sum, axis=-1)


def _squared_norms(x: np.ndarray, sums=_row_sums) -> np.ndarray:
    """Squared Euclidean norm of each row; (near) zero rows get an infinite one.

    Dividing a dot product by an infinite norm gives 0, which is the cosine
    defined for a vector with norm below ZERO_NORM_EPS.
    """
    squares = sums(x * x)
    return np.where(np.sqrt(squares) < ZERO_NORM_EPS, np.inf, squares)


def _row_norms(x: np.ndarray, sums=_row_sums) -> np.ndarray:
    """Euclidean norm of each row; (near) zero rows get an infinite norm."""
    return np.sqrt(_squared_norms(x, sums))


def _norm_products(squares_u: np.ndarray, squares_v: np.ndarray) -> np.ndarray:
    """|u| |v| as one square root of |u|^2 |v|^2, so that cos(u, u) is exactly 1.

    sqrt(|u|^2 |u|^2) rounds back to |u|^2, where |u| * |u| need not. The
    squares are split into mantissa and exponent first, so the product
    overflows only where |u| |v| itself does.
    """
    mantissa_u, exponent_u = np.frexp(squares_u)
    mantissa_v, exponent_v = np.frexp(squares_v)
    exponent = exponent_u + exponent_v
    odd = exponent & 1
    return np.ldexp(np.sqrt(np.ldexp(mantissa_u * mantissa_v, odd)), (exponent - odd) // 2)


def _cosines(dots: np.ndarray, norm_products: np.ndarray) -> np.ndarray:
    # Clip round-off into [-1, 1]; adding 0.0 turns the -0.0 of a zero row into 0.0.
    return np.clip(dots / norm_products, -1.0, 1.0) + 0.0


def _check_dims(u: np.ndarray, v: np.ndarray) -> None:
    if u.shape[-1] != v.shape[-1]:
        raise InputError(f"vector dimensions differ: {u.shape[-1]} vs {v.shape[-1]}")


def cosine_rows(u, v) -> np.ndarray:
    """Cosine of each row of u with the matching row of v; rows broadcast.

    Each row is reduced on its own, so a cosine does not depend on which
    other rows are in the batch.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    _check_dims(u, v)
    return _cosines(np.sum(u * v, axis=-1), _norm_products(_squared_norms(u), _squared_norms(v)))


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """np.unique of a 1-D array. np.unique without index outputs imports
    numpy.ma, which would add its import time to every process."""
    ordered = np.sort(values)
    first = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of x in a canonical (byte-sorted) order, and where each row went."""
    x = np.ascontiguousarray(x)
    keys = x.view(np.dtype((np.void, x.itemsize * x.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return x[first], inverse.ravel()


def cosine_matrix(u, v) -> np.ndarray:
    """Cosines of every row of u with every row of v, shape (len(u), len(v)).

    A BLAS product may round the same dot product differently at different
    row positions. The product is therefore taken over the distinct rows in
    a canonical order: an entry depends only on its two vectors and on the
    sets of rows, so duplicated vectors get bitwise-equal cosines and
    reordering the rows permutes the result exactly.
    """
    u_rows, u_where = _distinct_rows(np.asarray(u, dtype=np.float64))
    v_rows, v_where = _distinct_rows(np.asarray(v, dtype=np.float64))
    _check_dims(u_rows, v_rows)
    norm_products = np.outer(_row_norms(u_rows), _row_norms(v_rows))
    return _cosines(u_rows @ v_rows.T, norm_products)[np.ix_(u_where, v_where)]


def _exact_sums(rows: np.ndarray) -> np.ndarray:
    """The sum of each row of a 2-D array, rounded once (math.fsum)."""
    return np.array([math.fsum(row) for row in rows.tolist()], dtype=np.float64)


def exact_cosine_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """cosine_rows for 2-D u and v, with every sum of products rounded once.

    The products are rounded as usual, but no sum depends on summation
    order or blocking: an exactly zero dot product is 0, and vectors that
    tie in this arithmetic tie bitwise. Zero rows keep their cosine of 0.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    _check_dims(u, v)
    norms = [_row_norms(x, _exact_sums) for x in (u, v)]
    return _cosines(_exact_sums(u * v), norms[0] * norms[1])


def cosine_similarity(u, v) -> float:
    """Cosine of the angle between u and v; 0.0 if either is (near) zero."""
    return float(cosine_rows(np.ravel(u), np.ravel(v)))


def _as_sequence_pair(x, y):
    x = np.asarray(x, dtype=np.float64).ravel()
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.shape != y.shape:
        raise InputError(f"sequence lengths differ: {x.shape[0]} vs {y.shape[0]}")
    if x.shape[0] < 2:
        raise InputError("correlation needs at least 2 observations")
    return x, y


def pearson(x, y) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _as_sequence_pair(x, y)
    xc = x - x.mean()
    yc = y - y.mean()
    sx = np.linalg.norm(xc)
    sy = np.linalg.norm(yc)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation undefined for a constant sequence")
    return float(np.clip(np.dot(xc, yc) / (sx * sy), -1.0, 1.0))


def average_ranks(x) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank positions.

    -0.0 ties with 0.0, and every NaN is a group of its own.
    """
    x = np.asarray(x, dtype=np.float64).ravel()
    n = x.shape[0]
    if n < 2:
        return np.ones(n)
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    new_group = np.ones(n, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    first = np.flatnonzero(new_group)
    last = np.append(first[1:], n) - 1
    ranks = np.empty(n)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson on average-tie ranks."""
    x, y = _as_sequence_pair(x, y)
    return pearson(average_ranks(x), average_ranks(y))


def _squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    # (n, k) matrix of squared Euclidean distances.
    d2 = (
        np.sum(points**2, axis=1)[:, None]
        - 2.0 * points @ centers.T
        + np.sum(centers**2, axis=1)[None, :]
    )
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, then D^2-weighted draws."""
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    idx = int(rng.integers(n))
    centers[0] = points[idx]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen center.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[c] = points[idx]
        d2 = np.minimum(d2, np.sum((points - centers[c]) ** 2, axis=1))
    return centers


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float, list[float]]:
    """Lloyd iterations from given centers.

    Returns (assignments, sse, sse_history); history records the
    within-cluster sum of squares after each center update and is
    non-increasing.
    """
    k = centers.shape[0]
    centers = centers.copy()
    history: list[float] = []
    # Distances to the current centers; each iteration's post-update
    # distances serve the next iteration's assignment step.
    d2 = _squared_distances(points, centers)
    for _ in range(_LLOYD_MAX_ITER):
        assignments = np.argmin(d2, axis=1)

        # A cluster left without members keeps its stale center: degenerate
        # inputs (e.g. all points identical) then settle in one cluster.
        new_centers = centers.copy()
        for c in range(k):
            members = assignments == c
            if np.any(members):
                new_centers[c] = points[members].mean(axis=0)
        movement = float(np.max(np.linalg.norm(new_centers - centers, axis=1)))
        centers = new_centers
        d2 = _squared_distances(points, centers)
        sse = float(d2[np.arange(points.shape[0]), assignments].sum())
        history.append(sse)
        if movement <= _LLOYD_TOL:
            break
    return assignments, history[-1], history


def kmeans(points, k: int, seed: int) -> np.ndarray:
    """Cluster points into k groups; returns one cluster index per point.

    Runs Lloyd's algorithm from _KMEANS_RESTARTS k-means++ seedings and
    keeps the restart with the lowest within-cluster sum of squares.
    Deterministic for a given seed.
    """
    points = _as_matrix(points, "points")
    n = points.shape[0]
    if k < 1 or k > n:
        raise InputError(f"need 1 <= k <= n, got k={k} with n={n} points")
    rng = np.random.default_rng(seed)
    best_assignments: np.ndarray | None = None
    best_sse = np.inf
    for _ in range(_KMEANS_RESTARTS):
        centers = _kmeanspp_init(points, k, rng)
        assignments, sse, _ = _lloyd(points, centers)
        if sse < best_sse:
            best_sse = sse
            best_assignments = assignments
    assert best_assignments is not None
    return best_assignments


def purity(assignments, labels) -> float:
    """Fraction of points whose cluster's majority label matches their own."""
    assignments = np.asarray(assignments, dtype=np.int64).ravel()
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if assignments.shape != labels.shape:
        raise InputError(
            f"assignments and labels lengths differ: {assignments.shape[0]} vs {labels.shape[0]}"
        )
    n = assignments.shape[0]
    if n == 0:
        raise InputError("purity needs at least one point")
    majority_total = 0
    for c in _sorted_distinct(assignments):
        cluster_labels = labels[assignments == c]
        majority_total += int(np.bincount(cluster_labels).max())
    return majority_total / n


@dataclass(frozen=True, eq=False)
class LinearClassifier:
    """Linear decision rule: predict 1 when w.x + b > 0, else 0."""

    weights: np.ndarray
    bias: float

    def decision_function(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=np.float64)
        return points @ self.weights + self.bias

    def predict(self, points) -> np.ndarray:
        return (self.decision_function(points) > 0.0).astype(np.int64)


def train_linear_classifier(train_points, train_labels, seed: int) -> LinearClassifier:
    """Train a binary hinge-loss classifier by per-sample subgradient descent.

    Objective: mean hinge loss + (l2/2)||w||^2 with an unregularized bias,
    l2 = _CLASSIFIER_L2. Step t (from 1) has size eta_t = 1/(1 + l2 t); sample
    order is reshuffled in each of _CLASSIFIER_EPOCHS epochs from the seed, so
    training is deterministic.

    Step t shrinks w by 1 - eta_t l2 = eta_t / eta_{t-1}, so the factors
    telescope (Shalev-Shwartz et al. 2007, Pegasos): w after step t is eta_t v,
    with eta_0 = 1, where v sums s x over the steps whose margin
    s (w.x + b) = eta_{t-1} (v . s x) + s b was below 1, and each such step
    adds eta_t s to b. A step that does not update changes nothing.
    """
    x = _as_matrix(train_points, "train_points")
    y = np.asarray(train_labels).ravel()
    if x.shape[0] != y.shape[0]:
        raise InputError(
            f"points and labels lengths differ: {x.shape[0]} vs {y.shape[0]}"
        )
    positive = y == 1
    if not np.all(positive | (y == 0)):
        raise InputError("labels must be binary (0/1)")
    if positive.all() or not positive.any():
        raise InputError("training set must contain both classes")

    signs = np.where(positive, 1.0, -1.0)
    signed = np.multiply(x, signs[:, None], order="C")  # rows times their sign: exact
    rng = np.random.default_rng(seed)
    samples = np.concatenate([rng.permutation(x.shape[0]) for _ in range(_CLASSIFIER_EPOCHS)])
    etas = 1.0 / (1.0 + _CLASSIFIER_L2 * np.arange(samples.size + 1, dtype=np.float64))
    v, b = _descend(signed, signs, samples, etas)
    return LinearClassifier(weights=etas[-1] * v, bias=b)


def _descend(signed: np.ndarray, signs: np.ndarray, samples: np.ndarray,
             etas: np.ndarray) -> tuple[np.ndarray, float]:
    """v and b after every step of train_linear_classifier.

    A batch of upcoming steps takes its margins from one np.vecdot over
    their signed rows, which rounds each row as a single step's np.dot does,
    so the batch finds the first step that updates exactly: the steps before
    it are skipped, and it runs as a plain step. A batch with no update
    doubles the next one; otherwise the next is twice the running mean of
    the runs without one, which weighs each new run 1/4. While that mean is
    below _SKIP_MIN_RUN, batches cost more than the steps they skip, so
    plain steps run instead, twice as many after each such batch in a row,
    up to _SKIP_MAX_WAIT.
    """
    v = np.zeros(signed.shape[1], dtype=np.float64)
    b = 0.0
    plain = (list(signed), signs.tolist(), samples, etas)
    step_signs = signs[samples]
    total = samples.size
    p = 0
    batch = backoff = _SKIP_CHUNK
    mean_run = float(_SKIP_MIN_RUN)
    while p < total:
        k = min(batch, total - p)
        picked = samples[p:p + k]
        if k >= len(signed):
            dots = np.vecdot(signed, v)[picked]
        else:
            dots = np.vecdot(np.take(signed, picked, axis=0), v)
        updates = etas[p:p + k] * dots + step_signs[p:p + k] * b < 1.0
        run = int(updates.argmax()) if updates.any() else k
        p += run
        if run == k:
            batch = min(2 * batch, _SKIP_MAX_CHUNK)
            backoff = _SKIP_CHUNK
            continue
        b = _plain_steps(v, b, p, p + 1, *plain)
        p += 1
        mean_run += (run - mean_run) / 4
        if mean_run >= _SKIP_MIN_RUN:
            batch = min(max(int(2 * mean_run), _SKIP_CHUNK), _SKIP_MAX_CHUNK)
            backoff = _SKIP_CHUNK
        else:
            stop = min(p + backoff, total)
            b = _plain_steps(v, b, p, stop, *plain)
            p = stop
            batch = _SKIP_CHUNK
            backoff = min(2 * backoff, _SKIP_MAX_WAIT)
    return v, b


def _plain_steps(v, b, start, stop, rows, signs, samples, etas) -> float:
    """Steps start..stop-1 of the per-sample loop, updating v in place; returns b."""
    dot = np.dot
    scales = etas[start:stop + 1].tolist()
    for t, i in enumerate(samples[start:stop].tolist()):
        row = rows[i]
        sign = signs[i]
        if scales[t] * dot(v, row) + sign * b < 1.0:
            v += row
            b += scales[t + 1] * sign
    return b
