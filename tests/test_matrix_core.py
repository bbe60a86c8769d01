"""Numeric kernels against definition-level oracles and stated invariants."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_planted
from fairvec import (
    InputError,
    LinearClassifier,
    NumericalError,
    UndefinedCorrelationError,
    cosine_similarity,
    kmeans,
    pearson,
    purity,
    solve_ridge,
    spearman,
    train_linear_classifier,
)
from fairvec import matrix_core
from fairvec.bias_metrics import _rows, select_biased_words
from fairvec.debias import HsrConfig, hard_debias, hsr_debias
from fairvec.embedding_store import partition
from fairvec.matrix_core import _lloyd, average_ranks, cosine_rows, exact_cosine_rows


class TestSolveRidge:
    def test_identity_alpha_zero(self):
        eye = np.eye(2)
        assert np.allclose(solve_ridge(eye, eye, 0.0).weights, eye, atol=1e-12)

    def test_identity_alpha_one(self):
        eye = np.eye(2)
        assert np.allclose(solve_ridge(eye, eye, 1.0).weights, 0.5 * eye, atol=1e-12)

    def test_not_a_matrix(self):
        with pytest.raises(InputError, match="A must be a 2-D matrix"):
            solve_ridge(np.ones(3), np.eye(3), 1.0)

    def test_matches_gradient_descent_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(20, 5))
        b = rng.normal(size=(20, 8))
        w = solve_ridge(a, b, 0.5).weights
        w_gd = oracles.ridge_gd(a, b, 0.5)
        assert np.max(np.abs(w - w_gd)) < 1e-6

    @pytest.mark.parametrize("d", [5, 20, 300])
    @pytest.mark.parametrize("m", [2, 5, 50])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 60.0])
    def test_normal_equation_residual(self, d, m, alpha):
        if alpha == 0.0 and m > d:
            pytest.skip("A^T A singular by construction; covered separately")
        rng = np.random.default_rng(d * 1000 + m * 10 + int(alpha))
        a = rng.normal(size=(d, m))
        b = rng.normal(size=(d, 7))
        w = solve_ridge(a, b, alpha).weights
        atb = a.T @ b
        residual = (a.T @ a + alpha * np.eye(m)) @ w - atb
        assert np.abs(residual).max() <= 1e-8 * max(1.0, np.abs(atb).max())

    def test_shrinkage_monotone_in_alpha(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(30, 6))
        b = rng.normal(size=(30, 4))
        norms = [
            float(np.linalg.norm(solve_ridge(a, b, alpha).weights))
            for alpha in (0.0, 0.1, 1.0, 60.0, 1e3, 1e6)
        ]
        assert all(n1 >= n2 for n1, n2 in zip(norms, norms[1:]))

    def test_huge_alpha_drives_weights_to_zero(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(25, 5))
        b = rng.normal(size=(25, 5))
        assert np.linalg.norm(solve_ridge(a, b, 1e12).weights) < 1e-6

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            solve_ridge(np.eye(3), np.eye(4), 1.0)

    def test_negative_alpha(self):
        with pytest.raises(InputError):
            solve_ridge(np.eye(2), np.eye(2), -0.5)

    def test_singular_at_alpha_zero(self):
        a = np.ones((4, 3))  # rank 1, so A^T A is singular
        with pytest.raises(NumericalError, match="positive definite"):
            solve_ridge(a, np.ones((4, 2)), 0.0)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_parallel(self):
        assert cosine_similarity(np.array([2.0, 2.0]), np.array([1.0, 1.0])) == pytest.approx(1.0)

    def test_zero_vector_defined_as_zero(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            cosine_similarity(np.ones(2), np.ones(3))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
    )
    def test_range(self, u, v):
        size = min(len(u), len(v))
        value = cosine_similarity(np.array(u[:size]), np.array(v[:size]))
        assert -1.0 <= value <= 1.0

    @given(st.integers(0, 2**31 - 1), st.integers(1, 300), st.integers(-6, 100))
    @settings(max_examples=60, deadline=None)
    def test_self_cosine_exactly_one(self, seed, dim, exponent):
        rows = np.random.default_rng(seed).normal(size=(16, dim)) * 10.0 ** exponent
        nonzero = np.linalg.norm(rows, axis=1) >= 1e-12
        assert np.all(cosine_rows(rows, rows)[nonzero] == 1.0)

    def test_large_norms_do_not_overflow(self):
        # |u|^2 |v|^2 is far above the float64 range at norms near 1e100
        rng = np.random.default_rng(5)
        u, v = rng.normal(size=(2, 50, 300))
        big_u, big_v = u * 1e100, v * 1e100
        product_of_norms = np.sum(big_u * big_v, axis=1) / (
            np.linalg.norm(big_u, axis=1) * np.linalg.norm(big_v, axis=1))
        assert np.allclose(cosine_rows(big_u, big_v), product_of_norms, rtol=0, atol=4e-16)
        assert np.allclose(cosine_rows(big_u, big_v), cosine_rows(u, v), rtol=0, atol=4e-16)
        assert np.all(cosine_rows(big_u, big_u) == 1.0)


class TestPearson:
    def test_exact_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_exact_anti_linear(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        x, y = [1, 2, 4, 8], [1, 3, 3, 9]
        expected = oracles.pearson_oracle(x, y)
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)
        assert pearson(x, y) == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_constant_input(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(InputError):
            pearson([1.0], [2.0])

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            pearson([1, 2], [1, 2, 3])

    @given(
        st.lists(st.floats(-100, 100), min_size=3, max_size=20),
        st.floats(0.01, 100),
        st.floats(-100, 100),
    )
    @settings(max_examples=60)
    def test_positive_affine_invariance(self, x, scale, shift):
        rng = np.random.default_rng(7)
        y = rng.normal(size=len(x)).tolist()
        if max(x) - min(x) < 1e-6:
            return  # spread below this can underflow to zero variance
        base = pearson(x, y)
        mapped = pearson([scale * v + shift for v in x], y)
        assert abs(base - mapped) < 1e-9


class TestSpearman:
    def test_monotone_increasing(self):
        assert spearman([1, 5, 9, 12], [0.1, 0.2, 0.7, 3.0]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3, 4], [10, 8, 6, 4]) == pytest.approx(-1.0)

    def test_tie_case_matches_oracle(self):
        x, y = [1, 1, 2], [1, 2, 3]
        expected = oracles.spearman_oracle(x, y)
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)
        assert spearman(x, y) == pytest.approx(
            scipy.stats.spearmanr(x, y).statistic, abs=1e-12
        )

    def test_average_ranks(self):
        assert average_ranks([10.0, 20.0, 20.0, 30.0]).tolist() == [1.0, 2.5, 2.5, 4.0]
        assert average_ranks([5.0, 5.0, 5.0]).tolist() == [2.0, 2.0, 2.0]

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=30))
    @settings(max_examples=80)
    def test_rank_oracle_agreement(self, values):
        ours = average_ranks([float(v) for v in values])
        ref = oracles.rank_oracle(values)
        assert np.allclose(ours, ref, atol=1e-12)

    def test_average_ranks_short_inputs(self):
        assert average_ranks([]).tobytes() == np.empty(0).tobytes()
        assert average_ranks([float("nan")]).tolist() == [1.0]
        assert average_ranks([-0.0, 0.0, -0.0]).tolist() == [2.0, 2.0, 2.0]
        assert average_ranks([float("nan"), 1.0, float("nan")]).tolist() == [2.0, 1.0, 3.0]

    @given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, float("nan"), 1.0, -2.5]),
                              st.floats(allow_subnormal=True)), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_average_ranks_bitwise_equal_to_loop(self, values):
        # ties, -0.0 beside 0.0, NaN and lengths 0 to 200
        ours = average_ranks(values)
        assert ours.tobytes() == oracles.average_ranks_oracle(values).tobytes()

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=25).tolist()
        y = rng.normal(size=25).tolist()
        base = spearman(x, y)
        assert spearman([np.exp(v) for v in x], y) == base
        assert spearman(x, [v**3 for v in y]) == base

    def test_constant_input(self):
        with pytest.raises(UndefinedCorrelationError):
            spearman([2, 2, 2], [1, 2, 3])


class TestKmeans:
    def test_separable_clouds(self):
        rng = np.random.default_rng(0)
        cloud_a = rng.normal(size=(30, 3)) + 10.0
        cloud_b = rng.normal(size=(30, 3)) - 10.0
        points = np.vstack([cloud_a, cloud_b])
        labels = np.array([0] * 30 + [1] * 30)
        assignments = kmeans(points, 2, seed=1)
        assert purity(assignments, labels) == 1.0

    def test_identical_points_terminate(self):
        points = np.ones((6, 2))
        first = kmeans(points, 2, seed=5)
        second = kmeans(points, 2, seed=5)
        assert np.array_equal(first, second)
        assert set(first) <= {0, 1}

    def test_outlier_instance_matches_brute_force(self):
        # 2 planar blobs of 4 plus a midpoint outlier
        points = np.array(
            [
                [0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [0.1, 0.1],
                [5.0, 5.0], [5.1, 5.0], [5.0, 5.1], [5.1, 5.1],
                [2.5, 2.5],
            ]
        )
        assignments = kmeans(points, 2, seed=2)
        ours = oracles.sse_of_assignment(points, assignments, 2)
        best = oracles.kmeans_brute(points, 2)
        assert ours == pytest.approx(best, abs=1e-9)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(40, 4))
        assert np.array_equal(kmeans(points, 3, seed=7), kmeans(points, 3, seed=7))

    def test_sse_monotone_within_lloyd(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=(50, 3))
        centers = points[rng.choice(50, size=4, replace=False)].copy()
        _, _, history = _lloyd(points, centers)
        assert all(s1 >= s2 - 1e-9 for s1, s2 in zip(history, history[1:]))

    def test_k_larger_than_n(self):
        with pytest.raises(InputError):
            kmeans(np.ones((3, 2)), 4, seed=0)

    def test_k_equals_one(self):
        points = np.random.default_rng(1).normal(size=(10, 2))
        assert set(kmeans(points, 1, seed=0)) == {0}


class TestPurity:
    def test_perfect(self):
        assert purity([0, 0, 1, 1], [5, 5, 7, 7]) == 1.0

    def test_even_mix(self):
        assert purity([0, 0], [0, 1]) == 0.5

    def test_direct_count(self):
        assert purity([0, 0, 1, 1], [0, 1, 1, 1]) == 0.75

    def test_length_mismatch(self):
        with pytest.raises(InputError):
            purity([0, 1], [0, 1, 1])

    def test_no_points(self):
        with pytest.raises(InputError, match="at least one point"):
            purity([], [])

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=12),
        st.integers(0, 10_000),
    )
    @settings(max_examples=80)
    def test_oracle_and_bounds(self, assignments, label_seed):
        rng = np.random.default_rng(label_seed)
        labels = rng.integers(0, 3, size=len(assignments)).tolist()
        value = purity(assignments, labels)
        assert value == pytest.approx(oracles.purity_oracle(assignments, labels), abs=1e-12)
        top_frequency = max(labels.count(l) for l in set(labels)) / len(labels)
        assert value >= top_frequency - 1e-12
        pure = all(
            len({l for a2, l in zip(assignments, labels) if a2 == a}) == 1
            for a in set(assignments)
        )
        assert (value == 1.0) == pure


class TestLinearClassifier:
    def test_separable_blobs(self):
        rng = np.random.default_rng(21)
        x = np.vstack([rng.normal(size=(50, 2)) + 4.0, rng.normal(size=(50, 2)) - 4.0])
        y = np.array([1] * 50 + [0] * 50)
        model = train_linear_classifier(x, y, seed=0)
        assert np.mean(model.predict(x) == y) == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(22)
        x_train = rng.normal(size=(400, 5))
        y_train = rng.integers(0, 2, size=400)
        x_test = rng.normal(size=(400, 5))
        y_test = rng.integers(0, 2, size=400)
        model = train_linear_classifier(x_train, y_train, seed=1)
        accuracy = float(np.mean(model.predict(x_test) == y_test))
        assert 0.40 <= accuracy <= 0.60

    def test_threshold_line_boundary_in_gap(self):
        rng = np.random.default_rng(23)
        values = np.sort(rng.uniform(-5, 5, size=60))
        threshold = 0.7
        gap = 0.4  # keep a visible margin around the threshold
        values = values[np.abs(values - threshold) > gap / 2]
        x = values[:, None]
        y = (values > threshold).astype(int)
        model = train_linear_classifier(x, y, seed=2)
        assert np.array_equal(model.predict(x), y)
        boundary = -model.bias / model.weights[0]
        below = values[values < threshold].max()
        above = values[values > threshold].min()
        assert below < boundary < above

    def test_single_class_rejected(self):
        with pytest.raises(InputError):
            train_linear_classifier(np.ones((4, 2)), np.array([1, 1, 1, 1]), seed=0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="lengths differ: 4 vs 3"):
            train_linear_classifier(np.ones((4, 2)), np.array([0, 1, 1]), seed=0)

    def test_non_binary_labels_rejected(self):
        with pytest.raises(InputError):
            train_linear_classifier(np.ones((3, 2)), np.array([0, 1, 2]), seed=0)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(30, 3))
        y = rng.integers(0, 2, size=30)
        if len(set(y.tolist())) < 2:
            y[0] = 1 - y[0]
        first = train_linear_classifier(x, y, seed=9)
        second = train_linear_classifier(x, y, seed=9)
        assert np.array_equal(first.weights, second.weights)
        assert first.bias == second.bias


# Settings of the step skipping in train_linear_classifier at its extremes.
SKIP_SETTINGS = {
    "default": {},
    "one-step batches": {"_SKIP_CHUNK": 1, "_SKIP_MAX_CHUNK": 1, "_SKIP_MIN_RUN": 0},
    "long batches": {"_SKIP_CHUNK": 1 << 20, "_SKIP_MAX_CHUNK": 1 << 20, "_SKIP_MIN_RUN": 0},
    "plain steps": {"_SKIP_MIN_RUN": 1 << 30, "_SKIP_MAX_WAIT": 1 << 30},
}


@pytest.fixture(scope="module")
def planted_training_sets():
    """(name, embeddings, points, labels) at the paper default: 500 words per
    side, taken from the 2,500 most biased of each, as gbwr_classification
    takes them, on the original and both debiased sets."""
    planted = build_planted(n_neutral=5000, dim=40, seed=8,
                            coefficients=np.repeat([3.0, -3.0], 2500)
                            * np.random.default_rng(8).uniform(0.05, 1.0, 5000))
    original = planted.embeddings
    part = partition(original, list(planted.gender_list))
    lists = select_biased_words(original, part, 2500)
    words = lists.male_biased[:500] + lists.female_biased[:500]
    y = np.repeat([1, 0], 500)
    config = HsrConfig(gender_list=planted.gender_list)
    return [(name, embeddings, _rows(embeddings, words), y)
            for name, embeddings in (("original", original),
                                     ("hsr", hsr_debias(original, config).embeddings),
                                     ("hard", hard_debias(original, config).embeddings))]


def assert_matches_loop(x, y, seed):
    model = train_linear_classifier(x, y, seed)
    weights, bias = oracles.linear_classifier_oracle(x, y, seed)
    assert model.weights.tobytes() == weights.tobytes()
    assert type(model.bias) is float and repr(model.bias) == repr(bias)


class TestClassifierMatchesPerSampleLoop:
    """Skipping the steps found not to update leaves the per-sample loop's bits."""

    @given(st.integers(0, 2**31 - 1), st.integers(2, 60), st.integers(1, 40),
           st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 5), st.integers(0, 5),
           st.sampled_from(sorted(SKIP_SETTINGS)))
    @settings(max_examples=40, deadline=None)
    def test_bitwise_equal_to_oracle(self, seed, n, dim, log_scale, separable, n_copies,
                                     n_zeros, setting):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n)
        y[:2] = (0, 1)
        x = rng.normal(size=(n, dim))
        if separable:
            x += np.outer(np.where(y == 1, 1.0, -1.0), rng.normal(size=dim)) * 3.0
        x *= 10.0 ** log_scale
        x[rng.integers(0, n, size=n_copies)] = x[rng.integers(0, n, size=n_copies)]
        x[rng.integers(0, n, size=n_zeros)] = 0.0
        with pytest.MonkeyPatch.context() as patch:
            for name, value in SKIP_SETTINGS[setting].items():
                patch.setattr(matrix_core, name, value)
            assert_matches_loop(x, y, int(rng.integers(1000)))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 320), st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_batch_margins_round_as_one_step(self, seed, dim, k):
        # The batches rest on this: np.vecdot rounds each row as np.dot does,
        # over the whole matrix and over gathered rows. A margin that rounded
        # otherwise would differ only within round-off of 1, where the tests
        # above rarely land.
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(50, dim)) * 10.0 ** rng.uniform(-3, 3, size=(50, 1))
        v = rng.normal(size=dim)
        picked = rng.integers(0, 50, size=k)
        expected = np.array([np.dot(v, rows[i]) for i in picked]).tobytes()
        assert np.vecdot(np.take(rows, picked, axis=0), v).tobytes() == expected
        assert np.vecdot(rows, v)[picked].tobytes() == expected

    @pytest.mark.parametrize("layout", ["fortran", "strided"])
    def test_non_contiguous_points(self, layout):
        # every step reads a row of one C-contiguous copy, as the loop does
        rng = np.random.default_rng(5)
        y = np.repeat([1, 0], 20)
        x = rng.normal(size=(40, 16)) + np.where(y == 1, 2.0, -2.0)[:, None]
        x = np.asfortranarray(x[:, :8]) if layout == "fortran" else x[:, ::2]
        assert_matches_loop(x, y, 3)

    def test_planted_training_sets_at_paper_default(self, monkeypatch, planted_training_sets):
        one_at_a_time = []
        real_plain_steps = matrix_core._plain_steps

        def counting_plain_steps(v, b, start, stop, *rest):
            one_at_a_time.append(stop - start)
            return real_plain_steps(v, b, start, stop, *rest)

        monkeypatch.setattr(matrix_core, "_plain_steps", counting_plain_steps)
        for name, _, x, y in planted_training_sets:
            one_at_a_time.clear()
            assert_matches_loop(x, y, 43)
            if name == "original":  # separable with a wide margin: nearly every step skipped
                assert sum(one_at_a_time) < 0.01 * 200 * 1000


class TestClassifierMatchesShrinkingLoop:
    """Multiplying the shrink factors out moves only round-off."""

    def test_planted_training_sets_at_paper_default(self, planted_training_sets):
        for _, embeddings, x, y in planted_training_sets:
            model = train_linear_classifier(x, y, 43)
            weights, bias = oracles.shrinking_classifier_oracle(x, y, 43)
            shrinking = LinearClassifier(weights, bias)
            for points in (x, embeddings.vectors):
                assert np.array_equal(model.predict(points), shrinking.predict(points))
            error = np.append(model.weights - weights, model.bias - bias)
            assert np.linalg.norm(error) <= 1e-12 * np.linalg.norm(np.append(weights, bias))


class TestExactCosineRows:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 40))
    @settings(max_examples=100)
    def test_matches_fsum_oracle_bitwise(self, seed, dim):
        rng = np.random.default_rng(seed)
        u = np.round(rng.normal(size=(6, dim)), 1)
        v = np.round(rng.normal(size=(6, dim)), 1)
        u[0] = 0.0
        v[1] = -u[1]
        expected = [min(1.0, max(-1.0, oracles.cosine_oracle(a, b))) for a, b in zip(u, v)]
        assert exact_cosine_rows(u, v).tolist() == expected

    def test_exact_zero_dot_product(self):
        u = np.array([[0.1, 0.6, 0.0]])
        v = np.array([[0.6, -0.1, 3.0]])
        assert exact_cosine_rows(u, v)[0] == 0.0
