"""Half-sibling ridge debiasing and the hard-projection baseline."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_planted
from fairvec import (
    ConfigError,
    EmbeddingSet,
    HsrConfig,
    InputError,
    NumericalError,
    approximate_gender_info,
    cosine_similarity,
    hard_debias,
    hsr_debias,
    partition,
    solve_ridge,
)

GRID = tuple(float(a) for a in np.logspace(-1, 4, 12))


def neutral_rows(result, planted):
    part = partition(result.embeddings, list(planted.gender_list))
    return result.embeddings.vectors[part.neutral_indices]


class TestApproximateGenderInfo:
    def test_perfect_predictor_column(self):
        rng = np.random.default_rng(30)
        v_d = rng.normal(size=(12, 4))
        v_n = np.column_stack([v_d[:, 2], rng.normal(size=12)])
        fitted = approximate_gender_info(v_d, v_n, 0.0)
        assert np.max(np.abs(fitted[:, 0] - v_d[:, 2])) < 1e-8

    def test_huge_alpha_limit(self):
        rng = np.random.default_rng(31)
        v_d = rng.normal(size=(20, 5))
        v_n = rng.normal(size=(20, 8))
        assert np.linalg.norm(approximate_gender_info(v_d, v_n, 1e12)) < 1e-6

    def test_planted_component_recovered(self):
        # V_N = S + V_D C with S orthogonal to col(V_D): the alpha=0 fit is V_D C
        rng = np.random.default_rng(32)
        v_d = rng.normal(size=(300, 5))
        c = rng.normal(size=(5, 7))
        q, _ = np.linalg.qr(v_d)
        raw = rng.normal(size=(300, 7))
        s = raw - q @ (q.T @ raw)
        fitted = approximate_gender_info(v_d, s + v_d @ c, 0.0)
        assert np.max(np.abs(fitted - v_d @ c)) < 1e-6

    def test_columns_stay_in_span(self):
        rng = np.random.default_rng(33)
        v_d = rng.normal(size=(40, 6))
        v_n = rng.normal(size=(40, 9))
        fitted = approximate_gender_info(v_d, v_n, 2.5)
        q, _ = np.linalg.qr(v_d)
        outside = fitted - q @ (q.T @ fitted)
        assert np.max(np.abs(outside)) < 1e-9


class TestShrinkageOperator:
    @given(st.integers(1, 8), st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**31 - 1),
           st.floats(1e-2, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_matches_ridge_solution(self, d, m, n, seed, alpha):
        rng = np.random.default_rng(seed)
        v_d = rng.normal(size=(d, m))
        v_n = rng.normal(size=(d, n))
        expected = v_d @ solve_ridge(v_d, v_n, alpha).weights
        # The Cholesky route loses up to cond(V_d^T V_d + alpha I) * eps.
        s_max = np.linalg.norm(v_d, 2)
        tol = 1e-13 * (1.0 + s_max**2 / alpha) * max(1.0, np.abs(v_n).max())
        assert np.max(np.abs(approximate_gender_info(v_d, v_n, alpha) - expected)) <= tol

    def test_alpha_zero_more_definition_words_than_dims(self):
        # 120 definition vectors in 50 dims span everything: the fit is v_n itself.
        rng = np.random.default_rng(40)
        v_d = rng.normal(size=(50, 120))
        v_n = rng.normal(size=(50, 30))
        assert np.max(np.abs(approximate_gender_info(v_d, v_n, 0.0) - v_n)) < 1e-12
        with pytest.raises(NumericalError):
            solve_ridge(v_d, v_n, 0.0)

    def test_alpha_zero_rank_deficient_is_projection(self):
        # 120 definition vectors inside a 10-dim subspace of 50 dims.
        rng = np.random.default_rng(41)
        q, _ = np.linalg.qr(rng.normal(size=(50, 10)))
        v_d = q @ rng.normal(size=(10, 120))
        v_n = rng.normal(size=(50, 30))
        fitted = approximate_gender_info(v_d, v_n, 0.0)
        assert np.max(np.abs(fitted - q @ (q.T @ v_n))) < 1e-12

    def test_hsr_alpha_zero_rank_deficient_does_not_raise(self):
        rng = np.random.default_rng(42)
        q, _ = np.linalg.qr(rng.normal(size=(50, 10)))
        vectors = np.vstack([(q @ rng.normal(size=(10, 120))).T, rng.normal(size=(30, 50))])
        words = tuple(f"d{i}" for i in range(120)) + tuple(f"w{i}" for i in range(30))
        embeddings = EmbeddingSet(words=words, vectors=vectors)
        result = hsr_debias(embeddings, HsrConfig(gender_list=words[:120], alpha=0.0))
        neutral = vectors[120:]
        expected = neutral - (neutral @ q) @ q.T
        assert np.max(np.abs(result.embeddings.vectors[120:] - expected)) < 1e-12
        assert np.max(np.abs(result.embeddings.vectors[120:] @ q)) < 1e-12

    def test_memoized_fit_gives_identical_results(self, planted):
        config = HsrConfig(planted.gender_list, alpha=60.0)
        fresh = [EmbeddingSet(planted.embeddings.words, planted.embeddings.vectors)
                 for _ in range(2)]
        first = [hsr_debias(fresh[0], config), hard_debias(fresh[1], config)]
        for alpha in GRID:
            hsr_debias(planted.embeddings, HsrConfig(planted.gender_list, alpha))
        again = [hsr_debias(planted.embeddings, config), hard_debias(planted.embeddings, config)]
        for one, other in zip(first, again):
            assert np.array_equal(one.embeddings.vectors, other.embeddings.vectors)
            assert one.gender_norm == other.gender_norm
            assert one.config == other.config

    def test_gender_lists_do_not_share_a_fit(self, planted):
        shorter = planted.gender_list[:3]
        config = HsrConfig(shorter, alpha=1.0)
        expected = hsr_debias(EmbeddingSet(planted.embeddings.words, planted.embeddings.vectors),
                              config)
        full = hsr_debias(planted.embeddings, HsrConfig(planted.gender_list, alpha=1.0))
        result = hsr_debias(planted.embeddings, config)
        assert np.array_equal(result.embeddings.vectors, expected.embeddings.vectors)
        assert not np.array_equal(result.embeddings.vectors, full.embeddings.vectors)
        assert result.config["gender_words_in_vocab"] == 3

    def test_gender_norm_non_increasing_on_grid_and_hard_idempotent(self, planted):
        norms = [hsr_debias(planted.embeddings, HsrConfig(planted.gender_list, alpha)).gender_norm
                 for alpha in GRID]
        assert all(n1 >= n2 for n1, n2 in zip(norms, norms[1:]))
        config = HsrConfig(planted.gender_list)
        once = hard_debias(planted.embeddings, config)
        twice = hard_debias(once.embeddings, config)
        assert np.array_equal(once.embeddings.vectors, twice.embeddings.vectors)
        assert twice.gender_norm == 0.0

    def test_input_checks(self):
        with pytest.raises(InputError):
            approximate_gender_info(np.ones((3, 2)), np.ones((4, 2)), 1.0)
        with pytest.raises(InputError):
            approximate_gender_info(np.ones((3, 2)), np.ones((3, 2)), -1.0)
        with pytest.raises(InputError):
            approximate_gender_info(np.full((3, 2), np.nan), np.ones((3, 2)), 1.0)


class TestHsrDebias:
    def test_huge_alpha_is_noop(self, planted):
        config = HsrConfig(gender_list=planted.gender_list, alpha=1e12)
        result = hsr_debias(planted.embeddings, config)
        assert np.max(np.abs(result.embeddings.vectors - planted.embeddings.vectors)) < 1e-6

    def test_planted_bias_removed_at_alpha_zero(self, planted):
        config = HsrConfig(gender_list=planted.gender_list, alpha=0.0)
        result = hsr_debias(planted.embeddings, config)
        for row in neutral_rows(result, planted):
            assert abs(cosine_similarity(row, planted.g)) < 1e-6

    def test_vocabulary_and_dim_preserved(self, planted):
        result = hsr_debias(planted.embeddings, HsrConfig(gender_list=planted.gender_list))
        assert result.embeddings.words == planted.embeddings.words
        assert result.embeddings.dim == planted.embeddings.dim
        assert result.method == "hsr"

    @pytest.mark.parametrize("method", [hsr_debias, hard_debias])
    def test_result_reuses_the_source_word_index(self, planted, method):
        # the words are unchanged, so the validated index is shared, not rebuilt
        result = method(planted.embeddings, HsrConfig(gender_list=planted.gender_list))
        assert result.embeddings._index is planted.embeddings._index
        assert result.embeddings._index == {
            word: i for i, word in enumerate(result.embeddings.words)}
        assert not result.embeddings.vectors.flags.writeable
        with pytest.raises(InputError, match="duplicate"):
            EmbeddingSet(words=("m0", "m0"), vectors=result.embeddings.vectors[:2])

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 60.0])
    def test_definition_rows_bitwise_unchanged(self, planted, alpha):
        config = HsrConfig(gender_list=planted.gender_list, alpha=alpha)
        result = hsr_debias(planted.embeddings, config)
        part = partition(planted.embeddings, list(planted.gender_list))
        before = planted.embeddings.vectors[part.definition_indices]
        after = result.embeddings.vectors[part.definition_indices]
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 60.0])
    def test_decomposition_identity(self, planted, alpha):
        part = partition(planted.embeddings, list(planted.gender_list))
        v_d = planted.embeddings.vectors[part.definition_indices].T
        v_n = planted.embeddings.vectors[part.neutral_indices].T
        fitted = approximate_gender_info(v_d, v_n, alpha)
        result = hsr_debias(planted.embeddings, HsrConfig(planted.gender_list, alpha))
        debiased = result.embeddings.vectors[part.neutral_indices].T
        scale = max(1.0, float(np.abs(v_n).max()))
        assert np.max(np.abs(v_n - (debiased + fitted))) <= 1e-10 * scale

    def test_idempotent_at_alpha_zero(self, planted):
        config = HsrConfig(gender_list=planted.gender_list, alpha=0.0)
        once = hsr_debias(planted.embeddings, config)
        twice = hsr_debias(once.embeddings, config)
        assert np.max(np.abs(twice.embeddings.vectors - once.embeddings.vectors)) < 1e-8

    def test_gender_norm_monotone_in_alpha(self, planted):
        norms = [
            hsr_debias(planted.embeddings, HsrConfig(planted.gender_list, alpha)).gender_norm
            for alpha in (0.0, 1.0, 60.0, 1e3, 1e6)
        ]
        assert all(n1 >= n2 for n1, n2 in zip(norms, norms[1:]))

    def test_empty_definition_side(self):
        embeddings = EmbeddingSet(words=("x", "y"), vectors=np.eye(2))
        with pytest.raises(ConfigError):
            hsr_debias(embeddings, HsrConfig(gender_list=("he", "she")))

    def test_missing_words_counted(self, planted):
        config = HsrConfig(gender_list=planted.gender_list + ("notaword",))
        result = hsr_debias(planted.embeddings, config)
        assert result.config["gender_words_missing"] == 1

    @pytest.mark.parametrize("method", [hsr_debias, hard_debias])
    def test_missing_words_named(self, planted, method):
        config = HsrConfig(gender_list=("zz",) + planted.gender_list + ("notaword",))
        result = method(planted.embeddings, config)
        assert result.config["gender_words_missing_names"] == ["zz", "notaword"]

    def test_fit_does_not_keep_the_set_alive(self):
        planted = build_planted(n_neutral=20, dim=6, n_definition=3, seed=8)
        embeddings = EmbeddingSet(planted.embeddings.words, planted.embeddings.vectors)
        result = hsr_debias(embeddings, HsrConfig(planted.gender_list))
        alive = weakref.ref(embeddings)
        del embeddings
        gc.collect()
        assert alive() is None
        assert result.embeddings.words == planted.embeddings.words

    def test_config_validation(self):
        with pytest.raises(InputError):
            HsrConfig(gender_list=("he",), alpha=-1.0)
        with pytest.raises(ConfigError):
            HsrConfig(gender_list=())


class TestHardDebias:
    def test_zero_projection(self, planted):
        result = hard_debias(planted.embeddings, HsrConfig(planted.gender_list))
        direction = planted.embeddings.vector("he") - planted.embeddings.vector("she")
        projections = neutral_rows(result, planted) @ direction
        assert np.max(np.abs(projections)) < 1e-10

    def test_orthogonal_vector_untouched(self):
        vectors = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 2.0],  # orthogonal to he - she = (1, -1, 0)
            ]
        )
        embeddings = EmbeddingSet(words=("he", "she", "w"), vectors=vectors)
        result = hard_debias(embeddings, HsrConfig(gender_list=("he", "she")))
        assert np.array_equal(result.embeddings.vector("w"), vectors[2])

    def test_direction_vector_maps_to_zero(self):
        direction = np.array([1.0, -1.0, 0.0])
        vectors = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], direction])
        embeddings = EmbeddingSet(words=("he", "she", "w"), vectors=vectors)
        result = hard_debias(embeddings, HsrConfig(gender_list=("he", "she")))
        assert np.max(np.abs(result.embeddings.vector("w"))) < 1e-12

    def test_exactly_idempotent(self, planted):
        config = HsrConfig(gender_list=planted.gender_list)
        once = hard_debias(planted.embeddings, config)
        twice = hard_debias(once.embeddings, config)
        assert np.array_equal(once.embeddings.vectors, twice.embeddings.vectors)

    def test_definition_rows_unchanged(self, planted):
        result = hard_debias(planted.embeddings, HsrConfig(planted.gender_list))
        part = partition(planted.embeddings, list(planted.gender_list))
        assert np.array_equal(
            planted.embeddings.vectors[part.definition_indices],
            result.embeddings.vectors[part.definition_indices],
        )

    def test_missing_he_she(self):
        embeddings = EmbeddingSet(words=("man", "woman"), vectors=np.eye(2))
        with pytest.raises(ConfigError, match="he"):
            hard_debias(embeddings, HsrConfig(gender_list=("man", "woman")))

    def test_coinciding_he_she(self):
        vectors = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        embeddings = EmbeddingSet(words=("he", "she", "w"), vectors=vectors)
        with pytest.raises(ConfigError, match="coincide"):
            hard_debias(embeddings, HsrConfig(gender_list=("he", "she")))


class TestPlantedConstruction:
    def test_g_is_he_minus_she(self, planted):
        he_she = planted.embeddings.vector("he") - planted.embeddings.vector("she")
        assert np.allclose(he_she, planted.g, atol=1e-12)

    def test_semantic_parts_orthogonal_to_definition_span(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        v_d = planted.embeddings.vectors[part.definition_indices].T
        residual = v_d.T @ planted.semantic.T
        assert np.max(np.abs(residual)) < 1e-10

    def test_scales(self):
        big = build_planted(n_neutral=2000, dim=50, n_definition=10, seed=4)
        assert len(big.embeddings) == 2010
        assert big.embeddings.dim == 50
