"""Direction- and relation-based bias measurements against oracles."""

from __future__ import annotations

import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_planted
from fairvec import (
    BiasedWordLists,
    EmbeddingSet,
    InputError,
    ParseError,
    SemBiasInstance,
    UndefinedCorrelationError,
    WeatSpec,
    bias_by_neighbors,
    bias_by_projection,
    gbwr_classification,
    gbwr_clustering,
    gbwr_correlation,
    gbwr_profession,
    load_sembias,
    load_weat_spec,
    mean_abs_projection_bias,
    partition,
    select_biased_words,
    sembias_eval,
    weat_test,
)
from fairvec import bias_metrics
from fairvec.bias_metrics import WEAT_SAMPLES, _projections
from fairvec.matrix_core import cosine_rows


def embedding_from(words, vectors) -> EmbeddingSet:
    return EmbeddingSet(words=tuple(words), vectors=np.asarray(vectors, dtype=np.float64))


class TestBiasByProjection:
    def test_orthogonal_zero_both_modes(self):
        embeddings = embedding_from(
            ["he", "she", "w"],
            [[1, 0, 0], [0, 1, 0], [0, 0, 5]],
        )
        assert bias_by_projection(embeddings, "w") == 0.0
        assert bias_by_projection(embeddings, "w", normalized=True) == 0.0

    def test_self_projection(self):
        embeddings = embedding_from(
            ["he", "she", "w"],
            [[2, 0, 0], [0, 1, 0], [2, -1, 0]],  # w = he - she
        )
        direction_sq = 2.0**2 + 1.0**2
        assert bias_by_projection(embeddings, "w") == pytest.approx(direction_sq)
        assert bias_by_projection(embeddings, "w", normalized=True) == pytest.approx(1.0)

    def test_missing_token(self, tiny):
        with pytest.raises(InputError):
            bias_by_projection(tiny, "nope")


class _NoIteration(np.ndarray):
    def __iter__(self):
        raise AssertionError("rows were read element by element")


class TestProjections:
    @pytest.mark.parametrize("normalized", [False, True])
    def test_index_array_read_whole(self, normalized):
        rng = np.random.default_rng(15)
        words = ("he", "she") + tuple(f"w{i}" for i in range(40))
        embeddings = embedding_from(words, rng.normal(size=(42, 5)))
        rows = rng.integers(0, 42, size=30)
        expected = _projections(embeddings, rows.tolist(), normalized)
        ours = _projections(embeddings, rows.view(_NoIteration), normalized)
        assert ours.tobytes() == expected.tobytes()
        assert _projections(embeddings, iter(rows.tolist()), normalized).tobytes() == \
            expected.tobytes()


class TestMeanAbsProjectionBias:
    def test_orthogonal_lists_zero(self):
        embeddings = embedding_from(
            ["he", "she", "a", "b"],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -2]],
        )
        lists = BiasedWordLists(male_biased=("a",), female_biased=("b",))
        assert mean_abs_projection_bias(embeddings, lists) == 0.0

    def test_hand_summed_mean(self):
        embeddings = embedding_from(
            ["he", "she", "a", "b", "c", "d"],
            [
                [1, 0], [0, 1],          # direction (1, -1)
                [2, 0], [0, 3], [1, 1], [-1, 2],
            ],
        )
        lists = BiasedWordLists(male_biased=("a", "c"), female_biased=("b", "d"))
        expected = (abs(2.0) + abs(-3.0) + abs(0.0) + abs(-3.0)) / 4.0
        assert mean_abs_projection_bias(embeddings, lists) == pytest.approx(expected)

    def test_missing_words_skipped(self):
        embeddings = embedding_from(
            ["he", "she", "a"], [[1, 0], [0, 1], [2, 0]]
        )
        lists = BiasedWordLists(male_biased=("a", "ghost"), female_biased=("ghost2",))
        assert mean_abs_projection_bias(embeddings, lists) == pytest.approx(2.0)

    def test_all_missing(self, tiny):
        lists = BiasedWordLists(male_biased=("ghost",), female_biased=("ghost2",))
        with pytest.raises(InputError):
            mean_abs_projection_bias(tiny, lists)

    def test_overlapping_lists_rejected(self):
        with pytest.raises(InputError):
            BiasedWordLists(male_biased=("a",), female_biased=("a",))


class TestSelectBiasedWords:
    def test_memory_does_not_grow_with_rows(self):
        # Projections gather and reduce fixed blocks of rows, so the traced
        # peak is about one block (2.4 MB at 300 dims) plus a few values per
        # row; gathering every neutral row at once takes 9.6 MB at 4,000 rows
        # and four times that at 16,000.
        rng = np.random.default_rng(13)
        for n_rows in (4000, 16000):
            words = ("he", "she") + tuple(f"w{i}" for i in range(n_rows - 2))
            embeddings = embedding_from(words, rng.normal(size=(n_rows, 300)))
            part = partition(embeddings, ["he", "she"])
            tracemalloc.start()
            try:
                lists = select_biased_words(embeddings, part, 10)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(lists.all_words()) == 20
            assert peak < 4 * 2**20, (n_rows, peak)

    def test_signs_split(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 5)
        assert all(w.startswith("m") for w in lists.male_biased)
        assert all(w.startswith("f") for w in lists.female_biased)

    def test_n_too_large(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        with pytest.raises(InputError):
            select_biased_words(planted.embeddings, part, 10_000)

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(40)
        words = ["he", "she"] + [f"w{i}" for i in range(20)]
        vectors = rng.normal(size=(22, 5))
        embeddings = embedding_from(words, vectors)
        part = partition(embeddings, ["he", "she"])
        lists = select_biased_words(embeddings, part, 3)

        direction = vectors[0] - vectors[1]
        scored = sorted(
            ((float(vectors[i] @ direction), i) for i in part.neutral_indices),
            key=lambda t: (-t[0], t[1]),
        )
        assert list(lists.male_biased) == [words[i] for _, i in scored[:3]]
        scored_neg = sorted(
            ((float(vectors[i] @ direction), i) for i in part.neutral_indices),
            key=lambda t: (t[0], t[1]),
        )
        assert list(lists.female_biased) == [words[i] for _, i in scored_neg[:3]]

    def test_tie_break_by_vocab_index(self):
        embeddings = embedding_from(
            ["he", "she", "a", "b", "c", "d"],
            [
                [1, 0, 0], [0, 1, 0],
                [3, 0, 1], [3, 0, 2],      # identical projections, a before b
                [-3, 0, 1], [-3, 0, 2],
            ],
        )
        part = partition(embeddings, ["he", "she"])
        lists = select_biased_words(embeddings, part, 1)
        assert lists.male_biased == ("a",)
        assert lists.female_biased == ("c",)

    def test_zero_projection_words_on_neither_side(self):
        embeddings = embedding_from(
            ["he", "she", "a", "b", "z"],
            [[1, 0], [0, 1], [2, 0], [-2, 0], [0, 0]],
        )
        part = partition(embeddings, ["he", "she"])
        with pytest.raises(InputError):
            select_biased_words(embeddings, part, 2)  # only 1 word per side qualifies


def sembias_fixture():
    # direction he - she = e0 - e1; definition pair diff equals it exactly
    dim = 6
    he = np.zeros(dim); he[0] = 1.0
    she = np.zeros(dim); she[1] = 1.0
    rng = np.random.default_rng(41)
    words = {"he": he, "she": she}

    def add_pair(a, b, diff):
        t = rng.normal(size=dim)
        t[0] = t[1] = 0.0
        words[a] = t + diff
        words[b] = t

    add_pair("kingly", "queenly", he - she)
    e2 = np.zeros(dim); e2[2] = 1.0
    e3 = np.zeros(dim); e3[3] = 1.0
    e4 = np.zeros(dim); e4[4] = 1.0
    add_pair("b1", "b2", e2)
    add_pair("o1", "o2", e3)
    add_pair("o3", "o4", e4)
    names = list(words)
    return embedding_from(names, [words[w] for w in names])


class TestSemBias:
    def test_aligned_definition_pair_correct(self):
        embeddings = sembias_fixture()
        instance = SemBiasInstance(pairs=(
            ("kingly", "queenly", "definition"),
            ("b1", "b2", "biased"),
            ("o1", "o2", "other"),
            ("o3", "o4", "other"),
        ))
        accuracy, used, skipped = sembias_eval(embeddings, [instance])
        assert (accuracy, used, skipped) == (1.0, 1, 0)

    def test_tie_takes_first_pair(self):
        embeddings = sembias_fixture()
        orthogonal = (
            ("b1", "b2", "biased"),
            ("o1", "o2", "other"),
            ("o3", "o4", "other"),
        )
        first_is_definition = SemBiasInstance(
            pairs=(("b1", "b2", "definition"),) + orthogonal[1:] + (("o3", "o4", "other"),)
        )
        # all pair differences are orthogonal to the direction, so cosines tie
        # at zero and the first pair is predicted
        accuracy, _, _ = sembias_eval(embeddings, [first_is_definition])
        assert accuracy == 1.0
        last_is_definition = SemBiasInstance(
            pairs=orthogonal + (("o3", "o4", "definition"),)
        )
        assert last_is_definition.definition_index() == 3
        accuracy, _, _ = sembias_eval(embeddings, [last_is_definition])
        assert accuracy == 0.0

    def test_oov_instances_skipped(self):
        embeddings = sembias_fixture()
        good = SemBiasInstance(pairs=(
            ("kingly", "queenly", "definition"),
            ("b1", "b2", "biased"),
            ("o1", "o2", "other"),
            ("o3", "o4", "other"),
        ))
        bad = SemBiasInstance(pairs=(
            ("ghost", "queenly", "definition"),
            ("b1", "b2", "biased"),
            ("o1", "o2", "other"),
            ("o3", "o4", "other"),
        ))
        accuracy, used, skipped = sembias_eval(embeddings, [good, bad])
        assert (accuracy, used, skipped) == (1.0, 1, 1)

    def test_all_instances_oov(self):
        embeddings = sembias_fixture()
        bad = SemBiasInstance(pairs=(
            ("ghost", "queenly", "definition"),
            ("b1", "b2", "biased"),
            ("o1", "o2", "other"),
            ("o3", "o4", "other"),
        ))
        with pytest.raises(InputError):
            sembias_eval(embeddings, [bad])

    def test_scale_invariance(self):
        embeddings = sembias_fixture()
        scaled = EmbeddingSet(words=embeddings.words, vectors=embeddings.vectors * 3.7)
        instance = SemBiasInstance(pairs=(
            ("kingly", "queenly", "definition"),
            ("b1", "b2", "biased"),
            ("o1", "o2", "other"),
            ("o3", "o4", "other"),
        ))
        assert sembias_eval(embeddings, [instance]) == sembias_eval(scaled, [instance])

    def test_exactly_one_definition_required(self):
        with pytest.raises(InputError):
            SemBiasInstance(pairs=(
                ("a", "b", "biased"),
                ("c", "d", "other"),
                ("e", "f", "other"),
                ("g", "h", "other"),
            ))


class TestClusteringMetric:
    def test_planted_clusters_pure(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 50)
        assert gbwr_clustering(planted.embeddings, lists, seed=3) == 1.0

    def test_identical_vectors_half_pure(self):
        vectors = np.ones((6, 3))
        vectors[0] = [1, 0, 0]
        vectors[1] = [0, 1, 0]
        embeddings = embedding_from(["he", "she", "a", "b", "c", "d"], vectors)
        lists = BiasedWordLists(male_biased=("a", "b"), female_biased=("c", "d"))
        assert gbwr_clustering(embeddings, lists, seed=1) == 0.5


class TestBiasByNeighbors:
    def test_all_male_neighbors(self):
        base = np.zeros(4); base[0] = 1.0
        far = np.zeros(4); far[1] = 1.0
        vectors = [base, far, base + 0.01, base + 0.02, far + 0.01, far + 0.02, base]
        embeddings = embedding_from(["he", "she", "m0", "m1", "f0", "f1", "w"], vectors)
        lists = BiasedWordLists(male_biased=("m0", "m1"), female_biased=("f0", "f1"))
        assert bias_by_neighbors(embeddings, "w", lists, k=2) == 1.0

    def test_symmetric_neighbors_half(self):
        u = np.array([1.0, 1.0, 0.0])
        other = np.array([0.0, 0.0, 1.0])
        vectors = [u * 2, other, u, u, u, u, u * 3]
        embeddings = embedding_from(["he", "she", "m0", "m1", "f0", "f1", "w"], vectors)
        lists = BiasedWordLists(male_biased=("m0", "m1"), female_biased=("f0", "f1"))
        assert bias_by_neighbors(embeddings, "w", lists, k=4) == 0.5

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(42)
        words = ["he", "she"] + [f"p{i}" for i in range(12)]
        vectors = rng.normal(size=(14, 5))
        embeddings = embedding_from(words, vectors)
        lists = BiasedWordLists(
            male_biased=tuple(f"p{i}" for i in range(6)),
            female_biased=tuple(f"p{i}" for i in range(6, 12)),
        )
        for word in ("p0", "p7"):
            query = embeddings.index(word)
            pool = [embeddings.index(w) for w in lists.all_words()]
            expected_ids = oracles.neighbors_oracle(vectors, query, 4, pool)
            expected = sum(words[i].startswith("p") and int(words[i][1:]) < 6
                           for i in expected_ids) / 4
            assert bias_by_neighbors(embeddings, word, lists, k=4) == expected

    def test_male_female_fractions_sum_to_one(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 20)
        swapped = BiasedWordLists(
            male_biased=lists.female_biased, female_biased=lists.male_biased
        )
        for word in ("m0", "f3"):
            male = bias_by_neighbors(planted.embeddings, word, lists, k=7)
            female = bias_by_neighbors(planted.embeddings, word, swapped, k=7)
            assert male + female == 1.0

    def test_pool_smaller_than_k(self):
        embeddings = embedding_from(
            ["he", "she", "a", "b"], np.eye(4)
        )
        lists = BiasedWordLists(male_biased=("a",), female_biased=("b",))
        with pytest.raises(InputError):
            bias_by_neighbors(embeddings, "a", lists, k=2)  # pool minus self is 1


class TestCorrelationMetric:
    def test_planted_bias_strongly_correlated(self):
        planted = build_planted(
            n_neutral=120, dim=20, seed=43,
            coefficients=np.concatenate([
                np.linspace(1.0, 3.0, 60), -np.linspace(1.0, 3.0, 60)
            ]),
        )
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 60)
        value = gbwr_correlation(planted.embeddings, lists, planted.embeddings, k=20)
        assert value > 0.9

    def test_constant_neighbor_fractions(self):
        vectors = np.ones((8, 3))
        vectors[0] = [1, 0, 0]
        vectors[1] = [0, 1, 0]
        # all listed words share one vector: neighbor sets follow vocabulary
        # order, so the male fraction is constant across words
        embeddings = embedding_from(
            ["he", "she", "m0", "m1", "m2", "f0", "f1", "f2"], vectors
        )
        lists = BiasedWordLists(
            male_biased=("m0", "m1", "m2"), female_biased=("f0", "f1", "f2")
        )
        with pytest.raises(UndefinedCorrelationError):
            gbwr_correlation(embeddings, lists, embeddings, k=2)


class TestProfessionMetric:
    def test_planted_professions_track_bias(self):
        planted = build_planted(
            n_neutral=120, dim=20, seed=44,
            coefficients=np.concatenate([
                np.linspace(0.5, 3.0, 60), -np.linspace(0.5, 3.0, 60)
            ]),
        )
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 40)
        professions = [f"m{i}" for i in range(40, 60)] + [f"f{i}" for i in range(40, 60)]
        correlation, points = gbwr_profession(
            planted.embeddings, professions, lists, planted.embeddings, k=20
        )
        assert correlation > 0.9
        assert len(points) == 40

    def test_unbiased_professions_balanced_counts(self):
        planted = build_planted(n_neutral=60, dim=20, seed=45)
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 30)

        rng = np.random.default_rng(46)
        extra_words = tuple(f"job{i}" for i in range(30))
        q, _ = np.linalg.qr(
            planted.embeddings.vectors[part.definition_indices].T
        )
        raw = rng.normal(size=(20, 30))
        jobs = (raw - q @ (q.T @ raw)).T
        embeddings = EmbeddingSet(
            words=planted.embeddings.words + extra_words,
            vectors=np.vstack([planted.embeddings.vectors, jobs]),
        )
        correlation, points = gbwr_profession(
            embeddings, list(extra_words), lists, embeddings, k=20
        )
        counts = [count for _, count, _ in points]
        assert abs(np.mean(counts) - 10.0) < 3.0  # near k/2
        assert abs(correlation) < 0.4

    def test_oov_professions_skipped(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 20)
        correlation, points = gbwr_profession(
            planted.embeddings, ["m0", "f0", "ghost"], lists, planted.embeddings, k=5
        )
        assert len(points) == 2

    def test_too_few_usable(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 20)
        with pytest.raises(InputError):
            gbwr_profession(planted.embeddings, ["ghost"], lists, planted.embeddings, k=5)


def weat_fixture(seed=47, n_targets=3):
    rng = np.random.default_rng(seed)
    male_axis = np.array([1.0, 0.0, 0.0, 0.0])
    female_axis = np.array([0.0, 1.0, 0.0, 0.0])
    words = {}
    for i in range(n_targets):
        words[f"x{i}"] = male_axis + 0.2 * rng.normal(size=4)
        words[f"y{i}"] = female_axis + 0.2 * rng.normal(size=4)
    for i in range(2):
        words[f"a{i}"] = male_axis + 0.1 * rng.normal(size=4)
        words[f"b{i}"] = female_axis + 0.1 * rng.normal(size=4)
    names = list(words)
    embeddings = embedding_from(names, [words[w] for w in names])
    spec = WeatSpec(
        targets_x=tuple(f"x{i}" for i in range(n_targets)),
        targets_y=tuple(f"y{i}" for i in range(n_targets)),
        attributes_a=("a0", "a1"),
        attributes_b=("b0", "b1"),
        name="fixture",
    )
    return embeddings, spec


class TestWeat:
    def test_identical_attribute_sets(self):
        embeddings, _ = weat_fixture()
        spec = WeatSpec(
            targets_x=("x0", "x1"), targets_y=("y0", "y1"),
            attributes_a=("a0", "a1"), attributes_b=("a0", "a1"),
        )
        statistic, p_value = weat_test(embeddings, spec, seed=0)
        assert statistic == 0.0
        assert p_value >= 0.5

    @pytest.mark.parametrize("n_targets", [2, 3])
    def test_exact_enumeration_matches_oracle(self, n_targets):
        embeddings, spec = weat_fixture(n_targets=n_targets)
        statistic, p_value = weat_test(embeddings, spec, seed=0)

        by_word = {w: embeddings.vector(w) for w in embeddings.words}
        s = oracles.weat_associations(
            by_word, list(spec.targets_x) + list(spec.targets_y),
            spec.attributes_a, spec.attributes_b,
        )
        ref_stat, ref_p = oracles.weat_exact(s, n_targets)
        assert statistic == pytest.approx(ref_stat, abs=1e-12)
        assert p_value == pytest.approx(ref_p, abs=1e-12)

    def test_sampled_close_to_exact(self):
        embeddings, spec = weat_fixture(n_targets=3)
        _, exact_p = weat_test(embeddings, spec, seed=0)
        _, sampled_p = weat_test(embeddings, spec, seed=0, exact_limit=0)
        assert abs(exact_p - sampled_p) <= 0.02

    def test_statistic_antisymmetry_exact(self):
        embeddings, spec = weat_fixture()
        statistic, _ = weat_test(embeddings, spec, seed=0)
        swapped_statistic, _ = weat_test(embeddings, spec.swapped(), seed=0)
        assert swapped_statistic == -statistic

    def test_p_value_in_half_open_unit_interval(self):
        embeddings, spec = weat_fixture()
        for seed in (0, 1, 2):
            _, p = weat_test(embeddings, spec, seed=seed, exact_limit=0)
            assert 0.0 < p <= 1.0

    def test_oov_token_named(self):
        embeddings, spec = weat_fixture()
        bad = WeatSpec(
            targets_x=("x0", "ghost"), targets_y=("y0", "y1"),
            attributes_a=("a0",), attributes_b=("b0",),
        )
        with pytest.raises(InputError, match="ghost"):
            weat_test(embeddings, bad, seed=0)

    def test_spec_validation(self):
        with pytest.raises(InputError):
            WeatSpec(("x0",), ("y0",), ("a",), ("b",))  # too few targets
        with pytest.raises(InputError):
            WeatSpec(("x0", "x1"), ("y0",), ("a",), ("b",))  # unequal
        with pytest.raises(InputError):
            WeatSpec(("x0", "x1"), ("y0", "y1"), (), ("b",))  # empty attributes


class TestClassificationMetric:
    def test_planted_separable(self):
        planted = build_planted(n_neutral=200, dim=20, seed=48)
        part = partition(planted.embeddings, list(planted.gender_list))
        accuracy = gbwr_classification(
            planted.embeddings, part, planted.embeddings, seed=5,
            n_per_gender=100, train_per_gender=25,
        )
        assert accuracy == 1.0

    def test_unrelated_vectors_near_chance(self):
        planted = build_planted(n_neutral=500, dim=20, seed=49)
        rng = np.random.default_rng(50)
        shuffled = EmbeddingSet(
            words=planted.embeddings.words,
            vectors=rng.normal(size=planted.embeddings.vectors.shape),
        )
        part = partition(planted.embeddings, list(planted.gender_list))
        accuracy = gbwr_classification(
            shuffled, part, planted.embeddings, seed=6,
            n_per_gender=250, train_per_gender=50,
        )
        assert 0.40 <= accuracy <= 0.60

    def test_deterministic_per_seed(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        args = (planted.embeddings, part, planted.embeddings)
        first = gbwr_classification(*args, seed=7, n_per_gender=50, train_per_gender=10)
        second = gbwr_classification(*args, seed=7, n_per_gender=50, train_per_gender=10)
        assert first == second

    def test_split_validation(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        with pytest.raises(InputError):
            gbwr_classification(
                planted.embeddings, part, planted.embeddings, seed=0,
                n_per_gender=10, train_per_gender=10,
            )


class TestLoaders:
    def test_sembias_file(self):
        text = (
            "# comment\n"
            "king queen definition\tdoctor nurse biased\tcat dog other\tup down other\n"
            "man woman definition\ta b biased\tc d other\te f other\tsubset\n"
        )
        instances = load_sembias(io.StringIO(text))
        assert len(instances) == 2
        assert instances[0].subset is False
        assert instances[1].subset is True
        assert instances[0].definition_index() == 0

    def test_sembias_bad_field_count(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sembias(io.StringIO("a b definition\tc d biased\n"))

    def test_sembias_bad_tag(self):
        text = "a b definition\tc d biased\te f other\tg h wrong\n"
        with pytest.raises(ParseError, match="wrong"):
            load_sembias(io.StringIO(text))

    def test_sembias_unknown_marker(self):
        text = "a b definition\tc d biased\te f other\tg h other\textra\n"
        with pytest.raises(ParseError, match="extra"):
            load_sembias(io.StringIO(text))

    def test_sembias_two_definitions(self):
        text = "a b definition\tc d definition\te f other\tg h other\n"
        with pytest.raises(ParseError, match="line 1"):
            load_sembias(io.StringIO(text))

    def test_weat_file(self):
        text = (
            "name: flowers-vs-insects\n"
            "# attributes follow\n"
            "[targets_x]\nrose\ntulip\n"
            "[targets_y]\nant\nwasp\n"
            "[attributes_a]\nlovely\n"
            "[attributes_b]\nawful\n"
        )
        spec = load_weat_spec(io.StringIO(text))
        assert spec.name == "flowers-vs-insects"
        assert spec.targets_x == ("rose", "tulip")
        assert spec.attributes_b == ("awful",)

    @pytest.mark.parametrize("as_path", [str, Path])
    def test_path_sources(self, tmp_path, as_path):
        sembias = tmp_path / "sembias.txt"
        sembias.write_text(
            "king queen definition\tdoctor nurse biased\tcat dog other\tup down other\n",
            encoding="utf-8",
        )
        instances = load_sembias(as_path(sembias))
        assert len(instances) == 1
        assert instances[0].definition_index() == 0
        weat = tmp_path / "weat.txt"
        weat.write_text(
            "name: toy\n[targets_x]\nrose\ntulip\n[targets_y]\nant\nwasp\n"
            "[attributes_a]\nlovely\n[attributes_b]\nawful\n",
            encoding="utf-8",
        )
        spec = load_weat_spec(as_path(weat))
        assert spec.name == "toy"
        assert spec.targets_x == ("rose", "tulip")
        assert spec.attributes_b == ("awful",)

    def test_weat_unknown_section(self):
        with pytest.raises(ParseError, match="line 1"):
            load_weat_spec(io.StringIO("[bogus]\n"))

    def test_weat_token_outside_section(self):
        with pytest.raises(ParseError, match="line 1"):
            load_weat_spec(io.StringIO("stray\n[targets_x]\n"))


class TestZeroNormRows:
    """Zero-norm rows score cosine 0, as in cosine_similarity."""

    def test_sembias_zero_difference_scores_zero(self):
        # he - she = e0 - e1; "z1" and "z2" share a vector, so their
        # difference is the zero vector
        embeddings = embedding_from(
            ["he", "she", "z1", "z2", "p1", "p2", "n1", "n2"],
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 1],
             [1, 0, 1], [0, 0, 1], [0, 1, 2], [1, 0, 0]],
        )
        # cosine 0 beats the negative pairs and loses to the positive one
        zero_wins = SemBiasInstance(pairs=(
            ("n1", "n2", "other"), ("z1", "z2", "definition"),
            ("n1", "n2", "other"), ("n1", "n2", "biased"),
        ))
        zero_loses = SemBiasInstance(pairs=(
            ("z1", "z2", "other"), ("p1", "p2", "definition"),
            ("n1", "n2", "other"), ("n1", "n2", "biased"),
        ))
        assert sembias_eval(embeddings, [zero_wins, zero_loses]) == (1.0, 2, 0)

    def test_weat_zero_attribute_matches_oracle(self):
        embeddings, spec = weat_fixture()
        vectors = embeddings.vectors.copy()
        vectors[embeddings.index("a1")] = 0.0
        zeroed = EmbeddingSet(words=embeddings.words, vectors=vectors)
        statistic, p_value = weat_test(zeroed, spec, seed=0)

        by_word = {w: zeroed.vector(w) for w in zeroed.words}
        s = oracles.weat_associations(
            by_word, list(spec.targets_x) + list(spec.targets_y),
            spec.attributes_a, spec.attributes_b,
        )
        ref_stat, ref_p = oracles.weat_exact(s, len(spec.targets_x))
        assert statistic == pytest.approx(ref_stat, abs=1e-12)
        assert p_value == ref_p


def test_weat_sampled_p_matches_per_permutation_loop():
    rng = np.random.default_rng(51)
    n_targets = 10  # C(20, 10) > WEAT_EXACT_LIMIT, so the test samples
    words = [f"x{i}" for i in range(n_targets)] + [f"y{i}" for i in range(n_targets)]
    words += ["a0", "a1", "a2", "b0", "b1", "b2"]
    embeddings = embedding_from(words, rng.normal(size=(len(words), 8)))
    spec = WeatSpec(
        targets_x=tuple(words[:n_targets]), targets_y=tuple(words[n_targets:2 * n_targets]),
        attributes_a=("a0", "a1", "a2"), attributes_b=("b0", "b1", "b2"),
    )
    by_word = {w: embeddings.vector(w) for w in words}
    s = np.array(oracles.weat_associations(
        by_word, words[:2 * n_targets], spec.attributes_a, spec.attributes_b))
    total = 2 * n_targets
    observed = s[:n_targets].sum() - s[n_targets:].sum()
    for seed in (3, 4):
        loop_rng = np.random.default_rng(seed)
        count = 1  # the observed partition
        for _ in range(WEAT_SAMPLES):
            chosen = np.sort(loop_rng.permutation(total)[:n_targets])
            rest = np.setdiff1d(np.arange(total), chosen)
            count += s[chosen].sum() - s[rest].sum() >= observed
        _, p_value = weat_test(embeddings, spec, seed=seed)
        assert p_value == count / (WEAT_SAMPLES + 1)
        assert 0.05 < p_value < 0.95  # a mid-range p, not a trivial one


class TestOneProjectionPerWord:
    """Every projection metric reads a word's value from one batched kernel."""

    @staticmethod
    def random_set(seed, n_neutral, dim):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n_neutral + 2, dim)) * 10.0 ** rng.integers(-3, 4)
        # repeated vectors: equal projections must tie exactly, at any row position
        copies = rng.integers(2, n_neutral + 2, size=n_neutral // 3)
        vectors[copies] = vectors[rng.integers(2, n_neutral + 2, size=copies.size)]
        words = ["he", "she"] + [f"w{i}" for i in range(n_neutral)]
        return rng, embedding_from(words, vectors)

    @given(st.integers(0, 2**31 - 1), st.integers(2, 40), st.integers(1, 24))
    @settings(max_examples=80, deadline=None)
    def test_single_word_equals_batch_bitwise(self, seed, n_neutral, dim):
        rng, embeddings = self.random_set(seed, n_neutral, dim)
        n = len(embeddings)
        for normalized in (False, True):
            single = np.array([bias_by_projection(embeddings, w, normalized)
                               for w in embeddings.words])
            batches = [rng.integers(n, size=1), np.arange(n),
                       rng.integers(n, size=int(rng.integers(1, 2 * n)))]
            for rows in batches:
                batch = _projections(embeddings, rows, normalized)
                assert batch.tobytes() == single[rows].tobytes()

    @given(st.integers(0, 2**31 - 1), st.integers(4, 40), st.integers(1, 24))
    @settings(max_examples=80, deadline=None)
    def test_lists_and_profession_points_use_those_values(self, seed, n_neutral, dim):
        rng, embeddings = self.random_set(seed, n_neutral, dim)
        raw = {w: bias_by_projection(embeddings, w) for w in embeddings.words}
        neutral = embeddings.words[2:]
        male = sorted((w for w in neutral if raw[w] > 0),
                      key=lambda w: (-raw[w], embeddings.index(w)))
        female = sorted((w for w in neutral if raw[w] < 0),
                        key=lambda w: (raw[w], embeddings.index(w)))
        n_per_gender = min(len(male), len(female))
        if n_per_gender == 0:
            return
        lists = select_biased_words(embeddings, partition(embeddings, ["he", "she"]),
                                    n_per_gender)
        assert lists.male_biased == tuple(male[:n_per_gender])
        assert lists.female_biased == tuple(female[:n_per_gender])

        professions = list(rng.permutation(embeddings.words))
        for normalized in (False, True):
            try:
                _, points = gbwr_profession(embeddings, professions, lists, embeddings,
                                            k=1, normalized=normalized)
            except UndefinedCorrelationError:  # every count equal
                continue
            assert [word for word, _, _ in points] == professions
            for word, _, bias in points:
                assert type(bias) is float
                assert repr(bias) == repr(bias_by_projection(embeddings, word, normalized))

    @pytest.mark.parametrize("block", [3, 1024])
    def test_whole_matrix_equals_single_words_bitwise(self, monkeypatch, block):
        # more rows than one block: block boundaries must not change a value
        monkeypatch.setattr(bias_metrics, "_PROJECTION_ROWS", block)
        _, embeddings = self.random_set(4, 2500, 30)
        rows = np.arange(len(embeddings))
        direction = embeddings.vector("he") - embeddings.vector("she")
        unblocked = {False: np.einsum("ij,j->i", embeddings.vectors, direction),
                     True: cosine_rows(embeddings.vectors, direction)}
        for normalized in (False, True):
            whole = _projections(embeddings, rows, normalized)
            single = np.array([bias_by_projection(embeddings, w, normalized)
                               for w in embeddings.words])
            assert whole.tobytes() == single.tobytes()
            assert whole.tobytes() == unblocked[normalized].tobytes()

    def test_missing_words_raise_in_lookup_order(self):
        # no "he": the direction lookup fails before any listed word is looked up
        embeddings = embedding_from(["she", "a", "b"], [[0, 1], [1, 0], [2, 0]])
        lists = BiasedWordLists(male_biased=("a",), female_biased=("ghost",))
        for call in (lambda: bias_by_projection(embeddings, "ghost"),
                     lambda: gbwr_correlation(embeddings, lists, embeddings, k=1)):
            with pytest.raises(InputError, match="token 'he' not in vocabulary"):
                call()
        # with no listed word present, the direction is never needed
        with pytest.raises(InputError, match="no listed word is present"):
            mean_abs_projection_bias(
                embeddings, BiasedWordLists(male_biased=("x",), female_biased=("y",)))

    def test_gender_direction_once_per_metric_call(self, monkeypatch):
        calls = []
        real = bias_metrics.gender_direction

        def counting(embeddings):
            calls.append(embeddings)
            return real(embeddings)

        monkeypatch.setattr(bias_metrics, "gender_direction", counting)
        instance = SemBiasInstance(pairs=(("he", "she", "definition"), ("m0", "f0", "biased"),
                                          ("m1", "f1", "other"), ("m2", "f2", "other")))
        for n_neutral in (40, 400):
            planted = build_planted(n_neutral=n_neutral, dim=20, seed=48)
            embeddings = planted.embeddings
            part = partition(embeddings, list(planted.gender_list))
            lists = select_biased_words(embeddings, part, n_neutral // 4)
            words = list(embeddings.words)
            metric_calls = [
                lambda: bias_by_projection(embeddings, "m0"),
                lambda: select_biased_words(embeddings, part, n_neutral // 2),
                lambda: sembias_eval(embeddings, [instance] * n_neutral),
                lambda: gbwr_classification(embeddings, part, embeddings, seed=0,
                                            n_per_gender=n_neutral // 2, train_per_gender=5),
            ]
            for normalized in (False, True):
                metric_calls += [
                    lambda normalized=normalized: mean_abs_projection_bias(
                        embeddings, lists, normalized),
                    lambda normalized=normalized: gbwr_correlation(
                        embeddings, lists, embeddings, k=5, normalized=normalized),
                    lambda normalized=normalized: gbwr_profession(
                        embeddings, words, lists, embeddings, k=5, normalized=normalized),
                ]
            for call in metric_calls:
                calls.clear()
                call()
                assert len(calls) == 1
