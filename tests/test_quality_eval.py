"""Word-similarity and sentence-similarity benchmarks."""

from __future__ import annotations

import io
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from fairvec import (
    EmbeddingSet,
    InputError,
    ParseError,
    SentencePairDataset,
    UndefinedCorrelationError,
    WordPairDataset,
    cosine_similarity,
    load_sentence_pairs,
    load_word_pairs,
    sentence_embedding,
    sts_eval,
    word_similarity_eval,
    yearly_average,
)
from fairvec.matrix_core import cosine_rows, pearson, spearman
from fairvec.quality_eval import _sentence_embeddings


@pytest.fixture
def vocab10():
    rng = np.random.default_rng(60)
    return EmbeddingSet(
        words=tuple(f"w{i}" for i in range(10)),
        vectors=rng.normal(size=(10, 6)),
    )


def pair_dataset(embeddings, pairs, scores, name="toy"):
    entries = tuple((a, b, float(s)) for (a, b), s in zip(pairs, scores))
    return WordPairDataset(name=name, entries=entries)


class TestWordSimilarity:
    def test_scores_equal_cosines(self, vocab10):
        pairs = [("w0", "w1"), ("w2", "w3"), ("w4", "w5"), ("w6", "w7")]
        cosines = [
            cosine_similarity(vocab10.vector(a), vocab10.vector(b)) for a, b in pairs
        ]
        data = pair_dataset(vocab10, pairs, cosines)
        rho, used, skipped = word_similarity_eval(vocab10, data)
        assert rho == pytest.approx(1.0)
        assert (used, skipped) == (4, 0)

    def test_scores_reversed(self, vocab10):
        pairs = [("w0", "w1"), ("w2", "w3"), ("w4", "w5"), ("w6", "w7")]
        cosines = [
            cosine_similarity(vocab10.vector(a), vocab10.vector(b)) for a, b in pairs
        ]
        data = pair_dataset(vocab10, pairs, [-c for c in cosines])
        rho, _, _ = word_similarity_eval(vocab10, data)
        assert rho == pytest.approx(-1.0)

    def test_oov_pairs_skipped(self, vocab10):
        data = WordPairDataset(
            name="toy",
            entries=(("w0", "w1", 1.0), ("w2", "ghost", 2.0), ("w3", "w4", 3.0)),
        )
        _, used, skipped = word_similarity_eval(vocab10, data)
        assert (used, skipped) == (2, 1)

    def test_too_few_usable(self, vocab10):
        data = WordPairDataset(name="toy", entries=(("w0", "w1", 1.0), ("x", "y", 2.0)))
        with pytest.raises(InputError):
            word_similarity_eval(vocab10, data)

    def test_zero_vector_scores_zero_cosine(self, vocab10):
        vectors = vocab10.vectors.copy()
        vectors[0] = 0.0
        embeddings = EmbeddingSet(words=vocab10.words, vectors=vectors)
        pairs = [("w0", "w1"), ("w2", "w3"), ("w4", "w0"), ("w6", "w7")]
        human = [3.0, 1.0, 4.0, 2.0]
        rho, used, _ = word_similarity_eval(embeddings, pair_dataset(embeddings, pairs, human))
        model = [0.0, cosine_similarity(vectors[2], vectors[3]), 0.0,
                 cosine_similarity(vectors[6], vectors[7])]
        assert rho == pytest.approx(oracles.spearman_oracle(human, model), abs=1e-12)
        assert used == 4

    def test_self_pairs_tie(self, vocab10):
        # every self-pair has cosine exactly 1, so the two share one rank
        pairs = [("w1", "w1"), ("w6", "w6"), ("w2", "w3"), ("w4", "w5")]
        human = [9.0, 10.0, 3.0, 5.0]
        rho, used, _ = word_similarity_eval(vocab10, pair_dataset(vocab10, pairs, human))
        model = [1.0, 1.0, cosine_similarity(vocab10.vector("w2"), vocab10.vector("w3")),
                 cosine_similarity(vocab10.vector("w4"), vocab10.vector("w5"))]
        assert rho == pytest.approx(oracles.spearman_oracle(human, model), abs=1e-12)
        assert used == 4

    def test_uniform_scaling_invariance(self, vocab10):
        pairs = [("w0", "w1"), ("w2", "w3"), ("w4", "w5")]
        data = pair_dataset(vocab10, pairs, [3.0, 1.0, 2.0])
        scaled = EmbeddingSet(words=vocab10.words, vectors=vocab10.vectors * 7.5)
        assert word_similarity_eval(vocab10, data) == word_similarity_eval(scaled, data)

    @pytest.mark.parametrize("n_pairs", [127, 128, 129, 300])
    def test_block_boundaries_change_nothing(self, n_pairs):
        # Pairs are scored in fixed blocks; the value must be bitwise that of
        # one cosine_rows over every pair.
        rng = np.random.default_rng(n_pairs)
        embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(50)), rng.normal(size=(50, 7)))
        first, second = rng.integers(0, 50, size=(2, n_pairs))
        human = rng.normal(size=n_pairs)
        data = WordPairDataset("blocks", tuple(
            (f"w{a}", f"w{b}", float(h)) for a, b, h in zip(first, second, human)))
        expected = spearman(human, cosine_rows(embeddings.vectors[first],
                                               embeddings.vectors[second]))
        assert word_similarity_eval(embeddings, data) == (expected, n_pairs, 0)

    def test_memory_does_not_grow_with_pairs(self):
        # Pairs are gathered in blocks of 128, so the traced peak is a few
        # blocks (0.3 MB each side at 300 dims) plus a few values per pair;
        # gathering one side of every pair at once takes 2.4 MB at 1,000 pairs
        # and 38 MB at 16,000.
        rng = np.random.default_rng(14)
        embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(2000)),
                                  rng.normal(size=(2000, 300)))
        for n_pairs in (1000, 16000):
            first, second = rng.integers(0, 2000, size=(2, n_pairs))
            data = WordPairDataset("big", tuple(
                (f"w{a}", f"w{b}", float(h))
                for a, b, h in zip(first, second, rng.normal(size=n_pairs))))
            tracemalloc.start()
            try:
                _, used, _ = word_similarity_eval(embeddings, data)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert used == n_pairs
            assert peak < 4 * 2**20, (n_pairs, peak)

    def test_monotone_transform_of_human_scores(self, vocab10):
        pairs = [("w0", "w1"), ("w2", "w3"), ("w4", "w5")]
        base = pair_dataset(vocab10, pairs, [3.0, 1.0, 2.0])
        mapped = pair_dataset(vocab10, pairs, [np.exp(3.0), np.exp(1.0), np.exp(2.0)])
        assert word_similarity_eval(vocab10, base) == word_similarity_eval(vocab10, mapped)


class TestSentenceEmbedding:
    def test_single_word(self, vocab10):
        assert np.array_equal(
            sentence_embedding(vocab10, ["w3"]), vocab10.vector("w3")
        )

    def test_two_word_mean(self, vocab10):
        expected = (vocab10.vector("w0") + vocab10.vector("w1")) / 2.0
        assert np.allclose(sentence_embedding(vocab10, ["w0", "w1"]), expected, atol=1e-15)

    def test_all_oov_is_zero(self, vocab10):
        result = sentence_embedding(vocab10, ["ghost", "phantom"])
        assert np.array_equal(result, np.zeros(6))
        assert cosine_similarity(result, vocab10.vector("w0")) == 0.0

    def test_permutation_invariance_bitwise(self, vocab10):
        sentence = ["w3", "w1", "w7", "w1", "ghost"]
        reordered = ["w1", "ghost", "w7", "w3", "w1"]
        assert np.array_equal(
            sentence_embedding(vocab10, sentence),
            sentence_embedding(vocab10, reordered),
        )

    def test_oov_tokens_ignored_in_mean(self, vocab10):
        with_oov = sentence_embedding(vocab10, ["w0", "ghost", "w1"])
        without = sentence_embedding(vocab10, ["w0", "w1"])
        assert np.array_equal(with_oov, without)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda dim: st.lists(
            st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                               st.floats(-1e6, 1e6, allow_subnormal=True)),
                     min_size=dim, max_size=dim),
            min_size=1, max_size=8)),
        st.lists(st.integers(0, 9), min_size=1, max_size=12),
    )
    def test_bitwise_equal_to_mean(self, rows, picks):
        # Single-token sentences, repeated tokens and -0.0 entries included;
        # picks past the last row are out-of-vocabulary tokens.
        embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(len(rows))), np.array(rows))
        sentence = [f"w{i}" for i in picks]
        known = sorted(embeddings.index(w) for w in sentence if w in embeddings)
        result = sentence_embedding(embeddings, sentence)
        if not known:
            assert result.tobytes() == np.zeros(embeddings.dim).tobytes()
        else:
            assert result.tobytes() == embeddings.vectors[known].mean(axis=0).tobytes()


    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda dim: st.lists(
            st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                               st.floats(-1e6, 1e6, allow_subnormal=True)),
                     min_size=dim, max_size=dim),
            min_size=1, max_size=8)),
        st.lists(st.lists(st.integers(0, 11), max_size=40), max_size=8),
    )
    @example(rows=[[-0.0, 1.0], [2.0, -0.0]], picks=[[0], [1, 1], [], [9], [1, 0, 1], [0, 9]])
    @example(rows=[[-0.0]], picks=[[0], [0] * 9, [0, 1, 0]])
    @example(rows=[[1.0], [1e-16]], picks=[[0] + [1] * 8])  # dim 1 sums pairwise
    def test_batch_bitwise_equal_to_oracle(self, rows, picks):
        # Duplicates, all-OOV and empty sentences, -0.0 rows and mixed lengths
        # in one batch; picks past the last row are out-of-vocabulary tokens.
        embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(len(rows))), np.array(rows))
        sentences = [[f"w{i}" for i in sentence] for sentence in picks]
        batch = _sentence_embeddings(embeddings, sentences)
        reordered = _sentence_embeddings(embeddings, [s[::-1] for s in sentences])
        assert batch.shape == (len(sentences), embeddings.dim)
        for sentence, ours, theirs in zip(sentences, batch, reordered):
            expected = oracles.sentence_embedding_oracle(
                embeddings.vectors, embeddings._index, sentence)
            assert ours.tobytes() == expected.tobytes()
            assert theirs.tobytes() == expected.tobytes()
            assert sentence_embedding(embeddings, sentence).tobytes() == expected.tobytes()


class TestStsEval:
    def sentences(self, vocab10, n=4):
        rng = np.random.default_rng(61)
        pairs = []
        for _ in range(n):
            s1 = tuple(f"w{i}" for i in rng.choice(10, size=3, replace=False))
            s2 = tuple(f"w{i}" for i in rng.choice(10, size=3, replace=False))
            pairs.append((s1, s2))
        return pairs

    def test_affine_scores_give_100(self, vocab10):
        pairs = self.sentences(vocab10)
        cosines = [
            cosine_similarity(
                sentence_embedding(vocab10, s1), sentence_embedding(vocab10, s2)
            )
            for s1, s2 in pairs
        ]
        entries = tuple(
            (s1, s2, 2.0 * c + 1.0) for (s1, s2), c in zip(pairs, cosines)
        )
        data = SentencePairDataset(name="toy", entries=entries)
        value, used, skipped = sts_eval(vocab10, data)
        assert value == pytest.approx(100.0, abs=1e-9)
        assert (used, skipped) == (4, 0)

    def test_three_pair_hand_computed(self, vocab10):
        pairs = self.sentences(vocab10, n=3)
        human = [4.0, 1.5, 3.0]
        entries = tuple((s1, s2, h) for (s1, s2), h in zip(pairs, human))
        data = SentencePairDataset(name="toy", entries=entries)
        value, _, _ = sts_eval(vocab10, data)
        cosines = [
            cosine_similarity(
                sentence_embedding(vocab10, s1), sentence_embedding(vocab10, s2)
            )
            for s1, s2 in pairs
        ]
        assert value == pytest.approx(100.0 * oracles.pearson_oracle(human, cosines), abs=1e-9)

    def test_bitwise_equal_to_oracle(self, vocab10):
        rng = np.random.default_rng(62)
        tokens = [f"w{i}" for i in range(10)] + ["ghost"]
        entries = tuple(
            (tuple(rng.choice(tokens, size=rng.integers(1, 13))),
             tuple(rng.choice(tokens, size=rng.integers(1, 13))), float(rng.normal()))
            for _ in range(40))
        data = SentencePairDataset(name="toy", entries=entries)
        first, second = (np.array([oracles.sentence_embedding_oracle(
            vocab10.vectors, vocab10._index, entry[side]) for entry in entries])
            for side in (0, 1))
        used = first.any(axis=1) | second.any(axis=1)
        human = np.array([score for _, _, score in entries])[used]
        expected = pearson(human, cosine_rows(first[used], second[used])) * 100.0
        n_used = int(used.sum())
        assert sts_eval(vocab10, data) == (expected, n_used, len(entries) - n_used)

    def test_both_zero_pairs_skipped(self, vocab10):
        entries = (
            (("w0", "w1"), ("w2",), 3.0),
            (("ghost",), ("phantom",), 2.0),  # both sides fully OOV
            (("w3",), ("w4",), 1.0),
            (("w5", "w6"), ("w7",), 4.0),
        )
        data = SentencePairDataset(name="toy", entries=entries)
        _, used, skipped = sts_eval(vocab10, data)
        assert (used, skipped) == (3, 1)

    def test_single_zero_side_kept(self, vocab10):
        entries = (
            (("w0",), ("ghost",), 3.0),  # one zero side scores cosine 0
            (("w1",), ("w2",), 1.0),
            (("w3",), ("w4",), 2.0),
        )
        data = SentencePairDataset(name="toy", entries=entries)
        _, used, skipped = sts_eval(vocab10, data)
        assert (used, skipped) == (3, 0)

    def test_constant_model_scores(self, vocab10):
        entries = (
            (("w0",), ("ghost",), 3.0),
            (("w1",), ("phantom",), 1.0),
        )
        data = SentencePairDataset(name="toy", entries=entries)
        with pytest.raises(UndefinedCorrelationError):
            sts_eval(vocab10, data)

    def test_too_few_usable(self, vocab10):
        entries = (
            (("ghost",), ("phantom",), 3.0),
            (("w1",), ("w2",), 1.0),
        )
        data = SentencePairDataset(name="toy", entries=entries)
        with pytest.raises(InputError):
            sts_eval(vocab10, data)


class TestYearlyAverage:
    def test_single_task(self):
        assert yearly_average([("2013/task", 55.0)]) == {"2013": 55.0}

    def test_two_task_mean(self):
        result = yearly_average([("2014/a", 40.0), ("2014/b", 60.0)])
        assert result == {"2014": 50.0}

    def test_hand_grouped_fixture(self):
        results = [
            ("2014/a", 40.0),
            ("2014/b", 60.0),
            ("2015/a", 10.0),
            ("2015/b", 20.0),
            ("2015/c", 60.0),
        ]
        assert yearly_average(results) == {"2014": 50.0, "2015": 30.0}

    def test_name_without_slash_is_own_group(self):
        assert yearly_average([("sick", 70.0)]) == {"sick": 70.0}

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            yearly_average([])


class TestLoaders:
    def test_word_pairs(self):
        text = "# header\nking\tqueen\t8.5\ncat\tdog\t6.0\n"
        data = load_word_pairs(io.StringIO(text), "toy")
        assert data.name == "toy"
        assert data.entries == (("king", "queen", 8.5), ("cat", "dog", 6.0))

    def test_word_pairs_bad_score(self):
        with pytest.raises(ParseError, match="line 1"):
            load_word_pairs(io.StringIO("a\tb\thigh\n"), "toy")

    def test_word_pairs_bad_field_count(self):
        with pytest.raises(ParseError, match="line 2"):
            load_word_pairs(io.StringIO("a\tb\t1.0\na b 1.0\n"), "toy")

    def test_word_pairs_empty(self):
        with pytest.raises(ParseError, match="no data"):
            load_word_pairs(io.StringIO("# only comments\n"), "toy")

    def test_sentence_pairs_lowercased_and_tokenized(self):
        text = "The Big Cat\ta big dog\t3.5\n"
        data = load_sentence_pairs(io.StringIO(text), "sts")
        assert data.entries[0][0] == ("the", "big", "cat")
        assert data.entries[0][1] == ("a", "big", "dog")

    def test_sentence_pairs_empty_sentence(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sentence_pairs(io.StringIO("  \tdog barks\t1.0\n"), "sts")

    def test_sentence_pairs_bad_score(self):
        with pytest.raises(ParseError, match="line 1"):
            load_sentence_pairs(io.StringIO("a b\tc d\tmaybe\n"), "sts")

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e400"])
    def test_sentence_pairs_non_finite_score(self, score):
        text = f"a b\tc d\t1.0\ne f\tg h\t{score}\n"
        with pytest.raises(ParseError, match=f"line 2: score '{score}' is not finite"):
            load_sentence_pairs(io.StringIO(text), "sts")

    def test_sentence_pairs_empty(self):
        with pytest.raises(ParseError, match="sentence-pair file for 'sts' has no data lines"):
            load_sentence_pairs(io.StringIO("# only comments\n\n"), "sts")

    @pytest.mark.parametrize("as_path", [str, Path])
    def test_path_sources(self, tmp_path, as_path):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# header\nking\tqueen\t8.5\n", encoding="utf-8")
        assert load_word_pairs(as_path(pairs), "toy").entries == (("king", "queen", 8.5),)
        sentences = tmp_path / "sents.tsv"
        sentences.write_text("The Big Cat\ta dog\t3.5\n", encoding="utf-8")
        data = load_sentence_pairs(as_path(sentences), "sts")
        assert data.entries == ((("the", "big", "cat"), ("a", "dog"), 3.5),)

    def test_dataset_validation(self):
        with pytest.raises(InputError):
            WordPairDataset(name="x", entries=())
        with pytest.raises(InputError):
            WordPairDataset(name="x", entries=(("a", "b", float("nan")),))
        with pytest.raises(InputError):
            SentencePairDataset(name="x", entries=((("a",), (), 1.0),))
        with pytest.raises(InputError, match="sentence-pair dataset 'x' is empty"):
            SentencePairDataset(name="x", entries=())
        with pytest.raises(InputError, match="sentence-pair dataset 'x' has non-finite scores"):
            SentencePairDataset(name="x", entries=((("a",), ("b",), float("inf")),))
