"""Embedding parsing, serialization, partition, and neighbor queries."""

from __future__ import annotations

import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fairvec
import oracles
from fairvec import (
    ConfigError,
    EmbeddingSet,
    InputError,
    ParseError,
    embedding_store,
    load_embeddings,
    load_word_list,
    nearest_neighbors,
    partition,
    save_embeddings,
    top_k_neighbors,
)


def load_text(text: str, **kwargs) -> EmbeddingSet:
    return load_embeddings(io.StringIO(text), **kwargs)


class TestLoad:
    def test_two_words(self):
        embeddings = load_text("a 1.0 0.0\nb 0.0 1.0\n")
        assert embeddings.words == ("a", "b")
        assert embeddings.dim == 2
        assert np.array_equal(embeddings.vector("b"), [0.0, 1.0])

    def test_empty_stream(self):
        with pytest.raises(ParseError, match="empty"):
            load_text("")

    def test_inconsistent_dimension_names_line(self):
        with pytest.raises(ParseError, match="line 2"):
            load_text("a 1.0 2.0\nb 1.0 2.0 3.0\n")

    def test_duplicate_token(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_text("a 1.0\na 2.0\n")

    def test_non_numeric(self):
        with pytest.raises(ParseError, match="line 1"):
            load_text("a 1.0 oops\nb 1.0 2.0\n")

    def test_non_finite(self):
        with pytest.raises(ParseError, match="line 2"):
            load_text("a 1.0\nb nan\n")

    def test_token_only_line(self):
        with pytest.raises(ParseError, match="no vector components"):
            load_text("a\n")

    def test_vocab_cap(self):
        embeddings = load_text("a 1.0\nb 2.0\nc 3.0\n", max_words=2)
        assert embeddings.words == ("a", "b")

    def test_file_order_preserved(self):
        embeddings = load_text("z 1.0\ny 2.0\nx 3.0\n")
        assert embeddings.words == ("z", "y", "x")

    @pytest.mark.parametrize("as_path", [str, Path])
    def test_path_source(self, tmp_path, as_path):
        path = tmp_path / "vectors.txt"
        path.write_text("a 1.0 0.0\nb 0.0 1.0\nc 2.0 2.0\n", encoding="utf-8")
        embeddings = load_embeddings(as_path(path))
        assert embeddings.words == ("a", "b", "c")
        assert np.array_equal(embeddings.vector("c"), [2.0, 2.0])
        assert load_embeddings(as_path(path), max_words=2).words == ("a", "b")

    def test_count_dim_header_skipped(self):
        embeddings = load_text("2 3\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")
        assert embeddings.words == ("a", "b")
        assert embeddings.dim == 3

    def test_header_not_counted_by_max_words(self):
        embeddings = load_text("3 1\na 1.0\nb 2.0\nc 3.0\n", max_words=2)
        assert embeddings.words == ("a", "b")

    def test_header_dim_disagreeing_with_rows_rejected(self):
        # not a header, so line 1 is a one-component row and line 2 disagrees
        with pytest.raises(ParseError, match="line 2"):
            load_text("2 4\na 1.0 2.0 3.0\nb 4.0 5.0 6.0\n")

    def test_integer_rows_without_header_kept(self):
        # "3 2" cannot be a header for one-component rows: it is the row of "3"
        embeddings = load_text("3 2\n4 5\n")
        assert embeddings.words == ("3", "4")
        assert np.array_equal(embeddings.vectors, [[2.0], [5.0]])

    def test_trailing_whitespace_ignored(self):
        # fastText .vec layout: a header, then rows ending in a space
        embeddings = load_text("2 2\na 1.0 0.5 \nb -1.0 2.0 \r\n")
        assert embeddings.words == ("a", "b")
        assert np.array_equal(embeddings.vectors, [[1.0, 0.5], [-1.0, 2.0]])

    def test_python_float_forms_kept(self):
        # numpy's C parser rejects these; the per-line rules read them as float does
        embeddings = load_text("a 1_0 ١٢\nb 3 4\n")
        assert np.array_equal(embeddings.vectors, [[10.0, 12.0], [3.0, 4.0]])

    def test_separator_controls_rejected(self):
        # numpy's C parser strips \x1c-\x1f around a field; float does not
        with pytest.raises(ParseError, match="line 2: non-numeric"):
            load_text("a 1 2\nb 3\x1c 4\n")

    def test_error_names_first_bad_line_across_blocks(self):
        block = embedding_store._BLOCK_ROWS
        lines = [f"w{i} {i}.5" for i in range(block + 3)]
        lines[block + 1] = "w0 1.0"  # duplicate in the second block
        lines[block - 1] = "bad nan"  # non-finite in the first
        with pytest.raises(ParseError, match=f"line {block}: non-finite"):
            load_text("\n".join(lines))

    def test_duplicate_across_blocks(self):
        block = embedding_store._BLOCK_ROWS
        lines = [f"w{i} {i}.5" for i in range(block + 2)]
        lines[block + 1] = "w3 1.0"
        with pytest.raises(ParseError, match=f"line {block + 2}: duplicate token 'w3'"):
            load_text("\n".join(lines))

    def test_short_row_alone_in_last_block(self):
        # a one-row block parses to a (1, 1) array, which would broadcast into (1, 2)
        block = embedding_store._BLOCK_ROWS
        lines = [f"w{i} {i} 0.5" for i in range(block)] + ["last 7"]
        with pytest.raises(ParseError, match=f"line {block + 1}: expected 2 vector components"):
            load_text("\n".join(lines))


BLOCK = embedding_store._BLOCK_ROWS
ODD_VALUES = ("nan", "inf", "-inf", "1e400", "1_0", "١٢", "٣.٥", "1\x1c", "\x1d2", "3\x1f",
              "x", "", "0x1", "-0.0", "1e-400", "+.5")


@st.composite
def embedding_texts(draw):
    """Embedding text near block boundaries with a few drawn defects, a max_words and
    the block size to load it with: the loader's own, or a small one for many blocks."""
    block = draw(st.sampled_from([BLOCK, BLOCK, 2, 3]))
    n_rows = draw(st.sampled_from([1, 2, block - 1, block, block + 1, 2 * block + 1]))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    digits = draw(st.sampled_from(["%.17g", "%.6f", "%g"]))
    rows = [[f"w{i}", *(digits % v for v in rng.normal(size=dim))] for i in range(n_rows)]
    # rows at block edges, where a block may hold a single row, or anywhere
    edges = sorted({0, min(block, n_rows) - 1, n_rows - 1})
    pick_row = st.one_of(st.sampled_from(edges), st.integers(0, n_rows - 1))
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(pick_row)]
        col = draw(st.integers(1, dim))
        kind = draw(st.sampled_from(["value"] * 4 + ["duplicate"] * 2 + [
            "tab", "double space", "trailing", "drop", "token only", "blank", "integer"]))
        if col >= len(row) and kind in ("value", "tab", "double space"):
            continue  # a value an earlier edit removed
        if kind == "value":
            row[col] = draw(st.sampled_from(ODD_VALUES))
        elif kind == "tab":
            row[col] = "\t" + row[col]
        elif kind == "double space":
            row[col] = " " + row[col]
        elif kind == "trailing":
            row[-1] += draw(st.sampled_from([" ", "  ", "\t", " \r"]))
        elif kind == "duplicate":
            row[0] = rows[draw(pick_row)][0]
        elif kind == "drop":
            del row[max(len(row) - 1, 1):]  # the last value, never the token
        elif kind == "token only":
            del row[1:]
        elif kind == "blank":
            row[:] = [""]
        else:  # a decimal-integer row, as a "count dim" header is
            row[:] = [str(draw(st.integers(0, 9))), *(["1"] * dim)]
    lines = [" ".join(row) for row in rows]
    header = draw(st.sampled_from([None, "count dim", "count dim+1"]))
    if header:
        lines.insert(0, f"{n_rows} {dim + (header == 'count dim+1')}")
    ending = draw(st.sampled_from(["\n", " \n", "\r\n"]))
    max_words = draw(st.sampled_from([None] * 6 + [-1, 0, 1, block - 1, block, block + 1]))
    return "".join(line + ending for line in lines), max_words, block


class TestLoadMatchesLineOracle:
    @settings(max_examples=300, deadline=None)
    @given(embedding_texts())
    def test_same_words_bits_or_error(self, case):
        text, max_words, block = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(embedding_store, "_BLOCK_ROWS", block)
            try:
                words, vectors = oracles.load_embeddings_oracle(io.StringIO(text), max_words)
            except oracles.LoadOracleError as error:
                with pytest.raises(ParseError) as raised:
                    load_text(text, max_words=max_words)
                assert str(raised.value) == str(error)
                return
            loaded = load_text(text, max_words=max_words)
        assert loaded.words == words
        assert loaded.vectors.shape == vectors.shape
        assert loaded.vectors.tobytes() == vectors.tobytes()
        assert loaded._index == {word: i for i, word in enumerate(words)}


class TestSave:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        original = EmbeddingSet(
            words=tuple(f"w{i}" for i in range(50)),
            vectors=rng.normal(size=(50, 7)) * 10.0 ** rng.integers(-6, 6, size=(50, 1)),
        )
        sink = io.StringIO()
        save_embeddings(original, sink)
        reloaded = load_text(sink.getvalue())
        assert reloaded.words == original.words
        # 17 significant digits reconstruct float64 exactly, well inside the
        # 1e-6 round-trip contract
        assert np.array_equal(reloaded.vectors, original.vectors)

    def test_empty_set_writes_nothing(self):
        empty = EmbeddingSet(words=(), vectors=np.zeros((0, 3)))
        sink = io.StringIO()
        save_embeddings(empty, sink)
        assert sink.getvalue() == ""

    def test_byte_stable(self):
        rng = np.random.default_rng(7)
        embeddings = EmbeddingSet(
            words=tuple(f"w{i}" for i in range(446)),
            vectors=rng.normal(size=(446, 10)),
        )
        first, second = io.StringIO(), io.StringIO()
        save_embeddings(embeddings, first)
        save_embeddings(embeddings, second)
        assert first.getvalue() == second.getvalue()

    def test_bytes_match_per_value_format(self):
        # Reference: every value printed on its own with format(v, ".17g").
        rng = np.random.default_rng(8)
        edge = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                2.2250738585072014e-308, 1e300, -1e300, 1e-300, -1e-300,
                1.7976931348623157e308, 0.1, 1.0, -123456789.125]
        bits = rng.integers(0, 2**64, size=600, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            edge,
            bits[np.isfinite(bits)][:480],
            rng.normal(size=480) * 10.0 ** rng.integers(-12, 12, size=480),
        ])
        dim = 5
        values = values[: values.size // dim * dim].reshape(-1, dim)
        embeddings = EmbeddingSet(
            words=tuple(f"w{i}" for i in range(values.shape[0])), vectors=values
        )
        expected = "".join(
            word + "".join(" " + format(v, ".17g") for v in row) + "\n"
            for word, row in zip(embeddings.words, embeddings.vectors)
        )
        sink = io.StringIO()
        save_embeddings(embeddings, sink)
        assert sink.getvalue().encode("utf-8") == expected.encode("utf-8")

    @pytest.mark.parametrize("words, vectors", [
        (("7", "b", "c"), [[1.0], [0.5], [2.0]]),
        (("12", "x"), [[1.0], [3.0]]),
    ])
    def test_header_shaped_first_row_round_trips(self, words, vectors):
        # "7 1" followed by a two-field row reads as a "count dim" header, so
        # the writer puts a real header in front of it.
        original = EmbeddingSet(words=words, vectors=vectors)
        sink = io.StringIO()
        save_embeddings(original, sink)
        assert sink.getvalue().startswith(f"{len(words)} 1\n{words[0]} 1\n")
        reloaded = load_text(sink.getvalue())
        assert reloaded.words == original.words
        assert np.array_equal(reloaded.vectors, original.vectors)

    @pytest.mark.parametrize("words, vectors", [
        (("7", "b"), [[2.0], [0.5]]),  # "7 2" would need a three-field second row
        (("7",), [[1.0]]),  # a single line is never taken for a header
        (("a", "b"), [[1.0], [0.5]]),
    ])
    def test_unambiguous_first_row_gets_no_header(self, words, vectors):
        sink = io.StringIO()
        save_embeddings(EmbeddingSet(words=words, vectors=vectors), sink)
        assert sink.getvalue().split("\n")[0].split(" ")[0] == words[0]

    def test_memory_does_not_grow_with_rows(self):
        # Rows are formatted and written block by block, so the peak traced
        # allocation is about one block of fields and text (4 MB at 300 dims),
        # whatever the row count; a list of every value as a Python float
        # takes more than the bound at 1,000 rows and 8 times that at 8,000.
        class CountingSink(io.TextIOBase):
            chars = 0

            def write(self, text):
                self.chars += len(text)
                return len(text)

        rng = np.random.default_rng(12)
        for n_rows in (1000, 8000):
            embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(n_rows)),
                                      rng.normal(size=(n_rows, 300)))
            sink = CountingSink()
            tracemalloc.start()
            try:
                save_embeddings(embeddings, sink)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sink.chars > n_rows * 300 * 20
            assert peak < 6 * 2**20, (n_rows, peak)


def per_value_text(embeddings: EmbeddingSet) -> str:
    """The save format by its reference rule: every value printed on its own."""
    return "".join(word + "".join(" " + format(v, ".17g") for v in row) + "\n"
                   for word, row in zip(embeddings.words, embeddings.vectors.tolist()))


def curated_values() -> np.ndarray:
    """Values where a fast %.17g is easiest to get wrong, and their negatives."""
    rng = np.random.default_rng(13)
    # o/4 for odd o in [4e15, 9e15) ends in .25 or .75 at 17 digits: an exact tie
    ties = (rng.integers(2 * 10**15, 45 * 10**14, size=200) * 2 + 1) / 4.0
    # 10**k and 1..3 ulp either side; the sides of 1e-4 and 1e16 are where the
    # notation changes. No float64 rounds up across a power of ten at 17
    # digits, so the nearest floats below them are as close as any gets.
    near = []
    for k in range(-5, 18):
        below = above = float(f"1e{k}")
        near.append(below)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            near += [below, above]
    extremes = [0.0, 5e-324, 1e-310, 2.225073858507201e-308, 2.2250738585072014e-308,
                1.7976931348623157e308, 1.0, 0.5, 123456789.125, 2.0**53]
    values = np.concatenate([ties, near, extremes])
    return np.concatenate([values, -values])


@st.composite
def saved_sets(draw):
    """A set of 0, 1, 2 or about a write block of rows, the block's edges
    included, whose values mix any finite float64 bit pattern, scaled normals
    in the fixed-notation range, floats that hypothesis picks and curated ones."""
    dim = draw(st.sampled_from([1, 2, 3, 300]))
    block = embedding_store._write_rows(dim)
    n_rows = draw(st.sampled_from([0, 1, 2, block - 1, block, block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = n_rows * dim
    bits = rng.integers(0, 2**64, size=size, dtype=np.uint64).view(np.float64)
    scaled = rng.normal(size=size) * 10.0 ** rng.integers(-5, 17, size=size)
    curated = rng.choice(curated_values(), size=size)
    values = np.choose(rng.integers(0, 3, size=size), [bits, scaled, curated])
    values[~np.isfinite(values)] = curated[~np.isfinite(values)]
    picked = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           max_size=min(size, 20)))
    values[rng.choice(size, size=len(picked), replace=False)] = picked
    return EmbeddingSet(tuple(f"w{i}" for i in range(n_rows)), values.reshape(n_rows, dim))


class TestSaveMatchesPerValueFormat:
    @settings(max_examples=100, deadline=None)
    @given(saved_sets())
    def test_any_set(self, embeddings):
        sink = io.StringIO()
        save_embeddings(embeddings, sink)
        assert sink.getvalue().encode("utf-8") == per_value_text(embeddings).encode("utf-8")

    @pytest.mark.parametrize("dim", [1, 2, 3, 300])
    def test_curated_values(self, dim):
        values = curated_values()
        n_rows = max(2, -(-values.size // dim))  # every value, repeated to fill the rows
        embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(n_rows)),
                                  np.resize(values, (n_rows, dim)))
        sink = io.StringIO()
        save_embeddings(embeddings, sink)
        assert sink.getvalue() == per_value_text(embeddings)


class TestEmbeddingSet:
    def test_duplicate_words_rejected(self):
        with pytest.raises(InputError, match="duplicate"):
            EmbeddingSet(words=("a", "a"), vectors=np.ones((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(InputError):
            EmbeddingSet(words=("a",), vectors=np.array([[np.inf, 0.0]]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InputError):
            EmbeddingSet(words=("a", "b"), vectors=np.ones((3, 2)))

    def test_vectors_read_only(self, tiny):
        with pytest.raises(ValueError):
            tiny.vectors[0, 0] = 99.0

    def test_missing_token_lookup(self, tiny):
        with pytest.raises(InputError, match="zzz"):
            tiny.index("zzz")
        assert "zzz" not in tiny
        assert "he" in tiny


class TestWordList:
    def test_comments_and_blanks_skipped(self):
        text = "# comment\nhe\n\n  she  \n# another\nman\n"
        assert load_word_list(io.StringIO(text)) == ["he", "she", "man"]

    @pytest.mark.parametrize("as_path", [str, Path])
    def test_path_source(self, tmp_path, as_path):
        path = tmp_path / "gender.txt"
        path.write_text("# comment\nhe\nshe\n", encoding="utf-8")
        assert load_word_list(as_path(path)) == ["he", "she"]


@pytest.mark.parametrize("load, lines", [
    (load_word_list, ["he", "she"]),
    (fairvec.load_sembias, ["he she definition\tm0 f0 biased\tm1 f1 other\tm2 f2 other\tsubset"]),
    (fairvec.load_weat_spec, ["name: t", "[targets_x]", "a", "b", "[targets_y]", "c", "d",
                              "[attributes_a]", "e", "[attributes_b]", "f"]),
    (lambda source: fairvec.load_word_pairs(source, "p"), ["m0\tm1\t5.0", "m2\tf0\t1.5"]),
    (lambda source: fairvec.load_sentence_pairs(source, "s"), ["A b\tc D\t4.5", "e\tf g\t1"]),
], ids=["word_list", "sembias", "weat", "word_pairs", "sentence_pairs"])
def test_dataset_loaders_share_blank_and_comment_rules(load, lines):
    noise = ["   # indented comment\r\n", " \t \r\n"]
    noisy = noise + [part for line in lines for part in (line + "\r\n", *noise)]
    assert load(noisy) == load([line + "\n" for line in lines])


class TestPartition:
    def test_basic_split(self):
        embeddings = load_text("he 1.0\nshe 2.0\ntree 3.0\n")
        part = partition(embeddings, ["he", "she"])
        assert part.definition_indices.tolist() == [0, 1]
        assert part.neutral_indices.tolist() == [2]
        assert part.missing == 0

    def test_missing_token_counted(self):
        embeddings = load_text("he 1.0\nshe 2.0\ntree 3.0\n")
        part = partition(embeddings, ["he", "she", "zzz"])
        assert part.missing == 1
        assert part.definition_indices.tolist() == [0, 1]

    def test_empty_intersection(self):
        embeddings = load_text("tree 1.0\nrock 2.0\n")
        with pytest.raises(ConfigError):
            partition(embeddings, ["he", "she"])

    def test_disjoint_cover(self, planted):
        part = partition(planted.embeddings, list(planted.gender_list))
        union = np.concatenate([part.definition_indices, part.neutral_indices])
        assert np.array_equal(np.sort(union), np.arange(len(planted.embeddings)))
        assert not set(part.definition_indices) & set(part.neutral_indices)

    def test_duplicate_list_tokens_ignored(self):
        embeddings = load_text("he 1.0\nshe 2.0\ntree 3.0\n")
        part = partition(embeddings, ["he", "he", "she"])
        assert part.definition_indices.tolist() == [0, 1]
        assert part.missing == 0

    def test_missing_tokens_named_in_list_order(self):
        embeddings = load_text("he 1.0\nshe 2.0\ntree 3.0\n")
        part = partition(embeddings, ["zzz", "he", "aaa", "zzz", "she"])
        assert part.missing_words == ("zzz", "aaa")
        assert part.missing == 2


class TestNearestNeighbors:
    def test_tie_break_lowest_index(self):
        embeddings = EmbeddingSet(
            words=("e1", "e2", "e3", "e4"), vectors=np.eye(4)
        )
        # every candidate has cosine 0 with e1, so index order decides
        assert nearest_neighbors(embeddings, 0, 1) == [1]
        assert nearest_neighbors(embeddings, 0, 3) == [1, 2, 3]

    def test_duplicate_vector_first(self):
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(6, 3))
        vectors[4] = vectors[1]
        embeddings = EmbeddingSet(words=tuple("abcdef"), vectors=vectors)
        assert nearest_neighbors(embeddings, 1, 1)[0] == 4

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(9)
        vectors = rng.normal(size=(10, 4))
        embeddings = EmbeddingSet(words=tuple(f"w{i}" for i in range(10)), vectors=vectors)
        ours = nearest_neighbors(embeddings, 3, 3)
        ref = oracles.neighbors_oracle(vectors, 3, 3, range(10))
        assert ours == ref

    @given(st.integers(0, 9), st.integers(1, 9), st.integers(0, 2**31 - 1))
    @settings(max_examples=60)
    def test_oracle_agreement_randomized(self, query, k, seed):
        rng = np.random.default_rng(seed)
        vectors = np.round(rng.normal(size=(10, 3)), 1)  # rounding forces ties
        embeddings = EmbeddingSet(words=tuple(f"w{i}" for i in range(10)), vectors=vectors)
        ours = nearest_neighbors(embeddings, query, k)
        assert ours == oracles.neighbors_oracle(vectors, query, k, range(10))

    def test_exactly_orthogonal_rows_tie_by_index(self):
        # Rows 5 and 6 are both exactly orthogonal to query 3 (0.1 * 0.6 - 0.6 * 0.1
        # is 0 in floating point), but a fused multiply-add in the matrix product
        # gives row 6 a cosine of 1.8e-18; the tie must still go to row 5.
        rng = np.random.default_rng(8388607)
        vectors = np.round(rng.normal(size=(10, 3)), 1)
        embeddings = EmbeddingSet(words=tuple(f"w{i}" for i in range(10)), vectors=vectors)
        assert nearest_neighbors(embeddings, 3, 5) == [2, 7, 1, 9, 5]
        assert nearest_neighbors(embeddings, 3, 5) == oracles.neighbors_oracle(
            vectors, 3, 5, range(10))

    def test_parallel_rows_tie_by_index(self):
        # Scaled copies of one direction have equal cosines: every product and
        # norm here is exact, so each cosine is the same rational rounded once.
        # The lower index must rank first within every tie, whatever the scale.
        v = [1.0, 2.0, 2.0]
        q = [2.0, 3.0, 6.0]
        rows = [q, [3 * x for x in v], [0.0, 0.0, 1.0], [2 * x for x in q], v,
                [0.5 * x for x in v], [-x for x in v], [0.25 * x for x in q],
                [-3 * x for x in v], [1024 * x for x in v]]
        embeddings = EmbeddingSet(tuple(f"w{i}" for i in range(10)), np.array(rows))
        # cosines with row 0: 1 (3, 7), 20/21 (1, 4, 5, 9), 6/7 (2), -20/21 (6, 8)
        assert nearest_neighbors(embeddings, 0, 9) == [3, 7, 1, 4, 5, 9, 2, 6, 8]
        assert nearest_neighbors(embeddings, 4, 3) == [1, 5, 9]
        assert nearest_neighbors(embeddings, 6, 1) == [8]

    def test_prefix_property(self):
        rng = np.random.default_rng(10)
        vectors = np.round(rng.normal(size=(12, 3)), 1)
        embeddings = EmbeddingSet(words=tuple(f"w{i}" for i in range(12)), vectors=vectors)
        full = nearest_neighbors(embeddings, 0, 11)
        for k in range(1, 11):
            assert nearest_neighbors(embeddings, 0, k) == full[:k]

    def test_candidate_pool_respected(self, tiny):
        pool = [tiny.index("north"), tiny.index("south")]
        result = nearest_neighbors(tiny, tiny.index("he"), 2, pool)
        assert set(result) == set(pool)

    def test_query_outside_vocab(self, tiny):
        with pytest.raises(InputError):
            nearest_neighbors(tiny, 99, 1)

    def test_k_too_large(self, tiny):
        with pytest.raises(InputError):
            nearest_neighbors(tiny, 0, len(tiny))  # query excluded, so max is n-1


class TestTopKNeighbors:
    @given(st.integers(0, 2**31 - 1), st.integers(3, 24), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_with_zero_rows_and_duplicates(self, seed, n, dim):
        rng = np.random.default_rng(seed)
        vectors = rng.normal(size=(n, dim))
        # duplicated vectors give exact ties; zero rows have cosine 0 with all
        for target in rng.integers(0, n, size=n // 3):
            vectors[target] = vectors[rng.integers(0, n)]
        vectors[rng.integers(0, n, size=max(1, n // 6))] = 0.0
        embeddings = EmbeddingSet(words=tuple(f"w{i}" for i in range(n)), vectors=vectors)
        pool = sorted(set(rng.integers(0, n, size=n).tolist()) | {0, 1})
        queries = rng.integers(0, n, size=n)
        k = len(pool) - 1
        ranked = top_k_neighbors(embeddings, queries, k, pool)
        for query, row in zip(queries, ranked):
            assert row.tolist() == oracles.neighbors_oracle(vectors, query, k, pool)

    def test_rows_are_single_query_results(self):
        rng = np.random.default_rng(11)
        vectors = np.round(rng.normal(size=(12, 3)), 1)
        embeddings = EmbeddingSet(words=tuple(f"w{i}" for i in range(12)), vectors=vectors)
        ranked = top_k_neighbors(embeddings, range(12), 11)
        for query in range(12):
            assert ranked[query].tolist() == nearest_neighbors(embeddings, query, 11)

    def test_k_checked_against_each_query(self, tiny):
        pool = [tiny.index("north"), tiny.index("south")]
        # "he" has both pool members as candidates, "north" only one
        assert top_k_neighbors(tiny, [tiny.index("he")], 2, pool).shape == (1, 2)
        with pytest.raises(InputError, match="only 1 candidates"):
            top_k_neighbors(tiny, [tiny.index("he"), tiny.index("north")], 2, pool)

    def test_zero_dimensional_vectors_rank_by_index(self):
        embeddings = EmbeddingSet(words=("a", "b", "c"), vectors=np.zeros((3, 0)))
        assert top_k_neighbors(embeddings, [1, 2], 2).tolist() == [[0, 2], [0, 1]]

    def test_no_queries(self, tiny):
        assert top_k_neighbors(tiny, [], 2).shape == (0, 2)
