"""The benchmark's span tracer must find every function it wraps.

perfbench/spans.py patches the functions it lists in TRACED by name; a
refactor that drops or renames one would crash every traced benchmark run.
The module is loaded read-only from its file, without running the tracer.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    missing = [
        f"fairvec.{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"fairvec.{layer}"), name, None))
    ]
    assert missing == []


def test_embedding_set_post_init_is_traceable():
    from fairvec.embedding_store import EmbeddingSet

    assert callable(EmbeddingSet.__post_init__)


def test_trace_counts_text_loads_only(tmp_path):
    # The benchmark's per-layer load metrics come from these spans and counters:
    # a text load is traced with its byte count, a binary-copy load is not a text load.
    from conftest import build_planted, write_embedding_file
    from fairvec import cli

    planted = build_planted(n_neutral=40, dim=8, n_definition=4, seed=3)
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, planted.embeddings)
    gender = tmp_path / "gender.txt"
    gender.write_text("\n".join(planted.gender_list) + "\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("m0\tm1\t5.0\nm2\tf0\t1.5\nf1\tf2\t4.0\n")
    hsr = str(tmp_path / "hsr.txt")

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["debias", "--embeddings", str(emb), "--gender-list", str(gender),
                         "--out", hsr]) == 0
        debias_spans = len(tracer.spans)
        text_bytes = tracer.counters.get("embedding_store.load_embeddings.bytes", 0)
        assert cli.main(["eval", "--embeddings", hsr, "--metrics", "quality",
                         "--wordsim", f"toy={pairs}", "--out", str(tmp_path / "q.json")]) == 0
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert names[:debias_spans].count("embedding_store.load_embeddings") == 1
    assert text_bytes == emb.stat().st_size > 0
    assert "cli.cmd_eval" in names[debias_spans:]
    assert "embedding_store.load_embeddings" not in names[debias_spans:]
    assert "embedding_store.EmbeddingSet" in names[debias_spans:]


def test_alpha_sweep_fits_once(monkeypatch):
    # The alpha-sweep workload times hsr_debias over 12 alphas plus one hard_debias
    # on one set; all of them share one SVD of the definition rows and none
    # goes through the ridge solve.
    import sys

    import numpy as np
    from conftest import build_planted
    from fairvec import HsrConfig, hard_debias, hsr_debias

    calls = {"svd": 0, "solve_ridge": 0}

    def counting(key, fn):
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    solve_ridge = sys.modules["fairvec.matrix_core"].solve_ridge
    counted_solve = counting("solve_ridge", solve_ridge)
    for name, module in list(sys.modules.items()):
        if name.startswith("fairvec") and getattr(module, "solve_ridge", None) is solve_ridge:
            monkeypatch.setattr(module, "solve_ridge", counted_solve)

    planted = build_planted(n_neutral=200, dim=20, n_definition=6, seed=5)
    for alpha in np.logspace(-1, 4, 12):
        hsr_debias(planted.embeddings, HsrConfig(planted.gender_list, float(alpha)))
    hard_debias(planted.embeddings, HsrConfig(planted.gender_list))
    assert calls == {"svd": 1, "solve_ridge": 0}


def test_benchmark_and_saved_text_take_the_block_parser(monkeypatch, tmp_path):
    # load_embeddings reads a block line by line only when numpy's C parser
    # cannot take it; the text the benchmark loads and the text save_embeddings
    # writes must never need that, or every load would silently slow down.
    import sys

    import numpy as np
    from fairvec import EmbeddingSet, embedding_store, load_embeddings, save_embeddings

    spec = importlib.util.spec_from_file_location("perfbench_gen", SPANS.parent / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, gen)  # its dataclass looks itself up
    spec.loader.exec_module(gen)

    def refuse(block, *args):
        raise AssertionError(f"line {block[0][0]}: block re-read line by line")

    monkeypatch.setattr(embedding_store, "_parse_lines", refuse)
    block = embedding_store._BLOCK_ROWS
    definition, neutral, vectors, _ = gen.planted_matrix(np.random.default_rng(0), block)
    generated = tmp_path / "generated.txt"
    generated.write_text(gen.format_rows(definition + neutral, vectors), encoding="utf-8")
    loaded = load_embeddings(generated)
    assert loaded.words == tuple(definition + neutral)
    assert np.array_equal(loaded.vectors, vectors)

    rng = np.random.default_rng(1)
    header_shaped = EmbeddingSet(tuple(["7"] + [f"w{i}" for i in range(block + 4)]),
                                 np.vstack([[1.0], rng.normal(size=(block + 4, 1))]))
    wide = EmbeddingSet(tuple(f"w{i}" for i in range(block + 4)),
                        rng.normal(size=(block + 4, 300)) * np.logspace(-300, 300, 300))
    for embeddings, first_line in ((header_shaped, f"{block + 5} 1"), (wide, "w0 ")):
        saved = tmp_path / "saved.txt"
        with open(saved, "w", encoding="utf-8") as sink:
            save_embeddings(embeddings, sink)
        assert saved.read_text(encoding="utf-8").startswith(first_line)
        loaded = load_embeddings(saved)
        assert loaded.words == embeddings.words
        assert loaded.vectors.tobytes() == embeddings.vectors.tobytes()


def test_trace_sees_dataset_loads(tmp_path):
    # The benchmark's per-layer metric quality_eval.load_sentence_pairs.s, and the
    # split of eval time by layer, read these spans: a dataset load that bypasses
    # the traced name would read 0 s instead of failing.
    from conftest import build_planted, write_embedding_file
    from fairvec import cli

    planted = build_planted(n_neutral=40, dim=8, n_definition=4, seed=3)
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, planted.embeddings)
    gender = tmp_path / "gender.txt"
    gender.write_text("\n".join(planted.gender_list) + "\n")
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("m0\tm1\t5.0\nm2\tf0\t1.5\nf1\tf2\t4.0\n")
    sentences = tmp_path / "sents.tsv"
    sentences.write_text("m0 m1\tm2\t4.5\nf0\tf1 f2\t3.8\nm0 f0\tm1\t2.0\n")
    sembias = tmp_path / "sembias.tsv"
    sembias.write_text("he she definition\tm0 f0 biased\tm1 f1 other\tm2 f2 other\n")

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["eval", "--embeddings", str(emb), "--metrics", "quality",
                         "--wordsim", f"toy={pairs}", "--sts", f"2015/toy={sentences}",
                         "--out", str(tmp_path / "q.json")]) == 0
        assert cli.main(["eval", "--embeddings", str(emb), "--metrics", "direction",
                         "--gender-list", str(gender), "--sembias", str(sembias),
                         "--top-biased", "5", "--out", str(tmp_path / "d.json")]) == 0
    finally:
        tracer.uninstall()

    names = {span[0] for span in tracer.spans}
    assert {"quality_eval.load_word_pairs", "quality_eval.load_sentence_pairs",
            "bias_metrics.load_sembias"} <= names


def test_trace_sizes_the_streamed_write(monkeypatch, tmp_path):
    # The benchmark's embedding_store.save_embeddings.mb_written is sink.tell()
    # after the call less sink.tell() before it, so the writer must write
    # every block through the sink it is given. Small blocks give many writes.
    import os

    from conftest import build_planted, write_embedding_file
    from fairvec import EmbeddingSet, cli, embedding_store

    monkeypatch.setattr(embedding_store, "_WRITE_VALUES", 64)
    planted = build_planted(n_neutral=60, dim=8, n_definition=4, seed=3)
    words = tuple("café" if word == "m0" else word for word in planted.embeddings.words)
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, EmbeddingSet(words, planted.embeddings.vectors))
    gender = tmp_path / "gender.txt"
    gender.write_text("\n".join(planted.gender_list) + "\n")
    out = str(tmp_path / "hsr.txt")

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["debias", "--embeddings", str(emb), "--gender-list", str(gender),
                         "--out", out]) == 0
    finally:
        tracer.uninstall()

    assert [span[0] for span in tracer.spans].count("embedding_store.save_embeddings") == 1
    assert tracer.counters["embedding_store.save_embeddings.bytes"] == os.path.getsize(out)
