"""Span tracing around fairvec's public functions, from outside the program.

``Tracer.install`` replaces each traced function with a wrapper in every
fairvec module namespace that holds it: the CLI, ``debias``, ``bias_metrics``
and ``quality_eval`` import functions by name, so patching only the defining
module would miss most calls. ``EmbeddingSet`` construction is traced through
its ``__post_init__``. Spans (name, start, end, parent) stay in memory and are
written once, when the traced process ends.

Run as a script, this module is the traced child-process runner:

    python3 perfbench/spans.py SPANS.json -- debias --embeddings ...

It installs the tracer, calls ``fairvec.cli.main(argv)`` inside a
``cli.main`` span, writes the spans to SPANS.json and exits with the CLI's
code.
"""

from __future__ import annotations

import json
import os
import sys
import time

# Functions with at most about 10^4 calls in one benchmark process.
# EmbeddingSet.index (about 1.5M calls per relation eval) is left out.
TRACED = {
    "embedding_store": ("load_embeddings", "save_embeddings", "load_word_list", "partition",
                        "nearest_neighbors"),
    "debias": ("hsr_debias", "hard_debias", "approximate_gender_info"),
    "matrix_core": ("solve_ridge", "cosine_similarity", "kmeans", "train_linear_classifier",
                    "pearson", "spearman", "purity"),
    "bias_metrics": ("select_biased_words", "mean_abs_projection_bias", "sembias_eval",
                     "gbwr_clustering", "bias_by_neighbors", "gbwr_correlation",
                     "gbwr_profession", "weat_test", "gbwr_classification", "load_sembias",
                     "load_weat_spec"),
    "quality_eval": ("word_similarity_eval", "sentence_embedding", "sts_eval",
                     "load_word_pairs", "load_sentence_pairs", "yearly_average"),
    "cli": ("cmd_debias", "cmd_eval", "cmd_compare"),
}
LAYERS = tuple(TRACED)
MAIN = "cli.main"


def _input_bytes(source) -> int:
    name = getattr(source, "name", None)
    return os.path.getsize(name) if isinstance(name, str) and os.path.exists(name) else 0


class Tracer:
    """Records one span per call of a traced function."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def _with_counts(self, name: str, fn):
        """Wrap the functions whose per-layer metrics need sizes, not just times."""
        if name == "embedding_store.load_embeddings":
            def counted(source, *args, **kwargs):
                result = fn(source, *args, **kwargs)
                self._count(name + ".rows", len(result))
                self._count(name + ".bytes", _input_bytes(source))
                return result
        elif name == "embedding_store.save_embeddings":
            def counted(embeddings, sink, *args, **kwargs):
                before = sink.tell()
                fn(embeddings, sink, *args, **kwargs)
                self._count(name + ".bytes", sink.tell() - before)
        elif name == "matrix_core.solve_ridge":
            def counted(a, b, alpha):
                result = fn(a, b, alpha)
                (d, m), n = a.shape, result.weights.shape[1]
                # A^T A, A^T B, Cholesky, triangular solves: computed, not measured
                self._count(name + ".flop", 2 * d * m * m + 2 * d * m * n + m ** 3 / 3
                            + 2 * m * m * n)
                return result
        else:
            return fn
        return counted

    def install(self) -> None:
        import fairvec  # noqa: F401  (loads every submodule)
        from fairvec import cli  # noqa: F401
        from fairvec.embedding_store import EmbeddingSet

        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "fairvec" or key.startswith("fairvec."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"fairvec.{layer}"]
            for short in names:
                original = getattr(home, short)
                wrapped = self.span(f"{layer}.{short}",
                                    self._with_counts(f"{layer}.{short}", original))
                for module in modules:
                    if getattr(module, short, None) is original:
                        self._patch(module, short, wrapped)
        post_init = EmbeddingSet.__post_init__
        self._patch(EmbeddingSet, "__post_init__", self.span("embedding_store.EmbeddingSet", post_init))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


def summarize(dumps: list[dict]) -> dict:
    """Per-name call counts, inclusive and self seconds, and summed counters.

    Self time is a span's duration minus the durations of its direct
    children; traced code is single-threaded, so children never overlap.
    """
    out: dict[str, float] = {}
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + (end - start)
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - inner)
        for key, value in dump["counters"].items():
            out[key] = out.get(key, 0.0) + value
    return out


def main(argv: list[str]) -> int:
    spans_path, separator, cli_argv = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: spans.py SPANS.json -- <fairvec cli arguments>")
    tracer = Tracer()
    tracer.install()
    from fairvec.cli import main as cli_main

    try:
        return tracer.span(MAIN, cli_main)(cli_argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.dump(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
