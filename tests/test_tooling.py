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
