"""The benchmark's span tracer must find every function it wraps, the
package keeps no private helper that nothing uses and forks from one
function only, the README's command lines parse, and the test configuration
reports every result.

perfbench/spans.py patches the functions it lists in TRACED by name; a
refactor that drops or renames one would crash every traced benchmark run.
The module is loaded read-only from its file, without running the tracer.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import importlib.util
import re
import shlex
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
PACKAGE = SPANS.parent.parent / "src" / "fairvec"
PYPROJECT = SPANS.parent.parent / "pyproject.toml"
README = SPANS.parent.parent / "README.md"


def test_no_unreferenced_private_module_names():
    # A module-level private function, class or constant of the package that
    # no other statement in the package reads is dead code. A mention in a
    # comment or docstring, or a use by tests or the benchmark, does not count.
    defined, read_by = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
                targets = (statement.targets if isinstance(statement, ast.Assign)
                           else [statement.target])
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            else:
                names = []
            defined += [(path.name, name, statement) for name in names
                        if name.startswith("_") and not name.startswith("__")]
            read = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name)
            read_by.append((statement, read))
    dead = [f"{module}: {name}" for module, name, home in defined
            if not any(name in read for statement, read in read_by if statement is not home)]
    assert defined
    assert dead == []


def test_one_function_forks_reaps_and_kills():
    # The rules for child processes (no fork beside another thread, a child
    # that leaves without unwinding, every child reaped on every exit path)
    # live in one function, which every forked stage of the package calls.
    calls = {"fork", "waitpid", "kill", "_exit"}

    def references(node, owner):
        """(owner, name, line) of each use of a process call under `node`;
        the owner is the outermost function around it, None outside any."""
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr in calls
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield owner, node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from ((owner, alias.name, node.lineno) for alias in node.names
                        if alias.name in calls)
        for child in ast.iter_child_nodes(node):
            yield from references(child, owner)

    found = [(path.name, *reference) for path in sorted(PACKAGE.glob("*.py"))
             for reference in references(ast.parse(path.read_text(encoding="utf-8")), None)]
    owners = {(module, owner) for module, owner, _, _ in found}
    assert {name for _, _, name, _ in found} == calls
    assert len(owners) == 1 and None not in next(iter(owners)), found


def test_readme_command_lines_parse(tmp_path, monkeypatch):
    # Every fenced README block that starts with "fairvec ", and the part after
    # "--" of one that runs the span runner, is a command line the CLI must
    # accept as written: a renamed or dropped option fails here.
    from fairvec import cli

    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    commands, traced = [], 0
    for block in blocks:
        if block.startswith(("fairvec ", "python3 perfbench/spans.py ")):
            words = shlex.split(block.replace("\\\n", " "))
            traced += words[0] == "python3"
            commands.append(words[words.index("--") + 1:] if words[0] == "python3" else words[1:])
    assert {argv[0] for argv in commands} == {"debias", "eval", "compare"}
    assert traced

    def no_reading(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.chdir(tmp_path)  # where the examples' relative --out paths resolve
    monkeypatch.setattr(builtins, "open", no_reading)
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        assert cli._usage_error(args) is None, argv


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The python block under "Library", run as written on files it names.
    from conftest import build_planted, write_embedding_file

    [block] = re.findall(r"^## Library\n.*?^```python\n(.*?)^```",
                         README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL)
    planted = build_planted(n_neutral=1200, dim=20, seed=0)  # 600 words a side; it asks 500
    write_embedding_file(tmp_path / "vectors.txt", planted.embeddings)
    (tmp_path / "gender_words.txt").write_text("\n".join(planted.gender_list) + "\n",
                                               encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    [purity] = capsys.readouterr().out.split()
    assert 0.5 <= float(purity) <= 1.0


def test_a_failing_property_test_hides_no_other_result(tmp_path):
    # On a failure, hypothesis's pytest plugin imports libcst to suggest a
    # patch, and libcst raises a DeprecationWarning on import. Under the
    # repo's filterwarnings that must not end the run with INTERNALERROR.
    (tmp_path / "test_one_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 0\n\n\n"
        "def test_passes():\n"
        "    pass\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_one_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in done.stdout, output
    assert "INTERNALERROR" not in output


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


def test_trace_eval_against_debias_input_loads_no_text(tmp_path):
    # A direction eval of a debias output against that debias's input reads
    # both sets from the output's binary copy: the benchmark's text-load
    # metrics must see no load at all.
    from conftest import build_planted, write_embedding_file
    from fairvec import cli

    planted = build_planted(n_neutral=40, dim=8, n_definition=4, seed=3)
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, planted.embeddings)
    gender = tmp_path / "gender.txt"
    gender.write_text("\n".join(planted.gender_list) + "\n")
    hsr = str(tmp_path / "hsr.txt")
    assert cli.main(["debias", "--embeddings", str(emb), "--gender-list", str(gender),
                     "--out", hsr]) == 0

    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert cli.main(["eval", "--embeddings", hsr, "--original-embeddings", str(emb),
                         "--gender-list", str(gender), "--metrics", "direction",
                         "--top-biased", "5", "--out", str(tmp_path / "d.json")]) == 0
    finally:
        tracer.uninstall()

    names = [span[0] for span in tracer.spans]
    assert "bias_metrics.mean_abs_projection_bias" in names
    assert "embedding_store.load_embeddings" not in names
    assert tracer.counters.get("embedding_store.load_embeddings.bytes", 0) == 0
    assert names.count("embedding_store.EmbeddingSet") == 2


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

    def refuse(block, first, *args):
        raise AssertionError(f"line {first}: block re-read line by line")

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


def test_forked_writers_leave_the_trace_to_the_parent(tmp_path):
    # The children that format save_embeddings' row ranges leave through
    # os._exit. One that returned instead would unwind through the tracer's
    # spans and the runner's finally, and write its own spans.json over the
    # parent's. The runner is started with two usable CPUs, so it forks.
    import json
    import os
    import subprocess
    import sys

    import numpy as np
    from conftest import write_embedding_file
    from fairvec import EmbeddingSet

    rng = np.random.default_rng(9)
    words = ("he", "she") + tuple(f"w{i}" for i in range(598))
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, EmbeddingSet(words, rng.normal(size=(600, 300))))
    gender = tmp_path / "gender.txt"
    gender.write_text("he\nshe\n")
    out, spans_json = tmp_path / "hsr.txt", tmp_path / "spans.json"
    runner = "\n".join([
        "import os, runpy, sys",
        "real_fork = os.fork",
        "def announced_fork():",
        "    print('fork', file=sys.stderr, flush=True)",
        "    return real_fork()",
        "os.fork = announced_fork",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        f"runpy.run_path({str(SPANS)!r}, run_name='__main__')",
    ])
    done = subprocess.run(
        [sys.executable, "-c", runner, str(spans_json), "--", "debias", "--embeddings", str(emb),
         "--gender-list", str(gender), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SPANS.parent.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines().count("fork") == 1

    with open(spans_json, encoding="utf-8") as handle:
        trace = json.load(handle)
    names = [span[0] for span in trace["spans"]]
    assert names.count("cli.main") == 1
    assert names.count("embedding_store.save_embeddings") == 1
    assert trace["counters"]["embedding_store.save_embeddings.bytes"] == os.path.getsize(out)


def test_forked_parse_leaves_the_trace_to_the_parent(tmp_path):
    # A traced debias whose parse forks: the parent's load_embeddings span
    # sizes the whole file once, and the children, which leave through
    # os._exit, write no spans. Two usable CPUs and 4 KiB parse ranges give
    # one parse child and one writer child.
    import json
    import os
    import subprocess
    import sys

    import numpy as np
    from conftest import write_embedding_file
    from fairvec import EmbeddingSet

    rng = np.random.default_rng(10)
    words = ("he", "she", "café") + tuple(f"w{i}" for i in range(597))
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, EmbeddingSet(words, rng.normal(size=(600, 300))))
    gender = tmp_path / "gender.txt"
    gender.write_text("he\nshe\n")
    out, spans_json = tmp_path / "hsr.txt", tmp_path / "spans.json"
    runner = "\n".join([
        "import os, runpy, sys",
        "import fairvec.embedding_store",
        "fairvec.embedding_store._PARSE_BYTES = 4096",
        "real_fork = os.fork",
        "def announced_fork():",
        "    print('fork', file=sys.stderr, flush=True)",
        "    return real_fork()",
        "os.fork = announced_fork",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        f"runpy.run_path({str(SPANS)!r}, run_name='__main__')",
    ])
    done = subprocess.run(
        [sys.executable, "-c", runner, str(spans_json), "--", "debias", "--embeddings", str(emb),
         "--gender-list", str(gender), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SPANS.parent.parent / "src")),
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines().count("fork") == 2

    with open(spans_json, encoding="utf-8") as handle:
        trace = json.load(handle)
    names = [span[0] for span in trace["spans"]]
    assert names.count("cli.main") == 1
    assert names.count("embedding_store.load_embeddings") == 1
    assert trace["counters"]["embedding_store.load_embeddings.rows"] == 600
    assert trace["counters"]["embedding_store.load_embeddings.bytes"] == os.path.getsize(emb)
