#!/usr/bin/env python3
"""fairvec benchmark: times the CLI and the library from outside the program.

    python3 perfbench/run.py --workload text-pipeline --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Inputs are generated from ``--seed`` into ``.bench_work/`` (removed again at
the end). Each run sets up three times and reports the median set-up time,
then repeats the workload's timed pass until ``--seconds`` is used up (at
least twice) and reports medians over the passes. Every output is checked;
a failed check counts as a failed operation. The last line of standard
output is one JSON object: end-to-end metrics with ``--trace 0``, per-layer
metrics from a traced run with ``--trace 1``. README.md in this directory
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# One BLAS thread in this process and every child: steadier timings on a
# shared machine, and never more threads than cores.
THREADS = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREADS)
sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1", **THREADS)
CHILD_TIMEOUT_S = 120
SETUP_REPS = 3
MIN_PASSES = 2
DEFAULT_SEED = 0
EVAL_SEED = "42"
MB = 2 ** 20
# Rows of the generated embedding (300 dims, 202 definition words each).
ROWS = {"text-pipeline": 3000, "metric-battery": 2500, "alpha-sweep": 10000}
RELATION_OPTIONS = ("--top-biased", "150", "--neighbors", "30",
                    "--classify-n", "600", "--classify-train", "150")
REFERENCE = os.path.join(HERE, "reference.json")

END_TO_END = (  # name, unit
    ("setup_s", "s"), ("total_s", "s"), ("debias_s", "s"), ("debias_rows_per_s", "rows/s"),
    ("eval_bias_s", "s"), ("eval_quality_s", "s"), ("peak_rss_mb", "MB"),
    ("debias_peak_rss_mb", "MB"),
)
# Per-layer metrics: name, unit. "<fn>.s" is self time, "<fn>.calls" a call count.
PER_LAYER = (
    ("embedding_store.self_s", "s"),
    ("embedding_store.load_embeddings.s", "s"), ("embedding_store.load_embeddings.calls", "count"),
    ("embedding_store.load_embeddings.rows", "count"),
    ("embedding_store.load_embeddings.mb_read", "MB"),
    ("embedding_store.load_embeddings.mb_per_s", "MB/s"),
    ("embedding_store.save_embeddings.s", "s"),
    ("embedding_store.save_embeddings.mb_written", "MB"),
    ("embedding_store.EmbeddingSet.s", "s"), ("embedding_store.EmbeddingSet.calls", "count"),
    ("embedding_store.nearest_neighbors.s", "s"),
    ("embedding_store.nearest_neighbors.calls", "count"),
    ("debias.self_s", "s"), ("debias.hsr_debias.s", "s"), ("debias.hsr_debias.calls", "count"),
    ("debias.hard_debias.s", "s"),
    ("matrix_core.self_s", "s"), ("matrix_core.solve_ridge.s", "s"),
    ("matrix_core.solve_ridge.calls", "count"),
    ("matrix_core.solve_ridge.computed_gflop", "gflop"),
    ("matrix_core.solve_ridge.computed_gflop_per_s", "gflop/s"),
    ("matrix_core.cosine_similarity.s", "s"), ("matrix_core.cosine_similarity.calls", "count"),
    ("matrix_core.kmeans.s", "s"), ("matrix_core.train_linear_classifier.s", "s"),
    ("bias_metrics.self_s", "s"), ("bias_metrics.select_biased_words.s", "s"),
    ("bias_metrics.select_biased_words.calls", "count"), ("bias_metrics.gbwr_correlation.s", "s"),
    ("bias_metrics.bias_by_neighbors.calls", "count"), ("bias_metrics.gbwr_profession.s", "s"),
    ("bias_metrics.weat_test.s", "s"), ("bias_metrics.weat_test.calls", "count"),
    ("bias_metrics.gbwr_clustering.s", "s"), ("bias_metrics.gbwr_classification.s", "s"),
    ("bias_metrics.sembias_eval.s", "s"), ("bias_metrics.mean_abs_projection_bias.s", "s"),
    ("quality_eval.self_s", "s"), ("quality_eval.word_similarity_eval.s", "s"),
    ("quality_eval.sts_eval.s", "s"), ("quality_eval.sentence_embedding.calls", "count"),
    ("quality_eval.load_sentence_pairs.s", "s"),
    ("cli.self_s", "s"), ("cli.cmd_debias.self_s", "s"), ("cli.cmd_eval.self_s", "s"),
    ("cli.cmd_compare.self_s", "s"), ("cli.process_start_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
DIRECTION_KEYS = ("projection_bias", "sembias_acc", "sembias_subset_acc")
RELATION_KEYS = ("gbwr_purity", "gbwr_correlation", "gbwr_profession", "gbwr_classification_acc",
                 *(f"weat_pvalues.{name}.p_value" for name, _, _ in gen.WEAT_SHAPES))
QUALITY_KEYS = (*(f"word_similarity.{name}.spearman" for name in gen.WORDSIM_SIZES),
                *(f"sts.{year}/{task}.pearson_x100"
                  for year, tasks in gen.STS_TASKS.items() for task in tasks),
                *(f"sts_yearly_average.{year}" for year in gen.STS_TASKS))


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    spawned: float  # perf_counter at spawn; the clock is shared by all processes
    stderr: str
    scaled_s: float = 0.0  # wall_s at the reference machine speed, see calibrate.py


def run_child(cmd: list[str]) -> Child:
    """Run one process to completion; wall time and peak RSS from wait4."""
    err_path = os.path.join(WORK, "child.stderr")
    with open(err_path, "wb") as err:
        spawned = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, spawned, stderr)


class Run:
    """State of one benchmark run: timings, process accounting, check results."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.rows = ROWS[workload]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup_s: list[float] = []  # scaled, see calibrate.py
        self.raw_setup_s: list[float] = []
        self.setup_dumps: list[dict] = []
        self.passes: list[dict] = []
        self.debias_s: list[float] = []  # untraced debias operations
        self.rss_mb: list[float] = []
        self.debias_rss_mb: list[float] = []
        self.reference_values: dict = {}
        self.tampering: list[bool] = []
        self.n_neutral = self.rows - gen.N_DEFINITION
        self.last_probe_s: float | None = None

    def probe_before(self) -> float:
        if self.last_probe_s is None:
            self.last_probe_s = calibrate.probe_s()
        return self.last_probe_s

    def probe_after(self, wall_s: float, before_s: float) -> float:
        """Scale a wall time by the probes taken right before and after it."""
        self.last_probe_s = calibrate.probe_s()
        return calibrate.scaled(wall_s, before_s, self.last_probe_s)

    def operation(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]

    def cli(self, argv: list[str], dumps: list | None = None) -> tuple[Child, list[str]]:
        """Run one fairvec CLI process, traced when ``dumps`` is a list."""
        before = self.probe_before()
        if dumps is None:
            child = run_child([sys.executable, "-m", "fairvec.cli", *argv])
        else:
            spans_path = os.path.join(WORK, "spans.json")
            child = run_child([sys.executable, os.path.join(HERE, "spans.py"), spans_path,
                               "--", *argv])
            if os.path.exists(spans_path):
                with open(spans_path, encoding="utf-8") as handle:
                    dump = json.load(handle)
                os.remove(spans_path)
                main_start = next(s[1] for s in dump["spans"] if s[0] == spans.MAIN)
                dump["counters"]["cli.process_start_s"] = main_start - child.spawned
                dumps.append(dump)
        child.scaled_s = self.probe_after(child.wall_s, before)
        self.rss_mb.append(child.rss_mb)
        problems = [] if child.code == 0 else [
            f"exit code {child.code}: {child.stderr.strip().splitlines()[-1:]}"]
        return child, problems

    def set_up(self, extra=None) -> gen.Inputs:
        """Generate the inputs SETUP_REPS times, plus any program work in set-up."""
        for rep in range(SETUP_REPS):
            traced = self.trace and rep == SETUP_REPS - 1
            before = self.probe_before()
            start = time.perf_counter()
            inputs = gen.generate(os.path.join(WORK, f"setup{rep}"), self.seed, self.rows)
            if extra:
                extra(inputs, rep, self.setup_dumps if traced else None)
            wall = time.perf_counter() - start
            self.raw_setup_s.append(wall)
            self.setup_s.append(self.probe_after(wall, before))
        return inputs

    def timed(self, one_pass) -> None:
        """Repeat the timed pass until the budget is spent; traced runs alternate."""
        end = time.perf_counter() + self.seconds
        while True:
            traced = self.trace and len(self.passes) % 2 == 1
            self.last_probe_s = None
            record = one_pass(traced, first=not self.passes)
            record["traced"] = traced
            self.passes.append(record)
            totals = [p["total_s"] for p in self.passes]
            if len(totals) >= MIN_PASSES and time.perf_counter() + statistics.median(totals) > end:
                return


def quality_args(inputs: gen.Inputs) -> list[str]:
    args = []
    for name, path in inputs.wordsim:
        args += ["--wordsim", f"{name}={path}"]
    for name, path in inputs.sts:
        args += ["--sts", f"{name}={path}"]
    return args


def definition_rows(words: list[str], gender_list_path: str) -> list[int]:
    with open(gender_list_path, encoding="utf-8") as handle:
        gender = {line.strip() for line in handle if line.strip() and not line.startswith("#")}
    return [i for i, word in enumerate(words) if word in gender]


class Outputs:
    """Digests of one pass's outputs, compared with the first pass's."""

    def __init__(self):
        self.first: dict[str, str] | None = None

    def compare(self, paths: dict[str, str]) -> list[str]:
        current = {name: checks.digest(path) for name, path in paths.items()}
        if self.first is None:
            self.first = current
            return []
        return checks.same_digests(self.first, current, "repeated command")


def text_pipeline(run: Run) -> None:
    """Debias with hsr, then a direction and a quality eval, all through the CLI."""
    inputs = run.set_up()
    words, original = checks.read_vectors(inputs.embeddings)
    definition = definition_rows(words, inputs.gender_list)
    out = os.path.join(WORK, "out")
    os.makedirs(out)
    hsr, direction, quality = (os.path.join(out, n) for n in ("hsr.txt", "direction.json",
                                                               "quality.json"))
    debias_argv = ["debias", "--embeddings", inputs.embeddings, "--gender-list",
                   inputs.gender_list, "--method", "hsr", "--out", hsr]
    direction_argv = ["eval", "--embeddings", hsr, "--original-embeddings", inputs.embeddings,
                      "--gender-list", inputs.gender_list, "--metrics", "direction",
                      "--sembias", inputs.sembias, "--seed", EVAL_SEED, "--label", "hsr",
                      "--out", direction]
    quality_argv = ["eval", "--embeddings", hsr, "--metrics", "quality", *quality_args(inputs),
                    "--seed", EVAL_SEED, "--label", "hsr", "--out", quality]
    outputs = Outputs()

    def one_pass(traced: bool, first: bool) -> dict:
        dumps = [] if traced else None
        debias, debias_problems = run.cli(debias_argv, dumps)
        dir_eval, dir_problems = run.cli(direction_argv, dumps)
        quality_eval, quality_problems = run.cli(quality_argv, dumps)
        children = (debias, dir_eval, quality_eval)

        run.debias_rss_mb.append(debias.rss_mb)
        if not traced:
            run.debias_s.append(debias.scaled_s)
        if first and not debias_problems:
            out_words, vectors = checks.read_vectors(hsr)
            debias_problems += checks.definition_rows_kept(words, original, out_words, vectors,
                                                           definition)
            run.tampering += [checks.tampered_row_caught(words, vectors, definition)]
        dir_metrics, problems = checks.report(direction, DIRECTION_KEYS)
        dir_problems += problems
        quality_metrics, problems = checks.report(quality, QUALITY_KEYS)
        quality_problems += problems
        repeat = outputs.compare({"hsr": hsr, "hsr.meta": hsr + ".meta.json",
                                  "direction": direction, "quality": quality})
        run.operation("debias", debias_problems + [p for p in repeat if "hsr" in p])
        run.operation("eval direction", dir_problems + [p for p in repeat if "direction" in p])
        run.operation("eval quality", quality_problems + [p for p in repeat if "quality" in p])
        if first:
            with open(hsr + ".meta.json", encoding="utf-8") as handle:
                run.reference_values["debias.gender_norm"] = json.load(handle)["gender_norm"]
            run.reference_values.update({f"direction.{k}": v for k, v in dir_metrics.items()})
            run.reference_values.update({f"quality.{k}": v for k, v in quality_metrics.items()})
            if not dir_problems:
                run.tampering += [checks.tampered_report_caught(direction)]
        return {"total_s": sum(c.scaled_s for c in children),
                "raw_total_s": sum(c.wall_s for c in children),
                "eval_bias_s": dir_eval.scaled_s, "eval_quality_s": quality_eval.scaled_s,
                "dumps": dumps}

    run.timed(one_pass)


def metric_battery(run: Run) -> None:
    """Relation and quality evals of the original, hsr and hard sets, then compare."""
    labels = ("original", "hsr", "hard")
    debiased_digests: dict[str, str] = {}

    def debias_both(inputs: gen.Inputs, rep: int, dumps) -> None:
        directory = os.path.dirname(inputs.embeddings)
        for method in ("hsr", "hard"):
            out = os.path.join(directory, f"{method}.txt")
            child, problems = run.cli(["debias", "--embeddings", inputs.embeddings,
                                       "--gender-list", inputs.gender_list, "--method", method,
                                       "--out", out], dumps)
            run.debias_rss_mb.append(child.rss_mb)
            if dumps is None:
                run.debias_s.append(child.scaled_s)
            if not problems:
                # every set-up repetition reruns the same command on the same input
                digest = checks.digest(out)
                first = debiased_digests.setdefault(method, digest)
                problems = checks.same_digests({method: first}, {method: digest},
                                               "repeated debias")
            run.operation(f"debias {method}", problems)

    inputs = run.set_up(debias_both)
    directory = os.path.dirname(inputs.embeddings)
    embeddings = {"original": inputs.embeddings, "hsr": os.path.join(directory, "hsr.txt"),
                  "hard": os.path.join(directory, "hard.txt")}
    words, original = checks.read_vectors(inputs.embeddings)
    definition = definition_rows(words, inputs.gender_list)
    neutral = sorted(set(range(len(words))) - set(definition))
    for method in ("hsr", "hard"):
        out_words, vectors = checks.read_vectors(embeddings[method])
        problems = checks.definition_rows_kept(words, original, out_words, vectors, definition)
        if method == "hard":
            problems += checks.orthogonal_to_he_she(out_words, vectors, neutral)
        run.operation(f"check {method} output", problems)
        with open(embeddings[method] + ".meta.json", encoding="utf-8") as handle:
            run.reference_values[f"{method}.gender_norm"] = json.load(handle)["gender_norm"]
    run.tampering += [checks.tampered_row_caught(words, vectors, definition)]

    out = os.path.join(WORK, "out")
    os.makedirs(out)
    relation = {label: os.path.join(out, f"relation-{label}.json") for label in labels}
    quality = {label: os.path.join(out, f"quality-{label}.json") for label in labels}
    table = os.path.join(out, "table.tsv")
    relation_args = ["--original-embeddings", inputs.embeddings, "--gender-list",
                     inputs.gender_list, "--metrics", "relation",
                     *(a for path in inputs.weat for a in ("--weat", path)),
                     "--professions", inputs.professions, *RELATION_OPTIONS]
    outputs = Outputs()

    def one_pass(traced: bool, first: bool) -> dict:
        dumps = [] if traced else None
        results = []
        for label in labels:
            results.append(("relation", label, run.cli(
                ["eval", "--embeddings", embeddings[label], *relation_args, "--seed", EVAL_SEED,
                 "--label", label, "--out", relation[label]], dumps)))
        for label in labels:
            results.append(("quality", label, run.cli(
                ["eval", "--embeddings", embeddings[label], "--metrics", "quality",
                 *quality_args(inputs), "--seed", EVAL_SEED, "--label", label,
                 "--out", quality[label]], dumps)))
        compare = run.cli(["compare", *relation.values(), *quality.values(), "--out", table],
                          dumps)
        children = [child for _, _, (child, _) in results] + [compare[0]]

        paths = {f"{group}-{label}": (relation if group == "relation" else quality)[label]
                 for group, label, _ in results}
        paths.update({f"professions-{label}": relation[label][:-5] + ".professions.tsv"
                      for label in labels})
        paths["table"] = table
        repeat = outputs.compare(paths)
        for group, label, (child, problems) in results:
            keys = RELATION_KEYS if group == "relation" else QUALITY_KEYS
            metrics, report_problems = checks.report(paths[f"{group}-{label}"], keys)
            mine = [p for p in repeat if f"{group}-{label}" in p or
                    (group == "relation" and f"professions-{label}" in p)]
            run.operation(f"eval {group} {label}", problems + report_problems + mine)
            if first:
                run.reference_values.update({f"{group}.{label}.{k}": v
                                             for k, v in metrics.items()})
        compare_problems = compare[1] + [p for p in repeat if "table" in p]
        if not compare_problems:
            with open(table, encoding="utf-8") as handle:
                rows = [line.split("\t") for line in handle.read().splitlines()]
            if rows[0][1:] != [*labels, *(f"{label}+" for label in labels)]:
                compare_problems.append(f"unexpected table columns {rows[0]}")
            # every metric row is complete for the relation or for the quality reports
            if any("" in row[1:4] and "" in row[4:] for row in rows[1:]):
                compare_problems.append("a metric row has blank cells in both report groups")
        run.operation("compare", compare_problems)
        if first and not run.problems:
            run.tampering += [checks.tampered_report_caught(relation["hsr"])]
        return {"total_s": sum(c.scaled_s for c in children),
                "raw_total_s": sum(c.wall_s for c in children),
                "eval_bias_s": sum(c.scaled_s for g, _, (c, _) in results if g == "relation"),
                "eval_quality_s": sum(c.scaled_s for g, _, (c, _) in results if g == "quality"),
                "dumps": dumps}

    run.timed(one_pass)


def alpha_sweep(run: Run) -> None:
    """Library use in one worker process; see sweep.py."""
    generated, raw_generated = [], []
    for rep in range(SETUP_REPS):
        before = run.probe_before()
        start = time.perf_counter()
        gen.generate(os.path.join(WORK, f"setup{rep}"), run.seed, run.rows)
        raw_generated.append(time.perf_counter() - start)
        generated.append(run.probe_after(raw_generated[-1], before))
    config_path = os.path.join(WORK, "sweep-config.json")
    result_path = os.path.join(WORK, "sweep-result.json")
    with open(config_path, "w", encoding="utf-8") as handle:
        json.dump({"dirs": [os.path.join(WORK, f"setup{rep}") for rep in range(SETUP_REPS)],
                   "seconds": run.seconds, "min_passes": MIN_PASSES, "trace": run.trace},
                  handle)
    child = run_child([sys.executable, os.path.join(HERE, "sweep.py"), config_path, result_path])
    run.rss_mb.append(child.rss_mb)
    run.debias_rss_mb.append(child.rss_mb)
    if child.code != 0:
        run.operation("sweep worker", [f"exit code {child.code}: {child.stderr[-2000:]}"])
        return
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    run.setup_s = [g + s for g, s in zip(generated, result["setup_s"])]
    run.raw_setup_s = [g + s for g, s in zip(raw_generated, result["raw_setup_s"])]
    if result["setup_spans"]:
        run.setup_dumps = [result["setup_spans"]]
    run.attempted += result["attempted"]
    run.failed += min(len(result["problems"]), result["attempted"])
    run.problems += result["problems"]
    run.reference_values = result["reference_values"]
    run.tampering = result["tampering"]
    run.n_neutral = result["n_neutral"]
    for record in result["passes"]:
        if not record["traced"]:
            run.debias_s += record["debias_s"]
        run.passes.append(record)


WORKLOADS = {"text-pipeline": text_pipeline, "metric-battery": metric_battery,
             "alpha-sweep": alpha_sweep}


def end_to_end(run: Run) -> dict:
    untraced = [p for p in run.passes if not p["traced"]]
    debias_s = statistics.median(run.debias_s)
    values = {
        "setup_s": statistics.median(run.setup_s),
        "total_s": statistics.median(p["total_s"] for p in untraced),
        "debias_s": debias_s,
        "debias_rows_per_s": run.n_neutral / debias_s,
        "eval_bias_s": statistics.median(p["eval_bias_s"] for p in untraced),
        "eval_quality_s": statistics.median(p["eval_quality_s"] for p in untraced),
        "peak_rss_mb": max(run.rss_mb),
        "debias_peak_rss_mb": max(run.debias_rss_mb),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_self_s(summary: dict, layer: str) -> float:
    return sum(value for key, value in summary.items()
               if key.startswith(layer + ".") and key.endswith(".self_s"))


def timed_split(run: Run) -> str:
    """Each layer's share of the traced passes' self time, process start included."""
    summary = spans.summarize([d for p in run.passes if p["traced"] for d in p["dumps"]])
    parts = {layer: layer_self_s(summary, layer) for layer in spans.LAYERS}
    parts["process start"] = summary.get("cli.process_start_s", 0.0)
    whole = sum(parts.values()) or 1.0
    return ", ".join(f"{name} {100 * value / whole:.0f}%"
                     for name, value in sorted(parts.items(), key=lambda kv: -kv[1]))


def per_layer(run: Run) -> dict:
    """Traced set-up plus the median traced pass, per function and per layer."""
    traced = [spans.summarize(p["dumps"]) for p in run.passes if p["traced"]]
    setup = spans.summarize(run.setup_dumps)
    keys = set(setup).union(*traced)
    v = {key: setup.get(key, 0) + statistics.median(s.get(key, 0) for s in traced)
         for key in keys}

    def get(key):
        return v.get(key, 0)

    values = {}
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = layer_self_s(v, layer)
    load = "embedding_store.load_embeddings"
    values[f"{load}.rows"] = get(f"{load}.rows")
    values[f"{load}.mb_read"] = get(f"{load}.bytes") / MB
    values[f"{load}.mb_per_s"] = (values[f"{load}.mb_read"] / get(f"{load}.total_s")
                                  if get(f"{load}.total_s") else 0.0)
    save = "embedding_store.save_embeddings"
    values[f"{save}.mb_written"] = get(f"{save}.bytes") / MB
    ridge = "matrix_core.solve_ridge"
    values[f"{ridge}.computed_gflop"] = get(f"{ridge}.flop") / 1e9
    values[f"{ridge}.computed_gflop_per_s"] = (values[f"{ridge}.computed_gflop"]
                                               / get(f"{ridge}.total_s")
                                               if get(f"{ridge}.total_s") else 0.0)
    values["cli.process_start_s"] = get("cli.process_start_s")
    untraced = statistics.median(p["total_s"] for p in run.passes if not p["traced"])
    values["trace.overhead_frac"] = (
        statistics.median(p["total_s"] for p in run.passes if p["traced"]) / untraced - 1.0)
    out = {}
    for name, unit in PER_LAYER:
        if name not in values:
            base, _, kind = name.rpartition(".")
            values[name] = get(f"{base}.self_s") if kind in ("s", "self_s") else get(name)
        out[name] = {"value": values[name], "unit": unit}
    return out


def memory_preflight(rows: int) -> str | None:
    """Reason to skip when the estimated peak RSS does not fit in MemAvailable."""
    need_mb = 200 + 12 * rows * gen.DIM * 8 / MB  # interpreter + about 12 matrix copies
    try:
        with open("/proc/meminfo", encoding="ascii") as handle:
            fields = dict(line.split(":", 1) for line in handle)
        available_mb = int(fields["MemAvailable"].split()[0]) / 1024
    except (OSError, KeyError, ValueError):
        return None
    if need_mb > available_mb:
        return f"needs about {need_mb:.0f} MB but {available_mb:.0f} MB is available"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's output values as the default seed's reference")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fairvec", "cli.py")):
        print(f"error: no fairvec sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    reason = memory_preflight(ROWS[args.workload])
    if reason:
        print(f"skipped {args.workload}: {reason}", file=sys.stderr)
        return 3

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        WORKLOADS[args.workload](run)
    except Exception:  # a broken program must still end in a result line
        run.operation("benchmark", [traceback.format_exc()])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if args.seed == DEFAULT_SEED:
        if args.write_reference:
            stored = {}
            if os.path.exists(REFERENCE):
                with open(REFERENCE, encoding="utf-8") as handle:
                    stored = json.load(handle)
            stored[args.workload] = run.reference_values
            with open(REFERENCE, "w", encoding="utf-8") as handle:
                json.dump(stored, handle, indent=1, sort_keys=True)
                handle.write("\n")
        reference = {}
        if os.path.exists(REFERENCE):
            with open(REFERENCE, encoding="utf-8") as handle:
                reference = json.load(handle).get(args.workload, {})
        run.operation("reference values", checks.against_reference(run.reference_values,
                                                                    reference))

    caught = sum(bool(t) for t in run.tampering)
    complete = bool(run.passes) and any(not p["traced"] for p in run.passes)
    correct = complete and run.failed == 0 and caught == len(run.tampering) > 0
    metrics = {}
    if complete:
        metrics = per_layer(run) if args.trace else end_to_end(run)
    print(f"workload {args.workload}, seed {args.seed}, {len(run.passes)} timed passes"
          f" ({sum(p['traced'] for p in run.passes)} traced), {SETUP_REPS} set-ups")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if complete:
        raw_total = statistics.median(p["raw_total_s"] for p in run.passes if not p["traced"])
        print(f"  unscaled wall time: setup_s = {statistics.median(run.raw_setup_s):.6g} s,"
              f" total_s = {raw_total:.6g} s")
        print("  scaled pass totals: " + ", ".join(
            f"{p['total_s']:.4g}{' (traced)' if p['traced'] else ''}" for p in run.passes))
        if args.trace:
            print(f"  timed-pass split: {timed_split(run)}")
    print(f"  failed_frac = {run.failed / max(run.attempted, 1):.6g} ratio"
          f" ({run.failed} of {run.attempted} operations)")
    print(f"  self-check: {caught} of {len(run.tampering)} tampered outputs counted as failed")
    for problem in run.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
