"""The alpha-sweep workload: in-process library use on one loaded set.

    python3 perfbench/sweep.py CONFIG.json RESULT.json

CONFIG names the generated input directories (one per set-up repetition),
the time budget of the timed part, the least number of passes and whether
to trace. Each set-up
repetition loads one directory's embedding, selects the fixed biased-word
lists and makes one warm-up ``hsr_debias`` call, because the first call runs
about twice as slow as later ones. Each timed pass then runs ``hsr_debias``
over a fixed log-spaced alpha grid plus one ``hard_debias``, each followed by
``mean_abs_projection_bias`` and ``word_similarity_eval``. RESULT receives
the timings, the output checks and, when tracing, the spans.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time

import numpy as np

import calibrate
import checks
import spans

ALPHAS = tuple(float(a) for a in np.logspace(-1, 4, 12))
WARM_UP_ALPHA = 60.0
TOP_BIASED = 500
WORDSIM = "simlex999"


class Loaded:
    """One loaded input set and what every pass reuses."""

    def __init__(self, directory: str):
        import fairvec

        def read(name, parse, *args):
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                return parse(handle, *args)

        self.embeddings = read("vectors.txt", fairvec.load_embeddings)
        self.gender_list = tuple(read("gender_list.txt", fairvec.load_word_list))
        self.pairs = read(f"ws-{WORDSIM}.tsv", fairvec.load_word_pairs, WORDSIM)
        self.part = fairvec.partition(self.embeddings, self.gender_list)
        self.lists = fairvec.select_biased_words(self.embeddings, self.part, TOP_BIASED)
        fairvec.hsr_debias(self.embeddings, fairvec.HsrConfig(self.gender_list, WARM_UP_ALPHA))


def one_pass(data: Loaded, full_checks: bool):
    """Time every call of one pass; return timings, fingerprints and problems."""
    import fairvec

    clock = time.perf_counter
    debias_s, bias_s, quality_s, fingerprint, norms, problems = [], [], [], {}, [], []
    raw_total = 0.0
    attempted = 0
    before = calibrate.probe_s()
    for alpha in ALPHAS + (None,):
        config = fairvec.HsrConfig(data.gender_list, WARM_UP_ALPHA if alpha is None else alpha)
        t0 = clock()
        if alpha is None:
            result = fairvec.hard_debias(data.embeddings, config)
        else:
            result = fairvec.hsr_debias(data.embeddings, config)
        t1 = clock()
        bias = fairvec.mean_abs_projection_bias(result.embeddings, data.lists)
        t2 = clock()
        rho, _, _ = fairvec.word_similarity_eval(result.embeddings, data.pairs)
        t3 = clock()
        after = calibrate.probe_s()
        attempted += 3
        raw_total += t3 - t0
        debias_s.append(calibrate.scaled(t1 - t0, before, after))
        bias_s.append(calibrate.scaled(t2 - t1, before, after))
        quality_s.append(calibrate.scaled(t3 - t2, before, after))
        before = after
        name = "hard" if alpha is None else f"hsr.alpha={alpha!r}"
        fingerprint.update({f"{name}.gender_norm": result.gender_norm,
                            f"{name}.projection_bias": bias, f"{name}.spearman": rho})
        if alpha is not None:
            norms.append(result.gender_norm)
        if full_checks:
            vectors = result.embeddings.vectors
            problems += checks.definition_rows_kept(
                data.embeddings.words, data.embeddings.vectors, result.embeddings.words,
                vectors, data.part.definition_indices)
            if alpha is None:
                problems += checks.orthogonal_to_he_she(
                    list(result.embeddings.words), vectors, data.part.neutral_indices)
            else:
                fingerprint[f"{name}.sha256"] = array_digest(vectors)
    problems += checks.non_increasing(norms, "gender_norm along the alpha grid")
    return {"total_s": sum(debias_s) + sum(bias_s) + sum(quality_s), "raw_total_s": raw_total,
            "debias_s": debias_s, "eval_bias_s": sum(bias_s),
            "eval_quality_s": sum(quality_s), "attempted": attempted,
            "problems": problems}, fingerprint


def array_digest(vectors: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(vectors).tobytes()).hexdigest()


def main(config_path: str, result_path: str) -> int:
    with open(config_path, encoding="utf-8") as handle:
        config = json.load(handle)
    trace = config["trace"]
    out = {"setup_s": [], "raw_setup_s": [], "passes": [], "setup_spans": None,
           "problems": [], "attempted": 0}

    for index, directory in enumerate(config["dirs"]):
        data = None  # drop the previous set before loading the next
        tracer = spans.Tracer() if trace and index == len(config["dirs"]) - 1 else None
        if tracer:
            tracer.install()
        before = calibrate.probe_s()
        t0 = time.perf_counter()
        data = Loaded(directory)
        out["raw_setup_s"].append(time.perf_counter() - t0)
        out["setup_s"].append(calibrate.scaled(out["raw_setup_s"][-1], before,
                                               calibrate.probe_s()))
        if tracer:
            tracer.uninstall()
            out["setup_spans"] = tracer.dump()
        out["attempted"] += 5  # load, two list loads, selection, warm-up

    budget_end = time.perf_counter() + config["seconds"]
    first = None
    while True:
        traced = trace and len(out["passes"]) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        record, fingerprint = one_pass(data, full_checks=first is None or traced)
        if tracer:
            tracer.uninstall()
            record["dumps"] = [tracer.dump()]
        record["traced"] = traced
        out["attempted"] += record.pop("attempted")
        out["problems"] += record.pop("problems")
        if first is None:
            first = fingerprint
            out["reference_values"] = {k: v for k, v in fingerprint.items()
                                       if not k.endswith(".sha256")}
            out["tampering"] = [
                checks.tampered_row_caught(data.embeddings.words, data.embeddings.vectors,
                                           data.part.definition_indices),
                checks.tampered_values_caught(out["reference_values"])]
        else:
            shared = {k: v for k, v in first.items() if k in fingerprint}
            out["problems"] += checks.same_digests(shared, fingerprint, "sweep pass")
        out["passes"].append(record)
        times = [p["total_s"] for p in out["passes"]]
        if (len(times) >= config["min_passes"]
                and time.perf_counter() + statistics.median(times) > budget_end):
            break
    out["n_neutral"] = int(data.part.neutral_indices.size)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
