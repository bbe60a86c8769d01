"""Output checks whose failures count in the benchmark's ``failed`` total.

Every check returns a list of problems; an empty list means the output
passed. The checks hold for any seed, except ``against_reference``, which
compares with values stored for the default seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

# Orthogonality of hard-debiased rows to unit(he - she), relative to 1 + |row|.
ORTHOGONAL_TOL = 1e-10
# Reference tolerances from tests/test_acceptance.py: 1e-6 for closed-form
# values (criterion 1), 0.02 for sampled permutation p-values (criterion 5).
VALUE_TOL = 1e-6
P_VALUE_TOL = 0.02


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def read_vectors(path: str) -> tuple[list[str], np.ndarray]:
    """Words and float64 rows of a headerless embedding text file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    words, values = [], []
    for line in lines:
        word, _, rest = line.partition(" ")
        words.append(word)
        values.append(rest)
    flat = np.array(" ".join(values).split(), dtype=np.float64)
    return words, flat.reshape(len(lines), -1)


def flatten(value, prefix: str = "") -> dict:
    """Dotted keys for a report's nested metrics; lists are keyed by "name"."""
    out = {}
    if isinstance(value, dict):
        for key in sorted(value):
            out.update(flatten(value[key], f"{prefix}.{key}" if prefix else str(key)))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            key = str(item.get("name", index)) if isinstance(item, dict) else str(index)
            if isinstance(item, dict):
                item = {k: v for k, v in item.items() if k != "name"}
            out.update(flatten(item, f"{prefix}.{key}" if prefix else key))
    else:
        out[prefix] = value
    return out


def report(path: str, expected_keys) -> tuple[dict, list[str]]:
    """Flattened metrics of an eval report, and its problems."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:
        return {}, [f"{path}: unreadable report ({exc})"]
    problems = []
    if document.get("errors"):
        problems.append(f"{path}: errors block is not empty: {document['errors']}")
    metrics = flatten(document.get("metrics", {}))
    missing = sorted(set(expected_keys) - set(metrics))
    if missing:
        problems.append(f"{path}: missing metric keys {missing[:5]}")
    return metrics, problems


def definition_rows_kept(input_words, input_vectors, words, vectors, definition) -> list[str]:
    """Same vocabulary in the same order, definition rows bit-identical."""
    if list(words) != list(input_words):
        return ["vocabulary or its order changed"]
    if vectors.shape != input_vectors.shape:
        return [f"shape {vectors.shape} differs from input {input_vectors.shape}"]
    if not np.array_equal(vectors[definition].view(np.uint64),
                          input_vectors[definition].view(np.uint64)):
        return ["definition rows are not bit-identical to the input"]
    return []


def orthogonal_to_he_she(words, vectors, neutral) -> list[str]:
    """Hard-debiased neutral rows have no component along unit(he - she)."""
    direction = vectors[words.index("he")] - vectors[words.index("she")]
    direction = direction / np.linalg.norm(direction)
    rows = vectors[neutral]
    residual = np.abs(rows @ direction) / (1.0 + np.linalg.norm(rows, axis=1))
    worst = float(residual.max())
    if worst > ORTHOGONAL_TOL:
        return [f"hard-debiased rows keep a he-she component ({worst:.3g})"]
    return []


def non_increasing(values, what: str) -> list[str]:
    bad = [i for i in range(len(values) - 1) if values[i + 1] > values[i]]
    return [f"{what} increases at grid step {bad[0]}: {values}"] if bad else []


def same_digests(first: dict, later: dict, what: str) -> list[str]:
    """Outputs of a repeated command are byte-identical to the first run's."""
    return [f"{what}: {name} differs from the first run"
            for name in sorted(first) if later.get(name) != first[name]]


def against_reference(observed: dict, reference: dict) -> list[str]:
    """Values within the acceptance-test tolerances of the stored reference."""
    problems = []
    for key, expected in sorted(reference.items()):
        value = observed.get(key)
        if isinstance(expected, float) and isinstance(value, (int, float)):
            tol = P_VALUE_TOL if key.endswith("p_value") else VALUE_TOL * max(1.0, abs(expected))
            ok = math.isfinite(value) and abs(value - expected) <= tol
        else:
            ok = value == expected
        if not ok:
            problems.append(f"{key}: {value!r} differs from reference {expected!r}")
    return problems


def tampered_row_caught(words, vectors, definition) -> bool:
    """A definition-row value moved by one ulp must fail the row check."""
    moved = vectors.copy()
    moved[definition[0], 0] = np.nextafter(moved[definition[0], 0], np.inf)
    return bool(definition_rows_kept(words, vectors, words, moved, definition))


def tampered_values_caught(values: dict) -> bool:
    """One changed value must fail both the repeat and the reference comparison."""
    key = next(k for k, v in sorted(values.items()) if isinstance(v, float))
    tampered = dict(values, **{key: values[key] + 1e-3 * max(1.0, abs(values[key]))})
    return bool(same_digests(values, tampered, "values")) and bool(
        against_reference(tampered, values))


def tampered_report_caught(path: str) -> bool:
    """A report with one digit of a metric value changed must fail the checks."""
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    # the leading digit of the first numeric metric value
    position = re.compile(rb'": -?(\d)').search(data, data.index(b'"metrics"')).start(1)
    data[position] = ord("1") if data[position] != ord("1") else ord("2")
    good, _ = report(path, ())
    tampered = flatten(json.loads(data.decode("utf-8"))["metrics"])
    return (hashlib.sha256(bytes(data)).hexdigest() != digest(path)
            and bool(against_reference(tampered, good)))
