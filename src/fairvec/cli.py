"""Command-line front end.

Three subcommands: `debias` rewrites an embedding file with one of the
debiasing methods, `eval` scores an embedding on a metric group and writes a
JSON report, `compare` merges several reports into a TSV table.

Reports are deterministic: keys are sorted, no timestamps are embedded, and
every random choice derives from --seed through fixed offsets (clustering
uses the seed itself, classification seed+1, the i-th association test
seed+100+i). Output files are written atomically via a temp file and rename.

`debias` also writes a binary copy of its output, `<out>.npz`, keyed by the
sha256 of the `<out>` text. Every embedding load reads that copy instead of
the text when the digests agree, and parses the text otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from . import bias_metrics, quality_eval
from .bias_metrics import BiasReport
from .debias import DEFAULT_ALPHA, HsrConfig, hard_debias, hsr_debias
from .embedding_store import (
    EmbeddingSet,
    _load_binary,
    _save_binary,
    load_embeddings,
    load_word_list,
    partition,
    save_embeddings,
)
from .errors import FairvecError

CLASSIFY_SEED_OFFSET = 1
WEAT_SEED_OFFSET = 100


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _file_record(path: str) -> dict:
    return {"path": path, "sha256": _sha256(path)}


def _umask() -> int:
    # The umask can only be read by setting it; restore it at once.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


@contextlib.contextmanager
def _atomic_output(path: str, binary: bool = False):
    """Text (or binary) handle on a temp file that replaces `path` when the block exits.

    The file gets the mode a plain open() would give it (0666 less the
    umask), not mkstemp's 0600. On error the temp file is removed and `path`
    is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        mode, encoding = ("wb", None) if binary else ("w", "utf-8")
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            yield handle
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, text: str) -> None:
    with _atomic_output(path) as handle:
        handle.write(text)


def _write_json(path: str, payload: dict) -> None:
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n")


def _open_text(path: str):
    return open(path, "r", encoding="utf-8")


def _binary_path(path: str) -> str:
    return path + ".npz"


def _load_embedding_file(path: str, cap: int | None) -> tuple[EmbeddingSet, dict]:
    """Load an embedding file, and hash it for its provenance record.

    The binary copy that `debias` wrote next to the file is used when it was
    written for the bytes just hashed; otherwise the text is parsed.
    """
    record = _file_record(path)
    embeddings = _load_binary(_binary_path(path), record["sha256"], cap)
    if embeddings is None:
        with _open_text(path) as handle:
            embeddings = load_embeddings(handle, max_words=cap)
    return embeddings, record


def _name_path_pair(value: str) -> tuple[str, str]:
    name, sep, path = value.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {value!r}")
    return name, path


def _nonnegative_float(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a number") from None
    if not number >= 0:
        raise argparse.ArgumentTypeError("alpha must be >= 0")
    return number


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairvec",
        description="Debias word embeddings and evaluate gender bias and quality metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    debias = sub.add_parser("debias", help="write a debiased copy of an embedding file")
    debias.add_argument("--embeddings", required=True, help="input embedding text file")
    debias.add_argument("--gender-list", required=True, help="gender-definition word list")
    debias.add_argument("--method", choices=("hsr", "hard"), default="hsr")
    debias.add_argument("--alpha", type=_nonnegative_float, default=DEFAULT_ALPHA,
                        help="ridge strength for --method hsr (default 60)")
    debias.add_argument("--out", required=True, help="output embedding file")
    debias.add_argument("--vocab-cap", type=_positive_int, default=None,
                        help="load only the first N vocabulary entries")
    debias.set_defaults(func=cmd_debias)

    evaluate = sub.add_parser("eval", help="score an embedding and write a JSON report")
    evaluate.add_argument("--embeddings", required=True, help="embedding under evaluation")
    evaluate.add_argument("--original-embeddings", default=None,
                          help="untouched embedding used to fix biased-word lists "
                               "(default: --embeddings itself)")
    evaluate.add_argument("--gender-list", default=None,
                          help="gender-definition word list (direction and relation groups)")
    evaluate.add_argument("--metrics", choices=("direction", "relation", "quality"),
                          required=True)
    evaluate.add_argument("--label", default=None,
                          help="method tag recorded in the report (default: embedding file stem)")
    evaluate.add_argument("--seed", type=int, default=42)
    evaluate.add_argument("--out", required=True, help="report JSON path")
    evaluate.add_argument("--normalized-projection", action="store_true",
                          help="use cosine instead of dot product for projection bias")
    evaluate.add_argument("--vocab-cap", type=_positive_int, default=None)
    evaluate.add_argument("--sembias", default=None, help="definition-pair selection dataset")
    evaluate.add_argument("--weat", action="append", default=[], metavar="PATH",
                          help="association-test spec file (repeatable)")
    evaluate.add_argument("--professions", default=None, help="profession word list")
    evaluate.add_argument("--wordsim", action="append", default=[], type=_name_path_pair,
                          metavar="NAME=PATH", help="word-pair dataset (repeatable)")
    evaluate.add_argument("--sts", action="append", default=[], type=_name_path_pair,
                          metavar="NAME=PATH", help="sentence-pair dataset (repeatable)")
    evaluate.add_argument("--top-biased", type=_positive_int, default=500,
                          help="biased words per gender for the relation pool (default 500)")
    evaluate.add_argument("--neighbors", type=_positive_int, default=100,
                          help="neighborhood size k (default 100)")
    evaluate.add_argument("--classify-n", type=_positive_int, default=2500,
                          help="biased words per gender for classification (default 2500)")
    evaluate.add_argument("--classify-train", type=_positive_int, default=500,
                          help="training words per gender for classification (default 500)")
    evaluate.set_defaults(func=cmd_eval)

    compare = sub.add_parser("compare", help="merge eval reports into a TSV table")
    compare.add_argument("reports", nargs="+", help="two or more report JSON files")
    compare.add_argument("--out", default=None, help="output TSV (default: stdout)")
    compare.set_defaults(func=cmd_compare)
    return parser


def cmd_debias(args: argparse.Namespace) -> int:
    embeddings, embeddings_record = _load_embedding_file(args.embeddings, args.vocab_cap)
    with _open_text(args.gender_list) as handle:
        gender_list = load_word_list(handle)
    config = HsrConfig(gender_list=tuple(gender_list), alpha=args.alpha)
    if args.method == "hsr":
        result = hsr_debias(embeddings, config)
    else:
        result = hard_debias(embeddings, config)

    with _atomic_output(args.out) as handle:
        save_embeddings(result.embeddings, handle)
    with _atomic_output(_binary_path(args.out), binary=True) as handle:
        _save_binary(result.embeddings, _sha256(args.out), handle)
    sidecar = {
        "method": result.method,
        "alpha": args.alpha,
        "gender_norm": result.gender_norm,
        "config": result.config,
        "inputs": {
            "embeddings": embeddings_record,
            "gender_list": _file_record(args.gender_list),
        },
        "vocab_size": len(result.embeddings),
        "dim": result.embeddings.dim,
    }
    _write_json(args.out + ".meta.json", sidecar)
    return 0


def _eval_direction(args, embeddings, original, part, report: BiasReport, run) -> None:
    def projection_bias():
        lists = bias_metrics.select_biased_words(original, part, args.top_biased)
        return bias_metrics.mean_abs_projection_bias(
            embeddings, lists, normalized=args.normalized_projection
        )

    run("projection_bias", projection_bias)

    if args.sembias:
        with _open_text(args.sembias) as handle:
            instances = bias_metrics.load_sembias(handle)
        report.provenance["datasets"]["sembias"] = _file_record(args.sembias)

        def accuracy():
            acc, used, skipped = bias_metrics.sembias_eval(embeddings, instances)
            report.provenance["sembias_counts"] = {"used": used, "skipped": skipped}
            return acc

        run("sembias_acc", accuracy)
        subset = [inst for inst in instances if inst.subset]
        if subset:
            def subset_accuracy():
                acc, used, skipped = bias_metrics.sembias_eval(embeddings, subset)
                report.provenance["sembias_subset_counts"] = {"used": used, "skipped": skipped}
                return acc

            run("sembias_subset_acc", subset_accuracy)


def _eval_relation(args, embeddings, original, part, report: BiasReport, run) -> None:
    lists = None
    try:
        lists = bias_metrics.select_biased_words(original, part, args.top_biased)
    except FairvecError as exc:
        for name in ("gbwr_purity", "gbwr_correlation", "gbwr_profession"):
            if name != "gbwr_profession" or args.professions:
                report.errors[name] = f"biased-word selection failed: {exc}"

    if lists is not None:
        run("gbwr_purity", lambda: bias_metrics.gbwr_clustering(embeddings, lists, args.seed))
        run("gbwr_correlation", lambda: bias_metrics.gbwr_correlation(
            embeddings, lists, original, k=args.neighbors,
            normalized=args.normalized_projection))
        if args.professions:
            with _open_text(args.professions) as handle:
                professions = load_word_list(handle)
            report.provenance["datasets"]["professions"] = _file_record(args.professions)

            def profession():
                correlation, points = bias_metrics.gbwr_profession(
                    embeddings, professions, lists, original, k=args.neighbors,
                    normalized=args.normalized_projection)
                _write_profession_tsv(_profession_tsv_path(args.out), points)
                report.provenance["profession_counts"] = {
                    "used": len(points),
                    "skipped": len(professions) - len(points),
                }
                return correlation

            run("gbwr_profession", profession)

    weat_results = []
    for index, path in enumerate(args.weat):
        name = Path(path).stem
        report.provenance["datasets"][f"weat:{name}"] = _file_record(path)
        try:
            with _open_text(path) as handle:
                spec = bias_metrics.load_weat_spec(handle, name=name)
            statistic, p_value = bias_metrics.weat_test(
                embeddings, spec, seed=args.seed + WEAT_SEED_OFFSET + index
            )
        except FairvecError as exc:
            report.errors[f"weat_pvalues:{name}"] = str(exc)
            continue
        weat_results.append({
            "name": spec.name or name,
            "statistic": statistic,
            "p_value": p_value,
            "significant": p_value < bias_metrics.SIGNIFICANCE_LEVEL,
        })
    if weat_results:  # partial results are reported alongside the errors
        report.metrics["weat_pvalues"] = weat_results

    run("gbwr_classification_acc", lambda: bias_metrics.gbwr_classification(
        embeddings, part, original, seed=args.seed + CLASSIFY_SEED_OFFSET,
        n_per_gender=args.classify_n, train_per_gender=args.classify_train))


def _eval_quality(args, embeddings, report: BiasReport) -> None:
    word_similarity = {}
    for name, path in args.wordsim:
        report.provenance["datasets"][f"wordsim:{name}"] = _file_record(path)
        try:
            with _open_text(path) as handle:
                data = quality_eval.load_word_pairs(handle, name)
            rho, used, skipped = quality_eval.word_similarity_eval(embeddings, data)
        except FairvecError as exc:
            report.errors[f"word_similarity:{name}"] = str(exc)
            continue
        word_similarity[name] = {"spearman": rho, "used": used, "skipped": skipped}
    if word_similarity:
        report.metrics["word_similarity"] = word_similarity

    sts = {}
    for name, path in args.sts:
        report.provenance["datasets"][f"sts:{name}"] = _file_record(path)
        try:
            with _open_text(path) as handle:
                data = quality_eval.load_sentence_pairs(handle, name)
            value, used, skipped = quality_eval.sts_eval(embeddings, data)
        except FairvecError as exc:
            report.errors[f"sts:{name}"] = str(exc)
            continue
        sts[name] = {"pearson_x100": value, "used": used, "skipped": skipped}
    if sts:
        report.metrics["sts"] = sts
        results = sorted((name, entry["pearson_x100"]) for name, entry in sts.items())
        report.metrics["sts_yearly_average"] = quality_eval.yearly_average(results)


def _profession_tsv_path(report_path: str) -> str:
    path = Path(report_path)
    return str(path.with_name(path.stem + ".professions.tsv"))


def _write_profession_tsv(path: str, points) -> None:
    lines = ["word\tmale_neighbors\toriginal_bias"]
    for word, count, bias in points:
        lines.append(f"{word}\t{count}\t{bias!r}")
    _atomic_write(path, "\n".join(lines) + "\n")


def cmd_eval(args: argparse.Namespace) -> int:
    if args.metrics in ("direction", "relation") and not args.gender_list:
        raise SystemExit("error: --gender-list is required for direction and relation metrics")
    if args.original_embeddings is None:
        args.original_embeddings = args.embeddings

    embeddings, embeddings_record = _load_embedding_file(args.embeddings, args.vocab_cap)
    if os.path.abspath(args.original_embeddings) == os.path.abspath(args.embeddings):
        original = embeddings  # the same file: reuse it and its digest
        original_record = dict(embeddings_record, path=args.original_embeddings)
    else:
        original, original_record = _load_embedding_file(args.original_embeddings,
                                                         args.vocab_cap)

    label = args.label or Path(args.embeddings).stem
    report = BiasReport(method=label)
    report.provenance = {
        "seed": args.seed,
        "metrics_group": args.metrics,
        "embeddings": embeddings_record,
        "original_embeddings": original_record,
        "datasets": {},
        "options": {
            "normalized_projection": args.normalized_projection,
            "top_biased": args.top_biased,
            "neighbors": args.neighbors,
            "classify_n": args.classify_n,
            "classify_train": args.classify_train,
            "vocab_cap": args.vocab_cap,
        },
        "subseeds": {
            "clustering": args.seed,
            "classification": args.seed + CLASSIFY_SEED_OFFSET,
            "weat_base": args.seed + WEAT_SEED_OFFSET,
        },
    }
    if args.gender_list:
        report.provenance["gender_list"] = _file_record(args.gender_list)

    def run(name, fn):
        try:
            report.metrics[name] = fn()
        except FairvecError as exc:
            report.errors[name] = str(exc)

    if args.metrics == "quality":
        _eval_quality(args, embeddings, report)
    else:
        with _open_text(args.gender_list) as handle:
            part = partition(original, load_word_list(handle))
        group = _eval_direction if args.metrics == "direction" else _eval_relation
        group(args, embeddings, original, part, report, run)

    _write_json(args.out, report.to_dict())
    if report.errors:
        for name, message in sorted(report.errors.items()):
            print(f"metric {name} failed: {message}", file=sys.stderr)
        return 1
    return 0


def _flatten(value, prefix: str, into: dict) -> None:
    if isinstance(value, dict):
        for key in sorted(value):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key), into)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            key = str(index)
            if isinstance(item, dict) and item.get("name"):
                key = str(item["name"])
                item = {k: v for k, v in item.items() if k != "name"}
            _flatten(item, f"{prefix}.{key}" if prefix else key, into)
    else:
        into[prefix] = value


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_compare(args: argparse.Namespace) -> int:
    if len(args.reports) < 2:
        raise SystemExit("error: compare needs at least 2 reports")
    columns = []
    tables = []
    for path in args.reports:
        with _open_text(path) as handle:
            document = json.load(handle)
        flat: dict = {}
        _flatten(document.get("metrics", {}), "", flat)
        name = document.get("method", Path(path).stem)
        while name in columns:
            name += "+"
        columns.append(name)
        tables.append(flat)

    key_sets = [set(table) for table in tables]
    if any(keys != key_sets[0] for keys in key_sets):
        print("warning: reports cover different metric sets; blank cells mark gaps",
              file=sys.stderr)
    all_keys = sorted(set().union(*key_sets))

    lines = ["metric\t" + "\t".join(columns)]
    for key in all_keys:
        cells = [_format_cell(table.get(key)) for table in tables]
        lines.append(key + "\t" + "\t".join(cells))
    output = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, output)
    else:
        sys.stdout.write(output)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FairvecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
