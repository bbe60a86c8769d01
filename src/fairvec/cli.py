"""Command-line front end.

Three subcommands: `debias` rewrites an embedding file with one of the
debiasing methods, `eval` scores an embedding on a metric group and writes a
JSON report, `compare` merges several reports into a TSV table.

Reports are deterministic: keys are sorted, no timestamps are embedded, and
every random choice derives from --seed through fixed offsets (clustering
uses the seed itself, classification seed+1, the i-th association test
seed+100+i). Output files are written atomically via a temp file and rename.

`debias` also writes `<out>.npz`, binary copies of `<out>` and, without
--vocab-cap, of its input, each keyed by the sha256 of the text it was made
for and serving any file with those bytes. A command hashes its embedding
files in threads, one per file, opens each one's copy once in argument
order (`eval`: --embeddings first; the first while the hashes run), and
parses only the text that no copy holds, once every hash is done.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import threading
from pathlib import Path

from . import bias_metrics, quality_eval
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
from .errors import FairvecError, InputError, ParseError

CLASSIFY_SEED_OFFSET = 1
WEAT_SEED_OFFSET = 100


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 20))
    with open(path, "rb") as handle:
        while count := handle.readinto(buffer):
            digest.update(buffer[:count])
    return digest.hexdigest()


def _file_record(path: str) -> dict:
    return {"path": path, "sha256": _sha256(path)}


class _DigestFile(io.FileIO):
    """A file opened for writing that feeds every byte written to a digest."""

    def __init__(self, fd: int, digest):
        super().__init__(fd, "wb")
        self.digest = digest

    def write(self, data) -> int:
        written = super().write(data)
        self.digest.update(memoryview(data).cast("B")[:written])
        return written


@contextlib.contextmanager
def _atomic_output(path: str, binary: bool = False, digest=None):
    """Text (or binary) handle on a temp file that replaces `path` when the block exits.

    The temp file is made as open() makes one (0666 through the umask or the
    directory's default ACL), never over another file, and removed on error,
    leaving `path` as it was. A given hashlib `digest` is fed every byte
    written, so the caller need not read the file back to hash it.
    """
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        handle = io.BufferedWriter(io.FileIO(fd, "wb") if digest is None
                                   else _DigestFile(fd, digest))
        if not binary:
            handle = io.TextIOWrapper(handle, encoding="utf-8")
        with handle:
            yield handle
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


def _load_embedding_files(paths: list[str], cap: int | None) -> list[tuple[EmbeddingSet, dict]]:
    """Each embedding file with its provenance record, in argument order.

    Every distinct file is hashed once, in a worker thread of its own; all
    are joined before this returns or parses any text, and a file that
    cannot be hashed raises, the first in argument order. A set that
    `debias` stored in a `<file>.npz` copy for exactly those bytes is read
    instead of the text: each file's copy is opened once, in argument order,
    and asked for every digest not yet served; the first is read while the
    hashes run. What no copy holds is parsed from its text, once per
    distinct digest.
    """
    first = {}  # absolute path -> the path as first given, which error messages name
    for path in paths:
        first.setdefault(os.path.abspath(path), path)
    keys = list(first)
    hashed: list = [None] * len(keys)  # the sha256 of each key, or what hashing it raised

    def hash_key(i: int) -> None:
        # Workers only open, read and hash: the benchmark's tracer is not thread-safe.
        try:
            hashed[i] = _sha256(first[keys[i]])
        except Exception as exc:  # raised by the caller once every worker is joined
            hashed[i] = exc

    workers = [threading.Thread(target=hash_key, args=(i,)) for i in range(len(keys))]
    sets: dict[str, EmbeddingSet] = {}

    def wanted() -> set[str]:
        for worker in workers:
            worker.join()
        return {d for d in hashed if isinstance(d, str)} - sets.keys()

    try:
        for worker in workers:
            worker.start()
        # The first copy reads ahead one entry per distinct file while it waits.
        sets.update(_load_binary(keys[0] + ".npz", wanted, cap, len(keys)))
        for key in keys[1:]:
            if rest := wanted():
                sets.update(_load_binary(key + ".npz", rest, cap))
    finally:
        wanted()  # joins every worker
    for digest in hashed:
        if isinstance(digest, Exception):
            raise digest
    digests = dict(zip(keys, hashed))
    records = [{"path": path, "sha256": digests[os.path.abspath(path)]} for path in paths]
    for record in records:
        if record["sha256"] not in sets:
            # A handle, not the path: the benchmark's tracer sizes the load by its name.
            with open(record["path"], encoding="utf-8") as handle:
                sets[record["sha256"]] = load_embeddings(handle, max_words=cap)
    return [(sets[record["sha256"]], record) for record in records]


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
    if not 0 <= number < float("inf"):
        raise argparse.ArgumentTypeError("alpha must be >= 0 and finite")
    return number


def _integer(value: str, low: int = 1) -> int:
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not an integer") from None
    if number < low:
        raise argparse.ArgumentTypeError(f"value must be >= {low}")
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
    debias.add_argument("--vocab-cap", type=_integer, default=None,
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
    evaluate.add_argument("--seed", type=lambda value: _integer(value, 0), default=42)
    evaluate.add_argument("--out", required=True, help="report JSON path")
    evaluate.add_argument("--normalized-projection", action="store_true",
                          help="use cosine instead of dot product for projection bias")
    evaluate.add_argument("--vocab-cap", type=_integer, default=None)
    evaluate.add_argument("--sembias", default=None, help="definition-pair selection dataset")
    evaluate.add_argument("--weat", action="append", default=[], metavar="PATH",
                          help="association-test spec file (repeatable)")
    evaluate.add_argument("--professions", default=None, help="profession word list")
    evaluate.add_argument("--wordsim", action="append", default=[], type=_name_path_pair,
                          metavar="NAME=PATH", help="word-pair dataset (repeatable)")
    evaluate.add_argument("--sts", action="append", default=[], type=_name_path_pair,
                          metavar="NAME=PATH", help="sentence-pair dataset (repeatable)")
    evaluate.add_argument("--top-biased", type=_integer, default=500,
                          help="biased words per gender for the relation pool (default 500)")
    evaluate.add_argument("--neighbors", type=_integer,
                          default=bias_metrics.DEFAULT_NEIGHBORS,
                          help="neighborhood size k (default %(default)s)")
    evaluate.add_argument("--classify-n", type=_integer, default=2500,
                          help="biased words per gender for classification (default 2500)")
    evaluate.add_argument("--classify-train", type=_integer, default=500,
                          help="training words per gender for classification (default 500)")
    evaluate.set_defaults(func=cmd_eval)

    compare = sub.add_parser("compare", help="merge eval reports into a TSV table")
    compare.add_argument("reports", nargs="+", help="two or more report JSON files")
    compare.add_argument("--out", default=None, help="output TSV (default: stdout)")
    compare.set_defaults(func=cmd_compare)
    return parser


def cmd_debias(args: argparse.Namespace) -> int:
    [(embeddings, embeddings_record)] = _load_embedding_files([args.embeddings], args.vocab_cap)
    config = HsrConfig(gender_list=tuple(load_word_list(args.gender_list)), alpha=args.alpha)
    result = (hsr_debias if args.method == "hsr" else hard_debias)(embeddings, config)

    digest = hashlib.sha256()
    with _atomic_output(args.out, digest=digest) as handle:
        save_embeddings(result.embeddings, handle)
    # Debias keeps the words and their order, so the input matrix can ride
    # along under the output's words; a capped input is not the hashed file's.
    source = (embeddings_record["sha256"], embeddings.vectors) if args.vocab_cap is None else None
    with _atomic_output(args.out + ".npz", binary=True) as handle:
        _save_binary(result.embeddings, digest.hexdigest(), handle, source)
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


def _run(report: dict, name: str, fn, into: list | None = None) -> None:
    """Store fn() under report["metrics"][name], or append it to `into`; the
    text of a FairvecError it raises goes under report["errors"][name] instead."""
    try:
        value = fn()
    except FairvecError as exc:
        report["errors"][name] = str(exc)
        return
    if into is None:
        report["metrics"][name] = value
    else:
        into.append(value)


def _each_dataset(report: dict, kind: str, metric: str, sources, load, score) -> list:
    """(name, score(name, load(path, name), i)) for the i-th (name, path) of
    `sources`, in argument order, leaving out those that fail.

    Each path is hashed into provenance.datasets as "<kind>:<name>"; a
    dataset that fails to parse or score is the error "<metric>:<name>".
    """
    scored: list = []
    for index, (name, path) in enumerate(sources):
        report["provenance"]["datasets"][f"{kind}:{name}"] = _file_record(path)
        _run(report, f"{metric}:{name}",
             lambda: (name, score(name, load(path, name), index)), into=scored)
    return scored


def _eval_direction(args, embeddings, original, part, report: dict) -> None:
    _run(report, "projection_bias", lambda: bias_metrics.mean_abs_projection_bias(
        embeddings, bias_metrics.select_biased_words(original, part, args.top_biased),
        normalized=args.normalized_projection))
    if not args.sembias:
        return
    report["provenance"]["datasets"]["sembias"] = _file_record(args.sembias)
    instances: list = []

    def accuracy(chosen, counts: str):
        acc, used, skipped = bias_metrics.sembias_eval(embeddings, chosen)
        report["provenance"][counts] = {"used": used, "skipped": skipped}
        return acc

    def full_accuracy():
        instances.extend(bias_metrics.load_sembias(args.sembias))
        return accuracy(instances, "sembias_counts")

    _run(report, "sembias_acc", full_accuracy)
    subset = [inst for inst in instances if inst.subset]
    if subset:
        _run(report, "sembias_subset_acc", lambda: accuracy(subset, "sembias_subset_counts"))


def _eval_relation(args, embeddings, original, part, report: dict) -> None:
    # The pool is selected once; each metric that needs it fails with its error.
    try:
        selected = bias_metrics.select_biased_words(original, part, args.top_biased)
    except FairvecError as exc:
        selected = FairvecError(f"biased-word selection failed: {exc}")

    def lists():
        if isinstance(selected, FairvecError):
            raise selected
        return selected

    _run(report, "gbwr_purity",
         lambda: bias_metrics.gbwr_clustering(embeddings, lists(), args.seed))
    _run(report, "gbwr_correlation", lambda: bias_metrics.gbwr_correlation(
        embeddings, lists(), original, k=args.neighbors,
        normalized=args.normalized_projection))

    if args.professions:
        def profession():
            pool = lists()
            professions = load_word_list(args.professions)
            report["provenance"]["datasets"]["professions"] = _file_record(args.professions)
            correlation, points = bias_metrics.gbwr_profession(
                embeddings, professions, pool, original, k=args.neighbors,
                normalized=args.normalized_projection)
            _write_tsv(str(Path(args.out).with_suffix(".professions.tsv")),
                       [("word", "male_neighbors", "original_bias"), *points])
            report["provenance"]["profession_counts"] = {
                "used": len(points),
                "skipped": len(professions) - len(points),
            }
            return correlation

        _run(report, "gbwr_profession", profession)

    taken: dict[str, str] = {}  # weat_pvalues entry name -> the file that holds it

    def weat(stem, spec, index):
        # compare keys an entry's rows by its name, so a repeat would hide one of them
        name = spec.name or stem
        if name in taken:
            raise InputError(f"test name {name!r} is already used by {taken[name]}")
        statistic, p_value = bias_metrics.weat_test(
            embeddings, spec, seed=args.seed + WEAT_SEED_OFFSET + index)
        taken[name] = args.weat[index]
        return {
            "name": name,
            "statistic": statistic,
            "p_value": p_value,
            "significant": p_value < bias_metrics.SIGNIFICANCE_LEVEL,
        }

    weat_results = _each_dataset(report, "weat", "weat_pvalues",
                                 [(Path(path).stem, path) for path in args.weat],
                                 bias_metrics.load_weat_spec, weat)
    if weat_results:  # partial results are reported alongside the errors
        report["metrics"]["weat_pvalues"] = [entry for _, entry in weat_results]

    _run(report, "gbwr_classification_acc", lambda: bias_metrics.gbwr_classification(
        embeddings, part, original, seed=args.seed + CLASSIFY_SEED_OFFSET,
        n_per_gender=args.classify_n, train_per_gender=args.classify_train))


def _eval_quality(args, embeddings, report: dict) -> None:
    def counted(key, evaluate):
        def score(name, data, index):
            value, used, skipped = evaluate(embeddings, data)
            return {key: value, "used": used, "skipped": skipped}
        return score

    word_similarity = dict(_each_dataset(
        report, "wordsim", "word_similarity", args.wordsim, quality_eval.load_word_pairs,
        counted("spearman", quality_eval.word_similarity_eval)))
    if word_similarity:
        report["metrics"]["word_similarity"] = word_similarity

    sts = dict(_each_dataset(
        report, "sts", "sts", args.sts, quality_eval.load_sentence_pairs,
        counted("pearson_x100", quality_eval.sts_eval)))
    if sts:
        report["metrics"]["sts"] = sts
        _run(report, "sts_yearly_average", lambda: quality_eval.yearly_average(
            sorted((name, entry["pearson_x100"]) for name, entry in sts.items())))


def cmd_eval(args: argparse.Namespace) -> int:
    if args.original_embeddings is None:
        args.original_embeddings = args.embeddings

    (embeddings, embeddings_record), (original, original_record) = _load_embedding_files(
        [args.embeddings, args.original_embeddings], args.vocab_cap)

    provenance = {
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
        provenance["gender_list"] = _file_record(args.gender_list)
    report = {
        "method": args.label or Path(args.embeddings).stem,
        "metrics": {},
        "provenance": provenance,
        "errors": {},
    }

    if args.metrics == "quality":
        _eval_quality(args, embeddings, report)
    else:
        part = partition(original, load_word_list(args.gender_list))
        group = _eval_direction if args.metrics == "direction" else _eval_relation
        group(args, embeddings, original, part, report)

    _write_json(args.out, report)
    for name, message in sorted(report["errors"].items()):
        print(f"metric {name} failed: {message}", file=sys.stderr)
    return 1 if report["errors"] else 0


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


def _tsv_field(value) -> str:
    """One table cell: blank for None, true or false for a bool, repr for a
    float. A cell that holds a tab, a line break or '"' is quoted as csv
    quotes it (csv.writer itself leaves a lone carriage return bare)."""
    if value is None:
        text = ""
    elif isinstance(value, bool):
        text = "true" if value else "false"
    else:
        text = repr(value) if isinstance(value, float) else str(value)
    if any(c in text for c in '\t\n\r"'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_tsv(path: str | None, rows) -> None:
    """Write rows of cells as tab-separated lines to `path`, or to stdout
    without one; csv.reader with delimiter="\\t" reads every cell back."""
    text = "".join("\t".join(map(_tsv_field, row)) + "\n" for row in rows)
    if path:
        _atomic_write(path, text)
    else:
        sys.stdout.write(text)


def cmd_compare(args: argparse.Namespace) -> int:
    columns = []
    tables = []
    for path in args.reports:
        try:
            with open(path, encoding="utf-8") as handle:
                document = json.load(handle)
        except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
            raise ParseError(f"{path}: not a JSON report ({exc})") from None
        if not isinstance(document, dict):
            raise ParseError(f"{path}: not a JSON report (not an object)")
        flat: dict = {}
        _flatten(document.get("metrics", {}), "", flat)
        name = document.get("method", Path(path).stem)
        if not isinstance(name, str):
            raise ParseError(f"{path}: not a JSON report (method is not a string)")
        while name in columns:
            name += "+"
        columns.append(name)
        tables.append(flat)

    key_sets = [set(table) for table in tables]
    if any(keys != key_sets[0] for keys in key_sets):
        print("warning: reports cover different metric sets; blank cells mark gaps",
              file=sys.stderr)
    all_keys = sorted(set().union(*key_sets))

    _write_tsv(args.out, [["metric", *columns],
                          *([key, *(table.get(key) for table in tables)] for key in all_keys)])
    return 0


def _usage_error(args: argparse.Namespace) -> str | None:
    """What makes the command line unusable, found before any file is read."""
    if args.command == "compare" and len(args.reports) < 2:
        return "compare needs at least 2 reports"
    if args.out is not None and (not os.path.basename(args.out) or os.path.isdir(args.out) or not
                                 os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
        return f"--out {args.out!r} is a directory, is empty or lies in a missing directory"
    writes = [args.out] if args.out else []
    reads = args.reports if args.command == "compare" else [args.embeddings, args.gender_list]
    if args.command == "debias":
        writes += [args.out + ".npz", args.out + ".meta.json"]
        reads.append(args.embeddings + ".npz")  # each embedding file's load reads its copy
    if args.command == "eval":
        reads += [args.original_embeddings, args.sembias, args.professions, *args.weat,
                  *(path for _, path in args.wordsim + args.sts),
                  *(path + ".npz" for path in (args.embeddings, args.original_embeddings) if path)]
        if args.metrics == "relation" and args.professions:
            writes.append(str(Path(args.out).with_suffix(".professions.tsv")))
    inputs = {os.path.realpath(path): path for path in reads if path}
    for path in writes:
        source = inputs.get(os.path.realpath(path))
        if source:
            return f"output {path!r} would overwrite input {source!r}"
    if args.command != "eval":
        return None
    if args.metrics in ("direction", "relation") and not args.gender_list:
        return "--gender-list is required for direction and relation metrics"
    # A dataset's name keys its provenance, metrics and errors entries.
    for what, names in (("--weat file stem", [Path(path).stem for path in args.weat]),
                        ("--wordsim NAME", [name for name, _ in args.wordsim]),
                        ("--sts NAME", [name for name, _ in args.sts])):
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            return f"{what} {repeated[0]!r} is given more than once"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    problem = _usage_error(args)
    if problem:
        parser.error(problem)
    try:
        return args.func(args)
    except (FairvecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
