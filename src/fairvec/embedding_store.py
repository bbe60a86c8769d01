"""Load, hold, query, and save word-embedding sets.

File format: one entry per line, "token v1 ... vd", single-space separated,
UTF-8, with an optional "count dim" header line; trailing whitespace on a
row is ignored. Word-list files carry one token per line with "#" comment
lines ignored.

Every loader in the package reads its source through `_lines`: a path (str
or os.PathLike), opened as UTF-8, or an iterable of lines such as an open
text file. The dataset loaders skip blank and comment lines through
`_data_lines`.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import shutil
import signal
import struct
import tempfile
import threading
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ConfigError, InputError, ParseError
from .matrix_core import _sorted_distinct, cosine_matrix, exact_cosine_rows

LineSource = Union[str, os.PathLike, Iterable[str]]

# Rows per np.loadtxt call in load_embeddings: a load holds the matrix plus
# about one block of text and parse buffers.
_BLOCK_ROWS = 1024


def _lines(source: LineSource) -> Iterator[str]:
    """Yield the lines of a file path or of an iterable of lines.

    Text that is not UTF-8, from a path or an open handle, is a ParseError.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as handle:
                yield from handle
        else:
            yield from source
    except UnicodeDecodeError as exc:
        name = getattr(source, "name", source)
        where = f"{os.fspath(name)}: " if isinstance(name, (str, os.PathLike)) else ""
        raise ParseError(
            f"{where}not UTF-8 text (undecodable byte {exc.object[exc.start]:#04x})"
        ) from None


def _data_lines(source: LineSource) -> Iterator[tuple[int, str]]:
    """(line number, line without its line break) for each line of `source`
    that is neither blank nor a comment, one whose first non-blank is "#"."""
    for lineno, line in enumerate(_lines(source), start=1):
        line = line.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield lineno, line


@dataclass(frozen=True, eq=False)
class EmbeddingSet:
    """An ordered vocabulary with one row vector per word; sets compare by identity."""

    words: tuple[str, ...]
    vectors: np.ndarray  # (|V|, dim), read-only after construction
    _index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self, index: dict[str, int] | None = None):
        # Every construction path checks here that the set saves to text that
        # loads back: at least one row and one component, and UTF-8 words with
        # no space or line break.
        vectors = np.asarray(self.vectors, dtype=np.float64)
        if vectors.ndim != 2 or not vectors.size:
            raise InputError(f"vectors of shape {vectors.shape}; need |V| >= 1 and dim >= 1")
        if not np.all(np.isfinite(vectors)):
            raise InputError("vectors contain non-finite entries")
        words = tuple(self.words)
        if len(words) != vectors.shape[0]:
            raise InputError(f"{len(words)} words but {vectors.shape[0]} vector rows")
        text = "".join(words)
        if " " in text or "\n" in text or "\r" in text:
            word = next(w for w in words if " " in w or "\n" in w or "\r" in w)
            raise InputError(f"token {word!r} holds a space or a line break")
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            word = next(w for w in words if exc.object[exc.start] in w)
            raise InputError(f"token {word!r} does not encode as UTF-8") from None
        if index is None:
            index = {}
            for i, w in enumerate(words):
                if w in index:
                    raise InputError(f"duplicate token {w!r}")
                index[w] = i
            vectors = vectors.copy()
        vectors.setflags(write=False)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "_index", index)

    @classmethod
    def _owning(cls, words: tuple[str, ...], vectors: np.ndarray,
                index: dict[str, int]) -> "EmbeddingSet":
        """A set that takes over `vectors`, a new float64 array that no one else
        holds, and `index`, the word -> row map of `words` that the caller has
        already checked for duplicates.

        Shape, finiteness and words are checked as by the constructor; the
        duplicate check and the defensive copy are skipped.
        """
        self = cls.__new__(cls)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "vectors", vectors)
        self.__post_init__(index)
        return self

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def index(self, word: str) -> int:
        try:
            return self._index[word]
        except KeyError:
            raise InputError(f"token {word!r} not in vocabulary") from None

    def vector(self, word: str) -> np.ndarray:
        return self.vectors[self.index(word)]


@dataclass(frozen=True, eq=False)
class WordPartition:
    """Vocabulary split into gender-definition and remaining (neutral) indices."""

    definition_indices: np.ndarray
    neutral_indices: np.ndarray
    missing_words: tuple[str, ...] = ()  # list tokens not in the vocabulary, in list order

    @property
    def missing(self) -> int:
        """How many list tokens were not in the vocabulary."""
        return len(self.missing_words)


def _is_header(first: str, second: str) -> bool:
    """True when `first` is a "count dim" line and `second` has dim components."""
    fields = first.rstrip().split(" ")
    return (
        len(fields) == 2
        and all(field.isdecimal() for field in fields)
        and len(second.rstrip().split(" ")) == int(fields[1]) + 1
    )


def _parse_block(block: list[str], dim: int, index: dict[str, int]) -> np.ndarray | None:
    """The rows of a block of lines, parsed by numpy's C tokenizer, with
    their tokens added to `index`.

    None, and `index` unchanged, when a line breaks a rule or holds a form
    that the C parser reads differently from Python's float: it also strips
    the separators \\x1c-\\x1f from a field. The C parser checks that every
    row has as many fields as the first.
    """
    tokens, rests = [], []
    for line in block:
        token, _, rest = line.rstrip().partition(" ")
        if "\x1c" in rest or "\x1d" in rest or "\x1e" in rest or "\x1f" in rest:
            return None
        tokens.append(token)
        rests.append(rest)
    if (not all(rests) or len(set(tokens)) != len(tokens)
            or not index.keys().isdisjoint(tokens)):
        return None
    try:
        rows = np.loadtxt(rests, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape != (len(block), dim) or not np.all(np.isfinite(rows)):
        return None
    index.update(zip(tokens, range(len(index), len(index) + len(tokens))))
    return rows


def _parse_lines(block: list[str], first: int, dim: int, index: dict[str, int]) -> np.ndarray:
    """The rows of a block whose first line is line `first`, by the per-line
    rules, with their tokens added to `index`; ParseError names the first
    line that breaks one."""
    rows = np.empty((len(block), dim))
    for row, lineno, line in zip(rows, itertools.count(first), block):
        values = line.rstrip().split(" ")
        token = values.pop(0)
        if len(values) != dim:
            raise ParseError(
                f"line {lineno}: expected {dim} vector components, got {len(values)}"
            )
        if token in index:
            raise ParseError(f"line {lineno}: duplicate token {token!r}")
        index[token] = len(index)
        try:
            row[:] = np.asarray(values, dtype=np.float64)
        except ValueError:
            raise ParseError(f"line {lineno}: non-numeric vector component") from None
        if not np.all(np.isfinite(row)):
            raise ParseError(f"line {lineno}: non-finite vector component")
    return rows


def load_embeddings(source: LineSource, max_words: int | None = None) -> EmbeddingSet:
    """Parse an embedding file or text stream; dimension is inferred from the first row.

    A first line of two integers is a "count dim" header, and is skipped,
    when the line after it has dim components. Trailing whitespace on a row
    is ignored. Rows are parsed in fixed blocks into one growing matrix; a
    block that numpy's C parser cannot take is read line by line, so a
    ParseError names the first bad line and Python's float forms (1_0) load.
    """
    lines = _lines(source)
    head = list(itertools.islice(lines, 2))
    first = 2 if len(head) == 2 and _is_header(*head) else 1  # the next block's first line
    lines = itertools.chain(head[first - 1:], lines)
    if max_words is not None:
        lines = itertools.islice(lines, max(max_words, 0))
    index: dict[str, int] = {}
    vectors = None
    while block := list(itertools.islice(lines, _BLOCK_ROWS)):
        if vectors is None:
            dim = block[0].rstrip().count(" ")
            if dim == 0:
                raise ParseError(f"line {first}: no vector components found")
            vectors = np.empty((0, dim))
        rows = _parse_block(block, dim, index)
        if rows is None:
            rows = _parse_lines(block, first, dim, index)
        start = len(vectors)
        # No view of the buffer is alive here, so it may move.
        vectors.resize((start + len(rows), dim), refcheck=False)
        vectors[start:] = rows
        first += len(block)
    if vectors is None:
        raise ParseError("empty embedding input")
    return EmbeddingSet._owning(tuple(index), vectors, index)


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a = high + low exactly, each half with at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


# Every value is formatted into a 32-byte field: " ", the sign and the digits
# at fixed places, NUL where a character is absent; deleting the NULs leaves
# "%.17g" % v. Fields are built as four little-endian 64-bit words.
_POW10 = np.array([float(10 ** e) for e in range(23)])  # each one exactly representable
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# "%04d" % g as a word and its trailing zeros, for each 4-digit group g. The
# tables are built with array operations: every CLI process imports this
# module, and most never write.
_ASCII_DIGITS = np.arange(48, 58, dtype=np.uint64)
_DIGITS4 = (_ASCII_DIGITS[:, None, None, None] | (_ASCII_DIGITS[:, None, None] << 8)
            | (_ASCII_DIGITS[:, None] << 16) | (_ASCII_DIGITS << 24)).ravel()
_TRAILING_ZEROS4 = sum(np.arange(10000) % 10 ** i == 0 for i in (1, 2, 3, 4))
_MINUS = np.uint64(ord("-") << 8)
_NEWLINE = np.uint64(ord("\n") << 56)  # the last byte of a field is always NUL
# Values per block in save_embeddings: the formatting temporaries stay small
# and in cache, and the Python work per block is spread over enough values.
_WRITE_VALUES = 1 << 14


def _layouts() -> np.ndarray:
    """The field words of each (exponent k, index of the last nonzero digit)
    in column 17 * (k + 4) + last, and of zero in the last column.

    Row 0 is word 0 of the field: " ", a NUL for the sign and, for k < 0,
    "0.". Words 1-3 come from the 17 digits, held at bytes 3..19 of three
    words behind three "0" bytes that serve as the zeros of "0.000ddd": rows
    1-3 mask the digits that stay in place, rows 4-6 those moved one byte on
    to make room for the ".", and rows 7-9 hold the ".".
    """
    k = np.arange(-4, 16)[:, None, None]
    last = np.arange(17)[:, None]
    byte = np.arange(24)
    fraction = (k >= 0) & (last > k)
    kept = np.where(k < 0, (byte >= 4 + k) & (byte < 4 + last), (byte >= 3) & (byte < 4 + k))
    shifted = fraction & (byte >= 5 + k) & (byte < 5 + last)
    dot = fraction & (byte == 4 + k)
    head = np.zeros((20, 17, 8), dtype=np.uint8)
    head[..., 0] = ord(" ")
    head[k[:, 0, 0] < 0, :, 2:4] = np.frombuffer(b"0.", dtype=np.uint8)
    rows = np.concatenate([head, kept * 0xFF, shifted * 0xFF, dot * ord(".")], axis=2)
    zero = np.frombuffer((b" \0" + b"0").ljust(80, b"\0"), dtype=np.uint8)
    rows = np.vstack([rows.astype(np.uint8).reshape(340, 80), zero])
    return rows.view("<u8").T.copy()


_LAYOUT = _layouts()


def _fields(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 32-byte fields of " " + "%.17g" % v for the values of `x` (1-D),
    and which of them are filled: those with |v| in [1e-4, 1e16), where
    "%.17g" prints fixed notation, and zeros.

    v = D * 10**(k-16) with D the 17-digit integer that dtoa rounds to. The
    scaled y = |v| * 10**(16-k) is exactly hi + err (Dekker's TwoProduct
    against an exact power of ten), and hi >= 1e16 > 2**53 is an even
    integer, so D = hi + rint(err) rounds half to even as dtoa does.
    """
    a = np.abs(x)
    zero = a == 0
    fixed = (a >= 1e-4) & (a < 1e16)
    a = np.where(fixed, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    a_hi, a_lo = _veltkamp(a)

    def scaled(k):
        e = 16 - k
        hi = a * _POW10[e]
        p_hi, p_lo = _POW10_HI[e], _POW10_LO[e]
        return hi, ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo

    hi, err = scaled(k)
    # log10 can put k off by one next to a power of ten; y must lie in [1e16, 1e17).
    low = (hi < 1e16) | ((hi == 1e16) & (err < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (err >= 0))
    if low.any() or high.any():
        k += high
        k -= low
        hi, err = scaled(k)
    # D never rounds up to 1e17: that needs |v| within 5e-18 (relative) under
    # 10**(k+1), and the largest float under each of 0.001 ... 1e16 is more
    # than 8e-17 under it.
    d = hi.astype(np.int64) + np.rint(err).astype(np.int64)

    top, bottom = np.divmod(d, 10 ** 8)
    top, g2 = np.divmod(top, 10 ** 4)
    g0, g1 = np.divmod(top, 10 ** 4)
    g3, g4 = np.divmod(bottom, 10 ** 4)
    digits = (_DIGITS4[g0] | (_DIGITS4[g1] << 32), _DIGITS4[g2] | (_DIGITS4[g3] << 32),
              _DIGITS4[g4])
    shifted = (digits[0] << 8, (digits[1] << 8) | (digits[0] >> 56),
               (digits[2] << 8) | (digits[1] >> 56))
    trailing = _TRAILING_ZEROS4[g1]
    for g in (g2, g3, g4):
        trailing = np.where(g == 0, trailing + 4, _TRAILING_ZEROS4[g])
    layout = np.where(fixed, 17 * (k + 4) + 16 - trailing,
                      np.where(zero, _LAYOUT.shape[1] - 1, 0))

    fields = np.empty((x.size, 4), dtype="<u8")
    fields[:, 0] = _LAYOUT[0][layout] | (np.signbit(x) * _MINUS)
    for i in range(3):
        fields[:, 1 + i] = ((digits[i] & _LAYOUT[1 + i][layout])
                            | (shifted[i] & _LAYOUT[4 + i][layout]) | _LAYOUT[7 + i][layout])
    return fields, fixed | zero


def _text_rows(words: Sequence[str], vectors: np.ndarray) -> list[str]:
    """The rows of `words` and `vectors` in the save format, each value as
    "%.17g" % v: the kernel's fields, and Python's formatting for values
    printed in scientific notation."""
    dim = vectors.shape[1]
    values = vectors.reshape(-1)
    fields, filled = _fields(values)
    others = np.flatnonzero(~filled)
    if others.size:
        texts = b"".join((" %.17g" % v).encode("ascii").ljust(32, b"\0")
                         for v in values[others].tolist())
        fields[others] = np.frombuffer(texts, dtype="<u8").reshape(-1, 4)
    fields[dim - 1::dim, 3] |= _NEWLINE
    lines = fields.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    return [f"{word}{line}\n" for word, line in zip(words, lines)]


def _write_rows(dim: int) -> int:
    """Rows per block in save_embeddings: about _WRITE_VALUES values, and at
    least the two rows that the header rule reads."""
    return max(2, _WRITE_VALUES // dim)


def _write_range(embeddings: EmbeddingSet, start: int, stop: int, sink: IO[str]) -> None:
    """Write rows start:stop in the save format, block by block; a range
    that starts at row 0 gets the header when the rule asks for one."""
    step = _write_rows(embeddings.dim)
    for lo in range(start, stop, step):
        hi = min(lo + step, stop)
        rows = _text_rows(embeddings.words[lo:hi], embeddings.vectors[lo:hi])
        if lo == 0 and len(rows) >= 2 and _is_header(rows[0], rows[1]):
            sink.write(f"{len(embeddings)} {embeddings.dim}\n")
        sink.write("".join(rows))


def _writers(blocks: int) -> int:
    """Processes that format a save of `blocks` write blocks: one per usable
    CPU, each with at least two blocks. One, the calling process alone, where
    the platform cannot fork or report its usable CPUs, or where another
    Python thread is alive, since a forked child holds only the calling
    thread and any lock another one held stays locked there."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), blocks // 2))


def _fork_writer(embeddings: EmbeddingSet, start: int, stop: int, spool: IO[str]) -> int:
    """Fork a process that writes rows start:stop to `spool` and exits; its pid.

    The child shares the matrix with the caller copy-on-write. It leaves
    through os._exit, so no finally block, context manager or atexit handler
    of the caller's stack runs twice, and reports a failure on stderr and in
    its exit status.
    """
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _write_range(embeddings, start, stop, spool)
        spool.flush()
        code = 0
    except BaseException as exc:  # the child ends here whatever was raised
        os.write(2, f"fairvec: writing rows {start}-{stop} failed: {exc!r}\n".encode())
    finally:
        os._exit(code)


def save_embeddings(embeddings: EmbeddingSet, sink: IO[str]) -> None:
    """Write the set in the load format.

    Values are printed as "%.17g" % v, 17 significant digits, enough to
    reconstruct each float64 exactly, so load(save(x)) is bit-identical. A
    "count dim" header is written only when the loader would take the first
    row for one. Rows are formatted and written in fixed blocks.

    The blocks are split into contiguous ranges, one per process that
    _writers allows. Each range after the first is formatted by a forked
    child into an unlinked temporary file; this process writes the first
    range to `sink` and then copies each child's text after it, in order, so
    `sink` receives the same text as from one process. Children still
    running when this function exits, by return or by raise, are killed;
    every child is reaped, and a failed child raises OSError.
    """
    n, step = len(embeddings), _write_rows(embeddings.dim)
    blocks = -(-n // step)
    count = _writers(blocks)
    bounds = [step * (blocks * i // count) for i in range(count)] + [n]
    children: list[tuple[int, IO[str]]] = []  # forked and not yet reaped, in row order
    with contextlib.ExitStack() as spools:
        try:
            for start, stop in zip(bounds[1:-1], bounds[2:]):
                spool = spools.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8"))
                children.append((_fork_writer(embeddings, start, stop, spool), spool))
            _write_range(embeddings, 0, bounds[1], sink)
            while children:
                pid, spool = children[0]
                status = os.waitpid(pid, 0)[1]
                del children[0]
                if status:
                    raise OSError("a process formatting embedding rows failed "
                                  f"(exit code {os.waitstatus_to_exitcode(status)})")
                spool.seek(0)
                shutil.copyfileobj(spool, sink, 1 << 20)
        finally:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _save_binary(embeddings: EmbeddingSet, text_sha256: str, sink: IO[bytes],
                 source: tuple[str, np.ndarray] | None = None) -> None:
    """Write the set as an uncompressed .npz archive that _load_binary reads.

    The archive holds the sha256 of the text file the set was saved as, the
    words as UTF-8 joined by newlines in a uint8 array (EmbeddingSet admits
    no newline in a word; a fixed-width string array would drop trailing
    NULs) and the float64 matrix. A `source`, the sha256 of another text and
    the matrix it parses to under the same words, is stored as the entry
    input_sha256 and input_vectors.
    """
    words = "\n".join(embeddings.words).encode("utf-8")
    entries = {} if source is None else {"input_sha256": np.array(source[0]),
                                         "input_vectors": source[1]}
    np.savez(sink, sha256=np.array(text_sha256),
             words=np.frombuffer(words, dtype=np.uint8), vectors=embeddings.vectors, **entries)


def _read_member(handle: IO[bytes], member: zipfile.ZipInfo) -> np.ndarray:
    """The array in `member`, an uncompressed .npy file inside the zip
    archive open as `handle`, read straight into the array's own buffer.

    ValueError when the member is compressed, its local header is not one,
    its .npy header is not a version 1.0 one for a C-order plain dtype, or
    the bytes disagree with the archive's directory: header and data must
    fill the member's size exactly, and their CRC-32 must be the member's.
    """
    handle.seek(member.header_offset)
    local = handle.read(30)
    if member.compress_type != zipfile.ZIP_STORED or local[:4] != b"PK\x03\x04":
        raise ValueError(f"{member.filename}: not a stored zip member")
    start = member.header_offset + 30 + sum(struct.unpack("<HH", local[26:30]))
    handle.seek(start)
    if np.lib.format.read_magic(handle) != (1, 0):
        raise ValueError(f"{member.filename}: not a version 1.0 .npy header")
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
    size = handle.tell() - start
    if (fortran_order or dtype.hasobject
            or size + math.prod(shape) * dtype.itemsize != member.file_size):
        raise ValueError(f"{member.filename}: not a C-order array of the stored size")
    handle.seek(start)
    crc = zlib.crc32(handle.read(size))
    array = np.empty(shape, dtype)
    data = array.reshape(-1).view(np.uint8)
    if handle.readinto(data) != data.size or zlib.crc32(data, crc) != member.CRC:
        raise ValueError(f"{member.filename}: truncated, or its CRC-32 does not match")
    return array


def _load_binary(path: str, digests: set[str] | Callable[[], set[str]],
                 max_words: int | None = None, read_ahead: int = 0) -> dict[str, EmbeddingSet]:
    """The sets that _save_binary wrote to `path`, its own and its source,
    keyed by the digest of the text each was written for, for the digests
    in `digests`.

    `digests` may instead be a function that returns them, which may wait
    for them: it is called once the stored digests are read, and the
    matrices of the first `read_ahead` entries are read before it, so that
    reading overlaps the wait. A matrix read ahead for a digest not asked
    for is dropped.

    An entry is left out, so that the caller parses the text instead, when
    the archive is missing or unreadable, a member fails _read_member's
    checks, or the entry was written for other text, is not shaped as
    _save_binary writes it, repeats a word, or fails EmbeddingSet's
    validation. Like the text loader, `max_words` keeps the first rows. The
    words are decoded and indexed once, for every entry; each set takes over
    its matrix, and only a capped load copies rows.
    """
    try:
        with open(path, "rb") as handle:
            members = {member.filename: member for member in zipfile.ZipFile(handle).infolist()}

            def read(name: str) -> np.ndarray:
                return _read_member(handle, members[name + ".npy"])

            stored = [(read(e + "sha256").item(), e) for e in ("", "input_")
                      if e + "sha256.npy" in members]
            early = {e: read(e + "vectors") for _, e in stored[:read_ahead]}
            wanted = digests() if callable(digests) else digests
            found = [(digest, early.pop(e) if e in early else read(e + "vectors"))
                     for digest, e in stored if digest in wanted]
            early.clear()
            rows = read("words").tobytes().decode("utf-8").split("\n") if found else []
    except (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile):
        return {}
    words = tuple(rows[:max_words])
    index = dict(zip(words, range(len(words))))
    sets: dict[str, EmbeddingSet] = {}
    for digest, vectors in found:
        if (len(index) == len(words) and vectors.dtype == np.float64 and vectors.ndim == 2
                and len(vectors) == len(rows)):
            with contextlib.suppress(InputError):
                sets[digest] = EmbeddingSet._owning(
                    words, vectors[:len(words)].copy() if len(words) < len(rows) else vectors,
                    index)
    return sets


def load_word_list(source: LineSource) -> list[str]:
    """One token per line; blank lines and '#' comment lines are ignored."""
    return [line.strip() for _, line in _data_lines(source)]


def partition(embeddings: EmbeddingSet, gender_list: Sequence[str]) -> WordPartition:
    """Split the vocabulary into gender-definition indices and the rest.

    List tokens absent from the vocabulary are ignored; their count and
    names are reported on the returned partition.
    """
    unique = list(dict.fromkeys(gender_list))
    found = sorted(embeddings.index(w) for w in unique if w in embeddings)
    missing_words = tuple(w for w in unique if w not in embeddings)
    if not found:
        raise ConfigError("no gender-definition word is present in the vocabulary")
    definition = np.asarray(found, dtype=np.int64)
    mask = np.ones(len(embeddings), dtype=bool)
    mask[definition] = False
    return WordPartition(
        definition_indices=definition,
        neutral_indices=np.flatnonzero(mask).astype(np.int64),
        missing_words=missing_words,
    )


def top_k_neighbors(
    embeddings: EmbeddingSet,
    query_indices: Sequence[int],
    k: int,
    candidate_indices: Sequence[int] | None = None,
) -> np.ndarray:
    """Top-k candidates by cosine similarity for each query, one row per query.

    Each query is excluded from its own candidates. Candidates are ranked by
    a stable sort on (-cosine, vocabulary index): ties break toward the
    lower index, and for k1 < k2 the result for k1 is the first k1 columns
    of the result for k2.
    """
    n = len(embeddings)
    queries = np.asarray(query_indices, dtype=np.int64).reshape(-1)
    outside = queries[(queries < 0) | (queries >= n)]
    if outside.size:
        raise InputError(f"query index {outside[0]} outside vocabulary of size {n}")
    if candidate_indices is None:
        candidates = np.arange(n, dtype=np.int64)
    else:
        candidates = _sorted_distinct(np.asarray(candidate_indices, dtype=np.int64).ravel())
        if candidates.size and (candidates[0] < 0 or candidates[-1] >= n):
            raise InputError("candidate index outside vocabulary")
    is_query = queries[:, None] == candidates[None, :]
    available = candidates.size - is_query.sum(axis=1)
    short = available[(k < 0) | (k > available)]
    if short.size:
        raise InputError(f"k={k} but only {short[0]} candidates besides the query")

    sims = cosine_matrix(embeddings.vectors[queries], embeddings.vectors[candidates])
    sims[is_query] = -np.inf  # sorts last, past every real cosine
    order = np.argsort(-sims, axis=1, kind="stable")
    if k == 0:
        return candidates[order[:, :0]]
    # A product's cosine is within about dim * eps of the exact one, so two
    # scores closer than twice that may be in the wrong order, and an exact
    # tie may not look like one. Such scores that can reach the top k are
    # rescored with exactly summed products before the final sort.
    slack = 2 * (embeddings.dim + 4) * np.finfo(np.float64).eps
    reach = np.take_along_axis(sims, order[:, k - 1:k], axis=1) - slack
    width = int((sims >= reach).sum(axis=1).max(initial=k))
    ranked = np.take_along_axis(sims, order[:, :width], axis=1)
    close = np.zeros(ranked.shape, dtype=bool)
    near = ranked[:, :-1] - ranked[:, 1:] <= slack
    close[:, 1:] |= near
    close[:, :-1] |= near
    rows, ranks = np.nonzero(close & (ranked >= reach))
    if rows.size:
        columns = order[rows, ranks]
        sims[rows, columns] = exact_cosine_rows(
            embeddings.vectors[queries[rows]], embeddings.vectors[candidates[columns]])
        order = np.argsort(-sims, axis=1, kind="stable")
    return candidates[order[:, :k]]


def nearest_neighbors(
    embeddings: EmbeddingSet,
    query_index: int,
    k: int,
    candidate_indices: Sequence[int] | None = None,
) -> list[int]:
    """Top-k candidates by cosine similarity to one query; see top_k_neighbors."""
    return top_k_neighbors(embeddings, [query_index], k, candidate_indices)[0].tolist()
