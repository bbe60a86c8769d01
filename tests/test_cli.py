"""End-to-end CLI behavior: files in, reports out, deterministic bytes."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import os
import stat
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import zipfile
from pathlib import Path

import numpy as np
import pytest

import fairvec
from conftest import assert_no_child_left, build_planted, write_embedding_file
from fairvec import (
    EmbeddingSet,
    bias_by_projection,
    cosine_similarity,
    load_embeddings,
    partition,
    pearson,
    sentence_embedding,
    spearman,
)
from fairvec.cli import main
from fairvec.embedding_store import _load_binary


@pytest.fixture
def workdir(tmp_path):
    """Planted embedding plus every dataset file the CLI consumes."""
    planted = build_planted(n_neutral=60, dim=12, n_definition=4, seed=70)
    emb = tmp_path / "emb.txt"
    write_embedding_file(emb, planted.embeddings)

    gender = tmp_path / "gender.txt"
    gender.write_text(
        "# gender-definition words\n" + "\n".join(planted.gender_list) + "\n"
    )

    weat = tmp_path / "weat.txt"
    weat.write_text(
        "name: planted\n"
        "[targets_x]\nm0\nm1\nm2\n"
        "[targets_y]\nf0\nf1\nf2\n"
        "[attributes_a]\nhe\ndef0\n"
        "[attributes_b]\nshe\ndef1\n"
    )

    professions = tmp_path / "professions.txt"
    professions.write_text("\n".join([f"m{i}" for i in range(5, 10)]
                                     + [f"f{i}" for i in range(5, 10)]) + "\n")

    sembias = tmp_path / "sembias.txt"
    sembias.write_text(
        "he she definition\tm0 f0 biased\tm1 f1 other\tm2 f2 other\n"
        "he she definition\tm3 f3 biased\tm4 f4 other\tm5 f5 other\tsubset\n"
    )

    wordsim = tmp_path / "pairs.tsv"
    wordsim.write_text(
        "m0\tm1\t5.0\nm2\tf0\t1.5\nf1\tf2\t4.0\nm3\tghost\t2.0\n"
    )

    sts = tmp_path / "sents.tsv"
    sts.write_text(
        "m0 m1 m2\tm3 m4\t4.5\n"
        "f0 f1\tf2 f3 f4\t3.8\n"
        "m0 f0\tm1 f1\t2.0\n"
        "zz qq\tpp rr\t1.0\n"
    )

    return {
        "dir": tmp_path,
        "planted": planted,
        "emb": str(emb),
        "gender": str(gender),
        "weat": str(weat),
        "professions": str(professions),
        "sembias": str(sembias),
        "wordsim": str(wordsim),
        "sts": str(sts),
    }


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class TestDebiasCommand:
    def test_hsr_round_trip_and_definition_rows(self, workdir):
        out = str(workdir["dir"] / "hsr.txt")
        code = main([
            "debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
            "--method", "hsr", "--alpha", "60", "--out", out,
        ])
        assert code == 0
        original = workdir["planted"].embeddings
        with open(out, encoding="utf-8") as handle:
            debiased = load_embeddings(handle)
        assert debiased.words == original.words
        part = partition(original, list(workdir["planted"].gender_list))
        assert np.array_equal(
            debiased.vectors[part.definition_indices],
            original.vectors[part.definition_indices],
        )
        neutral_changed = debiased.vectors[part.neutral_indices] - \
            original.vectors[part.neutral_indices]
        assert np.abs(neutral_changed).max() > 0.1

    def test_output_hashed_as_written_not_read_back(self, workdir, monkeypatch):
        # The text's sha256, which keys <out>.npz, comes from the bytes as they
        # are written; small blocks and a non-ASCII word give many writes.
        import builtins

        from fairvec import embedding_store

        monkeypatch.setattr(embedding_store, "_WRITE_VALUES", 64)
        planted = workdir["planted"].embeddings
        emb = workdir["dir"] / "accent.txt"
        write_embedding_file(emb, EmbeddingSet(
            tuple("café" if w == "m0" else w for w in planted.words), planted.vectors))
        out = str(workdir["dir"] / "hashed.txt")
        reads = []
        real_open = builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if "r" in mode and isinstance(file, (str, os.PathLike)):
                reads.append(os.path.abspath(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        assert main(["debias", "--embeddings", str(emb), "--gender-list", workdir["gender"],
                     "--out", out]) == 0
        monkeypatch.undo()
        assert os.path.abspath(out) not in reads
        text = Path(out).read_bytes()
        assert "café".encode() in text
        digest = hashlib.sha256(text).hexdigest()
        with np.load(out + ".npz") as archive:
            assert str(archive["sha256"]) == digest
        assert list(_load_binary(out + ".npz", {digest})) == [digest]

    def test_sidecar_metadata(self, workdir):
        out = str(workdir["dir"] / "hsr2.txt")
        main([
            "debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
            "--out", out,
        ])
        meta = read_json(out + ".meta.json")
        assert meta["method"] == "hsr"
        assert meta["alpha"] == 60.0
        assert meta["gender_norm"] > 0.0
        assert meta["vocab_size"] == 64
        with open(workdir["emb"], "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert meta["inputs"]["embeddings"]["sha256"] == digest

    def test_hard_zero_projection_after_round_trip(self, workdir):
        out = str(workdir["dir"] / "hard.txt")
        code = main([
            "debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
            "--method", "hard", "--out", out,
        ])
        assert code == 0
        with open(out, encoding="utf-8") as handle:
            debiased = load_embeddings(handle)
        part = partition(debiased, list(workdir["planted"].gender_list))
        direction = debiased.vector("he") - debiased.vector("she")
        projections = debiased.vectors[part.neutral_indices] @ direction
        assert np.abs(projections).max() < 1e-10

    def test_negative_alpha_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "debias", "--embeddings", workdir["emb"],
                "--gender-list", workdir["gender"],
                "--alpha", "-1", "--out", str(workdir["dir"] / "x.txt"),
            ])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("extra, named", [
        (["--alpha", "abc"], "'abc' is not a number"),
        (["--alpha", "nan"], "alpha must be >= 0"),
        (["--vocab-cap", "0"], "value must be >= 1"),
        (["--alpha", "inf"], "alpha must be >= 0"),
        (["--out", "missing/x.txt"], "--out 'missing/x.txt'"),
        (["--out", "."], "--out '.' is a directory"),
        (["--out", ""], "--out '' is a directory, is empty"),
        (["--out", "new/"], "--out 'new/' is a directory"),
        # Every path written (--out, <out>.npz, <out>.meta.json) that resolves
        # to a path read; an in-place debias is one.
        (["--out", "emb.txt"], "output 'emb.txt' would overwrite input"),
        (["--out", "./gender.txt"], "output './gender.txt' would overwrite input"),
        (["--gender-list", "x.txt.npz"], "would overwrite input 'x.txt.npz'"),
        (["--gender-list", "x.txt.meta.json"], "would overwrite input 'x.txt.meta.json'"),
        # The load of --embeddings reads its binary copy too.
        (["--out", "emb.txt.npz"], "output 'emb.txt.npz' would overwrite input"),
    ])
    def test_bad_option_values_exit_2_before_reading(self, workdir, monkeypatch, capsys,
                                                    extra, named):
        def no_reading(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.chdir(workdir["dir"])  # where a relative --out resolves
        monkeypatch.setattr(fairvec.cli, "_load_embedding_files", no_reading)
        monkeypatch.setattr(fairvec.cli, "load_word_list", no_reading)
        out = workdir["dir"] / "x.txt"
        with pytest.raises(SystemExit) as excinfo:
            main(["debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
                  "--out", str(out), *extra])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_in_place_through_a_symlink_exits_2(self, workdir, capsys):
        # Paths are compared once every symlink in them is resolved.
        link = workdir["dir"] / "link"
        link.symlink_to(workdir["dir"], target_is_directory=True)
        before = Path(workdir["emb"]).read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
                  "--out", str(link / "emb.txt")])
        assert excinfo.value.code == 2
        assert "would overwrite input" in capsys.readouterr().err
        assert Path(workdir["emb"]).read_bytes() == before

    def test_missing_input_exits_nonzero(self, workdir, capsys):
        code = main([
            "debias", "--embeddings", str(workdir["dir"] / "nosuch.txt"),
            "--gender-list", workdir["gender"], "--out", str(workdir["dir"] / "x.txt"),
        ])
        assert code == 2
        assert "nosuch.txt" in capsys.readouterr().err

    def test_vocab_cap(self, workdir):
        out = str(workdir["dir"] / "capped.txt")
        main([
            "debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
            "--vocab-cap", "20", "--out", out,
        ])
        with open(out, encoding="utf-8") as handle:
            assert len(load_embeddings(handle)) == 20

    def test_deterministic_output_bytes(self, workdir):
        out1 = workdir["dir"] / "d1.txt"
        out2 = workdir["dir"] / "d2.txt"
        for out in (out1, out2):
            main([
                "debias", "--embeddings", workdir["emb"],
                "--gender-list", workdir["gender"], "--out", str(out),
            ])
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_output_mode_follows_umask(self, workdir, umask, mode):
        out = workdir["dir"] / "moded.txt"
        previous = os.umask(umask)
        try:
            code = main([
                "debias", "--embeddings", workdir["emb"],
                "--gender-list", workdir["gender"], "--out", str(out),
            ])
        finally:
            os.umask(previous)
        assert code == 0
        for path in (out, Path(str(out) + ".meta.json"), Path(str(out) + ".npz")):
            assert stat.S_IMODE(path.stat().st_mode) == mode
        assert not [p.name for p in workdir["dir"].iterdir() if p.name.startswith(".tmp-")]

    def test_outputs_written_without_touching_the_umask(self, workdir, monkeypatch):
        # The umask is process-wide state; writing an output never sets it.
        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        out = workdir["dir"]
        assert main(["debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
                     "--out", str(out / "hsr.txt")]) == 0
        reports = []
        for name in ("a", "b"):
            reports.append(str(out / f"{name}.json"))
            assert main(["eval", "--embeddings", str(out / "hsr.txt"),
                         "--original-embeddings", workdir["emb"],
                         "--gender-list", workdir["gender"], "--metrics", "relation",
                         "--professions", workdir["professions"], "--top-biased", "10",
                         "--neighbors", "5", "--classify-n", "20", "--classify-train", "5",
                         "--label", name, "--out", reports[-1]]) == 0
        assert main(["compare", *reports, "--out", str(out / "table.tsv")]) == 0
        assert (out / "a.professions.tsv").exists() and (out / "table.tsv").exists()

    def test_output_mode_follows_default_acl(self, workdir, tmp_path):
        # A default ACL of rw-rw-r-- overrides the umask for every file made in
        # the directory; the outputs get the mode open() gives a file there.
        directory = tmp_path / "shared"
        directory.mkdir()
        entries = ((0x01, 6), (0x04, 6), (0x10, 6), (0x20, 4))  # user::, group::, mask::, other::
        acl = struct.pack("<I", 2) + b"".join(struct.pack("<HHI", tag, perm, 0xFFFFFFFF)
                                              for tag, perm in entries)
        try:
            os.setxattr(directory, "system.posix_acl_default", acl)
        except (AttributeError, OSError) as exc:
            pytest.skip(f"no default ACL on this filesystem: {exc}")
        out = directory / "shared.txt"
        previous = os.umask(0o077)
        try:
            with open(directory / "plain", "w"):
                pass
            code = main(["debias", "--embeddings", workdir["emb"],
                         "--gender-list", workdir["gender"], "--out", str(out)])
        finally:
            os.umask(previous)
        assert code == 0
        mode = stat.S_IMODE((directory / "plain").stat().st_mode)
        assert mode == 0o664  # not 0o600: the umask does not apply
        for path in (out, Path(f"{out}.npz"), Path(f"{out}.meta.json")):
            assert stat.S_IMODE(path.stat().st_mode) == mode

    def test_forked_write_matches_one_process(self, workdir, monkeypatch, forks):
        # 64 rows in blocks of 5: this process and three children write a range each.
        spool = workdir["dir"] / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        written = {}
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            out = workdir["dir"] / f"cpus{len(cpus)}.txt"
            assert main(["debias", "--embeddings", workdir["emb"],
                         "--gender-list", workdir["gender"], "--out", str(out)]) == 0
            written[len(cpus)] = out.read_bytes(), Path(f"{out}.npz").read_bytes()
        assert len(forks) == 3
        assert written[4] == written[1]
        assert list(spool.iterdir()) == []
        assert_no_child_left()

    def test_failed_write_process_leaves_nothing(self, workdir, monkeypatch, forks, capfd):
        from fairvec import embedding_store

        spool = workdir["dir"] / "spool"
        spool.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(spool))
        parent = os.getpid()
        real_text_rows = embedding_store._text_rows

        def failing_in_children(words, vectors):
            if os.getpid() != parent:
                raise OSError(28, "No space left on device")
            return real_text_rows(words, vectors)

        monkeypatch.setattr(embedding_store, "_text_rows", failing_in_children)
        before = sorted(workdir["dir"].iterdir())
        open_files = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0
        code = main(["debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
                     "--out", str(workdir["dir"] / "failed.txt")])
        assert code == 2
        err = capfd.readouterr().err
        assert "No space left on device" in err
        assert "error: a process formatting embedding rows failed" in err
        assert sorted(workdir["dir"].iterdir()) == before  # no <out>, .npz or .tmp- file
        assert list(spool.iterdir()) == []
        if open_files:
            assert len(os.listdir("/proc/self/fd")) == open_files
        assert forks
        assert_no_child_left()


@pytest.fixture
def text_parses(monkeypatch):
    """Base names of the embedding files the CLI parses as text, in order."""
    parsed = []
    real_load = fairvec.cli.load_embeddings

    def counting_load(source, *args, **kwargs):
        parsed.append(os.path.basename(source.name))
        return real_load(source, *args, **kwargs)

    monkeypatch.setattr(fairvec.cli, "load_embeddings", counting_load)
    return parsed


class TestBinaryCopy:
    """`debias` writes <out>.npz; loads use it only for the exact text it was written with."""

    def debias(self, workdir, name, source=None, extra=()):
        out = str(workdir["dir"] / name)
        code = main([
            "debias", "--embeddings", source or workdir["emb"],
            "--gender-list", workdir["gender"], "--out", out, *extra,
        ])
        assert code == 0
        return out

    def eval_outputs(self, workdir, embeddings, group, extra=(), original=None):
        """The report, and for relation the professions table, as bytes;
        direction evals take --original-embeddings from emb.txt by default."""
        out = workdir["dir"] / f"{group}.json"
        argv = ["eval", "--embeddings", embeddings, "--metrics", group, "--label", "x",
                "--out", str(out), *extra]
        if group == "direction":
            original = original or workdir["emb"]
            argv += ["--gender-list", workdir["gender"],
                     "--sembias", workdir["sembias"], "--top-biased", "10"]
        elif group == "relation":
            argv += ["--gender-list", workdir["gender"], "--weat", workdir["weat"],
                     "--professions", workdir["professions"], "--top-biased", "10",
                     "--neighbors", "5", "--classify-n", "20", "--classify-train", "5"]
        else:
            argv += ["--wordsim", f"toy={workdir['wordsim']}",
                     "--sts", f"2015/planted={workdir['sts']}"]
        if original:
            argv += ["--original-embeddings", original]
        assert main(argv) == 0
        outputs = [out.read_bytes()]
        if group == "relation":
            outputs.append((workdir["dir"] / f"{group}.professions.tsv").read_bytes())
        return outputs

    @pytest.mark.parametrize("group, extra", [
        ("direction", []),
        ("direction", ["--vocab-cap", "50"]),
        ("relation", []),
        ("quality", []),
        ("quality", ["--vocab-cap", "50"]),
    ])
    def test_outputs_identical_without_binary_copy(self, workdir, text_parses, group, extra):
        hsr = self.debias(workdir, "hsr.txt")
        with_copy = self.eval_outputs(workdir, hsr, group, extra)
        assert "hsr.txt" not in text_parses
        os.remove(hsr + ".npz")
        assert self.eval_outputs(workdir, hsr, group, extra) == with_copy
        assert "hsr.txt" in text_parses

    @pytest.mark.parametrize("group", ["direction", "relation"])
    @pytest.mark.parametrize("extra", [[], ["--vocab-cap", "58"]], ids=["full", "capped"])
    def test_eval_against_input_parses_no_text(self, workdir, text_parses, group, extra):
        # The input entry of hsr.txt.npz serves --original-embeddings emb.txt.
        hsr = self.debias(workdir, "hsr.txt")
        with np.load(hsr + ".npz") as archive:
            assert str(archive["input_sha256"]) == read_json(
                hsr + ".meta.json")["inputs"]["embeddings"]["sha256"]
            assert archive["input_vectors"].tobytes() == load_embeddings(
                workdir["emb"]).vectors.tobytes()
        with_copy = self.eval_outputs(workdir, hsr, group, extra, original=workdir["emb"])
        assert text_parses == ["emb.txt"]  # the debias alone
        os.remove(hsr + ".npz")
        assert self.eval_outputs(workdir, hsr, group, extra, original=workdir["emb"]) == with_copy
        assert text_parses == ["emb.txt", "hsr.txt", "emb.txt"]

    def test_eval_against_input_reads_the_archive_once(self, workdir, monkeypatch):
        # Both sets come from one read of hsr.txt.npz and share its decoded words.
        hsr = self.debias(workdir, "hsr.txt")
        reads, sets = [], []
        real_load_binary, real_direction = fairvec.cli._load_binary, fairvec.cli._eval_direction

        def counting_load_binary(path, *args):
            reads.append(os.path.basename(path))
            return real_load_binary(path, *args)

        def recording_direction(args, embeddings, original, *rest):
            sets.append((embeddings, original))
            return real_direction(args, embeddings, original, *rest)

        monkeypatch.setattr(fairvec.cli, "_load_binary", counting_load_binary)
        monkeypatch.setattr(fairvec.cli, "_eval_direction", recording_direction)
        self.eval_outputs(workdir, hsr, "direction", original=workdir["emb"])
        assert reads == ["hsr.txt.npz"]
        [(embeddings, original)] = sets
        assert original is not embeddings
        assert original.words is embeddings.words

    def test_original_served_by_its_own_copy(self, workdir, text_parses, monkeypatch):
        # hard.txt.npz holds hard.txt and emb.txt, so hsr.txt comes from hsr.txt.npz.
        hsr = self.debias(workdir, "hsr.txt")
        hard = self.debias(workdir, "hard.txt", extra=["--method", "hard"])
        reads = []
        real_load_binary = fairvec.cli._load_binary

        def counting_load_binary(path, *args):
            reads.append(os.path.basename(path))
            return real_load_binary(path, *args)

        monkeypatch.setattr(fairvec.cli, "_load_binary", counting_load_binary)
        with_copies = self.eval_outputs(workdir, hard, "direction", original=hsr)
        assert text_parses == ["emb.txt", "emb.txt"]  # the two debias runs alone
        assert reads == ["hard.txt.npz", "hsr.txt.npz"]
        for copy in workdir["dir"].glob("*.npz"):
            copy.unlink()
        assert self.eval_outputs(workdir, hard, "direction", original=hsr) == with_copies

    @pytest.mark.parametrize("cap", [[], ["--vocab-cap", "58"]], ids=["full", "capped"])
    @pytest.mark.parametrize("original", ["absent", "same", "input"])
    @pytest.mark.parametrize("source", ["fresh", "stale", "absent"])
    @pytest.mark.parametrize("own", ["fresh", "stale"])
    def test_every_archive_state_writes_the_text_outputs(self, workdir, text_parses, own,
                                                         source, original, cap):
        # A stale entry was written for other bytes and holds other vectors, so
        # serving it, or serving an entry for the wrong file, changes the outputs.
        hsr = self.debias(workdir, "hsr.txt")
        with np.load(hsr + ".npz") as archive:
            entries = {key: archive[key] for key in archive.files}
        other = np.array(hashlib.sha256(b"other text").hexdigest())
        if own == "stale":
            entries.update(sha256=other, vectors=2 * entries["vectors"])
        if source == "stale":
            entries.update(input_sha256=other, input_vectors=2 * entries["input_vectors"])
        elif source == "absent":
            del entries["input_sha256"], entries["input_vectors"]
        np.savez(hsr + ".npz", **entries)
        named = {"absent": None, "same": hsr, "input": workdir["emb"]}[original]
        with_copies = self.eval_outputs(workdir, hsr, "relation", cap, original=named)
        assert text_parses == ["emb.txt",  # the debias
                               *["hsr.txt"] * (own == "stale"),
                               *["emb.txt"] * (original == "input" and source != "fresh")]
        for copy in workdir["dir"].glob("*.npz"):
            copy.unlink()
        assert self.eval_outputs(workdir, hsr, "relation", cap, original=named) == with_copies

    def test_capped_debias_writes_no_input_entry(self, workdir, text_parses):
        hsr = self.debias(workdir, "hsr.txt", extra=["--vocab-cap", "50"])
        with np.load(hsr + ".npz") as archive:
            assert sorted(archive.files) == ["sha256", "vectors", "words"]
        self.eval_outputs(workdir, hsr, "direction", ["--vocab-cap", "50"])
        assert text_parses == ["emb.txt", "emb.txt"]

    def test_edited_input_ignores_input_entry(self, workdir, text_parses):
        hsr = self.debias(workdir, "hsr.txt")
        before = self.eval_outputs(workdir, hsr, "direction")
        planted = workdir["planted"].embeddings
        write_embedding_file(workdir["emb"], EmbeddingSet(planted.words, 2 * planted.vectors))
        edited = self.eval_outputs(workdir, hsr, "direction")
        assert text_parses == ["emb.txt", "emb.txt"]
        os.remove(hsr + ".npz")
        assert self.eval_outputs(workdir, hsr, "direction") == edited != before

    def test_edited_output_keeps_input_entry(self, workdir, text_parses):
        hsr = self.debias(workdir, "hsr.txt")
        Path(hsr).write_bytes(Path(workdir["emb"]).read_bytes())  # same words, other vectors
        edited = self.eval_outputs(workdir, hsr, "direction")
        assert text_parses == ["emb.txt"]  # the input entry serves both files' bytes
        os.remove(hsr + ".npz")
        assert self.eval_outputs(workdir, hsr, "direction") == edited
        assert text_parses == ["emb.txt", "hsr.txt"]  # one parse for the one digest

    def test_archive_without_input_entry_serves_output(self, workdir, text_parses):
        # The archive as debias wrote it before the input entry existed.
        hsr = self.debias(workdir, "hsr.txt")
        expected = self.eval_outputs(workdir, hsr, "direction")
        with np.load(hsr + ".npz") as archive:
            own = {key: archive[key] for key in ("sha256", "words", "vectors")}
        np.savez(hsr + ".npz", **own)
        assert self.eval_outputs(workdir, hsr, "direction") == expected
        assert text_parses == ["emb.txt", "emb.txt"]

    @pytest.mark.parametrize("damage", [
        lambda entries: entries.update(input_sha256=np.array("0" * 64)),
        lambda entries: entries.update(input_vectors=entries["input_vectors"][:-1]),
        lambda entries: entries.update(input_vectors=entries["input_vectors"].astype(np.float32)),
        lambda entries: entries["input_vectors"].__setitem__((3, 2), np.inf),
    ], ids=["other-digest", "fewer-rows", "float32", "inf"])
    def test_bad_input_entry_ignored(self, workdir, text_parses, damage):
        hsr = self.debias(workdir, "hsr.txt")
        expected = self.eval_outputs(workdir, hsr, "direction")
        with np.load(hsr + ".npz") as archive:
            entries = {key: archive[key] for key in archive.files}
        damage(entries)
        np.savez(hsr + ".npz", **entries)
        assert self.eval_outputs(workdir, hsr, "direction") == expected
        assert text_parses == ["emb.txt", "emb.txt"]  # the output copy still serves

    def test_edited_text_ignores_binary_copy(self, workdir, text_parses):
        hsr = self.debias(workdir, "hsr.txt")
        debiased = self.eval_outputs(workdir, hsr, "quality")
        Path(hsr).write_bytes(Path(workdir["emb"]).read_bytes())  # same words, other vectors
        edited = self.eval_outputs(workdir, hsr, "quality")
        assert text_parses == ["emb.txt"]  # the input entry was written for these bytes
        original = self.eval_outputs(workdir, workdir["emb"], "quality")
        metrics = [json.loads(outputs[0])["metrics"] for outputs in (debiased, edited, original)]
        assert metrics[1] == metrics[2] != metrics[0]

    @pytest.mark.parametrize("damage", [
        lambda data: data[: len(data) // 2],
        lambda data: data[:-1],
        lambda data: b"not an archive\n" * 8,
        lambda data: b"",
    ], ids=["half", "last-byte", "garbage", "empty"])
    def test_damaged_binary_copy_ignored(self, workdir, text_parses, damage):
        # Both entries are lost: the output's and, for a direction eval, the input's.
        hsr = self.debias(workdir, "hsr.txt")
        copy = Path(hsr + ".npz")
        expected = [self.eval_outputs(workdir, hsr, group) for group in ("quality", "direction")]
        copy.write_bytes(damage(copy.read_bytes()))
        assert [self.eval_outputs(workdir, hsr, group)
                for group in ("quality", "direction")] == expected
        assert text_parses == ["emb.txt", "hsr.txt", "hsr.txt", "emb.txt"]

    def test_truncated_binary_copy_leaves_no_open_file(self, workdir):
        hsr = self.debias(workdir, "hsr.txt")
        copy = Path(hsr + ".npz")
        copy.write_bytes(copy.read_bytes()[:-1])
        digest = hashlib.sha256(Path(hsr).read_bytes()).hexdigest()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert _load_binary(str(copy), {digest}) == {}
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_chained_debias_reads_binary_copy(self, workdir, text_parses):
        hsr = self.debias(workdir, "hsr.txt")
        twice = self.debias(workdir, "twice.txt", source=hsr)
        assert text_parses == ["emb.txt"]
        outputs = [Path(twice + suffix).read_bytes() for suffix in ("", ".npz", ".meta.json")]
        os.remove(hsr + ".npz")
        self.debias(workdir, "twice.txt", source=hsr)
        assert text_parses == ["emb.txt", "hsr.txt"]
        assert [Path(twice + suffix).read_bytes()
                for suffix in ("", ".npz", ".meta.json")] == outputs

    def test_repeated_debias_writes_identical_binary_copy(self, workdir):
        out = workdir["dir"] / "d.txt.npz"
        self.debias(workdir, "d.txt")
        first = out.read_bytes()
        self.debias(workdir, "d.txt")
        assert out.read_bytes() == first

    def test_header_shaped_output_agrees_with_binary_copy(self, tmp_path):
        # The definition row "7 1" comes first and the next row has two fields,
        # so without a header the text would load without that row.
        emb = tmp_path / "shaped.txt"
        emb.write_text("3 1\n7 1\nb 0.5\nc 2\n")
        gender = tmp_path / "gender.txt"
        gender.write_text("7\n")
        out = str(tmp_path / "out.txt")
        assert main(["debias", "--embeddings", str(emb), "--gender-list", str(gender),
                     "--out", out]) == 0
        text = load_embeddings(out)
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        copy = _load_binary(out + ".npz", {digest})[digest]
        assert text.words == copy.words == ("7", "b", "c")
        assert np.array_equal(text.vectors, copy.vectors)

    def test_binary_copy_with_duplicate_words_ignored(self, workdir, text_parses):
        hsr = self.debias(workdir, "hsr.txt")
        expected = self.eval_outputs(workdir, hsr, "quality")
        with np.load(hsr + ".npz") as archive:
            sha256, vectors = archive["sha256"], archive["vectors"]
            words = archive["words"].tobytes().decode("utf-8").split("\n")
        words[1] = words[0]
        np.savez(hsr + ".npz", sha256=sha256, vectors=vectors,
                 words=np.frombuffer("\n".join(words).encode("utf-8"), dtype=np.uint8))
        assert self.eval_outputs(workdir, hsr, "quality") == expected
        assert text_parses == ["emb.txt", "hsr.txt"]

    @pytest.mark.parametrize("damage", [
        lambda vectors: vectors[:-1],
        lambda vectors: np.vstack([vectors, vectors[:1]]),
        lambda vectors: np.where(np.arange(vectors.size).reshape(vectors.shape) == 7,
                                 np.nan, vectors),
    ], ids=["fewer-rows", "more-rows", "nan"])
    def test_binary_copy_with_bad_matrix_ignored(self, workdir, text_parses, damage):
        hsr = self.debias(workdir, "hsr.txt")
        expected = self.eval_outputs(workdir, hsr, "quality")
        with np.load(hsr + ".npz") as archive:
            sha256, words, vectors = archive["sha256"], archive["words"], archive["vectors"]
        np.savez(hsr + ".npz", sha256=sha256, words=words, vectors=damage(vectors))
        assert _load_binary(hsr + ".npz", {str(sha256)}) == {}
        [(loaded, _)] = fairvec.cli._load_embedding_files([hsr], None)
        assert loaded.vectors.tobytes() == vectors.tobytes()
        assert self.eval_outputs(workdir, hsr, "quality") == expected
        assert text_parses == ["emb.txt", "hsr.txt", "hsr.txt"]

    def test_binary_copy_load_does_not_copy_the_matrix(self, tmp_path):
        import tracemalloc

        from fairvec import EmbeddingSet
        from fairvec.embedding_store import _save_binary

        vectors = np.random.default_rng(0).normal(size=(2000, 300))
        path = str(tmp_path / "set.npz")
        with open(path, "wb") as sink:
            _save_binary(EmbeddingSet(tuple(f"w{i}" for i in range(2000)), vectors),
                         "digest", sink)
        tracemalloc.start()
        try:
            loaded = _load_binary(path, {"digest"})["digest"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.vectors, vectors)
        assert peak < 1.5 * vectors.nbytes

    @pytest.mark.parametrize("damage", ["crc", "compressed", "more-rows", "fortran", "npy-2.0"])
    def test_archive_failing_a_member_check_ignored(self, workdir, text_parses, damage):
        # Members are read straight from the zip directory's offsets, so the
        # directory's CRC-32 and size are the checks on what was read.
        hsr = self.debias(workdir, "hsr.txt")
        copy = Path(hsr + ".npz")
        with np.load(copy) as archive:
            entries = {key: archive[key] for key in archive.files}
        if damage == "crc":
            data = bytearray(copy.read_bytes())
            data[data.index(entries["vectors"].tobytes()) + 8 * 7] ^= 0x01
            copy.write_bytes(bytes(data))
        elif damage == "compressed":  # debias never writes one
            np.savez_compressed(copy, **entries)
        elif damage == "fortran":  # nor a Fortran-order member
            np.savez(copy, **{**entries, "vectors": np.asfortranarray(entries["vectors"])})
        else:  # a consistent zip whose vectors member is not as debias writes it
            with zipfile.ZipFile(copy, "w") as archive:
                for key, value in entries.items():
                    member = io.BytesIO()
                    if key != "vectors":
                        np.save(member, value)
                    elif damage == "npy-2.0":
                        np.lib.format.write_array(member, value, version=(2, 0))
                    else:  # its header claims one row more than it holds
                        np.lib.format.write_array_header_1_0(member, {
                            "descr": "<f8", "fortran_order": False,
                            "shape": (len(value) + 1, value.shape[1])})
                        member.write(value.tobytes())
                    archive.writestr(key + ".npy", member.getvalue())
        with_copy = self.eval_outputs(workdir, hsr, "direction")
        assert text_parses == ["emb.txt", "hsr.txt", "emb.txt"]
        copy.unlink()
        assert self.eval_outputs(workdir, hsr, "direction") == with_copy


class TestLoadThreads:
    """Embedding files are hashed in worker threads, all joined before the load ends."""

    @pytest.mark.parametrize("case", ["success", "missing", "damaged"])
    def test_no_thread_outlives_the_load(self, workdir, monkeypatch, case):
        hsr = str(workdir["dir"] / "hsr.txt")
        assert main(["debias", "--embeddings", workdir["emb"],
                     "--gender-list", workdir["gender"], "--out", hsr]) == 0
        paths = [hsr, workdir["emb"]]
        if case == "missing":
            paths[1] = str(workdir["dir"] / "nosuch.txt")
        elif case == "damaged":  # one file, so no later copy's wait joins the worker
            Path(hsr + ".npz").write_bytes(b"not an archive\n" * 8)
            paths = [hsr]
        on_main = []
        real_sha256 = fairvec.cli._sha256

        def recording_sha256(path):
            on_main.append(threading.current_thread() is threading.main_thread())
            time.sleep(0.05)  # still hashing when the archive read ends
            return real_sha256(path)

        monkeypatch.setattr(fairvec.cli, "_sha256", recording_sha256)
        before = threading.active_count()
        if case == "missing":
            with pytest.raises(FileNotFoundError, match="nosuch.txt"):
                fairvec.cli._load_embedding_files(paths, None)
        else:
            loaded = fairvec.cli._load_embedding_files(paths, None)
            assert [record["path"] for _, record in loaded] == paths
        assert threading.active_count() == before
        assert on_main == [False] * len(paths)

    def test_one_cpu_still_hashes_each_file_on_its_own_thread(self, workdir, monkeypatch):
        hsr = str(workdir["dir"] / "hsr.txt")
        assert main(["debias", "--embeddings", workdir["emb"],
                     "--gender-list", workdir["gender"], "--out", hsr]) == 0
        threads = []
        real_sha256 = fairvec.cli._sha256

        def recording_sha256(path):
            threads.append(threading.current_thread())
            return real_sha256(path)

        monkeypatch.setattr(fairvec.cli, "_sha256", recording_sha256)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = threading.active_count()
        fairvec.cli._load_embedding_files([hsr, workdir["emb"]], None)
        assert threading.active_count() == before
        assert len(set(threads)) == len(threads) == 2
        assert threading.main_thread() not in threads

    def test_debias_forks_its_writers_after_the_hash(self, workdir, forks):
        # _writers forks only while no other thread is alive.
        assert main(["debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
                     "--out", str(workdir["dir"] / "forked.txt")]) == 0
        assert forks
        assert_no_child_left()


class TestEvalCommand:
    def run_eval(self, workdir, metrics, out, extra=(), embeddings=None):
        argv = [
            "eval", "--embeddings", embeddings or workdir["emb"],
            "--gender-list", workdir["gender"],
            "--metrics", metrics, "--out", out, "--label", "test",
        ]
        argv += list(extra)
        return main(argv)

    def test_direction_on_hard_debiased(self, workdir):
        debiased = str(workdir["dir"] / "hard.txt")
        main([
            "debias", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
            "--method", "hard", "--out", debiased,
        ])
        out = str(workdir["dir"] / "dir.json")
        code = main([
            "eval", "--embeddings", debiased, "--original-embeddings", workdir["emb"],
            "--gender-list", workdir["gender"], "--metrics", "direction",
            "--sembias", workdir["sembias"], "--top-biased", "10", "--out", out,
        ])
        assert code == 0
        report = read_json(out)
        assert report["errors"] == {}
        assert abs(report["metrics"]["projection_bias"]) < 1e-10
        assert "sembias_acc" in report["metrics"]
        assert "sembias_subset_acc" in report["metrics"]
        assert report["provenance"]["sembias_counts"] == {"used": 2, "skipped": 0}

    def test_direction_values_match_library(self, workdir):
        out = str(workdir["dir"] / "dir2.json")
        code = self.run_eval(workdir, "direction", out, extra=["--top-biased", "10"])
        assert code == 0
        report = read_json(out)
        planted = workdir["planted"]
        from fairvec import mean_abs_projection_bias, select_biased_words

        part = partition(planted.embeddings, list(planted.gender_list))
        lists = select_biased_words(planted.embeddings, part, 10)
        expected = mean_abs_projection_bias(planted.embeddings, lists)
        assert report["metrics"]["projection_bias"] == expected

    def test_relation_group_complete(self, workdir):
        out = str(workdir["dir"] / "rel.json")
        code = self.run_eval(
            workdir, "relation", out,
            extra=[
                "--weat", workdir["weat"], "--professions", workdir["professions"],
                "--top-biased", "10", "--neighbors", "5",
                "--classify-n", "20", "--classify-train", "5",
            ],
        )
        assert code == 0
        report = read_json(out)
        metrics = report["metrics"]
        assert metrics["gbwr_purity"] == 1.0
        assert -1.0 <= metrics["gbwr_correlation"] <= 1.0
        assert -1.0 <= metrics["gbwr_profession"] <= 1.0
        assert 0.0 <= metrics["gbwr_classification_acc"] <= 1.0
        weat = metrics["weat_pvalues"]
        assert len(weat) == 1 and weat[0]["name"] == "planted"
        assert 0.0 < weat[0]["p_value"] <= 1.0
        tsv = workdir["dir"] / "rel.professions.tsv"
        lines = tsv.read_text().splitlines()
        assert lines[0] == "word\tmale_neighbors\toriginal_bias"
        assert len(lines) == 11

    @pytest.mark.parametrize("normalized", [False, True])
    def test_profession_tsv_prints_each_word_projection(self, workdir, normalized):
        out = str(workdir["dir"] / "prof.json")
        extra = ["--professions", workdir["professions"], "--top-biased", "10",
                 "--neighbors", "5", "--classify-n", "20", "--classify-train", "5"]
        code = self.run_eval(workdir, "relation", out,
                             extra=extra + ["--normalized-projection"] * normalized)
        assert code == 0
        rows = (workdir["dir"] / "prof.professions.tsv").read_text().splitlines()[1:]
        planted = workdir["planted"].embeddings
        assert rows == [
            f"{word}\t{count}\t{bias_by_projection(planted, word, normalized)!r}"
            for word, count, _ in (row.split("\t") for row in rows)
        ]

    def test_profession_word_holding_a_tab_reads_back(self, workdir):
        emb = workdir["dir"] / "emb.txt"
        row = next(line for line in emb.read_text().splitlines() if line.startswith("m5 "))
        word = 'm5\t"5"'
        with open(emb, "a", encoding="utf-8") as handle:
            handle.write(word + row[2:] + "\n")
        with open(workdir["professions"], "a", encoding="utf-8") as handle:
            handle.write(word + "\n")
        out = str(workdir["dir"] / "tab.json")
        assert self.run_eval(workdir, "relation", out, extra=[
            "--professions", workdir["professions"], "--top-biased", "10", "--neighbors", "5",
            "--classify-n", "20", "--classify-train", "5"]) == 0
        with open(workdir["dir"] / "tab.professions.tsv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle, delimiter="\t"))
        assert rows[0] == ["word", "male_neighbors", "original_bias"]
        assert rows[-1][0] == word and len(rows) == 12
        assert {len(row) for row in rows} == {3}

    def test_relation_byte_identical_reruns(self, workdir):
        outs = [str(workdir["dir"] / f"rel{i}.json") for i in (1, 2)]
        for out in outs:
            code = self.run_eval(
                workdir, "relation", out,
                extra=[
                    "--weat", workdir["weat"], "--seed", "42",
                    "--top-biased", "10", "--neighbors", "5",
                    "--classify-n", "20", "--classify-train", "5",
                ],
            )
            assert code == 0
        first, second = (Path(o).read_bytes() for o in outs)
        assert first == second

    def test_quality_values_match_library(self, workdir):
        out = str(workdir["dir"] / "qual.json")
        code = main([
            "eval", "--embeddings", workdir["emb"], "--metrics", "quality",
            "--wordsim", f"toy={workdir['wordsim']}",
            "--sts", f"2015/planted={workdir['sts']}",
            "--out", out,
        ])
        assert code == 0
        report = read_json(out)
        planted = workdir["planted"]

        human, model = [], []
        for a, b, score in [("m0", "m1", 5.0), ("m2", "f0", 1.5), ("f1", "f2", 4.0)]:
            human.append(score)
            model.append(cosine_similarity(
                planted.embeddings.vector(a), planted.embeddings.vector(b)
            ))
        ws = report["metrics"]["word_similarity"]["toy"]
        assert ws["spearman"] == spearman(human, model)
        assert (ws["used"], ws["skipped"]) == (3, 1)

        sentences = [
            ("m0 m1 m2", "m3 m4", 4.5),
            ("f0 f1", "f2 f3 f4", 3.8),
            ("m0 f0", "m1 f1", 2.0),
        ]
        human_s, model_s = [], []
        for s1, s2, score in sentences:
            human_s.append(score)
            model_s.append(cosine_similarity(
                sentence_embedding(planted.embeddings, s1.split()),
                sentence_embedding(planted.embeddings, s2.split()),
            ))
        sts = report["metrics"]["sts"]["2015/planted"]
        assert sts["pearson_x100"] == pearson(human_s, model_s) * 100.0
        assert (sts["used"], sts["skipped"]) == (3, 1)
        assert report["metrics"]["sts_yearly_average"] == {
            "2015": sts["pearson_x100"]
        }

    def test_missing_dataset_named(self, workdir, capsys):
        out = str(workdir["dir"] / "x.json")
        code = self.run_eval(
            workdir, "direction", out, extra=["--sembias", "missing-file.tsv"],
        )
        assert code == 2
        assert "missing-file.tsv" in capsys.readouterr().err

    def test_metric_errors_isolated(self, workdir, capsys):
        bad_weat = workdir["dir"] / "badweat.txt"
        bad_weat.write_text(
            "[targets_x]\nm0\nghost\n[targets_y]\nf0\nf1\n"
            "[attributes_a]\nhe\n[attributes_b]\nshe\n"
        )
        out = str(workdir["dir"] / "iso.json")
        code = self.run_eval(
            workdir, "relation", out,
            extra=[
                "--weat", str(bad_weat), "--top-biased", "10", "--neighbors", "5",
                "--classify-n", "20", "--classify-train", "5",
            ],
        )
        assert code == 1
        report = read_json(out)
        assert "weat_pvalues:badweat" in report["errors"]
        assert "ghost" in report["errors"]["weat_pvalues:badweat"]
        # the rest of the group still computed
        assert report["metrics"]["gbwr_purity"] == 1.0
        assert "gbwr_classification_acc" in report["metrics"]

    @pytest.mark.parametrize("kind, content, dataset, error, message", [
        ("wordsim", "m0\tm1\n", "wordsim:bad", "word_similarity:bad",
         "line 1: expected 3 tab-separated fields, got 2"),
        ("sts", "m0 m1\tm2\tx\n", "sts:2016/bad", "sts:2016/bad",
         "line 1: score 'x' is not a number"),
        ("weat", "[bogus]\nm0\n", "weat:bad", "weat_pvalues:bad",
         "line 1: unknown section 'bogus'"),
    ])
    def test_malformed_dataset_is_an_error_entry(self, workdir, capsys, kind, content,
                                                 dataset, error, message):
        bad = workdir["dir"] / "bad.tsv"
        bad.write_text(content)
        if kind == "weat":
            extra = ["--weat", workdir["weat"], "--weat", str(bad), "--top-biased", "10",
                     "--neighbors", "5", "--classify-n", "20", "--classify-train", "5"]
            metrics, expected = "relation", {
                "gbwr_purity", "gbwr_correlation", "gbwr_classification_acc", "weat_pvalues"}
        else:
            name = "bad" if kind == "wordsim" else "2016/bad"
            extra = ["--wordsim", f"toy={workdir['wordsim']}",
                     "--sts", f"2015/planted={workdir['sts']}", f"--{kind}", f"{name}={bad}"]
            metrics, expected = "quality", {"word_similarity", "sts", "sts_yearly_average"}
        out = str(workdir["dir"] / "bad.json")
        code = self.run_eval(workdir, metrics, out, extra=extra)
        assert code == 1
        report = read_json(out)
        assert report["errors"] == {error: message}
        assert set(report["metrics"]) == expected
        assert dataset in report["provenance"]["datasets"]
        if kind == "weat":
            assert [entry["name"] for entry in report["metrics"]["weat_pvalues"]] == ["planted"]
        else:
            assert list(report["metrics"]["word_similarity"]) == ["toy"]
            assert list(report["metrics"]["sts"]) == ["2015/planted"]
            assert list(report["metrics"]["sts_yearly_average"]) == ["2015"]
        assert f"metric {error} failed: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("later, content", [
        ("other", "name: planted\n"),  # a different stem with the same name: line
        ("planted", ""),  # no name: line, so the stem names it
    ], ids=["same-name-line", "stem-is-the-name"])
    def test_repeated_weat_name_is_an_error_entry(self, workdir, capsys, later, content):
        # compare flattens each entry to weat_pvalues.<name>.* rows; a second
        # entry with the same name would silently replace the first one's values.
        with open(workdir["weat"], encoding="utf-8") as handle:
            spec = handle.read().replace("name: planted\n", "")
        repeat = workdir["dir"] / f"{later}.txt"
        repeat.write_text(content + spec)
        out = str(workdir["dir"] / "repeat.json")
        code = self.run_eval(workdir, "relation", out, extra=[
            "--weat", workdir["weat"], "--weat", str(repeat), "--top-biased", "10",
            "--neighbors", "5", "--classify-n", "20", "--classify-train", "5"])
        assert code == 1
        report = read_json(out)
        message = f"test name 'planted' is already used by {workdir['weat']}"
        assert report["errors"] == {f"weat_pvalues:{later}": message}
        entries = report["metrics"]["weat_pvalues"]
        assert [entry["name"] for entry in entries] == ["planted"]
        alone = str(workdir["dir"] / "alone.json")
        assert self.run_eval(workdir, "relation", alone, extra=[
            "--weat", workdir["weat"], "--top-biased", "10", "--neighbors", "5",
            "--classify-n", "20", "--classify-train", "5"]) == 0
        assert entries == read_json(alone)["metrics"]["weat_pvalues"]
        assert f"weat:{later}" in report["provenance"]["datasets"]
        assert f"metric weat_pvalues:{later} failed: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("professions", [False, True])
    def test_biased_word_selection_failure(self, workdir, capsys, professions):
        # 30 neutral words per gender, so a pool of 100 per gender cannot be chosen;
        # the classifier probe picks its own, smaller lists.
        extra = ["--weat", workdir["weat"], "--top-biased", "100", "--neighbors", "5",
                 "--classify-n", "20", "--classify-train", "5"]
        names = ["gbwr_purity", "gbwr_correlation"]
        if professions:
            extra += ["--professions", workdir["professions"]]
            names.append("gbwr_profession")
        out = str(workdir["dir"] / "sel.json")
        code = self.run_eval(workdir, "relation", out, extra=extra)
        assert code == 1
        report = read_json(out)
        message = "biased-word selection failed: only 30 male-biased candidates, need 100"
        assert report["errors"] == {name: message for name in names}
        assert set(report["metrics"]) == {"weat_pvalues", "gbwr_classification_acc"}
        assert list(report["provenance"]["datasets"]) == ["weat:weat"]
        assert not (workdir["dir"] / "sel.professions.tsv").exists()
        err = capsys.readouterr().err
        assert all(f"metric {name} failed: {message}" in err for name in names)

    def test_direction_selection_failure(self, workdir):
        out = str(workdir["dir"] / "dsel.json")
        code = self.run_eval(workdir, "direction", out, extra=["--top-biased", "100"])
        assert code == 1
        report = read_json(out)
        assert report["errors"] == {
            "projection_bias": "only 30 male-biased candidates, need 100"}
        assert report["metrics"] == {}

    def test_malformed_sembias_is_an_error_entry(self, workdir, capsys):
        bad = workdir["dir"] / "badsem.tsv"
        bad.write_text("he she definition\tm0 f0 biased\n")
        out = str(workdir["dir"] / "badsem.json")
        code = self.run_eval(workdir, "direction", out,
                             extra=["--sembias", str(bad), "--top-biased", "10"])
        assert code == 1
        report = read_json(out)
        message = "line 1: expected 4 tab-separated pairs, got 2"
        assert report["errors"] == {"sembias_acc": message}
        assert set(report["metrics"]) == {"projection_bias"}
        assert list(report["provenance"]["datasets"]) == ["sembias"]
        assert "sembias_counts" not in report["provenance"]
        assert f"metric sembias_acc failed: {message}" in capsys.readouterr().err

    def test_gender_list_required_for_relation(self, workdir):
        with pytest.raises(SystemExit):
            main([
                "eval", "--embeddings", workdir["emb"], "--metrics", "relation",
                "--out", str(workdir["dir"] / "x.json"),
            ])

    @pytest.mark.parametrize("kind, content, error", [
        ("wordsim", b"caf\xe9\tm0\t5.0\n", "word_similarity:latin"),
        ("sts", b"caf\xe9 m0\tm1\t4.0\n", "sts:latin"),
        ("weat", b"[targets_x]\ncaf\xe9\n", "weat_pvalues:latin"),
        ("sembias", b"caf\xe9 she definition\tm0 f0 biased\tm1 f1 other\tm2 f2 other\n",
         "sembias_acc"),
    ])
    def test_undecodable_dataset_is_an_error_entry(self, workdir, capsys, kind, content,
                                                   error):
        bad = workdir["dir"] / "latin.txt"
        bad.write_bytes(content)
        metrics = {"wordsim": "quality", "sts": "quality", "weat": "relation",
                   "sembias": "direction"}[kind]
        value = f"latin={bad}" if kind in ("wordsim", "sts") else str(bad)
        extra = [f"--{kind}", value, "--top-biased", "10", "--neighbors", "5",
                 "--classify-n", "20", "--classify-train", "5"]
        out = str(workdir["dir"] / "latin.json")
        code = self.run_eval(workdir, metrics, out, extra=extra)
        assert code == 1
        message = f"{bad}: not UTF-8 text (undecodable byte 0xe9)"
        assert read_json(out)["errors"] == {error: message}
        assert f"metric {error} failed: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("which", ["embeddings", "gender"])
    def test_undecodable_input_exits_2(self, workdir, capsys, which):
        bad = workdir["dir"] / "latin.txt"
        if which == "embeddings":
            bad.write_bytes(Path(workdir["emb"]).read_bytes() + b"caf\xe9" + b" 1" * 12 + b"\n")
            argv = ["--embeddings", str(bad), "--gender-list", workdir["gender"]]
        else:
            bad.write_bytes(b"he\nshe\ncaf\xe9\n")
            argv = ["--embeddings", workdir["emb"], "--gender-list", str(bad)]
        out = workdir["dir"] / "latin.json"
        for command in (["eval", "--metrics", "direction", "--out", str(out)],
                        ["debias", "--out", str(workdir["dir"] / "latin.vec")]):
            assert main(command + argv) == 2
            err = capsys.readouterr().err
            assert err == f"error: {bad}: not UTF-8 text (undecodable byte 0xe9)\n"
        assert not out.exists()
        assert not (workdir["dir"] / "latin.vec").exists()

    @pytest.mark.parametrize("metrics, extra, named", [
        ("direction", [], "--gender-list"),
        ("relation", [], "--gender-list"),
        ("relation", ["--weat", "a/t.txt", "--weat", "b/t.txt"], "'t'"),
        ("quality", ["--wordsim", "toy=a.tsv", "--wordsim", "toy=b.tsv"], "'toy'"),
        ("quality", ["--sts", "2015/x=a.tsv", "--sts", "2016/y=b.tsv",
                     "--sts", "2015/x=c.tsv"], "'2015/x'"),
    ])
    def test_usage_errors_exit_2_before_reading(self, workdir, monkeypatch, capsys, metrics,
                                                extra, named):
        def no_reading(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.setattr(fairvec.cli, "_load_embedding_files", no_reading)
        monkeypatch.setattr(fairvec.cli, "_sha256", no_reading)
        out = workdir["dir"] / "usage.json"
        argv = ["eval", "--embeddings", workdir["emb"], "--metrics", metrics,
                "--out", str(out), *extra]
        if named != "--gender-list":
            argv += ["--gender-list", workdir["gender"]]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, named", [
        (["--vocab-cap", "0"], "value must be >= 1"),
        (["--vocab-cap", "ten"], "'ten' is not an integer"),
        (["--wordsim", "nameonly"], "expected NAME=PATH, got 'nameonly'"),
        (["--sts", "=a.tsv"], "expected NAME=PATH, got '=a.tsv'"),
        (["--seed", "-1"], "value must be >= 0"),
        (["--seed", "1.5"], "'1.5' is not an integer"),
        (["--out", "missing/usage.json"], "--out 'missing/usage.json'"),
        (["--out", "."], "--out '.' is a directory"),
        (["--out", ""], "--out '' is a directory, is empty"),
        (["--out", "new/"], "--out 'new/' is a directory"),
        # A report (or the professions table next to it) over a file the run reads.
        (["--out", "emb.txt"], "output 'emb.txt' would overwrite input"),
        (["--metrics", "direction", "--gender-list", "gender.txt", "--out", "gender.txt"],
         "output 'gender.txt' would overwrite input 'gender.txt'"),
        (["--original-embeddings", "usage.json"], "would overwrite input 'usage.json'"),
        (["--wordsim", "a=usage.json"], "would overwrite input 'usage.json'"),
        (["--sts", "a=./usage.json"], "would overwrite input './usage.json'"),
        (["--weat", "usage.json"], "would overwrite input 'usage.json'"),
        (["--sembias", "usage.json"], "would overwrite input 'usage.json'"),
        (["--metrics", "relation", "--gender-list", "gender.txt",
          "--professions", "usage.professions.tsv"],
         "would overwrite input 'usage.professions.tsv'"),
        # The binary copy <file>.npz that the load of each embedding file reads.
        (["--out", "emb.txt.npz"], "output 'emb.txt.npz' would overwrite input"),
        (["--original-embeddings", "orig.txt", "--out", "./orig.txt.npz"],
         "output './orig.txt.npz' would overwrite input 'orig.txt.npz'"),
    ])
    def test_bad_option_values_exit_2_before_reading(self, workdir, monkeypatch, capsys,
                                                    extra, named):
        def no_reading(*args, **kwargs):
            raise AssertionError("a file was read")

        monkeypatch.chdir(workdir["dir"])  # where a relative --out resolves
        monkeypatch.setattr(fairvec.cli, "_load_embedding_files", no_reading)
        monkeypatch.setattr(fairvec.cli, "_sha256", no_reading)
        out = workdir["dir"] / "usage.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--embeddings", workdir["emb"], "--metrics", "quality",
                  "--out", str(out), *extra])
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_distinct_dataset_names_accepted(self, workdir):
        out = str(workdir["dir"] / "names.json")
        wordsim, sts = workdir["wordsim"], workdir["sts"]
        code = main(["eval", "--embeddings", workdir["emb"], "--metrics", "quality",
                     "--wordsim", f"a={wordsim}", "--wordsim", f"b={wordsim}",
                     "--sts", f"2015/a={sts}", "--sts", f"a={sts}", "--out", out])
        assert code == 0
        assert sorted(read_json(out)["provenance"]["datasets"]) == [
            "sts:2015/a", "sts:a", "wordsim:a", "wordsim:b"]

    @pytest.mark.parametrize("original", [None, "same", "relative"])
    def test_each_input_file_hashed_once(self, workdir, monkeypatch, original):
        hashed = []
        real_sha256 = fairvec.cli._sha256

        def counting_sha256(path):
            hashed.append(os.path.abspath(path))
            return real_sha256(path)

        monkeypatch.setattr(fairvec.cli, "_sha256", counting_sha256)
        extra = []
        if original == "same":
            extra = ["--original-embeddings", workdir["emb"]]
        elif original == "relative":
            monkeypatch.chdir(workdir["dir"])
            extra = ["--original-embeddings", os.path.basename(workdir["emb"])]
        out = str(workdir["dir"] / "hashed.json")
        code = main([
            "eval", "--embeddings", workdir["emb"], "--metrics", "quality",
            "--wordsim", f"toy={workdir['wordsim']}", "--out", out, *extra,
        ])
        assert code == 0
        assert sorted(hashed) == sorted({workdir["emb"], workdir["wordsim"]})
        provenance = read_json(out)["provenance"]
        expected = hashlib.sha256(Path(workdir["emb"]).read_bytes()).hexdigest()
        assert provenance["embeddings"]["sha256"] == expected
        assert provenance["original_embeddings"] == {
            "path": extra[1] if extra else workdir["emb"], "sha256": expected,
        }

    def test_missing_original_exits_2_before_any_parse(self, workdir, text_parses, capsys):
        # Every file is hashed before any text is parsed; a hashing error names
        # the first failing file in argument order.
        out = workdir["dir"] / "missing.json"
        original, gone = (str(workdir["dir"] / name) for name in ("nosuch.txt", "gone.txt"))
        for embeddings, named in ((workdir["emb"], original), (gone, gone)):
            assert main(["eval", "--embeddings", embeddings, "--original-embeddings", original,
                         "--gender-list", workdir["gender"], "--metrics", "direction",
                         "--out", str(out)]) == 2
            assert capsys.readouterr().err == (
                f"error: [Errno 2] No such file or directory: {named!r}\n")
        assert text_parses == []
        assert not out.exists()

    def test_default_label_is_file_stem(self, workdir):
        out = str(workdir["dir"] / "lbl.json")
        main([
            "eval", "--embeddings", workdir["emb"], "--gender-list", workdir["gender"],
            "--metrics", "direction", "--top-biased", "10", "--out", out,
        ])
        assert read_json(out)["method"] == "emb"


class TestCompareCommand:
    def make_report(self, path, method, metrics):
        payload = {"method": method, "metrics": metrics, "provenance": {}, "errors": {}}
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    def test_identical_reports_identical_columns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        metrics = {"projection_bias": 0.25, "gbwr_purity": 1.0}
        self.make_report(a, "m1", metrics)
        self.make_report(b, "m2", metrics)
        code = main(["compare", str(a), str(b)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric\tm1\tm2"
        for line in lines[1:]:
            _, col1, col2 = line.split("\t")
            assert col1 == col2

    def test_disjoint_metrics_union_with_blanks(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, "m1", {"projection_bias": 0.5})
        self.make_report(b, "m2", {"gbwr_purity": 0.9})
        out = tmp_path / "table.tsv"
        code = main(["compare", str(a), str(b), "--out", str(out)])
        assert code == 0
        assert "different metric sets" in capsys.readouterr().err
        rows = {
            line.split("\t")[0]: line.split("\t")[1:]
            for line in out.read_text().splitlines()[1:]
        }
        assert rows["projection_bias"] == ["0.5", ""]
        assert rows["gbwr_purity"] == ["", "0.9"]

    def test_empty_out_exits_2_before_reading(self, tmp_path, capsys):
        # The reports do not exist: reading one would fail with exit code 2, not exit.
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--out", ""])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--out '' is a directory, is empty" in err

    def test_out_over_a_report_exits_2_before_reading(self, tmp_path, monkeypatch, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self.make_report(a, "m1", {"projection_bias": 0.5})
        self.make_report(b, "m2", {"projection_bias": 0.25})
        before = b.read_bytes()
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", str(a), str(b), "--out", "../b.json"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"output '../b.json' would overwrite input {str(b)!r}" in err
        assert b.read_bytes() == before

    def test_column_order_follows_arguments(self, tmp_path, capsys):
        paths = []
        for i, name in enumerate(("hsr", "hard", "none")):
            path = tmp_path / f"r{i}.json"
            self.make_report(path, name, {"projection_bias": float(i)})
            paths.append(str(path))
        main(["compare", *paths])
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "metric\thsr\thard\tnone"

    def test_nested_metrics_flattened(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        metrics = {
            "weat_pvalues": [{"name": "names", "p_value": 0.03, "statistic": 1.5,
                              "significant": True}],
            "word_similarity": {"simlex": {"spearman": 0.4, "used": 990, "skipped": 9}},
        }
        self.make_report(a, "m1", metrics)
        self.make_report(b, "m2", metrics)
        main(["compare", str(a), str(b)])
        out = capsys.readouterr().out
        assert "weat_pvalues.names.p_value\t0.03\t0.03" in out
        assert "word_similarity.simlex.spearman\t0.4\t0.4" in out

    def test_repeated_labels_get_plus_suffixes(self, tmp_path, capsys):
        # A label is taken from "method", else the file stem; a repeat gets "+"
        # until it is new, so every report keeps a column of its own.
        paths = [tmp_path / name for name in ("a.json", "b.json", "c.json", "hsr.json")]
        for path, method, value in zip(paths, ["hsr", "hsr", "hsr+"], [0.1, 0.2, 0.3]):
            self.make_report(path, method, {"projection_bias": value})
        paths[3].write_text(json.dumps({"metrics": {"projection_bias": 0.4}}))
        assert main(["compare", *map(str, paths)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "metric\thsr\thsr+\thsr++\thsr+++",
            "projection_bias\t0.1\t0.2\t0.3\t0.4",
        ]

    def test_cells_holding_tabs_read_back(self, tmp_path):
        # a label, a test name or a dataset name may hold a tab, a line break or '"'
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        metrics = {"weat_pvalues": [{"name": "x\ty", "p_value": 0.5}],
                   "word_similarity": {'say "hi"\r\n': {"spearman": 0.25}}}
        self.make_report(a, "m\t1", metrics)
        self.make_report(b, "m\r2", metrics)
        out = tmp_path / "table.tsv"
        assert main(["compare", str(a), str(b), "--out", str(out)]) == 0
        with open(out, encoding="utf-8", newline="") as handle:
            assert list(csv.reader(handle, delimiter="\t")) == [
                ["metric", "m\t1", "m\r2"],
                ["weat_pvalues.x\ty.p_value", "0.5", "0.5"],
                ['word_similarity.say "hi"\r\n.spearman', "0.25", "0.25"],
            ]

    def test_out_in_missing_directory_exits_2_before_reading(self, tmp_path, capsys):
        out = tmp_path / "missing" / "table.tsv"
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                  "--out", str(out)])
        assert excinfo.value.code == 2
        assert f"--out {str(out)!r}" in capsys.readouterr().err

    def test_fewer_than_two_reports(self, tmp_path):
        path = tmp_path / "a.json"
        self.make_report(path, "m1", {})
        with pytest.raises(SystemExit):
            main(["compare", str(path)])


    def test_fewer_than_two_reports_exits_2(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        self.make_report(path, "m1", {})
        out = tmp_path / "table.tsv"
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", str(path), "--out", str(out)])
        assert excinfo.value.code == 2
        assert "at least 2 reports" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("content, reason", [
        (b"metric\tm1\n", "Expecting value: line 1 column 1 (char 0)"),
        (b'{"method": "caf\xe9"}', "'utf-8' codec can't decode byte 0xe9"),
        (b"[1, 2]", "not an object"),
        (b'{"method": 5}', "method is not a string"),
        (b'{"method": null}', "method is not a string"),
    ])
    def test_not_a_report_exits_2(self, tmp_path, capsys, content, reason):
        good, bad = tmp_path / "a.json", tmp_path / "b.tsv"
        self.make_report(good, "m1", {"projection_bias": 0.5})
        bad.write_bytes(content)
        out = tmp_path / "table.tsv"
        assert main(["compare", str(good), str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: not a JSON report (")
        assert reason in err
        assert not out.exists()


def test_cli_import_loads_no_scipy():
    # scipy serves only as a test oracle; no fairvec process should pay its import.
    src = str(Path(fairvec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = "import sys, fairvec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


def test_set_operations_load_no_numpy_ma():
    # np.unique without index outputs imports numpy.ma, 16 ms of every
    # process that trains the classifier, scores purity or ranks neighbours.
    src = str(Path(fairvec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    probe = (
        "import sys, numpy as np\n"
        "from fairvec import EmbeddingSet, purity, train_linear_classifier\n"
        "from fairvec.embedding_store import top_k_neighbors\n"
        "train_linear_classifier(np.eye(4), [0, 1, 0, 1], 0)\n"
        "purity([2, 0, 2, 1], [0, 1, 0, 1])\n"
        "top_k_neighbors(EmbeddingSet(('a', 'b', 'c'), np.eye(3)), [0], 1, [2, 1, 2])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "False"


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _numpy_blas_is_openblas() -> bool:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(_usable_cpus() < 2, reason="needs 2 usable CPUs")
@pytest.mark.skipif(not _numpy_blas_is_openblas(), reason="numpy's BLAS is not OpenBLAS")
@pytest.mark.parametrize("method", ["hsr", "hard"])
def test_debias_bytes_repeat_per_blas_thread_count(tmp_path, method):
    # The README's promise: runs repeat byte for byte under one BLAS thread
    # count, and values may move in the last bit between counts. 300
    # dimensions are enough for OpenBLAS to split the products.
    planted = build_planted(n_neutral=2000, dim=300, n_definition=10, seed=3)
    emb, gender = tmp_path / "emb.txt", tmp_path / "gender.txt"
    write_embedding_file(emb, planted.embeddings)
    gender.write_text("\n".join(planted.gender_list) + "\n")
    src = str(Path(fairvec.__file__).resolve().parent.parent)
    vectors = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        written = []
        for run in range(2):
            out = tmp_path / f"{threads}-{run}.txt"
            subprocess.run([sys.executable, "-m", "fairvec.cli", "debias", "--embeddings",
                            str(emb), "--gender-list", str(gender), "--method", method,
                            "--out", str(out)], env=env, timeout=300, check=True)
            written.append([Path(f"{out}{suffix}").read_bytes()
                            for suffix in ("", ".npz", ".meta.json")])
        assert written[0] == written[1], f"OPENBLAS_NUM_THREADS={threads}"
        vectors[threads] = load_embeddings(out).vectors
    np.testing.assert_allclose(vectors["1"], vectors["2"], rtol=1e-14, atol=1e-14)
