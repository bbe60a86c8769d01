"""The full-scale gate's fixture plumbing, on tiny assets of the full-scale shape.

tests/test_fullscale.py runs only against real pre-trained vectors and
published datasets. This desk test writes a small asset directory laid out as
that module expects (a "count dim" header, `.vec`-style trailing spaces,
wordsim/simlex.tsv, sts/2015-*.tsv) and sets up every fixture of the module in
a subprocess with ``pytest --setup-only``, so a loader or layout change that
would break the gate shows before anyone has the assets. The published-number
assertions themselves stay tied to the real assets.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from conftest import build_planted
from fairvec import (
    load_embeddings,
    load_sembias,
    load_sentence_pairs,
    load_word_list,
    load_word_pairs,
)

REPO = Path(__file__).resolve().parent.parent


def write_assets(root: Path) -> None:
    # select_biased_words takes 500 words per side in the fixture
    planted = build_planted(n_neutral=1100, dim=8, n_definition=4, seed=11)
    embeddings = planted.embeddings
    rows = "".join(f"{word} " + " ".join(f"{v:.6f}" for v in vector) + " \n"
                   for word, vector in zip(embeddings.words, embeddings.vectors.tolist()))
    (root / "embeddings.txt").write_text(
        f"{len(embeddings)} {embeddings.dim}\n" + rows, encoding="utf-8")
    (root / "gender_list.txt").write_text(
        "# gender-definition words\n" + "\n".join(planted.gender_list) + "\n", encoding="utf-8")
    (root / "professions.txt").write_text("m0\nm1\nf0\nf1\n", encoding="utf-8")
    (root / "sembias.txt").write_text(
        "he she definition\tm0 f0 biased\tm1 m2 other\tf1 f2 other\n"
        "m3 f3 biased\the she definition\tm4 m5 other\tf4 f5 other\tsubset\n",
        encoding="utf-8")
    (root / "wordsim").mkdir()
    (root / "wordsim" / "simlex.tsv").write_text(
        "m0\tm1\t7.5\nf0\tf1\t6.0\nm2\tf2\t1.5\n", encoding="utf-8")
    (root / "sts").mkdir()
    for task in ("answers-forums", "headlines"):
        (root / "sts" / f"2015-{task}.tsv").write_text(
            "M0 m1 m2\tm0 m1\t4.2\nf0 f1\tF2 oov\t1.0\nm3 f3\tm4 f4\t2.5\n", encoding="utf-8")


def test_fullscale_fixtures_set_up_on_shaped_assets(tmp_path):
    write_assets(tmp_path)
    # the files the test bodies read parse as the gate expects
    assert len(load_embeddings(tmp_path / "embeddings.txt")) == 1104
    assert len(load_word_list(tmp_path / "professions.txt")) == 4
    assert len(load_sembias(tmp_path / "sembias.txt")) == 2
    assert len(load_word_pairs(tmp_path / "wordsim" / "simlex.tsv", name="simlex").entries) == 3
    for path in sorted((tmp_path / "sts").glob("2015-*.tsv")):
        assert len(load_sentence_pairs(path, name=f"2015/{path.stem}").entries) == 3

    env = dict(os.environ, FAIRVEC_FULLSCALE_DIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--setup-only", "-p", "no:cacheprovider",
         str(REPO / "tests" / "test_fullscale.py")],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "SETUP    M assets" in run.stdout
    assert "skipped" not in run.stdout and "error" not in run.stdout.lower()
