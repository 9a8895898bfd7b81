import argparse
import json

import pytest

from interestsim.cli import _parse_int_list, _selfsim_table, main, write_profiles
from interestsim.corpus import write_corpus
from interestsim.profiling import ProfileIndex
from interestsim.synthgen import GenConfig, generate

from selfsim_oracle import selfsim_table


@pytest.mark.parametrize(
    "text, expected",
    [
        ("5..20", tuple(range(5, 21))),
        ("1..12", tuple(range(1, 13))),
        ("3..3", (3,)),
        ("10,15", (10, 15)),
    ],
)
def test_parse_int_list(text, expected):
    assert _parse_int_list(text) == expected


def test_descending_range_rejected(tmp_path, capsys):
    with pytest.raises(argparse.ArgumentTypeError, match="empty"):
        _parse_int_list("20..10")
    argv = ["recommend", "--corpus", str(tmp_path), "--strategy", "random", "--K", "20..10"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--report", str(tmp_path / "report.csv")])
    assert exit_info.value.code == 2
    assert "20..10" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


@pytest.fixture(scope="module")
def tiny_corpus():
    corpus, _ = generate(GenConfig(seed=3, n_users=60, n_videos=40, n_tags=20, n_topics=4, n_cities=3, n_groups=4))
    return corpus


@pytest.mark.parametrize("kind, window", [("ptp", (0, 0)), ("rtp", (-7, -1)), ("vbp", (-30, 0))])
def test_profile_command_matches_in_memory_writer(tmp_path, small_corpus, kind, window):
    c, _ = small_corpus
    corpus_dir = tmp_path / "corpus"
    write_corpus(c, corpus_dir)
    out = tmp_path / "profiles.jsonl"
    manifest = tmp_path / "profiles.jsonl.manifest.json"
    argv = ["profile", "--corpus", str(corpus_dir), "--kind", kind, "--window", f"{window[0]}:{window[1]}"]
    assert main(argv + ["--out", str(out)]) == 0
    loaded = out.read_bytes(), manifest.read_bytes()
    write_profiles(c, str(corpus_dir), kind, window, out)
    assert (out.read_bytes(), manifest.read_bytes()) == loaded

    idx = ProfileIndex(c, window, kind)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(c.user_ids)
    for line, u, r in zip(lines, c.user_ids, c.rows_for(c.user_ids)):
        start, stop = idx.W.indptr[r], idx.W.indptr[r + 1]
        row = dict(zip(idx.item_ids[idx.W.indices[start:stop]].tolist(), idx.W.data[start:stop].tolist()))
        assert json.loads(line) == {
            "id": u,
            "window": list(window),
            "kind": kind,
            "weights": {str(item): w for item, w in sorted(row.items())},
        }
    config = json.loads(manifest.read_text(encoding="utf-8"))["config"]
    assert config == {"corpus": str(corpus_dir), "kind": kind, "window": list(window)}


def test_selfsim_table_matches_dict_oracle(tmp_path, tiny_corpus):
    _selfsim_table(tiny_corpus, 7, tmp_path / "batch.csv")
    selfsim_table(tiny_corpus, 7, tmp_path / "oracle.csv")
    assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
    assert len((tmp_path / "batch.csv").read_text().splitlines()) == 13


def test_evaluate_rejects_a_model_of_the_other_task(tmp_path, tiny_corpus, capsys):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    samples, model = tmp_path / "samples.csv", tmp_path / "model.json"
    assert main(["featurize", "--corpus", str(corpus_dir), "--pairs", "300", "--out", str(samples)]) == 0
    assert main(["train", "--model", "linear", "--task", "clf", "--in", str(samples), "--out", str(model)]) == 0
    evaluate = ["evaluate", "--model", str(model), "--test", str(samples)]
    assert main(evaluate + ["--task", "reg", "--report", str(tmp_path / "reg.json")]) == 1
    assert "trained for task 'clf', not 'reg'" in capsys.readouterr().err
    assert not (tmp_path / "reg.json").exists()
    assert main(evaluate + ["--task", "clf", "--report", str(tmp_path / "clf.json")]) == 0
