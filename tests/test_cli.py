import argparse
import csv
import dataclasses
import hashlib
import json
import sys

import pytest

from interestsim import cli
from interestsim.cli import _parse_int_list, _selfsim_table, main, write_json, write_profiles
from interestsim import evalkit, mlcore
from interestsim.corpus import write_corpus
from interestsim.pairfeat import read_samples
from interestsim.profiling import ProfileIndex
from interestsim.recommend import ExperimentConfig
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


def test_evaluate_rejects_samples_of_another_profile_kind(tmp_path, tiny_corpus, capsys):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    model = tmp_path / "model.json"
    featurize = ["featurize", "--corpus", str(corpus_dir), "--pairs", "300"]
    for kind in ("ptp", "rtp"):
        assert main(featurize + ["--kind", kind, "--out", str(tmp_path / f"{kind}.csv")]) == 0
    assert main(["train", "--model", "linear", "--task", "reg", "--in", str(tmp_path / "ptp.csv"), "--out", str(model)]) == 0
    evaluate = ["evaluate", "--model", str(model), "--task", "reg", "--report", str(tmp_path / "report.json")]
    assert main(evaluate + ["--test", str(tmp_path / "rtp.csv")]) == 1
    assert "trained on 'ptp' samples, not 'rtp'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert main(evaluate + ["--test", str(tmp_path / "ptp.csv")]) == 0


def test_recommend_rejects_a_model_of_another_profile_kind(tmp_path, tiny_corpus, capsys):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    samples, model, bare = tmp_path / "samples.csv", tmp_path / "model.json", tmp_path / "bare.json"
    assert main(["featurize", "--corpus", str(corpus_dir), "--pairs", "300", "--out", str(samples)]) == 0
    assert main(["train", "--model", "linear", "--task", "reg", "--in", str(samples), "--out", str(model)]) == 0
    # a model file without train_meta names no profile kind
    write_json(bare, mlcore.model_to_dict(evalkit.fit_model("linear", read_samples(samples).to_design(), "reg")), indent=None)
    recommend = ["recommend", "--corpus", str(corpus_dir), "--targets", "5", "--candidates", "20", "--K", "3", "--N", "5"]
    report = tmp_path / "report.csv"
    assert main(recommend + ["--strategy", "predicted-rtp", "--model", str(model), "--report", str(report)]) == 1
    assert "trained on 'ptp' samples, not 'rtp'" in capsys.readouterr().err
    assert not report.exists()
    assert main(recommend + ["--strategy", "predicted-ptp", "--model", str(model), "--report", str(report)]) == 0
    assert main(recommend + ["--strategy", "predicted-rtp", "--model", str(bare), "--report", str(report)]) == 1
    assert "model file lacks train_meta" in capsys.readouterr().err


@pytest.mark.parametrize("argv, cls, flags", [
    (["generate", "--out", "corpus"], GenConfig, cli.GENERATE_FLAGS),
    (["recommend", "--corpus", "corpus", "--strategy", "random", "--report", "r.csv"], ExperimentConfig, cli.RECOMMEND_FLAGS),
])
def test_flag_defaults_are_the_config_defaults(argv, cls, flags):
    """Every field of the config has a flag, and the parser's defaults make the default config."""
    assert sorted(flags.values()) == sorted(field.name for field in dataclasses.fields(cls))
    args = cli.build_parser().parse_args(argv)
    assert cli._config(cls, flags, vars(args)) == cls()


@pytest.mark.parametrize("bins", ["0", "-1"])
def test_study_rejects_fewer_than_one_bin(tmp_path, tiny_corpus, capsys, bins):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    out = tmp_path / "study.csv"
    argv = ["study", "--corpus", str(corpus_dir), "--key", "individuality", "--bins", bins, "--out", str(out)]
    assert main(argv) == 1
    assert "--bins" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("pairs", ["0", "-5"])
def test_featurize_rejects_fewer_than_one_pair(tmp_path, tiny_corpus, capsys, pairs):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    out = tmp_path / "samples.csv"
    assert main(["featurize", "--corpus", str(corpus_dir), "--pairs", pairs, "--out", str(out)]) == 1
    assert f"error: ValueError: need at least one pair, got {pairs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, among", [("msgdays", "friends"), ("msgcount", "friends"), ("gender", "random")])
def test_study_samples_friend_pairs_for_message_keys(tmp_path, tiny_corpus, key, among):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    out = tmp_path / "study.csv"
    assert main(["study", "--corpus", str(corpus_dir), "--key", key, "--pairs", "200", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "study.csv.manifest.json").read_text())
    assert manifest["config"]["among"] == among


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--conf={}"]])
def test_generate_reads_the_config_file_under_every_spelling(tmp_path, spelling):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# a tiny corpus\nusers = 50\nvideos=30\n")
    out = tmp_path / "corpus"
    assert main(["generate", *(part.format(cfg) for part in spelling), "--out", str(out)]) == 0
    assert len((out / "users.csv").read_text().splitlines()) == 1 + 50
    # an explicit flag overrides the file
    assert main(["generate", *(part.format(cfg) for part in spelling), "--users", "20", "--out", str(out)]) == 0
    assert len((out / "users.csv").read_text().splitlines()) == 1 + 20


def test_a_config_prefix_the_subcommand_finds_ambiguous_exits_2(tmp_path, capsys):
    """``--c`` could be ``--cities`` or ``--config``: argparse's error, not a read of file '5'."""
    with pytest.raises(SystemExit) as exit_info:
        main(["generate", "--c", "5", "--out", str(tmp_path / "corpus")])
    assert exit_info.value.code == 2
    assert "error: ambiguous option: --c could match --config, --cities" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()


def test_a_config_file_may_supply_required_options(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"users = 30\nvideos = 20\nout = {tmp_path / 'from_file'}\n")
    assert main(["generate", "--conf", str(cfg)]) == 0
    assert len((tmp_path / "from_file" / "users.csv").read_text().splitlines()) == 1 + 30
    assert main(["generate", "--conf", str(cfg), "--users", "12", "--out", str(tmp_path / "flags")]) == 0
    assert len((tmp_path / "flags" / "users.csv").read_text().splitlines()) == 1 + 12


@pytest.mark.parametrize("case", ["missing_file", "line_without_equals", "missing_path"])
def test_config_errors_exit_2_naming_the_file_and_line(tmp_path, capsys, case):
    cfg = tmp_path / "gen.cfg"
    if case == "line_without_equals":
        cfg.write_text("users=50\nvideos 30\n")
    argv = ["generate", "--out", str(tmp_path / "corpus"), "--config"] + ([] if case == "missing_path" else [str(cfg)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    expected = {
        "missing_file": f"error: [Errno 2] No such file or directory: '{cfg}'",
        "line_without_equals": f"error: {cfg}:2: expected key=value, got 'videos 30'",
        "missing_path": "error: argument --config: expected one argument",
    }[case]
    assert err.startswith(expected)
    assert not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("model", ["l1linear", "hybrid", "tree"])
def test_train_rejects_fewer_than_two_folds(tmp_path, tiny_corpus, capsys, model):
    corpus_dir = tmp_path / "corpus"
    write_corpus(tiny_corpus, corpus_dir)
    samples, out = tmp_path / "samples.csv", tmp_path / "model.json"
    assert main(["featurize", "--corpus", str(corpus_dir), "--pairs", "300", "--out", str(samples)]) == 0
    capsys.readouterr()
    argv = ["train", "--model", model, "--task", "reg", "--in", str(samples), "--folds", "1", "--out", str(out)]
    assert main(argv) == 1
    assert "folds must be >= 2" in capsys.readouterr().err
    assert not out.exists()


# The pipeline's outputs at seed 42 on the preset below, each file's floats
# rounded to 9 significant digits (the study and report CSVs write %.9g, the
# samples each float's repr).  The manifests, which hold the run's paths,
# are left out.
PIPELINE_DIGESTS = {
    "models/hybrid_clf_ptp.json": "6e38edd2010e83a0",
    "models/hybrid_reg_ptp.json": "ef5b4434aa49d251",
    "models/hybrid_reg_rtp.json": "1352e0bc36ea2e20",
    "models/hybrid_reg_vbp.json": "97509b28b3349a9d",
    "reports/ablation.json": "00dfa7938c1ef8c7",
    "reports/models.json": "8974ae82e24633ff",
    "reports/recommend.csv": "aeb2d54693862f32",
    "samples/test_ptp.csv": "e5b17b22c92410c2",
    "samples/test_rtp.csv": "e124b7dd873a6af1",
    "samples/test_vbp.csv": "6645b596f6f4449f",
    "samples/train_ptp.csv": "bd1817dd850aa01f",
    "samples/train_rtp.csv": "f119dfb7fb2d96a0",
    "samples/train_vbp.csv": "df0aa8664f410d24",
    "study/friendratio_ptp.csv": "74c928f7555f3a4e",
    "study/friendratio_rtp.csv": "43cf6710f569af2e",
    "study/friendship_ptp.csv": "0d74f4e408e532c4",
    "study/friendship_rtp.csv": "590dc29e6c8bbcd9",
    "study/gender_ptp.csv": "041fff2e267df6dc",
    "study/gender_rtp.csv": "c5788d44bf11b331",
    "study/individuality_ptp.csv": "819197adfde25158",
    "study/individuality_rtp.csv": "c77a42f2182a07b4",
    "study/msgdays_ptp.csv": "a69b60347510e9ef",
    "study/msgdays_rtp.csv": "abc491c9ba6144a4",
    "study/samecity_ptp.csv": "fc84d521a11c15d3",
    "study/samecity_rtp.csv": "df02bbca0c44849b",
    "study/selfsim.csv": "375193e65ed8589f",
}


def _round9(value):
    if isinstance(value, float):
        return float("%.9g" % value)
    if isinstance(value, list):
        return [_round9(v) for v in value]
    if isinstance(value, dict):
        return {k: _round9(v) for k, v in value.items()}
    return value


def _cell9(text):
    try:
        int(text)
        return text
    except ValueError:
        pass
    try:
        return "%.9g" % float(text)
    except ValueError:
        return text


def _content_digest(path):
    """The first 16 hex digits of the sha256 of a JSON or CSV file's
    content, with every float rounded to 9 significant digits."""
    if path.suffix == ".json":
        text = json.dumps(_round9(json.loads(path.read_text(encoding="utf-8"))), sort_keys=True)
    else:
        with open(path, newline="", encoding="utf-8") as fh:
            text = "\n".join(",".join(map(_cell9, row)) for row in csv.reader(fh))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def test_pipeline_runs_end_to_end(tmp_path, monkeypatch):
    preset = {
        "users": 300, "videos": 150, "tags": 60, "topics": 8, "cities": 5, "groups": 12,
        "pairs": 3000, "rec_targets": 40, "rec_candidates": 100,
    }
    monkeypatch.setitem(cli.PRESETS, "small", preset)
    # count the GBDT fits wherever a module of the package holds fit_gbdt
    fit_gbdt, fits = mlcore.fit_gbdt, []

    def counted(*args, **kwargs):
        fits.append(1)
        return fit_gbdt(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("interestsim") and getattr(module, "fit_gbdt", None) is fit_gbdt:
            monkeypatch.setattr(module, "fit_gbdt", counted)
    out = tmp_path / "run"
    assert main(["pipeline", "--preset", "small", "--seed", "42", "--out", str(out)]) == 0
    # one GBDT per task serves as its table row and its ptp hybrid's encoder;
    # the rtp and vbp hybrids fit their own
    assert len(fits) == 4
    reports = out / "reports"
    rows = json.loads((reports / "models.json").read_text())
    assert len(rows) == 14
    # every tree-based row counts its leaves; the linear rows have none
    for row in rows:
        assert (row["model"] in ("tree", "forest", "gbdt", "hybrid")) == ("n_leaves" in row)
        assert row.get("n_leaves", 1) > 0
        # each hybrid row reports its CV table as its model file does
        assert (row["model"] == "hybrid") == ("cv_table" in row)
        if "cv_table" in row:
            name = f"hybrid_{row['task']}_{row['kind']}.json"
            assert row["cv_table"] == json.loads((out / "models" / name).read_text())["cv_table"]
    ablation = json.loads((reports / "ablation.json").read_text())
    assert len(ablation) == 7 and all(row["n_leaves"] > 0 for row in ablation)
    with open(reports / "recommend.csv", newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 200
    assert len(list((out / "study").glob("*.csv"))) == 13
    assert len(list((out / "samples").glob("*.csv"))) == 6
    assert sorted(p.name for p in (out / "models").glob("*.json")) == [
        "hybrid_clf_ptp.json", "hybrid_reg_ptp.json", "hybrid_reg_rtp.json", "hybrid_reg_vbp.json"
    ]
    # every model file is one that `evaluate` reads and that scores its
    # table row's metric, to the bit, on the test samples, whose floats
    # read back as the doubles the pipeline scored
    for row in rows:
        if row["model"] == "hybrid":
            model = out / "models" / f"hybrid_{row['task']}_{row['kind']}.json"
            report = tmp_path / f"evaluate_{model.name}"
            test = out / "samples" / f"test_{row['kind']}.csv"
            assert main(["evaluate", "--model", str(model), "--test", str(test), "--task", row["task"],
                         "--report", str(report)]) == 0
            metric = "auc" if row["task"] == "clf" else "reduced_mae_pct"
            assert json.loads(report.read_text())[metric] == row[metric]
    # The manifest lists every file the run wrote, and hashes each as it
    # writes the manifest, so this checks the listing, not the content.
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    assert sorted(outputs) == sorted(str(p) for p in out.rglob("*") if p.is_file() and p.name != "manifest.json")
    assert len(outputs) == 6 + 2 * 2 + 4 + 3 + 6 + 13
    for path, digest in outputs.items():
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    # and this checks the content
    got = {
        f"{part}/{path.name}": _content_digest(path)
        for part in ("models", "reports", "samples", "study")
        for path in sorted((out / part).glob("*"))
    }
    assert got == PIPELINE_DIGESTS
