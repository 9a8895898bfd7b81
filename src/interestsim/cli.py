"""Command-line pipeline: generate, profile, featurize, train, evaluate,
study, recommend, and the end-to-end pipeline runner.

Every subcommand writes a manifest (tool version, resolved config,
sha256 of inputs and outputs) beside its outputs; the pipeline's lists
every file the run writes.  All outputs are byte-stable for a fixed seed,
the model files too, for any BLAS thread count: every linear fit runs
with one BLAS thread (see ``mlcore.linear``).  ``corpus.write_csv``
writes every CSV file and ``write_json`` every JSON file but the JSON
lines of ``profile``.  Every model file, ``train``'s and the pipeline
hybrids', is ``mlcore.model_to_dict`` of its model plus a ``train_meta``
(model kind, task, profile kind, ``label_mean``, ``n_samples``, seed),
which ``evaluate`` and ``recommend --model`` check before they predict.
The model files (format 4) and ``reports/models.json`` give each linear,
l1linear and hybrid fit its converged flag, ``n_sweeps`` (its homotopy
steps under both links) and its optimality certificate under both links,
each that of the stored model (a hybrid's, of its lasso on the leaf
columns it keeps); ``reports/models.json`` gives each hybrid row its
``cv_table`` (CV loss per lambda, keyed by ``repr(lambda)`` as in the
model files), and it and ``reports/ablation.json`` give each tree-based
row its ``n_leaves``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, evalkit, mlcore, recommend as rec
from .corpus import CSV_NAMES, Corpus, active_users, load_corpus, write_corpus, write_csv
from .pairfeat import SampleTable, build_training_set, read_samples, write_samples
from .profiling import KINDS, self_similarity
from .synthgen import GenConfig, generate

PRESETS = {
    "paper-desk": {
        "users": 5000,
        "videos": 2000,
        "tags": 300,
        "topics": 20,
        "cities": 12,
        "groups": 40,
        "pairs": 100_000,
        "rec_targets": 300,
        "rec_candidates": 600,
    },
}

# Each generate and recommend flag, named as its --config key, and the
# config field it sets, in the parser's order; the flag's default and type
# are the field's.  A preset's generate keys and its "rec_" keys map alike.
GENERATE_FLAGS = {
    "seed": "seed",
    "users": "n_users",
    "videos": "n_videos",
    "tags": "n_tags",
    "topics": "n_topics",
    "cities": "n_cities",
    "groups": "n_groups",
    "zipf": "zipf_exponent",
    "friend_interest": "friend_interest",
    "message_interest": "message_interest",
    "group_topic": "group_topic",
    "gender_skew": "gender_topic_skew",
    "view_rate": "daily_view_rate",
    "inactive_fraction": "inactive_fraction",
    "drift": "interest_drift",
}
RECOMMEND_FLAGS = {"K": "k_values", "N": "n_values", "targets": "n_targets", "candidates": "n_candidates", "seed": "seed"}


def _config(cls, flags: dict, values: dict, **fixed):
    """A ``cls`` with the field of each flag in ``values`` set to its value,
    and ``fixed``; every other field keeps its default."""
    return cls(**{field: values[flag] for flag, field in flags.items() if flag in values}, **fixed)


def _add_config_flags(parser: argparse.ArgumentParser, cls, flags: dict) -> None:
    defaults = cls()
    for flag, field in flags.items():
        default = getattr(defaults, field)
        parse = _parse_int_list if isinstance(default, tuple) else type(default)
        parser.add_argument(f"--{flag.replace('_', '-')}", type=parse, default=default)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path, payload, indent: int | None = 2) -> None:
    """``payload`` as JSON with sorted keys and a closing newline: indented,
    as reports and manifests are, or compact (``indent=None``), as model
    files are."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent, separators=(",", ":") if indent is None else None)
        fh.write("\n")


def write_manifest(target, command: str, config: dict, inputs: list[Path], outputs: list[Path] = ()) -> None:
    """Config snapshot + input/output checksums + tool version, beside
    outputs."""
    target = Path(target)
    path = target / "manifest.json" if target.is_dir() else target.with_name(target.name + ".manifest.json")
    write_json(path, {
        "tool_version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(Path(p)) for p in sorted(str(x) for x in inputs)},
        "outputs": {str(p): _sha256(Path(p)) for p in sorted(str(x) for x in outputs)},
    })


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"window must look like '-7:-1', got {text!r}") from None


def _parse_int_list(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = (int(tok) for tok in text.split(".."))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"range {text!r} is empty: its end is below its start")
        return tuple(range(lo, hi + 1))
    return tuple(int(tok) for tok in text.split(","))


def _read_config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return tokens


def _corpus_files(directory: Path) -> list[Path]:
    return [directory / name for name in CSV_NAMES.values()]


# -- subcommand implementations ---------------------------------------------


def cmd_generate(args) -> int:
    cfg = _config(GenConfig, GENERATE_FLAGS, vars(args))
    corpus, _ = generate(cfg)
    out = Path(args.out)
    write_corpus(corpus, out)
    write_manifest(out, "generate", dataclasses.asdict(cfg), [], _corpus_files(out))
    print(f"generate: wrote {corpus!r} to {out}")
    return 0


def write_profiles(corpus: Corpus, corpus_dir, kind: str, window, out: Path) -> None:
    """Per-user JSONL profiles and a manifest naming ``corpus_dir``, where ``corpus`` was written."""
    idx = corpus.profile_index(window, kind)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for row, uid in enumerate(corpus.user_ids):
            start = idx.W.indptr[row]
            stop = idx.W.indptr[row + 1]
            items = idx.item_ids[idx.W.indices[start:stop]]
            weights = idx.W.data[start:stop]
            order = np.argsort(items)
            obj = {
                "id": int(uid),
                "window": list(window),
                "kind": kind,
                "weights": {str(int(items[i])): float(weights[i]) for i in order},
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    write_manifest(out, "profile", {"kind": kind, "window": list(window), "corpus": str(corpus_dir)}, _corpus_files(Path(corpus_dir)), [out])
    print(f"profile: wrote {len(corpus.user_ids)} {kind} profiles to {out}")


def cmd_profile(args) -> int:
    write_profiles(load_corpus(args.corpus), args.corpus, args.kind, args.window, Path(args.out))
    return 0


def cmd_featurize(args) -> int:
    corpus = load_corpus(args.corpus)
    table = build_training_set(corpus, args.pairs, args.kind, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_samples(table, out)
    write_manifest(
        out,
        "featurize",
        {"kind": args.kind, "pairs": args.pairs, "seed": args.seed, "corpus": str(args.corpus)},
        _corpus_files(Path(args.corpus)),
        [out],
    )
    print(f"featurize: wrote {len(table)} {args.kind} samples to {out}")
    return 0


def _train_model(samples: SampleTable, model_kind: str, task: str, seed: int, folds: int):
    sims = samples.labels
    if sims is None:
        raise ValueError("training samples carry no labels")
    labeling = evalkit.BinaryLabeling.from_similarities(sims, sims)
    if task == "clf":
        y = labeling.labels
        if y.min() == y.max():
            raise ValueError("degenerate labels: all on one side of the mean")
    else:
        y = sims
    data = samples.to_design(labels=y)
    model = evalkit.fit_model(model_kind, data, task, folds=folds, seed=seed)
    return model, labeling.threshold


def _write_model_file(path, model, model_kind: str, task: str, profile_kind: str, label_mean: float, n_samples: int,
                     seed: int) -> None:
    """A model file: ``mlcore.model_to_dict(model)`` and the ``train_meta``
    that ``evaluate`` and ``recommend --model`` check; ``label_mean`` is
    the mean training similarity, the clf threshold and reg baseline."""
    meta = {"model_kind": model_kind, "task": task, "profile_kind": profile_kind, "label_mean": label_mean,
            "n_samples": n_samples, "seed": seed}
    write_json(path, {**mlcore.model_to_dict(model), "train_meta": meta}, indent=None)


def _read_model_file(path, profile_kind: str, task: str | None = None) -> tuple[object, dict]:
    """The model of a model file and its ``train_meta``, checked before the
    model is read: it must hold the task, profile kind and label mean, name
    ``profile_kind`` and, when given, ``task``."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    meta = payload.get("train_meta")
    if meta is None:
        raise ValueError("model file lacks train_meta; was it written by `train` or `pipeline`?")
    for field in ("task", "profile_kind", "label_mean"):
        if field not in meta:
            raise ValueError(f"model file lacks train_meta.{field}")
    if task is not None and meta["task"] != task:
        raise ValueError(f"model was trained for task {meta['task']!r}, not {task!r}")
    if meta["profile_kind"] != profile_kind:
        raise ValueError(f"model was trained on {meta['profile_kind']!r} samples, not {profile_kind!r}")
    return mlcore.model_from_dict(payload), meta


def cmd_train(args) -> int:
    samples = read_samples(args.infile)
    model, label_mean = _train_model(samples, args.model, args.task, args.seed, args.folds)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_model_file(out, model, args.model, args.task, samples.kind, label_mean, len(samples), args.seed)
    write_manifest(
        out,
        "train",
        {"model": args.model, "task": args.task, "seed": args.seed, "folds": args.folds, "in": str(args.infile)},
        [Path(args.infile)],
        [out],
    )
    print(f"train: {args.model}/{args.task} on {len(samples)} samples -> {out}")
    return 0


def cmd_evaluate(args) -> int:
    samples = read_samples(args.test)
    if samples.labels is None:
        raise ValueError("test samples carry no labels")
    model, meta = _read_model_file(args.model, samples.kind, args.task)
    X, _, _ = samples.feature_matrix()
    report = {
        "task": args.task,
        "model_kind": meta.get("model_kind"),
        "profile_kind": samples.kind,
        "n_test": len(samples),
        **evalkit.held_out_metric(args.task, mlcore.predict(model, X), samples.labels, meta["label_mean"]),
    }
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_json(out, report)
    write_manifest(out, "evaluate", {"task": args.task, "model": str(args.model), "test": str(args.test)}, [Path(args.model), Path(args.test)], [out])
    metric = report.get("auc", report.get("reduced_mae_pct"))
    print(f"evaluate: {args.task} metric = {metric:.4f} -> {out}")
    return 0


def cmd_study(args) -> int:
    if args.bins < 1:
        raise ValueError(f"--bins must be at least 1, got {args.bins}")
    corpus = load_corpus(args.corpus)
    among = evalkit.study_population(args.key) if args.among == "auto" else args.among
    pairs = evalkit.sample_pairs(corpus, args.pairs, args.seed, among)
    table = evalkit.bucket_similarity(corpus, pairs, args.key, args.kind, n_bins=args.bins)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    table.to_csv(out)
    write_manifest(
        out,
        "study",
        {"key": args.key, "kind": args.kind, "pairs": args.pairs, "seed": args.seed, "bins": args.bins, "among": among, "corpus": str(args.corpus)},
        _corpus_files(Path(args.corpus)),
        [out],
    )
    print(f"study: {args.key}/{args.kind} over {len(pairs[0])} pairs ({among}) -> {out}")
    return 0


STRATEGY_NAMES = (
    "predicted-ptp",
    "predicted-rtp",
    "predicted-vbp",
    "oracle-ptp",
    "oracle-rtp",
    "oracle-vbp",
    "demo",
    "friends",
    "past",
    "random",
    "popular",
)


def _make_strategy(name: str, model_path=None):
    if name.startswith("predicted-"):
        kind = name.split("-", 1)[1]
        if model_path is None:
            raise ValueError(f"strategy {name} needs --model")
        return rec.PredictedSim(kind, _read_model_file(model_path, kind)[0])
    if name.startswith("oracle-"):
        return rec.OracleSim(name.split("-", 1)[1])
    return {
        "demo": rec.DemographicSim(),
        "friends": rec.FriendFilter(),
        "past": rec.PastLongTerm(),
        "random": rec.RandomK(),
        "popular": rec.GlobalPopularity(),
    }[name]


def cmd_recommend(args) -> int:
    corpus = load_corpus(args.corpus)
    strategy = _make_strategy(args.strategy, args.model)
    rows = rec.run_experiment(corpus, _config(rec.ExperimentConfig, RECOMMEND_FLAGS, vars(args)), [strategy])
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    rec.write_report(rows, out)
    inputs = _corpus_files(Path(args.corpus))
    if args.model:
        inputs.append(Path(args.model))
    write_manifest(
        out,
        "recommend",
        {"strategy": args.strategy, **{flag: getattr(args, flag) for flag in RECOMMEND_FLAGS}, "corpus": str(args.corpus)},
        inputs,
        [out],
    )
    print(f"recommend: {args.strategy} grid ({len(rows)} rows) -> {out}")
    return 0


# -- pipeline -----------------------------------------------------------------


def _model_table(samples, seed: int):
    """(report, model) for each row of the model table: the six kinds on
    the ptp samples per task, one protocol per task, the hybrid encoding
    with that task's GBDT row; then the rtp and vbp reg hybrids."""
    for task in ("clf", "reg"):
        p = evalkit.protocol(samples["ptp"], task, seed=seed)
        models = {}
        for kind in mlcore.MODEL_KINDS:
            if kind == "hybrid":
                models[kind] = mlcore.fit_hybrid(p.train, models["gbdt"])
            else:
                models[kind] = evalkit.fit_model(kind, p.train, task, seed=seed)
            yield p.report(kind, models[kind]), models[kind]
    for kind in ("rtp", "vbp"):
        yield evalkit.run_protocol(samples[kind], "hybrid", "reg", seed=seed)


def _pipeline_models(out: Path, samples, seed: int, log) -> dict:
    """Train/evaluate the model table, save its hybrids and return the reg
    hybrid of each profile kind."""
    models_dir = out / "models"
    models_dir.mkdir(parents=True, exist_ok=True)
    results, hybrids = [], {}
    for report, model in _model_table(samples, seed):
        metric = report.get("auc", report.get("reduced_mae_pct"))
        log(f"  {report['model']:8s} {report['task']} {report['kind']} -> {metric:.4f}")
        results.append(report)
        if report["model"] == "hybrid":
            task, kind = report["task"], report["kind"]
            label_mean = report["threshold" if task == "clf" else "train_mean"]
            _write_model_file(models_dir / f"hybrid_{task}_{kind}.json", model, "hybrid", task, kind, label_mean,
                              report["n_train"], report["seed"])
            if task == "reg":
                hybrids[kind] = model
    write_json(out / "reports" / "models.json", results)
    return hybrids


def cmd_pipeline(args) -> int:
    preset = PRESETS[args.preset]
    out = Path(args.out)
    (out / "reports").mkdir(parents=True, exist_ok=True)

    def log(msg: str) -> None:
        print(msg, flush=True)

    seed = args.seed
    log(f"pipeline[{args.preset}]: generating corpus (seed {seed})")
    corpus, _ = generate(_config(GenConfig, GENERATE_FLAGS, preset, seed=seed))
    write_corpus(corpus, out / "corpus")

    log("pipeline: profiling day-0 PTP/RTP")
    for kind in ("ptp", "rtp"):
        write_profiles(corpus, out / "corpus", kind, (0, 0), out / "profiles" / f"day0_{kind}.jsonl")

    samples_dir = out / "samples"
    samples_dir.mkdir(parents=True, exist_ok=True)
    samples_full: dict[str, SampleTable] = {}
    for kind in KINDS:
        log(f"pipeline: featurizing {preset['pairs']} {kind} pairs")
        table = build_training_set(corpus, preset["pairs"], kind, seed)
        samples_full[kind] = table
        # persist the same 70/30 split run_protocol derives from this seed
        split = evalkit.train_test_split(len(table), seed)
        for part, idx in (("train", split.train), ("test", split.test)):
            cols = {k: v[idx] for k, v in table.columns.items()}
            write_samples(SampleTable(kind, cols, table.labels[idx]), samples_dir / f"{part}_{kind}.csv")

    log("pipeline: training the model table")
    hybrids = _pipeline_models(out, samples_full, seed, log)

    log("pipeline: feature-combination ablation (clf, ptp)")
    write_json(out / "reports" / "ablation.json", evalkit.ablation_sweep(samples_full["ptp"], task="clf", seed=seed))

    log("pipeline: correlation study tables")
    study_dir = out / "study"
    study_dir.mkdir(parents=True, exist_ok=True)
    pairs_among = {
        "random": evalkit.sample_pairs(corpus, 60_000, seed, "random"),
        "friends": evalkit.sample_pairs(corpus, 30_000, seed, "friends"),
    }
    for key in ("gender", "friendship", "msgdays", "friendratio", "individuality", "samecity"):
        pairs = pairs_among[evalkit.study_population(key)]
        for kind in ("ptp", "rtp"):
            table = evalkit.bucket_similarity(corpus, pairs, key, kind)
            table.to_csv(study_dir / f"{key}_{kind}.csv")
    _selfsim_table(corpus, seed, study_dir / "selfsim.csv")

    log("pipeline: recommendation grid")
    strategies = [rec.PredictedSim(k, hybrids[k]) for k in KINDS]
    strategies += [rec.OracleSim("ptp"), rec.OracleSim("rtp"), rec.DemographicSim(), rec.FriendFilter(), rec.PastLongTerm(), rec.RandomK(), rec.GlobalPopularity()]
    rec_preset = {key.removeprefix("rec_"): value for key, value in preset.items() if key.startswith("rec_")}
    cfg_rec = _config(rec.ExperimentConfig, RECOMMEND_FLAGS, rec_preset, k_values=(10, 15), seed=seed)
    rows = rec.run_experiment(corpus, cfg_rec, strategies)
    rec.write_report(rows, out / "reports" / "recommend.csv")

    outputs = [path for path in out.rglob("*") if path.is_file() and path != out / "manifest.json"]
    write_manifest(out, "pipeline", {"preset": args.preset, "seed": seed, **preset}, [], outputs)
    log(f"pipeline: done -> {out}")
    return 0


def _selfsim_table(corpus: Corpus, seed: int, path: Path) -> None:
    lags = [1, 3, 7, 14, 21, 30]
    actives = sorted(active_users(corpus, (0, 0)))
    rng = np.random.default_rng(seed)
    cohort = rng.choice(np.asarray(actives), size=min(400, len(actives)), replace=False)
    rows = []
    for kind in ("ptp", "rtp"):
        sims = self_similarity(corpus, cohort, kind, lags)
        for lag, column in zip(lags, sims.T):
            vals = column[~np.isnan(column)]
            se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0
            rows.append((kind, lag, vals.mean(), len(vals), se))
    header = ["kind", "lag", "mean_self_similarity", "count", "stderr"]
    write_csv(path, header, list(zip(*rows)), ["%s", "%s", "%.9g", "%s", "%.9g"])


# -- parser -------------------------------------------------------------------


def build_parser(strict: bool = True) -> argparse.ArgumentParser:
    """The command line parser; ``strict=False`` requires no option and
    raises ``argparse.ArgumentError`` instead of exiting, to find the
    ``--config`` file that may supply options before the strict parse."""
    parser = argparse.ArgumentParser(
        prog="interestsim",
        exit_on_error=strict,
        description="Tag-profile interest similarity: synthetic corpora, correlation studies, similarity models, cold-start recommendation.",
    )
    parser.add_argument("--version", action="version", version=f"interestsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=strict)
    add_parser = functools.partial(sub.add_parser, exit_on_error=strict)

    p = add_parser("generate", help="generate a seeded synthetic corpus")
    p.add_argument("--config", help="key=value config file; flags override")
    _add_config_flags(p, GenConfig, GENERATE_FLAGS)
    p.add_argument("--out", required=strict)
    p.set_defaults(func=cmd_generate)

    p = add_parser("profile", help="write per-user profiles as JSONL")
    p.add_argument("--corpus", required=strict)
    p.add_argument("--kind", choices=KINDS, default="ptp")
    p.add_argument("--window", type=_parse_window, default=(0, 0), help="day window, e.g. -7:-1")
    p.add_argument("--out", required=strict)
    p.set_defaults(func=cmd_profile)

    p = add_parser("featurize", help="sample training pairs and write features")
    p.add_argument("--corpus", required=strict)
    p.add_argument("--kind", choices=KINDS, default="ptp")
    p.add_argument("--pairs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=strict)
    p.set_defaults(func=cmd_featurize)

    p = add_parser("train", help="fit a similarity model on sample CSV")
    p.add_argument("--model", choices=mlcore.MODEL_KINDS, required=strict)
    p.add_argument("--task", choices=("clf", "reg"), required=strict)
    p.add_argument("--in", dest="infile", required=strict)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", required=strict)
    p.set_defaults(func=cmd_train)

    p = add_parser("evaluate", help="score a trained model on held-out samples")
    p.add_argument("--model", required=strict)
    p.add_argument("--test", required=strict)
    p.add_argument("--task", choices=("clf", "reg"), required=strict)
    p.add_argument("--report", required=strict)
    p.set_defaults(func=cmd_evaluate)

    p = add_parser("study", help="bucketed similarity table for one feature")
    p.add_argument("--corpus", required=strict)
    p.add_argument("--kind", choices=("ptp", "rtp", "vbp"), default="ptp")
    p.add_argument("--key", choices=evalkit.BUCKET_KEYS, required=strict)
    p.add_argument("--pairs", type=int, default=20_000)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--among", choices=("auto", "random", "friends"), default="auto",
                   help="pair population; msg keys default to friend pairs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=strict)
    p.set_defaults(func=cmd_study)

    p = add_parser("recommend", help="cold-start top-N experiment for one strategy")
    p.add_argument("--corpus", required=strict)
    p.add_argument("--strategy", choices=STRATEGY_NAMES, required=strict)
    p.add_argument("--model", help="model.json for predicted-* strategies")
    _add_config_flags(p, rec.ExperimentConfig, RECOMMEND_FLAGS)
    p.add_argument("--report", required=strict)
    p.set_defaults(func=cmd_recommend)

    p = add_parser("pipeline", help="end-to-end run over a preset")
    p.add_argument("--preset", choices=sorted(PRESETS), default="paper-desk")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", required=strict)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse rejects option values with a leading dash ("-7:-1"); fuse them
    fused: list[str] = []
    for tok in argv:
        if fused and fused[-1] == "--window":
            fused[-1] = f"--window={tok}"
        else:
            fused.append(tok)
    argv = fused
    # expand a --config file into leading flags so explicit flags override;
    # the subcommand's own parser decides which option is --config, so a
    # prefix it finds ambiguous stays an error
    try:
        path = getattr(build_parser(strict=False).parse_known_args(argv)[0], "config", None)
        argv = argv if path is None else argv[:1] + _read_config_tokens(path) + argv[1:]
    except argparse.ArgumentError as err:
        if err.argument_name == "--config":
            print(f"error: {err}", file=sys.stderr)
            return 2
        # any other parse error: the strict parse below reports it
    except (OSError, ValueError) as err:  # OSError texts name the file
        print(f"error: {err}", file=sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:  # structured failure, exit 1
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
