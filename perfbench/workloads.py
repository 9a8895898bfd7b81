"""The benchmark's four workloads: inputs, timed rounds and output checks.

Every workload runs on one corpus: the paper-desk preset's shape (300
tags, 20 topics, 12 cities, 40 groups) at one fifth of its users and
videos, generated from seed 42 as the pipeline's golden corpus is.  At
full size one generation takes 9-12 s, too long to repeat in the set-up
of every run.  ``studies`` and ``recommend`` draw their samples from
``seed % SEED_BANK``, and ``expected.json`` holds their output digests for
each of those sample seeds.  ``ingest`` has no sample, and ``models`` keeps
its sample fixed: the solver's work changes with the sample (over eight
sample seeds the plain logistic fit took 401 to 1861 sweeps and the hybrid
classifier 3.5 to 11.6 s), so a seeded sample would make the spread
between runs measure the sample instead of the code.

A workload object builds its inputs in ``setup`` (timed as set-up, outside
the rounds), runs one timed ``round`` of package calls, and checks each
round's outputs in ``check``; ``finish`` runs the checks that are too slow
for every round, once, after timing.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from interestsim import corpus, evalkit, mlcore, pairfeat, profiling, recommend, synthgen

from metrics import FAILED, model_table_quality

CORPUS = synthgen.GenConfig(
    seed=42, n_users=1000, n_videos=400, n_tags=300, n_topics=20, n_cities=12, n_groups=40
)
KINDS = profiling.KINDS
TAG_KINDS = profiling.TAG_KINDS
WINDOWS = ((0, 0), (-30, -1))
SEED_BANK = 32

# studies: the pipeline's sizes scaled with the corpus (100k pairs per
# kind, 60k random and 30k friend pairs); the cohort is sized to the run
STUDY_PAIRS = 20_000
STUDY_RANDOM_PAIRS = 12_000
STUDY_FRIEND_PAIRS = 6_000
STUDY_KEYS = ("gender", "friendship", "msgdays", "friendratio", "individuality", "samecity")
SELFSIM_COHORT = 20
SELFSIM_LAGS = [1, 3, 7, 14, 21, 30]
REFERENCE_PAIRS = 3

# models: sized so that one round takes about 25 s
MODEL_PAIRS = 2_000
MODEL_FOLDS = 3
MODEL_SEED = 42

# recommend: targets and candidates scaled with the population (300 x 600
# of 5000 users in the pipeline)
REC_TRAIN_PAIRS = 4_000
REC_TARGETS = 100
REC_CANDIDATES = 200
REC_K = (10, 15)
REC_N = tuple(range(10, 101, 10))

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def generate_corpus() -> corpus.Corpus:
    return synthgen.generate(CORPUS)[0]


# -- digests -------------------------------------------------------------------


def _canonical(value) -> bytes:
    """Bytes that identify a value; floats keep 30 significant bits, so a
    last-bit difference in a reduction order does not change the digest."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f":
            m, e = np.frexp(value)
            return (np.ldexp(np.round(m * 2.0**30), e - 30) + 0.0).tobytes()
        return value.astype(np.int64).tobytes()
    if isinstance(value, float):
        return b"%.9g" % value
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_canonical(v) for v in value) + b"]"
    if isinstance(value, dict):
        return b"{" + b",".join(_canonical(k) + b":" + _canonical(value[k]) for k in sorted(value)) + b"}"
    return str(value).encode()


def digest(value) -> str:
    return hashlib.sha256(_canonical(value)).hexdigest()[:16]


def csv_digest(directory: Path) -> str:
    """Combined sha256 of the six corpus CSVs, the golden test's scheme."""
    digests = {
        name: hashlib.sha256((Path(directory) / name).read_bytes()).hexdigest()
        for name in corpus.CSV_NAMES.values()
    }
    return hashlib.sha256("".join(digests[n] for n in sorted(digests)).encode()).hexdigest()


def index_digest(index: profiling.ProfileIndex) -> str:
    W = index.W.tocsr()
    return digest([W.shape, W.indptr, W.indices, W.data, index.item_ids])


def corpus_sizes(c: corpus.Corpus) -> dict:
    return {
        "users": len(c.users),
        "videos": len(c.videos),
        "views": len(c.views),
        "friend_edges": len(c.friend_edges),
    }


def profile_nnz(c: corpus.Corpus) -> int:
    """Nonzeros of the day-0 and past-month indexes of every kind."""
    return sum(profiling.ProfileIndex(c, w, k).W.nnz for w in WINDOWS for k in KINDS)


def _index_op(window, kind) -> str:
    return f"profiling.ProfileIndex.{kind}.{window[0]}..{window[1]}"


def _linear_part(model):
    if isinstance(model, mlcore.LinearModel):
        return model
    return getattr(model, "linear", None)


# -- workloads -------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, expected: dict):
        self.seed = seed
        self.workdir = workdir
        self.expected = expected
        self.corpus: corpus.Corpus | None = None

    def setup(self) -> None:
        self.corpus = generate_corpus()

    def round(self, ops, tracer):
        raise NotImplementedError

    def check(self, ops, out) -> None:
        pass

    def finish(self, ops) -> None:
        pass

    def sizes(self) -> dict:
        return {}

    def quality(self) -> dict:
        return {}

    def digests(self, out) -> dict:
        """Digest of each checked output of one round (for expected.json)."""
        return {}

    def _expect(self, ops, op: str, value: str) -> None:
        want = self.expected.get(op)
        ops.check(op, value == want, f"digest {value} != recorded {want}")


class Ingest(Workload):
    """Generate, write, load and index the corpus; set-up generates the
    reference corpus that the generated and loaded ones must equal."""

    name = "ingest"

    def setup(self) -> None:
        self.reference = generate_corpus()
        self.corpus = self.reference

    def round(self, ops, tracer):
        directory = self.workdir / "corpus"
        c = ops.call("synthgen.generate", generate_corpus)
        if c is FAILED or ops.call("corpus.write_corpus", corpus.write_corpus, c, directory) is FAILED:
            return None
        loaded = ops.call("corpus.load_corpus", corpus.load_corpus, directory)
        if loaded is FAILED:
            return None
        indexes = {}
        for window in WINDOWS:
            for kind in KINDS:
                op = _index_op(window, kind)
                indexes[op] = ops.call(op, profiling.ProfileIndex, loaded, window, kind)
        return {"generated": c, "directory": directory, "loaded": loaded, "indexes": indexes}

    def digests(self, out) -> dict:
        found = {"corpus.write_corpus": csv_digest(out["directory"])}
        found.update({op: index_digest(ix) for op, ix in out["indexes"].items() if ix is not FAILED})
        return found

    def check(self, ops, out) -> None:
        ops.check("synthgen.generate", out["generated"] == self.reference,
                  "generated corpus differs from the set-up one")
        ops.check("corpus.load_corpus", out["loaded"] == self.reference,
                  "loaded corpus differs from the generated one")
        for op, value in self.digests(out).items():
            self._expect(ops, op, value)


class Studies(Workload):
    """Featurize large batches, build the pipeline's 12 study tables and
    the self-similarity series of a seeded cohort."""

    name = "studies"

    def setup(self) -> None:
        c = self.corpus = generate_corpus()
        s = self.seed % SEED_BANK
        self.sample_seed = s
        self.random_pairs = evalkit.sample_pairs(c, STUDY_RANDOM_PAIRS, s, "random")
        self.friend_pairs = evalkit.sample_pairs(c, STUDY_FRIEND_PAIRS, s, "friends")
        actives = np.asarray(sorted(corpus.active_users(c, (0, 0))))
        cohort = np.random.default_rng(s).choice(actives, size=SELFSIM_COHORT, replace=False)
        self.cohort = [int(u) for u in cohort]
        self.first = None

    def round(self, ops, tracer):
        c, s = self.corpus, self.sample_seed
        out = {}
        for kind in KINDS:
            out[f"pairfeat.build_training_set.{kind}"] = ops.call(
                f"pairfeat.build_training_set.{kind}", pairfeat.build_training_set, c, STUDY_PAIRS, kind, s
            )
        for key in STUDY_KEYS:
            pairs = self.friend_pairs if key in ("msgcount", "msgdays") else self.random_pairs
            for kind in TAG_KINDS:
                op = f"evalkit.bucket_similarity.{key}.{kind}"
                out[op] = ops.call(op, evalkit.bucket_similarity, c, pairs, key, kind)
        for kind in TAG_KINDS:
            op = f"profiling.self_similarity_series.{kind}"
            out[op] = ops.call(
                op, lambda k: [profiling.self_similarity_series(c, u, k, SELFSIM_LAGS) for u in self.cohort], kind
            )
        return out

    def digests(self, out) -> dict:
        found = {}
        for op, value in out.items():
            if value is FAILED:
                continue
            if isinstance(value, pairfeat.SampleTable):
                found[op] = digest([value.columns[k] for k in sorted(value.columns)] + [value.labels])
            elif isinstance(value, evalkit.BucketTable):
                found[op] = digest(value.rows)
            else:
                found[op] = digest(value)
        return found

    def check(self, ops, out) -> None:
        if self.first is None:
            self.first = out
        for op, value in self.digests(out).items():
            self._expect(ops, op, value)

    def finish(self, ops) -> None:
        """Thread-count invariance and agreement with the per-pair reference."""
        if self.first is None:
            return
        c, s = self.corpus, self.sample_seed
        rng = np.random.default_rng(s)
        for kind in KINDS:
            table = self.first[f"pairfeat.build_training_set.{kind}"]
            if table is FAILED:
                continue
            op = f"pairfeat.build_training_set.{kind}.threads2"
            two = ops.call(op, pairfeat.build_training_set, c, STUDY_PAIRS, kind, s, threads=2)
            if two is not FAILED:
                same = all(np.array_equal(two.columns[k], table.columns[k]) for k in table.columns)
                ops.check(op, same and np.array_equal(two.labels, table.labels),
                          "threads=2 features differ from threads=1")
            for i in rng.choice(len(table), size=REFERENCE_PAIRS, replace=False):
                t, h = int(table.columns["target"][i]), int(table.columns["helper"][i])
                op = f"pairfeat.extract.{kind}"
                rec = ops.call(op, pairfeat.extract, c, t, h, kind)
                if rec is FAILED:
                    continue
                batch = [table.columns[name][i] for name in pairfeat.FEATURE_COLUMNS]
                ref = rec.as_row()
                # the tolerance of the package's own batch-vs-reference test
                ok = all(abs(a - b) <= max(1e-6 * abs(b), 1e-12) for a, b in zip(batch, ref))
                ops.check(op, ok, f"extract_batch {batch} != extract {ref} for ({t}, {h})")

    def sizes(self) -> dict:
        return {
            "sample_seed": self.sample_seed,
            "pairs_per_kind": STUDY_PAIRS,
            "study_random_pairs": STUDY_RANDOM_PAIRS,
            "study_friend_pairs": STUDY_FRIEND_PAIRS,
            "selfsim_cohort": SELFSIM_COHORT,
        }


class Models(Workload):
    """The model table (six kinds x clf/reg) and the feature ablation."""

    name = "models"

    def setup(self) -> None:
        self.corpus = generate_corpus()
        self.table = pairfeat.build_training_set(self.corpus, MODEL_PAIRS, "ptp", MODEL_SEED)
        self.fits: list[dict] | None = None

    def _protocol(self, kind: str, task: str) -> dict:
        row = {"kind": kind, "task": task, "ok": True, "score": None, "error": None}
        try:
            report, model = evalkit.run_protocol(
                self.table, kind, task, seed=MODEL_SEED, folds=MODEL_FOLDS
            )
        except mlcore.ConvergenceError as err:
            row.update(ok=False, error=f"ConvergenceError: {err}")
            linear = err.model
        else:
            row["score"] = report["auc"] if task == "clf" else report["reduced_mae_pct"]
            linear = _linear_part(model)
        if linear is not None:
            row.update(**{"lambda": linear.l1_lambda, "n_sweeps": linear.n_sweeps, "converged": linear.converged})
        return row

    def round(self, ops, tracer):
        rows = []
        for task in ("clf", "reg"):
            for kind in mlcore.MODEL_KINDS:
                op = f"evalkit.run_protocol.{kind}.{task}"
                with tracer.span(op):
                    row = ops.call(op, self._protocol, kind, task)
                if row is FAILED:
                    row = {"kind": kind, "task": task, "ok": False, "score": None, "error": "raised"}
                elif not row["ok"]:
                    ops.fail(op, row["error"], wrong=False)
                if not row["ok"]:
                    tracer.count(f"{op}.failed")
                rows.append(row)
        ablation = ops.call("evalkit.ablation_sweep", evalkit.ablation_sweep, self.table, "clf",
                            seed=MODEL_SEED, folds=MODEL_FOLDS)
        return {"fits": rows, "ablation": ablation}

    def check(self, ops, out) -> None:
        for row in out["fits"]:
            op = f"evalkit.run_protocol.{row['kind']}.{row['task']}"
            if row["ok"] and row["task"] == "clf":
                ops.check(op, 0.0 <= row["score"] <= 1.0, f"AUC {row['score']} outside [0, 1]")
            if row["ok"]:
                ops.check(op, bool(np.isfinite(row["score"])), f"score {row['score']} not finite")
        if out["ablation"] is not FAILED:
            aucs = [r["auc"] for r in out["ablation"]]
            ops.check("evalkit.ablation_sweep", len(aucs) == len(evalkit.CATEGORY_COMBINATIONS)
                      and all(0.0 <= a <= 1.0 for a in aucs), f"ablation AUCs {aucs}")
        if self.fits is None:
            self.fits = out["fits"]
        else:
            for first, row in zip(self.fits, out["fits"]):
                op = f"evalkit.run_protocol.{row['kind']}.{row['task']}"
                ops.check(op, row == first, f"fit differs between rounds: {row} != {first}")

    def quality(self) -> dict:
        if self.fits is None:
            return {}
        return {
            "clf_auc_mean": model_table_quality(self.fits, "clf"),
            "reg_mae_red_pct_mean": model_table_quality(self.fits, "reg"),
        }

    def sizes(self) -> dict:
        return {"sample_seed": MODEL_SEED, "pairs": MODEL_PAIRS, "folds": MODEL_FOLDS}


class Recommend(Workload):
    """The cold-start grid over the pipeline's strategies, with GBDT
    similarity regressors fitted in set-up."""

    name = "recommend"

    def setup(self) -> None:
        c = self.corpus = generate_corpus()
        s = self.sample_seed = self.seed % SEED_BANK
        models = {}
        for kind in KINDS:
            table = pairfeat.build_training_set(c, REC_TRAIN_PAIRS, kind, s)
            models[kind] = evalkit.fit_model("gbdt", table.to_design(), "reg", seed=s)
        self.strategies = [recommend.PredictedSim(k, models[k]) for k in KINDS] + [
            recommend.OracleSim("ptp"),
            recommend.OracleSim("rtp"),
            recommend.DemographicSim(),
            recommend.FriendFilter(),
            recommend.PastLongTerm(),
            recommend.RandomK(),
            recommend.GlobalPopularity(),
        ]
        self.config = recommend.ExperimentConfig(
            n_targets=REC_TARGETS, n_candidates=REC_CANDIDATES, k_values=REC_K, n_values=REC_N, seed=s
        )
        self.rows = None

    def round(self, ops, tracer):
        with tracer.span("recommend.run_experiment"):
            rows = ops.call("recommend.run_experiment", recommend.run_experiment,
                            self.corpus, self.config, self.strategies)
        return None if rows is FAILED else rows

    def digests(self, rows) -> dict:
        keys = ("K", "N", "f_measure", "diversification")
        return {
            f"recommend.run_experiment.{s.name()}": digest(
                [[r[k] for k in keys] for r in rows if r["strategy"] == s.name()]
            )
            for s in self.strategies
        }

    def check(self, ops, rows) -> None:
        self.rows = rows
        found = self.digests(rows)
        wrong = sorted(op for op, value in found.items() if self.expected.get(op) != value)
        ops.check("recommend.run_experiment", not wrong, f"grid digests differ for {wrong}")

    def quality(self) -> dict:
        if self.rows is None:
            return {}
        f = [r["f_measure"] for r in self.rows
             if r["strategy"].startswith("predicted-") and r["K"] == 10 and r["N"] == 10]
        return {"rec_f_measure": sum(f) / len(f)}

    def sizes(self) -> dict:
        return {
            "sample_seed": self.sample_seed,
            "train_pairs_per_kind": REC_TRAIN_PAIRS,
            "targets": REC_TARGETS,
            "candidates": REC_CANDIDATES,
        }


WORKLOADS = {w.name: w for w in (Ingest, Studies, Models, Recommend)}


def expected_for(name: str, seed: int, expected: dict) -> dict:
    """The recorded digests a run of ``name`` at ``seed`` must reproduce."""
    if name == "ingest":
        return expected.get("ingest", {})
    return expected.get(name, {}).get(str(seed % SEED_BANK), {})
