"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root: the package is imported from ``src/``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, every per-layer metric with ``--trace 1``.  The lines before
it print each end-to-end metric by name and unit, the inputs and the
environment.  A traced run also writes its spans, per-round counters and
per-fit solver table to ``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import random
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse as sp

SETUP_REPEATS = 3
OUT_DIR = ".perfbench"
# seconds of work between two reference timings inside a round
STRETCH_S = 2.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("ingest", "studies", "models", "recommend"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the OpenBLAS bundled with numpy will use."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    value = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(value) if value else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


class Reference:
    """Times a fixed computation with the package's mix of work: a walk
    over a graph of Python objects larger than the caches, Python sets,
    dicts and tuples, CSV-like parsing, a sparse product and numpy
    arithmetic.  It shares no code with the package.

    On a shared 2-vCPU host the speed of the same code drifted by up to a
    quarter over seconds to minutes, and memory-bound code slowed most.
    Over ten runs per workload the spread (interquartile range over
    median) of a round's time in units of this computation was 0.06-0.09,
    against 0.16-0.26 for its raw wall time.
    """

    def __init__(self):
        rows = [(i, (i * 7) % 401, -(i % 31)) for i in range(300_000)]
        random.Random(0).shuffle(rows)  # so that the walk misses the caches
        self.rows = rows
        self.lookup = {r: i for i, r in enumerate(rows[: len(rows) // 2])}

    def __call__(self) -> float:
        # the collector's passes scale with the objects a round keeps alive,
        # which would make the reference measure the round's heap, not the host
        gc.disable()
        try:
            return self._work()
        finally:
            gc.enable()

    def _work(self) -> float:
        t0 = time.perf_counter()
        total = sum(r[1] for r in self.rows)
        hits = sum(1 for r in self.rows[::2] if r in self.lookup)
        rows = {(i % 1009, (i * 7) % 401, -(i % 31)) for i in range(20_000)}
        by_user: dict[int, dict[int, set[int]]] = {}
        for u, m, d in rows:
            by_user.setdefault(u, {}).setdefault(d, set()).add(m)
        text = "\n".join(f"{u},{m},{d}" for u, m, d in sorted(rows))
        parsed = [tuple(int(x) for x in line.split(",")) for line in text.splitlines()]
        if len(parsed) != len(rows) or total <= 0 or hits <= 0:
            raise RuntimeError("reference computation went wrong")
        A = sp.random(2000, 400, density=0.05, random_state=1, format="csr")
        for _ in range(2):
            (A @ A.T).tocsr()
        x = np.linspace(0.0, 1.0, 200_000)
        for _ in range(5):
            x = np.sqrt(x * 1.0001 + 1.0)
        return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, root: Path) -> tuple[dict, list[str]]:
    import tracing
    import workloads
    from interestsim import mlcore
    from metrics import Ops, RoundClock, median

    expected = workloads.expected_for(args.workload, args.seed, workloads.load_expected())
    workdir = root / OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir, expected)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

        ops = Ops(solver_errors=(mlcore.ConvergenceError,))
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
        untraced = tracing.NoTracer()
        rounds, layer_rounds = [], []  # rounds: (traced, wall, reference units, cpu)
        clock = RoundClock(Reference(), STRETCH_S)
        deadline = time.perf_counter() + args.seconds
        # a traced run alternates untraced and traced rounds, so that the
        # difference of their medians is the tracing overhead
        while not (
            time.perf_counter() >= deadline
            and any(not r[0] for r in rounds)
            and (any(r[0] for r in rounds) or not args.trace)
        ):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            out = None
            gc.collect()
            if traced:
                tracer.start_round(len(rounds))
                tracing.install(tracer)
            else:
                clock.begin()
                ops.after_op = clock.boundary
                hooks = tracing.hook_boundaries(clock.boundary)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                out = wl.round(ops, tracer if traced else untraced)
            finally:
                if traced:
                    wall, units = time.perf_counter() - t0, 0.0
                    tracer.uninstall()
                else:
                    ops.after_op = None
                    tracing.restore(hooks)
                    wall, units = clock.end()
                cpu = time.process_time() - c0 - (0.0 if traced else clock.ref_cpu)
            rounds.append((traced, wall, units, cpu))
            if traced:
                layer_rounds.append(tracer.round_metrics(tracer.round_id))
            if out is not None:
                wl.check(ops, out)
        wl.finish(ops)

        quality = wl.quality()
        inputs = {
            "workload": args.workload,
            "seed": args.seed,
            **workloads.corpus_sizes(wl.corpus),
            "profile_nnz": workloads.profile_nnz(wl.corpus),
            **wl.sizes(),
        }
        walls = [r[1] for r in rounds if not r[0]]
        traced_walls = [r[1] for r in rounds if r[0]]
        env = {
            **environment(),
            "bench.cpu_s": median([r[3] for r in rounds if not r[0]]),
            "bench.ref_s": median(clock.refs),
        }
        e2e = {
            "wall_ref": (median([r[2] for r in rounds if not r[0]]), "ref"),
            "setup_s": (median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        wall_s = median(walls)
        lines = [f"perfbench {args.workload} seed={args.seed}: {len(walls)} untraced rounds, "
                 f"{len(traced_walls)} traced, {SETUP_REPEATS} set-ups"]
        lines.append(f"  {'wall_s':22s} {wall_s:12.4f} s")
        for name, (value, unit) in e2e.items():
            lines.append(f"  {name:22s} {value:12.4f} {unit}")
        lines.append(f"  {'failed_ops_frac':22s} {ops.frac():12.4f} ratio  ({ops.failed} failed / {ops.attempted} attempted)")
        for name, unit in (("clf_auc_mean", "ratio"), ("reg_mae_red_pct_mean", "%"), ("rec_f_measure", "ratio")):
            if name in quality:
                lines.append(f"  {name:22s} {quality[name]:12.4f} {unit}")
        lines.append(f"  wall_s of each round: {', '.join(f'{w:.3f}' for w in walls)}; "
                     f"reference timings: {', '.join(f'{r:.3f}' for r in clock.refs)}")
        for failure in ops.failures:
            lines.append(f"  FAILED {failure['op']}: {failure['reason'].strip().splitlines()[-1]}")
        lines.append("inputs " + json.dumps(inputs, sort_keys=True))
        lines.append("env " + json.dumps(env, sort_keys=True))

        if args.trace:
            layers = {}
            for name in tracing.LAYER_METRICS:
                values = [r.get(name, 0.0) for r in layer_rounds]
                layers[name] = median(values) if values else 0.0
            layers["failed_ops_frac"] = ops.frac()
            for name in ("clf_auc_mean", "reg_mae_red_pct_mean", "rec_f_measure"):
                layers[name] = quality.get(name, 0.0)
            layers["wall_s"] = wall_s
            layers["bench.cpu_s"] = env["bench.cpu_s"]
            layers["bench.ref_s"] = env["bench.ref_s"]
            layers["bench.trace_overhead_s"] = median(traced_walls) - median(walls)
            metrics = {n: {"value": v, "unit": tracing.LAYER_METRICS[n][0]} for n, v in layers.items()}
            fits = getattr(wl, "fits", None) or []
            if fits:
                lines.append("per-fit table (model table of the first round):")
                lines.append(f"  {'kind':9s} {'task':4s} {'ok':5s} {'score':>9s} {'lambda':>11s} {'sweeps':>7s} converged")
                for r in fits:
                    score = "-" if r["score"] is None else f"{r['score']:.4f}"
                    lam = "-" if r.get("lambda") is None else f"{r['lambda']:.4g}"
                    lines.append(f"  {r['kind']:9s} {r['task']:4s} {str(r['ok']):5s} {score:>9s} {lam:>11s} "
                                 f"{str(r.get('n_sweeps', '-')):>7s} {r.get('converged', '-')}")
            trace_path = root / OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump(
                    {
                        "inputs": inputs,
                        "env": env,
                        "untraced_walls": walls,
                        "traced_walls": traced_walls,
                        "layer_metrics": layers,
                        "layer_rounds": layer_rounds,
                        "protocol_fits": fits,
                        "linear_fits": tracer.fits,
                        "failures": ops.failures,
                        "spans": tracer.records(),
                    },
                    fh,
                    indent=1,
                    sort_keys=True,
                )
            lines.append(f"trace written to {trace_path.relative_to(root)}")
        else:
            metrics = {n: {"value": v, "unit": u} for n, (v, u) in e2e.items()}
        result = {"correct": ops.correct, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "interestsim" / "__init__.py").is_file():
        print(f"perfbench: no package source under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    result, lines = run(args, root)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
