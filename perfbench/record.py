"""Record the output digests that the benchmark checks (``expected.json``).

    python3 perfbench/record.py

Run from the repository root.  Re-record only in a change whose purpose is
to change the package's outputs; a change that claims to keep them must
pass against the digests recorded before it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path


def one_round(cls, seed: int, workdir: Path) -> dict:
    from metrics import Ops
    from tracing import NoTracer

    wl = cls(seed, workdir, {})
    wl.setup()
    ops = Ops()
    out = wl.round(ops, NoTracer())
    if ops.failed:
        raise SystemExit(f"{cls.name} seed {seed} failed: {ops.failures}")
    return wl.digests(out)


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads

    workdir = root / ".perfbench" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        expected = {
            "corpus": dataclasses.asdict(workloads.CORPUS),
            "seed_bank": workloads.SEED_BANK,
            "ingest": one_round(workloads.Ingest, 0, workdir),
        }
        for cls in (workloads.Studies, workloads.Recommend):
            expected[cls.name] = {}
            for s in range(workloads.SEED_BANK):
                expected[cls.name][str(s)] = one_round(cls, s, workdir)
                print(f"recorded {cls.name} sample seed {s}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
