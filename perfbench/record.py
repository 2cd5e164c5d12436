"""Record the reference hashes that the correctness checks compare against.

Usage, from the root of a checkout:

    python3 perfbench/record.py

For every input seed it runs the booster_fit and csv_to_scores operations
once and writes the split hash of the fitted ensemble and the sha256 of
every windows.ilos to perfbench/reference.json. Re-record only in a change
that says which bits it moves and why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run

#: Index 0 is the acceptance run's seed; the others are held out.
HELD_OUT = (1, 2, 3, 4, 5, 6, 7, 8, 9)


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = str(run.THREADS)
    sys.path.insert(0, str(run.ROOT / "src"))
    from iloscast.benchmark import BENCH_SEED

    from workloads import WORKLOADS, split_hash, windows_hashes

    reference = {"seeds": [BENCH_SEED, *HELD_OUT], "booster_fit": {}, "csv_to_scores": {}}
    work = run.ROOT / ".bench_work" / "record"
    try:
        for seed in reference["seeds"]:
            booster = WORKLOADS["booster_fit"]
            data = booster.setup(seed, work)
            trained, full, report = booster.op(data)
            reference["booster_fit"][str(seed)] = split_hash(full)
            csv = WORKLOADS["csv_to_scores"]
            ws = csv.setup(seed, work)
            csv.op(ws)
            reference["csv_to_scores"][str(seed)] = windows_hashes(ws.root)
            print(seed, json.dumps(booster.quality(data, (trained, full, report))), flush=True)
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
