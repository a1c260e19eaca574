"""Record reference outcomes for the correctness check into references.json.

Run from the repository root, on a commit whose outputs are trusted::

    python3 perfbench/record.py --workload ds-dirty --seeds 1-20

One SparkSession serves every seed. Per seed, each of the run's datasets is
generated and resolved once; its F1 and its pair count per model become the
reference that ``run.py`` checks every operation on that dataset against. A
seed with a dataset whose predictions are not all candidate pairs is not
recorded. Each operation's wall time and EM iteration count are printed too,
as a cheap view of how the work varies from dataset to dataset.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from run import ROOT, log, start_spark, stop_spark


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-20")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    path = ROOT / "perfbench" / "references.json"
    refs = json.loads(path.read_text())
    spark = start_spark()
    try:
        for seed in args.seeds:
            records = []
            for j, sub in enumerate(workloads.sub_seeds(seed)):
                ds = wl.make(spark, wl.scale, sub)
                t = time.perf_counter()
                resolved = workloads.resolve(spark, ds)
                took = time.perf_counter() - t
                got = workloads.outcome(resolved)
                log(f"record {args.workload} seed {seed} dataset {j}: {took:.3f}s "
                    f"iterations={resolved[1].n_iterations} pairs={got.pairs} f1={got.f1:.6f} {got.problems or 'ok'}")
                records.append(None if got.problems else got.record())
                got.release()
                workloads.release_dataset(ds)
            if None not in records:
                refs.setdefault(args.workload, {})[str(seed)] = records
    finally:
        stop_spark(spark)
    path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
