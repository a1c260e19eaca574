"""ZeroER benchmark: one workload, one seed, one timed window, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload ds-dirty --seed 1 --seconds 20 --trace 0

A run has three phases.

1. Set-up (``setup_s``): start a pinned ``local[4]`` SparkSession, generate
   the run's ``workloads.SUBSETS`` datasets from ``--seed``, and warm up by
   resolving one dataset that no run measures. ``setup_s`` is the session
   start plus ``SUBSETS`` times the median generation time plus the warm-up.
2. Timed window of about ``--seconds``: operations run back to back, taking
   the run's datasets in turn, each dataset at least once. Every operation is
   checked against the recorded reference of its dataset
   (``references.json``, written by ``record.py``); one that fails counts as
   failed, not as a timing. ``resolve_s`` is the median over the operations
   that passed, ``f1`` the median of the datasets' F1, and ``peak_rss_mb``
   the median over those operations of the driver's peak resident set
   during the operation (where the EM matrices live).
3. With ``--trace 1`` the datasets are resolved untraced and then traced in
   turn, at least the first of them (see ``tracing.py``), and the run reports
   the per-layer metrics instead.

The last line of standard output is the result object; everything else goes
to standard error, and a report (environment, set-up parts, every sample,
host probes, problems) is written to ``.perfbench_out/``. The exit code is 0
only when every operation was correct. Spark's scratch files stay in
``.perfbench_work/``, removed at the end.

The host probes are diagnostics, never gated: a fixed pure-Python loop timed
at the start and the end of the run, and the share of CPU time stolen by the
hypervisor during the window. They tell a host slowdown from a program
change.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# Pinned session shape: never local[*], so a run's parallelism does not
# depend on the host it lands on (beyond a host with fewer cores).
MAX_CORES = 4
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 4
REF_LOOP_N = 2_000_000
# A run must end within 180 s. A rare dataset makes EM 20x slower, so the
# window stops early, after at least one operation, rather than cross this.
DEADLINE_S = 140.0
STARTED = time.perf_counter()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop: a host-speed probe, never gated."""
    t = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks from /proc/stat: time a virtual CPU of this
    host wanted to run but its hypervisor ran another guest. (0, 0) where the
    file is missing."""
    try:
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return 0, 0
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def _cores() -> int:
    return max(1, min(MAX_CORES, len(os.sched_getaffinity(0))))


def start_spark():
    """A SparkSession whose scratch files stay under ``.perfbench_work``."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")  # overrides spark.local.dir
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{_cores()}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        # Small inputs in local mode: whole-stage code generation and adaptive
        # re-planning cost more than they save. With both on, operations took
        # about 25% longer and the first ones of a run longer still.
        .config("spark.sql.codegen.wholeStage", "false")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.sql.warehouse.dir", str(WORK / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait(timeout=30)


def environment(spark) -> dict:
    import numpy
    import pyspark

    conf = spark.sparkContext.getConf()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "pyspark": pyspark.__version__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count of this process (Linux 4.0+)."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        pass  # the peak then spans the whole run so far


def peak_rss_mb() -> float:
    """Peak resident set of this (driver) process since the last reset."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def load_references(workload: str, seed: int) -> list[dict] | None:
    """The recorded outcome of each dataset of (workload, seed), if any."""
    refs = json.loads(Path(__file__).with_name("references.json").read_text())
    return refs.get(workload, {}).get(str(seed))


def window(seconds: float, durations: list[float], min_ops: int, first_ops: int, deadline: float):
    """Yield operation indices until the next operation would overrun.

    ``durations`` holds the wall time of each operation so far; another one
    starts only while the median of those still fits in the time left, so a
    run measures about ``seconds`` whatever one operation costs. The first
    ``min_ops`` operations always run, unless the next one would end after
    ``deadline`` (a ``time.perf_counter`` value) and ``first_ops`` have run.
    """
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        expected = statistics.median(durations) if durations else 0.0
        if i >= min_ops and expected > seconds - (now - start):
            return
        if i >= first_ops and now + expected > deadline:
            return
        yield i
        i += 1


def trace_metrics(traced: list[dict], samples: list[float], props: dict, host: dict) -> dict:
    """Per-layer metrics: the median of each over the traced operations."""
    out = {name: statistics.median(t[name] for t in traced) for name in traced[0]} if traced else {}
    out.update(props)
    out["trace.untraced_s"] = statistics.median(samples) if samples else 0.0
    out["trace.overhead"] = out["trace.traced_s"] / out["trace.untraced_s"] if traced and samples else 0.0
    out["host.ref_loop_start_s"], out["host.ref_loop_end_s"] = host["ref_loop_s"]
    out["host.steal_share"] = host["steal_share"]
    return {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(out.items())}


def unit_of(name: str) -> str:
    if name.endswith("_us") or name == "textsim.us_per_pair":
        return "us"
    if name.endswith("_s"):
        return "s"
    if name in ("blocking.recall", "trace.overhead", "host.steal_share") or ".repeat_share." in name:
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        log(f"perfbench: no program source under {ROOT / 'src'}; nothing to measure")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    references = load_references(args.workload, args.seed)

    host = {"ref_loop_s": [reference_loop()]}
    shutil.rmtree(WORK, ignore_errors=True)
    spark = None
    try:
        t0 = time.perf_counter()
        spark = start_spark()
        setup = {"spark_start_s": time.perf_counter() - t0}
        env = environment(spark)
        log("perfbench env " + json.dumps(env))
        datasets, more = wl.setup(spark, args.seed)
        setup.update(more)
        setup_s = setup["spark_start_s"] + setup["warmup_s"] + len(datasets) * statistics.median(setup["generate_s"])
        log("perfbench setup " + json.dumps(setup))

        checker = workloads.Checker(references)
        ticks = cpu_ticks()
        samples: list[float] = []
        rss: list[float] = []  # driver peak RSS of each untraced operation
        durations: list[float] = []
        traced: list[dict[str, float]] = []
        props: dict[str, float] = {}
        # An untimed run measures every dataset at least once. A traced run
        # resolves each dataset untraced and then traced, for as long as the
        # window lasts, and at least the first.
        per_dataset = 2 if args.trace else 1
        min_ops = per_dataset if args.trace else len(datasets)
        for i in window(args.seconds, durations, min_ops, per_dataset, STARTED + DEADLINE_S):
            j = i // per_dataset % len(datasets)
            if args.trace and i % 2:
                resolved, layer = tracing.traced_operation(spark, datasets[j])
                took = layer["trace.traced_s"]
            else:
                reset_peak_rss()
                t = time.perf_counter()
                resolved = workloads.resolve(spark, datasets[j])
                took = time.perf_counter() - t
                op_rss = peak_rss_mb()
                layer = None
            durations.append(took)
            got = workloads.outcome(resolved)
            problems = checker.check(j, got)
            log(f"perfbench op {i} dataset {j}{' traced' if layer else ''}: {took:.3f}s f1={got.f1:.6f} {'; '.join(problems) or 'ok'}")
            if layer is not None and not props:
                props = tracing.data_properties(spark, datasets[j], got.task, args.seed)
            if not problems:
                if layer is None:
                    samples.append(took)
                    rss.append(op_rss)
                else:
                    traced.append(layer)
            got.release()
        host["steal_share"] = steal_share(ticks, cpu_ticks())
        host["ref_loop_s"].append(reference_loop())
        for ds in datasets:
            workloads.release_dataset(ds)
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(WORK, ignore_errors=True)

    attempted, failed = checker.attempted, checker.failed
    correct = failed == 0 and bool(samples) and (bool(traced) or not args.trace)
    if args.trace:
        metrics = trace_metrics(traced, samples, props, host)
    else:
        metrics = {
            "resolve_s": {"value": statistics.median(samples) if samples else 0.0, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss) if rss else 0.0, "unit": "MB"},
            "f1": {"value": statistics.median(checker.f1.values()) if checker.f1 else 0.0, "unit": "ratio"},
        }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                "env": env, "setup": setup, "host": host,
                "reference": "recorded" if references else "first operation on each dataset",
                "samples_s": samples, "peak_rss_mb": rss, "f1_by_dataset": checker.f1,
                "problems": checker.problems,
                "traced": traced, "metrics": metrics,
            },
            indent=1, default=float,
        )
    )
    log(f"perfbench host: reference loop {host['ref_loop_s'][0]:.3f}s at start, "
        f"{host['ref_loop_s'][1]:.3f}s at end; steal {host['steal_share']:.1%} of CPU time in the window")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
