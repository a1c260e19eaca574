"""Reproduce the paper's Tables 1–5, one featurization per dataset.

Usage: PYTHONPATH=src python jobs/tables.py [--tables 1 2 3 4 5] [--scale 1.0]
       [--datasets FZ DA DS AB AG] [--seed 0]

Prints each table and writes ``BENCH_table<N>.json`` into the working
directory: the rows, the scale and seed, the Spark master, cores, driver
memory and shuffle partitions, and per dataset the seconds spent generating,
featurizing and computing the table.
"""
from __future__ import annotations

import argparse
import json

import pandas as pd
from pyspark.sql import SparkSession

from repro.erdata import CODES
from repro.experiments import table3, table5
from repro.experiments.runner import run_tables

PIVOTS = {3: table3.pivot, 5: table5.pivot}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tables", type=int, nargs="+", default=[1, 2, 3, 4, 5], choices=range(1, 6))
    p.add_argument("--scale", type=float, default=1.0, help="dataset scale factor")
    p.add_argument("--datasets", nargs="+", default=None, choices=CODES, help="default: all five")
    p.add_argument("--seed", type=int, default=0, help="seed of the methods that draw")
    return p.parse_args(argv)


def run(spark: SparkSession, args: argparse.Namespace) -> dict[int, pd.DataFrame]:
    """Run the requested tables, print them and write their BENCH files."""
    timings: dict[int, list[dict]] = {}
    frames = run_tables(
        spark, sorted(set(args.tables)), scale=args.scale, datasets=args.datasets, seed=args.seed,
        timings=timings,
    )
    conf = spark.sparkContext.getConf()
    setup = {
        "scale": args.scale,
        "seed": args.seed,
        "master": spark.sparkContext.master,
        "cores": spark.sparkContext.defaultParallelism,
        "driver_memory": conf.get("spark.driver.memory", "1g"),
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
    }
    for n, df in frames.items():
        print(f"\n=== TABLE {n} ===")
        print(df.to_string(index=False))
        if n in PIVOTS:
            print(PIVOTS[n](df).to_string())
        record = {"table": n, **setup, "seconds": timings[n], "rows": df.to_dict("records")}
        with open(f"BENCH_table{n}.json", "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return frames


if __name__ == "__main__":
    args = parse_args()
    spark = (
        SparkSession.builder.appName("tables")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("WARN")
    run(spark, args)
    spark.stop()
