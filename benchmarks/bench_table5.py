"""Benchmark + regeneration of Table 5 (ablation analysis)."""
from repro.experiments import table5


def test_table5(table):
    df = table(5)
    wide = table5.pivot(df)
    print("\n=== TABLE 5 F1, ours (rows: datasets / average) ===")
    print(wide.to_string())
    print("\n=== TABLE 5 full detail ===")
    print(df.to_string(index=False))
    avg = wide.loc["average"]
    # Shape: the full ZeroER beats every ablation on the dataset average.
    for variant in wide.columns:
        if variant != "ZeroER":
            assert avg["ZeroER"] >= avg[variant] - 0.02, variant
