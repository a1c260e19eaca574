"""Benchmark + regeneration of Table 2 (dataset characteristics)."""


def test_table2(table):
    df = table(2)
    print("\n=== TABLE 2 (ours vs paper) ===")
    print(df.to_string(index=False))
    assert list(df["dataset"]) == ["FZ", "DA", "DS", "AB", "AG"]
