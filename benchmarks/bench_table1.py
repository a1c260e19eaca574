"""Benchmark + regeneration of Table 1 (covariance vs correlation cosines)."""


def test_table1(table):
    df = table(1)
    print("\n=== TABLE 1 (ours vs paper) ===")
    print(df.to_string(index=False))
    # The paper's structural claim must hold on every dataset.
    assert (df["cosine(R_M,R_U)"] > df["cosine(S_M,S_U)"]).all()
