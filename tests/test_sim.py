"""Unit + property tests for the similarity kernels (repro.textsim.sim)."""
from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.textsim import sim

WORDS = st.text(alphabet="abcdefghij ", min_size=0, max_size=30)
# Up to 80 chars, so pairs cross the 64-char Levenshtein cap.
LONG = st.text(alphabet="abcdefghij ", min_size=0, max_size=80)
NON_ASCII = st.text(alphabet="aeéßø€中文😀 ", min_size=0, max_size=80)
SETS = st.frozensets(st.sampled_from(list("abcdefghijklmnop")), max_size=12)


def ref_levenshtein(a: str, b: str) -> int:
    a, b = a[:64], b[:64]
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def ref_jaro(a: str, b: str) -> float:
    """Jaro with an index loop and match flags: the reference for sim.jaro."""
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    window = max(la, lb) // 2 - 1
    match_a = [False] * la
    match_b = [False] * lb
    matches = 0
    for i, ca in enumerate(a):
        lo, hi = max(0, i - window), min(lb, i + window + 1)
        for j in range(lo, hi):
            if not match_b[j] and b[j] == ca:
                match_a[i] = match_b[j] = True
                matches += 1
                break
    if matches == 0:
        return 0.0
    bs = [b[j] for j in range(lb) if match_b[j]]
    transpositions = sum(
        1 for ca, cb in zip((a[i] for i in range(la) if match_a[i]), bs) if ca != cb
    )
    t = transpositions / 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


# ---------------------------------------------------------------- exact
@pytest.mark.parametrize(
    "a,b,expected",
    [("abc", "abc", 1.0), ("abc", "abd", 0.0), ("", "", 1.0), ("a", "", 0.0)],
)
def test_exact(a, b, expected):
    assert sim.exact(a, b) == expected


# ---------------------------------------------------------------- set sims
@pytest.mark.parametrize("fn", [sim.jaccard, sim.cosine, sim.dice, sim.overlap_coeff])
def test_set_sim_identical(fn):
    s = frozenset("abcd")
    assert fn(s, s) == 1.0


@pytest.mark.parametrize("fn", [sim.jaccard, sim.cosine, sim.dice, sim.overlap_coeff])
def test_set_sim_disjoint(fn):
    assert fn(frozenset("ab"), frozenset("cd")) == 0.0


@pytest.mark.parametrize("fn", [sim.jaccard, sim.cosine, sim.dice, sim.overlap_coeff])
def test_set_sim_empty_conventions(fn):
    assert fn(frozenset(), frozenset()) == 1.0
    assert fn(frozenset("a"), frozenset()) == 0.0
    assert fn(frozenset(), frozenset("a")) == 0.0


@pytest.mark.parametrize("fn", [sim.jaccard, sim.cosine, sim.dice, sim.overlap_coeff])
@given(a=SETS, b=SETS)
def test_set_sim_bounded_symmetric(fn, a, b):
    v = fn(a, b)
    assert 0.0 <= v <= 1.0
    assert fn(b, a) == pytest.approx(v)


def test_jaccard_value():
    assert sim.jaccard(frozenset("abc"), frozenset("bcd")) == pytest.approx(2 / 4)


def test_cosine_value():
    assert sim.cosine(frozenset("abc"), frozenset("bcde")) == pytest.approx(2 / math.sqrt(12))


def test_dice_value():
    assert sim.dice(frozenset("abc"), frozenset("bcd")) == pytest.approx(4 / 6)


def test_overlap_value():
    assert sim.overlap_coeff(frozenset("ab"), frozenset("abcdef")) == pytest.approx(1.0)


def test_jaccard_subset_ordering():
    a, b, c = frozenset("abcdef"), frozenset("abcd"), frozenset("ab")
    assert sim.jaccard(a, b) > sim.jaccard(a, c)


# ---------------------------------------------------------------- levenshtein
@pytest.mark.parametrize(
    "a,b,d",
    [
        ("kitten", "sitting", 3),
        ("flaw", "lawn", 2),
        ("", "abc", 3),
        ("abc", "", 3),
        ("same", "same", 0),
        ("a", "b", 1),
        ("ab", "ba", 2),
    ],
)
def test_levenshtein_known(a, b, d):
    assert sim.levenshtein(a, b) == d


@given(a=LONG, b=LONG)
def test_levenshtein_matches_reference(a, b):
    assert sim.levenshtein(a, b) == ref_levenshtein(a, b)


@given(a=NON_ASCII, b=NON_ASCII)
def test_levenshtein_matches_reference_non_ascii(a, b):
    assert sim.levenshtein(a, b) == ref_levenshtein(a, b)


@pytest.mark.parametrize("la", [63, 64, 65])
@pytest.mark.parametrize("lb", [1, 63, 64, 65])
def test_levenshtein_at_the_cap(la, lb):
    # Periodic strings with different periods: the full 64-bit column is live.
    a = ("abcdefg" * 10)[:la]
    b = ("gfedcba" * 10)[:lb]
    assert sim.levenshtein(a, b) == ref_levenshtein(a, b)
    assert sim.levenshtein(a, a[:-1] + "z") == ref_levenshtein(a, a[:-1] + "z")


@given(a=WORDS, b=WORDS)
def test_levenshtein_symmetric(a, b):
    assert sim.levenshtein(a, b) == sim.levenshtein(b, a)


@given(a=WORDS, b=WORDS, c=WORDS)
def test_levenshtein_triangle(a, b, c):
    assert sim.levenshtein(a, c) <= sim.levenshtein(a, b) + sim.levenshtein(b, c)


@given(a=WORDS, b=WORDS)
def test_lev_sim_bounded(a, b):
    assert 0.0 <= sim.lev_sim(a, b) <= 1.0


def test_lev_sim_identical_and_empty():
    assert sim.lev_sim("abc", "abc") == 1.0
    assert sim.lev_sim("", "") == 1.0
    assert sim.lev_sim("ab", "") == 0.0


def test_levenshtein_truncates_long_strings():
    a, b = "x" * 500, "y" * 500
    assert sim.levenshtein(a, b) == 64  # capped at _LEV_CAP


# ---------------------------------------------------------------- jaro / jw
@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("martha", "marhta", 0.9444444),
        ("dixon", "dicksonx", 0.7666666),
        ("jellyfish", "smellyfish", 0.8962963),
    ],
)
def test_jaro_known_values(a, b, expected):
    assert sim.jaro(a, b) == pytest.approx(expected, abs=1e-6)


def test_jaro_winkler_known_value():
    assert sim.jaro_winkler("martha", "marhta") == pytest.approx(0.9611111, abs=1e-6)


@given(a=WORDS, b=WORDS)
def test_jaro_winkler_bounded_symmetric(a, b):
    v = sim.jaro_winkler(a, b)
    assert 0.0 <= v <= 1.0 + 1e-12
    assert sim.jaro_winkler(b, a) == pytest.approx(v)


@given(a=LONG, b=LONG)
def test_jaro_matches_reference(a, b):
    assert sim.jaro(a, b) == ref_jaro(a, b)


@given(a=NON_ASCII, b=NON_ASCII)
def test_jaro_matches_reference_non_ascii(a, b):
    assert sim.jaro(a, b) == ref_jaro(a, b)


@given(a=WORDS)
def test_jaro_identity(a):
    assert sim.jaro(a, a) == 1.0


def test_jaro_no_common_chars():
    assert sim.jaro("abc", "xyz") == 0.0


def test_jaro_winkler_prefix_boost():
    # Shared prefix must not decrease similarity relative to plain Jaro.
    assert sim.jaro_winkler("prefixes", "prefixed") >= sim.jaro("prefixes", "prefixed")


# ---------------------------------------------------------------- numeric
@pytest.mark.parametrize(
    "a,b,expected",
    [(1.0, 1.0, 1.0), (0.0, 0.0, 1.0), (100.0, 50.0, 0.5), (2.0, 1.0, 0.5), (-1.0, 1.0, 0.0)],
)
def test_rel_sim(a, b, expected):
    assert sim.rel_sim(a, b) == pytest.approx(expected)


@given(
    a=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    b=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
def test_rel_sim_bounded_symmetric(a, b):
    v = sim.rel_sim(a, b)
    assert 0.0 <= v <= 1.0
    assert sim.rel_sim(b, a) == pytest.approx(v)
