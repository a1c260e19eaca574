"""Similarity kernels (all return floats in [0, 1]).

Conventions (match Magellan's behaviour closely enough for ZeroER):
- set similarities of two empty sets are 1.0 (identical), one empty is 0.0;
- string kernels operate on already-normalized strings;
- missing values are handled one level up (a missing side yields NaN for the
  whole feature, later imputed at the feature's minimum by
  :mod:`repro.core.scaling`) — kernels never see ``None``.
"""
from __future__ import annotations

import math


def exact(a: str, b: str) -> float:
    """1.0 iff the normalized strings are equal."""
    return 1.0 if a == b else 0.0


def jaccard(a: frozenset, b: frozenset) -> float:
    """|a∩b| / |a∪b|."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def cosine(a: frozenset, b: frozenset) -> float:
    """|a∩b| / sqrt(|a|·|b|) — set (binary tf) cosine."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / math.sqrt(len(a) * len(b))


def dice(a: frozenset, b: frozenset) -> float:
    """2|a∩b| / (|a|+|b|)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def overlap_coeff(a: frozenset, b: frozenset) -> float:
    """|a∩b| / min(|a|,|b|)."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


_LEV_CAP = 64  # similarity on longer strings is carried by token features


def levenshtein(a: str, b: str) -> int:
    """Edit distance, bit-parallel; inputs truncated to 64 chars.

    Myers' bit-vector algorithm in Hyyrö's formulation for the global
    distance (Myers, JACM 1999; Hyyrö 2001): the longer string is the
    pattern, one bit per position of a Python int, and each character of the
    shorter string advances the whole DP column with a dozen word operations.
    ``score`` tracks the last row of the column, which starts at ``len(a)``.
    """
    a, b = a[:_LEV_CAP], b[:_LEV_CAP]
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    peq: dict[str, int] = {}
    bit = 1
    for c in a:
        peq[c] = peq.get(c, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, score = mask, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (mask & ~(xh | pv))
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        # Row 0 of the DP is 0, 1, 2, …: every horizontal delta there is +1.
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (mask & ~(xv | ph))
        mv = ph & xv
    return score


def lev_sim(a: str, b: str) -> float:
    """1 − edit_distance / max(len) — normalized Levenshtein similarity."""
    if not a and not b:
        return 1.0
    m = max(len(a[:_LEV_CAP]), len(b[:_LEV_CAP]))
    return 1.0 - levenshtein(a, b) / m if m else 1.0


def jaro(a: str, b: str) -> float:
    """Jaro similarity.

    Each character of ``a`` takes the first not yet taken equal character of
    ``b`` inside the match window; ``str.find`` scans the window in C.
    """
    if a == b:
        return 1.0
    la, lb = len(a), len(b)
    if not la or not lb:
        return 0.0
    window = max(la, lb) // 2 - 1
    taken = [False] * lb
    a_matched = []
    for i, ca in enumerate(a):
        hi = i + window + 1
        j = b.find(ca, i - window if i > window else 0, hi)
        while j >= 0 and taken[j]:
            j = b.find(ca, j + 1, hi)
        if j >= 0:
            taken[j] = True
            a_matched.append(ca)
    matches = len(a_matched)
    if matches == 0:
        return 0.0
    # transpositions: matched chars in order
    b_matched = [cb for cb, t in zip(b, taken) if t]
    transpositions = sum(1 for ca, cb in zip(a_matched, b_matched) if ca != cb)
    t = transpositions / 2
    return (matches / la + matches / lb + (matches - t) / matches) / 3.0


def jaro_winkler(a: str, b: str, p: float = 0.1, max_prefix: int = 4) -> float:
    """Jaro-Winkler: Jaro boosted by the common prefix (Winkler's correction)."""
    j = jaro(a, b)
    prefix = 0
    for ca, cb in zip(a, b):
        if ca != cb or prefix >= max_prefix:
            break
        prefix += 1
    return j + prefix * p * (1.0 - j)


def rel_sim(a: float, b: float) -> float:
    """Numeric relative similarity: 1 − |a−b| / max(|a|,|b|), clipped to [0,1]."""
    if a == b:
        return 1.0
    m = max(abs(a), abs(b))
    if m == 0.0:
        return 1.0
    return max(0.0, 1.0 - abs(a - b) / m)
