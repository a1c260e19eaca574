"""Transitivity as posterior constraints (§4): trio discovery + greedy projection.

Constraints have the form ``γ_a · γ_b ≤ γ_c`` (Eq. 12) where a, b are two
match-predicted pairs sharing a tuple and c is the closing pair. Under the
reduced set Q' (Eq. 19) only pairs with γ ≥ 0.5 generate constraints, so the
constraint graph is built from the (small) match sets of the three models —
cross (T×T'), left (T×T), right (T'×T') — and resolved greedily on the driver
with the axis projections of Eq. 18, picking per violated constraint the
projection that maximizes the free energy F(Θ, γ) (Eq. 14) and never undoing
a previous constraint's adjustment (the paper's conflict rule).

Both steps run on int codes. :func:`enumerate_constraints` lists Q' with
sorts and segment arithmetic over the match arrays and names each pair by its
model code and ``(id1 << 32) | id2`` key; the caller looks each distinct pair
up once in its model and gives the pairs found positions in one value table,
and :func:`resolve` walks the constraints in order over Python lists indexed
by position.

Closing pairs excluded by blocking have no feature vector: their γ is pinned
to 0 (the paper's convention), which forbids the "raise γ_c" projection and
forces one of the two cross pairs down — exactly the fd1/fd3 false-positive
repair of Example 1.3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.em import GAMMA_CLIP, _encode_ids

MODELS = ("c", "l", "r")  # model codes: index into this tuple

_MAX_FANOUT = 64  # cap per-tuple match fan-out when enumerating trios


@dataclass(frozen=True)
class Constraints:
    """Q' int-coded: row t is γ[a] · γ[b] ≤ γ[c], slots (a, b, c) in order.

    ``models[t, s]`` is the slot's model code (an index into :data:`MODELS`)
    and ``keys[t, s]`` its pair as ``(id1 << 32) | id2`` (``em._encode_ids``).
    """

    models: np.ndarray  # (n, 3) int8
    keys: np.ndarray  # (n, 3) int64

    def __len__(self) -> int:
        return len(self.keys)


def _intra_key(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    return _encode_ids(np.column_stack([np.minimum(i, j), np.maximum(i, j)]))


def _starts(shared: np.ndarray) -> np.ndarray:
    """Start index of each run of equal values in the sorted ``shared``."""
    return np.flatnonzero(np.r_[True, shared[1:] != shared[:-1]])


def _capped_groups(shared, gamma, rank, other) -> np.ndarray:
    """Row indices kept under the fan-out cap, sorted by (shared, other, rank).

    Within each ``shared`` value the rows are ranked by (−γ, ``rank``) and
    only the first ``_MAX_FANOUT`` are kept.
    """
    idx = np.lexsort((rank, -gamma, shared))
    starts = _starts(shared[idx])
    sizes = np.diff(np.r_[starts, len(idx)])
    in_group = np.arange(len(idx)) - np.repeat(starts, sizes)
    kept = idx[in_group < _MAX_FANOUT]
    return kept[np.lexsort((rank[kept], other[kept], shared[kept]))]


def _group_pairs(shared: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair p < q inside each run of equal values of the sorted
    ``shared``, in lexicographic (p, q) order."""
    n = len(shared)
    starts = _starts(shared)
    sizes = np.diff(np.r_[starts, n])
    after = np.repeat(starts + sizes, sizes) - np.arange(n) - 1
    p = np.repeat(np.arange(n), after)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(after) - after, after)
    return p, q


def enumerate_constraints(matches: dict[str, tuple[np.ndarray, np.ndarray]]) -> Constraints:
    """Build Q' from the three match sets (γ ≥ 0.5 pairs per model).

    ``matches[m]`` is the model's (ids, γ): an (n, 2) int64 array of
    (l_id, r_id) and the pairs' posteriors. Two cross matches sharing a
    left tuple close through a *right*-model pair and vice versa; two intra
    matches sharing a tuple close through the same intra model (an intra
    match counts as a neighbour of both its tuples).

    Fan-out cap: a shared tuple with more than ``_MAX_FANOUT`` (64) matches
    keeps only its top 64 by γ, ties broken by match-set row order (for an
    intra match, by row and then by which of its two tuples is shared), and
    the rest of its matches form no constraint through that tuple: they are
    dropped from Q'.

    Order: cross constraints through a shared left tuple, then through a
    shared right tuple, then left-intra, then right-intra; inside each, by
    shared tuple id and then pair by pair in order of the neighbour ids.
    :func:`resolve` depends on this order (the conflict rule).
    """
    models: list[np.ndarray] = []
    keys: list[np.ndarray] = []

    def emit(code_ab: int, code_c: int, a, b, c) -> None:
        models.append(np.tile(np.array([code_ab, code_ab, code_c], dtype=np.int8), (len(a), 1)))
        keys.append(np.column_stack([a, b, c]))

    def match_set(m: str):
        ids, g = matches.get(m, ((), ()))
        return (ids, g) if len(ids) else None

    cross = match_set("c")
    if cross is not None:
        ids, g = cross
        l, r = ids[:, 0], ids[:, 1]
        row = np.arange(len(ids))
        pair = _encode_ids(ids)
        for shared, other, closing in ((l, r, "r"), (r, l, "l")):
            kept = _capped_groups(shared, g, row, other)
            p, q = _group_pairs(shared[kept])
            p, q = kept[p], kept[q]
            closing_pair = _intra_key(other[p], other[q])
            emit(MODELS.index("c"), MODELS.index(closing), pair[p], pair[q], closing_pair)
    for m in ("l", "r"):
        intra = match_set(m)
        if intra is None:
            continue
        ids, g = intra
        # (i,j) and (i,k) matched within one table ⇒ (j,k) must match too.
        # Entry 2e lists edge e under its first tuple, 2e + 1 under its second.
        shared = ids.ravel()
        nbr = ids[:, ::-1].ravel()
        entry = np.arange(len(shared))
        kept = _capped_groups(shared, np.repeat(g, 2), entry, nbr)
        p, q = _group_pairs(shared[kept])
        p, q = kept[p], kept[q]
        distinct = nbr[p] != nbr[q]
        p, q = p[distinct], q[distinct]
        edge = _intra_key(ids[:, 0], ids[:, 1])
        code = MODELS.index(m)
        emit(code, code, edge[p // 2], edge[q // 2], _intra_key(nbr[p], nbr[q]))
    if not keys:
        return Constraints(np.zeros((0, 3), dtype=np.int8), np.zeros((0, 3), dtype=np.int64))
    return Constraints(np.concatenate(models), np.concatenate(keys))


def _free_energy_term(v: float, logm: float, logu: float) -> float:
    """One pair's contribution to F(Θ, γ) (Eq. 14)."""
    v = min(max(v, GAMMA_CLIP), 1.0 - GAMMA_CLIP)
    return v * (logm - math.log(v)) + (1.0 - v) * (logu - math.log(1.0 - v))


def resolve(
    positions: np.ndarray,
    values: np.ndarray,
    logm: np.ndarray,
    logu: np.ndarray,
) -> dict[int, float]:
    """Greedy projection of γ* onto (approximately) the boundary of Q.

    ``positions``: (n, 3) the constraints' (a, b, c) pairs, in order, as
    indices into ``values``; −1 is a pair without a feature vector (blocked
    out), pinned at γ = 0 and never adjusted. ``values``, ``logm``, ``logu``:
    the current γ* and (log π_M p(x|θ_M), log π_U p(x|θ_U)) per position.

    Returns the adjusted γ' per position (only positions that were moved).
    """
    cur = values.tolist()
    cur.append(0.0)  # read by position −1
    lm, lu = logm.tolist(), logu.tolist()
    direction = [0] * len(values)  # +1 raised, −1 lowered, 0 untouched
    adjusted: dict[int, float] = {}
    for a, b, c in positions.tolist():
        ga, gb, gc = cur[a], cur[b], cur[c]
        if ga * gb <= gc + 1e-12:
            continue
        # Candidate projections (Eq. 18): raise c, or lower a or b. The first
        # of equal gains wins.
        best = None
        for key, new, dirn in (
            (c, ga * gb, +1),
            (a, gc / gb if gb > GAMMA_CLIP else 0.0, -1),
            (b, gc / ga if ga > GAMMA_CLIP else 0.0, -1),
        ):
            if key < 0:
                continue  # pinned γ=0 pair: not adjustable
            if direction[key] == -dirn:
                continue  # would undo an earlier constraint's adjustment
            ll = lm[key], lu[key]
            gain = _free_energy_term(new, *ll) - _free_energy_term(cur[key], *ll)
            if best is None or gain > best[0]:
                best = (gain, key, new, dirn)
        if best is None:
            continue  # all axes conflict: perform no projection (paper's rule)
        _, key, new, dirn = best
        cur[key] = adjusted[key] = min(max(new, GAMMA_CLIP), 1.0 - GAMMA_CLIP)
        direction[key] = dirn
    return adjusted
