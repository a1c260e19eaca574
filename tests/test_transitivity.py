"""Tests for transitivity constraint enumeration and greedy projection.

``ref_enumerate_constraints`` and ``ref_resolve`` are the pandas-groupby and
tuple-keyed implementations the int-coded ones replaced, and
``ref_overrides`` is one transitivity step of the EM loop over them; the
property tests require the same ordered constraints and bit-identical
adjusted values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import transitivity as tr
from repro.core.em import GAMMA_CLIP, EMConfig, NumpyBackend, build_params, class_logliks, gammas
from repro.core.zeroer import _transitivity_overrides

ModelKey = tuple[str, int, int]  # ("c"|"l"|"r", id1, id2)


@dataclass(frozen=True)
class Constraint:
    """γ[a] · γ[b] ≤ γ[c] over model-qualified pair keys."""

    a: ModelKey
    b: ModelKey
    c: ModelKey


def _intra_key(model: str, i: int, j: int) -> ModelKey:
    return (model, min(i, j), max(i, j))


def ref_enumerate_constraints(matches: dict[str, pd.DataFrame]) -> list[Constraint]:
    """Q' with pandas groupby/nlargest loops: the reference for
    ``tr.enumerate_constraints``."""
    out: list[Constraint] = []
    cross = matches.get("c")
    if cross is not None and len(cross):
        for side, closing in (("l_id", "r"), ("r_id", "l")):
            other = "r_id" if side == "l_id" else "l_id"
            for _, grp in cross.groupby(side, sort=True):
                if len(grp) < 2:
                    continue
                grp = grp.nlargest(tr._MAX_FANOUT, "gamma").sort_values(other)
                rows = list(grp.itertuples())
                for i in range(len(rows)):
                    for j in range(i + 1, len(rows)):
                        a = ("c", int(rows[i].l_id), int(rows[i].r_id))
                        b = ("c", int(rows[j].l_id), int(rows[j].r_id))
                        c = _intra_key(
                            closing, int(getattr(rows[i], other)), int(getattr(rows[j], other))
                        )
                        out.append(Constraint(a, b, c))
    for m in ("l", "r"):
        intra = matches.get(m)
        if intra is None or not len(intra):
            continue
        edges = [(int(r.l_id), int(r.r_id), float(r.gamma)) for r in intra.itertuples()]
        by_tuple: dict[int, list[tuple[int, float, int, int]]] = {}
        for i, j, g in edges:
            by_tuple.setdefault(i, []).append((j, g, i, j))
            by_tuple.setdefault(j, []).append((i, g, i, j))
        for _, nbrs in sorted(by_tuple.items()):
            if len(nbrs) < 2:
                continue
            nbrs = sorted(nbrs, key=lambda t: -t[1])[: tr._MAX_FANOUT]
            nbrs = sorted(nbrs)
            for x in range(len(nbrs)):
                for y in range(x + 1, len(nbrs)):
                    ja, _, ia1, ja1 = nbrs[x]
                    jb, _, ia2, ja2 = nbrs[y]
                    if ja == jb:
                        continue
                    out.append(
                        Constraint(
                            _intra_key(m, ia1, ja1),
                            _intra_key(m, ia2, ja2),
                            _intra_key(m, ja, jb),
                        )
                    )
    return out


def ref_resolve(
    constraints: list[Constraint],
    values: dict[ModelKey, float],
    logliks: dict[ModelKey, tuple[float, float]],
) -> dict[ModelKey, float]:
    """Greedy Eq. 18 projection over tuple-keyed dicts: the reference for
    ``tr.resolve``. Keys missing from ``values`` are pinned at 0; only keys
    in ``logliks`` may be adjusted."""
    adjusted: dict[ModelKey, float] = {}
    direction: dict[ModelKey, int] = {}

    def cur(k: ModelKey) -> float:
        if k in adjusted:
            return adjusted[k]
        return values.get(k, 0.0)

    for con in constraints:
        ga, gb, gc = cur(con.a), cur(con.b), cur(con.c)
        if ga * gb <= gc + 1e-12:
            continue
        options: list[tuple[float, ModelKey, float, int]] = []
        for key, new, dirn in (
            (con.c, ga * gb, +1),
            (con.a, gc / gb if gb > GAMMA_CLIP else 0.0, -1),
            (con.b, gc / ga if ga > GAMMA_CLIP else 0.0, -1),
        ):
            ll = logliks.get(key)
            if ll is None:
                continue
            prev_dir = direction.get(key)
            if prev_dir is not None and prev_dir != dirn:
                continue
            gain = tr._free_energy_term(new, *ll) - tr._free_energy_term(cur(key), *ll)
            options.append((gain, key, new, dirn))
        if not options:
            continue
        gain, key, new, dirn = max(options, key=lambda t: t[0])
        adjusted[key] = min(max(new, GAMMA_CLIP), 1.0 - GAMMA_CLIP)
        direction[key] = dirn
    return adjusted


def as_ref(q: tr.Constraints) -> list[Constraint]:
    """Decode int-coded constraints into model-qualified keys."""
    def key(m: int, k: int) -> ModelKey:
        return (tr.MODELS[m], k >> 32, k & 0xFFFFFFFF)

    return [
        Constraint(*(key(m, k) for m, k in zip(ms, ks)))
        for ms, ks in zip(q.models.tolist(), q.keys.tolist())
    ]


def resolve_keyed(constraints, values, logliks) -> dict[ModelKey, float]:
    """``tr.resolve`` driven with tuple-keyed inputs: keys with a loglik get
    positions, the rest are pinned (position −1)."""
    table = list(logliks)
    where = {k: p for p, k in enumerate(table)}
    positions = np.array(
        [[where.get(k, -1) for k in (con.a, con.b, con.c)] for con in constraints],
        dtype=np.int64,
    ).reshape(-1, 3)
    adjusted = tr.resolve(
        positions,
        np.array([values.get(k, 0.0) for k in table]),
        np.array([logliks[k][0] for k in table]),
        np.array([logliks[k][1] for k in table]),
    )
    return {table[p]: v for p, v in adjusted.items()}


def mdf(rows):
    return pd.DataFrame(rows, columns=["l_id", "r_id", "gamma", "logm", "logu"])


def match_arrays(matches: dict[str, pd.DataFrame]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Match frames as the (ids, γ) arrays ``tr.enumerate_constraints`` takes."""
    return {
        m: (df[["l_id", "r_id"]].to_numpy(dtype=np.int64), df["gamma"].to_numpy(dtype=np.float64))
        for m, df in matches.items()
    }


def enumerate_keyed(matches) -> list[Constraint]:
    return as_ref(tr.enumerate_constraints(match_arrays(matches)))


def test_enumerate_cross_shared_left():
    matches = {"c": mdf([(1, 10, 0.9, -1, -1), (1, 11, 0.8, -1, -1)])}
    cons = enumerate_keyed(matches)
    assert len(cons) == 1
    c = cons[0]
    assert c.a == ("c", 1, 10) and c.b == ("c", 1, 11)
    assert c.c == ("r", 10, 11)  # closing pair is right-intra


def test_enumerate_cross_shared_right():
    matches = {"c": mdf([(1, 10, 0.9, -1, -1), (2, 10, 0.8, -1, -1)])}
    cons = enumerate_keyed(matches)
    assert len(cons) == 1
    assert cons[0].c == ("l", 1, 2)


def test_enumerate_no_shared_tuple_no_constraints():
    matches = {"c": mdf([(1, 10, 0.9, -1, -1), (2, 11, 0.8, -1, -1)])}
    assert len(tr.enumerate_constraints(match_arrays(matches))) == 0


def test_enumerate_three_way_fanout():
    matches = {"c": mdf([(1, 10, 0.9, -1, -1), (1, 11, 0.8, -1, -1), (1, 12, 0.7, -1, -1)])}
    cons = enumerate_keyed(matches)
    # C(3,2) = 3 closing right pairs
    assert len(cons) == 3
    closings = {c.c for c in cons}
    assert closings == {("r", 10, 11), ("r", 10, 12), ("r", 11, 12)}


def test_enumerate_intra_trio():
    matches = {"l": mdf([(1, 2, 0.9, -1, -1), (1, 3, 0.8, -1, -1)])}
    cons = enumerate_keyed(matches)
    assert len(cons) == 1
    assert cons[0].c == ("l", 2, 3)


def test_enumerate_intra_key_canonical_order():
    matches = {"l": mdf([(2, 5, 0.9, -1, -1), (3, 5, 0.8, -1, -1)])}
    cons = enumerate_keyed(matches)
    assert cons[0].c == ("l", 2, 3)


def test_enumerate_mixed_models():
    matches = {
        "c": mdf([(1, 10, 0.9, -1, -1), (1, 11, 0.8, -1, -1)]),
        "l": mdf([(4, 5, 0.9, -1, -1), (4, 6, 0.7, -1, -1)]),
        "r": mdf([]),
    }
    cons = tr.enumerate_constraints(match_arrays(matches))
    assert len(cons) == 2


def test_enumerate_fanout_cap_drops_lowest_gamma_then_latest_rows():
    """A 70-row cross group keeps 64 rows: C(64, 2) = 2,016 constraints. The
    six dropped rows are the lowest γ, and among the tied γ at the cut the
    latest in match-set row order."""
    rng = np.random.default_rng(0)
    gamma = np.full(70, 0.8)
    gamma[[5, 17]] = 0.55  # the two lowest: dropped
    gamma[rng.choice([i for i in range(70) if i not in (5, 17)], 20, replace=False)] = 0.95
    tied = [i for i in range(70) if gamma[i] == 0.8]
    dropped = {5, 17, *tied[-4:]}  # 4 more from the tie at the cut, latest rows first
    order = rng.permutation(70)  # ids unrelated to row order
    rows = [(3, 100 + int(order[i]), float(gamma[i]), -1, -1) for i in range(70)]
    cons = enumerate_keyed({"c": mdf(rows)})
    assert len(cons) == 2016
    used = {k for con in cons for k in (con.a, con.b)}
    assert len(used) == 64
    dropped_keys = {("c", 3, 100 + int(order[i])) for i in dropped}
    assert len(dropped_keys) == 6 and not (used & dropped_keys)
    assert cons == ref_enumerate_constraints({"c": mdf(rows)})


GAMMAS = st.sampled_from([0.5, 0.6, 0.75, 0.9, 0.99])


@st.composite
def cross_matches(draw):
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30, unique=True))
    if draw(st.booleans()):  # one shared tuple fanning out past the cap, γ tied at the cut
        shared = draw(st.integers(0, 6))
        size = draw(st.integers(tr._MAX_FANOUT + 1, tr._MAX_FANOUT + 8))
        big = [(shared, 10 + k) for k in range(size)]
        if draw(st.booleans()):
            big = [(b, a) for a, b in big]
        pairs = list(dict.fromkeys(pairs + big))
    pairs = draw(st.permutations(pairs))
    return [(a, b, draw(GAMMAS), -1.0, -1.0) for a, b in pairs]


@st.composite
def intra_matches(draw):
    # Repeated and reversed edges make a tuple list one neighbour twice.
    edges = draw(st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30))
    if draw(st.booleans()):
        hub = draw(st.integers(0, 8))
        size = draw(st.integers(tr._MAX_FANOUT + 1, tr._MAX_FANOUT + 8))
        edges += [(hub, 20 + k) for k in range(size)]
    edges = draw(st.permutations(edges))
    return [(a, b, draw(GAMMAS), -1.0, -1.0) for a, b in edges]


@st.composite
def match_sets(draw):
    out = {}
    for m, rows in (("c", cross_matches()), ("l", intra_matches()), ("r", intra_matches())):
        kind = draw(st.sampled_from(["missing", "empty", "rows"]))
        if kind == "empty":
            out[m] = mdf([])
        elif kind == "rows":
            out[m] = mdf(draw(rows))
    return out


@settings(max_examples=150, deadline=None)
@given(matches=match_sets())
def test_enumerate_matches_reference(matches):
    assert enumerate_keyed(matches) == ref_enumerate_constraints(matches)


# ------------------------------------------------------------------ resolve

def _f(v, lm=-1.0, lu=-1.0):
    v = min(max(v, 1e-7), 1 - 1e-7)
    return v * (lm - math.log(v)) + (1 - v) * (lu - math.log(1 - v))


def test_resolve_satisfied_constraint_untouched():
    con = Constraint(("c", 1, 10), ("c", 1, 11), ("r", 10, 11))
    values = {("c", 1, 10): 0.6, ("c", 1, 11): 0.6, ("r", 10, 11): 0.5}
    logliks = {k: (-1.0, -1.0) for k in values}
    assert resolve_keyed([con], values, logliks) == {}


def test_resolve_violated_projects_onto_boundary():
    con = Constraint(("c", 1, 10), ("c", 1, 11), ("r", 10, 11))
    values = {("c", 1, 10): 0.9, ("c", 1, 11): 0.9, ("r", 10, 11): 0.1}
    logliks = {k: (-1.0, -1.0) for k in values}
    adj = resolve_keyed([con], values, logliks)
    assert len(adj) == 1
    # After the projection the constraint holds.
    get = lambda k: adj.get(k, values[k])
    assert get(("c", 1, 10)) * get(("c", 1, 11)) <= get(("r", 10, 11)) + 1e-9


def test_resolve_missing_closing_pair_lowers_a_cross_pair():
    """Blocked-out closing pair: pinned γ=0, so one cross pair must drop
    (the fd1/fd3 false-positive repair of Example 1.3)."""
    con = Constraint(("c", 1, 10), ("c", 1, 11), ("r", 10, 11))
    values = {("c", 1, 10): 0.99, ("c", 1, 11): 0.6}  # closing pair absent
    logliks = {("c", 1, 10): (-1.0, -5.0), ("c", 1, 11): (-3.0, -1.1)}
    adj = resolve_keyed([con], values, logliks)
    assert len(adj) == 1
    key, v = next(iter(adj.items()))
    assert key[0] == "c"
    assert v < 0.5  # dropped below the match threshold (γc = 0)


def test_resolve_picks_max_free_energy_axis():
    """The pair whose move costs least free energy is adjusted: here B is
    nearly unmatch-preferring (logu >> logm), so B is lowered, A kept."""
    con = Constraint(("c", 1, 10), ("c", 1, 11), ("r", 10, 11))
    values = {("c", 1, 10): 0.9, ("c", 1, 11): 0.9}
    logliks = {
        ("c", 1, 10): (10.0, -10.0),  # strongly match-preferring
        ("c", 1, 11): (-2.0, -2.1),  # nearly indifferent
    }
    adj = resolve_keyed([con], values, logliks)
    assert list(adj) == [("c", 1, 11)]


def test_resolve_direction_conflict_skips():
    """A key already raised must not be lowered by a later constraint."""
    c1 = Constraint(("c", 1, 10), ("c", 1, 11), ("r", 10, 11))
    c2 = Constraint(("r", 10, 11), ("c", 2, 12), ("l", 1, 2))
    values = {
        ("c", 1, 10): 0.95, ("c", 1, 11): 0.95, ("r", 10, 11): 0.5,
        ("c", 2, 12): 0.95, ("l", 1, 2): 0.1,
    }
    # Make raising the closing pair overwhelmingly attractive for c1 …
    logliks = {
        ("c", 1, 10): (50.0, -50.0), ("c", 1, 11): (50.0, -50.0),
        ("r", 10, 11): (50.0, -50.0),
        ("c", 2, 12): (50.0, -50.0), ("l", 1, 2): (-50.0, 50.0),
    }
    adj = resolve_keyed([c1, c2], values, logliks)
    # c1 raised ("r",10,11); c2 requires lowering it or others — must never
    # move ("r",10,11) back down.
    assert adj[("r", 10, 11)] >= values[("r", 10, 11)]


def test_resolve_further_move_same_direction_allowed():
    """Two constraints pushing the same key the same way compose."""
    c1 = Constraint(("c", 1, 10), ("c", 1, 11), ("r", 10, 11))
    c2 = Constraint(("c", 2, 10), ("c", 2, 11), ("r", 10, 11))
    values = {
        ("c", 1, 10): 0.8, ("c", 1, 11): 0.8,
        ("c", 2, 10): 0.95, ("c", 2, 11): 0.95,
        ("r", 10, 11): 0.1,
    }
    logliks = {k: (20.0, -20.0) for k in values}  # everything prefers M: raise c
    adj = resolve_keyed([c1, c2], values, logliks)
    assert adj[("r", 10, 11)] == pytest.approx(0.95 * 0.95, abs=1e-6)


def test_projection_equation_18_values():
    """The three axis projections of Eq. 18 land exactly on the boundary."""
    ga, gb, gc = 0.9, 0.8, 0.5
    assert gc / gb * gb * ga / ga == pytest.approx(gc)
    # lower A: γa' = γc/γb ⇒ γa'·γb = γc
    assert (gc / gb) * gb == pytest.approx(gc)
    # raise C: γc' = γa·γb ⇒ boundary
    assert ga * gb == pytest.approx(ga * gb)


@st.composite
def resolve_instances(draw):
    """Constraints over a few pairs, so pairs recur across constraints and
    get moved repeatedly, in the same and in opposite directions. Some pairs
    have no loglik: pinned at 0, like blocked-out closing pairs. Values and
    logliks are often drawn from a few fixed ones, so two axes can tie on
    gain."""
    n_keys = draw(st.integers(3, 12))
    keys = [("c", k, k + 100) for k in range(n_keys)]
    value = st.sampled_from([0.3, 0.6, 0.9]) | st.floats(1e-7, 1 - 1e-7)
    loglik = st.sampled_from([(-1.0, -1.0), (5.0, -5.0)]) | st.tuples(st.floats(-60, 60), st.floats(-60, 60))
    values, logliks = {}, {}
    for k in keys:
        if draw(st.integers(0, 4)) == 0:
            continue  # pinned
        values[k] = draw(value)
        logliks[k] = draw(loglik)
    idx = st.integers(0, n_keys - 1)
    cons = draw(st.lists(st.tuples(idx, idx, idx), min_size=1, max_size=60))
    return [Constraint(keys[a], keys[b], keys[c]) for a, b, c in cons], values, logliks


@settings(max_examples=300, deadline=None)
@given(instance=resolve_instances())
def test_resolve_matches_reference(instance):
    constraints, values, logliks = instance
    got = resolve_keyed(constraints, values, logliks)
    want = ref_resolve(constraints, values, logliks)
    assert list(got.items()) == list(want.items())  # bit-identical, same order


A, B, C, D = ("c", 1, 101), ("c", 2, 102), ("r", 101, 102), ("l", 1, 2)
E, F = ("c", 3, 101), ("c", 3, 102)


@pytest.mark.parametrize(
    "constraints, values, logliks",
    [
        # Lowering A and lowering B tie on gain: the first axis (A) wins.
        ([Constraint(A, B, C)], {A: 0.9, B: 0.9, C: 0.3}, {k: (-1.0, -1.0) for k in (A, B, C)}),
        # C is raised, raised again by a second constraint, and then not
        # lowered by a third (the conflict rule), which lowers A instead.
        (
            [Constraint(A, B, C), Constraint(E, F, C), Constraint(C, A, D)],
            {A: 0.9, B: 0.9, C: 0.2, E: 0.95, F: 0.95},
            {A: (40.0, -40.0), B: (40.0, -40.0), C: (-1.0, -1.0), E: (40.0, -40.0), F: (40.0, -40.0)},
        ),
        # C is blocked out (no loglik, pinned at 0): only A or B can move.
        ([Constraint(A, B, C), Constraint(B, A, C)], {A: 0.7, B: 0.8}, {A: (2.0, -1.0), B: (0.5, 0.0)}),
    ],
    ids=["gain tie", "conflict and repeat", "pinned closing pair"],
)
def test_resolve_matches_reference_on_fixed_instances(constraints, values, logliks):
    got = resolve_keyed(constraints, values, logliks)
    assert got and list(got.items()) == list(ref_resolve(constraints, values, logliks).items())


# ------------------------------------------------- resolve inside the EM loop

def ref_overrides(backends, params, matches):
    """One transitivity step the way the EM loop did it with tuple-keyed
    dicts: the reference for ``zeroer._transitivity_overrides``."""
    constraints = ref_enumerate_constraints(matches)
    values, logliks = {}, {}
    for m, mdf_ in matches.items():
        for r in mdf_.itertuples():
            k = (m, int(r.l_id), int(r.r_id))
            values[k] = float(r.gamma)
            logliks[k] = (float(r.logm), float(r.logu))
    for m, be in backends.items():
        keys = {con.c[1:] for con in constraints if con.c[0] == m and con.c not in values}
        logm, logu = class_logliks(be.X, params[m])
        g = gammas(logm, logu)
        index = {(int(a), int(b)): i for i, (a, b) in enumerate(be.ids)}
        for k in keys:
            if k in index:
                i = index[k]
                values[(m, *k)] = float(g[i])
                logliks[(m, *k)] = (float(logm[i]), float(logu[i]))
    out: dict[str, dict] = {m: {} for m in backends}
    for (m, i, j), v in ref_resolve(constraints, values, logliks).items():
        out[m][(i, j)] = v
    return out


def own_matches(be: NumpyBackend, params) -> pd.DataFrame:
    """The backend's γ ≥ 0.5 rows with their γ and class log-likelihoods:
    the match set the EM loop enumerates Q' from."""
    logm, logu = class_logliks(be.X, params)
    g = gammas(logm, logu)
    keep = g >= 0.5
    return pd.DataFrame({
        "l_id": be.ids[keep, 0], "r_id": be.ids[keep, 1],
        "gamma": g[keep], "logm": logm[keep], "logu": logu[keep],
    })


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("present", ["clr", "cl", "c"])
def test_resolve_step_matches_reference(seed, present):
    """Overrides from the row-indexed step equal the dict-keyed reference,
    compared as (l_id, r_id) → γ' per model. The match sets are each
    backend's own γ ≥ 0.5 rows. Closing pairs missing from the other models'
    candidates stay pinned at 0."""
    rng = np.random.default_rng(seed)
    backends, params, matches = {}, {}, {}
    groups = np.array([0, 0, 1])
    for m in present:
        n_ids = 12
        if m == "c":
            cand = [(a, b) for a in range(n_ids) for b in range(n_ids)]
        else:
            cand = [(a, b) for a in range(n_ids) for b in range(a + 1, n_ids)]
        cand = [cand[i] for i in rng.choice(len(cand), len(cand) * 2 // 3, replace=False)]
        be = NumpyBackend(np.array(cand), rng.random((len(cand), 3)))
        backends[m] = be
        params[m] = build_params(be.init_stats(0.5), np.eye(3), groups, EMConfig())
        matches[m] = be.match_candidates(params[m])
    constraints = tr.enumerate_constraints(matches)
    assert len(constraints)
    got = _transitivity_overrides(backends, params, constraints)
    want = ref_overrides(backends, params, {m: own_matches(be, params[m]) for m, be in backends.items()})
    assert sum(map(len, want.values()))
    for m, be in backends.items():
        rows, vals = got[m]
        as_dict = {tuple(be.ids[r].tolist()): v for r, v in zip(rows.tolist(), vals.tolist())}
        assert len(as_dict) == len(rows) and as_dict == want[m]
