"""Bipolar preference vectors, bicapacities and the bipolar Choquet integral.

The bipolar extension scores an ordered pair of alternatives through a
signed per-criterion preference vector x, with x_j > 0 when the criterion
supports the first alternative and x_j < 0 when it opposes it. Aggregation
uses a bicapacity split into a positive and a negative part. The engine
works with the two-additive parameterisation: per-criterion powers ``a_j``,
symmetric pair interactions ``a_jk`` and nonpositive opposing powers
``a+_{j|k}`` (the power criterion k has to weaken j when they disagree).
The mirrored negative-part parameters are never stored; they are read
through the symmetry a-_j = a_j, a-_jk = a_jk, a-_{j|k} = a+_{k|j}.

For a fixed signed vector both parts of the integral are linear in the
packed parameters. ``choquet_coefficients`` gives those linear rows and
``flow_coefficients`` their per-alternative averages; the closed form
``bipolar_choquet_2additive`` and ``bipolar_flows`` are these rows times
the packed parameters, the same operator the sampling pipeline runs.

General (not necessarily two-additive) bicapacities are supported only as
lookup tables so the sorted level-set form of the integral can be checked
against the closed form; the sampling pipeline never touches them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import PerformanceTable
from .promethee import Flows, preference_tensor

__all__ = [
    "ENUMERATION_CAP",
    "EnumerationCapError",
    "ChoquetTriple",
    "ParameterLayout",
    "BicapacityParams",
    "GeneralBicapacity",
    "bipolar_preference_tensor",
    "bipolar_choquet_general",
    "bipolar_choquet_2additive",
    "choquet_coefficients",
    "flow_coefficients",
    "bipolar_flows",
]

# Compilation writes one monotonicity row per covering split, 2^(n-1) per
# criterion, and ``GeneralBicapacity`` tabulates all 3^n disjoint subset
# pairs, so the criterion count of both is capped; no argument raises it.
# (``BicapacityParams.validate`` checks monotonicity in closed form and
# needs no cap.) At the cap, n = 8 compiles to 1,089 rows plus one per
# statement, over 92 parameters, and the margin LPs, the polytope's
# analytic centre and sampling all run end to end.
ENUMERATION_CAP = 8


class EnumerationCapError(ValueError):
    """Raised when a problem exceeds the subset-enumeration cap: it has
    ``criteria`` criteria, more than ``cap``."""

    def __init__(self, criteria: int, cap: int):
        self.criteria = criteria
        self.cap = cap
        super().__init__(f"{criteria} criteria exceed the enumeration cap of {cap}")


class ChoquetTriple(NamedTuple):
    """Positive part, negative part and their difference."""

    positive: float
    negative: float
    net: float


def _check_cap(n: int) -> None:
    if n > ENUMERATION_CAP:
        raise EnumerationCapError(n, ENUMERATION_CAP)


def _side_pairs(items: tuple[int, ...], sides: tuple[int, ...]):
    """Yield every (C, D) of disjoint subsets of ``items`` that puts each
    item on one of ``sides``: 0 in neither, 1 in C, 2 in D.

    Sides (0, 1, 2) give all 3^len(items) disjoint pairs. Sides (1, 2)
    give the splits, C | D = items, which are the pairs that can bind in
    the monotonicity of a two-additive bicapacity: with every opposing
    power nonpositive, the row for a pair that leaves k out of both C and
    D is implied by the row that puts k in D. Either way the order is
    that of the product over ``sides``, so the splits come in the order of
    the disjoint pairs restricted to them.
    """
    for assignment in itertools.product(sides, repeat=len(items)):
        c = tuple(i for i, s in zip(items, assignment) if s == 1)
        d = tuple(i for i, s in zip(items, assignment) if s == 2)
        yield c, d


@dataclass(frozen=True)
class ParameterLayout:
    """Column order of the packed two-additive parameter vector.

    Columns are the per-criterion powers, then pair interactions in
    lexicographic (j, k) order with j < k, then opposing powers over all
    ordered pairs j != k in lexicographic order. Indices here are 0-based;
    rendered names use 1-based criteria to match the file formats.
    """

    n: int
    pair_keys: tuple[tuple[int, int], ...] = field(init=False)
    opp_keys: tuple[tuple[int, int], ...] = field(init=False)
    names: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one criterion")
        pairs = tuple(
            (j, k) for j in range(self.n) for k in range(j + 1, self.n)
        )
        opps = tuple(
            (j, k) for j in range(self.n) for k in range(self.n) if j != k
        )
        names = tuple(
            [f"a_{j + 1}" for j in range(self.n)]
            + [f"pair_{j + 1},{k + 1}" for j, k in pairs]
            + [f"opp_{j + 1}|{k + 1}" for j, k in opps]
        )
        object.__setattr__(self, "pair_keys", pairs)
        object.__setattr__(self, "opp_keys", opps)
        object.__setattr__(self, "names", names)

    @property
    def size(self) -> int:
        return (3 * self.n * self.n - self.n) // 2

    def a_col(self, j: int) -> int:
        return j

    def pair_col(self, j: int, k: int) -> int:
        if j > k:
            j, k = k, j
        return self.n + self.pair_keys.index((j, k))

    def opp_col(self, j: int, k: int) -> int:
        return self.n + len(self.pair_keys) + self.opp_keys.index((j, k))

    def pack(self, params: "BicapacityParams") -> np.ndarray:
        if params.n != self.n:
            raise ValueError("layout and parameters disagree on n")
        vec = np.empty(self.size)
        vec[: self.n] = params.a
        vec[self.n : self.n + len(self.pair_keys)] = [
            params.pair[j, k] for j, k in self.pair_keys
        ]
        vec[self.n + len(self.pair_keys) :] = [
            params.opp[j, k] for j, k in self.opp_keys
        ]
        return vec

    def unpack(self, vec: np.ndarray) -> "BicapacityParams":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.size,):
            raise ValueError(f"expected vector of length {self.size}, got {vec.shape}")
        n = self.n
        pair = np.zeros((n, n))
        for idx, (j, k) in enumerate(self.pair_keys):
            pair[j, k] = pair[k, j] = vec[n + idx]
        opp = np.zeros((n, n))
        base = n + len(self.pair_keys)
        for idx, (j, k) in enumerate(self.opp_keys):
            opp[j, k] = vec[base + idx]
        return BicapacityParams(a=vec[:n].copy(), pair=pair, opp=opp)


@dataclass(frozen=True)
class BicapacityParams:
    """Two-additive bicapacity parameters.

    ``a`` holds the per-criterion powers, ``pair`` the symmetric
    interaction matrix (zero diagonal) and ``opp`` the opposing powers,
    with ``opp[j, k]`` the nonpositive amount criterion k subtracts from a
    supporting criterion j.
    """

    a: np.ndarray
    pair: np.ndarray
    opp: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=float)
        pair = np.asarray(self.pair, dtype=float)
        opp = np.asarray(self.opp, dtype=float)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "opp", opp)
        n = a.shape[0]
        if a.shape != (n,) or pair.shape != (n, n) or opp.shape != (n, n):
            raise ValueError("parameter arrays must be (n,), (n, n), (n, n)")

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def validate(self, tol: float = 1e-9) -> None:
        """Raise ValueError unless the parameters describe a bicapacity.

        Checks: symmetry and zero diagonals, nonnegative powers,
        nonpositive opposing powers, the boundary normalisation
        sum(a) + sum(pair) = 1, and monotonicity over all disjoint subset
        pairs. That is a_j + sum(pair[j, C]) + sum(opp[j, D]) >= 0 for
        every criterion j and every disjoint (C, D) of the others; each
        other criterion k adds pair[j, k] in C, opp[j, k] in D or nothing,
        independently, so the minimum over all 3^(n-1) pairs is
        a_j + sum_k min(0, pair[j, k], opp[j, k]), checked for every j at
        once. The error names the first criterion below ``-tol`` and a
        split that attains its minimum.
        """
        n = self.n
        if not np.allclose(self.pair, self.pair.T, atol=tol, rtol=0.0):
            raise ValueError("pair interactions must be symmetric")
        if np.any(np.abs(np.diagonal(self.pair)) > tol) or np.any(
            np.abs(np.diagonal(self.opp)) > tol
        ):
            raise ValueError("diagonals must be zero")
        if np.any(self.a < -tol):
            raise ValueError("per-criterion powers must be nonnegative")
        if np.any(self.opp > tol):
            raise ValueError("opposing powers must be nonpositive")
        total = self.a.sum() + np.triu(self.pair, 1).sum()
        if abs(total - 1.0) > tol:
            raise ValueError(f"powers and interactions must sum to 1, got {total!r}")
        # per (j, k): nothing, k in C or k in D; the first side on a tie
        sides = np.stack([np.zeros((n, n)), self.pair, self.opp])
        sides[:, np.arange(n), np.arange(n)] = 0.0
        side = sides.argmin(axis=0)
        lowest = self.a + sides.min(axis=0).sum(axis=1)
        below = np.flatnonzero(lowest < -tol)
        if below.size:
            j = int(below[0])
            c, d = (tuple(int(k) + 1 for k in np.flatnonzero(side[j] == s))
                    for s in (1, 2))
            raise ValueError(f"monotonicity violated at criterion {j + 1}, "
                             f"with={c} against={d}")

    # The negative-part parameters mirror the stored ones, so both halves
    # of the bicapacity are evaluated from the same arrays.
    def mu_plus(self, c: frozenset[int] | tuple[int, ...], d) -> float:
        c, d = tuple(c), tuple(d)
        val = float(self.a[list(c)].sum()) if c else 0.0
        for j, k in itertools.combinations(c, 2):
            val += self.pair[j, k]
        for j in c:
            for k in d:
                val += self.opp[j, k]
        return val

    def mu_minus(self, c, d) -> float:
        c, d = tuple(c), tuple(d)
        val = float(self.a[list(d)].sum()) if d else 0.0
        for j, k in itertools.combinations(d, 2):
            val += self.pair[j, k]
        for j in c:
            for k in d:
                # a-_{j|k} is read through the symmetry as a+_{k|j}
                val += self.opp[k, j]
        return val


@dataclass(frozen=True)
class GeneralBicapacity:
    """Positive/negative part pair tabulated over all disjoint subset pairs.

    Used to evaluate the integral straight from its definition; keys are
    (frozenset, frozenset) of 0-based criterion indices.
    """

    n: int
    plus: dict
    minus: dict

    def mu_plus(self, c, d) -> float:
        return self.plus[(frozenset(c), frozenset(d))]

    def mu_minus(self, c, d) -> float:
        return self.minus[(frozenset(c), frozenset(d))]

    @classmethod
    def from_params(cls, params: BicapacityParams) -> "GeneralBicapacity":
        """Tabulate both parts of a two-additive bicapacity."""
        n = params.n
        _check_cap(n)
        plus: dict = {}
        minus: dict = {}
        for c, d in _side_pairs(tuple(range(n)), (0, 1, 2)):
            key = (frozenset(c), frozenset(d))
            plus[key] = params.mu_plus(c, d)
            minus[key] = params.mu_minus(c, d)
        return cls(n=n, plus=plus, minus=minus)

    def validate(self, tol: float = 1e-9) -> None:
        """Check boundary values and both monotonicity directions."""
        full = frozenset(range(self.n))
        empty = frozenset()
        if abs(self.plus[(full, empty)] - 1.0) > tol:
            raise ValueError("positive part must be 1 on (J, {})")
        if abs(self.minus[(empty, full)] - 1.0) > tol:
            raise ValueError("negative part must be 1 on ({}, J)")
        for c, d in _side_pairs(tuple(range(self.n)), (0, 1, 2)):
            key = (frozenset(c), frozenset(d))
            if key not in self.plus or key not in self.minus:
                raise ValueError(f"missing table entry for {key}")
            if not c and abs(self.plus[key]) > tol:
                raise ValueError("positive part must vanish on ({}, D)")
            if not d and abs(self.minus[key]) > tol:
                raise ValueError("negative part must vanish on (C, {})")
            rest = [j for j in range(self.n) if j not in c and j not in d]
            for j in rest:
                cj = (frozenset(c) | {j}, frozenset(d))
                dj = (frozenset(c), frozenset(d) | {j})
                if self.plus[cj] < self.plus[key] - tol:
                    raise ValueError("positive part must grow with the support side")
                if self.plus[dj] > self.plus[key] + tol:
                    raise ValueError("positive part must shrink with the opposing side")
                if self.minus[dj] < self.minus[key] - tol:
                    raise ValueError("negative part must grow with the opposing side")
                if self.minus[cj] > self.minus[key] + tol:
                    raise ValueError("negative part must shrink with the support side")


def bipolar_preference_tensor(table: PerformanceTable) -> np.ndarray:
    """Signed preference vectors for all ordered pairs, (m, m, n)."""
    degrees = preference_tensor(table)
    return np.where(degrees > 0.0, degrees, -degrees.transpose(1, 0, 2))


def bipolar_choquet_general(x, bicap: GeneralBicapacity) -> ChoquetTriple:
    """Integral of a signed vector against a tabulated bicapacity.

    Walks criteria sorted by increasing magnitude; each magnitude is paired
    with the two level sets at that threshold (supporters and opponents at
    least that strong) and weighted by how much the bicapacity drops when
    the threshold moves past it. Past the largest magnitude both level sets
    are empty. Criteria at zero contribute nothing.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n != bicap.n:
        raise ValueError("vector length and bicapacity size disagree")
    mags = np.abs(x)
    order = np.argsort(mags, kind="stable")

    def level_sets(threshold: float) -> tuple[frozenset, frozenset]:
        sup = frozenset(np.flatnonzero(x >= threshold).tolist())
        opp = frozenset(np.flatnonzero(-x >= threshold).tolist())
        return sup, opp

    pos = 0.0
    neg = 0.0
    for t, idx in enumerate(order):
        v = mags[idx]
        if v <= 0.0:
            continue
        here = level_sets(v)
        if t + 1 < n:
            nxt = level_sets(mags[order[t + 1]])
        else:
            nxt = (frozenset(), frozenset())
        pos += v * (bicap.mu_plus(*here) - bicap.mu_plus(*nxt))
        neg += v * (bicap.mu_minus(*here) - bicap.mu_minus(*nxt))
    return ChoquetTriple(positive=pos, negative=neg, net=pos - neg)


def bipolar_choquet_2additive(x, params: BicapacityParams) -> ChoquetTriple:
    """Closed form of the integral for two-additive bicapacities.

    Supporting criteria contribute their power times their degree, pairs of
    supporters the interaction times the weaker degree, and each
    supporter/opponent pair the opposing power times the weaker magnitude.
    The negative part mirrors this on the opponents. Evaluated as the
    ``choquet_coefficients`` rows of ``x`` times the packed parameters.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (params.n,):
        raise ValueError(f"expected vector of length {params.n}, got {x.shape}")
    layout = ParameterLayout(params.n)
    cp, cn = choquet_coefficients(x, layout)
    theta = layout.pack(params)
    pos, neg = float(cp @ theta), float(cn @ theta)
    return ChoquetTriple(positive=pos, negative=neg, net=pos - neg)


def choquet_coefficients(x, layout: ParameterLayout) -> tuple[np.ndarray, np.ndarray]:
    """Linear coefficients of the integral's two parts in the packed vector.

    For a fixed signed vector both parts are linear in the parameters;
    this returns rows ``cp`` and ``cn`` with positive part = cp . theta and
    negative part = cn . theta for any packed parameter vector theta.
    Leading axes broadcast: an (..., n) input gives (..., size) rows.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (layout.n,):
        raise ValueError(f"expected vectors of length {layout.n}, got {x.shape}")
    sup = np.where(x > 0.0, x, 0.0)
    opp = np.where(x < 0.0, -x, 0.0)
    pj, pk = np.array(layout.pair_keys, dtype=int).reshape(-1, 2).T
    oj, ok = np.array(layout.opp_keys, dtype=int).reshape(-1, 2).T
    cp = np.concatenate(
        [sup, np.minimum(sup[..., pj], sup[..., pk]),
         np.minimum(sup[..., oj], opp[..., ok])], axis=-1)
    # a+_{j|k} doubles as a-_{k|j} inside the negative part
    cn = np.concatenate(
        [opp, np.minimum(opp[..., pj], opp[..., pk]),
         np.minimum(opp[..., oj], sup[..., ok])], axis=-1)
    return cp, cn


def flow_coefficients(
    table: PerformanceTable, layout: ParameterLayout
) -> tuple[np.ndarray, np.ndarray]:
    """Flow coefficient rows of every alternative.

    Returns (Fp, Fn), each of shape (m, layout.size): the positive and
    negative flows of alternative a are Fp[a] . theta and Fn[a] . theta
    for any packed parameter vector theta.
    """
    m = table.n_alternatives
    cp, cn = choquet_coefficients(bipolar_preference_tensor(table), layout)
    return cp.sum(axis=1) / (m - 1), cn.sum(axis=1) / (m - 1)


def bipolar_flows(table: PerformanceTable, params: BicapacityParams) -> Flows:
    """Bipolar flows: per-alternative averages of the integral's parts,
    the ``flow_coefficients`` rows times the packed parameters."""
    layout = ParameterLayout(params.n)
    flow_pos, flow_neg = flow_coefficients(table, layout)
    theta = layout.pack(params)
    pos, neg = flow_pos @ theta, flow_neg @ theta
    return Flows(positive=pos, negative=neg, net=pos - neg)
