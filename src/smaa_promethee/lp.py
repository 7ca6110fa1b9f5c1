"""Linear programs over constraint systems: one dense two-phase simplex.

``maximise`` is the only solver. All variables are free (interactions may
be negative, and the strict-preference margin eps must be allowed below
zero so an incompatible system reports how incompatible it is), so every
variable is split into a nonnegative difference. Phase 1 runs once; phase
2 then maximises each row of the objective matrix in turn, each starting
from the previous optimal basis, which stays primal feasible because only
the objective changes. Pivoting uses the largest-coefficient rule and
falls back to Bland's rule after an iteration budget to rule out cycling.
A phase 1 that ends below zero, or an optimum that breaks one of the
original rows, raises instead of being returned.

The tableau is mostly zeros: a pivot row of the n = 6 bipolar margin LP
has a median of 6 nonzeros among 339 columns. A pivot therefore
divides and updates only the columns where its row is nonzero; every
other column keeps its bits. Before the tableau is built, a variable
pinned by an equality row with one entry (``restrict_classical`` writes
one per interaction and opposing power) is substituted out; without
that, phase 1 spends most of its pivots driving those rows'
artificials out. The pinned values go back into every point, and the
row check runs against the original rows.

``maximise_over`` is the one door from a ``ConstraintSystem`` to
``maximise``: it boxes the margin, below ``EPS_CAP`` so it is never
unbounded and above a floor when given. The cap lies above every margin
a statement can reach, so it never understates one. ``max_epsilon`` and
the exact outranking programs (``smaa.exact_ror_matrices``) both go
through it, and both need vertices: binding rows and sign verdicts at 0.
``max_epsilon`` names its binding rows by ``ConstraintSystem.excess`` at
the margin it found: the tight inequality rows at an optimum, every
broken row at a least-infeasible point. The sampler's start point needs
no vertex and is found by a barrier method in ``sampler``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .elicitation import ConstraintSystem

__all__ = [
    "EPS_CAP",
    "FEASIBILITY_TOL",
    "ROR_EPS_MIN",
    "LpOutcome",
    "LpSolution",
    "maximise",
    "maximise_over",
    "max_epsilon",
]

# Upper box bound on the strict-preference margin. It binds on no
# statement: over a normalised monotone 2-additive bicapacity a net-flow
# gap, an intensity or an interaction-magnitude gap is at most 2, and every
# other strict expression at most 1. A system with no strict row reports it.
EPS_CAP = 2.0
# Residual tolerance deciding feasibility.
FEASIBILITY_TOL = 1e-8
# Margin required of a compatible parameter set in exact outranking checks.
ROR_EPS_MIN = 1e-6

_PIVOT_TOL = 1e-10
# largest-coefficient pivots before Bland's rule takes over, and the cap
# on pivots per phase
_BLAND_AFTER = 5000
_MAX_PIVOTS = 200000


@dataclass(frozen=True)
class LpOutcome:
    """Result of a margin maximisation.

    ``status`` is "optimal" or "infeasible". For optimal outcomes
    ``eps_star`` holds the best margin and ``solution`` a full variable
    vector attaining it (params then eps). ``binding`` lists origins of
    rows that limit the solution: tight inequalities at the optimum, or
    violated rows at the least-infeasible point when infeasible.
    """

    status: str
    eps_star: float | None
    solution: np.ndarray | None
    binding: tuple[str, ...] = ()

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


class LpSolution(NamedTuple):
    """Result of ``maximise``.

    When ``status`` is "optimal", row i of ``points`` attains the maximum
    of objective row i and ``values[i]`` is that maximum. When it is
    "infeasible", ``points`` holds one row, the least-infeasible point
    phase 1 reached, and ``values`` is empty.
    """

    status: str
    points: np.ndarray
    values: np.ndarray

    @property
    def feasible(self) -> bool:
        return self.status == "optimal"


def _pivot(T: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    # only the columns where the pivot row is nonzero change: every other
    # column would divide a zero and subtract zeros
    cols = T[row].nonzero()[0]
    pivot_row = T[row, cols] / T[row, col]
    # eliminate col from every other row in one rank-1 update, made on the
    # columns as rows of T.T, so the outer product runs along the long
    # axis; the pivot row itself takes the divided values
    f = T[:, col].copy()
    f[row] = 0.0
    block = T.T[cols]
    block -= np.multiply.outer(pivot_row, f)
    block[:, row] = pivot_row
    T.T[cols] = block
    basis[row] = col


def _price_out(T: np.ndarray, basis: np.ndarray) -> None:
    obj = T[-1]
    for r, col in enumerate(basis):
        if obj[col] != 0.0:
            obj -= obj[col] * T[r]


def _run_phase(T: np.ndarray, basis: np.ndarray, n_enter: int) -> str:
    """Pivot the tableau to optimality. Objective row is last, rhs last col;
    only the first ``n_enter`` columns may enter the basis."""
    n_rows = T.shape[0] - 1
    obj = T[-1, :n_enter]
    if obj.size == 0:
        return "optimal"  # no column can enter: every variable was pinned
    for it in range(_MAX_PIVOTS):
        if it < _BLAND_AFTER:
            col = obj.argmin()
            if not obj[col] < -_PIVOT_TOL:
                return "optimal"
        else:
            candidates = np.flatnonzero(obj < -_PIVOT_TOL)
            if candidates.size == 0:
                return "optimal"
            col = candidates[0]  # Bland: smallest index, no cycling
        column = T[:n_rows, col]
        pos = (column > _PIVOT_TOL).nonzero()[0]
        if pos.size == 0:
            return "unbounded"
        ratios = T[pos, -1] / column[pos]
        # smallest basis index among ties keeps Bland's guarantee
        tied = pos[ratios <= ratios.min() + 1e-12]
        row = tied[basis[tied].argmin()]
        _pivot(T, basis, row, col)
    raise RuntimeError("simplex did not terminate within the iteration budget")


def maximise(
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    objectives: np.ndarray,
) -> LpSolution:
    """Maximise each row c of ``objectives`` as c.x over free x with
    A_eq x = b_eq and A_ub x <= b_ub.

    A variable pinned by an equality row with a single entry above the
    pivot tolerance is substituted out before the simplex runs, and a
    second pin on the same variable stays in as a constant row, so
    conflicting pins still come out "infeasible".

    Raises ``RuntimeError`` when an objective is unbounded, when phase 1
    ends with a negative sum of artificials, or when an optimum breaks an
    original row by more than ``FEASIBILITY_TOL``: all three mean the
    tableau cannot be trusted.
    """
    objectives = np.atleast_2d(objectives)
    pin_rows = np.flatnonzero(np.count_nonzero(np.abs(A_eq) > _PIVOT_TOL, axis=1) == 1)
    pin_cols = np.argmax(np.abs(A_eq[pin_rows]), axis=1)
    # the first pin of each variable substitutes it out
    pin_cols, first = np.unique(pin_cols, return_index=True)
    pin_rows = pin_rows[first]
    fixed = np.zeros(objectives.shape[1])
    fixed[pin_cols] = b_eq[pin_rows] / A_eq[pin_rows, pin_cols]
    free = np.ones(objectives.shape[1], dtype=bool)
    free[pin_cols] = False
    eq_kept = np.ones(b_eq.shape[0], dtype=bool)
    eq_kept[pin_rows] = False

    status, free_points = _simplex(
        A_eq[eq_kept][:, free], b_eq[eq_kept] - A_eq[eq_kept] @ fixed,
        A_ub[:, free], b_ub - A_ub @ fixed, objectives[:, free],
    )
    points = np.tile(fixed, (free_points.shape[0], 1))
    points[:, free] = free_points
    if status == "infeasible":
        return LpSolution("infeasible", points, np.zeros(0))
    worst = max(np.abs(points @ A_eq.T - b_eq).max(initial=0.0),
                (points @ A_ub.T - b_ub).max(initial=0.0))
    if worst > FEASIBILITY_TOL:
        raise RuntimeError(f"optimal point breaks a constraint row by {worst:.3g}")
    return LpSolution("optimal", points, np.einsum("ij,ij->i", objectives, points))


def _simplex(
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    objectives: np.ndarray,
) -> tuple[str, np.ndarray]:
    """The two-phase tableau behind ``maximise``: its status and points,
    one per objective when optimal, the least-infeasible one otherwise."""
    n_vars = objectives.shape[1]
    A = np.vstack([A_eq, A_ub])
    rhs = np.concatenate([b_eq, b_ub])
    n_eq, n_rows = A_eq.shape[0], A.shape[0]
    n_split = 2 * n_vars
    n_struct = n_split + n_rows - n_eq
    # rows with a negative rhs are negated so the starting basis is
    # feasible; an inequality row whose slack keeps coefficient +1 starts
    # with that slack basic, every other row gets an artificial
    neg = np.flatnonzero(rhs < 0.0)
    slack_basic = np.arange(n_rows) >= n_eq
    slack_basic[neg] = False
    art_rows = np.flatnonzero(~slack_basic)
    basis = np.empty(n_rows, dtype=int)
    basis[slack_basic] = n_split + np.flatnonzero(slack_basic) - n_eq
    basis[art_rows] = n_struct + np.arange(art_rows.size)

    # split free variables, add slacks on inequality rows, then artificials
    T = np.zeros((n_rows + 1, n_struct + art_rows.size + 1))
    T[:n_rows, 0:n_split:2] = A
    T[:n_rows, 1:n_split:2] = -A
    T[n_eq:n_rows, n_split:n_struct] = np.eye(n_rows - n_eq)
    T[:n_rows, -1] = rhs
    T[neg, :n_struct] *= -1.0
    T[neg, -1] *= -1.0
    T[art_rows, basis[art_rows]] = 1.0

    n_enter = T.shape[1] - 1
    if art_rows.size:
        # phase 1: drive the artificials to zero
        T[-1, n_struct:-1] = 1.0
        _price_out(T, basis)
        if _run_phase(T, basis, n_enter) != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        infeasibility = -T[-1, -1]
        if infeasibility < -FEASIBILITY_TOL:
            raise RuntimeError(
                f"phase 1 ended at a negative sum of artificials ({infeasibility:.3g})"
            )
        if infeasibility > FEASIBILITY_TOL:
            return "infeasible", _point(T, basis, n_vars)[None, :]
        # pivot leftover artificials out of the basis, drop redundant rows
        keep = np.ones(T.shape[0], dtype=bool)
        for r in np.flatnonzero(basis >= n_struct):
            options = np.flatnonzero(np.abs(T[r, :n_struct]) > _PIVOT_TOL)
            if options.size:
                _pivot(T, basis, r, options[0])
            else:
                keep[r] = False
        T, basis = T[keep], basis[keep[:-1]]
        n_enter = n_struct

    # phase 2, once per objective, each from the previous optimal basis
    points = np.empty(objectives.shape)
    for i, c in enumerate(objectives):
        T[-1, :] = 0.0
        T[-1, 0:n_split:2] = -c
        T[-1, 1:n_split:2] = c
        _price_out(T, basis)
        if _run_phase(T, basis, n_enter) == "unbounded":
            raise RuntimeError(f"objective {i} is unbounded")
        points[i] = _point(T, basis, n_vars)
    return "optimal", points


def _point(T: np.ndarray, basis: np.ndarray, n_vars: int) -> np.ndarray:
    """Free-variable values at the current basis (nonbasic split parts 0)."""
    split = np.zeros(2 * n_vars)
    basic = basis < 2 * n_vars
    split[basis[basic]] = T[:-1, -1][basic]
    return split[0::2] - split[1::2]


def maximise_over(system: ConstraintSystem, objectives: np.ndarray | None = None,
                  eps_floor: float | None = None) -> LpSolution:
    """Maximise each row of ``objectives``, by default the margin itself,
    over ``system`` with eps <= ``EPS_CAP`` and, given ``eps_floor``,
    eps >= eps_floor: the box rows follow the inequality rows, the floor
    first."""
    eps = np.eye(system.n_cols)[system.eps_col]
    box_A, box_b = ([eps], [EPS_CAP]) if eps_floor is None else (
        [-eps, eps], [-eps_floor, EPS_CAP])
    A_eq, b_eq, _, A_ub, b_ub, _ = system.split()
    return maximise(A_eq, b_eq, np.vstack([A_ub, *box_A]), np.append(b_ub, box_b),
                    eps if objectives is None else objectives)


def _binding_origins(system: ConstraintSystem, x: np.ndarray, feasible: bool) -> tuple[str, ...]:
    # the tight inequality rows at an optimum, else every broken row
    excess = system.excess(x[:system.eps_col], x[system.eps_col])
    if feasible:
        hit = ~system.eq & (np.abs(excess) <= 1e-7)
    else:
        hit = excess > FEASIBILITY_TOL
    return tuple(origin for origin, h in zip(system.origins, hit) if h)


def max_epsilon(system: ConstraintSystem) -> LpOutcome:
    """Maximise the strict-preference margin over the constraint system.

    The margin is a free variable, so an over-constrained but consistent
    system reports a negative best margin rather than plain infeasibility;
    "infeasible" is reserved for systems with no solution at any margin.
    """
    res = maximise_over(system)
    x = res.points[0]
    eps_star, solution = (float(x[system.eps_col]), x) if res.feasible else (None, None)
    return LpOutcome(res.status, eps_star, solution,
                     _binding_origins(system, x, res.feasible))
