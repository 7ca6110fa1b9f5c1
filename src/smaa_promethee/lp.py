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

``max_epsilon`` maximises the margin, boxed above so it is never
unbounded. The exact outranking programs (``smaa.exact_ror_matrices``)
and the sampler's centring program call ``maximise`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .elicitation import ConstraintRow, ConstraintSystem

__all__ = [
    "EPS_CAP",
    "FEASIBILITY_TOL",
    "ROR_EPS_MIN",
    "LpOutcome",
    "LpSolution",
    "maximise",
    "max_epsilon",
]

# Upper box bound on the strict-preference margin.
EPS_CAP = 1.0
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
    T[row] /= T[row, col]
    # eliminate col from every other row in one rank-1 update
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])
    basis[row] = col


def _price_out(T: np.ndarray, basis: np.ndarray) -> None:
    obj = T[-1]
    for r, col in enumerate(basis):
        if obj[col] != 0.0:
            obj -= obj[col] * T[r]


def _run_phase(T: np.ndarray, basis: np.ndarray, allowed: np.ndarray) -> str:
    """Pivot the tableau to optimality. Objective row is last, rhs last col."""
    n_rows = T.shape[0] - 1
    for it in range(_MAX_PIVOTS):
        obj = T[-1, :-1]
        candidates = np.flatnonzero(allowed & (obj < -_PIVOT_TOL))
        if candidates.size == 0:
            return "optimal"
        if it < _BLAND_AFTER:
            col = candidates[np.argmin(obj[candidates])]
        else:
            col = candidates[0]  # Bland: smallest index, no cycling
        ratios = np.full(n_rows, np.inf)
        pos = T[:n_rows, col] > _PIVOT_TOL
        ratios[pos] = T[:n_rows, -1][pos] / T[:n_rows, col][pos]
        if not np.any(np.isfinite(ratios)):
            return "unbounded"
        best = ratios.min()
        # smallest basis index among ties keeps Bland's guarantee
        tied = np.flatnonzero(ratios <= best + 1e-12)
        row = tied[np.argmin(basis[tied])]
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

    Raises ``RuntimeError`` when an objective is unbounded, when phase 1
    ends with a negative sum of artificials, or when an optimum breaks an
    original row by more than ``FEASIBILITY_TOL``: all three mean the
    tableau cannot be trusted.
    """
    objectives = np.atleast_2d(objectives)
    n_vars = objectives.shape[1]
    A = np.vstack([A_eq, A_ub]) if A_eq.size or A_ub.size else np.zeros((0, n_vars))
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

    allowed = np.ones(T.shape[1] - 1, dtype=bool)
    if art_rows.size:
        # phase 1: drive the artificials to zero
        T[-1, n_struct:-1] = 1.0
        _price_out(T, basis)
        if _run_phase(T, basis, allowed) != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        infeasibility = -T[-1, -1]
        if infeasibility < -FEASIBILITY_TOL:
            raise RuntimeError(
                f"phase 1 ended at a negative sum of artificials ({infeasibility:.3g})"
            )
        if infeasibility > FEASIBILITY_TOL:
            return LpSolution("infeasible", _point(T, basis, n_vars)[None, :], np.zeros(0))
        # pivot leftover artificials out of the basis, drop redundant rows
        keep = np.ones(T.shape[0], dtype=bool)
        for r in np.flatnonzero(basis >= n_struct):
            options = np.flatnonzero(np.abs(T[r, :n_struct]) > _PIVOT_TOL)
            if options.size:
                _pivot(T, basis, r, options[0])
            else:
                keep[r] = False
        T, basis = T[keep], basis[keep[:-1]]
        allowed[n_struct:] = False

    # phase 2, once per objective, each from the previous optimal basis
    points = np.empty(objectives.shape)
    for i, c in enumerate(objectives):
        T[-1, :] = 0.0
        T[-1, 0:n_split:2] = -c
        T[-1, 1:n_split:2] = c
        _price_out(T, basis)
        if _run_phase(T, basis, allowed) == "unbounded":
            raise RuntimeError(f"objective {i} is unbounded")
        points[i] = _point(T, basis, n_vars)
    worst = max(np.abs(points @ A_eq.T - b_eq).max(initial=0.0),
                (points @ A_ub.T - b_ub).max(initial=0.0))
    if worst > FEASIBILITY_TOL:
        raise RuntimeError(f"optimal point breaks a constraint row by {worst:.3g}")
    return LpSolution("optimal", points, np.einsum("ij,ij->i", objectives, points))


def _point(T: np.ndarray, basis: np.ndarray, n_vars: int) -> np.ndarray:
    """Free-variable values at the current basis (nonbasic split parts 0)."""
    split = np.zeros(2 * n_vars)
    basic = basis < 2 * n_vars
    split[basis[basic]] = T[:-1, -1][basic]
    return split[0::2] - split[1::2]


def _binding_origins(
    system_rows: Sequence[ConstraintRow], x: np.ndarray, feasible: bool
) -> tuple[str, ...]:
    out = []
    for row in system_rows:
        lhs = float(row.coefs @ x)
        if row.rel == "=":
            resid = abs(lhs - row.rhs)
            hit = resid > FEASIBILITY_TOL if not feasible else False
        elif row.rel == "<=":
            resid = lhs - row.rhs
            hit = resid > FEASIBILITY_TOL if not feasible else abs(resid) <= 1e-7
        else:
            resid = row.rhs - lhs
            hit = resid > FEASIBILITY_TOL if not feasible else abs(resid) <= 1e-7
        if hit:
            out.append(row.origin)
    return tuple(out)


def max_epsilon(system: ConstraintSystem) -> LpOutcome:
    """Maximise the strict-preference margin over the constraint system.

    The margin is a free variable, so an over-constrained but consistent
    system reports a negative best margin rather than plain infeasibility;
    "infeasible" is reserved for systems with no solution at any margin.
    """
    cap_row = ConstraintRow(
        coefs=np.eye(system.n_cols)[system.eps_col], rel="<=", rhs=EPS_CAP,
        origin="margin cap",
    )
    capped = system.with_rows([cap_row])
    A_eq, b_eq, _, A_ub, b_ub, _ = capped.split()
    res = maximise(A_eq, b_eq, A_ub, b_ub, np.eye(system.n_cols)[system.eps_col])
    x = res.points[0]
    if not res.feasible:
        return LpOutcome(
            status="infeasible",
            eps_star=None,
            solution=None,
            binding=_binding_origins(system.rows, x, feasible=False),
        )
    return LpOutcome(
        status="optimal",
        eps_star=float(x[system.eps_col]),
        solution=x,
        binding=_binding_origins(system.rows, x, feasible=True),
    )
