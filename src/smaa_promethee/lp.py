"""Feasibility and margin analysis of constraint systems.

A small dense two-phase simplex. All model variables are treated as free
(interactions may be negative, and the strict-preference margin eps must
be allowed below zero so an incompatible system reports how incompatible
it is), so every variable is split into a nonnegative difference. Pivoting
uses the largest-coefficient rule and falls back to Bland's rule after an
iteration budget to rule out cycling. The margin variable is boxed above
so the maximisation is never unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .bipolar import flow_coefficients
from .elicitation import ConstraintRow, ConstraintSystem
from .model import PerformanceTable

__all__ = [
    "EPS_CAP",
    "FEASIBILITY_TOL",
    "ROR_EPS_MIN",
    "LpOutcome",
    "RorPair",
    "max_epsilon",
    "exact_ror_pair",
]

# Upper box bound on the strict-preference margin.
EPS_CAP = 1.0
# Residual tolerance deciding feasibility.
FEASIBILITY_TOL = 1e-8
# Margin required of a compatible parameter set in exact outranking checks.
ROR_EPS_MIN = 1e-6

_PIVOT_TOL = 1e-10


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


class RorPair(NamedTuple):
    """Exact outranking verdict for one ordered pair."""

    possible: bool
    necessary: bool


class _SimplexResult(NamedTuple):
    status: str            # optimal | infeasible | unbounded
    x: np.ndarray | None   # values of the standard-form variables
    objective: float


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


def _run_phase(
    T: np.ndarray,
    basis: np.ndarray,
    allowed: np.ndarray,
    bland_after: int = 5000,
    max_iter: int = 200000,
) -> str:
    """Pivot the tableau to optimality. Objective row is last, rhs last col."""
    n_rows = T.shape[0] - 1
    for it in range(max_iter):
        obj = T[-1, :-1]
        candidates = np.flatnonzero(allowed & (obj < -_PIVOT_TOL))
        if candidates.size == 0:
            return "optimal"
        if it < bland_after:
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


def _solve_lp(
    A_eq: np.ndarray,
    b_eq: np.ndarray,
    A_ub: np.ndarray,
    b_ub: np.ndarray,
    c: np.ndarray,
) -> _SimplexResult:
    """Maximise c.x over free x with A_eq x = b_eq and A_ub x <= b_ub."""
    n_vars = c.shape[0]
    A = np.vstack([A_eq, A_ub]) if A_eq.size or A_ub.size else np.zeros((0, n_vars))
    n_eq = A_eq.shape[0]
    n_rows = A.shape[0]
    rhs = np.concatenate([b_eq, b_ub])

    # split free variables, add slacks on inequality rows
    n_split = 2 * n_vars
    n_slack = n_rows - n_eq
    full = np.zeros((n_rows, n_split + n_slack))
    full[:, 0:n_split:2] = A
    full[:, 1:n_split:2] = -A
    for i in range(n_slack):
        full[n_eq + i, n_split + i] = 1.0

    # nonnegative rhs so the artificial basis is feasible
    rhs = rhs.copy()
    neg = rhs < 0.0
    full[neg] *= -1.0
    rhs[neg] *= -1.0

    # slack columns can start basic where their coefficient stayed +1
    n_struct = n_split + n_slack
    basis = np.full(n_rows, -1, dtype=int)
    art_cols: list[int] = []
    extra = []
    for r in range(n_rows):
        slack_col = n_split + (r - n_eq) if r >= n_eq else -1
        if slack_col >= 0 and full[r, slack_col] == 1.0:
            basis[r] = slack_col
        else:
            col = n_struct + len(art_cols)
            art_cols.append(col)
            e = np.zeros(n_rows)
            e[r] = 1.0
            extra.append(e)
            basis[r] = col
    if extra:
        full = np.hstack([full, np.column_stack(extra)])
    n_cols = full.shape[1]

    T = np.zeros((n_rows + 1, n_cols + 1))
    T[:n_rows, :n_cols] = full
    T[:n_rows, -1] = rhs

    allowed = np.ones(n_cols, dtype=bool)
    if art_cols:
        # phase 1: drive the artificials to zero
        T[-1, :] = 0.0
        T[-1, art_cols] = 1.0
        _price_out(T, basis)
        status = _run_phase(T, basis, allowed)
        if status != "optimal":
            raise RuntimeError("phase 1 cannot be unbounded")
        if -T[-1, -1] > FEASIBILITY_TOL:
            return _SimplexResult("infeasible", _extract(T, basis, n_struct), -T[-1, -1])
        # pivot leftover artificials out of the basis, drop redundant rows
        art_set = set(art_cols)
        keep_rows = []
        for r in range(n_rows):
            if basis[r] in art_set:
                options = np.flatnonzero(
                    (np.abs(T[r, :n_struct]) > _PIVOT_TOL)
                )
                if options.size:
                    _pivot(T, basis, r, options[0])
                    keep_rows.append(r)
                # else: redundant row, dropped below
            else:
                keep_rows.append(r)
        if len(keep_rows) < n_rows:
            T = np.vstack([T[keep_rows], T[-1:]])
            basis = basis[keep_rows]
            n_rows = len(keep_rows)
        allowed[art_cols] = False

    # phase 2: maximise the real objective
    c_split = np.zeros(n_cols)
    c_split[0:n_split:2] = c
    c_split[1:n_split:2] = -c
    T[-1, :] = 0.0
    T[-1, :n_cols] = -c_split
    _price_out(T, basis)
    status = _run_phase(T, basis, allowed)
    if status == "unbounded":
        return _SimplexResult("unbounded", None, math.inf)
    return _SimplexResult("optimal", _extract(T, basis, n_struct), T[-1, -1])


def _extract(T: np.ndarray, basis: np.ndarray, n_struct: int) -> np.ndarray:
    vals = np.zeros(n_struct)
    n_rows = T.shape[0] - 1
    for r in range(n_rows):
        if basis[r] < n_struct:
            vals[basis[r]] = T[r, -1]
    return vals


def _recombine(x_split: np.ndarray, n_vars: int) -> np.ndarray:
    return x_split[0 : 2 * n_vars : 2] - x_split[1 : 2 * n_vars : 2]


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


def max_epsilon(system: ConstraintSystem, eps_cap: float = EPS_CAP) -> LpOutcome:
    """Maximise the strict-preference margin over the constraint system.

    The margin is a free variable, so an over-constrained but consistent
    system reports a negative best margin rather than plain infeasibility;
    "infeasible" is reserved for systems with no solution at any margin.
    """
    cap_row = ConstraintRow(
        coefs=np.eye(system.n_cols)[system.eps_col], rel="<=", rhs=eps_cap,
        origin="margin cap",
    )
    capped = system.with_rows([cap_row])
    A_eq, b_eq, _, A_ub, b_ub, _ = capped.split()
    c = np.zeros(system.n_cols)
    c[system.eps_col] = 1.0
    res = _solve_lp(A_eq, b_eq, A_ub, b_ub, c)
    if res.status == "unbounded":
        raise RuntimeError("margin maximisation cannot be unbounded under the cap")
    x = _recombine(res.x, system.n_cols)
    if res.status == "infeasible":
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


def exact_ror_pair(
    system: ConstraintSystem,
    table: PerformanceTable,
    a: str,
    b: str,
    eps_min: float = ROR_EPS_MIN,
) -> RorPair:
    """Exact possible/necessary outranking of ``a`` over ``b``.

    A parameter set counts as compatible when it satisfies the system with
    margin at least ``eps_min``. ``a`` possibly outranks ``b`` when some
    compatible set gives a at least b's net flow; it necessarily outranks
    b when no compatible set puts b strictly (by eps_min) above a.
    """
    floor = ConstraintRow(
        coefs=np.eye(system.n_cols)[system.eps_col], rel=">=", rhs=eps_min,
        origin="margin floor",
    )
    flow_pos, flow_neg = flow_coefficients(table, system.layout)
    net = flow_pos - flow_neg
    diff = np.zeros(system.n_cols)
    diff[: system.layout.size] = (
        net[table.alternative_index(a)] - net[table.alternative_index(b)]
    )
    pos_row = ConstraintRow(coefs=diff, rel=">=", rhs=0.0, origin=f"test {a} >= {b}")
    possible = max_epsilon(system.with_rows([floor, pos_row])).feasible
    neg_row = ConstraintRow(
        coefs=-diff, rel=">=", rhs=eps_min, origin=f"test {b} > {a}"
    )
    necessary = not max_epsilon(system.with_rows([floor, neg_row])).feasible
    return RorPair(possible=possible, necessary=necessary)
