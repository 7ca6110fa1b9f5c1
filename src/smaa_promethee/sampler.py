"""Uniform sampling over the preference-compatible parameter polytope.

The compiled constraint system mixes equalities (normalisation, classical
restrictions, stated indifferences) with inequalities. Equalities are
eliminated through an orthonormal null-space basis so the hit-and-run
chain walks a full-dimensional reduced polytope; points map back through
the affine offset. The strict-preference margin is fixed to
``delta_strict`` before reduction: with the default 0 the chain samples
the closure, whose boundary has measure zero.

``hit_and_run`` runs C independent chains from the same interior start,
each with its own burn-in, and steps them together (see
``_kernels.chain_steps``). C is derived from the configuration so that
burn-in work never exceeds sampling work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from ._kernels import CHAIN_STUCK, CHAIN_UNBOUNDED, chain_steps
from .elicitation import ConstraintSystem
from .lp import FEASIBILITY_TOL, LpOutcome, max_epsilon, maximise

__all__ = [
    "SamplerConfig",
    "Polytope",
    "SampleBatch",
    "InfeasibleSystemError",
    "build_polytope",
    "hit_and_run",
]

_NULLSPACE_TOL = 1e-10
_OUTPUT_FEAS_TOL = 1e-9
_RETRY_BUDGET = 100
_MAX_CHAINS = 64
# fixed refill size: the draw order (directions then uniforms per refill)
# is part of the deterministic stream for a given seed
_RAND_ROWS = 128


class InfeasibleSystemError(RuntimeError):
    """Raised when no parameter vector attains the requested margin, or
    when no start point strictly inside the polytope is found."""

    def __init__(self, eps_star: float | None, binding: tuple[str, ...],
                 reason: str | None = None):
        self.eps_star = eps_star
        self.binding = binding
        if reason is not None:
            msg = reason
        elif eps_star is None:
            msg = "constraint system is infeasible at any margin"
        else:
            msg = f"best attainable margin {eps_star:.6g} is below the requested one"
        if binding:
            msg += "; binding rows: " + "; ".join(binding)
        super().__init__(msg)


@dataclass(frozen=True)
class SamplerConfig:
    sample_count: int = 100_000
    burn_in: int = 1_000
    thinning: int = 1
    seed: int = 0
    delta_strict: float = 0.0

    def __post_init__(self) -> None:
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        if self.burn_in < 0:
            raise ValueError("burn_in cannot be negative")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.delta_strict < 0:
            raise ValueError("delta_strict cannot be negative")


@dataclass(frozen=True)
class Polytope:
    """Inequalities in reduced coordinates plus the affine map back.

    A full point is ``offset + basis @ z``; ``A @ z <= b`` describes the
    reduced polytope. The original (margin-substituted) rows are kept so
    emitted samples can be checked against what was actually compiled.
    """

    A: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    offset: np.ndarray
    start: np.ndarray
    names: tuple[str, ...]
    full_eq_A: np.ndarray
    full_eq_b: np.ndarray
    full_ub_A: np.ndarray
    full_ub_b: np.ndarray
    eps_star: float = float("nan")

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def _null_space(A: np.ndarray, n: int) -> np.ndarray:
    if A.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    if s.size == 0:
        return np.eye(n)
    rank = int(np.sum(s > _NULLSPACE_TOL * max(s[0], 1.0)))
    return vt[rank:].T


def _chebyshev_centre(R: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, float] | None:
    """Deepest point of {z : R z <= r} and its inradius (capped)."""
    rows, k = R.shape
    norms = np.sqrt((R * R).sum(axis=1))
    body = np.hstack([R, norms[:, None]])
    cap = np.zeros((1, k + 1))
    cap[0, k] = 1.0
    A_ub = np.vstack([body, cap])
    b_ub = np.concatenate([r, [1e6]])
    c = np.zeros(k + 1)
    c[k] = 1.0
    res = maximise(np.zeros((0, k + 1)), np.zeros(0), A_ub, b_ub, c)
    if not res.feasible:
        return None
    x = res.points[0]
    return x[:k], float(x[k])


def build_polytope(
    system: ConstraintSystem,
    delta_strict: float = 0.0,
    margin: LpOutcome | None = None,
) -> Polytope:
    """Fix the margin, eliminate equalities, and pick an interior start.

    The start point averages the max-margin vertex with the deepest point
    of the reduced polytope re-solved with the margin pinned halfway back
    toward ``delta_strict``; a bare vertex start leaves the chain with
    empty chords, so the centring solve is what makes sampling move. A
    start that is not strictly inside every row raises
    ``InfeasibleSystemError`` naming the row it sits on. ``margin`` is
    ``max_epsilon(system)`` when the caller has already solved it; without
    it the margin LP is solved here.
    """
    outcome = max_epsilon(system) if margin is None else margin
    if not outcome.feasible or outcome.eps_star < delta_strict - FEASIBILITY_TOL:
        raise InfeasibleSystemError(outcome.eps_star, outcome.binding)
    eps_star = outcome.eps_star
    size = system.layout.size
    ecol = system.eps_col

    A_eq, b_eq, _, A_ub, b_ub, ub_origins = system.split()
    eq_A = A_eq[:, :size]
    eq_b = b_eq - A_eq[:, ecol] * delta_strict
    ub_A = A_ub[:, :size]
    ub_b = b_ub - A_ub[:, ecol] * delta_strict

    basis = _null_space(eq_A, size)
    if eq_A.shape[0]:
        offset, *_ = np.linalg.lstsq(eq_A, eq_b, rcond=None)
        if np.max(np.abs(eq_A @ offset - eq_b)) > FEASIBILITY_TOL:
            raise InfeasibleSystemError(eps_star, ("inconsistent equality rows",))
    else:
        offset = np.zeros(size)

    R = ub_A @ basis
    r = ub_b - ub_A @ offset
    norms = np.sqrt((R * R).sum(axis=1))
    keep = norms > 1e-12
    if np.any(r[~keep] < -FEASIBILITY_TOL):
        raise InfeasibleSystemError(eps_star, ("row fixed by equalities is violated",))
    R = np.ascontiguousarray(R[keep])
    r = np.ascontiguousarray(r[keep])

    v1 = outcome.solution[:size]
    if eq_A.shape[0] and np.max(np.abs(eq_A @ v1 - eq_b)) > FEASIBILITY_TOL:
        raise InfeasibleSystemError(eps_star, ("margin vertex violates the equalities",))
    z1 = basis.T @ (v1 - offset)

    halfway = delta_strict + (eps_star - delta_strict) / 2.0
    r_mid = (b_ub - A_ub[:, ecol] * halfway) - ub_A @ offset
    start = z1
    for rhs in (r_mid[keep], r):
        centred = _chebyshev_centre(R, rhs)
        if centred is not None and centred[1] > 1e-12:
            start = (z1 + centred[0]) / 2.0
            break
    if R.shape[0]:
        slack = r - R @ start
        worst = int(np.argmin(slack))
        if not slack[worst] > 0.0:
            origin = [o for o, k in zip(ub_origins, keep) if k][worst]
            raise InfeasibleSystemError(
                eps_star, (origin,),
                reason=f"no interior start point: minimum slack {slack[worst]:.3g}",
            )

    return Polytope(
        A=R, b=r, basis=basis, offset=offset, start=start,
        names=system.layout.names, full_eq_A=eq_A, full_eq_b=eq_b,
        full_ub_A=ub_A, full_ub_b=ub_b, eps_star=eps_star,
    )


@dataclass(frozen=True)
class SampleBatch:
    """Sampled parameter vectors, one per row, columns named by the layout."""

    columns: tuple[str, ...]
    data: np.ndarray
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("data shape does not match the column names")

    @property
    def sample_count(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]

    @classmethod
    def concat(cls, batches: "list[SampleBatch]") -> "SampleBatch":
        if not batches:
            raise ValueError("nothing to concatenate")
        cols = batches[0].columns
        for b in batches[1:]:
            if b.columns != cols:
                raise ValueError("batches have different column layouts")
        return cls(columns=cols, data=np.vstack([b.data for b in batches]))

    def save(self, path: str) -> None:
        """Row-major little-endian float64 dump plus a JSON sidecar."""
        payload = np.ascontiguousarray(self.data, dtype="<f8")
        with open(path, "wb") as fh:
            fh.write(memoryview(payload))
        sidecar = {
            "variable_index": {name: i for i, name in enumerate(self.columns)},
            "columns": list(self.columns),
            "rows": int(self.data.shape[0]),
            "dtype": "<f8",
            "order": "C",
            "seed": self.seed,
        }
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "SampleBatch":
        with open(_sidecar_path(path), "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        raw = np.fromfile(path, dtype="<f8")
        rows = int(sidecar["rows"])
        cols = tuple(sidecar["columns"])
        data = raw.reshape(rows, len(cols)).astype(np.float64)
        return cls(columns=cols, data=data, seed=sidecar.get("seed"))


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def _chain_count(config: SamplerConfig) -> int:
    """Chains stepped together: 1 to 64, at most one per sample, and no
    more than fit C * burn_in within the sampling work, sample_count *
    thinning (a single chain may exceed it)."""
    work = config.sample_count * config.thinning
    return min(_MAX_CHAINS, config.sample_count,
               max(1, work // max(config.burn_in, 1)))


def hit_and_run(polytope: Polytope, config: SamplerConfig) -> SampleBatch:
    """Run ``_chain_count(config)`` chains and return feasibility-checked samples.

    Every chain starts at ``polytope.start`` and discards its own
    ``burn_in`` steps. Chain c keeps ``sample_count // C`` samples, one
    more for the first ``sample_count % C`` chains, and the rows come out
    chain-major: all of chain 0's samples, then chain 1's, and so on.
    """
    k = polytope.dimension
    if k == 0:
        raise ValueError("polytope has no free dimensions to sample")
    chains = _chain_count(config)
    quota = np.full(chains, config.sample_count // chains, dtype=np.int64)
    quota[: config.sample_count % chains] += 1
    rng = np.random.default_rng(config.seed)
    out = np.empty((config.sample_count, k))
    Y = np.tile(np.asarray(polytope.start, dtype=np.float64), (chains, 1))
    state = np.zeros((3, chains), dtype=np.int64)
    A = np.ascontiguousarray(polytope.A, dtype=np.float64)
    b = np.ascontiguousarray(polytope.b, dtype=np.float64)
    while np.any(state[1] < quota):
        dirs = rng.standard_normal((_RAND_ROWS, chains, k))
        uniforms = rng.random((_RAND_ROWS, chains))
        status, _ = chain_steps(
            A, b, Y, dirs, uniforms, config.burn_in, config.thinning,
            _RETRY_BUDGET, state, quota, out,
        )
        if status == CHAIN_STUCK:
            raise RuntimeError(
                "hit-and-run made no progress: every chord within the retry "
                "budget was numerically empty (is the interior empty?)"
            )
        if status == CHAIN_UNBOUNDED:
            raise RuntimeError("reduced polytope is unbounded along a chord")

    theta = out @ polytope.basis.T
    theta += polytope.offset

    # hard output contract, not a diagnostic
    if polytope.full_eq_A.shape[0]:
        eq_err = np.abs(theta @ polytope.full_eq_A.T - polytope.full_eq_b[None, :])
        if eq_err.size and eq_err.max() > _OUTPUT_FEAS_TOL:
            raise RuntimeError("sample violates an equality row beyond 1e-9")
    if polytope.full_ub_A.shape[0]:
        # in place, so one (samples, rows) array is alive at a time, not two
        ub_err = theta @ polytope.full_ub_A.T
        ub_err -= polytope.full_ub_b
        if ub_err.size and ub_err.max() > _OUTPUT_FEAS_TOL:
            raise RuntimeError("sample violates an inequality row beyond 1e-9")

    return SampleBatch(columns=polytope.names, data=theta, seed=config.seed)
