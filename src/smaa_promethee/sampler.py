"""Uniform sampling over the preference-compatible parameter polytope.

The compiled constraint system mixes equalities (normalisation, classical
restrictions, stated indifferences) with inequalities. Equalities are
eliminated through an orthonormal null-space basis, which leaves a
full-dimensional reduced polytope {z : R z <= r}. That polytope is then
rounded: with c its analytic centre, s = r - R c the slacks there and
H = (R / s)^T (R / s) = U^T U the barrier Hessian, U the triangle of a QR
of R / s, the chain walks y = U (z - c), in which the Dikin ellipsoid at
c is the unit ball at the origin. Hit-and-run mixes slowly along the long
axes of an anisotropic polytope, and rounding shortens them (Lovász &
Vempala 2006). Points map back through the affine offset and the scaled
basis, which is not orthonormal. The strict-preference margin is fixed to
``delta_strict`` before reduction: with the default 0 the chain samples
the closure, whose boundary has measure zero. Whether any parameters
attain that margin is the margin LP's question, asked before sampling;
this module solves no LP, and a polytope with no interior at the margin
shows itself by the rows its start point cannot clear.

``SampleStream`` runs C independent chains from the origin of the
rounded frame, the analytic centre, each with its own burn-in, and
``chain_steps`` steps them in lockstep in numpy: one refill of pre-drawn
axes and uniforms moves every chain R steps. Every step runs along a
coordinate axis of the rounded frame, drawn uniformly: coordinate
hit-and-run on the rounded polytope (Haraldsdóttir, Cousins, Thiele,
Fleming & Vempala 2017), whose steps leave the uniform law invariant as
random directions do (Smith 1984).
Along axis j the chord coefficients c = A e_j are A's column j, so one
``np.take`` gathers those of the whole refill, with no normal draws,
normalisation or matrix product. Every chain takes every row, and an
empty chord is a zero-length step, so all chains have always taken the
same number of steps, and one count of the steps done serves them all.
From a point strictly inside, with slacks s > 0, the chord along the
axis is [1 / min(c / s), 1 / max(c / s)]: a row with c > 0 bounds the
upper end at s / c, one with c < 0 the lower end, and a row with c = 0
neither. So a step finds both chord ends of every chain with one
divide, one ``max`` and one ``min`` along the rows and one reciprocal,
with no mask for the side each row bounds. A step records only its
chord extremes, whether each chain moved and how far; the points, kept
samples, empty-chord counts and open chords are settled once per
refill. The arithmetic is that of a per-row loop.

The axes and uniforms come from SplitMix64 seeded with the seed (Steele,
Lea & Flood 2014, "Fast splittable pseudorandom number generators"):
word i >= 1 is a fixed 64-bit mix of seed + i * 0x9E3779B97F4A7C15 mod
2^64, so a refill's words are a few whole-array uint64 operations, with
no generator module of numpy's to load. Step t of chain c takes words
2 (t C + c) + 1 and + 2, the first for its axis and the second for its uniform, so
the draws do not depend on the refill size. A word w gives the uniform
(w >> 11) 2^-53, as numpy's ``Generator.random`` builds a double, and
the axis floor((w >> 11) 2^-53 k), which is below k. The draws are
integer arithmetic, the same on every numpy build; what can still differ
between builds is the floating point of BLAS and LAPACK in centring,
rounding, the chain's slack refresh and the output map.

Each chain discards its first ``burn_in_steps`` steps: the configured
burn-in, or by default 20 per dimension of the polytope, since the
mixing time of hit-and-run grows with the dimension (Lovász & Vempala
2006, "Hit-and-run from a corner"). C is derived from the configuration
and that burn-in so that burn-in work never exceeds sampling work.

``SampleStream`` runs the chains and hands out their samples a block at
a time: the rows that consecutive refills keep, up to ``_BLOCK_ROWS``
unless one refill keeps more, are mapped to full parameter vectors and
checked against the compiled rows as one block, which the caller counts
or writes before the next block overwrites it. So no (samples,
parameters) array is held unless the caller builds one, as
``hit_and_run`` does, and the working memory is one refill's buffers,
one block and one check piece, whatever the number of samples. ``SampleBatch.save``
and the command line write ``samples.bin`` through the same chain-major
writer, which puts each chain's rows of a block at their place in the
file.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .elicitation import ConstraintSystem
from .lp import FEASIBILITY_TOL

__all__ = [
    "SamplerConfig",
    "Polytope",
    "SampleBatch",
    "SampleStream",
    "InfeasibleSystemError",
    "build_polytope",
    "burn_in_steps",
    "hit_and_run",
    "sample_file",
]

_NULLSPACE_TOL = 1e-10
_OUTPUT_FEAS_TOL = 1e-9
_RETRY_BUDGET = 100
# a chord narrower than this is treated as numerically empty
_CHORD_TOL = 1e-12
_MAX_CHAINS = 64
# default burn-in per dimension of the sampled polytope
_BURN_IN_PER_DIMENSION = 20
# steps drawn and run per refill, cut down to the steps the chains still
# need: every step's draws are fixed by the seed, the step and the chain,
# so this moves the samples only by the rounding of the slack, which
# each refill recomputes from the points
_RAND_ROWS = 128
# rows up to which consecutive refills' samples make one block of a
# SampleStream, unless one refill keeps more. Each block costs one write
# per chain and a pass of the map, check and count between two refills.
# 64 chains keep 8,192 rows a refill, so blocks of two refills halve the
# writes (448 instead of 832 for 100k samples) and those passes, for
# 0.7 MB more peak memory (39.7 against 38.9 MB, 100k samples of the
# paper's bipolar example)
_BLOCK_ROWS = 16384
# SplitMix64's increment, then its mix: (shift, multiplier) per round
_GAMMA = 0x9E3779B97F4A7C15
_MIX = ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None))
_SEED_LIMIT = 2 ** 64
# numbers (rows x mapped columns and row excesses) of one block of the
# output map and check
_CHECK_ENTRIES = 2 ** 17
# damped Newton stops once the Newton decrement is below this, or after
# this many steps
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 100


class InfeasibleSystemError(RuntimeError):
    """Raised when the polytope at the requested margin has no point
    strictly inside: ``reason`` says how that showed, and ``binding``
    holds the origins of the rows that show it."""

    def __init__(self, reason: str, binding: tuple[str, ...]):
        self.reason = reason
        self.binding = binding
        msg = reason
        if binding:
            msg += "; binding rows: " + "; ".join(binding)
        super().__init__(msg)


def _is_integer(value) -> bool:
    """An int or a numpy integer; a boolean is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class SamplerConfig:
    """What ``hit_and_run`` draws: ``burn_in`` None means by dimension,
    as ``burn_in_steps`` gives it. Every field is an integer (a boolean
    is not), else ``ValueError`` names it; the seed, SplitMix64's state,
    lies in [0, 2^64)."""

    sample_count: int = 100_000
    burn_in: int | None = None
    thinning: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sample_count", "burn_in", "thinning", "seed"):
            value = getattr(self, name)
            if not (_is_integer(value) or name == "burn_in" and value is None):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")
        if self.thinning < 1:
            raise ValueError("thinning must be at least 1")
        if self.burn_in is not None and self.burn_in < 0:
            raise ValueError("burn_in cannot be negative")
        if self.seed < 0:
            raise ValueError("seed cannot be negative")
        if self.seed >= _SEED_LIMIT:
            raise ValueError(f"seed must be below 2**64, not {self.seed}")


@dataclass(frozen=True)
class Polytope:
    """Inequalities in rounded coordinates plus the affine map back.

    A full point is ``offset + basis @ y``; ``A @ y <= b`` describes the
    rounded polytope, whose Dikin ellipsoid at the analytic centre is the
    unit ball: the centre is the origin, ``b`` holds the slacks there and
    every row has ``|A_i| <= b_i``. ``basis`` spans the null space of the
    equality rows but is not orthonormal. The polytope keeps the
    ``system`` it was built from and its margin ``delta_strict``, so that
    emitted samples are judged against what was actually compiled, by
    ``system.excess`` at that margin.
    """

    A: np.ndarray
    b: np.ndarray
    basis: np.ndarray
    offset: np.ndarray
    system: ConstraintSystem
    delta_strict: float

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    @property
    def names(self) -> tuple[str, ...]:
        return self.system.layout.names


def _null_space(A: np.ndarray, n: int) -> np.ndarray:
    if A.shape[0] == 0:
        return np.eye(n)
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > _NULLSPACE_TOL * max(s[0], 1.0)))
    return vt[rank:].T


def _barrier_newton(G: np.ndarray, h: np.ndarray, x: np.ndarray,
                    c: np.ndarray) -> np.ndarray:
    """Minimise ``c @ x - sum(log(h - G @ x))`` from a strictly feasible x.

    Damped Newton with Armijo backtracking; every iterate stays strictly
    inside. The change in the barrier is summed through ``log1p`` so the
    sufficient-decrease test still resolves it once the steps are tiny.
    """
    s = h - G @ x
    for _ in range(_NEWTON_STEPS):
        w = 1.0 / s
        grad = c + G.T @ w
        gw = G * w[:, None]
        try:
            step = np.linalg.solve(gw.T @ gw, -grad)
        except np.linalg.LinAlgError:
            # slacks near 0 on a flat polytope: x is as deep as it gets
            break
        # the Newton decrement, squared
        decrement = -(grad @ step)
        if not decrement > _NEWTON_TOL ** 2:
            break
        ratio = (G @ step) / s
        t = 1.0
        # backtrack into the interior, then to a quarter of the predicted
        # decrease; 2^-60 of a Newton step would leave x as it is
        for _ in range(60):
            if np.all(t * ratio < 1.0):
                change = t * (c @ step) - np.log1p(-t * ratio).sum()
                if change <= -0.25 * t * decrement:
                    break
            t *= 0.5
        else:
            break
        x = x + t * step
        s = h - G @ x
    return x


def _analytic_centre(R: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Analytic centre of {z : R z <= r}, or the deepest point found.

    Phase 1 follows the log-barrier path of min t subject to
    R z - t * |R_i| <= r from z = 0 and a t at which every row holds,
    multiplying the barrier weight by 10 per round and stopping after
    the first round that ends with t < 0, that is with z strictly inside.
    If the duality gap rows / weight falls below 1e-9 first, the polytope
    is taken to have no interior and the phase-1 point is returned for
    the caller's slack check to reject. Damped Newton then centres z on -sum(log(r - R z)).
    (Boyd & Vandenberghe, Convex Optimization, 8.5.3 and 11.4.)
    """
    rows, k = R.shape
    zero = np.zeros(k)
    if rows == 0:
        return zero
    norms = np.sqrt((R * R).sum(axis=1))
    G = np.hstack([R, -norms[:, None]])
    x = np.append(zero, max(0.0, float(np.max(-r / norms))) + 1.0)
    weight = 1.0
    while True:
        x = _barrier_newton(G, r, x, np.append(zero, weight))
        if x[k] < 0.0:
            return _barrier_newton(R, r, x[:k], zero)
        if rows / weight < 1e-9:
            return x[:k]
        weight *= 10.0


def build_polytope(system: ConstraintSystem, delta_strict: float = 0.0) -> Polytope:
    """Fix the margin, eliminate equalities, pick an interior start and round.

    The start point is the analytic centre of the reduced polytope, the
    minimiser of -sum(log(slack)) over its rows, found by Newton's method
    from a phase-1 barrier point (``_analytic_centre``). It needs no LP
    vertex, and it sits away from every row, where a vertex start would
    leave the chain with empty chords. The polytope is then rounded so
    that the Dikin ellipsoid at the centre becomes the unit ball at the
    origin (see the module docstring); a singular barrier Hessian, a line
    that no row bounds, raises ``RuntimeError`` before any sampling. A
    negative ``delta_strict`` would relax every strict row, and NaN or an
    infinite one fixes no margin, so these raise ``ValueError``.

    No LP is solved here: a system with no parameters at the margin
    ``delta_strict`` raises ``InfeasibleSystemError`` naming rows that
    show it. Equality rows that no offset meets name the ones the
    least-squares offset breaks; inequality rows that the equalities fix
    at a violated value name themselves; otherwise a start that is not
    strictly inside every row names the row of least slack. Whether a
    margin is attainable at all is the margin LP's verdict, for the
    caller to ask first.
    """
    if not 0.0 <= delta_strict < float("inf"):
        raise ValueError(f"delta_strict must be finite and >= 0, got {delta_strict!r}")
    size = system.layout.size
    # the margin moves into the right-hand side of every packed row
    b = system.b - system.A[:, system.eps_col] * delta_strict
    eq_rows, ub_rows = np.flatnonzero(system.eq), np.flatnonzero(~system.eq)
    eq_A, eq_b = system.A[eq_rows, :size], b[eq_rows]
    ub_A, ub_b = system.A[ub_rows, :size], b[ub_rows]

    basis = _null_space(eq_A, size)
    if eq_rows.size:
        offset, *_ = np.linalg.lstsq(eq_A, eq_b, rcond=None)
        broken = system.excess(offset, delta_strict)[eq_rows] > FEASIBILITY_TOL
        if broken.any():
            raise InfeasibleSystemError("inconsistent equality rows",
                                        _origins(system, eq_rows[broken]))
    else:
        offset = np.zeros(size)

    R = ub_A @ basis
    r = ub_b - ub_A @ offset
    norms = np.sqrt((R * R).sum(axis=1))
    keep = norms > 1e-12
    violated = ~keep & (r < -FEASIBILITY_TOL)
    if violated.any():
        raise InfeasibleSystemError("rows fixed by the equalities are violated",
                                    _origins(system, ub_rows[violated]))
    R = np.ascontiguousarray(R[keep])
    r = np.ascontiguousarray(r[keep])

    centre = _analytic_centre(R, r)
    slack = r - R @ centre
    if R.shape[0]:
        worst = int(np.argmin(slack))
        if not slack[worst] > 0.0:
            raise InfeasibleSystemError(
                f"no interior start point: minimum slack {slack[worst]:.3g}",
                (system.origins[ub_rows[keep][worst]],))

    k = basis.shape[1]
    if k:
        # any T with T T^T = H^-1 maps the unit ball at the origin onto the
        # Dikin ellipsoid at the centre, {z : |(R / s)(z - c)| <= 1}. With
        # U the triangle of a QR of R / s, H = U^T U and T = U^-1; unlike a
        # factor of H itself, U keeps the condition number of R / s.
        scaled = R / slack[:, None]
        U = np.linalg.qr(scaled, mode="r")
        try:
            T = np.linalg.solve(U, np.eye(k))
            # |U| |T| (Frobenius) lies between cond(U) and k cond(U); at
            # numpy's matrix_rank cut-off, to within that factor k (or at
            # inf or nan), U is singular
            singular = not (np.linalg.norm(U) * np.linalg.norm(T)
                            * max(scaled.shape) * np.finfo(float).eps < 1.0)
        except np.linalg.LinAlgError:
            # fewer rows than dimensions, or an exactly singular U
            singular = True
        if singular:
            # a line that no row bounds
            raise RuntimeError("reduced polytope is unbounded along a chord")
        offset = offset + basis @ centre
        basis = basis @ T
        R = R @ T
        r = slack

    return Polytope(A=R, b=r, basis=basis, offset=offset, system=system,
                    delta_strict=delta_strict)


def _origins(system: ConstraintSystem, rows: np.ndarray) -> tuple[str, ...]:
    """The origins of the packed rows numbered ``rows``."""
    return tuple(system.origins[i] for i in rows)


@dataclass(frozen=True)
class SampleBatch:
    """Sampled parameter vectors, one per row, columns named by the layout.

    ``chain_quotas``, when known, gives the rows of each chain: the rows
    are chain-major, so chain c's block starts after the quotas of the
    chains before it. Quotas that are negative, not integers or do not
    sum to the rows raise ``ValueError``. ``burn_in`` and ``thinning``,
    when known, are the steps each chain discarded and the steps per
    kept sample; a burn-in that is not a non-negative integer, or a
    thinning that is not a positive one, raises ``ValueError``.
    """

    columns: tuple[str, ...]
    data: np.ndarray
    seed: int | None = None
    chain_quotas: tuple[int, ...] | None = None
    burn_in: int | None = None
    thinning: int | None = None

    def __post_init__(self) -> None:
        if self.data.ndim != 2 or self.data.shape[1] != len(self.columns):
            raise ValueError("data shape does not match the column names")
        for name, least in (("burn_in", 0), ("thinning", 1)):
            value = getattr(self, name)
            if value is not None and not (_is_integer(value) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, "
                                 f"not {value!r}")
        quotas = self.chain_quotas
        if quotas is None:
            return
        if not all(_is_integer(q) and q >= 0 for q in quotas):
            raise ValueError(f"chain quotas must be non-negative integers, not {list(quotas)}")
        if sum(quotas) != self.data.shape[0]:
            raise ValueError(f"chain quotas sum to {sum(quotas)}, "
                             f"not to the {self.data.shape[0]} rows")

    @property
    def sample_count(self) -> int:
        return self.data.shape[0]

    def save(self, path: str) -> None:
        """Row-major little-endian float64 dump plus a JSON sidecar, written
        by the chain-major writer that the command line streams through:
        each chain's rows in one piece, at its place in the file."""
        with sample_file(path, self) as write:
            write(0, self.chain_quotas or (self.sample_count,), self.data)

    @classmethod
    def load(cls, path: str) -> "SampleBatch":
        with open(_sidecar_path(path), "r", encoding="utf-8") as fh:
            try:
                sidecar = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: its sidecar is not JSON ({exc})") from None
        if not isinstance(sidecar, dict):
            raise ValueError(f"{path}: its sidecar is not a JSON object")
        layout = (sidecar.get("dtype"), sidecar.get("order"))
        if layout != ("<f8", "C"):
            raise ValueError(f"{path}: its sidecar describes dtype {layout[0]!r} in "
                             f"order {layout[1]!r}, not '<f8' in order 'C'")
        rows, cols = sidecar.get("rows"), sidecar.get("columns")
        if type(rows) is not int or rows < 0:
            raise ValueError(f"{path}: its sidecar gives rows {rows!r}, "
                             "not a non-negative integer")
        if not (isinstance(cols, list) and all(isinstance(c, str) for c in cols)):
            raise ValueError(f"{path}: its sidecar gives columns {cols!r}, "
                             "not a list of names")
        cols = tuple(cols)
        quotas, seed = sidecar.get("chain_quotas"), sidecar.get("seed")
        if not (quotas is None or isinstance(quotas, list)):
            raise ValueError(f"{path}: its sidecar gives chain_quotas {quotas!r}, "
                             "not null or a list")
        if not (seed is None or _is_integer(seed) and 0 <= seed < _SEED_LIMIT):
            raise ValueError(f"{path}: its sidecar gives seed {seed!r}, "
                             "not null or an integer in [0, 2**64)")
        size = os.path.getsize(path)
        if size != 8 * rows * len(cols):
            raise ValueError(
                f"{path}: {size} bytes, but its sidecar describes {rows} rows "
                f"x {len(cols)} columns of 8-byte floats"
            )
        data = np.fromfile(path, dtype="<f8").reshape(rows, len(cols))
        try:
            # a sidecar written before burn-in and thinning were recorded
            # lacks them
            return cls(columns=cols, data=data, seed=seed,
                       chain_quotas=None if quotas is None else tuple(quotas),
                       burn_in=sidecar.get("burn_in"),
                       thinning=sidecar.get("thinning"))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _sidecar_path(path: str) -> str:
    root, _ = os.path.splitext(path)
    return root + ".json"


def _chain_parts(quotas, j0: int, counts, rows: np.ndarray):
    """Where each chain's rows of a block go in the chain-major whole.

    ``rows`` holds ``counts[c]`` rows of chain c after those of the chains
    before it, its samples ``j0`` to ``j0 + counts[c]``; the whole holds
    ``quotas[c]`` rows of chain c after those of the chains before it.
    Yields (first row in the whole, the chain's rows) per chain with rows
    in the block."""
    start = lo = 0
    for quota, n in zip(quotas, counts):
        if n:
            yield start + j0, rows[lo:lo + n]
        start += quota
        lo += n


@contextlib.contextmanager
def sample_file(path: str, samples):
    """Open ``path`` for the rows of ``samples``, a ``SampleBatch`` or a
    ``SampleStream``, and yield ``write(j0, counts, rows)``, which puts a
    block's rows of each chain at their place in the file, as
    ``_chain_parts`` gives it, with ``os.pwrite``. The file's length is set
    up front; no memory map is used, since its dirty pages would count as
    the process's resident memory. The sidecar is written once the block
    writes are done; if anything raises before that, both files are
    removed, so no partial output is left."""
    row_bytes = 8 * len(samples.columns)
    quotas = samples.chain_quotas or (samples.sample_count,)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        try:
            os.ftruncate(fd, samples.sample_count * row_bytes)

            def write(j0, counts, rows):
                for row, part in _chain_parts(quotas, j0, counts, rows):
                    payload = np.ascontiguousarray(part, dtype="<f8")
                    offset = row * row_bytes
                    done = os.pwrite(fd, payload, offset)
                    # a single write moves at most about 2 GiB on Linux
                    while done < payload.nbytes:
                        done += os.pwrite(fd, memoryview(payload).cast("B")[done:],
                                          offset + done)

            yield write
        finally:
            os.close(fd)
        sidecar = {
            "variable_index": {name: i for i, name in enumerate(samples.columns)},
            "columns": list(samples.columns),
            "rows": int(samples.sample_count),
            "dtype": "<f8",
            "order": "C",
            "seed": samples.seed,
            "chain_quotas": (None if samples.chain_quotas is None
                             else list(samples.chain_quotas)),
            "burn_in": None if samples.burn_in is None else int(samples.burn_in),
            "thinning": None if samples.thinning is None else int(samples.thinning),
        }
        with open(_sidecar_path(path), "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except BaseException:
        for name in (path, _sidecar_path(path)):
            with contextlib.suppress(OSError):
                os.remove(name)
        raise


def burn_in_steps(config: SamplerConfig, k: int) -> int:
    """Steps each chain discards on a polytope of dimension ``k``:
    ``config.burn_in`` when given, otherwise 20 * k."""
    return _BURN_IN_PER_DIMENSION * k if config.burn_in is None else config.burn_in


def _chain_count(config: SamplerConfig, k: int) -> int:
    """Chains stepped together on a polytope of dimension ``k``: 1 to 64,
    at most one per sample, and no more than fit C * burn_in within the
    sampling work, sample_count * thinning (a single chain may exceed
    it), with burn_in from ``burn_in_steps``."""
    work = config.sample_count * config.thinning
    return min(_MAX_CHAINS, config.sample_count,
               max(1, work // max(burn_in_steps(config, k), 1)))


class _ChainWorkspace:
    """Buffers that every refill of one ``SampleStream`` iteration on ``A``
    reuses.

    The per-row (chains, rows) arrays are laid out chains-last, as (rows,
    chains), when there are at least as many chains as rows, so that
    numpy's inner loop runs along the longer axis; ``axis`` is their rows
    axis. A step along axis j has the chord coefficients of A's column j,
    and the refill's one ``np.take`` writes them straight into that
    layout: columns of A, (rows, R, C), chains-last, whose row i is the
    strided (rows, C) view ``[:, i]``, and otherwise rows of
    ``columns``, a contiguous A^T made once, (R, C, rows), so no row is
    copied or transposed. ``path`` holds the refill's moves, then the
    points they reach; ``points`` is a prefix view of the coefficients'
    buffer, which is dead when ``_settle`` gathers into it. ``ext`` keeps
    each row's largest and smallest c / s per chain, and ``t`` each row's
    step lengths, 0 where a chain does not move. ``base`` holds i * gamma
    for the refill's words i = 1 .. 2 R C, ``words`` their mix and
    ``spare`` the mix's shifts, then the words as doubles in [0, 1).
    """

    def __init__(self, A: np.ndarray, n_rows: int, chains: int):
        rows, k = A.shape
        # uint64 arrays wrap mod 2^64 without a warning, unlike scalars
        self.base = np.arange(1, 2 * n_rows * chains + 1, dtype=np.uint64) * _GAMMA
        self.words = np.empty_like(self.base)
        self.spare = np.empty_like(self.base)
        self.chains_last = chains >= rows
        self.axis = 0 if self.chains_last else 1
        self.columns = None if self.chains_last else np.ascontiguousarray(A.T)
        self.path = np.empty((n_rows, chains, k))
        shared = np.empty(n_rows * chains * max(rows, k))
        self.coef = shared[:n_rows * chains * rows]
        self.points = shared[:n_rows * chains * k].reshape(n_rows * chains, k)
        self.q = np.empty((rows, chains) if self.chains_last else (chains, rows))
        self.ext = np.empty((n_rows, 2, chains))
        self.ends = np.empty((2, chains))
        self.width = np.empty(chains)
        self.t = np.empty((n_rows, chains))
        self.moved = np.empty((n_rows, chains), dtype=bool)

    def stream(self, seed: int, done: int, n_rows: int) -> np.ndarray:
        """SplitMix64 words 2 done C + 1 to 2 (done + R) C of ``seed``,
        as a (R, C, 2) view of ``words``: step t of chain c, for t from
        ``done`` to ``done + R``, reads words 2 (t C + c) + 1 and + 2."""
        chains = self.moved.shape[1]
        n = 2 * n_rows * chains
        words, spare = self.words[:n], self.spare[:n]
        # word i mixes seed + i * gamma; the offset is a Python int, since a
        # wrapping uint64 scalar warns
        np.add(self.base[:n], (seed + 2 * done * chains * _GAMMA) % _SEED_LIMIT, out=words)
        for shift, factor in _MIX:
            np.right_shift(words, shift, out=spare)
            np.bitwise_xor(words, spare, out=words)
            if factor is not None:
                np.multiply(words, factor, out=words)
        return words.reshape(n_rows, chains, 2)

    def draws(self, seed: int, done: int, n_rows: int, k: int):
        """Axes and uniforms of steps ``done`` to ``done + R`` of every
        chain, from ``stream``: views of buffers the next call overwrites."""
        words = self.stream(seed, done, n_rows)
        return _draws(words, self.spare[:words.size].reshape(words.shape), k)


def _draws(words: np.ndarray, spare: np.ndarray, k: int):
    """Axes (R, C) in [0, k) and uniforms (R, C) in [0, 1) from (R, C, 2)
    uint64 ``words``: [r, c, 0] is chain c's axis at row r and [r, c, 1]
    its uniform. Both buffers are overwritten, and the results are views
    of them."""
    # the top 53 bits as a double in [0, 1), as Generator.random makes it
    np.right_shift(words, 11, out=words)
    unit = np.multiply(words, 2.0 ** -53, out=spare.view(np.float64))
    # at most (1 - 2^-53) k, which rounds below k; not negative, so the
    # cast floors it
    scaled = np.multiply(unit[..., 0], k, out=unit[..., 0])
    axes = words.reshape(-1).view(np.int64)[:scaled.size].reshape(scaled.shape)
    np.copyto(axes, scaled, casting="unsafe")
    return axes, unit[..., 1]


def chain_steps(A, b, Y, axes, uniforms, burn_in, thinning, done, retries, quota,
                out, work=None):
    """Advance C chains on ``A @ y <= b`` through one refill of draws.

    ``Y`` (C, k) holds the current points, ``done`` the steps every chain
    has taken before this refill and ``retries`` (C,) int64 each chain's
    consecutive empty chords; ``Y`` and ``retries`` are updated in place.
    The chains step in lockstep: row r of ``axes`` (R, C, integers in
    [0, k)) and ``uniforms`` (R, C) is a step of every chain along the
    coordinate axis it names, and every row is run. An empty chord is a
    zero-length step: the chain stays where it is, and the step counts
    toward burn-in, thinning and emission like any other. Chain c writes
    its first ``quota[c]`` thinned post-burn-in points chain-major into
    ``out``: its block starts after the quotas of the chains before it,
    and a step past its quota writes nothing. ``work`` is a
    ``_ChainWorkspace`` for this ``A`` and these shapes, or for more rows,
    reused across refills; without one a fresh one is made.

    Along axis j the chord coefficients c = A e_j are A's column j, so one
    ``np.take`` gathers every row, chain and constraint of the refill.
    While every slack s is positive, the chord is [1 / min(c / s), 1 /
    max(c / s)], so each row makes one divide of c by s, one ``max`` and
    one ``min`` along the rows axis and one reciprocal of the two
    extremes, with no mask for the side each constraint bounds. A zero
    slack gives c / 0 = +-inf, which closes that end of the chord at 0, or
    0 / 0 = nan, which ``max`` and ``min`` pass on; a nan or narrower than
    ``_CHORD_TOL`` chord is empty. Each step records only its extremes,
    its move flag and its length. The points, emission, the counters and
    the open-chord check (max(c / s) <= 0 or min(c / s) >= 0) are settled
    once per refill, vectorised over (R, C).

    Raises ``RuntimeError`` when a chain exceeds ``_RETRY_BUDGET``
    consecutive empty chords, or draws an axis along which the chord is
    unbounded; ``Y``, ``retries`` and ``out`` then hold every step made
    before the row at which the chain stopped, and the empty-chord
    counters also count that row when they ran out.
    """
    n_rows, chains = axes.shape
    rows = A.shape[0]
    if work is None:
        work = _ChainWorkspace(A, n_rows, chains)
    coef = work.coef[:n_rows * chains * rows]
    # computed once per refill, then moved along with the points
    slack = b - Y @ A.T
    # every index is in [0, k), and "clip" lets np.take write to out
    # unbuffered
    if work.chains_last:
        coef = np.take(A, axes, axis=1, out=coef.reshape(rows, n_rows, chains),
                       mode="clip")
        # row i's coefficients, (rows, C), are coef[i] of this view
        coef = coef.transpose(1, 0, 2)
        slack = np.ascontiguousarray(slack.T)
        # step lengths broadcast against a row's coefficients
        lengths = work.t[:n_rows]
    else:
        coef = np.take(work.columns, axes, axis=0,
                       out=coef.reshape(n_rows, chains, rows), mode="clip")
        lengths = work.t[:n_rows, :, None]
    q, axis, ends = work.q, work.axis, work.ends
    t_hi, t_lo = ends
    width, t = work.width, work.t
    # the masked step below leaves 0 where a chain does not move
    t[:n_rows] = 0.0
    # an open chord's reciprocal ends are meaningless; _settle stops at
    # the first row where a chain drew one
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for c, e, move, step, u, length in zip(
                coef, work.ext, work.moved, t, uniforms, lengths):
            np.divide(c, slack, out=q)
            np.maximum.reduce(q, axis=axis, out=e[0])
            np.minimum.reduce(q, axis=axis, out=e[1])
            np.divide(1.0, e, out=ends)
            np.subtract(t_hi, t_lo, out=width)
            np.greater_equal(width, _CHORD_TOL, out=move)
            np.multiply(u, width, out=step, where=move)
            np.add(step, t_lo, out=step, where=move)
            slack -= np.multiply(c, length, out=q)
    _settle(work.ext, work.moved, t, axes, work.path, Y, done, retries, burn_in,
            thinning, quota, out, work.points)


def _settle(ext, moved, lengths, axes, path, Y, done, retries, burn_in, thinning,
            quota, out, points):
    """Apply the rows of a refill, ``done`` steps into the chains, to
    ``Y``, ``retries`` and ``out``; stop short and raise at the first row
    where a chain drew an open chord or ran out of retries. ``lengths``
    holds the steps along the refill's ``axes``; ``path`` receives each
    step's move, its length written into its axis, then the points each
    row reaches."""
    n_rows = axes.shape[0]
    e = ext[:n_rows]
    open_chord = (e[:, 0] <= 0.0) | (e[:, 1] >= 0.0)
    unbounded = np.flatnonzero(open_chord.any(axis=1))
    # an open chord is seen before that row's empty chords are counted
    seen = int(unbounded[0]) if unbounded.size else n_rows
    # rows applied to the points, and rows whose empty chords count: one
    # more if a chain ran out of retries
    cut = counted = seen
    # no row seen, no empty chord counted: every chain keeps its count
    if seen:
        rows = np.arange(seen)[:, None]
        # the last move at or before each row, where -1 - retries stands
        # for the empty chords carried in: rows - last counts consecutive ones
        last = np.maximum.accumulate(np.where(moved[:seen], rows, -1 - retries),
                                     axis=0)
        run = rows - last
        over = np.flatnonzero((run > _RETRY_BUDGET).any(axis=1))
        if over.size:
            cut = int(over[0])
            counted = cut + 1
        retries[:] = run[counted - 1]
    # the points, summed in row order as a per-row loop would add them;
    # adding a move's zeros leaves the other coordinates as they are
    path = path[:cut]
    path[...] = 0.0
    np.put_along_axis(path, axes[:cut, :, None], lengths[:cut, :, None], axis=2)
    if cut:
        path[0] += Y
    points_at = list(path)
    for before, point in zip(points_at, points_at[1:]):
        np.add(before, point, out=point)
    # post-burn-in steps after each row: the j-th multiple of thinning
    # gives sample j - 1 of every chain whose quota is larger than that
    after = np.arange(1, cut + 1) + (done - burn_in)
    sample = after // thinning - 1
    due = (after > 0) & (after % thinning == 0)
    emit = due[:, None] & (sample[:, None] < quota)
    # a step's row and chain as one index into the (R * C, k) path
    flat = np.flatnonzero(emit)
    slot = sample[:, None] + (np.cumsum(quota) - quota)
    k = path.shape[2]
    # gathered into the workspace, not a fresh array per refill; every
    # index is in range, and "clip" lets np.take write to out unbuffered
    points = np.take(path.reshape(-1, k), flat, axis=0, out=points[:flat.size],
                     mode="clip")
    out[slot.reshape(-1)[flat]] = points
    if cut:
        Y[...] = path[cut - 1]
    if counted > cut:
        raise RuntimeError(
            "hit-and-run made no progress: every chord within the "
            "retry budget was numerically empty (is the interior empty?)"
        )
    if unbounded.size:
        raise RuntimeError("reduced polytope is unbounded along a chord")


class SampleStream:
    """The feasibility-checked samples of ``_chain_count(config, k)``
    chains on ``polytope``, handed out a block at a time, k being the
    polytope's dimension.

    Every chain starts at the origin of the rounded frame, the analytic
    centre, and discards its own first ``burn_in_steps(config, k)``
    steps, 20 per dimension unless the configuration gives it. Chain c
    keeps ``sample_count // C`` samples, one more for the first
    ``sample_count % C`` chains; ``chain_quotas`` records the counts. The
    chains step in lockstep, every one of them ``burn_in + max(quota) *
    thinning`` steps, an empty chord being a zero-length step; a chain
    with one sample fewer takes its last ``thinning`` steps without
    keeping them. Each refill draws ``_RAND_ROWS`` steps of every chain,
    the last one only the steps that remain, from SplitMix64 seeded with
    ``config.seed``: step t of chain c reads words 2 (t C + c) + 1 and
    + 2, its axis and its uniform, so the refills read words 1 to 2 C
    times the common total, each once. ``chain_steps`` is told the steps
    done before each refill and keeps only the empty-chord counts between
    refills. A step runs along its axis of the rounded frame, in which
    the Dikin ellipsoid at the centre is the unit ball.

    Iterating runs the chains and yields ``(j0, counts, rows)`` per
    block: ``rows`` holds samples ``j0`` to ``j0 + counts[c]`` of each
    chain c, chain-major, already mapped to parameter vectors and checked
    by ``_map_and_check``. A block holds the samples of consecutive
    refills, as many as fit ``_BLOCK_ROWS`` rows, or one refill's, at
    most ``_RAND_ROWS // thinning + 1`` rows per chain, if that is more.
    The chains write into one buffer of that size, and ``rows`` is a view
    of it that the next block overwrites; the chain's buffers are freed
    before the last block is checked. A polytope of dimension 0 skips the
    chain, so every sample is ``polytope.offset``, checked like any
    other. The attributes besides ``polytope`` are those of the
    ``SampleBatch`` the samples make.
    """

    def __init__(self, polytope: Polytope, config: SamplerConfig):
        k = polytope.dimension
        chains = _chain_count(config, k)
        share, extra = divmod(config.sample_count, chains)
        self.polytope = polytope
        self.columns = polytope.names
        self.sample_count = config.sample_count
        self.seed = config.seed
        self.chain_quotas = tuple(share + (c < extra) for c in range(chains))
        self.burn_in = burn_in_steps(config, k)
        self.thinning = config.thinning

    def __iter__(self):
        polytope, burn_in, thinning = self.polytope, self.burn_in, self.thinning
        k = polytope.dimension
        quota = np.array(self.chain_quotas, dtype=np.int64)
        chains = quota.size
        seed = int(self.seed)
        Y = np.zeros((chains, k))
        retries = np.zeros(chains, dtype=np.int64)
        work = _ChainWorkspace(polytope.A, _RAND_ROWS, chains)
        # views of the workspace's buffers, which they would keep alive
        axes = uniforms = None
        # the first chain's quota is the largest
        total = burn_in + int(quota[0]) * thinning

        def kept(step):
            """Samples each chain with quota left has kept after ``step`` steps."""
            return max(step - burn_in, 0) // thinning

        # a block's rows per chain: one refill's, or as many refills' as
        # fit _BLOCK_ROWS rows in all
        per_chain = min(int(quota[0]),
                        max(_RAND_ROWS // thinning + 1, _BLOCK_ROWS // chains))
        block = np.empty((chains * per_chain, len(self.columns)))
        def spans():
            """The first and the end step of each block's refills."""
            first = 0
            for done in range(_RAND_ROWS, total, _RAND_ROWS):
                if kept(min(done + _RAND_ROWS, total)) - kept(first) > per_chain:
                    yield first, done
                    first = done
            yield first, total

        for first, end in spans():
            j0, j1 = kept(first), kept(end)
            counts = np.clip(quota - j0, 0, j1 - j0)
            rows = block[:int(counts.sum())]
            # a polytope of dimension 0 is one point: no chain, every row
            # is the offset
            if k:
                for done in range(first, end, _RAND_ROWS):
                    axes, uniforms = work.draws(seed, done, min(_RAND_ROWS, end - done), k)
                    # the block's rows are samples 0 to j1 - j0 of chains
                    # whose burn-in ends j0 samples later
                    chain_steps(polytope.A, polytope.b, Y, axes, uniforms,
                                burn_in + j0 * thinning, thinning, done, retries,
                                counts, rows[:, :k], work=work)
            if end == total:
                # the chain's buffers go before the last block is checked
                # and counted
                work = axes = uniforms = None
            _map_and_check(polytope, rows)
            yield j0, counts, rows


def hit_and_run(polytope: Polytope, config: SamplerConfig) -> SampleBatch:
    """All the samples of ``SampleStream(polytope, config)`` as one batch,
    chain-major: all of chain 0's samples, then chain 1's, and so on. The
    batch records the stream's chain quotas, burn-in and thinning.

    The (samples, parameters) result is allocated before the first step,
    so a count that cannot be held raises ``MemoryError`` at once; each
    block of the stream is then copied to its place, as the chain-major
    writer places it in ``samples.bin``.
    """
    stream = SampleStream(polytope, config)
    theta = np.empty((config.sample_count, len(stream.columns)))
    for j0, counts, rows in stream:
        for row, part in _chain_parts(stream.chain_quotas, j0, counts, rows):
            theta[row:row + part.shape[0]] = part
    return SampleBatch(columns=stream.columns, data=theta, seed=stream.seed,
                       chain_quotas=stream.chain_quotas, burn_in=stream.burn_in,
                       thinning=stream.thinning)


def _map_and_check(polytope: Polytope, theta: np.ndarray) -> None:
    """Map rounded points to parameter vectors in place and check them.

    Row i of ``theta`` holds a point y in its first k columns and becomes
    ``offset + basis @ y``. This is the hard output contract, not a
    diagnostic: every vector's excess over every packed row of
    ``polytope.system`` at the polytope's margin (``ConstraintSystem.excess``)
    must be at most ``_OUTPUT_FEAS_TOL``. The rows run in blocks whose
    mapped vectors and row excesses together hold ``_CHECK_ENTRIES``
    numbers, so the check's memory does not grow with the sample count.
    """
    k = polytope.dimension
    size = theta.shape[1]
    step = max(1, _CHECK_ENTRIES // (size + len(polytope.system.rows)))
    step = min(step, theta.shape[0])
    mapped = np.empty((step, size))
    for lo in range(0, theta.shape[0], step):
        block = theta[lo:lo + step]
        n = block.shape[0]
        full = np.matmul(block[:, :k], polytope.basis.T, out=mapped[:n])
        full += polytope.offset
        # one block's excesses at a time: none outlives its block
        if polytope.system.excess(full, polytope.delta_strict).max(
                initial=0.0) > _OUTPUT_FEAS_TOL:
            raise RuntimeError("sample violates a compiled row beyond 1e-9")
        block[...] = full
