"""Per-row reference for the hit-and-run chain's bit-identity tests.

This is ``sampler.chain_steps`` written as a loop over the rows of a
refill: every row finds its chord along each chain's coordinate axis,
checks it for an open end, updates the empty-chord counters, checks the
budget, moves every chain along its axis and writes the samples it emits.
The chains step in lockstep, and an empty chord is a step of length 0.
The chord ends are the reciprocal ones, 1 / max(c / s) and 1 / min(c / s),
with c the column of A that the axis picks; ``test_kernels`` checks them
against the masked minimum and maximum of s / c. The loop keeps its own
per-row counts of the steps taken and the samples each chain has kept.
The package's chain must leave ``Y``, ``retries`` and ``out`` exactly as
this loop does, also when it raises.

``splitmix64`` is the generator written as its sequential recurrence in
Python integers, and ``draws`` turns its words into the axes and
uniforms that ``sampler.hit_and_run`` gives each step.
"""

import numpy as np

from smaa_promethee.sampler import _CHORD_TOL, _RETRY_BUDGET

MASK = 2 ** 64 - 1


def splitmix64(seed, count):
    """The first ``count`` words of SplitMix64 seeded with ``seed``
    (Steele, Lea & Flood 2014), one state step at a time."""
    words = []
    state = seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        words.append(z ^ (z >> 31))
    return words


def draws(seed, done, rows, chains, k):
    """Axes (rows, chains) and uniforms of steps ``done`` to ``done +
    rows``: step t of chain c reads words 2 (t C + c) + 1 and + 2, the
    axis floor((w >> 11) 2^-53 k) and the uniform (w >> 11) 2^-53."""
    words = splitmix64(seed, 2 * (done + rows) * chains)[2 * done * chains:]
    top = np.array([w >> 11 for w in words], dtype=float).reshape(rows, chains, 2)
    return np.floor(top[..., 0] * (k * 2.0 ** -53)).astype(np.int64), top[..., 1] * 2.0 ** -53


def chain_steps(A, b, Y, axes, uniforms, burn_in, thinning, done, retries, quota,
                out):
    """Advance C chains on ``A @ y <= b`` through one refill of draws.

    ``Y`` (C, k) holds the current points, ``done`` the steps every chain
    has taken before this refill and ``retries`` (C,) int64 each chain's
    consecutive empty chords; ``Y`` and ``retries`` are updated in place.
    Row r of ``axes`` (R, C, integers in [0, k)) and ``uniforms`` (R, C)
    is a step of every chain along the coordinate axis it names, and every
    row is run. An empty chord leaves its chain in place and still counts
    as a step. Chain c keeps its first ``quota[c]`` thinned post-burn-in
    points, written chain-major into ``out``: its block starts after the
    quotas of the chains before it.

    Raises ``RuntimeError`` when a chain exceeds ``_RETRY_BUDGET``
    consecutive empty chords, or draws an axis along which the chord is
    unbounded; ``Y``, ``retries`` and ``out`` then hold every step made
    before the chain stopped.
    """
    first = np.cumsum(quota) - quota
    chains = np.arange(Y.shape[0])
    steps = done
    kept = np.clip((done - burn_in) // thinning, 0, quota)
    # computed once per refill, then moved along with the points
    slack = b - Y @ A.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r in range(axes.shape[0]):
            # the chord coefficients along axis j are A's column j
            coef = A.T[axes[r]]
            ratio = coef / slack
            hi = ratio.max(axis=1)
            lo = ratio.min(axis=1)
            # an axis that no row bounds on one side
            if ((hi <= 0.0) | (lo >= 0.0)).any():
                raise RuntimeError("reduced polytope is unbounded along a chord")
            t_hi = 1.0 / hi
            t_lo = 1.0 / lo
            # nan where a zero slack met a zero coefficient: empty
            width = t_hi - t_lo
            move = width >= _CHORD_TOL
            retries += 1
            retries *= ~move
            if retries.max() > _RETRY_BUDGET:
                raise RuntimeError(
                    "hit-and-run made no progress: every chord within the "
                    "retry budget was numerically empty (is the interior empty?)"
                )
            t = np.where(move, t_lo + uniforms[r] * width, 0.0)
            Y[chains, axes[r]] += t
            slack -= t[:, None] * coef
            steps += 1
            due = burn_in + (kept + 1) * thinning
            emit = np.flatnonzero((steps == due) & (kept < quota))
            out[first[emit] + kept[emit]] = Y[emit]
            kept[emit] += 1
