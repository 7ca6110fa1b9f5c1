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
"""

import numpy as np

from smaa_promethee.sampler import _CHORD_TOL, _RETRY_BUDGET


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
