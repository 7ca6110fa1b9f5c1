"""Per-row reference for the hit-and-run chain's bit-identity tests.

This is ``sampler.chain_steps`` as it was before the chain settled its
bookkeeping once per refill: every row finds its chord, checks it for an
open end, updates the retry counters, checks the budget and writes the
samples it emits. The chord ends are the reciprocal ones, 1 / max(c / s)
and 1 / min(c / s); ``test_kernels`` checks them against the masked
minimum and maximum of s / c. The package's chain must leave ``Y``,
``state`` and ``out`` exactly as this loop does, also when it raises.
"""

import numpy as np

from smaa_promethee.sampler import _CHORD_TOL, _RETRY_BUDGET


def chain_steps(A, b, Y, dirs, uniforms, burn_in, thinning, state, quota, out):
    """Advance C chains on ``A @ y <= b`` through one refill of draws.

    ``Y`` (C, k) holds the current points and ``state`` (3, C) int64 the
    steps done, samples kept and consecutive empty-chord retries of each
    chain; both are updated in place. Row r of ``dirs`` (R, C, k, not
    normalised) and ``uniforms`` (R, C) drives step attempt r of every
    chain. An empty chord leaves its chain in place and counts as a retry,
    not a step. Chain c keeps ``quota[c]`` thinned post-burn-in points,
    written chain-major into ``out``: its block starts after the quotas of
    the chains before it.

    Raises ``RuntimeError`` when a chain exceeds ``_RETRY_BUDGET``
    consecutive empty chords, or when a chain that still has steps to do
    draws a direction along which the chord is unbounded; ``state``,
    ``Y`` and ``out`` then hold every step made before the chain stopped.
    """
    steps, kept, retries = state
    total = burn_in + quota * thinning
    first = np.cumsum(quota) - quota
    # next output row of each chain, and the step count that fills it
    slot = first + kept
    due = burn_in + (kept + 1) * thinning
    n_rows, chains, k = dirs.shape
    # the chain's normalisation: einsum may round the sum of squares
    # differently from np.linalg.norm
    dn = dirs / np.sqrt(np.einsum("rck,rck->rc", dirs, dirs))[:, :, None]
    flat = dn.reshape(-1, k)
    # the product the chain takes: OpenBLAS can round A @ D^T and D @ A^T
    # differently in the last bit
    coef = (A @ flat.T).T if chains >= A.shape[0] else flat @ A.T
    coef = coef.reshape(n_rows, chains, -1)
    # computed once per refill, then moved along with the points
    slack = b - Y @ A.T
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for r in range(n_rows):
                active = steps < total
                if not active.any():
                    return
                ratio = coef[r] / slack
                hi = ratio.max(axis=1)
                lo = ratio.min(axis=1)
                # a direction that no row bounds on one side
                if (active & ((hi <= 0.0) | (lo >= 0.0))).any():
                    raise RuntimeError("reduced polytope is unbounded along a chord")
                t_hi = 1.0 / hi
                t_lo = 1.0 / lo
                # nan where a zero slack met a zero coefficient: empty
                width = t_hi - t_lo
                move = active & (width >= _CHORD_TOL)
                retries += active
                retries *= ~move
                if retries.max() > _RETRY_BUDGET:
                    raise RuntimeError(
                        "hit-and-run made no progress: every chord within the "
                        "retry budget was numerically empty (is the interior empty?)"
                    )
                t = np.where(move, t_lo + uniforms[r] * width, 0.0)
                Y += t[:, None] * dn[r]
                slack -= t[:, None] * coef[r]
                steps += move
                emit = np.flatnonzero(move & (steps == due))
                if emit.size:
                    out[slot[emit]] = Y[emit]
                    slot[emit] += 1
                    due[emit] += thinning
    finally:
        kept[:] = slot - first
