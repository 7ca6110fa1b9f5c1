"""Hot loops: the batched hit-and-run chain and pairwise relation counting.

Both are numpy only. The chain steps C independent chains together: one
refill of pre-drawn directions and uniforms moves every chain up to R
steps, with one GEMM for all chord coefficients of the refill and every
step vectorised over the chains, so a seed gives bit-identical samples on
a given numpy build. Relation counting tallies vectorised comparisons
over one unordered pair of alternatives at a time.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "chain_steps",
    "count_relations",
    "CHAIN_OK",
    "CHAIN_STUCK",
    "CHAIN_UNBOUNDED",
]

CHAIN_OK = 0
CHAIN_STUCK = 1
CHAIN_UNBOUNDED = 2

# a chord narrower than this is treated as numerically empty
_CHORD_TOL = 1e-12
_DOT_TOL = 1e-14


def chain_steps(A, b, Y, dirs, uniforms, burn_in, thinning, retry_budget,
                state, quota, out):
    """Advance C chains on ``A @ y <= b`` through one refill of draws.

    ``Y`` (C, k) holds the current points and ``state`` (3, C) int64 the
    steps done, samples kept and consecutive empty-chord retries of each
    chain; both are updated in place. Row r of ``dirs`` (R, C, k, not
    normalised) and ``uniforms`` (R, C) drives step attempt r of every
    chain. An empty chord leaves its chain in place and counts as a retry,
    not a step. Chain c keeps ``quota[c]`` thinned post-burn-in points,
    written chain-major into ``out``: its block starts after the quotas of
    the chains before it. Returns (status, rows of draws consumed).
    """
    steps, kept, retries = state
    total = burn_in + quota * thinning
    first = np.cumsum(quota) - quota
    # next output row of each chain, and the step count that fills it
    slot = first + kept
    due = burn_in + (kept + 1) * thinning
    n_rows, chains, k = dirs.shape
    dn = dirs / np.linalg.norm(dirs, axis=2, keepdims=True)
    coef = (dn.reshape(-1, k) @ A.T).reshape(n_rows, chains, -1)
    upper = coef > _DOT_TOL
    lower = coef < -_DOT_TOL
    # a direction with no bounding row on one side leaves the chord open
    open_chord = ~(upper.any(axis=2) & lower.any(axis=2))
    any_open = open_chord.any(axis=1).tolist()
    # computed once per refill, then moved along with the points
    slack = b - Y @ A.T
    status, consumed = CHAIN_OK, n_rows
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(n_rows):
            active = steps < total
            if not active.any():
                consumed = r
                break
            if any_open[r] and (active & open_chord[r]).any():
                status, consumed = CHAIN_UNBOUNDED, r + 1
                break
            ratio = slack / coef[r]
            t_hi = np.where(upper[r], ratio, np.inf).min(axis=1)
            t_lo = np.where(lower[r], ratio, -np.inf).max(axis=1)
            width = t_hi - t_lo
            move = active & (width >= _CHORD_TOL)
            retries += active
            retries *= ~move
            if retries.max() > retry_budget:
                status, consumed = CHAIN_STUCK, r + 1
                break
            t = np.where(move, t_lo + uniforms[r] * width, 0.0)
            Y += t[:, None] * dn[r]
            slack -= t[:, None] * coef[r]
            steps += move
            emit = np.flatnonzero(move & (steps == due))
            if emit.size:
                out[slot[emit]] = Y[emit]
                slot[emit] += 1
                due[emit] += thinning
    kept[:] = slot - first
    return status, consumed


def count_relations(pos, neg, tau, rank_counts, p1_pref, p1_ind, p1_inc,
                    p2_pref, p2_ind, first_mask):
    """Accumulate relation counts for one block of per-sample flows.

    ``pos`` and ``neg`` are finite (samples, m) flow arrays, the count
    matrices are int64 and updated in place, and ``first_mask``
    (samples, m, uint8) flags rank-1 hits for the central weight
    accumulation. ``tau`` must be non-negative.

    Each unordered pair (i, k), k > i, is compared once, over all samples
    at a time, so working memory stays O(samples * m). The reverse
    direction reuses the same differences: IEEE subtraction is exactly
    antisymmetric (``b - a == -(a - b)``), so ``x_k - x_i > tau`` is
    ``x_i - x_k < -tau`` bit for bit.
    """
    if not tau >= 0.0:
        raise ValueError(f"tie tolerance must be non-negative, got {tau!r}")
    n_samples, m = pos.shape
    # alternative-major copies, so each alternative's samples are contiguous
    pos_t = np.ascontiguousarray(pos.T)
    neg_t = np.ascontiguousarray(neg.T)
    net_t = pos_t - neg_t
    # above[i, s]: alternatives whose net flow beats i's by more than tau
    above = np.zeros((m, n_samples), dtype=np.int64)
    diff_buf = np.empty((m - 1, n_samples))
    gt_buf = np.empty((m - 1, n_samples), dtype=bool)
    lt_buf = np.empty_like(gt_buf)
    for i in range(m - 1):
        rest = slice(i + 1, m)
        r = m - 1 - i
        diff, gt, lt = diff_buf[:r], gt_buf[:r], lt_buf[:r]

        # P2 on net flows: gt is i P k, lt is k P i, the rest is I
        np.subtract(net_t[i], net_t[rest], out=diff)
        np.greater(diff, tau, out=gt)
        np.less(diff, -tau, out=lt)
        n_gt = np.count_nonzero(gt, axis=1)
        n_lt = np.count_nonzero(lt, axis=1)
        p2_pref[i, rest] += n_gt
        p2_pref[rest, i] += n_lt
        tie = n_samples - n_gt - n_lt
        p2_ind[i, rest] += tie
        p2_ind[rest, i] += tie
        above[i] += np.count_nonzero(lt, axis=0)
        above[rest] += gt

        # P1: ahead marks i ahead on some flow, behind marks k ahead on one;
        # one-sided is a preference, neither is I, both is R
        ahead, behind = gt, lt
        np.subtract(pos_t[i], pos_t[rest], out=diff)
        np.greater(diff, tau, out=ahead)
        np.less(diff, -tau, out=behind)
        np.subtract(neg_t[i], neg_t[rest], out=diff)
        ahead |= diff < -tau
        behind |= diff > tau
        n_ahead = np.count_nonzero(ahead, axis=1)
        n_behind = np.count_nonzero(behind, axis=1)
        n_both = np.count_nonzero(ahead & behind, axis=1)
        p1_pref[i, rest] += n_ahead - n_both
        p1_pref[rest, i] += n_behind - n_both
        p1_inc[i, rest] += n_both
        p1_inc[rest, i] += n_both
        ind = n_samples - n_ahead - n_behind + n_both
        p1_ind[i, rest] += ind
        p1_ind[rest, i] += ind

    for i in range(m):
        rank_counts[i] += np.bincount(above[i], minlength=m)
    first_mask[:] = (above == 0).T
