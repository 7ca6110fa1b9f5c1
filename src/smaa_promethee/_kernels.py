"""Hot loops: the hit-and-run chain and pairwise relation counting.

The chain has a numba-compiled and a pure-numpy twin; both consume
identical pre-drawn random buffers in the same order and perform the same
elementwise float operations, so a given backend is bit-reproducible for
a seed. Backend selection happens at call time: numba is used when
importable unless SMAA_PROMETHEE_NUMBA=0 or NUMBA_DISABLE_JIT is set in
the environment. Relation counting is numpy only: integer tallies of
vectorised comparisons over one unordered pair of alternatives at a time.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "numba_available",
    "active_backend",
    "chain_steps",
    "count_relations",
    "CHAIN_OK",
    "CHAIN_STUCK",
    "CHAIN_UNBOUNDED",
]

# status codes shared by both chain implementations
CHAIN_OK = 0
CHAIN_STUCK = 1
CHAIN_UNBOUNDED = 2

# a chord narrower than this is treated as numerically empty
_CHORD_TOL = 1e-12
_DOT_TOL = 1e-14

try:
    if os.environ.get("NUMBA_DISABLE_JIT", "0") not in ("", "0"):
        raise ImportError("NUMBA_DISABLE_JIT is set")
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False
    _njit = None


def numba_available() -> bool:
    return _HAVE_NUMBA


def active_backend() -> str:
    """Backend the chain dispatcher will use for the next call."""
    if _HAVE_NUMBA and os.environ.get("SMAA_PROMETHEE_NUMBA", "1") != "0":
        return "numba"
    return "numpy"


def _chain_loop(At, bt, y, dirs, uniforms, burn_in, thinning, retry_budget,
                state, out):
    """Advance the chain while the random buffers last.

    ``state`` holds (steps_done, kept, retries) and is updated in place;
    ``out`` receives thinned post-burn-in points. Every attempted step
    consumes one direction row and one uniform, so random consumption is
    identical across backends. Returns (status, randoms_consumed).
    """
    steps_done = state[0]
    kept = state[1]
    retries = state[2]
    total = burn_in + out.shape[0] * thinning
    n_rows = At.shape[0]
    n_rand = dirs.shape[0]
    consumed = 0
    status = CHAIN_OK
    while steps_done < total and consumed < n_rand:
        d = dirs[consumed]
        u = uniforms[consumed]
        consumed += 1
        norm = np.sqrt(np.dot(d, d))
        if norm <= 0.0:
            retries += 1
            if retries > retry_budget:
                status = CHAIN_STUCK
                break
            continue
        dn = d / norm
        coef = np.dot(At, dn)
        slack = bt - np.dot(At, y)
        t_lo = -np.inf
        t_hi = np.inf
        for r in range(n_rows):
            c = coef[r]
            if c > _DOT_TOL:
                ratio = slack[r] / c
                if ratio < t_hi:
                    t_hi = ratio
            elif c < -_DOT_TOL:
                ratio = slack[r] / c
                if ratio > t_lo:
                    t_lo = ratio
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
            status = CHAIN_UNBOUNDED
            break
        if t_hi - t_lo < _CHORD_TOL:
            retries += 1
            if retries > retry_budget:
                status = CHAIN_STUCK
                break
            continue
        retries = 0
        t = t_lo + u * (t_hi - t_lo)
        step = t * dn
        for i in range(y.shape[0]):
            y[i] = y[i] + step[i]
        steps_done += 1
        if steps_done > burn_in and (steps_done - burn_in) % thinning == 0:
            out[kept] = y
            kept += 1
    state[0] = steps_done
    state[1] = kept
    state[2] = retries
    return status, consumed


def _chain_loop_numpy(At, bt, y, dirs, uniforms, burn_in, thinning, retry_budget,
                      state, out):
    """Vectorised twin of the chain loop (chord bounds without the row scan)."""
    steps_done = int(state[0])
    kept = int(state[1])
    retries = int(state[2])
    total = burn_in + out.shape[0] * thinning
    n_rand = dirs.shape[0]
    consumed = 0
    status = CHAIN_OK
    while steps_done < total and consumed < n_rand:
        d = dirs[consumed]
        u = uniforms[consumed]
        consumed += 1
        norm = np.sqrt(np.dot(d, d))
        if norm <= 0.0:
            retries += 1
            if retries > retry_budget:
                status = CHAIN_STUCK
                break
            continue
        dn = d / norm
        coef = np.dot(At, dn)
        slack = bt - np.dot(At, y)
        upper = coef > _DOT_TOL
        lower = coef < -_DOT_TOL
        # min/max are exact, so the bounds match the scalar scan bit for bit
        t_hi = np.min(slack[upper] / coef[upper]) if upper.any() else np.inf
        t_lo = np.max(slack[lower] / coef[lower]) if lower.any() else -np.inf
        if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
            status = CHAIN_UNBOUNDED
            break
        if t_hi - t_lo < _CHORD_TOL:
            retries += 1
            if retries > retry_budget:
                status = CHAIN_STUCK
                break
            continue
        retries = 0
        t = t_lo + u * (t_hi - t_lo)
        y += t * dn
        steps_done += 1
        if steps_done > burn_in and (steps_done - burn_in) % thinning == 0:
            out[kept] = y
            kept += 1
    state[0] = steps_done
    state[1] = kept
    state[2] = retries
    return status, consumed


_chain_numba = _njit(cache=True, nogil=True)(_chain_loop) if _HAVE_NUMBA else None


def chain_steps(At, bt, y, dirs, uniforms, burn_in, thinning, retry_budget,
                state, out, backend: str | None = None):
    """Dispatch one chain burst to the selected backend."""
    if backend is None:
        backend = active_backend()
    if backend == "numba" and _chain_numba is not None:
        return _chain_numba(At, bt, y, dirs, uniforms, burn_in, thinning,
                            retry_budget, state, out)
    return _chain_loop_numpy(At, bt, y, dirs, uniforms, burn_in, thinning,
                             retry_budget, state, out)


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
