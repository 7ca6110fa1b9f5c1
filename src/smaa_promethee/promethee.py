"""Classical PROMETHEE I and II.

Preference degrees use the linear ramp with indifference threshold q and
preference threshold p; q == p degenerates to a step. Flows are averaged
over the m - 1 opponents. PROMETHEE I builds a partial order from the
positive/negative flow pair, PROMETHEE II a complete preorder from the net
flow.

Flows are compared in one place only: ``count_relations`` counts the P1
and P2 verdicts and the ranks of a block of sampled flows under one
absolute tie tolerance (the Monte-Carlo aggregation in ``smaa`` runs it
once per chunk of samples). It takes plain (m, n) flows; the whole
8-sample words its popcounts read are kept in its own mask buffers, so
no caller pads anything. Narrow tables are counted by subtracting the
flows of each pair of alternatives; wide ones by sorting each sample's
flows once and comparing sort positions, which gives the same counts bit
for bit (the argument is in ``count_relations``). ``promethee1_relation``
and ``promethee2_ranking`` are that counter run on a single sample, so
the library's verdicts are the pipeline's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import PerformanceTable

__all__ = [
    "FLOW_TIE_TOL",
    "Relation",
    "Flows",
    "preference_degree",
    "preference_tensor",
    "aggregated_preference",
    "flows_from_preference",
    "classical_flows",
    "promethee1_relation",
    "promethee2_ranking",
    "count_relations",
]

# Absolute tolerance under which two flow values count as equal.
FLOW_TIE_TOL = 1e-9


class Relation(IntEnum):
    """Pairwise outranking verdicts; SELF marks the diagonal.

    OUTRANKED is the converse cell of a PREFERRED pair. Without it the
    indifference and incomparability codes could not both stay symmetric.
    """

    SELF = 0
    PREFERRED = 1
    INDIFFERENT = 2
    INCOMPARABLE = 3
    OUTRANKED = 4


@dataclass(frozen=True)
class Flows:
    """Positive, negative and net flow per alternative."""

    positive: np.ndarray
    negative: np.ndarray
    net: np.ndarray

    def __post_init__(self) -> None:
        if not (self.positive.shape == self.negative.shape == self.net.shape):
            raise ValueError("flow arrays must share one shape")


def preference_degree(d, q: float, p: float):
    """Degree to which a difference ``d`` expresses preference.

    0 up to q, linear between q and p, 1 from p on. With q == p the ramp
    collapses to a step: full preference as soon as d exceeds q.
    Accepts scalars or arrays.
    """
    if not 0.0 <= q <= p:
        raise ValueError(f"thresholds must satisfy 0 <= q <= p, got q={q} p={p}")
    d = np.asarray(d, dtype=float)
    if p == q:
        out = (d > q).astype(float)
    else:
        out = np.clip((d - q) / (p - q), 0.0, 1.0)
        # the ramp is open at q: a difference of exactly q is indifference
        out = np.where(d <= q, 0.0, out)
    return out if out.ndim else float(out)


def preference_tensor(table: PerformanceTable) -> np.ndarray:
    """Per-criterion preference degrees for all ordered pairs, (m, m, n)."""
    diff = table.difference_tensor()
    out = np.empty_like(diff)
    for j, c in enumerate(table.criteria):
        out[:, :, j] = preference_degree(diff[:, :, j], c.q, c.p)
    return out


def _check_weights(weights: np.ndarray, n: int, tol: float = 1e-9) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {weights.shape}")
    if np.any(weights < -tol):
        raise ValueError("weights must be nonnegative")
    if abs(weights.sum() - 1.0) > tol:
        raise ValueError(f"weights must sum to 1, got {weights.sum()!r}")
    return weights


def aggregated_preference(table: PerformanceTable, weights) -> np.ndarray:
    """Weighted aggregated preference matrix pi, shape (m, m)."""
    weights = _check_weights(weights, table.n_criteria)
    return preference_tensor(table) @ weights


def flows_from_preference(pi: np.ndarray) -> Flows:
    """Positive/negative/net flows from an aggregated preference matrix."""
    m = pi.shape[0]
    if pi.shape != (m, m) or m < 2:
        raise ValueError("pi must be square with at least two alternatives")
    # diagonal is zero by construction (no self-difference preference)
    positive = (pi.sum(axis=1) - pi.diagonal()) / (m - 1)
    negative = (pi.sum(axis=0) - pi.diagonal()) / (m - 1)
    return Flows(positive=positive, negative=negative, net=positive - negative)


def classical_flows(table: PerformanceTable, weights) -> Flows:
    """PROMETHEE flows of every alternative under one weight vector."""
    return flows_from_preference(aggregated_preference(table, weights))


def _row_counts(mask):
    """True entries per row of a (rows, 8k) bool array: one popcount per
    8-byte word, since each True byte holds a single set bit. A word
    counts at most 8, so the row sums fit uint32; they come back as int64,
    and the tallies never do unsigned arithmetic."""
    words = np.bitwise_count(mask.view(np.uint64))
    return words.sum(axis=1, dtype=np.uint32).astype(np.int64)


def _word_width(n):
    """Columns of a mask buffer for n samples: n rounded up to whole
    8-sample words, which ``_row_counts`` reads. The kernels zero the pad
    columns and never write them."""
    return -(-n // 8) * 8


# count_relations compares sort positions from this many alternatives on
# and subtracts flows below it: sorting rows of a few values costs more
# than their few pairs of subtractions. Position time over subtraction
# time, 5,000 random samples, two or three series, 2-vCPU x86 VM with
# AVX-512, numpy 2.4:
#   m                          32    48         56         64         100
#   no ties                    0.91  0.69       0.59-0.73  0.53-0.64  0.38
#   one duplicated alternative 1.23  0.80-1.01  0.60-0.71  0.61-0.67  0.48
#   flows on a 0.05 grid       2.29  1.21-1.34  1.02-1.07  0.90-0.96  0.63
# so from 64 on the position kernel is the faster one on every kind.
_POSITION_FROM = 64
# samples sorted at a time by the position kernel, which bounds its int64
# argsort buffers at _SORT_TILE x m words
_SORT_TILE = 256


def count_relations(pos_t, neg_t, net_t, tau, counts):
    """Count the relations of one block of flows; return the rank-1 mask.

    ``pos_t``, ``neg_t`` and ``net_t`` are finite (m, n) arrays, one row
    of positive, negative and net flows per alternative and one column
    per sample. ``counts`` is a (6, m, m) int64 array of rank counts, P1
    preferences, indifferences and incomparabilities, and P2 preferences
    and indifferences, in that order, updated in place. The returned (m,
    n) bool mask flags the samples that put each alternative at rank 1.

    Each unordered pair (i, k), k > i, is compared once, over all samples
    at a time, so working memory stays O(samples * m), and the comparison
    masks are counted by popcount over 8 samples at a time: the kernels
    keep their masks in buffers of whole 8-sample words whose pad columns
    are zero, so no pad is ever counted. The reverse
    direction comes from the same comparison: IEEE subtraction is exactly
    antisymmetric (``b - a == -(a - b)``), so ``x_k - x_i > tau`` is
    ``x_i - x_k < -tau`` bit for bit.

    Two kernels give the same counts and mask bit for bit, and m alone
    picks one. Below ``_POSITION_FROM`` alternatives,
    ``_count_by_difference`` subtracts the flows of each pair of rows.
    From it on, ``_count_by_position`` sorts each sample's flows once and
    compares small-integer sort positions. It is exact because rounded
    subtraction is monotone: ``x_i - x_k`` never grows as x_k grows, so
    the k with ``x_i - x_k > tau`` are the first cut_i of any ascending
    order of the sample, exact ties falling wholly in or out. Then
    ``x_i - x_k > tau`` is ``position(k) < cut_i``, and by antisymmetry
    ``x_i - x_k < -tau`` is ``position(i) < cut_k``, whatever the order
    among ties. cut_i is counted with the same rounded subtraction, so no
    verdict moves.
    """
    if not tau >= 0.0:
        raise ValueError(f"tie tolerance must be non-negative, got {tau!r}")
    if len(net_t) >= _POSITION_FROM:
        return _count_by_position(pos_t, neg_t, net_t, tau, counts)
    return _count_by_difference(pos_t, neg_t, net_t, tau, counts)


def _tally_p2(counts, i, n, gt, lt):
    """P2 counts of pair rows (i, k > i) over n samples: gt is i P k, lt
    is k P i, the rest is I. Both are whole-word mask rows."""
    p2_pref, p2_ind = counts[4], counts[5]
    rest = slice(i + 1, None)
    n_gt = _row_counts(gt)
    n_lt = _row_counts(lt)
    p2_pref[i, rest] += n_gt
    p2_pref[rest, i] += n_lt
    tie = n - n_gt - n_lt
    p2_ind[i, rest] += tie
    p2_ind[rest, i] += tie


def _tally_p1(counts, i, n, ahead, behind, tmp):
    """P1 counts of pair rows (i, k > i) over n samples: ahead marks i
    ahead on some flow, behind marks k ahead on one; one-sided is a
    preference, neither is I, both is R. All three are whole-word mask
    rows; ``tmp`` is overwritten."""
    p1_pref, p1_ind, p1_inc = counts[1:4]
    rest = slice(i + 1, None)
    n_ahead = _row_counts(ahead)
    n_behind = _row_counts(behind)
    n_both = _row_counts(np.bitwise_and(ahead, behind, out=tmp))
    p1_pref[i, rest] += n_ahead - n_both
    p1_pref[rest, i] += n_behind - n_both
    p1_inc[i, rest] += n_both
    p1_inc[rest, i] += n_both
    ind = n - n_ahead - n_behind + n_both
    p1_ind[i, rest] += ind
    p1_ind[rest, i] += ind


def _count_by_difference(pos_t, neg_t, net_t, tau, counts):
    """``count_relations`` by one float subtraction per pair of rows and
    flow: (m - 1 - i, n) differences against row i, compared into the
    first n columns of whole-word mask rows."""
    m, n = net_t.shape
    # above[i, s]: alternatives whose net flow beats i's by more than tau,
    # at most m - 1
    above = np.zeros((m, n), dtype=np.uint8 if m <= 256 else np.uint16)
    diff_buf = np.empty((m - 1, n))
    gt_buf = np.zeros((m - 1, _word_width(n)), dtype=bool)
    lt_buf = np.zeros_like(gt_buf)
    tmp_buf = np.zeros_like(gt_buf)
    for i in range(m - 1):
        rest = slice(i + 1, m)
        r = m - 1 - i
        diff = diff_buf[:r]
        gt, lt, tmp = gt_buf[:r, :n], lt_buf[:r, :n], tmp_buf[:r, :n]

        np.subtract(net_t[i], net_t[rest], out=diff)
        np.greater(diff, tau, out=gt)
        np.less(diff, -tau, out=lt)
        _tally_p2(counts, i, n, gt_buf[:r], lt_buf[:r])
        above[i] += lt.view(np.uint8).sum(axis=0, dtype=above.dtype)
        above[rest] += gt.view(np.uint8)

        ahead, behind = gt, lt
        np.subtract(pos_t[i], pos_t[rest], out=diff)
        np.greater(diff, tau, out=ahead)
        np.less(diff, -tau, out=behind)
        np.subtract(neg_t[i], neg_t[rest], out=diff)
        ahead |= np.less(diff, -tau, out=tmp)
        behind |= np.greater(diff, tau, out=tmp)
        _tally_p1(counts, i, n, gt_buf[:r], lt_buf[:r], tmp_buf[:r])

    rank_counts = counts[0]
    for i in range(m):
        rank_counts[i] += np.bincount(above[i], minlength=m)
    return above == 0


def _count_by_position(pos_t, neg_t, net_t, tau, counts):
    """``count_relations`` by sort position: ``_positions`` turns each flow
    into positions and cuts, and the pair loop compares those small
    integers instead of subtracting floats, whole words at a time. The
    ranks and the rank-1 mask come out of the sort of the net flows."""
    m, n = net_t.shape
    first = np.empty((m, n), dtype=bool)
    net_at, net_cut = _positions(net_t, tau, counts[0], first)
    pos_at, pos_cut = _positions(pos_t, tau)
    neg_at, neg_cut = _positions(neg_t, tau)
    gt_buf = np.empty((m - 1, net_at.shape[1]), dtype=bool)
    lt_buf = np.empty_like(gt_buf)
    tmp_buf = np.empty_like(gt_buf)
    for i in range(m - 1):
        rest = slice(i + 1, m)
        r = m - 1 - i
        gt, lt, tmp = gt_buf[:r], lt_buf[:r], tmp_buf[:r]

        # net_i - net_k > tau, then net_k - net_i > tau
        np.less(net_at[rest], net_cut[i], out=gt)
        np.less(net_at[i], net_cut[rest], out=lt)
        _tally_p2(counts, i, n, gt, lt)

        # i ahead of k: pos_i - pos_k > tau or neg_k - neg_i > tau; k ahead
        # of i: pos_k - pos_i > tau or neg_i - neg_k > tau
        ahead = np.less(pos_at[rest], pos_cut[i], out=gt)
        ahead |= np.less(neg_at[i], neg_cut[rest], out=tmp)
        behind = np.less(pos_at[i], pos_cut[rest], out=lt)
        behind |= np.less(neg_at[rest], neg_cut[i], out=tmp)
        _tally_p1(counts, i, n, ahead, behind, tmp)
    return first


def _positions(x, tau, rank_counts=None, first=None):
    """Sort positions and cuts of one (m, n) flow block.

    ``at[i, s]`` is the position of alternative i in an ascending order of
    sample s's m values, and ``cut[i, s]`` counts the alternatives k with
    ``x_i - x_k > tau``. Those k are the first ``cut[i, s]`` positions, so
    ``x_i - x_k > tau`` is ``at[k, s] < cut[i, s]``. Both are uint8, or
    uint16 past 256 alternatives, and both run to whole 8-sample words:
    the pad columns get cut 0, which no position is below, so comparing
    whole rows marks no pad.

    With ``rank_counts`` and ``first`` given, the rank of every alternative
    (how many net flows beat its by more than tau) is tallied into
    ``rank_counts`` and its rank-1 samples flagged in ``first``.
    """
    m, n = x.shape
    dtype = np.uint8 if m <= 256 else np.uint16
    at = np.zeros((m, _word_width(n)), dtype=dtype)
    cut = np.zeros_like(at)
    ramp = np.arange(m, dtype=dtype)
    ramps = np.tile(ramp, min(_SORT_TILE, n))
    for lo in range(0, n, _SORT_TILE):
        xt = np.ascontiguousarray(x[:, lo:lo + _SORT_TILE].T)
        k = xt.shape[0]
        # the alternative at each sorted position, and its flat index in xt
        alt = np.argsort(xt, axis=1)
        flat = (alt + np.arange(0, k * m, m)[:, None]).ravel()
        v = xt.ravel()[flat].reshape(k, m)
        # below[:, j]: sorted values v_l, l < j, with v_j - v_l <= tau, and
        # over[:, j]: those v_l, l > j, with v_l - v_j <= tau. Rounded
        # subtraction is monotone, so each set is a run next to j: count it
        # one distance at a time until no pair at that distance is near.
        below = np.zeros((k, m), dtype=dtype)
        over = np.zeros((k, m), dtype=dtype)
        for d in range(1, m):
            near = np.subtract(v[:, d:], v[:, :-d]) <= tau
            if not near.any():
                break
            below[:, d:] += near
            over[:, :-d] += near
        tile = np.empty((k, m), dtype=dtype)
        tile.ravel()[flat] = ramps[:k * m]
        at[:, lo:lo + k] = tile.T
        tile.ravel()[flat] = (ramp - below).ravel()
        cut[:, lo:lo + k] = tile.T
        if rank_counts is not None:
            # the alternatives after sorted position j, less its near run,
            # beat it by more than tau
            alt *= m
            alt += ramp[::-1] - over
            rank_counts += np.bincount(
                alt.ravel(), minlength=m * m).reshape(m, m)
            # rank 1: no cut reaches past i's position; cuts grow along
            # the sorted order, so the last position's is the largest
            np.greater_equal(at[:, lo:lo + k], ramp[-1] - below[:, -1],
                             out=first[:, lo:lo + k])
    return at, cut


def _one_sample_counts(positive, negative, net, tol):
    """``count_relations``' (6, m, m) counts for a single set of flows,
    passed as three (m, 1) columns."""
    columns = np.array([positive, negative, net], dtype=float)[..., None]
    if not np.isfinite(columns).all():
        raise ValueError("flows must be finite")
    m = columns.shape[1]
    counts = np.zeros((6, m, m), dtype=np.int64)
    count_relations(*columns, tol, counts)
    return counts


def promethee1_relation(flows: Flows, tol: float = FLOW_TIE_TOL) -> np.ndarray:
    """Pairwise PROMETHEE I verdict matrix.

    Entry [i, j] is PREFERRED when i is at least as good as j on both the
    positive and the negative flow and strictly better on at least one,
    INDIFFERENT when both flows tie, INCOMPARABLE when the two flows
    disagree; the mirror cell of a PREFERRED entry is OUTRANKED. Returned
    as an int8 matrix of Relation codes, read off the counts of
    ``count_relations`` for one sample, where exactly one verdict counts 1
    in every off-diagonal cell and none on the diagonal (SELF, 0).
    """
    _, pref, ind, inc, _, _ = _one_sample_counts(
        flows.positive, flows.negative, flows.net, tol)
    codes = (Relation.PREFERRED * pref + Relation.OUTRANKED * pref.T
             + Relation.INDIFFERENT * ind + Relation.INCOMPARABLE * inc)
    return codes.astype(np.int8)


def promethee2_ranking(net: np.ndarray, tol: float = FLOW_TIE_TOL) -> np.ndarray:
    """Complete-preorder ranks from net flows, ties sharing the better rank.

    rank(i) = 1 + number of alternatives k with net(i) - net(k) < -tol,
    the rule of ``count_relations`` for one sample.
    """
    zeros = np.zeros(np.shape(net))
    rank_counts = _one_sample_counts(zeros, zeros, net, tol)[0]
    return 1 + rank_counts.argmax(axis=1)
