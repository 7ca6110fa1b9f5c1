"""Monte-Carlo statistics over a batch of sampled parameter vectors.

Flows are linear in the packed parameters, so each alternative's positive
and negative flow is one precomputed coefficient row. The per-sample work
is two (s x size) . (size x m) GEMMs over those per-alternative rows, plus
integer relation counting (``count_relations``), which compares each
unordered pair of alternatives once across a chunk of samples in
O(s x m) memory and counts the comparison masks by popcount. Classical
batches (interaction columns pinned to zero) run through the same
pipeline: with zero interactions the bipolar aggregation reduces exactly
to the weighted preference sum, which keeps the two modes consistent to
the bit.

The exact verdicts the estimates are checked against take one LP per
ordered pair (a, b), all solved in one ``maximise`` call: the largest
F_a - F_b at margin >= ``ROR_EPS_MIN`` decides both "a possibly outranks
b" and "b necessarily outranks a".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipolar import ParameterLayout, flow_coefficients
from .elicitation import ConstraintRow, ConstraintSystem
from .lp import EPS_CAP, FEASIBILITY_TOL, ROR_EPS_MIN, maximise
from .model import PerformanceTable
from .promethee import FLOW_TIE_TOL
from .sampler import Polytope, SampleBatch

__all__ = [
    "SmaaResults",
    "aggregate",
    "exact_ror_matrices",
    "flow_matrices",
    "validate_against_exact_ror",
]

_COUNT_CHUNK = 65536
_PARTITION_TOL = 1e-12
_CONVEXITY_TOL = 1e-9
_FLOW_BALANCE_TOL = 1e-9
_CLASSICAL_COLUMN_TOL = 1e-8


@dataclass(frozen=True)
class SmaaResults:
    """Sample-fraction statistics for one aggregation run.

    ``rank_acceptability[i, r]`` is the share of samples putting
    alternative i at rank r+1. ``central_weights`` holds, per alternative
    that reaches rank 1 at least once, the mean of the samples that put it
    first; alternatives that never reach rank 1 are absent. Frequency
    matrices are fractions of the sample count; the approximate outranking
    matrices follow from the rank-2 frequencies alone.
    """

    alternatives: tuple[str, ...]
    columns: tuple[str, ...]
    mode: str
    sample_count: int
    rank_acceptability: np.ndarray
    central_weights: dict[str, np.ndarray]
    barycenter: np.ndarray
    p2_pref: np.ndarray
    p2_indiff: np.ndarray
    p1_pref: np.ndarray
    p1_indiff: np.ndarray
    p1_incomp: np.ndarray
    ror_possible_approx: np.ndarray
    ror_necessary_approx: np.ndarray


def flow_matrices(
    table: PerformanceTable, data: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positive and negative flow matrices (samples x alternatives)."""
    flow_pos, flow_neg = flow_coefficients(table, ParameterLayout(len(table.criteria)))
    return data @ flow_pos.T, data @ flow_neg.T


def aggregate(
    table: PerformanceTable,
    batch: SampleBatch,
    mode: str = "bipolar",
    polytope: Polytope | None = None,
) -> SmaaResults:
    """Accumulate all relation frequencies over the batch.

    When ``polytope`` is given, the barycenter and every central weight
    vector are checked against its rows (they are convex combinations of
    feasible samples, so this guards the pipeline, not the math).
    """
    if batch.sample_count == 0:
        raise ValueError("sample batch is empty")
    if not np.isfinite(batch.data).all():
        raise ValueError("sample batch holds non-finite values")
    m = len(table.alternatives)
    if m < 2:
        raise ValueError("need at least two alternatives")
    layout = ParameterLayout(len(table.criteria))
    if batch.columns != layout.names:
        raise ValueError("batch columns do not match the parameter layout")
    if mode == "classical":
        inter = batch.data[:, layout.n:]
        if inter.size and np.abs(inter).max() > _CLASSICAL_COLUMN_TOL:
            raise ValueError(
                "classical mode requires interaction and opposing-power "
                "columns pinned to zero"
            )
    elif mode != "bipolar":
        raise ValueError(f"unknown mode {mode!r}")

    flow_pos, flow_neg = flow_coefficients(table, layout)
    rank_counts = np.zeros((m, m), dtype=np.int64)
    p1_pref = np.zeros((m, m), dtype=np.int64)
    p1_ind = np.zeros((m, m), dtype=np.int64)
    p1_inc = np.zeros((m, m), dtype=np.int64)
    p2_pref = np.zeros((m, m), dtype=np.int64)
    p2_ind = np.zeros((m, m), dtype=np.int64)
    cw_sum = np.zeros((m, layout.size))
    data = batch.data
    total = data.shape[0]
    worst_imbalance = 0.0
    for lo in range(0, total, _COUNT_CHUNK):
        z = data[lo : lo + _COUNT_CHUNK]
        s = z.shape[0]
        pos = z @ flow_pos.T
        neg = z @ flow_neg.T
        imbalance = np.abs((pos - neg).sum(axis=1)).max()
        worst_imbalance = max(worst_imbalance, float(imbalance))
        first_mask = np.zeros((s, m), dtype=np.uint8)
        count_relations(pos, neg, FLOW_TIE_TOL, rank_counts, p1_pref, p1_ind,
                        p1_inc, p2_pref, p2_ind, first_mask)
        cw_sum += first_mask.astype(np.float64).T @ z
    if worst_imbalance > _FLOW_BALANCE_TOL:
        raise AssertionError(
            f"net flows do not sum to zero (worst {worst_imbalance:.3e})"
        )

    frac = 1.0 / total
    b = rank_counts * frac
    p2_pref_f = p2_pref * frac
    p2_ind_f = p2_ind * frac
    central = {
        table.alternatives[i]: cw_sum[i] / rank_counts[i, 0]
        for i in range(m)
        if rank_counts[i, 0] > 0
    }
    possible = p2_pref > 0
    necessary = np.abs(p2_pref_f + p2_ind_f - 1.0) <= _PARTITION_TOL

    results = SmaaResults(
        alternatives=table.alternatives,
        columns=batch.columns,
        mode=mode,
        sample_count=total,
        rank_acceptability=b,
        central_weights=central,
        barycenter=data.mean(axis=0),
        p2_pref=p2_pref_f,
        p2_indiff=p2_ind_f,
        p1_pref=p1_pref * frac,
        p1_indiff=p1_ind * frac,
        p1_incomp=p1_inc * frac,
        ror_possible_approx=possible,
        ror_necessary_approx=necessary,
    )
    _check_invariants(results, polytope)
    return results


def _row_counts(mask):
    """True entries per row of a (rows, 8k) bool array: one popcount per
    8-byte word, since each True byte holds a single set bit."""
    return np.bitwise_count(mask.view(np.uint64)).sum(axis=1, dtype=np.int64)


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
    ``x_i - x_k < -tau`` bit for bit. Comparison masks are counted by
    popcount over 8 samples at a time.
    """
    if not tau >= 0.0:
        raise ValueError(f"tie tolerance must be non-negative, got {tau!r}")
    n_samples, m = pos.shape
    # alternative-major copies, so each alternative's samples are contiguous,
    # zero-padded to whole 8-byte words of mask: a padding sample has equal
    # flows everywhere, so with tau >= 0 no strict comparison marks it
    width = -(-n_samples // 8) * 8
    pos_t = np.zeros((m, width))
    neg_t = np.zeros((m, width))
    pos_t[:, :n_samples] = pos.T
    neg_t[:, :n_samples] = neg.T
    net_t = pos_t - neg_t
    # above[i, s]: alternatives whose net flow beats i's by more than tau.
    # Each pass adds at most 1 per entry of gained, so it tallies in uint8
    # and empties into above every 255 passes.
    above = np.zeros((m, width), dtype=np.int32)
    gained = np.zeros((m, width), dtype=np.uint8)
    diff_buf = np.empty((m - 1, width))
    gt_buf = np.empty((m - 1, width), dtype=bool)
    lt_buf = np.empty_like(gt_buf)
    tmp_buf = np.empty_like(gt_buf)
    for i in range(m - 1):
        rest = slice(i + 1, m)
        r = m - 1 - i
        diff, gt, lt, tmp = diff_buf[:r], gt_buf[:r], lt_buf[:r], tmp_buf[:r]

        # P2 on net flows: gt is i P k, lt is k P i, the rest is I
        np.subtract(net_t[i], net_t[rest], out=diff)
        np.greater(diff, tau, out=gt)
        np.less(diff, -tau, out=lt)
        n_gt = _row_counts(gt)
        n_lt = _row_counts(lt)
        p2_pref[i, rest] += n_gt
        p2_pref[rest, i] += n_lt
        tie = n_samples - n_gt - n_lt
        p2_ind[i, rest] += tie
        p2_ind[rest, i] += tie
        # column sums in uint8 cannot overflow in blocks of 255 rows
        for lo in range(0, r, 255):
            above[i] += lt[lo:lo + 255].view(np.uint8).sum(axis=0, dtype=np.uint8)
        np.add(gained[rest], gt.view(np.uint8), out=gained[rest])
        if i % 255 == 254:
            above += gained
            gained.fill(0)

        # P1: ahead marks i ahead on some flow, behind marks k ahead on one;
        # one-sided is a preference, neither is I, both is R
        ahead, behind = gt, lt
        np.subtract(pos_t[i], pos_t[rest], out=diff)
        np.greater(diff, tau, out=ahead)
        np.less(diff, -tau, out=behind)
        np.subtract(neg_t[i], neg_t[rest], out=diff)
        ahead |= np.less(diff, -tau, out=tmp)
        behind |= np.greater(diff, tau, out=tmp)
        n_ahead = _row_counts(ahead)
        n_behind = _row_counts(behind)
        n_both = _row_counts(np.bitwise_and(ahead, behind, out=tmp))
        p1_pref[i, rest] += n_ahead - n_both
        p1_pref[rest, i] += n_behind - n_both
        p1_inc[i, rest] += n_both
        p1_inc[rest, i] += n_both
        ind = n_samples - n_ahead - n_behind + n_both
        p1_ind[i, rest] += ind
        p1_ind[rest, i] += ind

    above += gained
    above = above[:, :n_samples]
    for i in range(m):
        rank_counts[i] += np.bincount(above[i], minlength=m)
    first_mask[:] = (above == 0).T


def _check_invariants(results: SmaaResults, polytope: Polytope | None) -> None:
    m = len(results.alternatives)
    b = results.rank_acceptability
    if np.abs(b.sum(axis=1) - 1.0).max() > _PARTITION_TOL:
        raise AssertionError("rank acceptability rows do not sum to 1")
    off = ~np.eye(m, dtype=bool)
    p2_total = results.p2_pref + results.p2_pref.T + results.p2_indiff
    if np.abs(p2_total[off] - 1.0).max() > _PARTITION_TOL:
        raise AssertionError("ranking relation frequencies do not partition")
    p1_total = (results.p1_pref + results.p1_pref.T
                + results.p1_indiff + results.p1_incomp)
    if np.abs(p1_total[off] - 1.0).max() > _PARTITION_TOL:
        raise AssertionError("partial-order relation frequencies do not partition")
    if not np.array_equal(results.p1_indiff, results.p1_indiff.T):
        raise AssertionError("indifference frequencies are not symmetric")
    if not np.array_equal(results.p1_incomp, results.p1_incomp.T):
        raise AssertionError("incomparability frequencies are not symmetric")
    for i, name in enumerate(results.alternatives):
        if (b[i, 0] > 0) != (name in results.central_weights):
            raise AssertionError("central weight presence must track rank-1 mass")
    if polytope is not None:
        vectors = [results.barycenter, *results.central_weights.values()]
        for vec in vectors:
            if polytope.full_eq_A.shape[0]:
                err = np.abs(polytope.full_eq_A @ vec - polytope.full_eq_b).max()
                if err > _CONVEXITY_TOL:
                    raise AssertionError("mean parameter vector violates an equality")
            if polytope.full_ub_A.shape[0]:
                err = (polytope.full_ub_A @ vec - polytope.full_ub_b).max()
                if err > _CONVEXITY_TOL:
                    raise AssertionError("mean parameter vector leaves the polytope")


def exact_ror_matrices(
    system: ConstraintSystem, table: PerformanceTable
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (possible, necessary) outranking matrices, [a, b] for a over b.

    Compatible parameter sets satisfy the system at margin >= ``ROR_EPS_MIN``.
    With t the largest F_a - F_b over them, a possibly outranks b when
    t >= 0, and b necessarily outranks a when t < ROR_EPS_MIN (no compatible
    set puts a strictly above b). With no compatible set, off-diagonal
    entries are False (possible) and True (necessary); the diagonal is
    always True.
    """
    eps_row = np.eye(system.n_cols)[system.eps_col]
    bounded = system.with_rows([
        ConstraintRow(coefs=eps_row, rel=">=", rhs=ROR_EPS_MIN, origin="margin floor"),
        ConstraintRow(coefs=eps_row, rel="<=", rhs=EPS_CAP, origin="margin cap"),
    ])
    A_eq, b_eq, _, A_ub, b_ub, _ = bounded.split()
    flow_pos, flow_neg = flow_coefficients(table, system.layout)
    net = flow_pos - flow_neg
    m = len(table.alternatives)
    first, second = np.nonzero(~np.eye(m, dtype=bool))
    objectives = np.zeros((first.size, system.n_cols))
    objectives[:, : system.layout.size] = net[first] - net[second]

    possible = np.eye(m, dtype=bool)
    necessary = np.ones((m, m), dtype=bool)
    best = maximise(A_eq, b_eq, A_ub, b_ub, objectives)
    if best.feasible:
        possible[first, second] = best.values >= -FEASIBILITY_TOL
        necessary[second, first] = best.values < ROR_EPS_MIN - FEASIBILITY_TOL
    return possible, necessary


def validate_against_exact_ror(
    results: SmaaResults,
    system: ConstraintSystem,
    table: PerformanceTable,
    strict: bool = True,
) -> dict:
    """Compare the sampled outranking estimates with the exact LP verdicts.

    Checks the two one-way implications (exact-necessary forces frequency
    sum 1; positive preference frequency forces exact-possible) and
    reports, without failing, pairs where the converse directions do not
    hold. The diagonal is trivially consistent and skipped.
    """
    names = table.alternatives
    possible, necessary = exact_ror_matrices(system, table)
    off = ~np.eye(len(names), dtype=bool)
    approx_necessary = np.abs(results.p2_pref + results.p2_indiff - 1.0) <= _PARTITION_TOL
    approx_possible = results.p2_pref > 0

    def named(mask: np.ndarray) -> list[list[str]]:
        return [[names[i], names[j]] for i, j in np.argwhere(mask & off)]

    report = {
        "possible_exact": possible.tolist(),
        "necessary_exact": necessary.tolist(),
        "violations_necessary": named(necessary & ~approx_necessary),
        "violations_possible": named(approx_possible & ~possible),
        "converse_necessary": named(approx_necessary & ~necessary),
        "converse_possible": named(possible & ~approx_possible),
    }
    if strict and (report["violations_necessary"] or report["violations_possible"]):
        raise AssertionError(
            "sampled outranking estimates contradict the exact verdicts: "
            f"{report['violations_necessary']} / {report['violations_possible']}"
        )
    return report
