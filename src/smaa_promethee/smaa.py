"""Monte-Carlo statistics over a batch of sampled parameter vectors.

Flows are linear in the packed parameters, so each alternative's positive
and negative flow is one precomputed coefficient row. The per-sample work
is one (2m x size) . (size x s) GEMM per chunk of s samples, which gives
both flows of every alternative as one alternative-major (2m, s) block,
plus integer relation counting straight off its two halves by
``promethee.count_relations`` (re-exported here), which compares each
unordered pair of alternatives once across the chunk in O(s x m) memory
and counts the comparison masks by popcount, in buffers of its own.
From ``promethee``'s ``_POSITION_FROM`` alternatives on, it first sorts
each sample's flows and then compares byte-sized sort positions instead
of subtracting flows; the counts are the same bit for bit. The same
counter gives the library's one-vector PROMETHEE I and II verdicts.
Classical batches (interaction columns pinned to zero) run through the same
pipeline: with zero interactions the bipolar aggregation reduces exactly
to the weighted preference sum, which keeps the two modes consistent to
the bit.

``Tally`` does the counting, fed any number of samples at a time and
counting them in chunks of ``_COUNT_CHUNK``: the command line feeds it
each block of a ``SampleStream`` as the chains make it, and
``aggregate`` a whole ``SampleBatch``. The counts do not depend on the
blocks; the central weights and the barycenter, sums of the samples,
may differ in the last bit.

The exact verdicts the estimates are checked against take one LP per
ordered pair (a, b), all solved in one ``maximise_over`` call: the
largest F_a - F_b at margin >= ``ROR_EPS_MIN`` decides both "a possibly
outranks b" and "b necessarily outranks a".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bipolar import ParameterLayout, flow_coefficients
from .elicitation import ConstraintSystem
from .lp import FEASIBILITY_TOL, ROR_EPS_MIN, maximise_over
from .model import PerformanceTable
# Tally.add reaches count_relations through this module's global, so a
# wrapper set on smaa.count_relations sees every chunk
from .promethee import FLOW_TIE_TOL, count_relations
from .sampler import Polytope, SampleBatch

__all__ = [
    "SmaaResults",
    "Tally",
    "aggregate",
    "exact_ror_matrices",
    "flow_matrices",
    "validate_against_exact_ror",
]

# samples per counting chunk: the per-chunk arrays are (m, chunk), so
# this bounds aggregation's working memory. It is no smaller because the
# per-chunk and per-pair calls then cost more than the smaller arrays save
# (5,000 samples x 100 alternatives, counted by sort position, aggregate
# in a median 75-82 ms as one chunk and 114-119 ms as chunks of 655, over
# 9 runs in each of two series on a 2-vCPU VM)
_COUNT_CHUNK = 8192
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


class Tally:
    """Relation counts and parameter sums, fed one block of samples at a
    time, and the ``SmaaResults`` they make.

    ``columns`` must be the parameter layout's names and ``mode``
    ``"classical"`` or ``"bipolar"``, else ``ValueError``. ``add`` counts
    its samples in chunks of ``_COUNT_CHUNK``, each checked for non-finite
    values (and, in classical mode, for nonzero interaction columns)
    before it is counted. One GEMM per chunk writes the positive and
    negative flows into an alternative-major buffer, above the net flows,
    and ``count_relations`` reads their rows in place; the rank-1 mask it
    returns selects the samples summed into the central weights. The
    buffer, 3m rows by the largest chunk yet, is reused from chunk to
    chunk, so the working memory is a fixed number of (m, chunk) arrays,
    whatever the sample count, and the counts do not depend on how the
    samples are cut into blocks.
    """

    def __init__(self, table: PerformanceTable, columns: tuple[str, ...],
                 mode: str = "bipolar"):
        m = len(table.alternatives)
        if m < 2:
            raise ValueError("need at least two alternatives")
        layout = ParameterLayout(len(table.criteria))
        if tuple(columns) != layout.names:
            raise ValueError("batch columns do not match the parameter layout")
        if mode not in ("classical", "bipolar"):
            raise ValueError(f"unknown mode {mode!r}")
        self.table, self.columns, self.mode = table, layout.names, mode
        self.flows = np.vstack(flow_coefficients(table, layout))
        # rank, p1_pref, p1_ind, p1_inc, p2_pref, p2_ind, as count_relations
        self.counts = np.zeros((6, m, m), dtype=np.int64)
        self.cw_sum = np.zeros((m, layout.size))
        self.total_sum = np.zeros(layout.size)
        self.total = 0
        self.worst_imbalance = 0.0
        # a chunk's flows, in a buffer grown to the largest chunk yet and
        # then reused: a fresh one per chunk would be paged in again
        self.flow_buf = np.empty((3 * m, 0))

    def add(self, samples: np.ndarray) -> None:
        """Count the (samples, parameters) block ``samples``, in chunks of
        ``_COUNT_CHUNK``."""
        for lo in range(0, samples.shape[0], _COUNT_CHUNK):
            self._add_chunk(samples[lo:lo + _COUNT_CHUNK])

    def _add_chunk(self, z: np.ndarray) -> None:
        if not np.isfinite(z).all():
            raise ValueError("sample batch holds non-finite values")
        if self.mode == "classical":
            inter = z[:, len(self.table.criteria):]
            if inter.size and (inter.max() > _CLASSICAL_COLUMN_TOL
                               or inter.min() < -_CLASSICAL_COLUMN_TOL):
                raise ValueError(
                    "classical mode requires interaction and opposing-power "
                    "columns pinned to zero"
                )
        m, n = self.counts.shape[1], z.shape[0]
        if self.flow_buf.shape[1] < n:
            self.flow_buf = np.empty((3 * m, n))
        flows = np.matmul(self.flows, z.T, out=self.flow_buf[:2 * m, :n])
        pos_t, neg_t = flows[:m], flows[m:]
        net_t = np.subtract(pos_t, neg_t, out=self.flow_buf[2 * m:, :n])
        imbalance = np.abs(net_t.sum(axis=0)).max()
        self.worst_imbalance = max(self.worst_imbalance, float(imbalance))
        first = count_relations(pos_t, neg_t, net_t, FLOW_TIE_TOL, self.counts)
        # the product's operands keep the layout of a (samples, m) mask's
        # transpose, which fixes the central weights to the last bit
        self.cw_sum += np.ascontiguousarray(first.T, dtype=np.float64).T @ z
        self.total_sum += z.sum(axis=0)
        self.total += n

    def results(self, polytope: Polytope | None = None) -> SmaaResults:
        """The frequencies of every sample added so far. When ``polytope``
        is given, the barycenter and every central weight vector are
        checked against the rows it was built from, at its margin, by
        ``ConstraintSystem.excess`` (they are convex combinations of
        feasible samples, so this guards the pipeline, not the math)."""
        if self.total == 0:
            raise ValueError("sample batch is empty")
        if self.worst_imbalance > _FLOW_BALANCE_TOL:
            raise AssertionError(
                f"net flows do not sum to zero (worst {self.worst_imbalance:.3e})"
            )
        alternatives = self.table.alternatives
        rank_counts, p1_pref, p1_ind, p1_inc, p2_pref, p2_ind = self.counts
        frac = 1.0 / self.total
        p2_pref_f = p2_pref * frac
        p2_ind_f = p2_ind * frac
        central = {
            name: self.cw_sum[i] / rank_counts[i, 0]
            for i, name in enumerate(alternatives)
            if rank_counts[i, 0] > 0
        }
        results = SmaaResults(
            alternatives=alternatives,
            columns=self.columns,
            mode=self.mode,
            sample_count=self.total,
            rank_acceptability=rank_counts * frac,
            central_weights=central,
            barycenter=self.total_sum / self.total,
            p2_pref=p2_pref_f,
            p2_indiff=p2_ind_f,
            p1_pref=p1_pref * frac,
            p1_indiff=p1_ind * frac,
            p1_incomp=p1_inc * frac,
            ror_possible_approx=p2_pref > 0,
            ror_necessary_approx=np.abs(p2_pref_f + p2_ind_f - 1.0) <= _PARTITION_TOL,
        )
        _check_invariants(results, polytope)
        return results


def aggregate(
    table: PerformanceTable,
    batch: SampleBatch,
    mode: str = "bipolar",
    polytope: Polytope | None = None,
) -> SmaaResults:
    """Accumulate all relation frequencies over the batch: a ``Tally`` fed
    the whole batch, then its results, checked against ``polytope`` when
    it is given."""
    tally = Tally(table, batch.columns, mode)
    tally.add(batch.data)
    return tally.results(polytope)


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
        vectors = np.array([results.barycenter, *results.central_weights.values()])
        if polytope.system.excess(vectors, polytope.delta_strict).max(
                initial=0.0) > _CONVEXITY_TOL:
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
    flow_pos, flow_neg = flow_coefficients(table, system.layout)
    net = flow_pos - flow_neg
    m = len(table.alternatives)
    first, second = np.nonzero(~np.eye(m, dtype=bool))
    objectives = np.zeros((first.size, system.n_cols))
    objectives[:, : system.layout.size] = net[first] - net[second]

    possible = np.eye(m, dtype=bool)
    necessary = np.ones((m, m), dtype=bool)
    best = maximise_over(system, objectives, eps_floor=ROR_EPS_MIN)
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
    hold. The estimates are the ones ``aggregate`` put in ``results``,
    the ones the reports carry. The diagonal is trivially consistent and
    skipped.
    """
    names = table.alternatives
    possible, necessary = exact_ror_matrices(system, table)
    off = ~np.eye(len(names), dtype=bool)
    approx_necessary = results.ror_necessary_approx
    approx_possible = results.ror_possible_approx

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
