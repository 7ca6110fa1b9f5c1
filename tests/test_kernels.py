import tracemalloc

import numpy as np
import pytest

import reference_chain
from smaa_promethee import promethee, sampler
from smaa_promethee.elicitation import (
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.model import load_problem
from smaa_promethee.promethee import (
    _POSITION_FROM,
    _count_by_difference,
    _count_by_position,
)
from smaa_promethee.sampler import (
    SamplerConfig,
    _ChainWorkspace,
    build_polytope,
    chain_steps,
    hit_and_run,
)
from smaa_promethee.smaa import count_relations

from conftest import FIXTURES, benchmark_instance

STUCK = "made no progress"
UNBOUNDED = "unbounded along a chord"


def square_problem():
    """Unit square as <= rows."""
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    return A, b


def ridge_problem():
    """x + z <= 1 and -x + y + z <= 1 meet on a ridge through (0, 0, 1),
    inside -1 <= x <= 1, -1 <= y <= 1 and z >= -1. On the ridge both rows
    have slack 0: axis 0 leaves through both of them (+inf and -inf, the
    chord [0, -0]), axis 1 runs along the first (0 / 0 = nan), and axis 2
    points down into the polytope."""
    A = np.array([[1.0, 0.0, 1.0], [-1.0, 1.0, 1.0],
                  [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    return A, np.ones(7)


RIDGE = [0.0, 0.0, 1.0]


def open_box_problem():
    """0 <= x <= 1, 0 <= y <= 1 and z >= 0: axes 0 and 1 are bounded both
    ways, and along axis 2 only z >= 0 bounds the chord."""
    A = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])
    return A, np.array([1.0, 0.0, 1.0, 0.0, 0.0])


def axis_draws(seed, n_rand, chains, k=2):
    """Axes in [0, k) and uniforms, drawn in ``hit_and_run``'s order."""
    rng = np.random.default_rng(seed)
    return rng.integers(k, size=(n_rand, chains)), rng.random((n_rand, chains))


def run_chain(axes, uniforms, quota, burn_in, thinning, starts=None,
              problem=square_problem):
    A, b = problem()
    chains = axes.shape[1]
    Y = np.full((chains, 2), 0.5) if starts is None else np.array(starts, dtype=float)
    retries = np.zeros(chains, dtype=np.int64)
    quota = np.asarray(quota, dtype=np.int64)
    out = np.full((int(quota.sum()), Y.shape[1]), np.nan)
    assert chain_steps(
        A, b, Y, axes, uniforms, burn_in, thinning, 0, retries, quota, out
    ) is None
    return retries, out, Y


def kept_per_chain(out, quota):
    """The samples each chain has written into its nan-filled block of
    ``out``, which it fills from the front."""
    blocks = np.split(out, np.cumsum(quota)[:-1])
    return [int(np.isfinite(block).all(axis=1).sum()) for block in blocks]


def test_numpy_chain_stays_inside():
    # three chains with unequal quotas: chain-major blocks of 200, 199, 199
    quota = [200, 199, 199]
    axes, uniforms = axis_draws(123, 50 + 200 * 2, 3)
    # every draw row is a step of every chain, and 50 + 200 * 2 rows finish
    # the longest quota: every chain fills its block
    retries, out, Y = run_chain(axes, uniforms, quota, 50, 2)
    assert retries.tolist() == [0] * 3
    assert np.all(out >= -1e-12) and np.all(out <= 1.0 + 1e-12)
    # points move: no two consecutive kept points of one chain coincide
    for block in np.split(out, np.cumsum(quota)[:-1]):
        assert np.min(np.abs(np.diff(block, axis=0)).sum(axis=1)) > 0.0
    # thinning 2 ends chain 0 on a kept step; the chains with one sample
    # fewer take two more steps that they do not keep
    last = out[np.cumsum(quota) - 1]
    assert np.array_equal(Y[0], last[0])
    assert (Y[1:] != last[1:]).any(axis=1).all()
    assert_chain_matches_reference(*square_problem(), np.full((3, 2), 0.5),
                                   axes, uniforms, 50, 2, quota)


def test_each_step_moves_one_coordinate_along_its_axis():
    # consecutive points of a chain differ in at most the coordinate that
    # the step's axis names
    axes, uniforms = axis_draws(21, 120, 3)
    _, out, _ = run_chain(axes, uniforms, [100] * 3, 20, 1)
    for c, block in enumerate(np.split(out, 3)):
        changed = np.diff(block, axis=0) != 0.0
        assert changed.sum(axis=1).max() == 1
        # with burn-in 20, kept points i and i + 1 are one step apart,
        # the step of row 21 + i
        drawn = np.zeros_like(changed)
        drawn[np.arange(99), axes[21:120, c]] = True
        assert not (changed & ~drawn).any()


def test_chains_read_only_their_own_draws():
    axes, uniforms = axis_draws(8, 300, 4)
    _, out, Y = run_chain(axes, uniforms, [60] * 4, 30, 3)
    for c in range(4):
        _, alone, y = run_chain(
            axes[:, c:c + 1], uniforms[:, c:c + 1], [60], 30, 3
        )
        # the slack's product over all chains may round differently from
        # one per chain
        np.testing.assert_allclose(out[60 * c:60 * (c + 1)], alone, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Y[c], y[0], rtol=0, atol=1e-12)


def test_chain_resumes_across_bursts():
    axes, uniforms = axis_draws(5, 1000, 2)
    quota, burn_in, thinning = [100, 100], 20, 1
    retries, out, y = run_chain(axes[:120], uniforms[:120], quota, burn_in, thinning)

    # same stream split into two bursts lands on the same points
    A, b = square_problem()
    y2 = np.full((2, 2), 0.5)
    retries2 = np.zeros(2, dtype=np.int64)
    out2 = np.full((200, 2), np.nan)
    quota = np.array(quota)
    chain_steps(
        A, b, y2, axes[:70], uniforms[:70], burn_in, thinning, 0, retries2, quota, out2
    )
    # 50 of each chain's 100 samples after 70 steps
    assert kept_per_chain(out2, quota) == [50, 50]
    chain_steps(
        A, b, y2, axes[70:120], uniforms[70:120], burn_in, thinning, 70, retries2,
        quota, out2
    )
    assert np.array_equal(retries, retries2)
    # the slack is recomputed from the points at every burst, so the split
    # run agrees to rounding rather than bit for bit
    np.testing.assert_allclose(out2, out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y2, y, rtol=0, atol=1e-12)


def test_hit_and_run_draws_exactly_the_common_total(monkeypatch):
    # 601 samples at burn-in 150 and thinning 2 run 8 chains, the first
    # with 76 samples: every chain takes 150 + 76 * 2 = 302 steps, drawn
    # in refills of 128, 128 and 46 rows
    polytope = scenario2_polytope()
    config = SamplerConfig(sample_count=601, burn_in=150, thinning=2, seed=3)
    refills = []
    draws = _ChainWorkspace.draws

    def recorded(work, seed, done, n_rows, k):
        axes, uniforms = draws(work, seed, done, n_rows, k)
        refills.append((seed, done, axes.copy(), uniforms.copy()))
        return axes, uniforms

    monkeypatch.setattr(_ChainWorkspace, "draws", recorded)
    quota = hit_and_run(polytope, config).chain_quotas
    chains, total = len(quota), 150 + max(quota) * 2
    assert (chains, total) == (8, 302)
    # the refills cover steps [0, total) once each, in order: 2 * total * C
    # words of the stream and not one more
    starts = [done for _, done, _, _ in refills]
    ends = [done + axes.shape[0] for _, done, axes, _ in refills]
    assert starts == [0, 128, 256] and ends == [128, 256, 302]
    assert sum(2 * axes.size for _, _, axes, _ in refills) == 2 * total * chains
    for seed, done, axes, uniforms in refills:
        rows = axes.shape[0]
        assert seed == 3 and axes.shape == uniforms.shape == (rows, chains)
        ref_axes, ref_uniforms = reference_chain.draws(3, done, rows, chains,
                                                       polytope.dimension)
        assert np.array_equal(axes, ref_axes)
        assert np.array_equal(uniforms, ref_uniforms)


def test_degenerate_interval_reports_stuck():
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.5 + 1e-13, -0.5])
    rng = np.random.default_rng(0)
    axes = np.zeros((500, 2), dtype=np.int64)
    uniforms = rng.random((500, 2))
    Y = np.full((2, 1), 0.5)
    retries = np.zeros(2, dtype=np.int64)
    # quotas beyond the retry budget, so the chains are still stepping
    # when their empty chords run out
    quota = np.array([200, 200])
    out = np.full((400, 1), np.nan)
    with pytest.raises(RuntimeError, match=STUCK):
        chain_steps(A, b, Y, axes, uniforms, 0, 1, 0, retries, quota, out)
    # every chord is empty: 100 zero-length steps, each one kept, then the
    # 101st empty chord in a row stops both chains
    assert retries.tolist() == [101, 101]
    assert (out[:100] == 0.5).all() and (out[200:300] == 0.5).all()
    assert np.isnan(out[100:200]).all() and np.isnan(out[300:]).all()
    assert (Y == 0.5).all()
    _, _, _, error = assert_chain_matches_reference(
        A, b, np.full((2, 1), 0.5), axes, uniforms, 0, 1, quota)
    assert STUCK in error


def test_one_degenerate_chain_reports_stuck():
    # chain 1 sits on the ridge and always draws axis 0, which leaves the
    # polytope through both rows there, so its chord is empty
    axes, uniforms = axis_draws(2, 300, 3, k=3)
    axes[:, 1] = 0
    starts = [[0.0, 0.0, 0.0], RIDGE, [0.0, 0.0, 0.0]]
    A, b = ridge_problem()
    Y = np.array(starts)
    retries = np.zeros(3, dtype=np.int64)
    out = np.full((150, 3), np.nan)
    with pytest.raises(RuntimeError, match=STUCK):
        chain_steps(A, b, Y, axes, uniforms, 99, 1, 0, retries, np.array([50] * 3), out)
    # every chain took the 100 rows before the one that ran out of
    # retries, the ridge chain as zero-length steps; step 100 is the
    # first after burn-in, kept by every chain, the ridge chain's on the
    # ridge, and step 101 is not taken
    assert np.isfinite(out[[0, 100]]).all() and out[50].tolist() == RIDGE
    assert np.isnan(out[[1, 51, 101]]).all()
    assert retries.tolist() == [0, 101, 0]
    assert Y[1].tolist() == RIDGE
    assert_chain_matches_reference(A, b, starts, axes, uniforms, 99, 1, [50] * 3)

    # fewer empty chords in a row than the budget is not stuck: with a
    # quota of 0 the ridge chain takes the other chains' 50 steps in place
    retries, out, Y = run_chain(axes[:50], uniforms[:50], [50, 0, 50], 0, 1, starts,
                                problem=ridge_problem)
    assert retries.tolist() == [0, 50, 0] and np.isfinite(out).all()
    assert Y[1].tolist() == RIDGE
    assert_chain_matches_reference(A, b, starts, axes[:50], uniforms[:50], 0, 1,
                                   [50, 0, 50])


def test_open_region_reports_unbounded():
    A = np.array([[-1.0]])
    b = np.array([0.0])
    rng = np.random.default_rng(0)
    axes = np.zeros((50, 3), dtype=np.int64)
    uniforms = rng.random((50, 3))
    Y = np.ones((3, 1))
    retries = np.zeros(3, dtype=np.int64)
    out = np.zeros((30, 1))
    with pytest.raises(RuntimeError, match=UNBOUNDED):
        chain_steps(A, b, Y, axes, uniforms, 0, 1, 0, retries, np.array([10, 10, 10]),
                    out)
    # the open chord of the first row stops every chain before any step
    assert (Y == 1.0).all() and (out == 0.0).all() and not retries.any()


def run_refills(step, A, b, starts, axes, uniforms, burn_in, thinning, quota,
                rows_per_refill=128, retries=None):
    """Feed the draws to ``step`` one refill at a time, as ``hit_and_run``
    does; return ``Y``, ``retries``, ``out`` and the error message, if any."""
    Y = np.array(starts, dtype=float)
    chains = Y.shape[0]
    retries = np.zeros(chains, dtype=np.int64) if retries is None else np.array(retries)
    quota = np.asarray(quota, dtype=np.int64)
    out = np.full((int(quota.sum()), Y.shape[1]), np.nan)
    error = None
    try:
        for done in range(0, axes.shape[0], rows_per_refill):
            step(A, b, Y, axes[done:done + rows_per_refill],
                 uniforms[done:done + rows_per_refill], burn_in, thinning, done,
                 retries, quota, out)
    except RuntimeError as exc:
        error = str(exc)
    return Y, retries, out, error


def assert_chain_matches_reference(A, b, starts, axes, uniforms, burn_in,
                                   thinning, quota, **options):
    """The chain leaves Y, retries and out bit for bit as the per-row loop of
    ``reference_chain`` does, and raises the same error at the same row."""
    refill = options.get("rows_per_refill", 128)
    work = _ChainWorkspace(A, min(refill, axes.shape[0]), axes.shape[1])

    def step(*args):
        # one workspace for every refill, as hit_and_run keeps one per call;
        # a shorter last refill gets a fresh one
        shared = work if args[3].shape[0] == work.t.shape[0] else None
        chain_steps(*args, work=shared)

    got = run_refills(step, A, b, starts, axes, uniforms, burn_in, thinning,
                      quota, **options)
    want = run_refills(reference_chain.chain_steps, A, b, starts, axes, uniforms,
                       burn_in, thinning, quota, **options)
    assert got[3] == want[3]
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1]), (got[1], want[1])
    assert got[2].tobytes() == want[2].tobytes()
    return want


def random_polytope(seed, rows, k):
    """Rows around a random interior point, with one row that has no
    coefficients, so some chord coefficients bound neither side."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((rows, k))
    A[rows // 2] = 0.0
    centre = rng.standard_normal(k) * 0.1
    b = A @ centre + 0.2 + rng.random(rows)
    return A, b, centre


@pytest.mark.parametrize("chains,rows", [(40, 12), (3, 30)])
def test_chain_matches_per_row_reference_in_both_layouts(chains, rows):
    A, b, centre = random_polytope(rows, rows, 4)
    assert _ChainWorkspace(A, 128, chains).chains_last == (chains >= rows)
    rng = np.random.default_rng(chains)
    axes = rng.integers(4, size=(600, chains))
    uniforms = rng.random((600, chains))
    # burn-in ends mid-refill; unequal quotas fill in different rows
    quota = rng.integers(20, 60, chains)
    quota[1] = 0
    # every chain, the one with quota 0 too, runs the longest quota's steps
    total = 70 + quota.max()
    Y, retries, out, error = assert_chain_matches_reference(
        A, b, np.tile(centre, (chains, 1)), axes[:total], uniforms[:total], 70, 1,
        quota)
    assert error is None and not retries.any()
    assert np.isfinite(out).all()


def test_chain_matches_reference_with_thinning_and_mid_refill_quotas():
    A, b = square_problem()
    rng = np.random.default_rng(31)
    axes = rng.integers(2, size=(700, 5))
    uniforms = rng.random((700, 5))
    # a zero quota, and quotas whose last step falls mid-refill
    quota = [40, 0, 37, 13, 41]
    total = 145 + 3 * max(quota)
    axes, uniforms = axes[:total], uniforms[:total]
    _, retries, out, error = assert_chain_matches_reference(
        A, b, np.full((5, 2), 0.5), axes, uniforms, 145, 3, quota)
    assert error is None and not retries.any()
    assert np.isfinite(out).all()
    # the same draws in refills of 40 rows move the ends of burn-in and of
    # every quota to other rows within a refill
    assert_chain_matches_reference(A, b, np.full((5, 2), 0.5), axes, uniforms,
                                   145, 3, quota, rows_per_refill=40)


def test_chain_matches_reference_when_a_chain_gets_stuck_mid_refill():
    # a slab 1e-13 wide in x: a chord along axis 0 is empty, and one along
    # axis 1 is bounded by the y rows. The chains start strictly inside
    # the slab, where no x row has slack 0
    A, b = square_problem()
    b = np.array([0.5 + 1e-13, -0.5, 1.0, 0.0])
    rng = np.random.default_rng(4)
    axes = np.ones((400, 3), dtype=np.int64)
    uniforms = rng.random((400, 3))
    # chain 1 draws axis 0 from row 60 on: 101 empty chords later, at row
    # 160 of the second refill, it runs out of retries
    axes[60:, 1] = 0
    Y, retries, out, error = assert_chain_matches_reference(
        A, b, np.tile([0.5 + 5e-14, 0.5], (3, 1)), axes, uniforms, 20, 1, [200, 200, 200])
    assert STUCK in error
    # chain 1's empty chords were zero-length steps, so every chain took
    # the 160 rows before the one that stopped them and kept 140 samples
    assert retries.tolist() == [0, 101, 0]
    assert kept_per_chain(out, [200] * 3) == [140] * 3
    # 50 retries carried in: chain 1, stuck from row 0, runs out at row 50
    axes[:60, 1] = 0
    _, retries, out, error = assert_chain_matches_reference(
        A, b, np.tile([0.5 + 5e-14, 0.5], (3, 1)), axes, uniforms, 20, 1, [200, 200, 200],
        retries=[0, 50, 0])
    assert STUCK in error
    assert retries.tolist() == [0, 101, 0]
    assert kept_per_chain(out, [200] * 3) == [30] * 3


def test_chain_matches_reference_when_a_chord_opens_mid_refill():
    # the chains draw the box's bounded axes 0 and 1; along axis 2 the
    # chord is open above
    A, b = open_box_problem()
    axes, uniforms = axis_draws(9, 300, 3)
    # chain 2's open chord at row 170, in the second refill, stops the run
    axes[170, 2] = 2
    Y, _, out, error = assert_chain_matches_reference(
        A, b, np.full((3, 3), 0.5), axes, uniforms, 10, 1, [20, 500, 500])
    assert UNBOUNDED in error
    # the 170 rows before it were taken: chain 0 kept its 20 samples, the
    # others 160 each
    assert kept_per_chain(out, [20, 500, 500]) == [20, 160, 160]
    assert np.isfinite(Y).all()
    # chain 0 has kept its 20 samples after 30 steps, but it still steps
    # with the others, so its open chord at row 40 stops the run there
    axes[40:, 0] = 2
    Y, _, out, error = assert_chain_matches_reference(
        A, b, np.full((3, 3), 0.5), axes, uniforms, 10, 1, [20, 500, 500])
    assert UNBOUNDED in error
    assert kept_per_chain(out, [20, 500, 500]) == [20, 30, 30]
    assert np.isfinite(Y).all()


def test_zero_slack_chords_are_retried_until_a_direction_opens():
    # chain 0 sits on the ridge, where the slacks of its two rows are
    # exactly 0; chain 1 stays inside
    A, b = ridge_problem()
    axes, uniforms = axis_draws(6, 40, 2, k=3)
    # out through both rows: c / 0 gives +inf and -inf, a chord [0, -0]
    axes[0, 0] = 0
    # along a zero-slack row: 0 / 0 gives nan
    axes[1, 0] = 1
    axes[2, 0] = 0
    # into the polytope: the chord opens
    axes[3, 0] = 2
    starts = [RIDGE, [0.0, 0.0, 0.0]]
    Y = np.array(starts)
    retries = np.zeros(2, dtype=np.int64)
    quota = np.array([30, 30])
    out = np.full((60, 3), np.nan)
    # three empty chords in the first refill: three zero-length steps, each
    # kept on the ridge, and a count of three carried into the second
    chain_steps(A, b, Y, axes[:3], uniforms[:3], 0, 1, 0, retries, quota, out)
    assert retries.tolist() == [3, 0]
    assert kept_per_chain(out, quota) == [3, 3]
    assert Y[0].tolist() == RIDGE
    assert out[:3].tolist() == [RIDGE] * 3
    chain_steps(A, b, Y, axes[3:30], uniforms[3:30], 0, 1, 3, retries, quota, out)
    # the first axis that opens moves the chain and clears its count
    assert retries.tolist() == [0, 0]
    assert not np.isnan(out).any()
    assert (out @ A.T <= b + 1e-12).all()
    assert out[3, :2].tolist() == [0.0, 0.0] and out[3, 2] < 1.0
    assert_chain_matches_reference(A, b, starts, axes[:30], uniforms[:30], 0, 1,
                                   quota, rows_per_refill=3)


def test_a_direction_no_row_bounds_on_one_side_raises_after_the_steps_before_it():
    # chain 1 draws the open box's axis 2 at row 37, along which only
    # z >= 0 bounds the chord, at its lower end
    A, b = open_box_problem()
    axes, uniforms = axis_draws(12, 60, 2)
    axes[37, 1] = 2
    quota = np.array([40, 40])
    retries = np.zeros(2, dtype=np.int64)
    Y = np.full((2, 3), 0.5)
    out = np.full((80, 3), np.nan)
    with pytest.raises(RuntimeError, match=UNBOUNDED):
        chain_steps(A, b, Y, axes, uniforms, 10, 1, 0, retries, quota, out)
    # the same draws up to that row, run alone, leave the same points,
    # counts and samples: 27 of each chain's after burn-in 10
    retries_before = np.zeros(2, dtype=np.int64)
    Y_before = np.full((2, 3), 0.5)
    out_before = np.full((80, 3), np.nan)
    chain_steps(A, b, Y_before, axes[:37], uniforms[:37], 10, 1, 0,
                retries_before, quota, out_before)
    assert retries.tolist() == retries_before.tolist() == [0, 0]
    assert kept_per_chain(out, quota) == [27, 27]
    assert Y.tobytes() == Y_before.tobytes()
    assert out.tobytes() == out_before.tobytes()


def workload_polytopes(directory):
    """The three benchmark workloads' polytopes and sample counts."""
    table = load_problem(FIXTURES / "students_ramp.json")
    system = compile_statements(table, parse_statements(FIXTURES / "scenario2.jsonl"))
    yield "fixture-bipolar", system, 100_000
    table, statements = benchmark_instance(
        directory / "wide", 1, m=100, n=3, p=0.0, interactions=False,
        statement_count=4)
    yield "wide-m100", restrict_classical(compile_statements(table, statements)), 5_000
    table, statements = benchmark_instance(
        directory / "n6", 1, m=8, n=6, p=4.0, interactions=True, statement_count=4)
    yield "criteria-n6", compile_statements(table, statements), 5_000


def test_hit_and_run_matches_reference_chain_on_the_workloads(tmp_path, monkeypatch):
    for name, system, samples in workload_polytopes(tmp_path):
        polytope = build_polytope(system)
        config = SamplerConfig(sample_count=samples, seed=1)
        got = hit_and_run(polytope, config).data
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "chain_steps",
                          lambda *args, work: reference_chain.chain_steps(*args))
            want = hit_and_run(polytope, config).data
        assert got.tobytes() == want.tobytes(), name


def test_reciprocal_chord_ends_match_the_masked_ones(tmp_path):
    """On the workload polytopes, at random interior points and
    coordinate axes, 1 / max(c / s) and 1 / min(c / s) are the masked
    min over c > 0 and max over c < 0 of s / c, within a few ulps."""
    rng = np.random.default_rng(17)
    for name, system, _ in workload_polytopes(tmp_path):
        polytope = build_polytope(system)
        A, b = polytope.A, polytope.b
        k = A.shape[1]
        # inside the unit ball, which is the Dikin ellipsoid at the centre
        # and so lies inside the polytope
        y = rng.standard_normal((2_000, k))
        y *= (0.95 * rng.random((2_000, 1)) ** (1 / k)
              / np.linalg.norm(y, axis=1, keepdims=True))
        axes = rng.integers(k, size=2_000)
        slack = b - y @ A.T
        assert (slack > 0).all(), name
        # the chord coefficients along axis j are A's column j
        c = A.T[axes]
        ratio = c / slack
        t_hi, t_lo = 1.0 / ratio.max(axis=1), 1.0 / ratio.min(axis=1)
        # a row with c = 0 bounds neither end, and the masks drop it
        with np.errstate(divide="ignore"):
            masked = slack / c
        want_hi = np.where(c > 0, masked, np.inf).min(axis=1)
        want_lo = np.where(c < 0, masked, -np.inf).max(axis=1)
        assert np.isfinite(want_hi).all() and np.isfinite(want_lo).all(), name
        assert (np.abs(t_hi - want_hi) <= 4 * np.spacing(want_hi)).all(), name
        assert (np.abs(t_lo - want_lo) <= 4 * np.spacing(-want_lo)).all(), name


def scenario2_polytope():
    table = load_problem(FIXTURES / "students_ramp.json")
    system = compile_statements(table, parse_statements(FIXTURES / "scenario2.jsonl"))
    return build_polytope(system)


def refill_bytes(polytope, config):
    """The buffers that every refill of one ``SampleStream`` reuses: the
    chord coefficients ``coef``, which the gathered points reuse, the
    moves and points ``path``, the slack ratios ``q``, the extremes of
    c / s, the step lengths and move flags, the 2 R C words of the stream
    with their offsets and the mix's spare, which the axes and uniforms
    are views of, the chains-first layout's copy of A^T, and the block
    buffer."""
    R = sampler._RAND_ROWS
    C = sampler._chain_count(config, polytope.dimension)
    rows, k = polytope.A.shape
    coef = R * C * max(rows, k) * 8
    path = R * C * k * 8
    q = rows * C * 8
    ext = R * 2 * C * 8
    lengths = R * C * 8 + R * C
    words = 3 * 2 * R * C * 8
    columns = 0 if C >= rows else rows * k * 8
    return coef + path + q + ext + lengths + words + columns + block_bytes(polytope, config)


def block_bytes(polytope, config):
    """The block buffer of one ``SampleStream``: min(quota, max(R //
    thinning + 1, _BLOCK_ROWS // C)) kept rows per chain, the largest
    quota being the first chain's."""
    C = sampler._chain_count(config, polytope.dimension)
    quota = -(-config.sample_count // C)
    per_chain = min(quota, max(sampler._RAND_ROWS // config.thinning + 1,
                               sampler._BLOCK_ROWS // C))
    return C * per_chain * polytope.basis.shape[0] * 8


# the mapped vectors and residuals of one block of the output check
CHECK_BLOCK_BYTES = sampler._CHECK_ENTRIES * 8


def traced_stream(polytope, config, monkeypatch):
    """Iterate a ``SampleStream`` under tracemalloc, dropping each block.

    Returns the traced peak, what is left allocated afterwards, and for
    each call of ``chain_steps`` and of ``_map_and_check``, what was
    allocated when it started and its own peak beyond that, all counted
    from the start of the iteration. The stream allocates nothing
    between those calls, so its peak is the largest of their peaks."""
    calls = {"chain_steps": [], "_map_and_check": []}

    def traced(name):
        inner = getattr(sampler, name)

        def call(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            inner(*args, **kwargs)
            calls[name].append((entry - base, tracemalloc.get_traced_memory()[1] - entry))

        monkeypatch.setattr(sampler, name, call)

    traced("chain_steps")
    traced("_map_and_check")
    stream = sampler.SampleStream(polytope, config)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for block in stream:
            pass
        # the last block's rows are a view of the stream's buffer
        block = None
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    peak = max(entry + own for entries in calls.values() for entry, own in entries)
    return peak, after - base, calls


def test_chain_temporaries_are_freed_before_each_feasibility_check(monkeypatch):
    polytope = scenario2_polytope()
    config = SamplerConfig(sample_count=20_000, burn_in=300, seed=1)
    # numpy's first-call caches are not the sampler's
    traced_stream(polytope, config, monkeypatch)
    _, left, calls = traced_stream(polytope, config, monkeypatch)
    reused = refill_bytes(polytope, config)
    # every refill starts, and checks its block, with only the reused
    # buffers allocated: no chain output of (samples, k) and none of
    # _settle's index arrays (about 0.6 MiB here) outlive their refill
    for name, entries in calls.items():
        worst = max(entry for entry, _ in entries)
        assert worst < reused + 64 * 1024, (
            f"{name} starts with {worst / 2**20:.2f} MiB allocated, "
            f"the refill buffers are {reused / 2**20:.2f} MiB")
    # the chain's buffers are gone when the last block is checked: only
    # the block buffer is left of the reused ones
    last = calls["_map_and_check"][-1][0]
    block = block_bytes(polytope, config)
    assert last < block + 64 * 1024, (
        f"the last check starts with {last / 2**20:.2f} MiB allocated, "
        f"the block buffer is {block / 2**20:.2f} MiB")
    # a refill's own temporaries stay below one check block
    assert max(own for _, own in calls["chain_steps"]) < CHECK_BLOCK_BYTES
    # the check holds one piece of its block: no (block, rows)
    # residuals, plus numpy's 64 KiB buffer for a broadcast in-place
    # operation
    assert max(own for _, own in calls["_map_and_check"]) < CHECK_BLOCK_BYTES + 128 * 1024
    # nothing outlives the stream
    assert left < 64 * 1024

    # and only the returned samples outlive hit_and_run
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        batch = hit_and_run(polytope, config)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert batch.data.nbytes == config.sample_count * polytope.basis.shape[0] * 8
    assert after - before - batch.data.nbytes < 64 * 1024


def test_sampler_working_memory_does_not_grow_with_the_sample_count(monkeypatch):
    polytope = scenario2_polytope()
    small = SamplerConfig(sample_count=20_000, burn_in=300, seed=1)
    large = SamplerConfig(sample_count=200_000, burn_in=300, seed=1)
    traced_stream(polytope, small, monkeypatch)
    peak_small = traced_stream(polytope, small, monkeypatch)[0]
    peak_large = traced_stream(polytope, large, monkeypatch)[0]
    # at 200k samples the samples alone are 18 MiB, and one (samples,
    # rows) residual array 35 MiB
    assert abs(peak_large - peak_small) < 64 * 1024, (
        f"{peak_small / 2**20:.2f} MiB at 20k samples, "
        f"{peak_large / 2**20:.2f} MiB at 200k")


def random_flow_block(seed, n_samples=400, m=5, ties=True):
    rng = np.random.default_rng(seed)
    pos = rng.random((n_samples, m))
    neg = rng.random((n_samples, m))
    if ties:
        # force exact ties in a slice of samples to exercise every branch
        pos[::7, 1] = pos[::7, 0]
        neg[::7, 1] = neg[::7, 0]
        pos[::11, 2] = pos[::11, 3]
    return pos, neg


# the order of count_relations' (6, m, m) counts
COUNT_KEYS = ("rank_counts", "p1_pref", "p1_ind", "p1_inc", "p2_pref", "p2_ind")


def empty_counts(m):
    return {key: np.zeros((m, m), dtype=np.int64) for key in COUNT_KEYS}


def run_counts(pos, neg, tau, kernel=count_relations):
    """``kernel`` (``count_relations`` unless given) on (samples, m) flows,
    passed as their (m, samples) transposes. The rank-1 mask comes back
    (samples, m)."""
    m = pos.shape[1]
    counts = np.zeros((6, m, m), dtype=np.int64)
    first = kernel(pos.T, neg.T, (pos - neg).T, tau, counts)
    return dict(zip(COUNT_KEYS, counts)), first.T


def test_count_relations_partitions():
    pos, neg = random_flow_block(17)
    n_samples = pos.shape[0]
    acc, first = run_counts(pos, neg, 1e-9)
    m = acc["rank_counts"].shape[0]
    assert np.all(acc["rank_counts"].sum(axis=1) == n_samples)
    off = ~np.eye(m, dtype=bool)
    p2_total = acc["p2_pref"] + acc["p2_pref"].T + acc["p2_ind"]
    assert np.all(p2_total[off] == n_samples)
    p1_total = acc["p1_pref"] + acc["p1_pref"].T + acc["p1_ind"] + acc["p1_inc"]
    assert np.all(p1_total[off] == n_samples)
    assert np.array_equal(acc["p1_ind"], acc["p1_ind"].T)
    assert np.array_equal(acc["p1_inc"], acc["p1_inc"].T)
    assert np.array_equal(acc["p2_ind"], acc["p2_ind"].T)
    # the returned mask flags exactly the rank-1 hits
    assert first.sum(axis=0).tolist() == acc["rank_counts"][:, 0].tolist()


def plain_python_counts(pos, neg, tau):
    """Every tally by the definitions, one ordered pair at a time."""
    n_samples, m = pos.shape
    ref = {key: np.zeros((m, m), dtype=np.int64) for key in empty_counts(m)}
    first = np.zeros((n_samples, m), dtype=np.uint8)
    for s in range(n_samples):
        p, n = pos[s].tolist(), neg[s].tolist()
        net = [p[i] - n[i] for i in range(m)]
        for i in range(m):
            rank = 1 + sum(net[k] - net[i] > tau for k in range(m) if k != i)
            ref["rank_counts"][i, rank - 1] += 1
            first[s, i] = rank == 1
            for j in range(m):
                if i == j:
                    continue
                dnet = net[i] - net[j]
                if dnet > tau:
                    ref["p2_pref"][i, j] += 1
                elif dnet >= -tau:
                    ref["p2_ind"][i, j] += 1
                # P1: i P j when i is no worse on either flow and better on
                # one; I when both flows tie; R otherwise (and not j P i)
                dpos, dneg = p[i] - p[j], n[i] - n[j]
                no_worse = dpos >= -tau and dneg <= tau
                better = dpos > tau or dneg < -tau
                no_better = dpos <= tau and dneg >= -tau
                worse = dpos < -tau or dneg > tau
                if abs(dpos) <= tau and abs(dneg) <= tau:
                    ref["p1_ind"][i, j] += 1
                elif no_worse and better:
                    ref["p1_pref"][i, j] += 1
                elif not (no_better and worse):
                    ref["p1_inc"][i, j] += 1
    return ref, first


def test_count_relations_matches_plain_python():
    # m = 70 runs the position kernel; its 0.25 grid also chains near ties,
    # a - b <= tau and b - c <= tau while a - c > tau
    assert _POSITION_FROM <= 70
    for m, n_samples in ((2, 150), (5, 150), (9, 150), (70, 24)):
        # flows on a 0.25 grid with tau = 0.25: every difference is exact,
        # and many sit exactly on +tau or -tau, which must count as ties
        tau = 0.25
        rng = np.random.default_rng(m)
        pos = rng.integers(0, 6, size=(n_samples, m)) * 0.25
        neg = rng.integers(0, 6, size=(n_samples, m)) * 0.25
        diff = pos[:, :, None] - pos[:, None, :]
        assert np.any(diff == tau) and np.any(diff == -tau)
        ref, ref_first = plain_python_counts(pos, neg, tau)
        acc, first = run_counts(pos, neg, tau)
        for key in ref:
            assert np.array_equal(acc[key], ref[key]), (m, key)
        assert np.array_equal(first, ref_first), m
        # every relation occurs, so no branch of the oracle goes untested
        for key in ("p2_pref", "p2_ind", "p1_pref", "p1_ind", "p1_inc"):
            assert acc[key].sum() > 0, (m, key)

    # generic flows with forced exact ties at the default tolerance
    pos, neg = random_flow_block(3, n_samples=60, m=6)
    ref, ref_first = plain_python_counts(pos, neg, 1e-9)
    acc, first = run_counts(pos, neg, 1e-9)
    for key in ref:
        assert np.array_equal(acc[key], ref[key]), key
    assert np.array_equal(first, ref_first)


def test_count_relations_padding_stays_out_of_every_count():
    # masks are counted 8 samples at a time: for sample counts that are not
    # a multiple of 8 the kernels pad their own masks, and the pad must
    # count as no relation at all
    tau = 0.25
    cases = [(n, m) for n in (1, 7, 9, 150) for m in (2, 6)]
    # the position kernel, on fewer samples to keep the oracle quick
    cases += [(n, 70) for n in (1, 7, 9, 23)]
    for n_samples, m in cases:
        rng = np.random.default_rng([n_samples, m])
        pos = rng.integers(0, 4, size=(n_samples, m)) * 0.25
        neg = rng.integers(0, 4, size=(n_samples, m)) * 0.25
        ref, ref_first = plain_python_counts(pos, neg, tau)
        acc, first = run_counts(pos, neg, tau)
        for key in ref:
            assert np.array_equal(acc[key], ref[key]), (n_samples, m, key)
        assert np.array_equal(first, ref_first), (n_samples, m)
        assert np.all(acc["rank_counts"].sum(axis=1) == n_samples)


@pytest.mark.parametrize("m", [6, 70])
def test_count_relations_reads_row_views_of_a_larger_block(m):
    # aggregate passes the row halves of one (2m, samples) product; rows
    # picked out of a block, with a gap between them and a column slice
    # that ends mid-word, must count as the same flows copied out
    n_samples = 21
    rng = np.random.default_rng([m, n_samples])
    pos = rng.integers(0, 4, size=(n_samples, m)) * 0.25
    neg = rng.integers(0, 4, size=(n_samples, m)) * 0.25
    block = np.full((4 * m, n_samples + 5), np.nan)
    block[:2 * m:2, :n_samples] = pos.T
    block[2 * m::2, :n_samples] = neg.T
    pos_t, neg_t = block[:2 * m:2, :n_samples], block[2 * m::2, :n_samples]
    assert not pos_t.flags.c_contiguous
    counts = np.zeros((6, m, m), dtype=np.int64)
    first = count_relations(pos_t, neg_t, pos_t - neg_t, 0.25, counts)
    ref, ref_first = plain_python_counts(pos, neg, 0.25)
    for key, got in zip(COUNT_KEYS, counts):
        assert np.array_equal(got, ref[key]), key
    assert np.array_equal(first.T, ref_first)


def test_count_relations_beyond_255_alternatives():
    # at m = 300 ranks and sort positions reach 299, past a uint8: the
    # position kernel keeps them in uint16
    rng = np.random.default_rng(300)
    pos = rng.random((3, 300))
    neg = rng.random((3, 300))
    ref, ref_first = plain_python_counts(pos, neg, 1e-9)
    assert np.nonzero(ref["rank_counts"])[1].max() > 255
    acc, first = run_counts(pos, neg, 1e-9)
    for key in ref:
        assert np.array_equal(acc[key], ref[key]), key
    assert np.array_equal(first, ref_first)


def kernel_blocks(m, n_samples, seed):
    """(name, pos, neg, tau) flow blocks for both counting kernels: no
    ties, exact and near ties, and samples in which every alternative
    ties."""
    rng = np.random.default_rng([m, seed])
    pos, neg = rng.random((2, n_samples, m))
    yield "random", pos, neg, 1e-9
    yield "random, tau 0", pos, neg, 0.0
    # alternatives 2j and 2j + 1 tie on both flows
    dup_pos, dup_neg = pos.copy(), neg.copy()
    dup_pos[:, 1::2] = pos[:, : m // 2 * 2 : 2]
    dup_neg[:, 1::2] = neg[:, : m // 2 * 2 : 2]
    yield "duplicated alternatives", dup_pos, dup_neg, 0.0
    # every alternative ties in every third sample
    flat_pos, flat_neg = pos.copy(), neg.copy()
    flat_pos[::3] = flat_pos[::3, :1]
    flat_neg[::3] = flat_neg[::3, :1]
    yield "all-equal samples", flat_pos, flat_neg, 1e-9
    grid_pos = rng.integers(0, 64, (n_samples, m)) / 64
    grid_neg = rng.integers(0, 64, (n_samples, m)) / 64
    # near ties on a grid, chained across tau
    yield "grid", grid_pos, grid_neg, 1 / 32


@pytest.mark.parametrize("tile", [None, 8])
@pytest.mark.parametrize("m", [2, 3, 8, 31, _POSITION_FROM - 1, _POSITION_FROM,
                               _POSITION_FROM + 1, 100, 300])
def test_position_kernel_matches_difference_kernel(m, tile, monkeypatch):
    # the two kernels behind count_relations must agree bit for bit on
    # either side of the crossover, in one sort tile or in several; m = 300
    # keeps positions and rank tallies in uint16
    if tile is not None:
        monkeypatch.setattr(promethee, "_SORT_TILE", tile)
    n_samples = 13 if m == 300 else 45
    for name, pos, neg, tau in kernel_blocks(m, n_samples, 0):
        ref, ref_first = run_counts(pos, neg, tau, _count_by_difference)
        acc, first = run_counts(pos, neg, tau, _count_by_position)
        for key in COUNT_KEYS:
            assert np.array_equal(acc[key], ref[key]), (name, key)
        assert np.array_equal(first, ref_first), name
        ranks = ref["rank_counts"]
        assert np.all(ranks.sum(axis=1) == n_samples), name
    if m == 300:
        assert np.nonzero(ranks)[1].max() > 255


def test_count_relations_rejects_negative_tolerance():
    pos, neg = random_flow_block(5, n_samples=10, m=4)
    with pytest.raises(ValueError, match="non-negative"):
        run_counts(pos, neg, -1e-9)


def test_count_relations_memory_is_linear_in_alternatives():
    # the counter must not build (samples, m, m) arrays: at s = 5,000 and
    # m = 100 one such float64 array is 400 MB, 100 times pos.nbytes
    pos, neg = random_flow_block(11, n_samples=5000, m=100, ties=False)
    tracemalloc.start()
    try:
        run_counts(pos, neg, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pos.nbytes, f"peak {peak / 2**20:.1f} MiB"
