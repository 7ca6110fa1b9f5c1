import tracemalloc

import numpy as np
import pytest

from smaa_promethee.sampler import chain_steps
from smaa_promethee.smaa import count_relations

STUCK = "made no progress"
UNBOUNDED = "unbounded along a chord"


def square_problem():
    """Unit square as <= rows."""
    A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 0.0, 1.0, 0.0])
    return A, b


def square_draws(seed, n_rand, chains):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_rand, chains, 2)), rng.random((n_rand, chains))


def run_square(dirs, uniforms, quota, burn_in, thinning, starts=None):
    A, b = square_problem()
    chains = dirs.shape[1]
    Y = np.full((chains, 2), 0.5) if starts is None else np.array(starts, dtype=float)
    state = np.zeros((3, chains), dtype=np.int64)
    quota = np.asarray(quota, dtype=np.int64)
    out = np.full((int(quota.sum()), 2), np.nan)
    assert chain_steps(
        A, b, Y, dirs, uniforms, burn_in, thinning, state, quota, out
    ) is None
    return state, out, Y


def test_numpy_chain_stays_inside():
    # three chains with unequal quotas: chain-major blocks of 200, 199, 199
    quota = [200, 199, 199]
    dirs, uniforms = square_draws(123, 50 + 200 * 2 + 64, 3)
    # no chord in the open square is empty, so every draw row is a step and
    # 50 + 200 * 2 rows finish the longest chain
    state, out, Y = run_square(dirs[:450], uniforms[:450], quota, 50, 2)
    assert state[1].tolist() == quota
    assert state[0].tolist() == [50 + q * 2 for q in quota]
    assert np.all(out >= -1e-12) and np.all(out <= 1.0 + 1e-12)
    # points move: no two consecutive kept points of one chain coincide
    for block in np.split(out, np.cumsum(quota)[:-1]):
        assert np.min(np.abs(np.diff(block, axis=0)).sum(axis=1)) > 0.0
    # thinning 2 ends every chain on a kept step, and a chain that is done
    # stays there while the others finish
    assert np.array_equal(Y, out[np.cumsum(quota) - 1])


def test_chains_read_only_their_own_draws():
    dirs, uniforms = square_draws(8, 300, 4)
    _, out, Y = run_square(dirs, uniforms, [60] * 4, 30, 3)
    for c in range(4):
        _, alone, y = run_square(
            dirs[:, c:c + 1], uniforms[:, c:c + 1], [60], 30, 3
        )
        # one GEMM over all chains may round differently from one per chain
        np.testing.assert_allclose(out[60 * c:60 * (c + 1)], alone, rtol=0, atol=1e-12)
        np.testing.assert_allclose(Y[c], y[0], rtol=0, atol=1e-12)


def test_chain_resumes_across_bursts():
    dirs, uniforms = square_draws(5, 1000, 2)
    quota, burn_in, thinning = [100, 100], 20, 1
    state, out, y = run_square(dirs[:120], uniforms[:120], quota, burn_in, thinning)

    # same stream split into two bursts lands on the same points
    A, b = square_problem()
    y2 = np.full((2, 2), 0.5)
    state2 = np.zeros((3, 2), dtype=np.int64)
    out2 = np.full((200, 2), np.nan)
    quota = np.array(quota)
    chain_steps(
        A, b, y2, dirs[:70], uniforms[:70], burn_in, thinning, state2, quota, out2
    )
    assert state2[1].tolist() == [50, 50]
    chain_steps(
        A, b, y2, dirs[70:], uniforms[70:], burn_in, thinning, state2, quota, out2
    )
    assert np.array_equal(state, state2)
    # the slack is recomputed from the points at every burst, so the split
    # run agrees to rounding rather than bit for bit
    np.testing.assert_allclose(out2, out, rtol=0, atol=1e-12)
    np.testing.assert_allclose(y2, y, rtol=0, atol=1e-12)


def test_degenerate_interval_reports_stuck():
    A = np.array([[1.0], [-1.0]])
    b = np.array([0.5 + 1e-13, -0.5])
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((500, 2, 1))
    uniforms = rng.random((500, 2))
    Y = np.full((2, 1), 0.5)
    state = np.zeros((3, 2), dtype=np.int64)
    out = np.zeros((20, 1))
    with pytest.raises(RuntimeError, match=STUCK):
        chain_steps(A, b, Y, dirs, uniforms, 0, 1, state, np.array([10, 10]), out)
    assert state[0].tolist() == [0, 0] and state[1].tolist() == [0, 0]
    assert state[2].tolist() == [101, 101]


def test_one_degenerate_chain_reports_stuck():
    # chain 1 sits on the square's corner (1, 0) and always draws (1, 1):
    # x <= 1 forces t <= 0 and y >= 0 forces t >= 0, so its chord is empty
    dirs, uniforms = square_draws(2, 300, 3)
    dirs[:, 1] = [1.0, 1.0]
    starts = [[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]
    A, b = square_problem()
    Y = np.array(starts)
    state = np.zeros((3, 3), dtype=np.int64)
    out = np.full((150, 2), np.nan)
    with pytest.raises(RuntimeError, match=STUCK):
        chain_steps(A, b, Y, dirs, uniforms, 99, 1, state, np.array([50] * 3), out)
    # the other chains stepped on every row before the one that ran out of
    # retries; the corner chain never did
    assert state[0].tolist() == [100, 0, 100]
    assert state[1].tolist() == [1, 0, 1]
    assert np.isfinite(out[[0, 100]]).all() and np.isnan(out[50]).all()
    assert state[2].tolist() == [0, 101, 0]
    assert Y[1].tolist() == [1.0, 0.0]

    # a chain with nothing left to do is not counted as stuck
    state, _, _ = run_square(dirs, uniforms, [50, 0, 50], 0, 1, starts)
    assert state[1].tolist() == [50, 0, 50] and state[2].tolist() == [0, 0, 0]


def test_open_region_reports_unbounded():
    A = np.array([[-1.0]])
    b = np.array([0.0])
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((50, 3, 1))
    uniforms = rng.random((50, 3))
    Y = np.ones((3, 1))
    state = np.zeros((3, 3), dtype=np.int64)
    out = np.zeros((30, 1))
    with pytest.raises(RuntimeError, match=UNBOUNDED):
        chain_steps(A, b, Y, dirs, uniforms, 0, 1, state, np.array([10, 10, 10]), out)
    assert state[0].tolist() == [0, 0, 0]


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


def empty_counts(m):
    return dict(
        rank_counts=np.zeros((m, m), dtype=np.int64),
        p1_pref=np.zeros((m, m), dtype=np.int64),
        p1_ind=np.zeros((m, m), dtype=np.int64),
        p1_inc=np.zeros((m, m), dtype=np.int64),
        p2_pref=np.zeros((m, m), dtype=np.int64),
        p2_ind=np.zeros((m, m), dtype=np.int64),
    )


def run_counts(pos, neg, tau):
    acc = empty_counts(pos.shape[1])
    first = np.zeros(pos.shape, dtype=np.uint8)
    count_relations(
        pos, neg, tau, acc["rank_counts"], acc["p1_pref"], acc["p1_ind"],
        acc["p1_inc"], acc["p2_pref"], acc["p2_ind"], first,
    )
    return acc, first


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
    # first_mask flags exactly the rank-1 hits
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
    for m in (2, 5, 9):
        # flows on a 0.25 grid with tau = 0.25: every difference is exact,
        # and many sit exactly on +tau or -tau, which must count as ties
        tau = 0.25
        rng = np.random.default_rng(m)
        pos = rng.integers(0, 6, size=(150, m)) * 0.25
        neg = rng.integers(0, 6, size=(150, m)) * 0.25
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
    # masks are counted 8 samples at a time: sample counts that are not a
    # multiple of 8 leave padding, which must count as no relation at all
    tau = 0.25
    for n_samples in (1, 7, 9, 150):
        for m in (2, 6):
            rng = np.random.default_rng([n_samples, m])
            pos = rng.integers(0, 4, size=(n_samples, m)) * 0.25
            neg = rng.integers(0, 4, size=(n_samples, m)) * 0.25
            ref, ref_first = plain_python_counts(pos, neg, tau)
            acc, first = run_counts(pos, neg, tau)
            for key in ref:
                assert np.array_equal(acc[key], ref[key]), (n_samples, m, key)
            assert np.array_equal(first, ref_first), (n_samples, m)
            assert np.all(acc["rank_counts"].sum(axis=1) == n_samples)


def test_count_relations_beyond_255_alternatives():
    # rank tallies gather in uint8 between flushes and column sums run in
    # blocks of 255 rows: at m = 300 ranks reach 299, past a uint8
    rng = np.random.default_rng(300)
    pos = rng.random((3, 300))
    neg = rng.random((3, 300))
    ref, ref_first = plain_python_counts(pos, neg, 1e-9)
    assert np.nonzero(ref["rank_counts"])[1].max() > 255
    acc, first = run_counts(pos, neg, 1e-9)
    for key in ref:
        assert np.array_equal(acc[key], ref[key]), key
    assert np.array_equal(first, ref_first)


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
