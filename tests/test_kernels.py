import tracemalloc

import numpy as np
import pytest

from smaa_promethee._kernels import (
    CHAIN_OK,
    CHAIN_STUCK,
    CHAIN_UNBOUNDED,
    chain_steps,
    count_relations,
    numba_available,
)

needs_numba = pytest.mark.skipif(not numba_available(), reason="numba not importable")


def square_problem():
    """Unit square as <= rows."""
    At = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    bt = np.array([1.0, 0.0, 1.0, 0.0])
    return At, bt


def run_chain(backend, n_keep=200, burn_in=50, thinning=2, seed=123):
    At, bt = square_problem()
    rng = np.random.default_rng(seed)
    n_rand = burn_in + n_keep * thinning + 64
    dirs = rng.standard_normal((n_rand, 2))
    uniforms = rng.random(n_rand)
    y = np.array([0.5, 0.5])
    state = np.zeros(3, dtype=np.int64)
    out = np.zeros((n_keep, 2))
    status, consumed = chain_steps(
        At, bt, y, dirs, uniforms, burn_in, thinning, 100, state, out,
        backend=backend,
    )
    return status, consumed, state, out, y


def test_numpy_chain_stays_inside():
    status, consumed, state, out, _ = run_chain("numpy")
    assert status == CHAIN_OK
    assert state[1] == out.shape[0]
    assert consumed == 50 + 200 * 2
    assert np.all(out >= -1e-12) and np.all(out <= 1.0 + 1e-12)
    # points move: no two consecutive kept points coincide
    assert np.min(np.abs(np.diff(out, axis=0)).sum(axis=1)) > 0.0


@needs_numba
def test_backends_bit_identical_chain():
    res_np = run_chain("numpy")
    res_nb = run_chain("numba")
    assert res_np[0] == res_nb[0]
    assert res_np[1] == res_nb[1]
    assert np.array_equal(res_np[2], res_nb[2])
    assert np.array_equal(res_np[3], res_nb[3])
    assert np.array_equal(res_np[4], res_nb[4])


def test_chain_resumes_across_bursts():
    At, bt = square_problem()
    rng = np.random.default_rng(5)
    dirs = rng.standard_normal((1000, 2))
    uniforms = rng.random(1000)
    burn_in, thinning, n_keep = 20, 1, 100

    y = np.array([0.5, 0.5])
    state = np.zeros(3, dtype=np.int64)
    out = np.zeros((n_keep, 2))
    status, consumed = chain_steps(
        At, bt, y, dirs, uniforms, burn_in, thinning, 100, state, out
    )
    assert status == CHAIN_OK and consumed == 120

    # same stream split into two bursts lands on the same points
    y2 = np.array([0.5, 0.5])
    state2 = np.zeros(3, dtype=np.int64)
    out2 = np.zeros((n_keep, 2))
    s1, c1 = chain_steps(
        At, bt, y2, dirs[:70], uniforms[:70], burn_in, thinning, 100, state2, out2
    )
    assert s1 == CHAIN_OK and c1 == 70
    s2, c2 = chain_steps(
        At, bt, y2, dirs[70:], uniforms[70:], burn_in, thinning, 100, state2, out2
    )
    assert s2 == CHAIN_OK and c2 == 50
    assert np.array_equal(out, out2)
    assert np.array_equal(y, y2)


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_degenerate_interval_reports_stuck(backend):
    if backend == "numba" and not numba_available():
        pytest.skip("numba not importable")
    At = np.array([[1.0], [-1.0]])
    bt = np.array([0.5 + 1e-13, -0.5])
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((500, 1))
    uniforms = rng.random(500)
    y = np.array([0.5])
    state = np.zeros(3, dtype=np.int64)
    out = np.zeros((10, 1))
    status, _ = chain_steps(
        At, bt, y, dirs, uniforms, 0, 1, 100, state, out, backend=backend
    )
    assert status == CHAIN_STUCK
    assert state[1] == 0


@pytest.mark.parametrize("backend", ["numpy", "numba"])
def test_open_region_reports_unbounded(backend):
    if backend == "numba" and not numba_available():
        pytest.skip("numba not importable")
    At = np.array([[-1.0]])
    bt = np.array([0.0])
    rng = np.random.default_rng(0)
    dirs = rng.standard_normal((50, 1))
    uniforms = rng.random(50)
    y = np.array([1.0])
    state = np.zeros(3, dtype=np.int64)
    out = np.zeros((10, 1))
    status, _ = chain_steps(
        At, bt, y, dirs, uniforms, 0, 1, 100, state, out, backend=backend
    )
    assert status == CHAIN_UNBOUNDED


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
