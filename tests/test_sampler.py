import dataclasses
import json
import os

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.stats import chisquare, ks_2samp, kstest

import reference_chain
from smaa_promethee.bipolar import ParameterLayout
from smaa_promethee.elicitation import (
    ConstraintRow,
    ConstraintSystem,
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.lp import max_epsilon
from smaa_promethee.promethee import classical_flows
from smaa_promethee import sampler
from smaa_promethee.sampler import (
    InfeasibleSystemError,
    SampleBatch,
    SamplerConfig,
    _chain_count,
    build_polytope,
    hit_and_run,
)
from smaa_promethee.smaa import aggregate

from conftest import (
    FIXTURES,
    bicapacity_problem,
    full_monotonicity_system,
    polytope_rows,
    random_table,
)


def handmade_system(extra_rows=(), free=("a_1",)):
    """n=2 layout with everything pinned except the requested columns."""
    layout = ParameterLayout(2)
    rows = []
    for col, name in enumerate(layout.names):
        if name in free:
            lo = np.zeros(layout.size + 1)
            lo[col] = 1.0
            rows.append(ConstraintRow(lo, ">=", 0.0, f"{name} >= 0"))
            hi = np.zeros(layout.size + 1)
            hi[col] = 1.0
            rows.append(ConstraintRow(hi, "<=", 1.0, f"{name} <= 1"))
        else:
            pin = np.zeros(layout.size + 1)
            pin[col] = 1.0
            rows.append(ConstraintRow(pin, "=", 0.0, f"pin {name}"))
    return ConstraintSystem(layout=layout, rows=tuple(rows) + tuple(extra_rows))


def column(batch, name):
    return batch.data[:, batch.columns.index(name)]


def test_reduced_dimensions(students):
    empty = compile_statements(students, [])
    bip = build_polytope(empty)
    assert bip.dimension == 11
    cla = build_polytope(restrict_classical(empty))
    assert cla.dimension == 2


def test_segment_sampling_uniform():
    system = handmade_system()
    polytope = build_polytope(system)
    assert polytope.dimension == 1
    batch = hit_and_run(polytope, SamplerConfig(sample_count=10_000, seed=3))
    xs = column(batch, "a_1")
    assert xs.min() >= -1e-9 and xs.max() <= 1.0 + 1e-9
    assert abs(xs.mean() - 0.5) < 0.02
    assert abs(xs.var() - 1.0 / 12.0) < 0.01


def test_square_marginals_match_direct_uniforms():
    system = handmade_system(free=("a_1", "a_2"))
    polytope = build_polytope(system)
    assert polytope.dimension == 2
    # the KS test assumes independent draws. A step resamples one of the
    # two coordinates, so about half of consecutive steps share a value;
    # 10 steps apart, a pair still shares one with probability about
    # 2 * 2^-10 = 0.002. Over seeds 1001-1400 the test then fails at 11
    # of 400 seeds, about the 2% of two tests at 0.01; without thinning
    # it failed at 33 of seeds 1001-1100. A step drawn as
    # lo + u^2 * width fails at every seed tried.
    batch = hit_and_run(polytope, SamplerConfig(sample_count=6_000, seed=11,
                                                thinning=10))
    rng = np.random.default_rng(999)
    direct = rng.random(6_000)
    for name in ("a_1", "a_2"):
        stat = ks_2samp(column(batch, name), direct)
        assert stat.pvalue > 0.01, (name, stat)


def test_simplex_sampling(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=30_000, seed=0))
    weights = np.stack([column(batch, f"a_{j}") for j in (1, 2, 3)], axis=1)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(weights >= -1e-9)
    for j in range(3):
        assert abs(weights[:, j].mean() - 1.0 / 3.0) < 0.015


@pytest.mark.parametrize("n,bound", [(2, 0.02), (6, 0.05)])
def test_simplex_weights_follow_their_beta_marginals(n, bound):
    # with no statements the classical weights fill the simplex of
    # dimension n - 1 uniformly, so each weight is Beta(1, n - 1), whose
    # CDF is 1 - (1 - x)^(n - 1). The KS distance assumes independent
    # draws; without thinning the chain's correlated samples read 0.028 in
    # the median at n = 6 and passed 0.05 at about 1 seed in 60. Thinned
    # by 10, seeds 1000-1255 read at most 0.022 at n = 6 (median 0.011)
    # and seeds 1000-1127 at most 0.011 at n = 2. A step drawn as
    # lo + u^2 * width reads about 0.25 and 0.57-0.61 at seeds 1-8
    table = random_table(np.random.default_rng(n), 4, n)
    polytope = build_polytope(restrict_classical(compile_statements(table, [])))
    assert polytope.dimension == n - 1
    batch = hit_and_run(polytope, SamplerConfig(sample_count=20_000, seed=1,
                                                thinning=10))
    for j in range(1, n + 1):
        stat = kstest(column(batch, f"a_{j}"), lambda x: 1.0 - (1.0 - x) ** (n - 1))
        assert stat.statistic < bound, (j, stat)


def test_samples_satisfy_every_row(students):
    statements = parse_statements(FIXTURES / "scenario1.jsonl")
    for system in (
        compile_statements(students, statements),
        restrict_classical(compile_statements(students, statements)),
    ):
        polytope = build_polytope(system)
        batch = hit_and_run(polytope, SamplerConfig(sample_count=2_000, seed=5))
        data = np.hstack([batch.data, np.zeros((batch.sample_count, 1))])
        a_eq, b_eq, _, a_ub, b_ub, _ = system.split()
        # margin fixed at zero during sampling
        assert np.max(np.abs(data @ a_eq.T - b_eq)) < 1e-9
        assert np.max(data @ a_ub.T - b_ub) < 1e-9


def test_feasibility_of_bipolar_scenario(students_ramp):
    system = compile_statements(
        students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
    )
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=1_500, seed=9))
    # every emitted vector must validate as bipolar parameters
    layout = system.layout
    for row in batch.data[::150]:
        layout.unpack(row).validate(tol=1e-7)


def scenario1_classical_polytope(students):
    return build_polytope(restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))))


def test_output_check_rejects_a_sample_below_the_normalisation(students):
    polytope = scenario1_classical_polytope(students)
    # the origin of the rounded frame maps to the analytic centre, deep
    # inside every inequality row; 1e-6 off w1 leaves the weights summing
    # to 1 - 1e-6, which only the normalisation row's absolute excess shows
    theta = np.zeros((10, polytope.offset.size))
    sampler._map_and_check(polytope, theta.copy())
    short = dataclasses.replace(polytope, offset=polytope.offset - 1e-6 * np.eye(theta.shape[1])[0])
    with pytest.raises(RuntimeError, match="sample violates a compiled row beyond 1e-9"):
        sampler._map_and_check(short, theta)


def test_output_check_rejects_a_sample_past_an_inequality_row(students):
    polytope = scenario1_classical_polytope(students)
    # 1% past the first rounded row, along its normal: on every equality
    # row, since every rounded point is
    row = polytope.A[0]
    theta = np.zeros((10, polytope.offset.size))
    theta[7, : polytope.dimension] = 1.01 * polytope.b[0] * row / (row @ row)
    with pytest.raises(RuntimeError, match="sample violates a compiled row beyond 1e-9"):
        sampler._map_and_check(polytope, theta)


def test_output_check_judges_at_the_polytope_margin(students_ramp):
    # scenario 2 holds up to a margin of 1/18: some samples of its margin-0
    # polytope clear a strict row by less than 0.02, so they meet every row
    # at margin 0 but not at the margin the tighter polytope was built at
    system = compile_statements(students_ramp, parse_statements(FIXTURES / "scenario2.jsonl"))
    loose, tight = build_polytope(system, 0.0), build_polytope(system, 0.02)
    data = hit_and_run(loose, SamplerConfig(sample_count=2_000, seed=1)).data
    _, _, ub_A, ub_b = polytope_rows(tight)
    short = data[(data @ ub_A.T - ub_b).max(axis=1) > 1e-6]
    assert short.shape[0]
    # the same points in the tighter polytope's rounded frame: both share
    # the equality rows, so its affine map reaches them
    y, *_ = np.linalg.lstsq(tight.basis, (short - tight.offset).T, rcond=None)
    theta = np.zeros_like(short)
    theta[:, : tight.dimension] = y.T
    sampler._map_and_check(dataclasses.replace(tight, delta_strict=0.0), theta.copy())
    with pytest.raises(RuntimeError, match="sample violates a compiled row beyond 1e-9"):
        sampler._map_and_check(tight, theta)


def test_determinism_bit_identical(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    cfg = SamplerConfig(sample_count=5_000, seed=42)
    one = hit_and_run(polytope, cfg)
    two = hit_and_run(polytope, cfg)
    assert np.array_equal(one.data, two.data)
    other = hit_and_run(polytope, SamplerConfig(sample_count=5_000, seed=43))
    assert not np.array_equal(one.data, other.data)


# SplitMix64 seeded with 1234567, words 1 to 5 (Rosetta Code,
# "Pseudo-random numbers/Splitmix64")
PUBLISHED_WORDS = [6457827717110365317, 3203168211198807973, 9817491932198370423,
                   4593380528125082431, 16408922859458223821]


def test_stream_gives_the_published_splitmix64_words():
    assert reference_chain.splitmix64(1234567, 5) == PUBLISHED_WORDS
    # one chain: step t reads words 2 t + 1 and 2 t + 2
    work = sampler._ChainWorkspace(np.ones((1, 1)), 3, 1)
    assert work.stream(1234567, 0, 3).ravel()[:5].tolist() == PUBLISHED_WORDS


@pytest.mark.parametrize("seed", [0, 1234567, 2 ** 64 - 1])
def test_draws_match_the_sequential_stream_across_refills(seed):
    # refills of up to 7 rows on 3 chains; the offsets start inside a
    # refill, on its boundary and far on, and the last one is short
    chains, k = 3, 5
    work = sampler._ChainWorkspace(np.ones((2, k)), 7, chains)
    for done, rows in ((0, 7), (5, 7), (7, 7), (12, 4), (1_000, 7)):
        words = reference_chain.splitmix64(seed, 2 * (done + rows) * chains)
        assert work.stream(seed, done, rows).ravel().tolist() == words[2 * done * chains:]
        axes, uniforms = work.draws(seed, done, rows, k)
        ref_axes, ref_uniforms = reference_chain.draws(seed, done, rows, chains, k)
        assert np.array_equal(axes, ref_axes)
        assert np.array_equal(uniforms, ref_uniforms)


def test_axis_of_the_largest_word_stays_below_k():
    # w >> 11 = 2^53 - 1 is the largest double below 1, and k times it
    # must round below k for every k up to 2^20; _draws multiplies by k
    # elementwise, so one call checks every k
    k = np.arange(1, 2 ** 20 + 1)[:, None]
    words = np.full((k.size, 1, 2), 2 ** 64 - 1, dtype=np.uint64)
    axes, uniforms = sampler._draws(words, np.empty_like(words), k)
    assert np.array_equal(axes, k - 1)
    assert (uniforms == 1.0 - 2.0 ** -53).all()


@pytest.mark.parametrize("k", [2, 11, 91])
def test_axes_are_uniform_by_chi_square(k):
    work = sampler._ChainWorkspace(np.ones((1, k)), 128, 64)
    counts = sum(np.bincount(work.draws(9, done, 128, k)[0].ravel(), minlength=k)
                 for done in range(0, 1_024, 128))
    assert counts.sum() == 1_024 * 64
    assert chisquare(counts).pvalue > 1e-3


def test_draws_do_not_depend_on_the_refill_size(monkeypatch, students_ramp):
    # 6,400 samples at burn-in 100 run 64 chains of 200 steps: refills of
    # 128 and 72 rows, or 29 of 7 rows. Every step draws the same axis and
    # uniform; the slack is recomputed from the points at each refill, so
    # the samples agree to rounding rather than bit for bit
    polytope = build_polytope(compile_statements(
        students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")))
    config = SamplerConfig(sample_count=6_400, burn_in=100, seed=5)
    runs = {}
    draws = sampler._ChainWorkspace.draws
    for rows in (7, 128):
        steps = []

        def recorded(work, *args):
            axes, uniforms = draws(work, *args)
            steps.append((axes.copy(), uniforms.copy()))
            return axes, uniforms

        monkeypatch.setattr(sampler, "_RAND_ROWS", rows)
        monkeypatch.setattr(sampler._ChainWorkspace, "draws", recorded)
        data = hit_and_run(polytope, config).data
        runs[rows] = (data, *(np.concatenate(part) for part in zip(*steps)))
    (short, axes_7, u_7), (full, axes_128, u_128) = runs[7], runs[128]
    assert axes_7.shape == (200, 64)
    assert np.array_equal(axes_7, axes_128) and np.array_equal(u_7, u_128)
    np.testing.assert_allclose(short, full, rtol=0, atol=1e-12)


def test_burn_in_and_thinning_change_stream(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    # a burn-in of 1,000 keeps each run on a single chain
    base = hit_and_run(polytope, SamplerConfig(sample_count=500, burn_in=1_000, seed=7))
    thinned = hit_and_run(
        polytope, SamplerConfig(sample_count=500, burn_in=1_000, seed=7, thinning=3)
    )
    assert not np.array_equal(base.data, thinned.data)
    # thinning keeps every third post-burn-in step of the same walk
    dense = hit_and_run(polytope, SamplerConfig(sample_count=1_500, burn_in=1_000, seed=7))
    np.testing.assert_array_equal(thinned.data, dense.data[2::3])


def test_thinning_keeps_every_third_step_of_each_chain(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    thin_cfg = SamplerConfig(sample_count=6_400, burn_in=100, thinning=3, seed=7)
    dense_cfg = SamplerConfig(sample_count=19_200, burn_in=100, seed=7)
    assert _chain_count(thin_cfg, 2) == _chain_count(dense_cfg, 2) == 64
    thinned = hit_and_run(polytope, thin_cfg).data.reshape(64, 100, -1)
    dense = hit_and_run(polytope, dense_cfg).data.reshape(64, 300, -1)
    # chain-major rows: block c is chain c's walk in both runs
    np.testing.assert_array_equal(thinned, dense[:, 2::3])


def test_unequal_quotas_at_thinning_3_keep_their_own_rows(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    # 6,390 samples on 64 chains: quotas of 100 for the first 54 chains
    # and 99 for the last 10. Every chain takes 100 + 100 * 3 steps, as in
    # the dense run of 64 chains of 300, so both draw the same stream
    thin_cfg = SamplerConfig(sample_count=6_390, burn_in=100, thinning=3, seed=7)
    dense_cfg = SamplerConfig(sample_count=19_200, burn_in=100, seed=7)
    assert _chain_count(thin_cfg, 2) == _chain_count(dense_cfg, 2) == 64
    thinned = hit_and_run(polytope, thin_cfg)
    quota = [100] * 54 + [99] * 10
    assert thinned.chain_quotas == tuple(quota)
    dense = hit_and_run(polytope, dense_cfg).data.reshape(64, 300, -1)
    blocks = np.split(thinned.data, np.cumsum(quota)[:-1])
    # block c holds exactly chain c's first quota[c] thinned steps
    for c, block in enumerate(blocks):
        assert block.shape[0] == quota[c]
        np.testing.assert_array_equal(block, dense[c, 2::3][:quota[c]])


@pytest.mark.parametrize("config", [
    # 64 chains at thinning 3, with quotas of 300 and 299: blocks of
    # several refills, up to 256 rows per chain
    SamplerConfig(sample_count=19_168, burn_in=100, thinning=3, seed=7),
    # 64 chains at thinning 1: a refill keeps 64 x 128 rows, so two
    # refills make a block
    SamplerConfig(sample_count=19_200, burn_in=100, seed=7),
    # one chain: every sample in one block
    SamplerConfig(sample_count=500, burn_in=1_000, seed=7),
])
def test_stream_blocks_hand_out_every_sample_once(students, config):
    polytope = build_polytope(restrict_classical(compile_statements(students, [])))
    stream = sampler.SampleStream(polytope, config)
    chains = len(stream.chain_quotas)
    bound = max(sampler._BLOCK_ROWS,
                chains * (sampler._RAND_ROWS // config.thinning + 1))
    starts = np.cumsum(stream.chain_quotas) - stream.chain_quotas
    kept = np.zeros(chains, dtype=np.int64)
    placed = np.full((config.sample_count, len(stream.columns)), np.nan)
    for j0, counts, block in stream:
        assert block.shape[0] == counts.sum() <= bound
        # each chain's samples come in order, from where the last block
        # stopped, and none past its quota
        assert (kept[counts > 0] == j0).all()
        kept += counts
        # chain c's rows of the block are its samples j0 to j0 + counts[c]
        placed[np.concatenate([start + j0 + np.arange(n)
                               for start, n in zip(starts, counts)])] = block
    assert tuple(kept) == stream.chain_quotas
    # in chain-major order, the blocks are hit_and_run's rows
    assert placed.tobytes() == hit_and_run(polytope, config).data.tobytes()


@pytest.mark.parametrize("k, steps", [(0, 0), (2, 40), (11, 220), (50, 1_000)])
def test_burn_in_is_20_steps_per_dimension_unless_given(k, steps):
    assert sampler.burn_in_steps(SamplerConfig(), k) == steps
    # an explicit burn-in overrides the rule, 0 included
    for given in (0, 7, 5_000):
        assert sampler.burn_in_steps(SamplerConfig(burn_in=given), k) == given


def test_chain_count_with_the_burn_in_by_dimension():
    # wide-m100 (5,000 samples, dim 2) and the paper's bipolar example
    # (100,000 samples, dim 11) run 64 chains; at dim 50 the rule gives
    # the 1,000 steps of an explicit burn-in, and 5 chains
    assert _chain_count(SamplerConfig(sample_count=5_000), 2) == 64
    assert _chain_count(SamplerConfig(sample_count=100_000), 11) == 64
    assert _chain_count(SamplerConfig(sample_count=5_000), 50) == 5
    assert _chain_count(SamplerConfig(sample_count=5_000, burn_in=1_000), 2) == 5


def test_burn_in_by_dimension_at_dim_50_is_the_explicit_1000():
    # six criteria, bipolar, no statements: 51 parameters less the
    # normalisation row leave dimension 50, where 20 * 50 = 1,000
    table = random_table(np.random.default_rng(6), 8, 6, p=4.0)
    polytope = build_polytope(compile_statements(table, []))
    assert polytope.dimension == 50
    by_dimension = hit_and_run(polytope, SamplerConfig(sample_count=2_000, seed=5))
    explicit = hit_and_run(polytope, SamplerConfig(sample_count=2_000, burn_in=1_000,
                                                   seed=5))
    assert np.array_equal(by_dimension.data, explicit.data)
    assert by_dimension.chain_quotas == explicit.chain_quotas == (1_000, 1_000)
    assert by_dimension.burn_in == explicit.burn_in == 1_000


def test_batch_records_the_burn_in_and_thinning_it_ran(students):
    polytope = build_polytope(restrict_classical(compile_statements(students, [])))
    batch = hit_and_run(polytope, SamplerConfig(sample_count=300, thinning=2, seed=1))
    assert (batch.burn_in, batch.thinning) == (40, 2)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=300, burn_in=9, seed=1))
    assert (batch.burn_in, batch.thinning) == (9, 1)


def test_chain_count_rule_at_the_edges(students):
    def count(**kw):
        return _chain_count(SamplerConfig(seed=0, **kw), 2)

    # burn-in work never exceeds sampling work, and no chain goes empty
    assert count(sample_count=100_000, burn_in=1_000) == 64
    assert count(sample_count=5_000, burn_in=1_000) == 5
    assert count(sample_count=500, burn_in=1_000) == 1
    assert count(sample_count=1, burn_in=0) == 1
    assert count(sample_count=10, burn_in=0) == 10
    assert count(sample_count=1_000, burn_in=0) == 64
    assert count(sample_count=3, burn_in=1_000, thinning=1_000) == 3
    assert count(sample_count=200, burn_in=1_000, thinning=1_000) == 64

    # with no burn-in, chain c's first sample is one step from the origin
    # of the rounded frame, where every chain starts: step 0, whose axis
    # and uniform are words 2 c + 1 and 2 c + 2 of the seed's stream.
    # 130 samples on 64 chains give the first two chains 3 samples and
    # the rest 2, in chain-major blocks.
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    A, b = polytope.A, polytope.b
    for sample_count, quota in ((10, [1] * 10), (130, [3, 3] + [2] * 62)):
        chains = len(quota)
        batch = hit_and_run(polytope, SamplerConfig(
            sample_count=sample_count, burn_in=0, seed=4))
        (axes,), (u,) = reference_chain.draws(4, 0, 1, chains, 2)
        # along axis j the chord coefficients are A's column j
        coef = A.T[axes]
        with np.errstate(divide="ignore"):
            ratio = b / coef
        t_hi = np.where(coef > 0, ratio, np.inf).min(axis=1)
        t_lo = np.where(coef < 0, ratio, -np.inf).max(axis=1)
        expected = np.zeros((chains, polytope.dimension))
        expected[np.arange(chains), axes] += t_lo + u * (t_hi - t_lo)
        first = np.cumsum(quota) - quota
        # the basis is not orthonormal: solve for the walk's coordinates
        z = np.linalg.lstsq(polytope.basis,
                            (batch.data[first] - polytope.offset).T, rcond=None)[0].T
        np.testing.assert_allclose(z, expected, rtol=0, atol=1e-12)


def test_irreducibility_smoke(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=1_000, seed=21))
    pts = batch.data[:, :3]
    diffs = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 0.0
    cov = np.cov(pts[:, :2].T)
    assert np.linalg.matrix_rank(cov) == 2
    assert np.linalg.det(cov) > 0.0


def test_infeasible_margin_names_its_rows():
    layout = ParameterLayout(2)
    fwd = np.zeros(layout.size + 1)
    fwd[0], fwd[1], fwd[layout.size] = 1.0, -1.0, -1.0
    bwd = np.zeros(layout.size + 1)
    bwd[0], bwd[1], bwd[layout.size] = -1.0, 1.0, -1.0
    rows = [
        ConstraintRow(fwd, ">=", 0.0, "w1 > w2"),
        ConstraintRow(bwd, ">=", 0.0, "w2 > w1"),
    ]
    norm = np.zeros(layout.size + 1)
    norm[0] = norm[1] = 1.0
    base = handmade_system(free=("a_1", "a_2"))
    system = base.with_rows(rows + [ConstraintRow(norm, "=", 1.0, "norm")])
    # no LP: the start point cannot clear both strict rows at 0.05
    with pytest.raises(InfeasibleSystemError, match="^no interior start point") as err:
        build_polytope(system, delta_strict=0.05)
    assert err.value.binding in (("w1 > w2",), ("w2 > w1",))

    truly = base.with_rows(
        [
            ConstraintRow(norm, "=", 1.0, "norm"),
            ConstraintRow(norm, "=", 0.5, "conflicting norm"),
        ]
    )
    # the least-squares offset breaks both normalisations
    with pytest.raises(InfeasibleSystemError,
                       match="^inconsistent equality rows; binding rows: norm; "
                             "conflicting norm$") as err2:
        build_polytope(truly)
    assert err2.value.binding == ("norm", "conflicting norm")

    # a_2 is pinned to 0, so the equalities fix this row at a violated value
    at_least = np.zeros(layout.size + 1)
    at_least[1] = 1.0
    fixed = handmade_system([ConstraintRow(at_least, ">=", 0.5, "a_2 >= 0.5")])
    with pytest.raises(InfeasibleSystemError,
                       match="^rows fixed by the equalities are violated; "
                             "binding rows: a_2 >= 0.5$") as err3:
        build_polytope(fixed)
    assert err3.value.binding == ("a_2 >= 0.5",)


def test_zero_dimensional_polytope_samples_its_one_point():
    # pinning a_1 as well leaves one point: the chain is skipped, and every
    # row is that point, checked against the rows like any other sample
    row = np.zeros(ParameterLayout(2).size + 1)
    row[0] = 1.0
    system = handmade_system([ConstraintRow(row, "=", 0.25, "a_1 = 0.25")])
    polytope = build_polytope(system)
    assert polytope.dimension == 0
    batch = hit_and_run(polytope, SamplerConfig(sample_count=10, burn_in=1, seed=0))
    unique = np.zeros(ParameterLayout(2).size)
    unique[0] = 0.25
    assert np.allclose(batch.data, unique, rtol=0.0, atol=1e-12)
    assert (batch.data == polytope.offset).all()
    assert len(batch.chain_quotas) == 10
    assert sum(batch.chain_quotas) == batch.sample_count == 10


def test_start_point_strictly_inside(students, students_ramp):
    cases = [
        restrict_classical(compile_statements(students, [])),
        compile_statements(students, []),
        compile_statements(
            students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
        ),
    ]
    for system in cases:
        # the chains start at the origin, where the slacks are b
        assert build_polytope(system).b.min() > 1e-12


def test_start_on_the_boundary_is_rejected():
    # a_1 <= 0.5 and a_1 >= 0.5 leave a segment of length zero: every start
    # sits on both rows, and the chain would find every chord empty
    row = np.zeros(ParameterLayout(2).size + 1)
    row[0] = 1.0
    system = handmade_system([
        ConstraintRow(row, "<=", 0.5, "a_1 <= 0.5"),
        ConstraintRow(row, ">=", 0.5, "a_1 >= 0.5"),
    ])
    with pytest.raises(InfeasibleSystemError, match="no interior start point") as err:
        build_polytope(system)
    assert err.value.binding in (("a_1 <= 0.5",), ("a_1 >= 0.5",))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_samples_satisfy_full_monotonicity(n):
    rng = np.random.default_rng(200 + n)
    table, statements = bicapacity_problem(rng, 8, n)
    system = compile_statements(table, statements)
    batch = hit_and_run(
        build_polytope(system), SamplerConfig(sample_count=2_000, burn_in=200, seed=n)
    )
    full = full_monotonicity_system(system)
    _, _, _, a_ub, b_ub, origins = full.split()
    mono = np.array([o.startswith("full monotonicity") for o in origins])
    assert mono.sum() == n * 3 ** (n - 1)
    slack = b_ub[mono] - batch.data @ a_ub[mono, :-1].T
    assert slack.min() >= -1e-9


def criteria_end_to_end(n):
    """Compile, both margins, polytope and 2k samples at n criteria, every
    sample checked against the compiled and the full monotonicity rows;
    no wall time is asserted."""
    table, statements = bicapacity_problem(np.random.default_rng(n), 8, n)
    system = compile_statements(table, statements)
    assert len(system.rows) == len(statements) + 1 + n * n + n * 2 ** (n - 1)
    classical = max_epsilon(restrict_classical(system))
    bipolar = max_epsilon(system)
    assert classical.status == "optimal" and classical.eps_star <= 1e-9
    assert bipolar.status == "optimal" and bipolar.eps_star > 1e-9
    polytope = build_polytope(system)
    assert polytope.dimension == system.layout.size - 1
    batch = hit_and_run(polytope, SamplerConfig(sample_count=2_000, seed=1))
    data = np.hstack([batch.data, np.zeros((batch.sample_count, 1))])
    for checked in (system, full_monotonicity_system(system)):
        a_eq, b_eq, _, a_ub, b_ub, _ = checked.split()
        assert np.max(np.abs(data @ a_eq.T - b_eq)) <= 1e-9
        # in blocks of samples: n = 8 has 17,496 full monotonicity rows
        for block in np.array_split(data, 10):
            assert np.max(block @ a_ub.T - b_ub) <= 1e-9


def test_seven_criteria_end_to_end():
    criteria_end_to_end(7)


def test_eight_criteria_end_to_end():
    # the enumeration cap: n = 8 must run end to end
    criteria_end_to_end(8)


def scipy_inradius(system, delta_strict):
    """Radius of the largest ball in the reduced polytope at the margin
    ``delta_strict``, by HiGHS over scipy's null-space basis of the
    equality rows (every compiled system has the normalisation row)."""
    a_eq, b_eq, _, a_ub, b_ub, _ = system.split()
    size, ecol = system.layout.size, system.eps_col
    eq_b = b_eq - a_eq[:, ecol] * delta_strict
    basis = null_space(a_eq[:, :size])
    offset = np.linalg.lstsq(a_eq[:, :size], eq_b, rcond=None)[0]
    R = a_ub[:, :size] @ basis
    r = b_ub - a_ub[:, ecol] * delta_strict - a_ub[:, :size] @ offset
    norms = np.linalg.norm(R, axis=1)
    keep = norms > 1e-12
    k = basis.shape[1]
    res = linprog(-np.eye(k + 1)[k], A_ub=np.hstack([R, norms[:, None]])[keep],
                  b_ub=r[keep], bounds=[(None, None)] * k + [(None, 1.0)],
                  method="highs")
    assert res.status == 0, res.message
    return res.x[k]


def test_analytic_centre_matches_scipy_inradius(students, students_ramp):
    scenario1 = parse_statements(FIXTURES / "scenario1.jsonl")
    systems = [
        restrict_classical(compile_statements(students, scenario1)),
        compile_statements(students, scenario1),
        compile_statements(
            students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
        ),
    ]
    for n in range(3, 9):
        table, statements = bicapacity_problem(np.random.default_rng(n), 8, n)
        systems.append(compile_statements(table, statements))
    for system in systems:
        fit = max_epsilon(system)
        # 1e-4 below the full margin the polytope is a thin slab; at the
        # full margin a statement row binds everywhere: no interior
        for delta in (0.0, fit.eps_star / 2, fit.eps_star - 1e-4, fit.eps_star):
            radius = scipy_inradius(system, delta)
            # clear of the solvers' tolerances either way
            assert radius < 1e-7 or radius > 1e-6, radius
            if radius < 1e-7:
                with pytest.raises(InfeasibleSystemError, match="no interior start point"):
                    build_polytope(system, delta)
                continue
            polytope = build_polytope(system, delta)
            # the slacks at the origin, the chains' start
            slack = polytope.b
            assert slack.min() > 0.0
            # the barrier gradient vanishes at the analytic centre
            inverse = 1.0 / slack
            assert np.linalg.norm(polytope.A.T @ inverse) / inverse.max() <= 1e-8


def test_dikin_rounding(students, students_ramp):
    scenario1 = parse_statements(FIXTURES / "scenario1.jsonl")
    systems = [
        restrict_classical(compile_statements(students, scenario1)),
        compile_statements(students, scenario1),
        compile_statements(
            students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
        ),
    ]
    for n in range(3, 9):
        table, statements = bicapacity_problem(np.random.default_rng(n), 8, n)
        systems.append(compile_statements(table, statements))
    rng = np.random.default_rng(5)
    for system in systems:
        polytope = build_polytope(system)
        A, b, k = polytope.A, polytope.b, polytope.dimension
        # the origin is the analytic centre: the barrier gradient vanishes
        inverse = 1.0 / b
        assert np.linalg.norm(A.T @ inverse) / inverse.max() <= 1e-8
        # each |A_i| / b_i is a leverage score of the scaled rows at the
        # centre: at most 1, and they sum to the dimension
        leverage = (A * A).sum(axis=1) / (b * b)
        assert leverage.max() <= 1.0 + 1e-12
        assert abs(leverage.sum() - k) <= 1e-9
        # the unit ball, its sphere included, maps inside every compiled row
        y = rng.standard_normal((400, k))
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        y[200:] *= rng.random((200, 1)) ** (1.0 / k)
        theta = polytope.offset + y @ polytope.basis.T
        eq_A, eq_b, ub_A, ub_b = polytope_rows(polytope)
        assert np.abs(theta @ eq_A.T - eq_b).max() <= 1e-9
        assert (theta @ ub_A.T - ub_b).max() <= 1e-9


def test_slab_thinner_than_the_square_root_of_eps_is_rounded(students_ramp):
    # 1e-9 below the largest margin the polytope is a slab whose barrier
    # Hessian has a condition number near 1e17: factoring H itself fails
    # in floating point, the triangle of a QR of the scaled rows does not
    system = compile_statements(
        students_ramp, parse_statements(FIXTURES / "scenario2.jsonl"))
    fit = max_epsilon(system)
    for gap in (1e-9, 1e-10):
        polytope = build_polytope(system, fit.eps_star - gap)
        assert np.linalg.cond(polytope.basis) > 1e8
        # every sample passes the output check inside hit_and_run
        hit_and_run(polytope, SamplerConfig(sample_count=2_000, seed=1))


def test_line_no_row_bounds_is_rejected_before_sampling():
    layout = ParameterLayout(2)

    def row(name, sense, rhs):
        coefs = np.zeros(layout.size + 1)
        coefs[layout.names.index(name)] = 1.0
        return ConstraintRow(coefs, sense, rhs, f"{name} {sense} {rhs}")

    pins = [row(name, "=", 0.0) for name in layout.names if name not in ("a_1", "a_2")]
    # a_2 is free in both: with a_1 bounded, and with no inequality at all
    for bounds in ([row("a_1", ">=", -1.0), row("a_1", "<=", 1.0)], []):
        system = ConstraintSystem(layout=layout, rows=tuple(pins + bounds))
        # the barrier Hessian is singular: raise before any divide by zero
        with np.errstate(all="raise"):
            with pytest.raises(RuntimeError, match="unbounded along a chord"):
                build_polytope(system)


def polygon_area(G, h):
    """Area of {y : G y <= h} in the plane, 0 if it has no interior; rows
    without coefficients must hold and are dropped."""
    norms = np.linalg.norm(G, axis=1)
    keep = norms > 1e-12
    assert (h[~keep] >= -1e-12).all()
    G, h, norms = G[keep], h[keep], norms[keep]
    # the deepest point, as the feasible point qhull needs
    res = linprog([0.0, 0.0, -1.0], A_ub=np.hstack([G, norms[:, None]]), b_ub=h,
                  bounds=[(None, None), (None, None), (0.0, None)], method="highs")
    # status 2: no point at all
    assert res.status in (0, 2), res.message
    if res.status == 2 or res.x[2] < 1e-9:
        return 0.0
    corners = HalfspaceIntersection(np.hstack([G, -h[:, None]]), res.x[:2])
    return ConvexHull(corners.intersections).volume


def test_rank1_acceptability_matches_exact_areas(students):
    # classical scenario 1 samples a triangle cut by two rows (dim 2): the
    # exact rank-1 acceptability of s_i is the area where its net flow is
    # highest over the polytope's area
    system = restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl")))
    polytope = build_polytope(system)
    assert polytope.dimension == 2
    _, _, ub_A, ub_b = polytope_rows(polytope)
    G = ub_A @ polytope.basis
    h = ub_b - ub_A @ polytope.offset
    n, m = len(students.criteria), len(students.alternatives)
    # net flows are linear in the weights, the first n columns
    unit = np.stack([classical_flows(students, w).net for w in np.eye(n)], axis=1)
    slope = unit @ polytope.basis[:n]
    level = unit @ polytope.offset[:n]
    exact = np.array([
        polygon_area(np.vstack([G, np.delete(slope - slope[i], i, axis=0)]),
                     np.concatenate([h, np.delete(level[i] - level, i)]))
        for i in range(m)
    ]) / polygon_area(G, h)
    assert exact.sum() == pytest.approx(1.0, abs=1e-9)
    runs = np.array([
        aggregate(students, hit_and_run(polytope, SamplerConfig(sample_count=20_000, seed=seed)),
                  mode="classical").rank_acceptability[:, 0]
        for seed in range(1, 9)
    ])
    se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
    assert (np.abs(runs.mean(axis=0) - exact) <= 4.0 * se).all(), (runs.mean(axis=0), exact, se)


def test_batch_save_load_roundtrip(tmp_path, students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=200, burn_in=1_000, seed=2))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    assert sidecar["rows"] == 200
    assert sidecar["dtype"] == "<f8"
    assert sidecar["columns"] == list(batch.columns)
    assert (sidecar["burn_in"], sidecar["thinning"]) == (1_000, 1)
    again = SampleBatch.load(str(path))
    assert np.array_equal(again.data, batch.data)
    assert again.columns == batch.columns
    assert again.seed == batch.seed
    assert (again.burn_in, again.thinning) == (1_000, 1)
    # 200 samples, burn-in 1,000: one chain per 1,000 steps of sampling work
    # is below one, so a single chain holds every row
    assert sidecar["chain_quotas"] == [200]
    assert again.chain_quotas == batch.chain_quotas == (200,)


@pytest.mark.parametrize("quotas", [None, (3, 2, 2)])
def test_batch_save_writes_the_rows_in_order_whatever_their_layout(tmp_path, quotas):
    # column-major data, written a chain at a time when the quotas are known
    data = np.asfortranarray(np.arange(14.0).reshape(7, 2) / 3.0)
    SampleBatch(columns=("a", "b"), data=data, chain_quotas=quotas).save(
        str(tmp_path / "samples.bin"))
    assert (tmp_path / "samples.bin").read_bytes() == data.astype("<f8").tobytes(order="C")
    again = SampleBatch.load(str(tmp_path / "samples.bin"))
    assert again.chain_quotas == quotas and np.array_equal(again.data, data)


def test_batch_save_finishes_a_write_the_system_cuts_short(tmp_path, monkeypatch):
    # a write may move fewer bytes than it is given (Linux moves at most
    # about 2 GiB at once); here every call moves at most 1,000
    pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset:
                        pwrite(fd, memoryview(data).cast("B")[:1000], offset))
    data = np.arange(3500.0).reshape(500, 7) / 7.0
    SampleBatch(columns=tuple("abcdefg"), data=data, chain_quotas=(200, 300)).save(
        str(tmp_path / "samples.bin"))
    assert (tmp_path / "samples.bin").read_bytes() == data.astype("<f8").tobytes()


def test_sidecar_records_the_chain_quotas(tmp_path, students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=1_003, burn_in=10, seed=3))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    again = SampleBatch.load(str(path))
    # 64 chains: 1,003 = 64 * 15 + 43, so the first 43 chains keep one more
    assert again.chain_quotas == (16,) * 43 + (15,) * 21
    assert sum(again.chain_quotas) == again.sample_count == 1_003
    # a sidecar whose quotas do not add up to its rows is rejected
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    sidecar["chain_quotas"][0] += 1
    (tmp_path / "samples.json").write_text(json.dumps(sidecar), encoding="utf-8")
    with pytest.raises(ValueError, match="chain quotas sum to 1004, not to the 1003 rows"):
        SampleBatch.load(str(path))


def test_batch_load_accepts_a_sidecar_without_burn_in_or_thinning(tmp_path):
    batch = SampleBatch(columns=("a", "b"), data=np.arange(6.0).reshape(3, 2),
                        burn_in=40, thinning=2)
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    assert (sidecar["burn_in"], sidecar["thinning"]) == (40, 2)
    del sidecar["burn_in"], sidecar["thinning"]
    (tmp_path / "samples.json").write_text(json.dumps(sidecar), encoding="utf-8")
    again = SampleBatch.load(str(path))
    assert (again.burn_in, again.thinning) == (None, None)
    assert np.array_equal(again.data, batch.data)


@pytest.mark.parametrize("field, value", [("burn_in", -1), ("burn_in", 1.5),
                                          ("burn_in", True), ("thinning", 0),
                                          ("thinning", "2")])
def test_batch_rejects_an_invalid_burn_in_or_thinning(tmp_path, field, value):
    data = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SampleBatch(columns=("a", "b"), data=data, **{field: value})
    path = tmp_path / "samples.bin"
    SampleBatch(columns=("a", "b"), data=data).save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    sidecar[field] = value
    (tmp_path / "samples.json").write_text(json.dumps(sidecar), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"samples\.bin: {field} must be an integer"):
        SampleBatch.load(str(path))


def test_batch_load_rejects_a_file_its_sidecar_does_not_describe(tmp_path):
    batch = SampleBatch(columns=("a", "b"), data=np.arange(6.0).reshape(3, 2))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    payload = path.read_bytes()
    # cut inside the last value, cut a whole value, and one value too many
    for body in (payload[:-3], payload[:-8], payload + payload[:8]):
        path.write_bytes(body)
        with pytest.raises(ValueError, match=r"^.*samples\.bin: \d+ bytes.*3 rows x 2"):
            SampleBatch.load(str(path))
    path.write_bytes(payload)
    assert np.array_equal(SampleBatch.load(str(path)).data, batch.data)


@pytest.mark.parametrize("quotas", [(-1, 4), (1.5, 1.5)])
def test_batch_rejects_negative_or_fractional_chain_quotas(tmp_path, quotas):
    # both sum to the 3 rows, so only the quota check itself can catch them
    data = np.arange(6.0).reshape(3, 2)
    with pytest.raises(ValueError, match="chain quotas must be non-negative integers"):
        SampleBatch(columns=("a", "b"), data=data, chain_quotas=quotas)
    path = tmp_path / "samples.bin"
    SampleBatch(columns=("a", "b"), data=data, chain_quotas=(1, 2)).save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    sidecar["chain_quotas"] = list(quotas)
    (tmp_path / "samples.json").write_text(json.dumps(sidecar), encoding="utf-8")
    with pytest.raises(ValueError, match=r"samples\.bin: chain quotas must be non-negative"):
        SampleBatch.load(str(path))


@pytest.mark.parametrize("field, value", [("dtype", ">f8"), ("dtype", "<f4"),
                                          ("order", "F"), ("order", None)])
def test_batch_load_rejects_a_sidecar_of_another_layout(tmp_path, field, value):
    # the dump is always row-major little-endian float64; a sidecar that
    # says otherwise would otherwise be read as if it did not
    batch = SampleBatch(columns=("a", "b"), data=np.arange(6.0).reshape(3, 2))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    sidecar[field] = value
    (tmp_path / "samples.json").write_text(json.dumps(sidecar), encoding="utf-8")
    with pytest.raises(ValueError, match=rf"samples\.bin: its sidecar describes .*{value}"):
        SampleBatch.load(str(path))


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(sample_count=0)
    with pytest.raises(ValueError):
        SamplerConfig(thinning=0)
    with pytest.raises(ValueError):
        SamplerConfig(burn_in=-1)
    with pytest.raises(ValueError, match="seed cannot be negative"):
        SamplerConfig(seed=-1)
    # SplitMix64's state is 64 bits: 2**64 would run as seed 0
    with pytest.raises(ValueError,
                       match=r"^seed must be below 2\*\*64, not 18446744073709551616$"):
        SamplerConfig(seed=2 ** 64)
    SamplerConfig(seed=2 ** 64 - 1)


@pytest.mark.parametrize("field, value", [
    ("sample_count", 100.0), ("sample_count", True), ("burn_in", 2.5),
    ("burn_in", "40"), ("thinning", 2.0), ("thinning", True), ("seed", 1.5),
    ("seed", False),
])
def test_config_rejects_a_field_that_is_not_an_integer(field, value):
    # with burn_in=2.5 numpy failed inside the chain, and seed=1.5 inside
    # the seed sequence
    with pytest.raises(ValueError, match=f"^{field} must be an integer, not "):
        SamplerConfig(**{"sample_count": 100, field: value})


@pytest.mark.parametrize("delta_strict", [-0.1, float("nan"), float("inf")])
def test_build_polytope_rejects_an_invalid_strict_margin(students, delta_strict):
    # a negative margin would let samples break a stated strict preference,
    # and nan or inf would fix no margin at all
    system = restrict_classical(compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")))
    with pytest.raises(ValueError, match="delta_strict must be finite and >= 0"):
        build_polytope(system, delta_strict=delta_strict)


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda sidecar: sidecar.pop("rows"), "rows None", id="no rows"),
    pytest.param(lambda sidecar: sidecar.pop("columns"), "columns None",
                 id="no columns"),
    pytest.param(lambda sidecar: sidecar.update(columns=5), "columns 5",
                 id="columns not a list"),
    pytest.param(lambda sidecar: sidecar.update(rows="x"), "rows 'x'",
                 id="rows not an integer"),
    # these three used to load, or fail with a bare TypeError
    pytest.param(lambda sidecar: sidecar.update(columns=[1, 2]), r"columns \[1, 2\]",
                 id="columns not names"),
    pytest.param(lambda sidecar: sidecar.update(chain_quotas=5), "chain_quotas 5",
                 id="chain quotas not a list"),
    pytest.param(lambda sidecar: sidecar.update(seed="x"), "seed 'x'",
                 id="seed not an integer"),
    pytest.param(lambda sidecar: sidecar.update(seed=2 ** 64), "seed 18446744073709551616",
                 id="seed beyond the stream"),
    pytest.param(None, "not JSON", id="invalid JSON"),
])
def test_batch_load_names_the_file_of_a_malformed_sidecar(tmp_path, edit, message):
    batch = SampleBatch(columns=("a", "b"), data=np.arange(6.0).reshape(3, 2))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    sidecar_path = tmp_path / "samples.json"
    if edit is None:
        text = sidecar_path.read_text(encoding="utf-8")[:-5]
    else:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
        edit(sidecar)
        text = json.dumps(sidecar)
    sidecar_path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=rf"samples\.bin: its sidecar .*{message}"):
        SampleBatch.load(str(path))
