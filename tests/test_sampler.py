import json

import numpy as np
import pytest
from scipy.stats import ks_2samp

from smaa_promethee.bipolar import ParameterLayout
from smaa_promethee.elicitation import (
    ConstraintRow,
    ConstraintSystem,
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.sampler import (
    InfeasibleSystemError,
    SampleBatch,
    SamplerConfig,
    _chain_count,
    build_polytope,
    hit_and_run,
)

from conftest import FIXTURES


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
    xs = batch.column("a_1")
    assert xs.min() >= -1e-9 and xs.max() <= 1.0 + 1e-9
    assert abs(xs.mean() - 0.5) < 0.02
    assert abs(xs.var() - 1.0 / 12.0) < 0.01


def test_square_marginals_match_direct_uniforms():
    system = handmade_system(free=("a_1", "a_2"))
    polytope = build_polytope(system)
    assert polytope.dimension == 2
    batch = hit_and_run(polytope, SamplerConfig(sample_count=6_000, seed=11))
    rng = np.random.default_rng(999)
    direct = rng.random(6_000)
    for name in ("a_1", "a_2"):
        stat = ks_2samp(batch.column(name), direct)
        assert stat.pvalue > 0.01, (name, stat)


def test_simplex_sampling(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=30_000, seed=0))
    weights = np.stack([batch.column(f"a_{j}") for j in (1, 2, 3)], axis=1)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(weights >= -1e-9)
    for j in range(3):
        assert abs(weights[:, j].mean() - 1.0 / 3.0) < 0.015


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


def test_determinism_bit_identical(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    cfg = SamplerConfig(sample_count=5_000, seed=42)
    one = hit_and_run(polytope, cfg)
    two = hit_and_run(polytope, cfg)
    assert np.array_equal(one.data, two.data)
    other = hit_and_run(polytope, SamplerConfig(sample_count=5_000, seed=43))
    assert not np.array_equal(one.data, other.data)


def test_burn_in_and_thinning_change_stream(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    base = hit_and_run(polytope, SamplerConfig(sample_count=500, seed=7))
    thinned = hit_and_run(
        polytope, SamplerConfig(sample_count=500, seed=7, thinning=3)
    )
    assert not np.array_equal(base.data, thinned.data)
    # thinning keeps every third post-burn-in step of the same walk
    dense = hit_and_run(polytope, SamplerConfig(sample_count=1_500, seed=7))
    np.testing.assert_array_equal(thinned.data, dense.data[2::3])


def test_thinning_keeps_every_third_step_of_each_chain(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    thin_cfg = SamplerConfig(sample_count=6_400, burn_in=100, thinning=3, seed=7)
    dense_cfg = SamplerConfig(sample_count=19_200, burn_in=100, seed=7)
    assert _chain_count(thin_cfg) == _chain_count(dense_cfg) == 64
    thinned = hit_and_run(polytope, thin_cfg).data.reshape(64, 100, -1)
    dense = hit_and_run(polytope, dense_cfg).data.reshape(64, 300, -1)
    # chain-major rows: block c is chain c's walk in both runs
    np.testing.assert_array_equal(thinned, dense[:, 2::3])


def test_chain_count_rule_at_the_edges(students):
    def count(**kw):
        return _chain_count(SamplerConfig(seed=0, **kw))

    # burn-in work never exceeds sampling work, and no chain goes empty
    assert count(sample_count=100_000, burn_in=1_000) == 64
    assert count(sample_count=5_000, burn_in=1_000) == 5
    assert count(sample_count=500, burn_in=1_000) == 1
    assert count(sample_count=1, burn_in=0) == 1
    assert count(sample_count=10, burn_in=0) == 10
    assert count(sample_count=1_000, burn_in=0) == 64
    assert count(sample_count=3, burn_in=1_000, thinning=1_000) == 3
    assert count(sample_count=200, burn_in=1_000, thinning=1_000) == 64

    # with no burn-in, chain c's first sample is one step from the start,
    # driven by row 0, chain c of the first refill: (128, C, k) normals,
    # then (128, C) uniforms. 130 samples on 64 chains give the first two
    # chains 3 samples and the rest 2, in chain-major blocks.
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    A, b, start = polytope.A, polytope.b, polytope.start
    for sample_count, quota in ((10, [1] * 10), (130, [3, 3] + [2] * 62)):
        chains = len(quota)
        batch = hit_and_run(polytope, SamplerConfig(
            sample_count=sample_count, burn_in=0, seed=4))
        rng = np.random.default_rng(4)
        d = rng.standard_normal((128, chains, 2))[0]
        u = rng.random((128, chains))[0]
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        coef = d @ A.T
        ratio = (b - A @ start) / coef
        t_hi = np.where(coef > 0, ratio, np.inf).min(axis=1)
        t_lo = np.where(coef < 0, ratio, -np.inf).max(axis=1)
        expected = start + (t_lo + u * (t_hi - t_lo))[:, None] * d
        first = np.cumsum(quota) - quota
        z = (batch.data[first] - polytope.offset) @ polytope.basis
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


def test_infeasible_margin_carries_eps_star():
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
    with pytest.raises(InfeasibleSystemError) as err:
        build_polytope(system, delta_strict=0.05)
    assert err.value.eps_star == pytest.approx(0.0, abs=1e-9)

    truly = base.with_rows(
        [
            ConstraintRow(norm, "=", 1.0, "norm"),
            ConstraintRow(norm, "=", 0.5, "conflicting norm"),
        ]
    )
    with pytest.raises(InfeasibleSystemError) as err2:
        build_polytope(truly)
    assert err2.value.eps_star is None
    assert err2.value.binding


def test_zero_dimensional_polytope_rejected():
    # a fully pinned system leaves nothing to sample
    system = handmade_system(free=())
    polytope = build_polytope(system)
    assert polytope.dimension == 0
    with pytest.raises(ValueError):
        hit_and_run(polytope, SamplerConfig(sample_count=10, seed=0))


def test_start_point_strictly_inside(students, students_ramp):
    cases = [
        restrict_classical(compile_statements(students, [])),
        compile_statements(students, []),
        compile_statements(
            students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
        ),
    ]
    for system in cases:
        polytope = build_polytope(system)
        slack = polytope.b - polytope.A @ polytope.start
        assert slack.min() > 1e-12


def test_batch_save_load_roundtrip(tmp_path, students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=200, seed=2))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text())
    assert sidecar["rows"] == 200
    assert sidecar["dtype"] == "<f8"
    assert sidecar["columns"] == list(batch.columns)
    again = SampleBatch.load(str(path))
    assert np.array_equal(again.data, batch.data)
    assert again.columns == batch.columns
    assert again.seed == batch.seed


def test_batch_concat(students):
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    one = hit_and_run(polytope, SamplerConfig(sample_count=100, seed=1))
    two = hit_and_run(polytope, SamplerConfig(sample_count=150, seed=2))
    both = SampleBatch.concat([one, two])
    assert both.sample_count == 250
    assert np.array_equal(both.data[:100], one.data)
    assert np.array_equal(both.data[100:], two.data)


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(sample_count=0)
    with pytest.raises(ValueError):
        SamplerConfig(thinning=0)
    with pytest.raises(ValueError):
        SamplerConfig(burn_in=-1)
    with pytest.raises(ValueError):
        SamplerConfig(delta_strict=-0.1)
    with pytest.raises(ValueError, match="seed cannot be negative"):
        SamplerConfig(seed=-1)
