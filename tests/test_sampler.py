import json

import numpy as np
import pytest
from scipy.linalg import null_space
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection
from scipy.stats import ks_2samp

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

from conftest import FIXTURES, bicapacity_problem, full_monotonicity_system


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
    # driven by row 0, chain c of the only refill: (R, C, k) normals, then
    # (R, C) uniforms, where R = max(quota) is the most steps any chain
    # needs. 130 samples on 64 chains give the first two chains 3 samples
    # and the rest 2, in chain-major blocks.
    system = restrict_classical(compile_statements(students, []))
    polytope = build_polytope(system)
    A, b, start = polytope.A, polytope.b, polytope.start
    for sample_count, quota in ((10, [1] * 10), (130, [3, 3] + [2] * 62)):
        chains = len(quota)
        batch = hit_and_run(polytope, SamplerConfig(
            sample_count=sample_count, burn_in=0, seed=4))
        rng = np.random.default_rng(4)
        d = rng.standard_normal((max(quota), chains, 2))[0]
        u = rng.random((max(quota), chains))[0]
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        coef = d @ A.T
        ratio = (b - A @ start) / coef
        t_hi = np.where(coef > 0, ratio, np.inf).min(axis=1)
        t_lo = np.where(coef < 0, ratio, -np.inf).max(axis=1)
        expected = start + (t_lo + u * (t_hi - t_lo))[:, None] * d
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
    assert err.value.eps_star == pytest.approx(1.0)


def test_caller_margin_is_not_solved_again(students_ramp, monkeypatch):
    system = compile_statements(
        students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
    )
    solved = build_polytope(system)
    outcome = max_epsilon(system)

    def unexpected(_system):
        raise AssertionError("margin LP solved again")

    monkeypatch.setattr(sampler, "max_epsilon", unexpected)
    reused = build_polytope(system, margin=outcome)
    for field in ("A", "b", "basis", "offset", "start"):
        assert np.array_equal(getattr(reused, field), getattr(solved, field)), field
    assert reused.eps_star == solved.eps_star


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
    polytope = build_polytope(system, margin=bipolar)
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
                    build_polytope(system, delta, margin=fit)
                continue
            polytope = build_polytope(system, delta, margin=fit)
            slack = polytope.b - polytope.A @ polytope.start
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
        assert not polytope.start.any()
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
        assert np.abs(theta @ polytope.full_eq_A.T - polytope.full_eq_b).max() <= 1e-9
        assert (theta @ polytope.full_ub_A.T - polytope.full_ub_b).max() <= 1e-9


def test_slab_thinner_than_the_square_root_of_eps_is_rounded(students_ramp):
    # 1e-9 below the largest margin the polytope is a slab whose barrier
    # Hessian has a condition number near 1e17: factoring H itself fails
    # in floating point, the triangle of a QR of the scaled rows does not
    system = compile_statements(
        students_ramp, parse_statements(FIXTURES / "scenario2.jsonl"))
    fit = max_epsilon(system)
    for gap in (1e-9, 1e-10):
        polytope = build_polytope(system, fit.eps_star - gap, margin=fit)
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
    G = polytope.full_ub_A @ polytope.basis
    h = polytope.full_ub_b - polytope.full_ub_A @ polytope.offset
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
    batch = hit_and_run(polytope, SamplerConfig(sample_count=200, seed=2))
    path = tmp_path / "samples.bin"
    batch.save(str(path))
    sidecar = json.loads((tmp_path / "samples.json").read_text(encoding="utf-8"))
    assert sidecar["rows"] == 200
    assert sidecar["dtype"] == "<f8"
    assert sidecar["columns"] == list(batch.columns)
    again = SampleBatch.load(str(path))
    assert np.array_equal(again.data, batch.data)
    assert again.columns == batch.columns
    assert again.seed == batch.seed


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


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(sample_count=0)
    with pytest.raises(ValueError):
        SamplerConfig(thinning=0)
    with pytest.raises(ValueError):
        SamplerConfig(burn_in=-1)
    with pytest.raises(ValueError, match="seed cannot be negative"):
        SamplerConfig(seed=-1)


@pytest.mark.parametrize("delta_strict", [-0.1, float("nan")])
def test_build_polytope_rejects_an_invalid_strict_margin(students, delta_strict):
    # a negative margin would let samples break a stated strict preference,
    # and nan would fix no margin at all
    system = restrict_classical(compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")))
    with pytest.raises(ValueError, match="delta_strict must be non-negative"):
        build_polytope(system, delta_strict=delta_strict)
