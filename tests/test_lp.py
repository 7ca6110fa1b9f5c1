import numpy as np
import pytest
from scipy.optimize import linprog

from smaa_promethee.bipolar import ParameterLayout, flow_coefficients
from smaa_promethee.elicitation import (
    ConstraintRow,
    ConstraintSystem,
    Statement,
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee import lp
from smaa_promethee.lp import (
    EPS_CAP,
    FEASIBILITY_TOL,
    ROR_EPS_MIN,
    _pivot,
    max_epsilon,
    maximise,
)
from smaa_promethee.smaa import exact_ror_matrices

from conftest import (
    FIXTURES,
    benchmark_instance,
    bicapacity_problem,
    full_monotonicity_system,
    random_table,
    ror_trials,
)


def scipy_max_epsilon(system: ConstraintSystem, eps_cap: float = EPS_CAP):
    """Reference margin via scipy's LP solver; all variables free."""
    a_eq, b_eq, _, a_ub, b_ub, _ = system.split()
    c = np.zeros(system.n_cols)
    c[system.eps_col] = -1.0
    bounds = [(None, None)] * system.layout.size + [(None, eps_cap)]
    res = linprog(
        c,
        A_ub=a_ub if a_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        A_eq=a_eq if a_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        bounds=bounds,
        method="highs",
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def two_weight_system(rows):
    """Tiny handmade system over the n=2 layout with interactions pinned."""
    layout = ParameterLayout(2)
    base = []
    norm = np.zeros(layout.size + 1)
    norm[0] = norm[1] = 1.0
    base.append(ConstraintRow(norm, "=", 1.0, "norm"))
    for col in range(2, layout.size):
        pin = np.zeros(layout.size + 1)
        pin[col] = 1.0
        base.append(ConstraintRow(pin, "=", 0.0, f"pin {col}"))
    for col in range(2):
        sign = np.zeros(layout.size + 1)
        sign[col] = 1.0
        base.append(ConstraintRow(sign, ">=", 0.0, f"w{col + 1} >= 0"))
    return ConstraintSystem(layout=layout, rows=tuple(base) + tuple(rows))


def strict_row(layout, plus, minus):
    coefs = np.zeros(layout.size + 1)
    coefs[plus] = 1.0
    coefs[minus] = -1.0
    coefs[layout.size] = -1.0
    return ConstraintRow(coefs, ">=", 0.0, f"w{plus + 1} > w{minus + 1}")


def test_one_dimensional_geometry():
    layout = ParameterLayout(2)
    system = two_weight_system([strict_row(layout, 0, 1)])
    out = max_epsilon(system)
    assert out.status == "optimal"
    assert out.eps_star == pytest.approx(1.0, abs=1e-9)
    w = out.solution[:2]
    assert w[0] == pytest.approx(1.0, abs=1e-8)
    assert w[1] == pytest.approx(0.0, abs=1e-8)


def test_contradictory_statements_pin_margin_at_zero():
    layout = ParameterLayout(2)
    system = two_weight_system(
        [strict_row(layout, 0, 1), strict_row(layout, 1, 0)]
    )
    out = max_epsilon(system)
    # symmetric pull: consistent only at equal weights and zero margin
    assert out.status == "optimal"
    assert out.eps_star == pytest.approx(0.0, abs=1e-9)
    assert out.solution[0] == pytest.approx(0.5, abs=1e-8)


def test_truly_infeasible_system_reports_binding_rows():
    layout = ParameterLayout(2)
    lo = np.zeros(layout.size + 1)
    lo[0] = 1.0
    hi = np.zeros(layout.size + 1)
    hi[0] = 1.0
    system = two_weight_system(
        [
            ConstraintRow(lo, ">=", 0.6, "floor on w1"),
            ConstraintRow(hi, "<=", 0.2, "ceiling on w1"),
        ]
    )
    out = max_epsilon(system)
    assert out.status == "infeasible"
    assert out.eps_star is None and out.solution is None
    assert out.binding
    assert any("w1" in origin for origin in out.binding)


def interleaved_system(floors, ceilings, margin_offset=0.0):
    """Hand-made n=2 system whose =, <= and >= rows alternate: w1 and w2
    held between ``floors`` and ``ceilings``, weights summing to 1, the
    interaction and the opposing powers fixed or bounded, and the strict
    row w1 - w2 - eps >= -``margin_offset``."""
    layout = ParameterLayout(2)

    def row(coefs, rel, rhs, origin):
        expr = np.zeros(layout.size + 1)
        for col, value in coefs.items():
            expr[col] = value
        return ConstraintRow(expr, rel, rhs, origin)

    return ConstraintSystem(layout, (
        row({0: 1.0}, ">=", floors[0], "w1 floor"),
        row({2: 1.0}, "=", 0.0, "pair pinned"),
        row({0: 1.0, 1: 1.0}, "=", 1.0, "norm"),
        row({1: 1.0}, "<=", ceilings[1], "w2 ceiling"),
        row({3: 1.0}, "<=", 0.0, "opp 1|2 <= 0"),
        row({1: 1.0}, ">=", floors[1], "w2 floor"),
        row({4: 1.0}, "=", 0.0, "opp 2|1 pinned"),
        row({0: 1.0}, "<=", ceilings[0], "w1 ceiling"),
        row({0: 1.0, 1: -1.0, layout.size: -1.0}, ">=", -margin_offset, "w1 > w2"),
    ))


def rows_by_relation(system, x):
    """lhs - rhs of every row, each read by its own relation."""
    return [(row.rel, float(row.coefs @ x) - row.rhs) for row in system.rows]


def test_infeasible_binding_is_the_broken_rows_in_system_order():
    # w1 >= 0.6 and w2 >= 0.7 cannot sum to 1 under ceilings 0.2 and 0.1
    system = interleaved_system(floors=(0.6, 0.7), ceilings=(0.2, 0.1))
    out = max_epsilon(system)
    assert out.status == "infeasible"
    assert scipy_max_epsilon(system) is None
    x = lp.maximise_over(system).points[0]
    broken = [
        row.origin for row, (rel, gap) in zip(system.rows, rows_by_relation(system, x))
        if (abs(gap) if rel == "=" else gap if rel == "<=" else -gap) > FEASIBILITY_TOL
    ]
    assert out.binding == tuple(broken)
    # both an equality and a negated >= row are among them
    kinds = {row.rel for row in system.rows if row.origin in out.binding}
    assert kinds == {"=", ">="}


def test_feasible_binding_is_the_tight_inequality_rows_never_the_cap():
    # the strict row allows a margin of 2.3, so the cap holds it at 2
    system = interleaved_system(floors=(0.6, 0.1), ceilings=(0.9, 0.5), margin_offset=1.5)
    out = max_epsilon(system)
    assert out.status == "optimal" and out.eps_star == pytest.approx(EPS_CAP, abs=1e-12)
    tight = [
        row.origin for row, (rel, gap) in zip(system.rows, rows_by_relation(system, out.solution))
        if rel != "=" and abs(gap) <= 1e-7
    ]
    assert tight and out.binding == tuple(tight)
    assert "margin cap" not in out.binding


def test_margin_can_go_negative():
    layout = ParameterLayout(2)
    # strict preference both ways plus a forced gap: only margin < 0 works
    gap = np.zeros(layout.size + 1)
    gap[0] = 1.0
    system = two_weight_system(
        [
            ConstraintRow(gap, "<=", 0.4, "w1 at most 0.4"),
            strict_row(layout, 0, 1),
        ]
    )
    out = max_epsilon(system)
    assert out.status == "optimal"
    # best margin is w1 - w2 = 0.4 - 0.6
    assert out.eps_star == pytest.approx(-0.2, abs=1e-9)


def test_scenario_margins_frozen(students, students_ramp):
    sc1 = parse_statements(FIXTURES / "scenario1.jsonl")
    sc2 = parse_statements(FIXTURES / "scenario2.jsonl")

    full1 = compile_statements(students, sc1)
    classical1 = restrict_classical(full1)
    assert max_epsilon(classical1).eps_star == pytest.approx(1.0, abs=1e-9)
    assert max_epsilon(full1).eps_star == pytest.approx(1.0, abs=1e-9)

    # under q = p = 0 the two intensity statements cancel exactly: both
    # margins sit at zero, classical and bipolar alike
    full2 = compile_statements(students, sc2)
    classical2 = restrict_classical(full2)
    assert max_epsilon(classical2).eps_star == pytest.approx(0.0, abs=1e-10)
    assert max_epsilon(full2).eps_star == pytest.approx(0.0, abs=1e-10)

    # a preference ramp separates the scenarios: the classical margin stays
    # pinned at zero while interactions buy strictly positive room
    ramp2 = compile_statements(students_ramp, sc2)
    ramp2_classical = restrict_classical(ramp2)
    assert max_epsilon(ramp2_classical).eps_star == pytest.approx(0.0, abs=1e-10)
    assert max_epsilon(ramp2).eps_star == pytest.approx(1.0 / 18.0, abs=1e-9)


def test_margins_match_scipy_on_fixture_systems(students, students_ramp):
    cases = []
    for table in (students, students_ramp):
        for name in ("scenario1.jsonl", "scenario2.jsonl", "empty.jsonl"):
            system = compile_statements(table, parse_statements(FIXTURES / name))
            cases.append(system)
            cases.append(restrict_classical(system))
    for system in cases:
        mine = max_epsilon(system)
        ref = scipy_max_epsilon(system)
        assert mine.status == "optimal" and ref is not None
        assert mine.eps_star == pytest.approx(ref, abs=1e-7)


def test_margins_match_scipy_on_random_systems():
    rng = np.random.default_rng(77)
    statements_pool = [
        lambda alts: Statement("local_pair", {"a": alts[0], "b": alts[1], "kind": "P"}),
        lambda alts: Statement("global_p2", {"a": alts[2], "b": alts[0], "kind": "P"}),
        lambda alts: Statement("criterion_importance", {"j": 1, "k": 2, "kind": ">"}),
        lambda alts: Statement("interaction_sign", {"j": 1, "k": 3, "sign": "-"}),
    ]
    checked = 0
    for trial in range(12):
        table = random_table(rng, 4, 3, q=0.0, p=float(rng.uniform(1.0, 4.0)))
        picks = rng.choice(len(statements_pool), size=2, replace=False)
        statements = [statements_pool[i](table.alternatives) for i in picks]
        system = compile_statements(table, statements)
        mine = max_epsilon(system)
        ref = scipy_max_epsilon(system)
        if ref is None:
            assert mine.status == "infeasible"
            continue
        assert mine.eps_star == pytest.approx(ref, abs=1e-7)
        checked += 1
    assert checked >= 8


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_pruned_margin_matches_scipy_on_full_monotonicity(n):
    # the compiled system keeps n * 2^(n-1) monotonicity rows; the full
    # 3^(n-1)-per-criterion family, solved by an independent LP code, must
    # give the same margin, and our optimum must satisfy all of it
    rng = np.random.default_rng(100 + n)
    for _ in range(2):
        table, statements = bicapacity_problem(rng, 8, n)
        system = compile_statements(table, statements)
        full = full_monotonicity_system(system)
        mine = max_epsilon(system)
        ref = scipy_max_epsilon(full)
        assert mine.status == "optimal" and ref is not None
        assert mine.eps_star == pytest.approx(ref, abs=1e-9)
        _, _, _, a_ub, b_ub, _ = full.split()
        assert np.max(a_ub @ mine.solution - b_ub) <= 1e-9


def pin_row(layout, col, coef, rhs, origin):
    coefs = np.zeros(layout.size + 1)
    coefs[col] = coef
    return ConstraintRow(coefs, "=", rhs, origin)


def test_pin_to_nonzero_value():
    # 2 w1 = 1.4 pins w1 to 0.7, so the best margin is w1 - w2 = 0.4
    layout = ParameterLayout(2)
    system = two_weight_system(
        [pin_row(layout, 0, 2.0, 1.4, "w1 = 0.7"), strict_row(layout, 0, 1)]
    )
    out = max_epsilon(system)
    assert out.status == "optimal"
    assert out.solution[0] == 0.7
    assert out.eps_star == pytest.approx(0.4, abs=1e-12)
    assert out.eps_star == pytest.approx(scipy_max_epsilon(system), abs=1e-9)


def test_consistent_pins_on_one_column():
    # the second pin stays in as the constant row 0 = 0
    layout = ParameterLayout(2)
    once = [pin_row(layout, 0, 1.0, 0.7, "w1 = 0.7"), strict_row(layout, 0, 1)]
    twice = once + [pin_row(layout, 0, 2.0, 1.4, "2 w1 = 1.4")]
    single = max_epsilon(two_weight_system(once))
    double = max_epsilon(two_weight_system(twice))
    assert double.status == "optimal"
    assert double.eps_star == pytest.approx(single.eps_star, abs=1e-12)
    assert np.allclose(double.solution, single.solution, rtol=0.0, atol=1e-12)
    assert double.binding == single.binding


def test_conflicting_pins_on_one_column_are_infeasible():
    # the first pin substitutes w1 out; the second is left as the constant
    # row 0 = 0.2 - 0.7, which phase 1 cannot satisfy
    layout = ParameterLayout(2)
    system = two_weight_system([
        pin_row(layout, 0, 1.0, 0.7, "w1 = 0.7"),
        pin_row(layout, 0, 1.0, 0.2, "w1 = 0.2"),
        strict_row(layout, 0, 1),
    ])
    a_eq, b_eq, _, a_ub, b_ub, _ = system.split()
    res = maximise(a_eq, b_eq, a_ub, b_ub, np.eye(system.n_cols)[system.eps_col])
    assert res.status == "infeasible"
    assert res.points.shape == (1, system.n_cols)
    assert res.points[0, 0] == 0.7
    out = max_epsilon(system)
    assert out.status == "infeasible"
    assert "w1 = 0.2" in out.binding and "w1 = 0.7" not in out.binding
    assert scipy_max_epsilon(system) is None


def test_objective_weighting_a_pinned_variable():
    layout = ParameterLayout(2)
    system = two_weight_system(
        [pin_row(layout, 0, 2.0, 1.4, "w1 = 0.7"), strict_row(layout, 0, 1)]
    )
    eps = np.eye(system.n_cols)[system.eps_col]
    capped = system.with_rows([ConstraintRow(eps, "<=", EPS_CAP, "margin cap")])
    a_eq, b_eq, _, a_ub, b_ub, _ = capped.split()
    objectives = np.zeros((2, system.n_cols))
    objectives[0, [0, system.eps_col]] = 3.0, 1.0  # 3 w1 + eps
    objectives[1, [0, 1]] = -1.0, 2.0  # -w1 + 2 w2
    res = maximise(a_eq, b_eq, a_ub, b_ub, objectives)
    assert res.feasible
    assert res.values == pytest.approx([2.5, -0.1], abs=1e-12)
    for c, value, point in zip(objectives, res.values, res.points):
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=[(None, None)] * system.n_cols, method="highs")
        assert ref.status == 0, ref.message
        assert value == pytest.approx(-ref.fun, abs=1e-9)
        assert point[0] == 0.7


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_classical_margin_matches_scipy(n):
    # restrict_classical pins every interaction and opposing power with a
    # one-entry row: 3 n (n - 1) / 2 variables substituted out
    rng = np.random.default_rng(200 + n)
    for _ in range(2):
        table, statements = bicapacity_problem(rng, 8, n)
        system = restrict_classical(compile_statements(table, statements))
        mine = max_epsilon(system)
        ref = scipy_max_epsilon(system)
        assert mine.status == "optimal" and ref is not None
        assert mine.eps_star == pytest.approx(ref, abs=1e-9)


def loop_pivot(T, basis, row, col):
    """Row-by-row Gauss-Jordan elimination, the reference for ``_pivot``."""
    T[row] /= T[row, col]
    for r in range(T.shape[0]):
        if r != row and T[r, col] != 0.0:
            T[r] -= T[r, col] * T[row]
    basis[row] = col


def test_rank1_pivot_matches_row_loop():
    rng = np.random.default_rng(11)
    for trial in range(40):
        rows, cols = (int(v) for v in rng.integers(2, 30, size=2))
        # half the entries zero, so rows with nothing to eliminate occur
        T = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        ref = T.copy()
        basis = np.zeros(rows - 1, dtype=int)
        ref_basis = basis.copy()
        # a sequence of pivots, so rounding carries from one to the next
        for _ in range(5):
            row = int(rng.integers(rows - 1))
            col = int(rng.integers(cols - 1))
            if T[row, col] == 0.0:
                T[row, col] = ref[row, col] = rng.uniform(0.5, 2.0)
            _pivot(T, basis, row, col)
            loop_pivot(ref, ref_basis, row, col)
            assert np.array_equal(T, ref), trial
            assert np.array_equal(basis, ref_basis)
            assert T[row, col] == 1.0
            assert np.count_nonzero(T[:, col]) == 1


def test_pivot_leaves_zero_columns_bit_for_bit():
    # a column whose pivot-row entry is zero is neither divided nor
    # updated, so every entry in it keeps its bits, the sign of a zero too
    rng = np.random.default_rng(12)
    for trial in range(40):
        rows, cols = (int(v) for v in rng.integers(2, 30, size=2))
        T = rng.normal(size=(rows, cols)) * (rng.random((rows, cols)) < 0.5)
        T[rng.random((rows, cols)) < 0.2] = -0.0
        basis = np.zeros(rows - 1, dtype=int)
        for _ in range(5):
            row = int(rng.integers(rows - 1))
            col = int(rng.integers(cols - 1))
            if T[row, col] == 0.0:
                T[row, col] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            before = T.copy()
            zero = before[row] == 0.0
            _pivot(T, basis, row, col)
            assert np.array_equal(
                T[:, zero].view(np.uint64), before[:, zero].view(np.uint64)
            ), trial


def test_optimal_solution_satisfies_every_row(students):
    system = compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")
    )
    out = max_epsilon(system)
    x = out.solution
    for row in system.rows:
        val = float(row.coefs @ x)
        if row.rel == "=":
            assert val == pytest.approx(row.rhs, abs=1e-8)
        elif row.rel == "<=":
            assert val <= row.rhs + 1e-8
        else:
            assert val >= row.rhs - 1e-8
    # dropping the margin column leaves a valid parameter vector
    params = system.layout.unpack(x[: system.layout.size])
    params.validate(tol=1e-7)


def test_determinism(students):
    system = compile_statements(
        students, parse_statements(FIXTURES / "scenario2.jsonl")
    )
    a = max_epsilon(system)
    b = max_epsilon(system)
    assert a.eps_star == b.eps_star
    assert np.array_equal(a.solution, b.solution)
    assert a.binding == b.binding


def test_exact_ror_reflexive_and_dominance(students):
    system = compile_statements(students, [])
    possible, necessary = exact_ror_matrices(system, students)
    assert np.all(np.diag(possible)) and np.all(np.diag(necessary))

    # no student dominates another outright, so build a dominance pair
    rng = np.random.default_rng(1)
    table = random_table(rng, 3, 3, q=0.0, p=2.0)
    evals = table.evaluations.copy()
    evals[0] = evals[1] + 3.0
    dom = type(table)(table.alternatives, table.criteria, evals)
    possible, necessary = exact_ror_matrices(compile_statements(dom, []), dom)
    assert necessary[0, 1] and possible[0, 1]
    assert not necessary[1, 0]

    # identical alternatives tie under every parameter set: the optimum of
    # F_a - F_b is exactly 0, so each possibly and necessarily outranks
    # the other
    evals[2] = evals[1]
    twins = type(table)(table.alternatives, table.criteria, evals)
    possible, necessary = exact_ror_matrices(compile_statements(twins, []), twins)
    assert possible[1, 2] and possible[2, 1]
    assert necessary[1, 2] and necessary[2, 1]


def test_exact_ror_necessary_implies_possible(students):
    system = compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")
    )
    classical = restrict_classical(system)
    possible, necessary = exact_ror_matrices(classical, students)
    assert necessary.any() and not necessary.all()
    assert np.all(possible[necessary])


def test_exact_ror_without_compatible_set_keeps_vacuous_verdicts():
    layout = ParameterLayout(2)
    # both strict rows hold only at margin 0, below ROR_EPS_MIN
    system = two_weight_system(
        [strict_row(layout, 0, 1), strict_row(layout, 1, 0)]
    )
    table = random_table(np.random.default_rng(3), 3, 2, q=0.0, p=2.0)
    possible, necessary = exact_ror_matrices(system, table)
    off = ~np.eye(3, dtype=bool)
    assert not possible[off].any() and necessary[off].all()
    assert possible.diagonal().all() and necessary.diagonal().all()


def scipy_ror_matrices(system: ConstraintSystem, table):
    """Possible/necessary matrices from one scipy LP per ordered pair."""
    a_eq, b_eq, _, a_ub, b_ub, _ = system.split()
    flow_pos, flow_neg = flow_coefficients(table, system.layout)
    net = flow_pos - flow_neg
    m = len(table.alternatives)
    possible = np.eye(m, dtype=bool)
    necessary = np.ones((m, m), dtype=bool)
    bounds = [(None, None)] * system.layout.size + [(ROR_EPS_MIN, EPS_CAP)]
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            c = np.zeros(system.n_cols)
            c[: system.layout.size] = net[b] - net[a]
            res = linprog(
                c,
                A_ub=a_ub if a_ub.size else None,
                b_ub=b_ub if b_ub.size else None,
                A_eq=a_eq if a_eq.size else None,
                b_eq=b_eq if b_eq.size else None,
                bounds=bounds,
                method="highs",
            )
            if res.status == 2:
                possible[a, b] = False
                continue
            assert res.status == 0, res.message
            best = -res.fun  # max of F_a - F_b
            possible[a, b] = best >= -FEASIBILITY_TOL
            necessary[b, a] = best < ROR_EPS_MIN - FEASIBILITY_TOL
    return possible, necessary


def ror_oracle_cases(tmp_path):
    # trial 3 crashed the two-LPs-per-pair sweep and trial 23 gave a false
    # possible verdict, as did the benchmark's n = 5 synthetic instance;
    # n = 6 and 7 reach the README's --exact-ror limit, at m = 6 so that
    # the n = 7 sweep takes about two seconds
    trials = ror_trials(24)
    cases = [(f"trial {t}", *trials[t]) for t in (0, 1, 2, 3, 23)]
    for n, m in ((5, 8), (6, 6), (7, 6)):
        table, statements = benchmark_instance(
            tmp_path / f"n{n}", 1, m=m, n=n, p=4.0, interactions=True,
            statement_count=4)
        cases.append((f"synthetic n{n}", table, statements))
    return cases


def test_exact_ror_matches_scipy(tmp_path):
    for name, table, statements in ror_oracle_cases(tmp_path):
        full = compile_statements(table, statements)
        for form, system in (("bipolar", full), ("classical", restrict_classical(full))):
            mine = exact_ror_matrices(system, table)
            ref = scipy_ror_matrices(system, table)
            assert np.array_equal(mine[0], ref[0]), (name, form, "possible")
            assert np.array_equal(mine[1], ref[1]), (name, form, "necessary")


def test_drifted_tableau_raises_instead_of_answering():
    # the pair LP "x8 possibly outranks x6" on trial 23: the tableau drifts
    # until phase 1 reports a negative sum of artificials, and the point it
    # would return breaks the normalisation
    table, statements = ror_trials(24)[23]
    system = compile_statements(table, statements)
    flow_pos, flow_neg = flow_coefficients(table, system.layout)
    net = flow_pos - flow_neg
    diff = np.zeros(system.n_cols)
    diff[: system.layout.size] = (
        net[table.alternative_index("x8")] - net[table.alternative_index("x6")]
    )
    eps = np.eye(system.n_cols)[system.eps_col]
    pair_lp = system.with_rows([
        ConstraintRow(eps, ">=", ROR_EPS_MIN, "margin floor"),
        ConstraintRow(diff, ">=", 0.0, "test x8 >= x6"),
    ])
    with pytest.raises(RuntimeError, match="negative sum of artificials"):
        max_epsilon(pair_lp)


def test_optimum_off_the_rows_raises(students, monkeypatch):
    system = compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")
    )
    real_point = lp._point

    def drifted(T, basis, n_vars):
        return real_point(T, basis, n_vars) + 1e-6

    monkeypatch.setattr(lp, "_point", drifted)
    with pytest.raises(RuntimeError, match="breaks a constraint row"):
        max_epsilon(system)


def test_warm_started_objectives_match_cold_solves_and_scipy():
    rng = np.random.default_rng(19)
    table, statements = bicapacity_problem(rng, 7, 4)
    system = compile_statements(table, statements)
    eps = np.eye(system.n_cols)[system.eps_col]
    bounded = system.with_rows([
        ConstraintRow(eps, ">=", ROR_EPS_MIN, "margin floor"),
        ConstraintRow(eps, "<=", EPS_CAP, "margin cap"),
    ])
    a_eq, b_eq, _, a_ub, b_ub, _ = bounded.split()
    objectives = np.vstack([eps, rng.normal(size=(6, system.n_cols))])
    warm = maximise(a_eq, b_eq, a_ub, b_ub, objectives)
    assert warm.feasible and warm.points.shape == objectives.shape
    for c, value, point in zip(objectives, warm.values, warm.points):
        cold = maximise(a_eq, b_eq, a_ub, b_ub, c)
        assert cold.values.shape == (1,)
        ref = linprog(-c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=[(None, None)] * system.n_cols, method="highs")
        assert ref.status == 0, ref.message
        assert value == pytest.approx(cold.values[0], abs=1e-9)
        assert value == pytest.approx(-ref.fun, abs=1e-9)
        assert float(c @ point) == pytest.approx(value, abs=1e-12)


def test_single_objective_reproduces_margin_solution(students_ramp):
    system = compile_statements(
        students_ramp, parse_statements(FIXTURES / "scenario2.jsonl")
    )
    out = max_epsilon(system)
    eps = np.eye(system.n_cols)[system.eps_col]
    capped = system.with_rows([ConstraintRow(eps, "<=", EPS_CAP, "margin cap")])
    a_eq, b_eq, _, a_ub, b_ub, _ = capped.split()
    res = maximise(a_eq, b_eq, a_ub, b_ub, eps)
    assert np.array_equal(res.points[0], out.solution)
    assert res.values[0] == out.eps_star


def test_binding_origins_meaningful(students):
    system = compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")
    )
    out = max_epsilon(system)
    assert out.binding
    # at the optimum the margin is capped; the cap itself is internal, so
    # at least one named system row must sit tight as well
    assert all(isinstance(origin, str) and origin for origin in out.binding)
