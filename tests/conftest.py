"""Shared fixtures and independent reference implementations.

The reference functions here are written as plain loops on purpose: they
must not share code paths with the vectorised implementations under test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from smaa_promethee.bipolar import (
    BicapacityParams,
    ParameterLayout,
    _side_pairs,
    bipolar_flows,
)
from smaa_promethee.elicitation import (
    ConstraintRow,
    ConstraintSystem,
    Statement,
    parse_statements,
)
from smaa_promethee.model import Criterion, PerformanceTable, load_problem

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

# Equal-weight net flows for the students fixture (q = p = 0), worked out
# by hand from pairwise win/loss counts: the per-criterion net score of an
# alternative is (wins - losses) / 7 and the three criteria average with
# weight 1/3 each.
TABLE1_NET_EQUAL_WEIGHTS = np.array(
    [0.0, -4 / 21, 5 / 21, 0.0, -1 / 21, -2 / 7, 2 / 7, 0.0]
)


@pytest.fixture(scope="session")
def students() -> PerformanceTable:
    return load_problem(FIXTURES / "students.json")


@pytest.fixture(scope="session")
def students_ramp() -> PerformanceTable:
    return load_problem(FIXTURES / "students_ramp.json")


def ramp_degree(d: float, q: float, p: float) -> float:
    """Scalar preference degree; independent of the package implementation."""
    if q == p:
        return 1.0 if d > q else 0.0
    if d <= q:
        return 0.0
    if d >= p:
        return 1.0
    return (d - q) / (p - q)


def classical_flows_reference(table: PerformanceTable, weights):
    """Plain-loop positive/negative/net flows used as an oracle."""
    m = table.n_alternatives
    weights = np.asarray(weights, dtype=float)
    pos = np.zeros(m)
    neg = np.zeros(m)
    for ia, a in enumerate(table.alternatives):
        for ib, b in enumerate(table.alternatives):
            if ia == ib:
                continue
            pi_ab = 0.0
            for j, crit in enumerate(table.criteria):
                d = table.difference(crit.name, a, b)
                pi_ab += weights[j] * ramp_degree(d, crit.q, crit.p)
            pos[ia] += pi_ab
            neg[ib] += pi_ab
    pos /= m - 1
    neg /= m - 1
    return pos, neg, pos - neg


def random_valid_params(
    rng: np.random.Generator, n: int, interaction_scale: float = 0.25
) -> BicapacityParams:
    """Draw random parameters, shrinking interactions until they validate."""
    a = rng.random(n) + 0.05
    pair = rng.normal(0.0, interaction_scale, size=(n, n))
    pair = (pair + pair.T) / 2.0
    np.fill_diagonal(pair, 0.0)
    opp = -np.abs(rng.normal(0.0, interaction_scale, size=(n, n)))
    np.fill_diagonal(opp, 0.0)
    for _ in range(60):
        total = a.sum() + np.triu(pair, 1).sum()
        if total > 1e-6:
            cand = BicapacityParams(a / total, pair / total, opp / total)
            try:
                cand.validate()
                return cand
            except ValueError:
                pass
        pair = pair * 0.7
        opp = opp * 0.7
    raise AssertionError("failed to generate valid parameters")


def random_table(
    rng: np.random.Generator, m: int, n: int, q: float = 0.0, p: float = 0.0
) -> PerformanceTable:
    criteria = tuple(Criterion(name=f"g{j + 1}", q=q, p=p) for j in range(n))
    labels = tuple(f"x{i + 1}" for i in range(m))
    evals = rng.uniform(0.0, 10.0, size=(m, n))
    return PerformanceTable(labels, criteria, evals)


def pack_layout(params: BicapacityParams) -> np.ndarray:
    return ParameterLayout(params.n).pack(params)


def bicapacity_problem(rng: np.random.Generator, m: int, n: int):
    """Ramp table plus statements that a hidden valid bicapacity satisfies.

    Three net-flow statements follow the hidden ranking; a negative
    interaction and an opposing-power comparison push parameters against
    the monotonicity rows, so those rows shape the margin.
    """
    table = random_table(rng, m, n, q=0.0, p=4.0)
    net = bipolar_flows(table, random_valid_params(rng, n)).net
    order = np.argsort(-net)
    labels = table.alternatives
    statements = [
        Statement("global_p2", {"a": labels[order[i]], "b": labels[order[i + 1]]})
        for i in (0, 2, 4)
    ]
    j, k, h = (int(c) + 1 for c in rng.choice(n, size=3, replace=False))
    statements.append(Statement("interaction_sign", {"j": j, "k": k, "sign": "-"}))
    statements.append(Statement("opposing_power",
                                {"variant": "a", "fixed": j, "stronger": k, "weaker": h}))
    return table, statements


def full_monotonicity_system(system: ConstraintSystem) -> ConstraintSystem:
    """The system with its monotonicity rows replaced by all 3^(n-1) per
    criterion, one per disjoint (C, D) split of the other criteria."""
    layout = system.layout
    n = layout.n
    rows = [r for r in system.rows if not r.origin.startswith("monotonicity")]
    for j in range(n):
        others = tuple(i for i in range(n) if i != j)
        for c, d in _side_pairs(others, (0, 1, 2)):
            coefs = np.zeros(layout.size + 1)
            coefs[layout.a_col(j)] = 1.0
            for k in c:
                coefs[layout.pair_col(j, k)] += 1.0
            for k in d:
                coefs[layout.opp_col(j, k)] += 1.0
            rows.append(ConstraintRow(coefs, ">=", 0.0, f"full monotonicity {j} {c} {d}"))
    return ConstraintSystem(layout=layout, rows=tuple(rows))


def polytope_rows(polytope):
    """The rows ``polytope`` was built from, over the parameter columns,
    with its margin moved into the right-hand side: (eq_A, eq_b, ub_A,
    ub_b), every ">=" row negated into "<=". Read through ``split``, not
    through ``ConstraintSystem.excess``, the rule under test."""
    size = polytope.system.layout.size
    eq_A, eq_b, _, ub_A, ub_b, _ = polytope.system.split()
    delta = polytope.delta_strict
    return (eq_A[:, :size], eq_b - eq_A[:, size] * delta,
            ub_A[:, :size], ub_b - ub_A[:, size] * delta)


def ror_trials(count: int):
    """The first ``count`` seeded problems of the exact-ROR oracle set:
    m from 6 to 9 alternatives, n from 3 to 5 criteria."""
    rng = np.random.default_rng(7)
    out = []
    for _ in range(count):
        m = int(rng.integers(6, 10))
        n = int(rng.integers(3, 6))
        out.append(bicapacity_problem(rng, m, n))
    return out


def benchmark_instance(directory: Path, seed: int, **synthetic):
    """A synthetic table and statements of the pipeline benchmark
    (``perfbench/inputs.py``), written to ``directory`` and read back
    through the CLI's loaders."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    problem, statements = inputs.write(
        str(directory), *inputs.synthetic(seed, **synthetic))
    return load_problem(problem), parse_statements(statements)
