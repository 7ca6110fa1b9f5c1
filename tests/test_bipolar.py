import ast
import re

import numpy as np
import pytest

from smaa_promethee.bipolar import (
    ENUMERATION_CAP,
    BicapacityParams,
    EnumerationCapError,
    GeneralBicapacity,
    ParameterLayout,
    _side_pairs,
    bipolar_choquet_2additive,
    bipolar_choquet_general,
    bipolar_flows,
    bipolar_preference_tensor,
    choquet_coefficients,
    flow_coefficients,
)
from smaa_promethee.promethee import Relation, classical_flows, promethee1_relation, promethee2_ranking

from conftest import random_table, random_valid_params
from reference_bipolar import bipolar_preference_vector, definitional_flows


def definitional_reference(x, bicap: GeneralBicapacity):
    """Increment-form evaluation over distinct magnitudes.

    Integrates the two bicapacity parts over the level sets directly:
    each distinct magnitude slice [prev, v] contributes its width times
    the part evaluated at the sets of criteria at least v strong. Being
    grouped by value, the form cannot depend on tie order.
    """
    x = np.asarray(x, dtype=float)
    mags = sorted({abs(v) for v in x if abs(v) > 0.0})
    pos = 0.0
    neg = 0.0
    prev = 0.0
    for v in mags:
        sup = frozenset(np.flatnonzero(x >= v).tolist())
        opp = frozenset(np.flatnonzero(-x >= v).tolist())
        pos += (v - prev) * bicap.mu_plus(sup, opp)
        neg += (v - prev) * bicap.mu_minus(sup, opp)
        prev = v
    return pos, neg, pos - neg


def spec_params_2d() -> BicapacityParams:
    return BicapacityParams(
        a=np.array([0.5, 0.5]),
        pair=np.zeros((2, 2)),
        opp=np.array([[0.0, -0.2], [-0.2, 0.0]]),
    )


def test_preference_vector_examples(students):
    x = bipolar_preference_vector(students, "s2", "s3")
    assert x.tolist() == [-1.0, -1.0, 1.0]
    assert bipolar_preference_vector(students, "s1", "s1").tolist() == [0.0] * 3


def test_preference_vector_full_dominance():
    rng = np.random.default_rng(0)
    table = random_table(rng, 2, 3, q=0.0, p=1.0)
    evals = table.evaluations.copy()
    evals[0] = evals[1] + 2.0
    table = type(table)(table.alternatives, table.criteria, evals)
    assert bipolar_preference_vector(table, "x1", "x2").tolist() == [1.0] * 3


def test_preference_tensor_antisymmetric(students, students_ramp):
    for table in (students, students_ramp):
        tensor = bipolar_preference_tensor(table)
        assert np.array_equal(tensor, -tensor.transpose(1, 0, 2))
        assert np.all(np.abs(tensor) <= 1.0)
        for i, a in enumerate(table.alternatives):
            for k, b in enumerate(table.alternatives):
                assert np.array_equal(tensor[i, k], bipolar_preference_vector(table, a, b))


def test_choquet_trivial_cases():
    params = spec_params_2d()
    params.validate()
    bicap = GeneralBicapacity.from_params(params)
    assert bipolar_choquet_general(np.zeros(2), bicap) == (0.0, 0.0, 0.0)
    triple = bipolar_choquet_general(np.ones(2), bicap)
    assert triple.positive == pytest.approx(1.0, abs=1e-12)


def test_choquet_worked_example():
    params = spec_params_2d()
    triple = bipolar_choquet_2additive(np.array([1.0, -1.0]), params)
    assert triple.positive == pytest.approx(0.3, abs=1e-12)
    assert triple.negative == pytest.approx(0.3, abs=1e-12)
    assert triple.net == pytest.approx(0.0, abs=1e-12)
    general = bipolar_choquet_general(
        np.array([1.0, -1.0]), GeneralBicapacity.from_params(params)
    )
    assert general.positive == pytest.approx(0.3, abs=1e-12)


def test_zero_interactions_reduce_to_weighted_sum():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        a = rng.random(n) + 0.05
        a /= a.sum()
        params = BicapacityParams(a, np.zeros((n, n)), np.zeros((n, n)))
        params.validate()
        x = rng.uniform(-1.0, 1.0, size=n)
        triple = bipolar_choquet_2additive(x, params)
        assert triple.net == pytest.approx(float(a @ x), abs=1e-12)


def test_closed_form_matches_definitional():
    rng = np.random.default_rng(42)
    for _ in range(120):
        n = int(rng.integers(2, 5))
        params = random_valid_params(rng, n)
        bicap = GeneralBicapacity.from_params(params)
        bicap.validate()
        x = rng.uniform(-1.0, 1.0, size=n)
        if rng.random() < 0.3:
            x[rng.integers(0, n)] = 0.0
        fast = bipolar_choquet_2additive(x, params)
        slow = bipolar_choquet_general(x, bicap)
        ref = definitional_reference(x, bicap)
        assert fast.positive == pytest.approx(slow.positive, abs=1e-10)
        assert fast.negative == pytest.approx(slow.negative, abs=1e-10)
        assert fast.positive == pytest.approx(ref[0], abs=1e-10)
        assert fast.negative == pytest.approx(ref[1], abs=1e-10)
        assert fast.net == pytest.approx(fast.positive - fast.negative, abs=1e-12)


def test_tie_order_independence():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(3, 5))
        params = random_valid_params(rng, n)
        bicap = GeneralBicapacity.from_params(params)
        mag = float(rng.uniform(0.2, 0.9))
        signs = rng.choice([-1.0, 1.0], size=n)
        x = signs * mag
        x[0] = rng.uniform(-1.0, 1.0)
        got = bipolar_choquet_general(x, bicap)
        ref = definitional_reference(x, bicap)
        assert got.positive == pytest.approx(ref[0], abs=1e-12)
        assert got.negative == pytest.approx(ref[1], abs=1e-12)


def test_antisymmetry_random():
    rng = np.random.default_rng(13)
    for _ in range(80):
        n = int(rng.integers(2, 5))
        params = random_valid_params(rng, n)
        x = rng.uniform(-1.0, 1.0, size=n)
        fwd = bipolar_choquet_2additive(x, params)
        bwd = bipolar_choquet_2additive(-x, params)
        assert fwd.net == pytest.approx(-bwd.net, abs=1e-10)
        assert fwd.positive == pytest.approx(bwd.negative, abs=1e-10)
        assert fwd.negative == pytest.approx(bwd.positive, abs=1e-10)


def test_componentwise_monotonicity():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(2, 5))
        params = random_valid_params(rng, n)
        x = rng.uniform(-1.0, 1.0, size=n)
        higher = np.minimum(x + rng.uniform(0.0, 0.5, size=n), 1.0)
        lo = bipolar_choquet_2additive(x, params)
        hi = bipolar_choquet_2additive(higher, params)
        assert hi.net >= lo.net - 1e-10


def test_coefficient_rows_match_direct_evaluation():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        layout = ParameterLayout(n)
        params = random_valid_params(rng, n)
        theta = layout.pack(params)
        x = rng.uniform(-1.0, 1.0, size=n)
        cp, cn = choquet_coefficients(x, layout)
        direct = bipolar_choquet_general(x, GeneralBicapacity.from_params(params))
        assert float(cp @ theta) == pytest.approx(direct.positive, abs=1e-12)
        assert float(cn @ theta) == pytest.approx(direct.negative, abs=1e-12)


def test_flow_coefficients(students):
    layout = ParameterLayout(3)
    tensor = bipolar_preference_tensor(students)
    cp, cn = choquet_coefficients(tensor, layout)
    assert cp.shape == cn.shape == (8, 8, layout.size)
    rng = np.random.default_rng(2)
    params = random_valid_params(rng, 3)
    theta = layout.pack(params)
    bicap = GeneralBicapacity.from_params(params)
    for a in range(8):
        assert np.all(cp[a, a] == 0.0) and np.all(cn[a, a] == 0.0)
        for b in range(8):
            one_p, one_n = choquet_coefficients(tensor[a, b], layout)
            assert np.array_equal(cp[a, b], one_p)
            assert np.array_equal(cn[a, b], one_n)
            if a == b:
                continue
            direct = bipolar_choquet_general(tensor[a, b], bicap)
            assert float(cp[a, b] @ theta) == pytest.approx(direct.positive, abs=1e-12)
            assert float(cn[a, b] @ theta) == pytest.approx(direct.negative, abs=1e-12)

    cases = [(students, params)]
    for m, n in ((2, 2), (5, 3), (9, 4)):
        cases.append((random_table(rng, m, n, q=0.5, p=2.0), random_valid_params(rng, n)))
    for table, params in cases:
        layout = ParameterLayout(params.n)
        theta = layout.pack(params)
        flow_pos, flow_neg = flow_coefficients(table, layout)
        assert flow_pos.shape == flow_neg.shape == (table.n_alternatives, layout.size)
        loop = definitional_flows(table, params)
        assert np.allclose(flow_pos @ theta, loop.positive, rtol=0.0, atol=1e-12)
        assert np.allclose(flow_neg @ theta, loop.negative, rtol=0.0, atol=1e-12)


def test_layout_columns_and_packing():
    layout = ParameterLayout(3)
    assert layout.size == 12
    assert layout.a_col(0) == 0
    assert layout.pair_col(0, 1) == layout.pair_col(1, 0)
    assert layout.opp_col(0, 1) != layout.opp_col(1, 0)
    assert len(layout.names) == layout.size
    assert len(set(layout.names)) == layout.size

    rng = np.random.default_rng(4)
    params = random_valid_params(rng, 3)
    theta = layout.pack(params)
    again = layout.unpack(theta)
    assert np.array_equal(again.a, params.a)
    assert np.array_equal(again.pair, params.pair)
    assert np.array_equal(again.opp, params.opp)
    assert theta[layout.pair_col(0, 2)] == params.pair[0, 2]
    assert theta[layout.opp_col(2, 1)] == params.opp[2, 1]


def test_params_validation_rejects_bad_values():
    n = 2
    ok = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        BicapacityParams(np.array([-0.1, 1.1]), np.zeros((n, n)), np.zeros((n, n))).validate()
    with pytest.raises(ValueError):
        BicapacityParams(ok, np.zeros((n, n)), np.full((n, n), 0.1)).validate()
    with pytest.raises(ValueError):
        # boundary sum far from one
        BicapacityParams(ok * 2.0, np.zeros((n, n)), np.zeros((n, n))).validate()
    with pytest.raises(ValueError):
        # opposing power overwhelming the own power breaks monotonicity
        BicapacityParams(
            ok, np.zeros((n, n)), np.array([[0.0, -0.9], [-0.9, 0.0]])
        ).validate()
    asym = np.zeros((n, n))
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        BicapacityParams(np.array([0.25, 0.25]), asym, np.zeros((n, n))).validate()


def test_general_bicapacity_validation():
    rng = np.random.default_rng(17)
    params = random_valid_params(rng, 3)
    bicap = GeneralBicapacity.from_params(params)
    bicap.validate()
    broken = dict(bicap.plus)
    broken[(frozenset({0, 1, 2}), frozenset())] = 0.5
    with pytest.raises(ValueError):
        GeneralBicapacity(n=3, plus=broken, minus=bicap.minus).validate()


def test_enumeration_cap():
    n = ENUMERATION_CAP + 1
    a = np.full(n, 1.0 / n)
    params = BicapacityParams(a, np.zeros((n, n)), np.zeros((n, n)))
    with pytest.raises(EnumerationCapError):
        GeneralBicapacity.from_params(params)
    # validate checks monotonicity in closed form: no cap applies, and a
    # violation beyond the cap is still named
    params.validate()
    opp = np.zeros((n, n))
    opp[n - 1, 0] = -2.0 / n
    with pytest.raises(ValueError, match=rf"criterion {n}, with=\(\) against=\(1,\)"):
        BicapacityParams(a, np.zeros((n, n)), opp).validate()


def enumerated_minimum(params, j):
    """The least a_j + sum(pair[j, C]) + sum(opp[j, D]) over every
    disjoint (C, D) of the other criteria, by enumeration."""
    others = tuple(k for k in range(params.n) if k != j)
    return min(params.a[j] + sum(params.pair[j, k] for k in c)
               + sum(params.opp[j, k] for k in d)
               for c, d in _side_pairs(others, (0, 1, 2)))


@pytest.mark.parametrize("n", range(2, 8))
def test_monotonicity_in_closed_form_matches_the_enumeration(n):
    # normalised powers and opposing powers of the right sign, with pair
    # interactions large enough that about half the draws are not monotone
    rng = np.random.default_rng(n)
    raised = 0
    for _ in range(12):
        pair = rng.normal(0.0, 0.6, size=(n, n))
        pair = (pair + pair.T) / 2.0
        np.fill_diagonal(pair, 0.0)
        opp = -np.abs(rng.normal(0.0, 0.3, size=(n, n)))
        np.fill_diagonal(opp, 0.0)
        a = rng.random(n)
        total = a.sum() + np.triu(pair, 1).sum()
        if total <= 0.1:
            continue
        params = BicapacityParams(a / total, pair / total, opp / total)
        lowest = [enumerated_minimum(params, j) for j in range(n)]
        failing = [j for j in range(n) if lowest[j] < -1e-9]
        if not failing:
            params.validate()
            continue
        raised += 1
        with pytest.raises(ValueError, match="monotonicity violated") as info:
            params.validate()
        # the first criterion below the tolerance, and a split that attains
        # its enumerated minimum
        j = failing[0]
        named = re.fullmatch(r"monotonicity violated at criterion (\d+), "
                             r"with=(\(.*\)) against=(\(.*\))", str(info.value))
        assert int(named[1]) == j + 1
        c, d = ast.literal_eval(named[2]), ast.literal_eval(named[3])
        named = (params.a[j] + sum(params.pair[j, k - 1] for k in c)
                 + sum(params.opp[j, k - 1] for k in d))
        assert abs(named - lowest[j]) <= 1e-12
    assert raised >= 2


def test_bipolar_flows_identities(students):
    rng = np.random.default_rng(37)
    for _ in range(15):
        params = random_valid_params(rng, 3)
        flows = bipolar_flows(students, params)
        assert abs(flows.net.sum()) < 1e-9
        np.testing.assert_allclose(
            flows.net, flows.positive - flows.negative, atol=1e-12
        )
        assert np.all(flows.positive >= -1e-12)
        assert np.all(flows.negative >= -1e-12)


def test_bipolar_flows_identical_alternatives():
    rng = np.random.default_rng(1)
    base = random_table(rng, 3, 3)
    evals = base.evaluations.copy()
    evals[1] = evals[0]
    evals[2] = evals[0]
    table = type(base)(base.alternatives, base.criteria, evals)
    params = random_valid_params(rng, 3)
    flows = bipolar_flows(table, params)
    assert np.all(flows.positive == 0.0)
    assert np.all(flows.negative == 0.0)


def test_reduction_to_classical(students):
    rng = np.random.default_rng(53)
    for _ in range(30):
        w = rng.random(3)
        w /= w.sum()
        params = BicapacityParams(w, np.zeros((3, 3)), np.zeros((3, 3)))
        params.validate()
        bip = bipolar_flows(students, params)
        cla = classical_flows(students, w)
        np.testing.assert_allclose(bip.net, cla.net, atol=1e-10)


def test_bipolar_relations_on_fixture(students):
    rng = np.random.default_rng(61)
    params = random_valid_params(rng, 3)
    flows = bipolar_flows(students, params)
    rel = promethee1_relation(flows)
    assert rel[0, 0] == Relation.SELF
    ranks = promethee2_ranking(flows.net)
    assert ranks.min() == 1
    assert ranks.max() <= 8
    # order by net flow must agree with the rank vector
    best = int(np.argmax(flows.net))
    assert ranks[best] == 1
