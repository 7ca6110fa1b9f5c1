import numpy as np
import pytest

from smaa_promethee.model import Criterion, PerformanceTable
from smaa_promethee.promethee import (
    FLOW_TIE_TOL,
    Flows,
    Relation,
    aggregated_preference,
    classical_flows,
    count_relations,
    flows_from_preference,
    preference_degree,
    preference_tensor,
    promethee1_relation,
    promethee2_ranking,
)

from conftest import (
    TABLE1_NET_EQUAL_WEIGHTS,
    classical_flows_reference,
    ramp_degree,
    random_table,
)


def test_preference_degree_examples():
    assert preference_degree(2.0, 1.0, 3.0) == 0.5
    assert preference_degree(0.0, 0.0, 0.0) == 0.0
    assert preference_degree(0.0, 1.0, 3.0) == 0.0
    assert preference_degree(4.0, 0.0, 0.0) == 1.0
    # step form at q == p > 0
    assert preference_degree(2.0, 2.0, 2.0) == 0.0
    assert preference_degree(2.0 + 1e-12, 2.0, 2.0) == 1.0


def test_preference_degree_monotone_grid():
    for q, p in [(0.0, 0.0), (0.0, 6.0), (1.0, 3.0), (2.0, 2.0)]:
        grid = np.linspace(-5.0, 8.0, 261)
        vals = [preference_degree(d, q, p) for d in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert vals == [ramp_degree(d, q, p) for d in grid]


def test_preference_degree_vectorised():
    d = np.array([-1.0, 0.5, 2.0, 7.0])
    out = preference_degree(d, 0.0, 6.0)
    assert np.allclose(out, [0.0, 0.5 / 6, 2.0 / 6, 1.0])


def test_aggregated_preference_examples(students):
    w = np.full(3, 1 / 3)
    pi = aggregated_preference(students, w)
    i3 = students.alternative_index("s3")
    i2 = students.alternative_index("s2")
    assert pi[i3, i2] == pytest.approx(2 / 3, abs=1e-15)
    assert np.all(np.diag(pi) == 0.0)
    assert np.all((pi >= 0.0) & (pi <= 1.0))


def test_dominating_alternative_flows():
    table = PerformanceTable(
        ("top", "low1", "low2"),
        (Criterion("g1", q=0.0, p=1.0), Criterion("g2", q=0.0, p=1.0)),
        np.array([[9.0, 9.0], [1.0, 2.0], [2.0, 1.0]]),
    )
    flows = classical_flows(table, np.array([0.5, 0.5]))
    assert flows.positive[0] == 1.0
    assert flows.negative[0] == 0.0


def test_identical_alternatives_zero_flows():
    table = PerformanceTable(
        ("a", "b"),
        (Criterion("g1"), Criterion("g2")),
        np.array([[1.0, 2.0], [1.0, 2.0]]),
    )
    flows = classical_flows(table, np.array([0.6, 0.4]))
    assert np.all(flows.positive == 0.0)
    assert np.all(flows.negative == 0.0)
    assert np.all(flows.net == 0.0)


def test_table1_equal_weight_net_flows(students):
    flows = classical_flows(students, np.full(3, 1 / 3))
    np.testing.assert_allclose(flows.net, TABLE1_NET_EQUAL_WEIGHTS, atol=1e-12)


def test_flows_match_plain_loop_oracle(students, students_ramp):
    rng = np.random.default_rng(7)
    for table in (students, students_ramp):
        for _ in range(25):
            w = rng.random(table.n_criteria)
            w /= w.sum()
            flows = classical_flows(table, w)
            pos, neg, net = classical_flows_reference(table, w)
            np.testing.assert_allclose(flows.positive, pos, atol=1e-12)
            np.testing.assert_allclose(flows.negative, neg, atol=1e-12)
            np.testing.assert_allclose(flows.net, net, atol=1e-12)


def test_flows_random_tables_against_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(2, 5))
        q = float(rng.uniform(0.0, 1.0))
        p = q + float(rng.uniform(0.0, 3.0))
        table = random_table(rng, m, n, q=q, p=p)
        w = rng.random(n)
        w /= w.sum()
        flows = classical_flows(table, w)
        pos, neg, net = classical_flows_reference(table, w)
        np.testing.assert_allclose(flows.positive, pos, atol=1e-12)
        np.testing.assert_allclose(flows.negative, neg, atol=1e-12)
        np.testing.assert_allclose(flows.net, net, atol=1e-12)
        assert abs(flows.net.sum()) < 1e-9
        np.testing.assert_allclose(
            flows.net, flows.positive - flows.negative, atol=1e-12
        )


def test_translation_invariance():
    rng = np.random.default_rng(3)
    table = random_table(rng, 5, 3, q=0.5, p=2.0)
    w = np.array([0.2, 0.5, 0.3])
    base = classical_flows(table, w)
    shifted_evals = table.evaluations.copy()
    shifted_evals[:, 1] += 100.0
    shifted = PerformanceTable(table.alternatives, table.criteria, shifted_evals)
    moved = classical_flows(shifted, w)
    np.testing.assert_allclose(moved.positive, base.positive, atol=1e-12)
    np.testing.assert_allclose(moved.negative, base.negative, atol=1e-12)


def test_promethee1_examples():
    flows = Flows(
        positive=np.array([0.6, 0.4]),
        negative=np.array([0.2, 0.3]),
        net=np.array([0.4, 0.1]),
    )
    rel = promethee1_relation(flows)
    assert rel[0, 1] == Relation.PREFERRED
    assert rel[1, 0] == Relation.OUTRANKED
    assert rel[0, 0] == Relation.SELF

    same = Flows(
        positive=np.array([0.5, 0.5]),
        negative=np.array([0.1, 0.1]),
        net=np.array([0.4, 0.4]),
    )
    rel = promethee1_relation(same)
    assert rel[0, 1] == Relation.INDIFFERENT
    assert rel[1, 0] == Relation.INDIFFERENT

    crossed = Flows(
        positive=np.array([0.6, 0.5]),
        negative=np.array([0.4, 0.2]),
        net=np.array([0.2, 0.3]),
    )
    rel = promethee1_relation(crossed)
    assert rel[0, 1] == Relation.INCOMPARABLE
    assert rel[1, 0] == Relation.INCOMPARABLE


def test_promethee1_structure_random():
    rng = np.random.default_rng(19)
    for _ in range(50):
        m = int(rng.integers(2, 8))
        pos = rng.random(m)
        neg = rng.random(m)
        flows = Flows(pos, neg, pos - neg)
        rel = promethee1_relation(flows)
        for i in range(m):
            assert rel[i, i] == Relation.SELF
            for j in range(m):
                if i == j:
                    continue
                if rel[i, j] == Relation.PREFERRED:
                    assert rel[j, i] == Relation.OUTRANKED
                    # strict preference forces a net-flow gap
                    assert flows.net[i] > flows.net[j] - 2 * FLOW_TIE_TOL
                if rel[i, j] in (Relation.INDIFFERENT, Relation.INCOMPARABLE):
                    assert rel[j, i] == rel[i, j]


def test_promethee2_examples():
    assert promethee2_ranking(np.array([0.3, 0.1, -0.4])).tolist() == [1, 2, 3]
    assert promethee2_ranking(np.zeros(4)).tolist() == [1, 1, 1, 1]
    # ties share the better rank and skip the next one
    assert promethee2_ranking(np.array([0.2, 0.2, -0.1])).tolist() == [1, 1, 3]


def counted_verdicts(flows: Flows, tol: float = FLOW_TIE_TOL):
    """The P1 matrix and P2 ranks that ``count_relations`` counts for one
    sample, passed as (m, 1) columns."""
    m = flows.net.shape[0]
    counts = np.zeros((6, m, m), dtype=np.int64)
    count_relations(flows.positive[:, None], flows.negative[:, None],
                    flows.net[:, None], tol, counts)
    _, p1_pref, p1_ind, p1_inc, p2_pref, _ = counts
    relation = np.select(
        [np.eye(m, dtype=bool), p1_pref == 1, p1_pref.T == 1, p1_ind == 1, p1_inc == 1],
        [Relation.SELF, Relation.PREFERRED, Relation.OUTRANKED,
         Relation.INDIFFERENT, Relation.INCOMPARABLE],
        default=-1,
    )
    # p2_pref[k, i] counts the samples where k beats i
    return relation, 1 + p2_pref.sum(axis=0)


def test_library_verdicts_equal_the_counted_ones():
    # flows on a grid of eighths, jittered by up to one tie tolerance, so
    # many differences land on either side of the tolerance band
    rng = np.random.default_rng(17)
    jitter = np.array([-1e-9, -5e-10, 0.0, 5e-10, 1e-9])
    for _ in range(3000):
        m = int(rng.integers(2, 9))
        pos = rng.integers(0, 5, size=m) / 8 + rng.choice(jitter, size=m)
        neg = rng.integers(0, 5, size=m) / 8 + rng.choice(jitter, size=m)
        flows = Flows(pos, neg, pos - neg)
        relation, ranks = counted_verdicts(flows)
        assert np.array_equal(promethee1_relation(flows), relation)
        assert np.array_equal(promethee2_ranking(flows.net), ranks)
    # net(0) - net(1) is just below -tol, while net(1) > net(0) + tol is not
    # true in floating point; the counted rule ranks alternative 1 first
    assert promethee2_ranking(np.array([0.25, 0.250000001])).tolist() == [2, 1]


@pytest.mark.parametrize("tol", [-0.1, float("nan")])
def test_negative_or_nan_tolerance_is_rejected(tol):
    flows = Flows(np.array([0.3, 0.1]), np.array([0.1, 0.2]), np.array([0.2, -0.1]))
    with pytest.raises(ValueError, match="tie tolerance"):
        promethee1_relation(flows, tol)
    with pytest.raises(ValueError, match="tie tolerance"):
        promethee2_ranking(flows.net, tol)


def test_non_finite_flows_are_rejected():
    flows = Flows(np.array([0.3, np.nan]), np.array([0.1, 0.2]), np.array([0.2, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        promethee1_relation(flows)
    with pytest.raises(ValueError, match="finite"):
        promethee2_ranking(flows.net)


def test_promethee2_table1(students):
    flows = classical_flows(students, np.full(3, 1 / 3))
    ranks = promethee2_ranking(flows.net)
    order = np.argsort(TABLE1_NET_EQUAL_WEIGHTS)[::-1]
    # s7 and s3 top the equal-weight ranking; s1/s4/s8 tie at net 0
    assert ranks[students.alternative_index("s7")] == 1
    assert ranks[students.alternative_index("s3")] == 2
    tied = [students.alternative_index(s) for s in ("s1", "s4", "s8")]
    assert len({ranks[i] for i in tied}) == 1
    best = order[0]
    assert ranks[best] == 1


def test_flows_from_preference_matches_definition():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = int(rng.integers(2, 9))
        pi = rng.random((m, m))
        np.fill_diagonal(pi, 0.0)
        flows = flows_from_preference(pi)
        for a in range(m):
            pos = sum(pi[a, b] for b in range(m) if b != a) / (m - 1)
            neg = sum(pi[b, a] for b in range(m) if b != a) / (m - 1)
            assert flows.positive[a] == pytest.approx(pos, abs=1e-12)
            assert flows.negative[a] == pytest.approx(neg, abs=1e-12)


def test_preference_tensor_shape_and_values(students):
    tensor = preference_tensor(students)
    assert tensor.shape == (8, 8, 3)
    i3 = students.alternative_index("s3")
    i2 = students.alternative_index("s2")
    # s3 beats s2 on Mathematics and Physics, loses on Literature
    assert tensor[i3, i2].tolist() == [1.0, 1.0, 0.0]
    assert tensor[i2, i3].tolist() == [0.0, 0.0, 1.0]
