import numpy as np
import pytest

from smaa_promethee import smaa
from smaa_promethee.bipolar import ParameterLayout, bipolar_flows
from smaa_promethee.elicitation import (
    GlobalP2,
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.model import Criterion, PerformanceTable
from smaa_promethee.promethee import classical_flows
from smaa_promethee.sampler import SampleBatch, SamplerConfig, build_polytope, hit_and_run
from smaa_promethee.smaa import aggregate, flow_matrices, validate_against_exact_ror

from conftest import FIXTURES, random_table


def sample_system(system, count=4000, seed=0):
    polytope = build_polytope(system)
    return polytope, hit_and_run(polytope, SamplerConfig(sample_count=count, seed=seed))


def assert_invariants(results):
    m = len(results.alternatives)
    np.testing.assert_allclose(
        results.rank_acceptability.sum(axis=1), 1.0, atol=1e-12
    )
    off = ~np.eye(m, dtype=bool)
    p2 = results.p2_pref + results.p2_pref.T + results.p2_indiff
    np.testing.assert_allclose(p2[off], 1.0, atol=1e-12)
    p1 = (
        results.p1_pref
        + results.p1_pref.T
        + results.p1_indiff
        + results.p1_incomp
    )
    np.testing.assert_allclose(p1[off], 1.0, atol=1e-12)
    assert np.array_equal(results.p1_indiff, results.p1_indiff.T)
    assert np.array_equal(results.p1_incomp, results.p1_incomp.T)
    assert np.array_equal(results.p2_indiff, results.p2_indiff.T)


def test_classical_scenario_results(students):
    system = restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    )
    polytope, batch = sample_system(system, count=8000)
    results = aggregate(students, batch, mode="classical", polytope=polytope)
    assert_invariants(results)
    assert results.mode == "classical"
    assert results.sample_count == 8000

    # frozen analysis of the statement region, valid for q = p = 0: the
    # two statements coincide and cut w3 <= (1 - margin) / 2, under which
    # five students can reach the top while s1, s6 and s8 never do
    first = results.rank_acceptability[:, 0]
    idx = {s: students.alternative_index(s) for s in students.alternatives}
    assert first[idx["s3"]] > 0.3
    assert first[idx["s7"]] > 0.3
    assert first[idx["s1"]] == 0.0
    assert first[idx["s6"]] == 0.0
    assert first[idx["s8"]] == 0.0
    for s in ("s3", "s7"):
        assert s in results.central_weights

    # central weights and barycenter live on the weight simplex
    for vec in [results.barycenter, *results.central_weights.values()]:
        assert vec[:3].sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(vec[:3] >= -1e-9)
        np.testing.assert_allclose(vec[3:], 0.0, atol=1e-9)


def test_flow_matrices_match_per_sample_flows(students):
    system = compile_statements(students, [])
    polytope, batch = sample_system(system, count=50, seed=8)
    pos, neg = flow_matrices(students, batch.data)
    layout = ParameterLayout(3)
    for row in range(0, 50, 9):
        params = layout.unpack(batch.data[row])
        flows = bipolar_flows(students, params)
        np.testing.assert_allclose(pos[row], flows.positive, atol=1e-10)
        np.testing.assert_allclose(neg[row], flows.negative, atol=1e-10)
    # flow balance holds for every sample
    np.testing.assert_allclose((pos - neg).sum(axis=1), 0.0, atol=1e-9)


def test_classical_flow_matrices_match_promethee(students):
    system = restrict_classical(compile_statements(students, []))
    polytope, batch = sample_system(system, count=40, seed=4)
    pos, neg = flow_matrices(students, batch.data)
    for row in range(0, 40, 7):
        w = batch.data[row, :3]
        flows = classical_flows(students, w)
        np.testing.assert_allclose(pos[row], flows.positive, atol=1e-10)
        np.testing.assert_allclose(neg[row], flows.negative, atol=1e-10)


def test_classical_and_bipolar_modes_agree_on_pinned_batch(students):
    system = restrict_classical(compile_statements(students, []))
    polytope, batch = sample_system(system, count=3000, seed=6)
    classical = aggregate(students, batch, mode="classical", polytope=polytope)
    bipolar = aggregate(students, batch, mode="bipolar", polytope=polytope)
    assert np.array_equal(classical.rank_acceptability, bipolar.rank_acceptability)
    assert np.array_equal(classical.p2_pref, bipolar.p2_pref)
    assert np.array_equal(classical.p1_pref, bipolar.p1_pref)
    assert np.array_equal(classical.p1_incomp, bipolar.p1_incomp)
    np.testing.assert_allclose(classical.barycenter, bipolar.barycenter, atol=0)


def test_classical_mode_rejects_interacting_batch(students):
    system = compile_statements(
        students, [GlobalP2(a="s3", b="s6", kind="P")]
    )
    polytope, batch = sample_system(system, count=200, seed=3)
    # generic bipolar samples carry nonzero interactions
    with pytest.raises(ValueError, match="classical"):
        aggregate(students, batch, mode="classical")


def test_aggregate_input_validation(students):
    system = restrict_classical(compile_statements(students, []))
    polytope, batch = sample_system(system, count=10)
    wrong = SampleBatch(
        columns=tuple(f"c{i}" for i in range(batch.data.shape[1])),
        data=batch.data,
        seed=0,
    )
    with pytest.raises(ValueError):
        aggregate(students, wrong, mode="classical")
    with pytest.raises(ValueError):
        aggregate(students, batch, mode="nonsense")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_aggregate_rejects_non_finite_samples(students, bad):
    system = restrict_classical(compile_statements(students, []))
    polytope, batch = sample_system(system, count=10)
    data = batch.data.copy()
    data[3, 1] = bad
    broken = SampleBatch(columns=batch.columns, data=data, seed=0)
    with pytest.raises(ValueError, match="non-finite"):
        aggregate(students, broken, mode="classical")


def test_aggregate_frequencies_do_not_depend_on_chunk(students, monkeypatch):
    system = compile_statements(
        students, parse_statements(FIXTURES / "scenario1.jsonl")
    )
    polytope, batch = sample_system(system, count=500, seed=9)
    whole = aggregate(students, batch, polytope=polytope)
    monkeypatch.setattr(smaa, "_COUNT_CHUNK", 7)
    chunked = aggregate(students, batch, polytope=polytope)
    for name in ("rank_acceptability", "p2_pref", "p2_indiff", "p1_pref",
                 "p1_indiff", "p1_incomp", "ror_possible_approx",
                 "ror_necessary_approx"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name)), name
    assert whole.central_weights.keys() == chunked.central_weights.keys()
    for name, vec in whole.central_weights.items():
        np.testing.assert_allclose(chunked.central_weights[name], vec, atol=1e-12)


def test_dominant_alternative_identity_pattern():
    table = PerformanceTable(
        ("top", "low"),
        tuple(Criterion(f"g{j}", q=0.0, p=1.0) for j in (1, 2, 3)),
        np.array([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0]]),
    )
    system = compile_statements(table, [])
    polytope, batch = sample_system(system, count=1500, seed=2)
    results = aggregate(table, batch, polytope=polytope)
    assert_invariants(results)
    assert results.rank_acceptability[0, 0] == 1.0
    assert results.rank_acceptability[1, 1] == 1.0
    assert results.p2_pref[0, 1] == 1.0
    assert results.ror_necessary_approx[0, 1]
    assert results.ror_possible_approx[0, 1]
    assert not results.ror_possible_approx[1, 0]
    assert "top" in results.central_weights and "low" not in results.central_weights


def test_identical_alternatives_share_first_rank():
    table = PerformanceTable(
        ("a", "b"),
        tuple(Criterion(f"g{j}") for j in (1, 2)),
        np.array([[2.0, 3.0], [2.0, 3.0]]),
    )
    system = compile_statements(table, [])
    polytope, batch = sample_system(system, count=800, seed=1)
    results = aggregate(table, batch, polytope=polytope)
    assert_invariants(results)
    assert results.p2_indiff[0, 1] == 1.0
    assert results.rank_acceptability[0, 0] == 1.0
    assert results.rank_acceptability[1, 0] == 1.0
    assert results.p1_indiff[0, 1] == 1.0
    # ties leave the second rank empty
    assert results.rank_acceptability[0, 1] == 0.0


def test_necessary_implies_possible_generic(students):
    system = restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    )
    polytope, batch = sample_system(system, count=5000, seed=12)
    results = aggregate(students, batch, mode="classical", polytope=polytope)
    implied = ~results.ror_necessary_approx | results.ror_possible_approx
    assert np.all(implied)


def test_two_seed_stability(students):
    system = restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    )
    polytope = build_polytope(system)
    runs = []
    for seed in (101, 202):
        batch = hit_and_run(polytope, SamplerConfig(sample_count=20_000, seed=seed))
        runs.append(aggregate(students, batch, mode="classical"))
    gap = np.abs(runs[0].rank_acceptability - runs[1].rank_acceptability).max()
    assert gap < 0.015
    gap2 = np.abs(runs[0].p2_pref - runs[1].p2_pref).max()
    assert gap2 < 0.015


def test_validate_against_exact_ror_clean(students):
    system = restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    )
    polytope, batch = sample_system(system, count=6000, seed=9)
    results = aggregate(students, batch, mode="classical", polytope=polytope)
    report = validate_against_exact_ror(results, system, students, strict=True)
    assert report["violations_necessary"] == []
    assert report["violations_possible"] == []
    # diagonal exactness
    exact_nec = np.array(report["necessary_exact"])
    assert np.all(np.diag(exact_nec))


def test_validate_strict_raises_on_fabricated_mismatch(students):
    system = restrict_classical(
        compile_statements(students, parse_statements(FIXTURES / "scenario1.jsonl"))
    )
    polytope, batch = sample_system(system, count=500, seed=14)
    results = aggregate(students, batch, mode="classical", polytope=polytope)
    # s6 over s5 is exactly ruled out (their positive region shrinks to a
    # single boundary point), so a forged positive frequency must register
    # as a violation of the possible-side implication
    forged_pref = results.p2_pref.copy()
    i6 = students.alternative_index("s6")
    i5 = students.alternative_index("s5")
    assert forged_pref[i6, i5] == 0.0
    forged_pref[i6, i5] = 0.5
    forged = type(results)(
        alternatives=results.alternatives,
        columns=results.columns,
        mode=results.mode,
        sample_count=results.sample_count,
        rank_acceptability=results.rank_acceptability,
        central_weights=results.central_weights,
        barycenter=results.barycenter,
        p2_pref=forged_pref,
        p2_indiff=results.p2_indiff,
        p1_pref=results.p1_pref,
        p1_indiff=results.p1_indiff,
        p1_incomp=results.p1_incomp,
        ror_possible_approx=results.ror_possible_approx,
        ror_necessary_approx=results.ror_necessary_approx,
    )
    with pytest.raises(AssertionError):
        validate_against_exact_ror(forged, system, students, strict=True)
    report = validate_against_exact_ror(forged, system, students, strict=False)
    assert ["s6", "s5"] in report["violations_possible"]


def test_random_instance_exact_vs_approx():
    rng = np.random.default_rng(31)
    table = random_table(rng, 4, 3, q=0.0, p=2.0)
    # anchor statements on the equal-weight ranking so they are compatible
    flows = classical_flows(table, np.full(3, 1 / 3))
    order = np.argsort(flows.net)[::-1]
    best, worst = table.alternatives[order[0]], table.alternatives[order[-1]]
    system = compile_statements(table, [GlobalP2(a=best, b=worst, kind="P")])
    polytope, batch = sample_system(system, count=4000, seed=3)
    results = aggregate(table, batch, polytope=polytope)
    assert_invariants(results)
    report = validate_against_exact_ror(results, system, table, strict=True)
    assert report["violations_necessary"] == []
    assert report["violations_possible"] == []
