import tracemalloc

import numpy as np
import pytest

from smaa_promethee import smaa
from smaa_promethee.bipolar import ParameterLayout
from smaa_promethee.elicitation import (
    Statement,
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.model import Criterion, PerformanceTable, load_problem
from smaa_promethee.promethee import classical_flows
from smaa_promethee.sampler import SampleBatch, SamplerConfig, build_polytope, hit_and_run
from smaa_promethee.smaa import aggregate, flow_matrices, validate_against_exact_ror

from conftest import FIXTURES, benchmark_instance, random_table
from reference_bipolar import definitional_flows


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
        flows = definitional_flows(students, params)
        np.testing.assert_allclose(pos[row], flows.positive, atol=1e-10)
        np.testing.assert_allclose(neg[row], flows.negative, atol=1e-10)
    # flow balance holds for every sample
    np.testing.assert_allclose((pos - neg).sum(axis=1), 0.0, atol=1e-9)


def test_aggregate_counts_through_the_smaa_global(students, monkeypatch):
    # the benchmark times relation counting by wrapping smaa.count_relations,
    # so aggregate must reach the counter through that name, once per chunk
    chunks = []
    count = smaa.count_relations

    def counted(pos_t, neg_t, net_t, tau, counts):
        chunks.append(pos_t.shape[1])
        return count(pos_t, neg_t, net_t, tau, counts)

    monkeypatch.setattr(smaa, "count_relations", counted)
    system = restrict_classical(compile_statements(students, []))
    _, batch = sample_system(system, count=8193, seed=3)
    aggregate(students, batch, mode="classical")
    assert chunks == [8192, 1]


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
        students, [Statement("global_p2", {"a": "s3", "b": "s6", "kind": "P"})]
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


def test_aggregate_rejects_a_batch_whose_mean_leaves_the_polytope(students):
    system = restrict_classical(compile_statements(students, []))
    polytope, batch = sample_system(system, count=50)
    aggregate(students, batch, mode="classical", polytope=polytope)
    # weight moved from w2 to w1 in every sample: the weights still sum to
    # 1 and the interactions stay zero, but the mean of w2 falls below 0
    data = batch.data.copy()
    data[:, 0] += 1.0
    data[:, 1] -= 1.0
    forged = SampleBatch(columns=batch.columns, data=data, seed=0)
    assert forged.data[:, 1].mean() < 0.0
    aggregate(students, forged, mode="classical")
    with pytest.raises(AssertionError, match="mean parameter vector leaves the polytope"):
        aggregate(students, forged, mode="classical", polytope=polytope)


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


@pytest.mark.parametrize("problem,statements,mode", [
    ("students.json", "scenario1.jsonl", "classical"),
    ("students_ramp.json", "scenario2.jsonl", "bipolar"),
])
def test_aggregate_memory_does_not_grow_with_the_sample_count(problem, statements, mode):
    table = load_problem(FIXTURES / problem)
    system = compile_statements(table, parse_statements(FIXTURES / statements))
    if mode == "classical":
        system = restrict_classical(system)
    _, batch = sample_system(system, count=4000, seed=3)
    peaks = []
    for copies in (1, 25, 100):
        big = SampleBatch(columns=batch.columns, data=np.tile(batch.data, (copies, 1)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            aggregate(table, big, mode=mode)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    # 100k and 400k samples; the first run fills numpy's first-call caches.
    # A (samples, columns) temporary would add 3.6 MB or more.
    assert peaks[2] - peaks[1] < 64 * 1024, [p / 2**20 for p in peaks]
    # the counter's O(samples x m) arrays, for one chunk at a time
    m = len(table.alternatives)
    assert peaks[2] < 8 * smaa._COUNT_CHUNK * m * 8, peaks[2] / 2**20


def test_aggregate_memory_at_one_hundred_alternatives():
    # one chunk of 5,000 classical samples over m = 100: the flows live in
    # one alternative-major block, with no sample-major copy beside it
    rng = np.random.default_rng(100)
    m, n, samples = 100, 3, 5_000
    table = random_table(rng, m, n)
    layout = ParameterLayout(n)
    data = np.zeros((samples, layout.size))
    data[:, :n] = rng.dirichlet(np.ones(n), samples)
    batch = SampleBatch(columns=layout.names, data=data)
    assert samples <= smaa._COUNT_CHUNK
    aggregate(table, batch, mode="classical")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        aggregate(table, batch, mode="classical")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    flow_array = samples * m * 8
    assert peak < 6 * flow_array, f"{peak / flow_array:.2f} (samples, m) arrays"


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
    # at 20,000 samples 10 of 40 fresh seed pairs already differed by
    # 0.015 or more; at 80,000, none of the 300 pairs (5001 + i, 6001 + i)
    # did, the largest gap being 0.0125
    for seed in (101, 202):
        batch = hit_and_run(polytope, SamplerConfig(sample_count=80_000, seed=seed))
        runs.append(aggregate(students, batch, mode="classical"))
    gap = np.abs(runs[0].rank_acceptability - runs[1].rank_acceptability).max()
    assert gap < 0.015
    gap2 = np.abs(runs[0].p2_pref - runs[1].p2_pref).max()
    assert gap2 < 0.015


def test_classical_n6_chains_match_iid_rejection_draws(tmp_path):
    # In classical mode the compatible weights are the points of the
    # simplex that meet the compiled rows, so Dirichlet(1) draws kept by
    # those rows at margin 0 are uniform on the sampled polytope: an
    # independent reference with no burn-in and no autocorrelation. The
    # benchmark's n = 6 table keeps about 0.46 of them, at dimension 5.
    table, statements = benchmark_instance(tmp_path, 1, m=8, n=6, p=4.0,
                                           interactions=True, statement_count=4)
    system = restrict_classical(compile_statements(table, statements))
    polytope = build_polytope(system)
    assert polytope.dimension == 5
    a_eq, b_eq, _, a_ub, b_ub, _ = system.split()
    n = system.layout.n
    # every column past the weights stays 0: interactions and the margin
    draws = np.zeros((400_000, system.n_cols))
    draws[:, :n] = np.random.default_rng(7000).dirichlet(np.ones(n), len(draws))
    kept = ((np.abs(draws @ a_eq.T - b_eq).max(axis=1) <= 1e-12)
            & np.all(draws @ a_ub.T <= b_ub, axis=1))
    assert 0.40 < kept.mean() < 0.52
    iid = aggregate(table, SampleBatch(columns=system.layout.names, data=draws[kept, :-1]),
                    mode="classical")
    # A cell as rare as 0.03% (the third alternative at rank 7) is met in
    # clumps of about 8 consecutive steps, so unthinned runs miss it on
    # most seeds and the across-seed SD alone reads near zero: 16 seeds of
    # 5,000 samples read max |z| 4.5-7.4 in 7 of 40 seed windows. Thinning
    # by 10 spaces the clumps out, and the SD is floored at one run's
    # i.i.d. binomial SD; 20 windows of 16 seeds then read max |z| of at
    # most 3.65. Seeds 7000-7016 were first run here: max |z| 2.66.
    samples, seeds = 10_000, range(7001, 7017)
    runs = [aggregate(table, hit_and_run(polytope, SamplerConfig(
        sample_count=samples, seed=seed, thinning=10)), mode="classical", polytope=polytope)
        for seed in seeds]
    worst = {}
    for field in ("rank_acceptability", "p2_pref"):
        chains = np.stack([getattr(run, field) for run in runs])
        p = getattr(iid, field)
        binomial = p * (1.0 - p)
        se = np.sqrt(np.maximum(chains.var(axis=0, ddof=1), binomial / samples) / len(seeds)
                     + binomial / kept.sum())
        gap = np.abs(chains.mean(axis=0) - p)
        # every cell counts: a gap with no SE at all fails as infinite
        z = np.divide(gap, se, out=np.where(gap > 0, np.inf, 0.0), where=se > 0)
        worst[field] = float(z.max())
    assert max(worst.values()) <= 4.5, worst


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
    # single boundary point), so a forged positive frequency, and the
    # possible-outranking estimate it implies, must register as a
    # violation of the possible-side implication
    forged_pref = results.p2_pref.copy()
    forged_possible = results.ror_possible_approx.copy()
    i6 = students.alternative_index("s6")
    i5 = students.alternative_index("s5")
    assert forged_pref[i6, i5] == 0.0 and not forged_possible[i6, i5]
    forged_pref[i6, i5] = 0.5
    forged_possible[i6, i5] = True
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
        ror_possible_approx=forged_possible,
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
    system = compile_statements(
        table, [Statement("global_p2", {"a": best, "b": worst, "kind": "P"})])
    polytope, batch = sample_system(system, count=4000, seed=3)
    results = aggregate(table, batch, polytope=polytope)
    assert_invariants(results)
    report = validate_against_exact_ror(results, system, table, strict=True)
    assert report["violations_necessary"] == []
    assert report["violations_possible"] == []
