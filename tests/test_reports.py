"""Report rendering against the per-cell reference writers.

The package rounds each matrix in one numpy pass and writes the matrices
of each format as numpy byte arrays; ``reference_reports`` keeps the
per-cell writers, and every string must come out identical to theirs.
"""

import csv
import dataclasses
import io
import json
from itertools import chain

import numpy as np
import pytest

from smaa_promethee import reports
from smaa_promethee.cli import main
from smaa_promethee.elicitation import compile_statements, parse_statements, restrict_classical
from smaa_promethee.model import load_problem
from smaa_promethee.sampler import SampleBatch, SamplerConfig, build_polytope, hit_and_run
from smaa_promethee.smaa import SmaaResults, aggregate

import reference_reports as reference
from conftest import FIXTURES, benchmark_instance


def assert_same_text(got, want):
    """Equal strings; on a mismatch name the first differing line instead
    of letting pytest diff megabytes of report text."""
    got_lines, want_lines = got.split("\n"), want.split("\n")
    line = next((n for n, pair in enumerate(zip(got_lines, want_lines))
                 if pair[0] != pair[1]), min(len(got_lines), len(want_lines)))
    same = got == want
    assert same, (f"line {line + 1}: got {got_lines[line:line + 1]!r}, "
                  f"want {want_lines[line:line + 1]!r}")


def hexes(rows):
    """Bit patterns of nested float lists, so -0.0 and 0.0 differ."""
    return [[float.hex(v) for v in row] for row in rows]


@pytest.mark.parametrize("samples", [5_000, 100_000])
def test_pct_matrix_matches_round_on_every_count_fraction(samples):
    k = np.arange(samples + 1)
    # aggregation scales counts by 1 / samples; k / samples is the exact ratio
    for fractions in (k * (1.0 / samples), k / samples):
        mat = fractions.reshape(1, -1)
        assert hexes(reports._pct_matrix(mat)) == hexes(reference.pct_matrix(mat))


def near_ties(decimals, lo, hi):
    """Values that, scaled by 10**decimals, sit within 1e-9 of k + 0.5 for
    every k from lo to hi: the nearest double to the tie and 3 ulps each way."""
    k = np.arange(lo, hi)
    centre = (k + 0.5) / 10.0**decimals
    up, down = [centre], [centre]
    for _ in range(3):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    return np.concatenate(up + down[1:])


def assert_near_ties(values, decimals):
    scaled = values * 10.0**decimals
    assert np.all(np.abs(scaled - np.floor(scaled) - 0.5) < 1e-9)


def test_pct_matrix_matches_round_next_to_ties():
    fractions = near_ties(reports.PCT_DECIMALS, 0, 100_000) / 100.0
    assert_near_ties(fractions * 100.0, reports.PCT_DECIMALS)
    mat = fractions.reshape(7, -1)
    want = reference.pct_matrix(mat)
    assert hexes(reports._pct_matrix(mat)) == hexes(want)
    # without the per-cell fallback the numpy rounding alone goes wrong here
    naive = np.rint(mat * 100.0 * 1000.0) / 1000.0
    assert hexes(naive.tolist()) != hexes(want)


def test_parameter_rounding_matches_round_with_signs():
    ties = near_ties(reports.PARAM_DECIMALS, -20_000, 20_000)
    assert_near_ties(ties, reports.PARAM_DECIMALS)
    rng = np.random.default_rng(6)
    values = np.concatenate([rng.uniform(-1.0, 1.0, 20_000), ties,
                             [0.0, -0.0, -4e-7, 4e-7, 1e12, -1e12]])
    want = [reference.param(v) for v in values]
    got = reports._rounded(values, reports.PARAM_DECIMALS)
    assert hexes([got]) == hexes([want])
    naive = np.rint(values * 1e6) / 1e6
    assert hexes([naive.tolist()]) != hexes([want])


@pytest.fixture(scope="module")
def wide_results(tmp_path_factory):
    """The m = 100 classical benchmark instance, 5,000 samples, seed 1."""
    table, statements = benchmark_instance(
        tmp_path_factory.mktemp("wide"), 1, m=100, n=3, p=0.0,
        interactions=False, statement_count=4)
    system = restrict_classical(compile_statements(table, statements))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=5_000, seed=1))
    return aggregate(table, batch, mode="classical", polytope=polytope)


def test_wide_report_renders_identically(wide_results):
    report = reports.results_to_dict(wide_results)
    want = reference.results_to_dict(wide_results)
    assert len(report["alternatives"]) == 100
    assert_same_text(reference.to_json(report), reference.to_json(want))
    assert_same_text(reports.to_json(report), reference.to_json(want))
    assert_same_text(reports.render_text(report), reference.render_text(want))
    assert_same_text(reports.render_csv(report), reference.render_csv(want))


def test_every_result_array_is_one_section_of_every_format():
    # a statistic added to SmaaResults must reach the JSON, text and CSV
    # reports together, under one key and in one order
    table = load_problem(FIXTURES / "students.json")
    system = restrict_classical(compile_statements(
        table, parse_statements(FIXTURES / "scenario1.jsonl")))
    polytope = build_polytope(system)
    batch = hit_and_run(polytope, SamplerConfig(sample_count=2_000, seed=1))
    results = aggregate(table, batch, mode="classical", polytope=polytope)
    assert results.central_weights, "every section should be present"
    arrays = [f.name for f in dataclasses.fields(SmaaResults)
              if isinstance(getattr(results, f.name), (np.ndarray, dict))]
    fields = [field for _, field, *_ in reports._SECTIONS]
    assert sorted(fields) == sorted(arrays)
    keys = [key for key, *_ in reports._SECTIONS]
    titles = [title for _, _, title, *_ in reports._SECTIONS]
    assert len(set(keys)) == len(keys) and len(set(titles)) == len(titles)

    report = reports.results_to_dict(results)
    assert list(report) == ["mode", "sample_count", "alternatives", "parameters", *keys]
    rows = csv.DictReader(io.StringIO(reports.render_csv(report)))
    assert list(dict.fromkeys(row["section"] for row in rows)) == keys
    lines = reports.render_text(report).split("\n")
    # every block is its title, a header, its rows and one blank line
    assert [lines[i + 1] for i in range(len(lines) - 1) if lines[i] == ""] == titles


def hand_built_report():
    alts = ["a,b", 'say "hi"', "back\\slash", "line\nbreak", "café", "東京", ""]
    params = ["w,1", "ß", "", 'p"q', "plain"]
    m = len(alts)
    rng = np.random.default_rng(3)

    def matrix(cols):
        mat = np.round(rng.uniform(0.0, 100.0, (m, cols)), 3)
        mat[0, :3] = [0.0, 100.0, 1e-05]
        return mat.tolist()

    report = {
        "mode": "bipolar",
        "sample_count": 12,
        "alternatives": alts,
        "parameters": params,
        "rank_acceptability_pct": matrix(m),
        "central_weights": {},
        "barycenter": [0.25, -0.0, 1e-06, -0.5, 123456.789012],
        "ror_possible_approx": (rng.random((m, m)) < 0.5).tolist(),
        "ror_necessary_approx": (rng.random((m, m)) < 0.5).tolist(),
    }
    for key in ("p2_preference_pct", "p2_indifference_pct", "p1_preference_pct",
                "p1_indifference_pct", "p1_incomparability_pct"):
        report[key] = matrix(m)
    report["p1_incomparability_pct"][1][2] = -0.0
    report["p1_incomparability_pct"][2][3] = float("nan")
    report["p1_incomparability_pct"][3][4] = float("inf")
    return report


def test_hand_built_report_renders_identically():
    report = hand_built_report()
    assert_same_text(reports.render_text(report), reference.render_text(report))
    assert_same_text(reports.render_csv(report), reference.render_csv(report))
    assert_same_text(reports.to_json(report), reference.to_json(report))
    # the same report with central vectors for some alternatives
    report["central_weights"] = {"café": [0.5, -0.0, 0.1, 0.2, 0.2],
                                 "a,b": [1.0, 0.0, 0.0, 0.0, -0.0]}
    assert_same_text(reports.render_text(report), reference.render_text(report))
    assert_same_text(reports.render_csv(report), reference.render_csv(report))
    assert_same_text(reports.to_json(report), reference.to_json(report))


def test_short_empty_and_ragged_matrices_render_identically():
    report = hand_built_report()
    variants = [{"p2_preference_pct": []},
                {"p1_indifference_pct": report["p1_indifference_pct"][:3]},
                {"p1_preference_pct": [[], [1.5], *report["p1_preference_pct"][2:]]},
                {"ror_possible_approx": [[True, 1, 0.5], *report["ror_possible_approx"][1:]]},
                # rectangular, but not all floats (rows 1 on are all
                # thousandths): str and json.dumps write an int 5 as "5"
                {"p2_indifference_pct": [[5, *report["p2_indifference_pct"][1][1:]],
                                         *report["p2_indifference_pct"][2:]]},
                {"rank_acceptability_pct": [[True, *report["rank_acceptability_pct"][1][1:]],
                                            *report["rank_acceptability_pct"][2:]]}]
    for variant in variants:
        case = {**report, **variant}
        assert_same_text(reports.render_text(case), reference.render_text(case))
        assert_same_text(reports.render_csv(case), reference.render_csv(case))
        assert_same_text(reports.to_json(case), reference.to_json(case))


def square_report(alts, sections, rng):
    """A report over ``alts`` whose six percentage sections hold the given
    (m, m) arrays, with random flags and a few parameter vectors."""
    m = len(alts)
    params = ["w,1", "ß", "", "x\x00y"]
    report = {
        "mode": "classical",
        "sample_count": 5_000,
        "alternatives": list(alts),
        "parameters": params,
        "central_weights": {alts[0]: [0.5, -0.0, 0.25, 0.25], alts[-1]: [1.0, 0.0, 0.0, 1e-06]},
        "barycenter": [0.25, 0.125, 0.5, 0.125],
        "ror_possible_approx": (rng.random((m, m)) < 0.5).tolist(),
        "ror_necessary_approx": (rng.random((m, m)) < 0.2).tolist(),
    }
    keys = [key for key, *_, kind in reports._SECTIONS if kind == "pct"]
    assert len(keys) == len(sections)
    for key, cells in zip(keys, sections):
        report[key] = np.asarray(cells, dtype=np.float64).tolist()
    return report


def thousandths_report():
    """Every percentage a report can carry, k / 1000 for k = 0 .. 100,000,
    in one (317, 317) matrix; the other sections hold it shuffled."""
    m = 317
    grid = np.resize(np.arange(100_001) / 1000.0, m * m)
    rng = np.random.default_rng(11)
    sections = [grid] + [rng.permutation(grid) for _ in range(5)]
    report = square_report([f"a{i}" for i in range(m)],
                           [cells.reshape(m, m) for cells in sections], rng)
    assert len(set(chain.from_iterable(report["rank_acceptability_pct"]))) == 100_001
    return report


ODD_CELLS = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-05, 123456.789, -12.5,
             100.0, 1e300, 0.0005, 99.9995, 100.001]


def wide_hand_built_report():
    """m = 70: labels that CSV must quote, JSON must escape and text must
    pad by code point, and cells that no thousandth spells."""
    m = 70
    alts = ["a,b", 'say "hi"', "back\\slash", "line\nbreak", "café", "東京", "",
            "nul\x00byte", "\u00e9t\u00e9 long label"]
    alts += [f"alt{i}" for i in range(len(alts), m)]
    rng = np.random.default_rng(12)
    sections = []
    for n in range(6):
        cells = rng.integers(0, 100_001, (m, m)) / 1000.0
        cells[n, :len(ODD_CELLS)] = ODD_CELLS
        cells[:, n + 10] = 100.0
        cells[n + 20] = ODD_CELLS[n]
        sections.append(cells)
    return square_report(alts, sections, rng)


@pytest.mark.parametrize("build", [thousandths_report, wide_hand_built_report])
def test_big_reports_render_identically(build):
    report = build()
    assert_same_text(reports.render_text(report), reference.render_text(report))
    assert_same_text(reports.render_csv(report), reference.render_csv(report))
    assert_same_text(reports.to_json(report), reference.to_json(report))


@pytest.mark.parametrize("build", ["wide", wide_hand_built_report, hand_built_report])
def test_each_format_alone_equals_it_after_the_others(build, wide_results):
    renderers = (reports.to_json, reports.render_text, reports.render_csv)
    rebuild = ((lambda: reports.results_to_dict(wide_results)) if build == "wide"
               else build)
    report = rebuild()
    alone = [render(rebuild()) for render in renderers]
    for n, render in enumerate(renderers):
        for other in renderers[n + 1:] + renderers[:n]:
            other(report)
        assert render(report) == alone[n]
    # repr, because NaN cells are not equal to themselves
    assert repr(report) == repr(rebuild()), "rendering must not change the report"


def test_to_json_matches_json_dump_on_odd_values():
    payload = {
        "none": None,
        "nonfinite": [1.5, float("nan"), float("inf"), -float("inf")],
        "only_nan": [float("nan")],
        "empty": [[], {}, ""],
        "bools": [True, False, True],
        "floats_and_bools": [1.0, True, 0.0],
        "ints": [1, -2, 10**20],
        "numpy_float": [np.float64(0.1), 2.5],
        "tuple": (1.0, 2.0),
        "text": 'naïve "quote" \\ back\nslash ☃ \x00',
        "nested": {"b": [[0.1, -0.0], [1e-300, 1e300]], "a": {"z": None}},
        "int_keys": {2: "two", 1: "one"},
        "ünïcode key": 1,
        "a, b": False,
    }
    assert_same_text(reports.to_json(payload), reference.to_json(payload))
    for value in (None, 1.5, float("nan"), "x", [], {}, [1.0], {"k": []}):
        assert_same_text(reports.to_json(value), reference.to_json(value))


def test_cli_json_files_match_json_dump(tmp_path):
    argv = ["--problem", str(FIXTURES / "students.json"),
            "--statements", str(FIXTURES / "scenario1.jsonl"),
            "--samples", "300", "--seed", "4", "--burn-in", "100",
            "--exact-ror", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name in ("feasibility.json", "smaa_report.json", "ror_report.json"):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert_same_text(text, reference.to_json(json.loads(text)) + "\n")


def test_sample_dump_is_the_array_bytes(tmp_path):
    # a Fortran-ordered batch is written row-major all the same
    data = np.asfortranarray(np.random.default_rng(2).random((50, 3)))
    batch = SampleBatch(columns=("a", "b", "c"), data=data, seed=5)
    batch.save(str(tmp_path / "samples.bin"))
    written = (tmp_path / "samples.bin").read_bytes()
    assert written == np.ascontiguousarray(data, dtype="<f8").tobytes()
    assert np.array_equal(SampleBatch.load(str(tmp_path / "samples.bin")).data, data)
