"""End-to-end runs of the command line pipeline.

Everything goes through cli.main(argv) in-process; small sample counts
keep the suite fast while still exercising the full load -> check ->
sample -> aggregate -> report path.
"""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import smaa_promethee
from smaa_promethee import cli, lp, sampler
from smaa_promethee.cli import main

from conftest import FIXTURES


def run_cli(out: Path, *extra: str, problem: str = "students.json",
            statements: str = "scenario1.jsonl", samples: int = 400,
            seed: int = 7) -> int:
    argv = [
        "--problem", str(FIXTURES / problem),
        "--statements", str(FIXTURES / statements),
        "--samples", str(samples),
        "--seed", str(seed),
        "--burn-in", "200",
        "--out", str(out),
    ]
    argv += list(extra)
    return main(argv)


def read_json(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_scenario1_auto_selects_classical(tmp_path, capsys):
    code = run_cli(tmp_path)
    assert code == 0
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["mode"] == "classical"
    assert feas["policy"] == "auto"
    assert feas["compatible"] is True
    assert feas["classical_margin"] == pytest.approx(1.0, abs=1e-9)
    for name in ("samples.bin", "samples.json", "smaa_report.json",
                 "smaa_report.txt", "smaa_report.csv"):
        assert (tmp_path / name).exists(), name
    report = read_json(tmp_path / "smaa_report.json")
    assert report["mode"] == "classical"
    assert report["sample_count"] == 400
    out = capsys.readouterr().out
    assert "mode=classical" in out and "samples=400" in out


def test_ramp_scenario2_auto_escalates_to_bipolar(tmp_path):
    code = run_cli(tmp_path, problem="students_ramp.json",
                   statements="scenario2.jsonl")
    assert code == 0
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["mode"] == "bipolar"
    # weights alone cannot restore the intensity statements here
    assert feas["classical_margin"] <= 1e-9
    assert feas["bipolar_margin"] == pytest.approx(1.0 / 18.0, abs=1e-7)
    report = read_json(tmp_path / "smaa_report.json")
    assert report["mode"] == "bipolar"


@pytest.mark.parametrize("problem,statements,mode", [
    ("students.json", "scenario1.jsonl", "classical"),
    ("students_ramp.json", "scenario2.jsonl", "bipolar"),
])
def test_each_margin_lp_is_solved_once(tmp_path, monkeypatch, problem, statements, mode):
    solved = []

    def counting(system):
        solved.append(len(system.rows))
        return lp.max_epsilon(system)

    monkeypatch.setattr(cli, "max_epsilon", counting)
    monkeypatch.setattr(sampler, "max_epsilon", counting)
    assert run_cli(tmp_path, problem=problem, statements=statements) == 0
    assert read_json(tmp_path / "feasibility.json")["mode"] == mode
    # the classical and the bipolar margin; build_polytope reuses the chosen one
    assert len(solved) == 2


def test_sharp_thresholds_scenario2_exits_2(tmp_path, capsys):
    code = run_cli(tmp_path, statements="scenario2.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert "no compatible model" in err
    assert "binding" in err
    assert "statement" in err  # provenance of at least one tight row
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["compatible"] is False
    assert feas["mode"] is None
    assert abs(feas["classical_margin"]) <= 1e-9
    assert abs(feas["bipolar_margin"]) <= 1e-9
    assert feas["classical_binding"] and feas["bipolar_binding"]
    assert not (tmp_path / "smaa_report.json").exists()


def test_explicit_classical_mode_can_refuse(tmp_path):
    code = run_cli(tmp_path, "--mode", "classical",
                   problem="students_ramp.json", statements="scenario2.jsonl")
    assert code == 2
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["policy"] == "classical"
    assert feas["mode"] is None
    # same inputs are fine when the richer model is allowed
    code = run_cli(tmp_path / "b", "--mode", "bipolar",
                   problem="students_ramp.json", statements="scenario2.jsonl")
    assert code == 0
    assert read_json(tmp_path / "b" / "feasibility.json")["mode"] == "bipolar"


def test_missing_problem_file_exits_1(tmp_path, capsys):
    code = main([
        "--problem", str(tmp_path / "nope.json"),
        "--statements", str(FIXTURES / "scenario1.jsonl"),
        "--out", str(tmp_path),
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_statement_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "local_pair", "better": "s1"}\n', encoding="utf-8")
    code = main([
        "--problem", str(FIXTURES / "students.json"),
        "--statements", str(bad),
        "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "bad.jsonl:1" in err


def students_with(change):
    """The students problem as a JSON document, after ``change`` edits it."""
    doc = read_json(FIXTURES / "students.json")
    change(doc)
    return doc


MALFORMED_PROBLEMS = {
    "top_level_number": lambda: 5,
    "top_level_null": lambda: None,
    "alternatives_number": lambda: students_with(
        lambda d: d.update(alternatives=5)),
    "criterion_string": lambda: students_with(
        lambda d: d["criteria"].__setitem__(1, "Physics")),
    "threshold_null": lambda: students_with(
        lambda d: d["criteria"][0].update(q=None)),
    "ragged_evaluations": lambda: students_with(
        lambda d: d["evaluations"][2].pop()),
    "criterion_without_name": lambda: students_with(
        lambda d: d["criteria"][0].pop("name")),
    "direction_list": lambda: students_with(
        lambda d: d["criteria"][0].update(direction=["max"])),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_PROBLEMS))
def test_malformed_problem_exits_1_with_its_path(tmp_path, capsys, case):
    bad = tmp_path / f"{case}.json"
    bad.write_text(json.dumps(MALFORMED_PROBLEMS[case]()), encoding="utf-8")
    code = main([
        "--problem", str(bad),
        "--statements", str(FIXTURES / "scenario1.jsonl"),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {bad}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


MALFORMED_STATEMENTS = {
    "intensity_pair_number": {
        "type": "intensity", "pair1": 5, "pair2": ["s3", "s4"]},
    "magnitude_pair_number": {
        "type": "interaction_magnitude", "pair1": 5, "pair2": [1, 3]},
    "magnitude_signs_number": {
        "type": "interaction_magnitude", "pair1": [1, 2], "pair2": [1, 3],
        "signs": 5},
    "type_list": {"type": ["intensity"]},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_STATEMENTS))
def test_malformed_statement_field_exits_1_with_its_line(tmp_path, capsys, case):
    bad = tmp_path / f"{case}.jsonl"
    lines = [{"type": "global_p2", "a": "s3", "b": "s6"}, MALFORMED_STATEMENTS[case]]
    bad.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    code = main([
        "--problem", str(FIXTURES / "students.json"),
        "--statements", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {bad}:2: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_misspelt_statement_key_exits_1_before_any_output(tmp_path, capsys):
    # "kind" for "sign" used to fall back to the default sign "+"
    bad = tmp_path / "misspelt.jsonl"
    lines = [{"type": "global_p2", "a": "s3", "b": "s6"},
             {"type": "interaction_sign", "j": 1, "k": 2, "kind": "-"}]
    bad.write_text("".join(json.dumps(obj) + "\n" for obj in lines), encoding="utf-8")
    code = main([
        "--problem", str(FIXTURES / "students.json"),
        "--statements", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {bad}:2: unknown key 'kind'" in err
    assert not (tmp_path / "out" / "feasibility.json").exists()


def non_ascii_inputs(directory: Path, encoding: str) -> tuple[Path, Path]:
    """The students problem with an accented criterion, and a statement on it."""
    doc = students_with(lambda d: d["criteria"][0].update(name="Mathématiques"))
    problem = directory / f"problem-{encoding}.json"
    problem.write_text(json.dumps(doc, ensure_ascii=False), encoding=encoding)
    statements = directory / f"statements-{encoding}.jsonl"
    statements.write_text(
        "# Mathématiques avant Physique\n"
        '{"type": "criterion_importance", "j": "Mathématiques", "k": "Physics"}\n',
        encoding=encoding,
    )
    return problem, statements


def test_utf8_inputs_run_under_the_c_locale(tmp_path):
    problem, statements = non_ascii_inputs(tmp_path, "utf-8")
    src = str(Path(smaa_promethee.__file__).parents[1])
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from smaa_promethee.cli import main; "
         "sys.exit(main(sys.argv[1:]))",
         "--problem", str(problem), "--statements", str(statements),
         "--samples", "200", "--burn-in", "100", "--seed", "1",
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    feas = read_json(tmp_path / "out" / "feasibility.json")
    assert "statement 1 (importance Mathématiques > Physics)" in json.dumps(
        feas, ensure_ascii=False)


@pytest.mark.parametrize("which", ["problem", "statements"])
def test_non_utf8_input_exits_1_with_its_path(tmp_path, capsys, which):
    latin1 = dict(zip(("problem", "statements"), non_ascii_inputs(tmp_path, "latin-1")))
    inputs = {"problem": FIXTURES / "students.json",
              "statements": FIXTURES / "scenario1.jsonl", which: latin1[which]}
    code = main([
        "--problem", str(inputs["problem"]),
        "--statements", str(inputs["statements"]),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {latin1[which]}: not UTF-8" in err
    assert not (tmp_path / "out").exists()


def test_unknown_format_exits_1(tmp_path, capsys):
    code = run_cli(tmp_path, "--format", "json,xml")
    assert code == 1
    assert "xml" in capsys.readouterr().err


@pytest.mark.parametrize("arg", [
    "--samples=0", "--thin=0", "--burn-in=-1", "--delta-strict=-0.5", "--seed=-1",
])
def test_bad_sampler_argument_exits_1_before_any_output(tmp_path, capsys, arg):
    assert run_cli(tmp_path, arg) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "feasibility.json").exists()


def test_stuck_chain_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def stuck(polytope, config):
        raise RuntimeError("hit-and-run made no progress")

    monkeypatch.setattr(cli, "hit_and_run", stuck)
    assert run_cli(tmp_path) == 2
    err = capsys.readouterr().err
    assert "error: sampling failed: hit-and-run made no progress" in err
    assert "Traceback" not in err
    assert not (tmp_path / "smaa_report.json").exists()


def test_unallocatable_sample_array_exits_2_without_traceback(tmp_path, capsys):
    # 10^15 rows of 8-byte floats lie beyond the address space, so the
    # allocation fails at once instead of being overcommitted
    assert run_cli(tmp_path, samples=10**15) == 2
    err = capsys.readouterr().err
    assert "error: sampling failed:" in err
    assert "(1000000000000000," in err
    assert "Traceback" not in err
    assert not (tmp_path / "samples.bin").exists()


@pytest.mark.parametrize("under", [False, True])
def test_unwritable_out_exits_1_with_its_path(tmp_path, capsys, under):
    # an existing file, or a directory that would have to be made under one
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    out = taken / "out" if under else taken
    assert run_cli(out) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write output to {out}" in err
    assert "Traceback" not in err


def test_failed_margin_lp_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def drifted(system):
        raise RuntimeError("phase 1 ended at a negative sum of artificials (-3)")

    monkeypatch.setattr(cli, "max_epsilon", drifted)
    assert run_cli(tmp_path) == 2
    err = capsys.readouterr().err
    assert "error: margin LP failed: phase 1 ended" in err
    assert "Traceback" not in err
    assert not (tmp_path / "feasibility.json").exists()


def test_failed_exact_ror_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def drifted(results, system, table, strict):
        raise RuntimeError("optimal point breaks a constraint row by 3.2e+04")

    monkeypatch.setattr(cli, "validate_against_exact_ror", drifted)
    assert run_cli(tmp_path, "--exact-ror") == 2
    err = capsys.readouterr().err
    assert "error: exact ROR failed: optimal point breaks" in err
    assert "Traceback" not in err
    assert not (tmp_path / "ror_report.json").exists()


@pytest.mark.parametrize("ref", [[1], 2.0, {"j": 1}])
def test_invalid_criterion_reference_exits_1(tmp_path, capsys, ref):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"type": "criterion_importance", "j": ref, "k": 2}) + "\n",
                   encoding="utf-8")
    code = main([
        "--problem", str(FIXTURES / "students.json"),
        "--statements", str(bad),
        "--out", str(tmp_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: statement 1 (" in err and "invalid criterion reference" in err


def test_format_subset_writes_only_requested(tmp_path):
    code = run_cli(tmp_path, "--format", "json")
    assert code == 0
    assert (tmp_path / "smaa_report.json").exists()
    assert not (tmp_path / "smaa_report.txt").exists()
    assert not (tmp_path / "smaa_report.csv").exists()
    code = run_cli(tmp_path / "tc", "--format", "text,csv")
    assert code == 0
    assert not (tmp_path / "tc" / "smaa_report.json").exists()
    assert (tmp_path / "tc" / "smaa_report.txt").exists()
    assert (tmp_path / "tc" / "smaa_report.csv").exists()


def test_empty_statements_run_ok(tmp_path):
    code = run_cli(tmp_path, statements="empty.jsonl")
    assert code == 0
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["mode"] == "classical"  # simplest model wins with no statements
    report = read_json(tmp_path / "smaa_report.json")
    rank = report["rank_acceptability_pct"]
    for row in rank:
        assert math.isclose(sum(row), 100.0, abs_tol=0.2)


def test_same_seed_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(a, "--exact-ror") == 0
    assert run_cli(b, "--exact-ror") == 0
    for name in ("smaa_report.json", "smaa_report.txt", "smaa_report.csv",
                 "feasibility.json", "ror_report.json", "samples.bin"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_different_seed_changes_report(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(a, seed=7) == 0
    assert run_cli(b, seed=8) == 0
    assert (a / "smaa_report.json").read_bytes() != (b / "smaa_report.json").read_bytes()


def test_csv_values_reparse_to_json(tmp_path):
    assert run_cli(tmp_path) == 0
    report = read_json(tmp_path / "smaa_report.json")
    alts = report["alternatives"]
    with open(tmp_path / "smaa_report.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "csv should not be empty"
    seen = set()
    for row in rows:
        section = row["section"]
        seen.add(section)
        if section == "rank_acceptability_pct":
            i = alts.index(row["row"])
            r = int(row["col"][1:]) - 1
            assert float(row["value"]) == report["rank_acceptability_pct"][i][r]
        elif section == "p2_preference_pct":
            i, j = alts.index(row["row"]), alts.index(row["col"])
            assert float(row["value"]) == report["p2_preference_pct"][i][j]
        elif section == "barycenter":
            k = report["parameters"].index(row["col"])
            assert float(row["value"]) == report["barycenter"][k]
        elif section == "central_weights":
            k = report["parameters"].index(row["col"])
            assert float(row["value"]) == report["central_weights"][row["row"]][k]
    assert {"rank_acceptability_pct", "p2_preference_pct", "barycenter"} <= seen


def test_text_numbers_reparse_to_json(tmp_path):
    assert run_cli(tmp_path) == 0
    report = read_json(tmp_path / "smaa_report.json")
    alts = report["alternatives"]
    text = (tmp_path / "smaa_report.txt").read_text(encoding="utf-8")
    lines = text.splitlines()
    start = lines.index("Rank acceptability (%)")
    for offset, name in enumerate(alts):
        line = lines[start + 2 + offset]
        label, *cells = line.split()
        assert label == name
        assert [float(c) for c in cells] == report["rank_acceptability_pct"][alts.index(name)]


def test_exact_ror_report(tmp_path):
    assert run_cli(tmp_path, "--exact-ror") == 0
    ror = read_json(tmp_path / "ror_report.json")
    assert ror["alternatives"] == list(read_json(tmp_path / "smaa_report.json")["alternatives"])
    m = len(ror["alternatives"])
    for key in ("possible_exact", "necessary_exact"):
        mat = ror[key]
        assert len(mat) == m and all(len(r) == m for r in mat)
        assert all(mat[i][i] is True for i in range(m))
    assert ror["violations_necessary"] == []
    assert ror["violations_possible"] == []


def test_sidecar_describes_samples(tmp_path):
    assert run_cli(tmp_path) == 0
    sidecar = read_json(tmp_path / "samples.json")
    assert sidecar["rows"] == 400
    assert sidecar["seed"] == 7
    size = (tmp_path / "samples.bin").stat().st_size
    assert size == 400 * len(sidecar["columns"]) * 8
