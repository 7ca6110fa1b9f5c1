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
import tracemalloc
from pathlib import Path

import pytest

import smaa_promethee
from smaa_promethee import cli, lp, sampler
from smaa_promethee.cli import main
from smaa_promethee.elicitation import (
    compile_statements,
    parse_statements,
    restrict_classical,
)
from smaa_promethee.model import load_problem
from smaa_promethee.sampler import SamplerConfig, build_polytope, hit_and_run

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


def test_strict_margin_above_the_attainable_one_exits_2(tmp_path, capsys):
    # scenario 2's bipolar margin is 1/18; the margin LP's verdict is the
    # only check, so no sample is drawn
    code = run_cli(tmp_path, "--delta-strict", "0.1", problem="students_ramp.json",
                   statements="scenario2.jsonl")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "error: sampling failed: best attainable margin 0.0555556 is below the "
        "requested one; binding rows: statement 1 (intensity (s1,s2) P (s3,s4))")
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["mode"] == "bipolar" and feas["delta_strict"] == 0.1
    assert not (tmp_path / "samples.bin").exists()


def test_strict_margin_above_one_is_attainable(tmp_path, capsys):
    # a1 can lead a2 by a net-flow gap of 4/3 over dominated.json, so the
    # margin LP's box must leave room above 1 for --delta-strict 1.2
    code = run_cli(tmp_path, "--delta-strict", "1.2", problem="dominated.json",
                   statements="dominance.jsonl")
    assert code == 0, capsys.readouterr().err
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["mode"] == "classical" and feas["delta_strict"] == 1.2
    assert feas["classical_margin"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert "margin=1.33333" in capsys.readouterr().out
    report = read_json(tmp_path / "smaa_report.json")
    assert report["sample_count"] == 400


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
    assert run_cli(tmp_path, problem=problem, statements=statements) == 0
    assert read_json(tmp_path / "feasibility.json")["mode"] == mode
    # the classical and the bipolar margin; build_polytope solves no LP
    assert len(solved) == 2


def test_single_parameter_vector_is_sampled(tmp_path, capsys):
    # two criteria of equal importance pin the classical weights to (1/2, 1/2):
    # the system is compatible, its polytope has dimension 0, and every
    # sample is that one vector
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "criteria": [{"name": "c1", "direction": "max", "q": 0.0, "p": 1.0},
                     {"name": "c2", "direction": "max", "q": 0.0, "p": 1.0}],
        "alternatives": ["a", "b", "c"],
        "evaluations": [[1, 2], [2, 1], [1.5, 1.5]],
    }), encoding="utf-8")
    statements = tmp_path / "statements.jsonl"
    statements.write_text(json.dumps(
        {"type": "criterion_importance", "j": 1, "k": 2, "kind": "="}) + "\n",
        encoding="utf-8")
    out = tmp_path / "out"
    code = main(["--problem", str(problem), "--statements", str(statements),
                 "--samples", "300", "--seed", "1", "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    feas = read_json(out / "feasibility.json")
    assert feas["compatible"] is True and feas["mode"] == "classical"
    report = read_json(out / "smaa_report.json")
    # the three net flows tie at these weights, so all share rank 1
    assert [row[0] for row in report["rank_acceptability_pct"]] == [100.0] * 3
    assert report["barycenter"][:2] == [0.5, 0.5]


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


def test_criteria_beyond_the_cap_exit_1_with_the_problem_path(tmp_path, capsys):
    problem = tmp_path / "nine.json"
    problem.write_text(json.dumps({
        "criteria": [{"name": f"g{j}", "q": 0.0, "p": 1.0} for j in range(1, 10)],
        "alternatives": ["x1", "x2", "x3"],
        "evaluations": [[float(i + j) for j in range(9)] for i in range(3)],
    }), encoding="utf-8")
    statements = tmp_path / "none.jsonl"
    statements.write_text("", encoding="utf-8")
    code = main([
        "--problem", str(problem),
        "--statements", str(statements),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {problem}: 9 criteria exceed the enumeration cap of 8\n"
    assert not (tmp_path / "out").exists()


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
    # True == 1, the key of the gain direction
    "direction_true": lambda: students_with(
        lambda d: d["criteria"][0].update(direction=True)),
    # a label is a JSON string or number, a number not a boolean or text
    "alternative_null": lambda: students_with(
        lambda d: d["alternatives"].__setitem__(0, None)),
    "alternative_list": lambda: students_with(
        lambda d: d["alternatives"].__setitem__(0, [])),
    "criterion_name_null": lambda: students_with(
        lambda d: d["criteria"][0].update(name=None)),
    "evaluation_true": lambda: students_with(
        lambda d: d["evaluations"][2].__setitem__(1, True)),
    "threshold_true": lambda: students_with(
        lambda d: d["criteria"][0].update(p=True)),
    "threshold_text": lambda: students_with(
        lambda d: d["criteria"][1].update(p="6")),
    "evaluation_too_large": lambda: students_with(
        lambda d: d["evaluations"][0].__setitem__(0, 10 ** 400)),
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
    # an alternative label is a JSON string or number
    "label_null": {"type": "global_p2", "a": None, "b": "s6"},
    "label_true": {"type": "local_pair", "a": "s1", "b": True},
    "label_list": {"type": "global_p1", "a": [], "b": "s6"},
    "label_object": {"type": "intensity", "pair1": ["s1", {}], "pair2": ["s3", "s4"]},
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


def test_a_run_never_imports_numpy_random(tmp_path):
    # the chain draws from its own SplitMix64 stream; numpy.random and what
    # it loads (secrets, hashlib, OpenSSL) cost a run 9-16 ms and 5.5 MB
    src = str(Path(smaa_promethee.__file__).parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from smaa_promethee.cli import main; "
         "code = main(sys.argv[1:]); "
         "print(sorted(m for m in sys.modules if m.startswith('numpy.random'))); "
         "sys.exit(code)",
         "--problem", str(FIXTURES / "students.json"),
         "--statements", str(FIXTURES / "scenario1.jsonl"),
         "--samples", "2000", "--exact-ror", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr.decode("utf-8", "replace")
    assert run.stdout.decode("utf-8").splitlines()[-1] == "[]"


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
    "--seed=18446744073709551616",
])
def test_bad_sampler_argument_exits_1_before_any_output(tmp_path, capsys, arg):
    assert run_cli(tmp_path, arg) == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "feasibility.json").exists()


@pytest.mark.parametrize("value", ["nan", "-0.5", "inf"])
def test_delta_strict_that_is_no_margin_exits_1_naming_it(tmp_path, capsys, value):
    # NaN compares false both ways, so a check for "negative" let it by;
    # inf passed that check and failed later, after feasibility.json
    out = tmp_path / "out"
    assert run_cli(out, f"--delta-strict={value}") == 1
    assert capsys.readouterr().err == (
        f"error: --delta-strict must be finite and >= 0, got {float(value)}\n")
    assert not out.exists()


def test_stuck_chain_exits_2_without_traceback(tmp_path, capsys, monkeypatch):
    def stuck(*args, **kwargs):
        raise RuntimeError("hit-and-run made no progress")

    monkeypatch.setattr(sampler, "chain_steps", stuck)
    assert run_cli(tmp_path) == 2
    err = capsys.readouterr().err
    assert "error: sampling failed: hit-and-run made no progress" in err
    assert "Traceback" not in err
    assert not (tmp_path / "smaa_report.json").exists()


def test_chain_that_fails_after_written_blocks_leaves_no_samples(tmp_path, capsys,
                                                                monkeypatch):
    # at --burn-in 0 the first block's samples are written while the
    # chains still have refills to run, and the first of those raises; the
    # stale files of an earlier run go too
    for name in ("samples.bin", "samples.json"):
        (tmp_path / name).write_text("stale\n", encoding="utf-8")
    seen = []
    chain_steps = sampler.chain_steps

    def fails_after_a_block(*args, **kwargs):
        seen.append((tmp_path / "samples.bin").read_bytes())
        if seen[-1].strip(b"\0"):
            raise RuntimeError("hit-and-run made no progress")
        return chain_steps(*args, **kwargs)

    monkeypatch.setattr(sampler, "chain_steps", fails_after_a_block)
    # 64 chains of 313 samples each take three refills, two to a block
    assert run_cli(tmp_path, "--burn-in", "0", samples=20_000) == 2
    err = capsys.readouterr().err
    assert "error: sampling failed: hit-and-run made no progress" in err
    assert "Traceback" not in err
    # the file had its full length, zeros, at the first refill, and a
    # block's samples when the third refill started
    assert len(seen) == 3 and len(seen[0]) == len(seen[2]) > 0
    assert not seen[0].strip(b"\0") and seen[2].strip(b"\0")
    assert not (tmp_path / "samples.bin").exists()
    assert not (tmp_path / "samples.json").exists()
    assert not (tmp_path / "smaa_report.json").exists()


def test_unallocatable_sample_array_exits_2_without_traceback(tmp_path, capsys):
    # 10^15 rows of 8-byte floats are more than the file system has room
    # for, so the run is refused before the first step
    assert run_cli(tmp_path, samples=10**15) == 2
    err = capsys.readouterr().err
    assert "error: sampling failed:" in err
    assert "(1000000000000000," in err
    assert "Traceback" not in err
    assert not (tmp_path / "samples.bin").exists()


def test_rerun_counts_the_samples_it_replaces_as_free(tmp_path, capsys, monkeypatch):
    assert run_cli(tmp_path, samples=2000) == 0
    kept = (tmp_path / "samples.bin").read_bytes()
    # a file system with no free block but the old samples' own
    full = os.statvfs_result((4096, 4096, 1, 1, 0, 0, 0, 0, 0, 255))
    monkeypatch.setattr(os, "statvfs", lambda path: full)
    assert run_cli(tmp_path, samples=2000) == 0
    assert (tmp_path / "samples.bin").read_bytes() == kept
    # twice as many samples do not fit in the old ones' blocks
    assert run_cli(tmp_path, samples=4000) == 2
    err = capsys.readouterr().err
    assert "error: sampling failed: samples of shape (4000," in err
    # refused before anything was written: the old samples stand
    assert (tmp_path / "samples.bin").read_bytes() == kept


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
    assert f"error: {bad}:1: statement 1 (" in err and "invalid criterion reference" in err


# a statement that parses but does not compile: (its lines, the line and
# statement text the error names, the reason)
UNCOMPILABLE_STATEMENTS = {
    "unknown_alternative": (
        ["# the DM's judgements", {"type": "local_pair", "a": "s7", "b": "nosuch"}],
        "2: statement 1 (local_pair s7 P nosuch)", "unknown alternative 'nosuch'"),
    "criterion_reference_true": (
        [{"type": "global_p2", "a": "s3", "b": "s6"}, "",
         {"type": "interaction_sign", "j": True, "k": 2}],
        "3: statement 2 (interaction_sign True,2 +)", "invalid criterion reference True"),
    # a digit that int() rejects is no position
    "criterion_reference_superscript": (
        [{"type": "criterion_importance", "j": "³", "k": 1}],
        "1: statement 1 (importance ³ > 1)", "unknown criterion '³'"),
}


@pytest.mark.parametrize("case", sorted(UNCOMPILABLE_STATEMENTS))
def test_uncompilable_statement_exits_1_with_its_line(tmp_path, capsys, case):
    lines, where, reason = UNCOMPILABLE_STATEMENTS[case]
    bad = tmp_path / f"{case}.jsonl"
    bad.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                           for line in lines), encoding="utf-8")
    code = main([
        "--problem", str(FIXTURES / "students.json"),
        "--statements", str(bad),
        "--out", str(tmp_path / "out"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {bad}:{where}: " in err and reason in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_report_writers_are_called_through_the_cli_globals(tmp_path, monkeypatch):
    # the writers are looked up in cli when a report is written, so a
    # wrapper put on those names, as perfbench's tracer does, sees each call
    calls = {name: 0 for name in ("results_to_dict", "render_text", "render_csv",
                                  "to_json")}

    def counting(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name))
    assert run_cli(tmp_path) == 0
    # to_json writes feasibility.json and smaa_report.json
    assert calls == {"results_to_dict": 1, "render_text": 1, "render_csv": 1,
                     "to_json": 2}


def test_report_text_is_written_a_slice_at_a_time(tmp_path):
    # about 19 MiB of text, as a large CSV report: encoded at once, it
    # would be resident a second time as bytes
    text = "café,0.125\n" * ((19 << 20) // 11)
    path = tmp_path / "report.csv"
    tracemalloc.start()
    try:
        cli._write(str(path), text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"traced peak {peak / 2**20:.1f} MiB"
    assert path.read_text(encoding="utf-8") == text


def test_run_memory_does_not_grow_with_the_sample_count(tmp_path):
    # each refill's samples are checked, written and counted, then
    # dropped, so no array of the run grows with --samples
    def traced_peak(samples):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["--problem", str(FIXTURES / "students_ramp.json"),
                         "--statements", str(FIXTURES / "scenario2.jsonl"),
                         "--samples", str(samples), "--seed", "1",
                         "--out", str(tmp_path / str(samples))]) == 0
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    # numpy's first-call caches are not the run's
    traced_peak(5_000)
    small, large = traced_peak(100_000), traced_peak(1_000_000)
    # at 1M samples the samples alone are 96 MB
    assert large - small < 64 * 1024, (
        f"{small / 2**20:.2f} MiB at 100k samples, {large / 2**20:.2f} MiB at 1M")


def test_empty_statements_run_ok(tmp_path):
    code = run_cli(tmp_path, statements="empty.jsonl")
    assert code == 0
    feas = read_json(tmp_path / "feasibility.json")
    assert feas["mode"] == "classical"  # simplest model wins with no statements
    # with no strict row, only the margin LP's box holds the margin
    assert feas["classical_margin"] == feas["bipolar_margin"] == lp.EPS_CAP == 2.0
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


def test_thinned_reruns_write_the_same_samples(tmp_path):
    # burn-in 1,000 at --thin 3 gives 29 chains: 9,999 samples are 23
    # quotas of 345 and 6 of 344, so the short chains take steps they do
    # not keep
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli(out, "--thin", "3", "--burn-in", "1000", samples=9999) == 0
    assert (a / "samples.bin").read_bytes() == (b / "samples.bin").read_bytes()
    quotas = read_json(a / "samples.json")["chain_quotas"]
    assert quotas == read_json(b / "samples.json")["chain_quotas"]
    assert quotas == [345] * 23 + [344] * 6


def test_sidecar_records_the_burn_in_by_dimension(tmp_path, monkeypatch):
    # with no --burn-in, scenario 1 (classical, dim 2) burns in 20 * 2
    # steps and scenario 2 (bipolar, dim 11) 20 * 11, and the stream the
    # CLI samples from runs that number
    streams = []
    stream = cli.SampleStream
    monkeypatch.setattr(cli, "SampleStream",
                        lambda polytope, config: streams.append(stream(polytope, config))
                        or streams[-1])
    for statements, problem, burn_in in (("scenario1.jsonl", "students.json", 40),
                                         ("scenario2.jsonl", "students_ramp.json", 220)):
        out = tmp_path / statements
        assert main(["--problem", str(FIXTURES / problem),
                     "--statements", str(FIXTURES / statements),
                     "--samples", "300", "--thin", "2", "--out", str(out)]) == 0
        sidecar = read_json(out / "samples.json")
        assert (sidecar["burn_in"], sidecar["thinning"]) == (burn_in, 2)
        assert streams.pop().burn_in == burn_in


def library_samples(out, problem, statements, mode, config):
    """``samples.bin`` and ``samples.json`` as ``hit_and_run`` and
    ``SampleBatch.save`` write them for the model the CLI chose."""
    system = compile_statements(load_problem(problem), parse_statements(statements))
    if mode == "classical":
        system = restrict_classical(system)
    hit_and_run(build_polytope(system), config).save(str(out / "samples.bin"))
    return (out / "samples.bin").read_bytes(), (out / "samples.json").read_bytes()


@pytest.mark.parametrize("samples,extra,burn_in,thinning", [
    # 64 chains, more than scenario 2's 23 rows: the chains-last layout
    (100_000, [], None, 1),
    # 5,000 // 220 = 22 chains, fewer than the rows: the chains-first layout
    (5_000, [], None, 1),
    # 9,999 samples over 64 chains at thinning 3: quotas of 157 and 156
    (9_999, ["--thin", "3"], None, 3),
    # the first refill keeps samples; 130 samples over 64 chains
    (130, ["--burn-in", "0"], 0, 1),
])
def test_streamed_samples_are_the_library_bytes(tmp_path, samples, extra, burn_in,
                                                thinning):
    problem, statements = FIXTURES / "students_ramp.json", FIXTURES / "scenario2.jsonl"
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    lib_out.mkdir()
    assert main(["--problem", str(problem), "--statements", str(statements),
                 "--samples", str(samples), "--seed", "1", "--out", str(cli_out),
                 *extra]) == 0
    assert read_json(cli_out / "feasibility.json")["mode"] == "bipolar"
    config = SamplerConfig(sample_count=samples, burn_in=burn_in, thinning=thinning, seed=1)
    want = library_samples(lib_out, problem, statements, "bipolar", config)
    assert (cli_out / "samples.bin").read_bytes() == want[0]
    assert (cli_out / "samples.json").read_bytes() == want[1]


def test_streamed_samples_of_a_single_point_are_the_library_bytes(tmp_path):
    # the dimension-0 polytope of test_single_parameter_vector_is_sampled
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({
        "criteria": [{"name": "c1", "direction": "max", "q": 0.0, "p": 1.0},
                     {"name": "c2", "direction": "max", "q": 0.0, "p": 1.0}],
        "alternatives": ["a", "b", "c"],
        "evaluations": [[1, 2], [2, 1], [1.5, 1.5]],
    }), encoding="utf-8")
    statements = tmp_path / "statements.jsonl"
    statements.write_text(json.dumps(
        {"type": "criterion_importance", "j": 1, "k": 2, "kind": "="}) + "\n",
        encoding="utf-8")
    cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
    lib_out.mkdir()
    assert main(["--problem", str(problem), "--statements", str(statements),
                 "--samples", "20000", "--seed", "1", "--out", str(cli_out)]) == 0
    want = library_samples(lib_out, problem, statements, "classical",
                           SamplerConfig(sample_count=20_000, seed=1))
    assert (cli_out / "samples.bin").read_bytes() == want[0]
    assert (cli_out / "samples.json").read_bytes() == want[1]


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
    assert (sidecar["burn_in"], sidecar["thinning"]) == (200, 1)
    size = (tmp_path / "samples.bin").stat().st_size
    assert size == 400 * len(sidecar["columns"]) * 8
