import json
import re

import numpy as np
import pytest

from smaa_promethee.model import (
    Criterion,
    PerformanceTable,
    load_evaluations_csv,
    load_problem,
)

from conftest import FIXTURES


def test_fixture_loads(students):
    assert students.n_alternatives == 8
    assert students.n_criteria == 3
    assert students.alternatives[0] == "s1"
    assert [c.name for c in students.criteria] == ["Mathematics", "Physics", "Literature"]
    assert students.evaluations[2, 0] == 19.0


def test_difference_examples(students):
    assert students.difference("Mathematics", "s3", "s2") == 4.0
    for j in ("Mathematics", "Physics", "Literature"):
        assert students.difference(j, "s4", "s4") == 0.0


def test_difference_minimize_direction():
    table = PerformanceTable(
        ("a", "b"),
        (Criterion("cost", direction=-1), Criterion("pad")),
        np.array([[3.0, 0.0], [5.0, 0.0]]),
    )
    assert table.difference("cost", "a", "b") == 2.0


def test_difference_antisymmetric(students):
    diffs = students.difference_tensor()
    assert np.array_equal(diffs, -diffs.transpose(1, 0, 2))
    # tensor agrees with the scalar accessor
    for a in students.alternatives:
        for b in students.alternatives:
            ia = students.alternative_index(a)
            ib = students.alternative_index(b)
            for j, crit in enumerate(students.criteria):
                assert diffs[ia, ib, j] == students.difference(crit.name, a, b)


def test_criterion_validation():
    with pytest.raises(ValueError):
        Criterion("g", q=2.0, p=1.0)
    with pytest.raises(ValueError):
        Criterion("g", q=-0.5, p=1.0)
    with pytest.raises(ValueError):
        Criterion("g", direction=0)


def test_table_validation():
    crits = (Criterion("g1"), Criterion("g2"))
    good = np.zeros((2, 2))
    with pytest.raises(ValueError):
        PerformanceTable(("a",), crits, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        PerformanceTable(("a", "b"), (Criterion("g1"),), np.zeros((2, 1)))
    with pytest.raises(ValueError):
        PerformanceTable(("a", "a"), crits, good)
    with pytest.raises(ValueError):
        PerformanceTable(("a", "b"), (Criterion("g"), Criterion("g")), good)
    with pytest.raises(ValueError):
        PerformanceTable(("a", "b"), crits, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        PerformanceTable(("a", "b"), crits, np.array([[np.nan, 0.0], [0.0, 0.0]]))


def test_criterion_index_forms(students):
    assert students.criterion_index("Physics") == 1
    assert students.criterion_index(1) == 0
    assert students.criterion_index("3") == 2
    with pytest.raises(KeyError):
        students.criterion_index("missing")
    with pytest.raises(KeyError):
        students.criterion_index(9)
    for ref in ([1], 2.0, {"j": 1}):
        with pytest.raises(KeyError, match="invalid criterion reference"):
            students.criterion_index(ref)
    with pytest.raises(KeyError):
        students.alternative_index("s99")


def test_json_round_trip(tmp_path, students):
    doc = {
        "criteria": [
            {"name": c.name, "direction": "max" if c.direction > 0 else "min",
             "q": c.q, "p": c.p}
            for c in students.criteria
        ],
        "alternatives": list(students.alternatives),
        "evaluations": students.evaluations.tolist(),
    }
    path = tmp_path / "round.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    again = load_problem(path)
    assert again.alternatives == students.alternatives
    assert again.criteria == students.criteria
    assert np.array_equal(again.evaluations, students.evaluations)


def test_csv_import(tmp_path, students):
    lines = ["alt," + ",".join(c.name for c in students.criteria)]
    for i, label in enumerate(students.alternatives):
        row = ",".join(str(v) for v in students.evaluations[i])
        lines.append(f"{label},{row}")
    path = tmp_path / "evals.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    table = load_evaluations_csv(path, students.criteria)
    assert table.alternatives == students.alternatives
    assert np.array_equal(table.evaluations, students.evaluations)


def test_csv_import_reads_utf8_and_names_a_file_that_is_not(tmp_path):
    path = tmp_path / "evals.csv"
    path.write_text("alt,Mathématiques,Physics\ns1,1,2\ns2,3,4\n", encoding="utf-8")
    assert load_evaluations_csv(path).criteria[0].name == "Mathématiques"
    path.write_text("alt,Mathématiques,Physics\ns1,1,2\ns2,3,4\n", encoding="latin-1")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not UTF-8"):
        load_evaluations_csv(path)


def test_load_problem_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError):
        load_problem(bad)
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"criteria": []}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_problem(missing)
