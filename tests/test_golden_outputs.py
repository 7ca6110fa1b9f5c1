"""Output bytes of fixed runs, pinned by their sha256 in golden_outputs.json.

Each run goes through ``cli.main`` in-process at seed 1 and 5,000 samples
and must exit with its expected code. Every file it writes must hash as
the manifest says, and so must its stderr when it prints any, except
``samples.bin``: its bytes pass through LAPACK and BLAS, whose builds
differ between numpy wheels, while the reports count verdicts on the
samples and so come out the same. ``samples.json`` is pinned, since it
records only the seed, shape, quotas and schedule.

Run this module as a script to rewrite the manifest from the current
code: ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from smaa_promethee.cli import main

from conftest import FIXTURES, benchmark_instance

MANIFEST = Path(__file__).resolve().parent / "golden_outputs.json"

# the synthetic tables of the pipeline benchmark, at instance seed 1
TABLES = {
    "m100": dict(m=100, n=3, p=0.0, interactions=False, statement_count=4),
    "n6": dict(m=8, n=6, p=4.0, interactions=True, statement_count=4),
    "n7": dict(m=8, n=7, p=4.0, interactions=True, statement_count=4),
}

# run name -> (problem, statements, extra arguments, exit code); a problem
# named in TABLES is that synthetic table with its statements
RUNS = {
    "scenario1-exact-ror": ("students.json", "scenario1.jsonl", ["--exact-ror"], 0),
    "scenario2-exact-ror": ("students_ramp.json", "scenario2.jsonl", ["--exact-ror"], 0),
    "scenario2-delta-strict": ("students_ramp.json", "scenario2.jsonl",
                               ["--delta-strict", "0.02"], 0),
    # a margin above 1, which a1's net-flow gap of 4/3 over a2 allows
    "dominated-delta-strict": ("dominated.json", "dominance.jsonl",
                               ["--delta-strict", "1.2"], 0),
    "all-types-exact-ror": ("students.json", "all_types.jsonl", ["--exact-ror"], 0),
    "m100": ("m100", None, [], 0),
    "n6-bipolar": ("n6", None, ["--mode", "bipolar"], 0),
    "n7-bipolar-exact-ror": ("n7", None, ["--mode", "bipolar", "--exact-ror"], 0),
    # no parameters at any margin in either model: both margin LPs end
    # phase 1 above zero, and only feasibility.json is written
    "incompatible": ("dominated.json", "incompatible.jsonl", [], 2),
}


def run_hashes(name: str, work: Path) -> dict:
    """sha256 of every file the run writes, bar samples.bin, by file name,
    and of its stderr, under "stderr", when it prints any."""
    problem, statements, extra, expected_code = RUNS[name]
    if problem in TABLES:
        benchmark_instance(work / "input", 1, **TABLES[problem])
        problem, statements = work / "input" / "problem.json", work / "input" / "statements.jsonl"
    else:
        problem, statements = FIXTURES / problem, FIXTURES / statements
    out = work / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--problem", str(problem), "--statements", str(statements),
                     "--samples", "5000", "--seed", "1", "--out", str(out), *extra])
    assert code == expected_code, name
    hashes = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(out.iterdir()) if path.name != "samples.bin"}
    if err.getvalue():
        hashes["stderr"] = hashlib.sha256(err.getvalue().encode("utf-8")).hexdigest()
    return hashes


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_bytes_match_the_manifest(tmp_path, name):
    expected = json.loads(MANIFEST.read_text(encoding="utf-8"))[name]
    assert run_hashes(name, tmp_path) == expected


if __name__ == "__main__":
    manifest = {}
    for name in sorted(RUNS):
        with tempfile.TemporaryDirectory() as work:
            manifest[name] = run_hashes(name, Path(work))
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {MANIFEST}", file=sys.stderr)
