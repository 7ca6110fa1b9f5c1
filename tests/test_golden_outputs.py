"""Output bytes of fixed runs, pinned by their sha256 in golden_outputs.json.

Each run goes through ``cli.main`` in-process at seed 1 and 5,000 samples,
and every file it writes must hash as the manifest says, except
``samples.bin``: its bytes pass through LAPACK and BLAS, whose builds
differ between numpy wheels, while the reports count verdicts on the
samples and so come out the same. ``samples.json`` is pinned, since it
records only the seed, shape, quotas and schedule.

Run this module as a script to rewrite the manifest from the current
code: ``PYTHONPATH=src python tests/test_golden_outputs.py``.
"""

import hashlib
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

# run name -> (problem, statements, extra arguments); a problem named in
# TABLES is that synthetic table with its statements
RUNS = {
    "scenario1-exact-ror": ("students.json", "scenario1.jsonl", ["--exact-ror"]),
    "scenario2-exact-ror": ("students_ramp.json", "scenario2.jsonl", ["--exact-ror"]),
    "scenario2-delta-strict": ("students_ramp.json", "scenario2.jsonl",
                               ["--delta-strict", "0.02"]),
    "all-types-exact-ror": ("students.json", "all_types.jsonl", ["--exact-ror"]),
    "m100": ("m100", None, []),
    "n6-bipolar": ("n6", None, ["--mode", "bipolar"]),
    "n7-bipolar-exact-ror": ("n7", None, ["--mode", "bipolar", "--exact-ror"]),
}


def run_hashes(name: str, work: Path) -> dict:
    """sha256 of every file the run writes, bar samples.bin, by file name."""
    problem, statements, extra = RUNS[name]
    if problem in TABLES:
        benchmark_instance(work / "input", 1, **TABLES[problem])
        problem, statements = work / "input" / "problem.json", work / "input" / "statements.jsonl"
    else:
        problem, statements = FIXTURES / problem, FIXTURES / statements
    out = work / "out"
    code = main(["--problem", str(problem), "--statements", str(statements),
                 "--samples", "5000", "--seed", "1", "--out", str(out), *extra])
    assert code == 0, name
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir()) if path.name != "samples.bin"}


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
