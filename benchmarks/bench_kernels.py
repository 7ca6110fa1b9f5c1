"""Timings of the two hot loops: the hit-and-run chain and relation counting.

Runs both on sizes matching a realistic analysis: ``hit_and_run`` once per
fixture polytope (its batched chains plus the feasibility check of the
output), and relation counting on flows of a sampled batch. Each figure is
the best of ``--repeat`` runs. Usage:

    python benchmarks/bench_kernels.py [--samples N] [--repeat K]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

from smaa_promethee._kernels import count_relations
from smaa_promethee.elicitation import compile_statements, parse_statements, restrict_classical
from smaa_promethee.model import load_problem
from smaa_promethee.sampler import SamplerConfig, build_polytope, hit_and_run
from smaa_promethee.smaa import flow_matrices


def bench_chain(polytope, config: SamplerConfig, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        batch = hit_and_run(polytope, config)
        best = min(best, time.perf_counter() - t0)
        assert batch.sample_count == config.sample_count
    return best


def bench_count(pos, neg, repeat: int) -> float:
    s, m = pos.shape
    best = float("inf")
    for _ in range(repeat):
        rank_counts = np.zeros((m, m), dtype=np.int64)
        zeros = lambda: np.zeros((m, m), dtype=np.int64)
        first = np.zeros((s, m), dtype=np.uint8)
        t0 = time.perf_counter()
        count_relations(pos, neg, 1e-9, rank_counts, zeros(), zeros(),
                        zeros(), zeros(), zeros(), first)
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=200_000)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)

    table = load_problem(FIXTURES / "students.json")
    statements = parse_statements(FIXTURES / "scenario1.jsonl")
    classical = build_polytope(restrict_classical(compile_statements(table, statements)))
    ramp = load_problem(FIXTURES / "students_ramp.json")
    bipolar = build_polytope(compile_statements(
        ramp, parse_statements(FIXTURES / "scenario2.jsonl")))
    config = SamplerConfig(sample_count=args.samples, burn_in=1000, thinning=1, seed=3)

    rows = []
    for label, poly in (("chain classical dim=2", classical),
                        ("chain bipolar dim=11", bipolar)):
        rows.append((f"{label} x{args.samples}", bench_chain(poly, config, args.repeat)))

    # flows for the counting stage come from a real sampled batch
    pos, neg = flow_matrices(table, hit_and_run(classical, config).data)
    rows.append((f"count m=8 x{args.samples}", bench_count(pos, neg, args.repeat)))

    width = max(len(label) for label, _ in rows) + 2
    print(f"{'kernel':<{width}}{'best':>12}")
    for label, seconds in rows:
        print(f"{label:<{width}}{seconds * 1000:>10.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
