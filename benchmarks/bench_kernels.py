"""Timings of the two hot loops: chain stepping and relation counting.

Runs both on sizes matching a realistic analysis. The chain is timed
per backend (numba and numpy twins, plus the speedup); relation counting
has a single numpy implementation and is timed once. The numba chain is
warmed up once so JIT compilation does not pollute the numbers. Usage:

    python benchmarks/bench_kernels.py [--samples N] [--repeat K]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

from smaa_promethee._kernels import (
    chain_steps,
    count_relations,
    numba_available,
)
from smaa_promethee.elicitation import compile_statements, parse_statements, restrict_classical
from smaa_promethee.model import load_problem
from smaa_promethee.sampler import SamplerConfig, build_polytope, hit_and_run
from smaa_promethee.smaa import flow_matrices


def chain_inputs(polytope, n_samples: int, seed: int):
    dim = polytope.dimension
    rng = np.random.default_rng(seed)
    n_rand = 1000 + n_samples + 4096
    dirs = rng.standard_normal((n_rand, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    uniforms = rng.random(n_rand)
    return dirs, uniforms, polytope.start


def bench_chain(polytope, n_samples: int, backend: str, repeat: int) -> float:
    dirs, uniforms, y0 = chain_inputs(polytope, n_samples, seed=7)
    best = float("inf")
    for _ in range(repeat):
        y = y0.copy()
        state = np.zeros(3, dtype=np.int64)
        out = np.empty((n_samples, polytope.dimension))
        t0 = time.perf_counter()
        status, _ = chain_steps(
            polytope.A, polytope.b, y, dirs, uniforms,
            1000, 1, 4096, state, out, backend=backend,
        )
        best = min(best, time.perf_counter() - t0)
        assert status == 0 and state[1] == n_samples
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

    if not numba_available():
        print("numba is not importable; only the numpy twin can run", file=sys.stderr)

    table = load_problem(FIXTURES / "students.json")
    statements = parse_statements(FIXTURES / "scenario1.jsonl")
    classical = build_polytope(restrict_classical(compile_statements(table, statements)))
    ramp = load_problem(FIXTURES / "students_ramp.json")
    bipolar = build_polytope(compile_statements(
        ramp, parse_statements(FIXTURES / "scenario2.jsonl")))

    # flows for the counting stage come from a real sampled batch
    batch = hit_and_run(classical, SamplerConfig(
        sample_count=args.samples, burn_in=1000, thinning=1, seed=3,
    ))
    pos, neg = flow_matrices(table, batch.data)

    backends = ["numpy"] + (["numba"] if numba_available() else [])
    if "numba" in backends:  # warm the JIT outside the timed region
        bench_chain(classical, 1000, "numba", 1)

    rows = []
    for label, poly in (("chain classical dim=2", classical),
                        ("chain bipolar dim=11", bipolar)):
        times = {b: bench_chain(poly, args.samples, b, args.repeat) for b in backends}
        rows.append((f"{label} x{args.samples}", times))
    count_label = f"count m=8 x{args.samples}"
    count_time = bench_count(pos, neg, args.repeat)

    width = max(len(r[0]) for r in rows) + 2
    header = f"{'kernel':<{width}}" + "".join(f"{b:>12}" for b in backends)
    if len(backends) == 2:
        header += f"{'speedup':>10}"
    print(header)
    for label, times in rows:
        line = f"{label:<{width}}"
        for b in backends:
            line += f"{times[b] * 1000:>10.1f}ms"
        if len(backends) == 2:
            line += f"{times['numpy'] / times['numba']:>9.1f}x"
        print(line)
    print(f"{count_label:<{width}}{count_time * 1000:>10.1f}ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
