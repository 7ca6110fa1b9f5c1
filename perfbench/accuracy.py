"""Monte-Carlo accuracy of one run's samples, plus the environment record.

Usage: python3 accuracy.py SRC RESULT_JSON PROBLEM RUN_DIR BATCHES [--memory]

Runs in its own process after the timed runs. The samples are split into
contiguous batches and each batch goes through ``aggregate``: the spread of
the batch rank acceptabilities gives the batch-means standard error of each
index, and the spread of the batch means of each sampled column gives its
effective sample size. ``--memory`` also aggregates the whole batch once
under tracemalloc for the aggregation peak, kept out of the timed runs
because tracing allocations slows aggregation down.
"""

import ctypes
import glob
import importlib.util
import json
import os
import platform
import sys
import tracemalloc

import numpy as np


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(smaa) -> dict:
    worker_count = getattr(smaa, "worker_count", None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
        "exact_ror_workers": worker_count() if worker_count else None,
    }


def cache_coefficients(smaa) -> None:
    """Build the coefficient rows once per table, not once per batch."""
    coefficients = getattr(smaa, "pair_coefficient_matrices", None)
    if coefficients is None:
        return
    cache = {}

    def cached(table, layout):
        key = (id(table), layout.n)
        if key not in cache:
            cache[key] = coefficients(table, layout)
        return cache[key]

    smaa.pair_coefficient_matrices = cached


def main() -> None:
    src, result_path, problem_path, run_dir, batches, *flags = sys.argv[1:]
    sys.path.insert(0, src)
    from smaa_promethee import SampleBatch, aggregate, load_problem, smaa

    cache_coefficients(smaa)
    table = load_problem(problem_path)
    with open(os.path.join(run_dir, "feasibility.json"), encoding="utf-8") as fh:
        mode = json.load(fh)["mode"]
    batch = SampleBatch.load(os.path.join(run_dir, "samples.bin"))
    data = batch.data
    count = int(batches)
    length = data.shape[0] // count
    rank_means = []
    for b in range(count):
        part = SampleBatch(columns=batch.columns,
                           data=data[b * length:(b + 1) * length])
        rank_means.append(aggregate(table, part, mode=mode).rank_acceptability)
    rank_means = np.array(rank_means)
    rank_se = rank_means.std(axis=0, ddof=1) / np.sqrt(count)

    used = data[:count * length]
    column_means = used.reshape(count, length, -1).mean(axis=1)
    variance = used.var(axis=0, ddof=1)
    batch_variance = length * column_means.var(axis=0, ddof=1)
    # columns pinned by equalities (classical interactions) do not move at all
    moving = variance > 1e-12 * max(1.0, float(np.abs(used).max()))
    ess = used.shape[0] * variance[moving] / batch_variance[moving]

    result = {
        "rank_se_max_pp": float(rank_se.max() * 100.0),
        "ess_min": float(ess.min()),
        "environment": environment(smaa),
    }
    if "--memory" in flags:
        tracemalloc.start()
        aggregate(table, batch, mode=mode)
        result["aggregate_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
