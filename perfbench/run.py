"""Pipeline benchmark: the real CLI on three workloads, each loading a layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run is a fresh process (``child.py``) that imports the package from
``src/`` and calls ``smaa_promethee.cli.main`` on the workload's input
files, one run at a time (closed loop, one client). Runs repeat until the
next one would end past ``--seconds``. All runs of one invocation use the
same inputs and seed, so their ``smaa_report.json`` must match byte for
byte. With ``--trace 0`` every run is untraced and the end-to-end metrics
are reported; with ``--trace 1`` untraced and traced runs alternate and the
per-layer metrics are reported, computed from spans that ``spans.py``
records around the package's public names.

Workloads (why each was chosen is in BENCHMARK.json):

- ``fixture-bipolar``: fixtures/students_ramp.json + scenario2.jsonl, auto
  policy (escalates to bipolar, dim 11), 100,000 samples, ``--exact-ror``.
  The chain and the exact-ROR sweep dominate.
- ``wide-m100``: synthetic m = 100, n = 3, q = p = 0, four ``global_p2``
  statements, auto policy (classical, dim 2), 5,000 samples. Aggregation
  over s x m x m tensors dominates, memory too.
- ``criteria-n6``: synthetic m = 8, n = 6, ramp p = 4, four ``global_p2``
  statements from a hidden bicapacity, ``--mode bipolar`` (1,499 rows,
  dim 50), 5,000 samples. The margin LPs and polytope centring dominate.

The synthetic tables come from ``inputs.py`` with a fixed instance seed,
so that run time does not swing with the instance's pivot count; the
``--seed`` argument is the sampler seed of every workload.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, the environment record and any failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402

# synthetic instance drawn for both generated workloads (see module doc)
INSTANCE_SEED = 1
# import-only processes started per invocation, on top of the timed runs
SETUP_PROBES = 10
# contiguous batches for the batch-means standard errors
MC_BATCHES = 400
# a whole invocation must end well inside three minutes
HARD_LIMIT_S = 170.0
# the byte-for-byte report check needs a pair of same-seed runs
MIN_RUNS = 2


@dataclass(frozen=True)
class Workload:
    samples: int
    mode: str
    expected_mode: str
    exact_ror: bool
    fixture: tuple[str, str] | None = None
    synthetic: dict | None = None
    # per-layer metrics whose sum is the layer this workload exists to load
    dominant: tuple[str, ...] = ()


WORKLOADS = {
    "fixture-bipolar": Workload(
        samples=100_000, mode="auto", expected_mode="bipolar", exact_ror=True,
        fixture=("fixtures/students_ramp.json", "fixtures/scenario2.jsonl"),
        dominant=("sampler.chain_s", "smaa.ror_s"),
    ),
    "wide-m100": Workload(
        samples=5_000, mode="auto", expected_mode="classical", exact_ror=False,
        synthetic=dict(m=100, n=3, p=0.0, interactions=False, statement_count=4),
        dominant=("smaa.aggregate_s",),
    ),
    "criteria-n6": Workload(
        samples=5_000, mode="bipolar", expected_mode="bipolar", exact_ror=False,
        synthetic=dict(m=8, n=6, p=4.0, interactions=True, statement_count=4),
        dominant=("lp.margin_s", "sampler.polytope_s"),
    ),
}

REPORTS = ("smaa_report.json", "smaa_report.txt", "smaa_report.csv")


class Invocation:
    """Work directory and time limit shared by the processes of one invocation."""

    def __init__(self, root: str, work: str):
        self.src = os.path.join(root, "src")
        self.work = work
        self.started = time.monotonic()
        self.count = 0

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def child(self, script: str, args: list[str]) -> tuple[dict | None, str, float]:
        """Run one fresh process; return its result, an error and its spawn clock."""
        self.count += 1
        result_path = os.path.join(self.work, f"result-{self.count}.json")
        command = [sys.executable, os.path.join(HERE, script), self.src,
                   result_path, *args]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            return None, f"{script} did not finish within the time limit", spawned
        if proc.returncode != 0:
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            return None, f"{script} exited {proc.returncode}: {' | '.join(tail)}", spawned
        try:
            with open(result_path, encoding="utf-8") as fh:
                return json.load(fh), "", spawned
        except (OSError, ValueError) as exc:
            return None, f"{script} wrote no result: {exc}", spawned


def check_outputs(out: str, workload: Workload, reference: bytes | None) -> tuple[str, bytes]:
    """Return a failure reason ("" if none) and the JSON report's bytes."""
    path = lambda name: os.path.join(out, name)
    try:
        with open(path("feasibility.json"), encoding="utf-8") as fh:
            feasibility = json.load(fh)
        with open(path("smaa_report.json"), "rb") as fh:
            report_bytes = fh.read()
        report = json.loads(report_bytes)
        with open(path("smaa_report.txt"), encoding="utf-8") as fh:
            if not fh.read().strip():
                return "smaa_report.txt is empty", report_bytes
        with open(path("smaa_report.csv"), encoding="utf-8", newline="") as fh:
            if not list(csv.reader(fh)):
                return "smaa_report.csv is empty", report_bytes
        with open(path("samples.json"), encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if os.path.getsize(path("samples.bin")) != 8 * sidecar["rows"] * len(sidecar["columns"]):
            return "samples.bin does not match its sidecar", report_bytes
        ror = None
        if workload.exact_ror:
            with open(path("ror_report.json"), encoding="utf-8") as fh:
                ror = json.load(fh)
        rank_rows = report["rank_acceptability_pct"]
        sample_count = report["sample_count"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"missing or unparsable output: {exc!r}", b""
    if feasibility.get("mode") != workload.expected_mode:
        return (f"resolved mode {feasibility.get('mode')!r}, expected "
                f"{workload.expected_mode!r}"), report_bytes
    if sample_count != workload.samples:
        return f"report holds {sample_count} samples, not {workload.samples}", report_bytes
    if ror is not None and (ror["violations_necessary"] or ror["violations_possible"]):
        return (f"exact ROR violations: {ror['violations_necessary']} / "
                f"{ror['violations_possible']}"), report_bytes
    # each entry is rounded to 3 decimals, so a row may miss 100 by m half-units
    tolerance = len(rank_rows) * 0.0005 + 1e-9
    for row in rank_rows:
        if abs(sum(row) - 100.0) > tolerance:
            return f"rank acceptability row sums to {sum(row)}", report_bytes
    if reference is not None and report_bytes != reference:
        return "smaa_report.json differs from the first run with the same seed", report_bytes
    return "", report_bytes


def layer_metrics(spans: list[dict], out: str, workload: Workload) -> dict:
    """Per-layer figures of one traced run, from its spans and outputs."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    duration = lambda span: span["end"] - span["start"]
    total = lambda name: sum(duration(s) for s in by_name.get(name, ()))
    attr = lambda name, key: sum(s.get(key, 0) for s in by_name.get(name, ()))
    main = by_name["main"][0]
    lp_calls = by_name.get("max_epsilon", [])
    rendering = ("results_to_dict", "render_text", "render_csv")
    # the exact-ROR sweep is all cli.main does after the reports are rendered
    rendered = max((s["end"] for name in rendering for s in by_name.get(name, ())),
                   default=main["end"])
    ror_s = main["end"] - rendered
    chain_s = total("hit_and_run")
    metrics = {
        "cli.self_s": duration(main) - sum(
            duration(s) for s in spans if s["parent"] == main["id"]),
        "model.load_s": total("load_problem"),
        "elicitation.compile_s": total("compile_statements"),
        "elicitation.rows": attr("compile_statements", "rows"),
        "lp.margin_s": sum(duration(s) for s in lp_calls if s["parent"] == main["id"]),
        "lp.solves": len(lp_calls),
        "lp.solve_s": total("max_epsilon"),
        "sampler.polytope_s": total("build_polytope"),
        "sampler.polytope_rows": attr("build_polytope", "rows"),
        "sampler.dimension": attr("build_polytope", "dimension"),
        "sampler.chain_s": chain_s,
        "sampler.steps_per_s": attr("hit_and_run", "steps") / chain_s if chain_s else 0.0,
        "sampler.save_s": total("save"),
        "sampler.save_bytes": attr("save", "bytes"),
        "kernels.chain_s": total("chain_steps"),
        "kernels.count_s": total("count_relations"),
        "smaa.aggregate_s": total("aggregate"),
        "smaa.aggregate_self_s": total("aggregate") - total("count_relations"),
        "smaa.ror_s": ror_s,
        "smaa.ror_busy_ratio": total("exact_ror_pair") / ror_s if ror_s > 0 else 0.0,
        "reports.render_s": sum(total(name) for name in rendering),
        "reports.bytes": sum(os.path.getsize(os.path.join(out, name))
                             for name in REPORTS),
    }
    metrics["dominant_share"] = (
        sum(metrics[name] for name in workload.dominant) / duration(main))
    return metrics


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, wanted) ticks of all CPUs so far, from /proc/stat on Linux.

    Wanted ticks are those not idle: run here, or stolen by the hypervisor.
    """
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return steal, user + nice + system + irq + softirq + steal


def median_of(rows: list[dict], key: str) -> float:
    values = [row[key] for row in rows]
    return statistics.median(values) if values else 0.0


def measure(args, spec: dict, workload: Workload, root: str, work: str) -> int:
    inv = Invocation(root, work)
    ticks_before = cpu_ticks()
    if workload.fixture:
        problem, statements = (os.path.join(root, p) for p in workload.fixture)
    else:
        problem, statements = inputs.write(
            os.path.join(work, "inputs"),
            *inputs.synthetic(INSTANCE_SEED, **workload.synthetic))
    cli_args = ["--problem", problem, "--statements", statements,
                "--samples", str(workload.samples), "--seed", str(args.seed),
                "--mode", workload.mode]
    if workload.exact_ror:
        cli_args.append("--exact-ror")

    failures: list[str] = []
    setup: list[float] = []
    for _ in range(SETUP_PROBES):
        result, error, spawned = inv.child("child.py", ["import"])
        if result is None:
            failures.append(f"import probe: {error}")
        elif not result["module"].startswith(os.path.realpath(inv.src) + os.sep):
            failures.append(f"imported {result['module']}, not the checkout's package")
        else:
            setup.append(result["imported"] - spawned)

    deadline = time.monotonic() + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    attempted = failed = 0
    reference = first_out = None
    while True:
        kind = "traced" if args.trace and attempted % 2 == 1 else "plain"
        out = os.path.join(work, f"run-{attempted}")
        result, error, spawned = inv.child("child.py", [kind, *cli_args, "--out", out])
        walls.append(time.monotonic() - spawned)
        attempted += 1
        if result is not None:
            setup.append(result["imported"] - spawned)
            if result["exit"] != 0:
                error = f"cli.main returned {result['exit']}"
            else:
                error, report_bytes = check_outputs(out, workload, reference)
        if error:
            failed += 1
            failures.append(f"run {attempted} ({kind}): {error}")
        else:
            if kind == "traced":
                result.update(layer_metrics(result["spans"], out, workload))
                traced.append(result)
            else:
                plain.append(result)
            if reference is None:
                reference, first_out = report_bytes, out
        if out != first_out:
            shutil.rmtree(out, ignore_errors=True)
        if inv.remaining() <= 0:
            break
        # stop when another run would end past the deadline or the limit
        expected = statistics.median(walls)
        if attempted >= MIN_RUNS and (
                time.monotonic() + expected > deadline
                or inv.remaining() < 2 * expected + 20.0):
            break

    accuracy: dict = {}
    if first_out is not None:
        flags = ["--memory"] if args.trace else []
        result, error, _ = inv.child(
            "accuracy.py", [problem, first_out, str(MC_BATCHES), *flags])
        if result is None:
            failures.append(f"accuracy stage: {error}")
        else:
            accuracy = result

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = dict.fromkeys(units, 0.0)
        if traced:
            layers.update({name: median_of(traced, name)
                           for name in traced[0] if name in units})
        layers["sampler.ess_min"] = accuracy.get("ess_min", 0.0)
        layers["smaa.aggregate_peak_mb"] = accuracy.get("aggregate_peak_mb", 0.0)
        layers["trace_overhead_s"] = median_of(traced, "run_s") - median_of(plain, "run_s")
        values = layers
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "run_s": median_of(plain, "run_s"),
            "setup_s": statistics.median(setup) if setup else 0.0,
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "rank_se_max_pp": accuracy.get("rank_se_max_pp", 0.0),
            "ok_ratio": (attempted - failed) / attempted,
        }

    environment = accuracy.get("environment", {})
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # share of the CPU time wanted here that the hypervisor gave to
        # other machines: a high share means the run times are inflated
        environment["steal_share"] = round(
            (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1]), 4)
    run_times = sorted(r["run_s"] for r in plain)
    print(f"workload {args.workload}, seed {args.seed}: {attempted} runs "
          f"({len(plain)} untraced, {len(traced)} traced ok), {failed} failed, "
          f"fail_ratio {failed / attempted:g}; {len(setup)} set-up samples")
    # too few runs for a high percentile with ten beyond it: print them all
    print("untraced run_s: " + " ".join(f"{t:.3f}" for t in run_times))
    print("environment " + json.dumps(environment, sort_keys=True))
    for reason in failures:
        print("FAILED " + reason)
        print("FAILED " + reason, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    root = os.getcwd()
    needed = ["BENCHMARK.json", os.path.join("src", "smaa_promethee", "cli.py"),
              *(workload.fixture or ())]
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"error: run from the root of a checkout; missing {missing}",
              file=sys.stderr)
        return 2
    # metric names and units are declared once, in BENCHMARK.json
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measure(args, spec, workload, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another invocation still works there


if __name__ == "__main__":
    sys.exit(main())
