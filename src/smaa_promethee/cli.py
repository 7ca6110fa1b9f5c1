"""End-to-end pipeline: load, check compatibility, sample, aggregate, report.

Model escalation follows the simplest-first rule: in auto mode the
weights-only model is tried first and the bipolar one only when the
classical margin is not strictly positive. Exit codes: 0 success, 1 bad
input, 2 no compatible model at the requested margin or sampling failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .elicitation import compile_statements, parse_statements, restrict_classical
from .lp import max_epsilon
from .model import load_problem
from .reports import render_csv, render_text, results_to_dict
from .sampler import SamplerConfig, build_polytope, hit_and_run
from .smaa import aggregate, validate_against_exact_ror

__all__ = ["main"]

# a margin this close to zero does not certify strict compatibility
COMPATIBILITY_TOL = 1e-9

_FORMATS = ("json", "text", "csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smaa-promethee",
        description=(
            "Stochastic outranking analysis: samples preference parameters "
            "compatible with stated preferences and reports rank "
            "acceptabilities, relation frequencies and outranking estimates."
        ),
    )
    parser.add_argument("--problem", required=True,
                        help="problem JSON (criteria, alternatives, evaluations)")
    parser.add_argument("--statements", required=True,
                        help="preference statements, one JSON object per line")
    parser.add_argument("--samples", type=int, default=100_000,
                        help="number of parameter vectors to sample")
    parser.add_argument("--seed", type=int, default=0, help="sampler seed")
    parser.add_argument("--mode", choices=("auto", "classical", "bipolar"),
                        default="auto", help="model policy (auto escalates)")
    parser.add_argument("--exact-ror", action="store_true",
                        help="also solve the exact outranking programs per pair")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", default="json,text,csv",
                        help="comma-separated report formats (json,text,csv)")
    parser.add_argument("--delta-strict", type=float, default=0.0,
                        help="margin enforced on strict rows while sampling")
    parser.add_argument("--burn-in", type=int, default=1_000,
                        help="steps discarded at the start of each chain")
    parser.add_argument("--thin", type=int, default=1,
                        help="keep every n-th step of each chain")
    return parser


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
    bad = [f for f in formats if f not in _FORMATS]
    if bad or not formats:
        print(f"error: unknown report formats {bad or args.format!r}", file=sys.stderr)
        return 1
    try:
        config = SamplerConfig(
            sample_count=args.samples, burn_in=args.burn_in,
            thinning=args.thin, seed=args.seed, delta_strict=args.delta_strict,
        )
        table = load_problem(args.problem)
        statements = parse_statements(args.statements)
        full_system = compile_statements(table, statements)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    classical_system = restrict_classical(full_system)

    classical_fit = max_epsilon(classical_system)
    bipolar_fit = max_epsilon(full_system)
    compat1 = classical_fit.feasible and classical_fit.eps_star > COMPATIBILITY_TOL
    compat2 = bipolar_fit.feasible and bipolar_fit.eps_star > COMPATIBILITY_TOL
    if args.mode == "classical":
        chosen = "classical" if compat1 else None
    elif args.mode == "bipolar":
        chosen = "bipolar" if compat2 else None
    else:
        chosen = "classical" if compat1 else ("bipolar" if compat2 else None)

    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "feasibility.json"), {
        "classical_margin": classical_fit.eps_star,
        "bipolar_margin": bipolar_fit.eps_star,
        "classical_binding": list(classical_fit.binding),
        "bipolar_binding": list(bipolar_fit.binding),
        "mode": chosen,
        "policy": args.mode,
        "delta_strict": args.delta_strict,
        "compatible": chosen is not None,
    })
    if chosen is None:
        print(
            "no compatible model: classical margin "
            f"{classical_fit.eps_star}, bipolar margin {bipolar_fit.eps_star}",
            file=sys.stderr,
        )
        for label, fit in (("classical", classical_fit), ("bipolar", bipolar_fit)):
            for origin in fit.binding:
                print(f"  {label} binding: {origin}", file=sys.stderr)
        return 2

    system = classical_system if chosen == "classical" else full_system
    try:
        polytope = build_polytope(system, args.delta_strict)
        batch = hit_and_run(polytope, config)
    except (RuntimeError, ValueError) as exc:  # InfeasibleSystemError included
        print(f"error: sampling failed: {exc}", file=sys.stderr)
        return 2

    batch.save(os.path.join(args.out, "samples.bin"))
    results = aggregate(table, batch, mode=chosen, polytope=polytope)
    report = results_to_dict(results)
    if "json" in formats:
        _write_json(os.path.join(args.out, "smaa_report.json"), report)
    if "text" in formats:
        with open(os.path.join(args.out, "smaa_report.txt"), "w", encoding="utf-8") as fh:
            fh.write(render_text(report))
            fh.write("\n")
    if "csv" in formats:
        with open(os.path.join(args.out, "smaa_report.csv"), "w", encoding="utf-8") as fh:
            fh.write(render_csv(report))

    if args.exact_ror:
        ror = validate_against_exact_ror(results, system, table, strict=False)
        ror["alternatives"] = list(table.alternatives)
        _write_json(os.path.join(args.out, "ror_report.json"), ror)

    print(
        f"mode={chosen} margin={polytope.eps_star:.6g} "
        f"samples={batch.sample_count} out={args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
