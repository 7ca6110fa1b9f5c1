"""End-to-end pipeline: load, check compatibility, sample, aggregate, report.

Model escalation follows the simplest-first rule: in auto mode the
weights-only model is tried first and the bipolar one only when the
classical margin is not strictly positive. Exit codes: 0 success, 1 bad
input, 2 no compatible model at the requested margin, or an LP or the
sampling failed (a sample array that cannot be allocated included). An
output directory that cannot be written is bad input.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bipolar import EnumerationCapError
from .elicitation import compile_statements, parse_statements, restrict_classical
from .lp import FEASIBILITY_TOL, max_epsilon
from .model import load_problem
from .reports import render_csv, render_text, results_to_dict, to_json
from .sampler import SampleStream, SamplerConfig, build_polytope, sample_file
from .smaa import Tally, validate_against_exact_ror

__all__ = ["main"]

# a margin this close to zero does not certify strict compatibility
COMPATIBILITY_TOL = 1e-9

# report format -> (file under --out, its text); the writers are looked up
# in this module when a report is written, so wrappers put on these names
# see every call
_REPORTS = {
    "json": ("smaa_report.json", lambda report: to_json(report) + "\n"),
    "text": ("smaa_report.txt", lambda report: render_text(report) + "\n"),
    "csv": ("smaa_report.csv", lambda report: render_csv(report)),
}


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
    parser.add_argument("--seed", type=int, default=0,
                        help="sampler seed, an integer in [0, 2**64)")
    parser.add_argument("--mode", choices=("auto", "classical", "bipolar"),
                        default="auto", help="model policy (auto escalates)")
    parser.add_argument("--exact-ror", action="store_true",
                        help="also solve the exact outranking programs per pair")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", default=",".join(_REPORTS),
                        help=f"comma-separated report formats ({','.join(_REPORTS)})")
    parser.add_argument("--delta-strict", type=float, default=0.0,
                        help="margin enforced on strict rows while sampling")
    parser.add_argument("--burn-in", type=int, default=None,
                        help="steps discarded at the start of each chain "
                             "(default: 20 per dimension of the sampled polytope)")
    parser.add_argument("--thin", type=int, default=1,
                        help="keep every n-th step of each chain")
    return parser


# characters encoded and written at once, so a report's text is not held a
# second time as one bytes object
_WRITE_CHARS = 1 << 20


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(text), _WRITE_CHARS):
            fh.write(text[start:start + _WRITE_CHARS])


def _write_json(path: str, payload) -> None:
    _write(path, to_json(payload) + "\n")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    formats = tuple(f.strip() for f in args.format.split(",") if f.strip())
    bad = [f for f in formats if f not in _REPORTS]
    if bad or not formats:
        print(f"error: unknown report formats {bad or args.format!r}", file=sys.stderr)
        return 1
    try:
        # NaN is not negative, and neither it nor inf is a margin
        if not 0.0 <= args.delta_strict < float("inf"):
            raise ValueError(f"--delta-strict must be finite and >= 0, got {args.delta_strict}")
        config = SamplerConfig(
            sample_count=args.samples, burn_in=args.burn_in,
            thinning=args.thin, seed=args.seed,
        )
        table = load_problem(args.problem)
        statements = parse_statements(args.statements)
        full_system = compile_statements(table, statements)
    except EnumerationCapError as exc:
        print(f"error: {args.problem}: {exc.criteria} criteria exceed the "
              f"enumeration cap of {exc.cap}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # the inputs are read by now, so an OSError is a write under --out
    try:
        return _run(args, formats, config, table, full_system)
    except OSError as exc:
        print(f"error: cannot write output to {args.out}: {exc}", file=sys.stderr)
        return 1


def _run(args, formats, config, table, full_system) -> int:
    """Choose the model, sample, aggregate and write the reports."""
    classical_system = restrict_classical(full_system)

    try:
        classical_fit = max_epsilon(classical_system)
        bipolar_fit = max_epsilon(full_system)
    except RuntimeError as exc:
        print(f"error: margin LP failed: {exc}", file=sys.stderr)
        return 2
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

    system, fit = ((classical_system, classical_fit) if chosen == "classical"
                   else (full_system, bipolar_fit))
    # the chosen model's margin LP is the one verdict on the strict margin:
    # build_polytope solves none
    if fit.eps_star < args.delta_strict - FEASIBILITY_TOL:
        message = f"best attainable margin {fit.eps_star:.6g} is below the requested one"
        if fit.binding:
            message += "; binding rows: " + "; ".join(fit.binding)
        print(f"error: sampling failed: {message}", file=sys.stderr)
        return 2
    try:
        polytope = build_polytope(system, args.delta_strict)
        stream = SampleStream(polytope, config)
        shape = (stream.sample_count, len(stream.columns))
        size = shape[0] * shape[1] * 8
        target = os.path.join(args.out, "samples.bin")
        room = os.statvfs(args.out)
        free = room.f_bavail * room.f_frsize
        # the blocks of a previous run's samples, which sample_file's
        # truncation frees, are room too
        if os.path.isfile(target):
            free += os.stat(target).st_blocks * 512
        # checked before the first step: a file system may accept a sparse
        # file of any length and fail only once the chain has filled it
        if size > free:
            raise RuntimeError(f"samples of shape {shape} take {size} bytes, "
                               f"more than the {free} free under {args.out}")
        tally = Tally(table, stream.columns, chosen)
        with sample_file(target, stream) as write:
            for j0, counts, rows in stream:
                write(j0, counts, rows)
                tally.add(rows)
    # InfeasibleSystemError included; sample_file has removed what it wrote
    except (RuntimeError, ValueError) as exc:
        print(f"error: sampling failed: {exc}", file=sys.stderr)
        return 2

    results = tally.results(polytope)
    report = results_to_dict(results)
    for fmt, (name, render) in _REPORTS.items():
        if fmt in formats:
            _write(os.path.join(args.out, name), render(report))

    if args.exact_ror:
        try:
            ror = validate_against_exact_ror(results, system, table, strict=False)
        except RuntimeError as exc:
            print(f"error: exact ROR failed: {exc}", file=sys.stderr)
            return 2
        ror["alternatives"] = list(table.alternatives)
        _write_json(os.path.join(args.out, "ror_report.json"), ror)

    print(
        f"mode={chosen} margin={fit.eps_star:.6g} "
        f"samples={results.sample_count} out={args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
