"""Deterministic rendering of aggregation results.

Frequencies are rounded once, to percentages with 3 decimals, and that
rounded value is what every format carries: a number printed in the text
or CSV table re-parses to exactly the number stored in the JSON report.
Parameter vectors round to 6 decimals under the same contract. Nothing
here depends on time, locale or dict iteration order.

Each matrix is rounded in one numpy pass that reproduces Python's
``round`` (only cells next to a decimal tie go through ``round`` itself),
and each format is built with one join per matrix or list rather than one
call per cell. ``to_json`` is the one JSON writer of the command line: it
gives exactly the text of ``json.dump(payload, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain

import numpy as np

from .smaa import SmaaResults

__all__ = ["results_to_dict", "render_text", "render_csv", "to_json"]

PCT_DECIMALS = 3
PARAM_DECIMALS = 6

# a scaled value this close to k + 0.5 may round either way in floating
# point, so it goes through Python's correctly rounded ``round``
_TIE_BAND = 1e-6
# below this magnitude the scaled product errs by under 1.2e-7 < _TIE_BAND;
# larger and non-finite values go through ``round`` as well
_SCALED_LIMIT = 2.0**30


def _rounded(values, decimals: int) -> list:
    """``round(float(v), decimals)`` for every entry, as nested lists.

    ``rint(v * 10**decimals) / 10**decimals`` picks the same integer as
    Python's correctly rounded ``round`` unless the product sits next to a
    .5 tie (or is too large to tell), and dividing that integer gives the
    nearest double to the decimal, which is what ``round`` returns.
    """
    values = np.asarray(values, dtype=np.float64)
    scale = 10.0**decimals
    scaled = values * scale
    out = np.rint(scaled) / scale
    with np.errstate(invalid="ignore"):
        near_tie = np.abs(scaled - np.floor(scaled) - 0.5) < _TIE_BAND
        exact = near_tie | ~(np.abs(scaled) < _SCALED_LIMIT)
    out[exact] = [round(v, decimals) for v in values[exact].tolist()]
    return out.tolist()


def _pct_matrix(mat: np.ndarray) -> list[list[float]]:
    return _rounded(np.asarray(mat, dtype=np.float64) * 100.0, PCT_DECIMALS)


def results_to_dict(results: SmaaResults) -> dict:
    alts = list(results.alternatives)
    central = {}
    for name in alts:
        if name in results.central_weights:
            central[name] = _rounded(results.central_weights[name], PARAM_DECIMALS)
    return {
        "mode": results.mode,
        "sample_count": results.sample_count,
        "alternatives": alts,
        "parameters": list(results.columns),
        "rank_acceptability_pct": _pct_matrix(results.rank_acceptability),
        "p2_preference_pct": _pct_matrix(results.p2_pref),
        "p2_indifference_pct": _pct_matrix(results.p2_indiff),
        "p1_preference_pct": _pct_matrix(results.p1_pref),
        "p1_indifference_pct": _pct_matrix(results.p1_indiff),
        "p1_incomparability_pct": _pct_matrix(results.p1_incomp),
        "central_weights": central,
        "barycenter": _rounded(results.barycenter, PARAM_DECIMALS),
        "ror_possible_approx": results.ror_possible_approx.tolist(),
        "ror_necessary_approx": results.ror_necessary_approx.tolist(),
    }


def _matrix_block(title: str, row_labels: list[str], col_labels: list[str],
                  rows: list[list[float]], decimals: int) -> list[str]:
    width = max(10, max(len(c) for c in col_labels) + 2)
    label_w = max(len(r) for r in row_labels) + 2
    # printf-style "%-Ns" and "%N.Df" lay out exactly as the format specs
    # "<N" and ">N.Df" do, and apply faster
    fmt = f"%-{label_w}s" + f"%{width}.{decimals}f" * len(col_labels)
    lines = [title]
    lines.append(" " * label_w + "".join(f"{c:>{width}}" for c in col_labels))
    lines += [fmt % (label, *row) for label, row in zip(row_labels, rows)]
    lines.append("")
    return lines


def render_text(report: dict) -> str:
    alts = report["alternatives"]
    params = report["parameters"]
    ranks = [f"r{r}" for r in range(1, len(alts) + 1)]
    lines: list[str] = [
        f"SMAA report  mode={report['mode']}  samples={report['sample_count']}",
        "",
    ]
    lines += _matrix_block(
        "Rank acceptability (%)", alts, ranks,
        report["rank_acceptability_pct"], PCT_DECIMALS,
    )
    for title, key in (
        ("Complete-ranking preference frequency (%)", "p2_preference_pct"),
        ("Complete-ranking indifference frequency (%)", "p2_indifference_pct"),
        ("Partial-order preference frequency (%)", "p1_preference_pct"),
        ("Partial-order indifference frequency (%)", "p1_indifference_pct"),
        ("Partial-order incomparability frequency (%)", "p1_incomparability_pct"),
    ):
        lines += _matrix_block(title, alts, alts, report[key], PCT_DECIMALS)
    central_rows = [report["central_weights"][a] for a in alts
                    if a in report["central_weights"]]
    central_labels = [a for a in alts if a in report["central_weights"]]
    if central_rows:
        lines += _matrix_block(
            "Central parameter vectors (means of rank-1 samples)",
            central_labels, params, central_rows, PARAM_DECIMALS,
        )
    lines += _matrix_block(
        "Barycenter of the sampled polytope", ["all"], params,
        [report["barycenter"]], PARAM_DECIMALS,
    )

    def grid(title: str, matrix: list[list[bool]]) -> list[str]:
        width = max(6, max(len(c) for c in alts) + 2)
        label_w = max(len(r) for r in alts) + 2
        cell = (".".rjust(width), "X".rjust(width))
        out = [title, " " * label_w + "".join(f"{c:>{width}}" for c in alts)]
        out += [f"{label:<{label_w}}" + "".join(map(cell.__getitem__, row))
                for label, row in zip(alts, matrix)]
        out.append("")
        return out

    lines += grid("Outranking possible (sampled estimate)",
                  report["ror_possible_approx"])
    lines += grid("Outranking necessary (sampled estimate)",
                  report["ror_necessary_approx"])
    return "\n".join(lines)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row (QUOTE_MINIMAL)."""
    buf = io.StringIO()
    # a second field, so an empty label is not quoted as a lone empty row
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def render_csv(report: dict) -> str:
    """Long-format CSV: section, row label, column label, value.

    Values are numbers or booleans, which ``csv.writer`` never quotes and
    writes as ``str(value)``; labels are quoted once each.
    """
    alts = list(map(_csv_field, report["alternatives"]))
    params = list(map(_csv_field, report["parameters"]))
    ranks = [f"r{r}" for r in range(1, len(alts) + 1)]
    out = ["section,row,col,value\n"]

    def keys(row_labels, col_labels) -> list[str]:
        return [f"{row},{col}," for row in row_labels for col in col_labels]

    def emit(section: str, cell_keys: list[str], rows) -> None:
        if cell_keys:
            lead = f"{_csv_field(section)},"
            cells = map(str.__add__, cell_keys, map(str, chain.from_iterable(rows)))
            out.append(lead + f"\n{lead}".join(cells) + "\n")

    pairs = keys(alts, alts)
    emit("rank_acceptability_pct", keys(alts, ranks), report["rank_acceptability_pct"])
    for key in ("p2_preference_pct", "p2_indifference_pct", "p1_preference_pct",
                "p1_indifference_pct", "p1_incomparability_pct"):
        emit(key, pairs, report[key])
    central = [(label, report["central_weights"][name])
               for name, label in zip(report["alternatives"], alts)
               if name in report["central_weights"]]
    emit("central_weights", keys([label for label, _ in central], params),
         [vec for _, vec in central])
    emit("barycenter", keys(["all"], params), [report["barycenter"]])
    for key in ("ror_possible_approx", "ror_necessary_approx"):
        emit(key, pairs, report[key])
    return "".join(out)


def _json_text(value, newline: str) -> str:
    """One value of ``to_json`` whose lines continue with ``newline``."""
    inner = newline + "  "
    sep = "," + inner
    if type(value) is list and value:
        kinds = set(map(type, value))
        if kinds == {float}:
            text = sep.join(map(float.__repr__, value))
            # NaN and infinities are the only reprs with an "n"; JSON spells
            # them differently, so such a list takes the general path below
            if "n" not in text:
                return "[" + inner + text + newline + "]"
        if kinds == {bool}:
            cells = map(("false", "true").__getitem__, value)
        else:
            cells = (_json_text(v, inner) for v in value)
        return "[" + inner + sep.join(cells) + newline + "]"
    if type(value) is dict and value and all(type(k) is str for k in value):
        cells = (json.dumps(k) + ": " + _json_text(v, inner)
                 for k, v in sorted(value.items()))
        return "{" + inner + sep.join(cells) + newline + "}"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def to_json(payload) -> str:
    """Exactly the text of ``json.dump(payload, indent=2, sort_keys=True)``.

    Lists of plain floats or of bools are written with one join each;
    everything else, strings, ``None`` and non-finite floats included, is
    written by ``json.dumps`` itself.
    """
    return _json_text(payload, "\n")
