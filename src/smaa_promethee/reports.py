"""Deterministic rendering of aggregation results.

Frequencies are rounded once, to percentages with 3 decimals, and that
rounded value is what every format carries: a number printed in the text
or CSV table re-parses to exactly the number stored in the JSON report.
Parameter vectors round to 6 decimals under the same contract. Nothing
here depends on time, locale or dict iteration order.

The sections are declared once, in ``_SECTIONS``: each entry gives a
report key, the ``SmaaResults`` field it comes from, its text title, the
kinds of its row and column labels and of its cells. ``results_to_dict``,
``render_text`` and ``render_csv`` are each one loop over that table, so
the JSON, text and CSV reports carry the same sections in the same order.

Each matrix is rounded in one numpy pass that reproduces Python's
``round`` (only cells next to a decimal tie go through ``round`` itself),
and each format is built with one join per matrix or list rather than one
call per cell. ``to_json`` is the one JSON writer of the command line: it
gives exactly the text of ``json.dump(payload, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import csv
import functools
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


# key, SmaaResults field, text title, row labels, column labels, cells.
# Labels: "alternatives", "ranks" (r1..rm), "parameters", "central" (the
# alternatives that have a central vector) or "all" (one row). Cells:
# "pct" and "param" numbers, or "flag" booleans.
_SECTIONS = (
    ("rank_acceptability_pct", "rank_acceptability", "Rank acceptability (%)",
     "alternatives", "ranks", "pct"),
    ("p2_preference_pct", "p2_pref", "Complete-ranking preference frequency (%)",
     "alternatives", "alternatives", "pct"),
    ("p2_indifference_pct", "p2_indiff", "Complete-ranking indifference frequency (%)",
     "alternatives", "alternatives", "pct"),
    ("p1_preference_pct", "p1_pref", "Partial-order preference frequency (%)",
     "alternatives", "alternatives", "pct"),
    ("p1_indifference_pct", "p1_indiff", "Partial-order indifference frequency (%)",
     "alternatives", "alternatives", "pct"),
    ("p1_incomparability_pct", "p1_incomp", "Partial-order incomparability frequency (%)",
     "alternatives", "alternatives", "pct"),
    ("central_weights", "central_weights",
     "Central parameter vectors (means of rank-1 samples)", "central", "parameters", "param"),
    ("barycenter", "barycenter", "Barycenter of the sampled polytope",
     "all", "parameters", "param"),
    ("ror_possible_approx", "ror_possible_approx", "Outranking possible (sampled estimate)",
     "alternatives", "alternatives", "flag"),
    ("ror_necessary_approx", "ror_necessary_approx", "Outranking necessary (sampled estimate)",
     "alternatives", "alternatives", "flag"),
)
_DECIMALS = {"pct": PCT_DECIMALS, "param": PARAM_DECIMALS}


def _cells(kind: str, value) -> list | dict:
    """A result array, or a dict of them, as the nested lists the reports carry."""
    if isinstance(value, dict):
        return {name: _cells(kind, vector) for name, vector in value.items()}
    if kind == "flag":
        return value.tolist()
    return _pct_matrix(value) if kind == "pct" else _rounded(value, PARAM_DECIMALS)


def results_to_dict(results: SmaaResults) -> dict:
    return {"mode": results.mode, "sample_count": results.sample_count,
            "alternatives": list(results.alternatives), "parameters": list(results.columns),
            **{key: _cells(kind, getattr(results, field))
               for key, field, _, _, _, kind in _SECTIONS}}


def _tables(report: dict):
    """Each section of ``report`` as (section, row labels, column labels, rows)."""
    alts = report["alternatives"]
    labels = {"alternatives": alts, "parameters": report["parameters"],
              "ranks": [f"r{r}" for r in range(1, len(alts) + 1)], "all": ["all"]}
    for section in _SECTIONS:
        key, _, _, rows, cols, _ = section
        value = report[key]
        if rows == "central":
            labels[rows] = [name for name in alts if name in value]
            value = [value[name] for name in labels[rows]]
        yield section, labels[rows], labels[cols], [value] if rows == "all" else value


def _block(title: str, row_labels: list[str], col_labels: list[str], rows,
           decimals: int | None) -> list[str]:
    """A titled table of numbers with ``decimals`` places, or of booleans
    as ``.``/``X`` when ``decimals`` is None."""
    width = max(6 if decimals is None else 10, max(map(len, col_labels)) + 2)
    label_w = max(map(len, row_labels)) + 2
    # printf-style "%-Ns" and "%N.Df" lay out exactly as the format specs
    # "<N" and ">N.Df" do, and apply faster; booleans index padded cells
    cell = "%s" if decimals is None else f"%{width}.{decimals}f"
    if decimals is None:
        padded = (".".rjust(width), "X".rjust(width))
        rows = ([padded[v] for v in row] for row in rows)
    fmt = f"%-{label_w}s" + cell * len(col_labels)
    return [title, " " * label_w + "".join(f"{c:>{width}}" for c in col_labels),
            *(fmt % (label, *row) for label, row in zip(row_labels, rows)), ""]


def render_text(report: dict) -> str:
    lines = [f"SMAA report  mode={report['mode']}  samples={report['sample_count']}", ""]
    for (_, _, title, _, _, kind), row_labels, col_labels, rows in _tables(report):
        if row_labels:
            lines += _block(title, row_labels, col_labels, rows, _DECIMALS.get(kind))
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
    writes as ``str(value)``. Each label is quoted once, and the
    "row,col," keys are built once per pair of label lists.
    """
    quote = functools.cache(_csv_field)
    keys: dict[tuple[str, str], list[str]] = {}
    out = ["section,row,col,value\n"]
    for (key, _, _, rows, cols, _), row_labels, col_labels, cells in _tables(report):
        if (rows, cols) not in keys:
            quoted = list(map(quote, col_labels))
            keys[rows, cols] = [f"{r},{c}," for r in map(quote, row_labels) for c in quoted]
        if keys[rows, cols]:
            lead = f"{_csv_field(key)},"
            lines = map(str.__add__, keys[rows, cols], map(str, chain.from_iterable(cells)))
            out.append(lead + f"\n{lead}".join(lines) + "\n")
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
