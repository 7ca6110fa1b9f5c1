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
``round`` (only cells next to a decimal tie go through ``round`` itself).
One gate, ``_grid``, reads the cells of each matrix: a rectangular
matrix of booleans, or of floats that are each the double nearest
k / 1000 for an integer 0 <= k <= 100,000 (every percentage the
rounding makes is one), is written as bytes, one matrix at a time and
with no Python string per cell. ``rint(cell * 1000)`` gives k back
exactly, and two lookups in small digit tables spell the cell from k:
as ``repr`` and ``str`` do (the integer part, a point and the three
decimals less their trailing zeros, one kept) or as ``"%{width}.3f"``
does (all three decimals, right-aligned in blanks). Labels, separators
and indents stand beside the digits in fixed-width columns padded with
a byte that UTF-8 never emits, and deleting the pad bytes leaves the
text. Every other matrix (the parameter vectors, and a hand-built
matrix that is ragged, mixed or holds another number) is written a row
at a time by Python's own formatting. ``to_json`` is the one JSON
writer of the command line: it gives exactly the text of
``json.dump(payload, indent=2, sort_keys=True)``.
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


# Byte assembly. The rows of a report matrix are written as a uint8
# array with one row of bytes per matrix row, each part of the text in a
# fixed-width column padded with _PAD, a byte that UTF-8 never emits.
# Deleting every pad byte leaves the text itself.
_PAD = 0xFF
# cells assembled at once: bounds the padded arrays to about a megabyte
# (on the m = 100 report, blocks 4 times larger ran about 8% slower)
_BLOCK_CELLS = 1 << 15


def _padded(texts) -> np.ndarray:
    """The UTF-8 of each text as one row of a uint8 array, padded with _PAD."""
    encoded = [text.encode() for text in texts]
    width = max(map(len, encoded), default=0)
    joined = b"".join(raw.ljust(width, b"\xff") for raw in encoded)
    return np.frombuffer(joined, np.uint8).reshape(len(encoded), width)


def _side_by_side(out: np.ndarray, parts: list[np.ndarray]) -> None:
    """Fill the last axis of ``out`` with ``parts``, broadcast, in order."""
    left = 0
    for part in parts:
        out[..., left:left + part.shape[-1]] = part
        left += part.shape[-1]


@functools.cache
def _digit_words(fixed: bool) -> tuple[np.ndarray, np.ndarray]:
    """The two halves of k / 1000 spelled in uint64 words: for k // 1000
    = 0 .. 100 a lead byte, the integer part and a point in bytes 0-4,
    for k % 1000 the three decimals in bytes 5-7. Or'ed together they
    spell k / 1000.

    With ``fixed`` the word is what ``"%8.3f"`` writes: the lead byte and
    the integer part's leading zeros are blanks. Otherwise they are pads,
    and so are the trailing zeros of the decimals but the first, which
    leaves what ``repr`` writes.
    """
    blank = ord(" ") if fixed else _PAD
    n = np.arange(1000)[:, None]
    digits = n // [100, 10, 1] % 10 + ord("0")
    whole = np.zeros((101, 8), np.uint8)
    whole[:, 0] = blank
    whole[:, 1:4] = np.where(n[:101] < [100, 10, 0], blank, digits[:101])
    whole[:, 4] = ord(".")
    decimals = np.zeros((1000, 8), np.uint8)
    decimals[:, 5:] = digits
    if not fixed:
        decimals[:, 6:][n % [100, 10] == 0] = _PAD
    return whole.view(np.uint64).ravel(), decimals.view(np.uint64).ravel()


_HUNDRED = np.float64(100.0).view(np.uint64)


def _grid(rows) -> np.ndarray | None:
    """``rows`` as a float64 or bool array if it is a matrix the byte
    assembly spells, else None.

    That is a non-empty, rectangular list of lists whose cells are all
    ``bool``, or all ``float`` and each the double nearest k / 1000 for an
    integer 0 <= k <= 100,000, which ``rint(value * 1000)`` gives back.
    """
    if type(rows) is not list or not rows or any(type(row) is not list for row in rows):
        return None
    n = len(rows[0])
    if not n or any(len(row) != n for row in rows):
        return None
    types = set(map(type, chain.from_iterable(rows)))
    if types != {float} and types != {bool}:
        return None
    flags = types == {bool}
    values = np.fromiter(chain.from_iterable(rows), bool if flags else np.float64,
                         len(rows) * n).reshape(len(rows), n)
    if flags:
        return values
    # as unsigned integers, the bits of the doubles 0.0 to 100.0 lie below
    # those of 100.0, and those of negatives, -0.0, NaN and infinities above
    exact = (np.rint(values * 1000.0) / 1000.0 == values) & (values.view(np.uint64) <= _HUNDRED)
    return values if exact.all() else None


def _thousandths(values: np.ndarray, width: int) -> np.ndarray:
    """The text of each value, k / 1000 as ``_grid`` admits it, one row of
    a padded byte array: as ``repr`` spells it when ``width`` is 0, else
    as ``"%{width}.3f"`` does (``width`` >= 8)."""
    whole_words, decimal_words = _digit_words(width > 0)
    whole, part = np.divmod(np.rint(values * 1000.0).astype(np.intp), 1000)
    words = np.take(whole_words, whole)
    words |= np.take(decimal_words, part)
    # the spelled word holds 8 bytes; whole words of blanks before it
    # hold the other width - 8
    blanks = max(width - 8, 0)
    lead = -(-blanks // 8)
    if lead:
        out = np.empty((len(words), lead + 1), np.uint64)
        out[:, :lead] = np.frombuffer((b" " * blanks).rjust(8 * lead, b"\xff"), np.uint64)
        out[:, lead] = words
        words = out
    return words.view(np.uint8).reshape(len(values), 8 * (lead + 1))


def _spelling(grid: np.ndarray, width: int, bools: tuple[str, str]):
    """``spell`` for ``_assemble``: the cells of a float grid as
    ``_thousandths`` at ``width``, those of a bool grid as ``bools``."""
    if grid.dtype == bool:
        table = _padded(bools)
        return lambda cells: np.take(table, cells.view(np.uint8), axis=0)
    return lambda cells: _thousandths(cells, width)


def _assemble(values: np.ndarray, spell, head: np.ndarray, before: list, after: list,
              tail: np.ndarray) -> str:
    """The text of the (rows, n) matrix ``values``: each row is its
    ``head``, then every cell's ``before``, its text and its ``after``,
    then its ``tail``.

    ``spell(cells)`` gives the text of a flat array of cells, one row of a
    byte array per cell. ``head`` and ``tail`` are byte arrays with a row
    each; the parts of ``before`` and ``after`` are broadcast to
    (rows, n, width). A part with one row stands in every row. The rows
    are written in blocks of about _BLOCK_CELLS cells.
    """
    height, n = values.shape
    step = max(1, _BLOCK_CELLS // n)
    texts = []
    for top in range(0, height, step):
        block = values[top:top + step]

        def rows(part):
            return part if len(part) == 1 else part[top:top + step]
        around = [*map(rows, before), spell(block.ravel()).reshape(*block.shape, -1),
                  *map(rows, after)]
        cell_w = sum(part.shape[-1] for part in around)
        head_w, middle = head.shape[-1], head.shape[-1] + n * cell_w
        text = np.empty((len(block), middle + tail.shape[-1]), np.uint8)
        text[:, :head_w] = rows(head)
        # a (rows, n, cell width) view of the cells' bytes
        _side_by_side(text[:, head_w:middle].reshape(len(block), n, cell_w), around)
        text[:, middle:] = rows(tail)
        texts.append(text.tobytes().translate(None, b"\xff"))
    return b"".join(texts).decode()


_NOTHING = np.empty((1, 0), np.uint8)
_NEWLINE = np.full((1, 1), ord("\n"), np.uint8)


def _header(title: str, label_w: int, col_labels: list[str], width: int) -> str:
    return f"{title}\n" + " " * label_w + "".join(f"{c:>{width}}" for c in col_labels) + "\n"


def render_text(report: dict) -> str:
    blocks = []
    for (_, _, title, _, _, kind), row_labels, col_labels, rows in _tables(report):
        if not row_labels:
            continue
        width = max(6 if kind == "flag" else 10, max(map(len, col_labels)) + 2)
        row_w = max(map(len, row_labels)) + 2
        marks = (".".rjust(width), "X".rjust(width))
        grid = None if kind == "param" else _grid(rows)
        if grid is not None and (grid.dtype == bool) == (kind == "flag"):
            grid = grid[:len(row_labels)]
            labels = _padded([f"{label:<{row_w}}" for label in row_labels[:len(grid)]])
            body = _assemble(grid, _spelling(grid, width, marks), labels, [], [], _NEWLINE)
        else:
            decimals = PARAM_DECIMALS if kind == "param" else PCT_DECIMALS
            # printf-style "%-Ns" and "%N.Df" lay out exactly as the format
            # specs "<N" and ">N.Df" do, and apply faster
            cell = (lambda v: marks[bool(v)]) if kind == "flag" else f"%{width}.{decimals}f".__mod__
            body = "".join(f"%-{row_w}s" % label + "".join(map(cell, row)) + "\n"
                           for label, row in zip(row_labels, rows))
        blocks.append(_header(title, row_w, col_labels, width) + body)
    head = f"SMAA report  mode={report['mode']}  samples={report['sample_count']}\n\n"
    return head + "\n".join(blocks)


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row (QUOTE_MINIMAL)."""
    buf = io.StringIO()
    # a second field, so an empty label is not quoted as a lone empty row
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def render_csv(report: dict) -> str:
    """Long-format CSV: section, row label, column label, value.

    Values are numbers or booleans, which ``csv.writer`` never quotes and
    writes as ``str(value)``. Each label is quoted once.
    """
    quote = functools.cache(_csv_field)
    out = ["section,row,col,value\n"]
    for (key, *_, kind), row_labels, col_labels, rows in _tables(report):
        lead = f"{quote(key)},"
        grid = None if kind == "param" or not row_labels else _grid(rows)
        if grid is not None:
            grid = grid[:len(row_labels), :len(col_labels)]
            keys = _padded([f"{lead}{quote(label)}," for label in row_labels[:len(grid)]])
            columns = _padded([f"{quote(col)}," for col in col_labels[:grid.shape[1]]])
            out.append(_assemble(grid, _spelling(grid, 0, ("False", "True")), _NOTHING,
                                 [keys[:, None], columns[None]], [_NEWLINE[None]], _NOTHING))
            continue
        quoted = list(map(quote, col_labels))
        out += [f"{lead}{quote(label)},{col},{value}\n"
                for label, row in zip(row_labels, rows) for col, value in zip(quoted, row)]
    return "".join(out)


def to_json(payload) -> str:
    """Exactly the text of ``json.dump(payload, indent=2, sort_keys=True)``.

    Of a dict with text keys, each value that ``_grid`` admits is written
    by the byte assembly and every other value by ``json.dumps``; any
    other payload is ``json.dumps``'s to write whole.
    """
    if type(payload) is not dict or not payload or any(type(k) is not str for k in payload):
        return json.dumps(payload, indent=2, sort_keys=True)
    # a row opens with its bracket on a line of its own, after a comma on
    # every row but the first, and closes with one; each cell stands on a
    # line of its own, after a comma unless it is the first of its row
    opens, indent = _padded(["\n    [", ",\n    ["]), _padded(["\n      "])[None]
    close = _padded(["\n    ]"])
    entries = []
    for key in sorted(payload):
        grid = _grid(payload[key])
        if grid is None:
            text = json.dumps(payload[key], indent=2, sort_keys=True).replace("\n", "\n  ")
        else:
            height, n = grid.shape
            commas = np.full((1, n, 1), ord(","), np.uint8)
            commas[:, :1] = _PAD
            text = "[" + _assemble(grid, _spelling(grid, 0, ("false", "true")),
                                   np.repeat(opens, [1, height - 1], axis=0),
                                   [commas, indent], [], close) + "\n  ]"
        entries.append(f"{json.dumps(key)}: {text}")
    return "{\n  " + ",\n  ".join(entries) + "\n}"
