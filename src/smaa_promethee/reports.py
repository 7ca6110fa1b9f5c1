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
The percentage and flag matrices of every format are then written as
bytes, with no Python string per cell. Every percentage the rounding
makes is the double nearest k / 1000 for an integer 0 <= k <= 100,000,
so ``rint(cell * 1000)`` gives k back exactly, and two lookups in small
digit tables spell the cell from k: as ``repr`` and ``str`` do (the
integer part, a point and the three decimals less their trailing zeros,
one kept) or as ``"%{width}.3f"`` does (all three decimals,
right-aligned in blanks). Labels, separators and indents stand beside
the digits in fixed-width columns padded with a byte that UTF-8 never
emits, and deleting the pad bytes leaves the text. A cell that is no
such k (NaN, an infinity, -0.0, a value off the grid, above 100 or
below 0) is formatted by Python as before and written into the same
array. The parameter vectors are short and keep one join per vector.
``to_json`` is the one JSON writer of the command line: it gives exactly
the text of ``json.dump(payload, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
from itertools import chain, groupby

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


# Byte assembly. The rows of the report matrices are written as uint8
# arrays with one row of bytes per matrix row, each part of the text in
# a fixed-width column padded with _PAD, a byte that UTF-8 never emits.
# Deleting every pad byte leaves the text itself.
_PAD = 0xFF
# ends the bytes of a matrix's last row; like _PAD, UTF-8 never emits it
_END = 0xFE
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


def _thousandths(values: np.ndarray, width: int, fallback) -> np.ndarray:
    """The text of each value, one row of a padded byte array.

    Every percentage ``_pct_matrix`` makes is the double nearest k / 1000
    for an integer 0 <= k <= 100,000, and ``rint(value * 1000)`` gives k
    back. Such a value is spelled from k: as ``repr`` spells it when
    ``width`` is 0 (the integer part, a point and the three decimals less
    their trailing zeros, one kept), else as ``"%{width}.3f"`` does (all
    three decimals, right-aligned in blanks; ``width`` >= 8). Every other
    value (non-finite, -0.0, above 100, negative or off the grid) is
    spelled by ``fallback``.
    """
    k = np.rint(values * 1000.0)
    # as unsigned integers, the bits of the doubles 0.0 to 100.0 lie below
    # those of 100.0, and those of negatives, -0.0, NaN and infinities above
    exact = (k / 1000.0 == values) & (values.view(np.uint64) <= _HUNDRED)
    # an inexact value is spelled as 0 here and overwritten below
    k = np.where(exact, k, 0.0).astype(np.intp)
    whole_words, decimal_words = _digit_words(width > 0)
    whole, part = np.divmod(k, 1000)
    words = np.take(whole_words, whole)
    words |= np.take(decimal_words, part)
    # the spelled word holds 8 bytes; whole words of blanks before it
    # hold the other width - 8
    blanks = max(width - 8, 0)
    lead = -(-blanks // 8)
    if lead:
        out = np.empty((len(k), lead + 1), np.uint64)
        out[:, :lead] = np.frombuffer((b" " * blanks).rjust(8 * lead, b"\xff"), np.uint64)
        out[:, lead] = words
        words = out
    out = words.view(np.uint8).reshape(len(k), 8 * (lead + 1))
    if not exact.all():
        inexact = np.flatnonzero(~exact)
        texts = _padded([fallback(v) for v in values[inexact].tolist()])
        if texts.shape[1] > out.shape[1]:
            out = np.concatenate([out, np.full((len(out), texts.shape[1] - out.shape[1]),
                                               _PAD, np.uint8)], axis=1)
        out[inexact] = _PAD
        out[inexact, :texts.shape[1]] = texts
    return out


def _assemble(matrices: list, spell, frame) -> list[str]:
    """The text of each matrix of ``matrices``, a list of (rows, key)
    pairs, ``key[0]`` the kind of its cells as ``_values`` takes it.

    The rows of all matrices are written in turn, each run of rows with
    one key and one length n in blocks of whole rows. A block is one
    uint8 array with a row of bytes per matrix row: its head, each cell,
    its tail, and after the last row of a matrix an _END byte.
    ``spell(key, values)`` gives the text of the cells ``values``, one
    row of a byte array per cell. ``frame(key, n, t, i)`` gives the rest
    from each row's matrix t and its index i in the matrix, as four lists
    of byte arrays: the heads (a row each), what goes before and after
    each cell's text (broadcast to (rows, n, width)) and the tails. One
    block may hold the rows of several small matrices; cutting the text
    at each _END parts them.
    """
    rows = [row for table, _ in matrices for row in table]
    heights = np.array([len(table) for table, _ in matrices], np.intp)
    table_of = np.repeat(np.arange(len(matrices)), heights)
    row_in = np.arange(len(rows)) - np.repeat(np.cumsum(heights) - heights, heights)
    ends = np.where(row_in == heights[table_of] - 1, _END, _PAD).astype(np.uint8)[:, None]
    texts, current, top = [], [], 0
    for (key, n), group in groupby((key, len(row)) for table, key in matrices for row in table):
        end = top + sum(1 for _ in group)
        step = max(1, _BLOCK_CELLS // max(n, 1))
        for a in range(top, end, step):
            b = min(a + step, end)
            cells = spell(key, _values(rows[a:b], key[0]))
            cells = cells.reshape(b - a, n, cells.shape[-1])
            head, before, after, tail = frame(key, n, table_of[a:b], row_in[a:b])
            around, tail = [*before, cells, *after], [*tail, ends[a:b]]
            head_w = sum(part.shape[-1] for part in head)
            cell_w = sum(part.shape[-1] for part in around)
            text = np.empty((b - a, head_w + n * cell_w + sum(part.shape[-1] for part in tail)),
                            np.uint8)
            _side_by_side(text[:, :head_w], head)
            # a (rows, n, cell width) view of the cells' bytes
            _side_by_side(text[:, head_w:head_w + n * cell_w].reshape(b - a, n, cell_w), around)
            _side_by_side(text[:, head_w + n * cell_w:], tail)
            *done, rest = text.tobytes().translate(None, b"\xff").split(b"\xfe")
            for piece in done:
                texts.append(b"".join([*current, piece]).decode())
                current = []
            current.append(rest)
        top = end
    texts = iter(texts)
    return [next(texts) if height else "" for height in heights.tolist()]


def _kind(rows) -> str:
    """"float" or "bool" when every cell of ``rows`` is one, else "other"."""
    types = set(map(type, chain.from_iterable(rows)))
    return "float" if types == {float} else "bool" if types == {bool} else "other"


def _values(rows, kind: str):
    """The cells of ``rows``, flat: a float64 or bool array for those
    kinds, else a list of the cells."""
    cells = chain.from_iterable(rows)
    if kind == "other":
        return list(cells)
    return np.fromiter(cells, np.float64 if kind == "float" else bool)


def _typed_spelling(fallback, bools: tuple[str, str]):
    """``spell`` for cells spelled by their type: floats as ``repr``,
    booleans as ``bools``, and every other cell, and a non-finite float,
    by ``fallback``."""
    table = _padded(bools)

    def spell_float(value: float) -> str:
        return float.__repr__(value) if math.isfinite(value) else fallback(value)

    def spell(key: tuple, values) -> np.ndarray:
        kind = key[0]
        if kind == "float":
            return _thousandths(values, 0, spell_float)
        if kind == "bool":
            return np.take(table, values.view(np.uint8), axis=0)
        return _padded(map(fallback, values))
    return spell


# the cells of the CSV report as ``str`` writes them, of the JSON one as
# ``json.dumps`` does
_CSV_SPELLING = _typed_spelling(str, ("False", "True"))
_JSON_SPELLING = _typed_spelling(json.dumps, ("false", "true"))


def _matrix_sections(tables: list) -> list:
    """The percentage and flag sections with a row among ``tables``; the
    parameter sections are left to the renderers' per-row code."""
    return [(section, row_labels, col_labels, rows)
            for section, row_labels, col_labels, rows in tables
            if section[5] != "param" and row_labels]


@functools.cache
def _marks(width: int) -> np.ndarray:
    """A flag cell of the text report, false and true, ``width`` wide."""
    return _padded((".".rjust(width), "X".rjust(width)))


def _header(title: str, label_w: int, col_labels: list[str], width: int) -> str:
    return f"{title}\n" + " " * label_w + "".join(f"{c:>{width}}" for c in col_labels) + "\n"


def render_text(report: dict) -> str:
    tables = list(_tables(report))
    # each matrix as (rows, (kind of its cells, column width))
    matrices = [(rows, ("float" if kind == "pct" else "bool",
                        max(10 if kind == "pct" else 6, max(map(len, cols)) + 2)))
                for (*_, kind), _, cols, rows in _matrix_sections(tables)]
    label_w = max(map(len, report["alternatives"]), default=0) + 2
    labels = _padded([f"{label:<{label_w}}" for label in report["alternatives"]])
    newline = np.full((1, 1), ord("\n"), np.uint8)

    def spell(key, values):
        kind, width = key
        if kind == "float":
            return _thousandths(values, width, lambda v: f"%{width}.3f" % v)
        return np.take(_marks(width), values.view(np.uint8), axis=0)

    def frame(key, n, t, i):
        return [np.take(labels, i, axis=0)], [], [], [newline]

    texts = zip(_assemble(matrices, spell, frame), (width for _, (_, width) in matrices))
    blocks = []
    for (_, _, title, _, _, kind), row_labels, col_labels, rows in tables:
        if not row_labels:
            continue
        if kind != "param":
            text, width = next(texts)
            blocks.append(_header(title, label_w, col_labels, width) + text)
            continue
        width = max(10, max(map(len, col_labels)) + 2)
        row_w = max(map(len, row_labels)) + 2
        # printf-style "%-Ns" and "%N.Df" lay out exactly as the format
        # specs "<N" and ">N.Df" do, and apply faster
        fmt = f"%-{row_w}s" + f"%{width}.{PARAM_DECIMALS}f" * len(col_labels) + "\n"
        blocks.append(_header(title, row_w, col_labels, width)
                      + "".join(fmt % (label, *row) for label, row in zip(row_labels, rows)))
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
    tables = list(_tables(report))
    matrices = _matrix_sections(tables)
    # "section,row," of every row label and "col," of every column label
    # of every matrix; a matrix's row labels start at its entry in firsts
    keys = _padded([f"{quote(key)},{quote(label)},"
                    for (key, *_), row_labels, _, _ in matrices for label in row_labels])
    heights = [len(row_labels) for _, row_labels, _, _ in matrices]
    firsts = np.cumsum(heights, dtype=np.intp) - heights
    width = max((len(cols) for _, _, cols, _ in matrices), default=0)
    columns = _padded([text for _, _, cols, _ in matrices
                       for text in [quote(c) + "," for c in cols] + [""] * (width - len(cols))])
    columns = columns.reshape(len(matrices), width, -1)
    newline = np.full((1, 1, 1), ord("\n"), np.uint8)

    def frame(key, n, t, i):
        return ([], [np.take(keys, firsts[t] + i, axis=0)[:, None],
                     np.take(columns, t, axis=0)[:, :n]], [newline], [])

    texts = iter(_assemble([(rows, (_kind(rows),)) for *_, rows in matrices],
                           _CSV_SPELLING, frame))
    out = ["section,row,col,value\n"]
    for (key, *_, kind), row_labels, col_labels, rows in tables:
        if not row_labels:
            continue
        if kind != "param":
            out.append(next(texts))
            continue
        quoted = list(map(quote, col_labels))
        keys = [f"{r},{c}," for r in map(quote, row_labels) for c in quoted]
        if keys:
            lead = f"{quote(key)},"
            lines = map(str.__add__, keys, map(str, chain.from_iterable(rows)))
            out.append(lead + f"\n{lead}".join(lines) + "\n")
    return "".join(out)


def _json_frame(newlines: list[str]):
    """``frame`` for the matrices of ``to_json`` whose lines continue with
    ``newlines``, one each.

    A row opens with its bracket on a line of its own, after a comma on
    every row but the first, and closes with one. Each cell stands on a
    line of its own, after a comma unless it is the first of its row.
    """
    heads, indents, tails = [], [], []
    for newline in newlines:
        inner = newline + "  "
        heads += [inner + "[", "," + inner + "["]
        indents.append(inner + "  ")
        tails.append(inner + "]")
    heads, indents, tails = _padded(heads), _padded(indents), _padded(tails)

    def frame(key, n, t, i):
        commas = np.full((1, n, 1), ord(","), np.uint8)
        commas[:, :1] = _PAD
        return ([np.take(heads, 2 * t + (i > 0), axis=0)],
                [commas, np.take(indents, t, axis=0)[:, None]], [],
                [np.take(tails, t, axis=0)])
    return frame


def _json_parts(value, newline: str, parts: list, matrices: list) -> None:
    """Append the text of ``value``, whose lines continue with ``newline``,
    to ``parts``. A matrix, a list of lists of floats or of booleans, is
    appended as a None to be filled in, and recorded in ``matrices`` as
    its rows, the type of its cells and its newline."""
    inner = newline + "  "
    sep = "," + inner
    # an empty matrix, or one with an empty row, is json.dumps's to write
    if type(value) is list and value and all(type(row) is list and row for row in value):
        kind = _kind(value)
        if kind != "other":
            matrices.append((value, kind, newline))
            parts.append(None)
            return
    if type(value) is list and value:
        kinds = set(map(type, value))
        if kinds == {float}:
            text = sep.join(map(float.__repr__, value))
            # NaN and infinities are the only reprs with an "n"; JSON spells
            # them differently, so such a list takes the general path below
            if "n" not in text:
                parts.append("[" + inner + text + newline + "]")
                return
        if kinds == {bool}:
            parts.append("[" + inner + sep.join(map(("false", "true").__getitem__, value))
                         + newline + "]")
            return
        parts.append("[")
        for n, item in enumerate(value):
            parts.append(sep if n else inner)
            _json_parts(item, inner, parts, matrices)
        parts.append(newline + "]")
        return
    if type(value) is dict and value and all(type(k) is str for k in value):
        parts.append("{")
        for n, (k, item) in enumerate(sorted(value.items())):
            parts.append((sep if n else inner) + json.dumps(k) + ": ")
            _json_parts(item, inner, parts, matrices)
        parts.append(newline + "}")
        return
    parts.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


def to_json(payload) -> str:
    """Exactly the text of ``json.dump(payload, indent=2, sort_keys=True)``.

    The matrices (the report's, and any list of lists of floats or of
    booleans) are written by one byte assembly; a list of plain floats or
    of booleans is written with one join; everything else, non-finite
    floats included, is written by ``json.dumps``.
    """
    parts, matrices = [], []
    _json_parts(payload, "\n", parts, matrices)
    newlines = [newline for _, _, newline in matrices]
    texts = iter(_assemble([(rows, (kind,)) for rows, kind, _ in matrices], _JSON_SPELLING,
                           _json_frame(newlines)))
    newlines = iter(newlines)
    return "".join(part if part is not None else "[" + next(texts) + next(newlines) + "]"
                   for part in parts)
