"""Preference statements and their translation into linear constraints.

A decision maker expresses preferences as statements over alternatives,
criteria or interactions, one JSON object per line. Every statement is a
``Statement`` of a JSON type and its fields; one table gives, per type,
the origin text its rows carry and its fields in order with their kinds
and defaults, and a statement is checked against it when it is built,
whether read from a file or built in code. Each statement becomes one or
more linear rows over the packed bicapacity parameters plus one extra
column for the strict preference margin ``eps``: a kind or sign of I, =
or 0 gives ``expr = 0``, any other ``expr - eps >= 0``. Structural rows
(normalisation, sign conditions, monotonicity) close the system so that
any feasible point is a valid parameter set. A ``ConstraintSystem``
packs its rows once, when built, into the arrays every solver reads, and
its ``excess`` is the one rule by which a point meets them or not.

Sign conventions for interaction and opposing-power statements follow the
itemized statement catalogue; where the summary constraint block differs
from that list, the list wins.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Union

import numpy as np

from .bipolar import (
    ParameterLayout,
    _check_cap,
    _side_pairs,
    bipolar_preference_tensor,
    choquet_coefficients,
    flow_coefficients,
)
from .model import PerformanceTable, _label

__all__ = [
    "Statement",
    "ConstraintRow",
    "ConstraintSystem",
    "parse_statement",
    "parse_statements",
    "compile_statements",
    "restrict_classical",
]


# JSON type name -> (origin text over its fields, its fields in order). A
# field is (name, kind) or (name, kind, default); its kind is _LABEL (an
# alternative, read as text), _CRITERION (a name or 1-based position, kept
# as given), a tuple of the words allowed (read as text) or a one-item list
# of one of these for a pair
_LABEL, _CRITERION = "label", "criterion"
_PI, _GE = ("P", "I"), (">", "=")
_TYPES = {
    "local_pair": ("local_pair {a} {kind} {b}",
                   (("a", _LABEL), ("b", _LABEL), ("kind", _PI, "P"))),
    "global_p1": ("global_p1 {a} {kind} {b}",
                  (("a", _LABEL), ("b", _LABEL), ("kind", _PI, "P"))),
    "global_p2": ("global_p2 {a} {kind} {b}",
                  (("a", _LABEL), ("b", _LABEL), ("kind", _PI, "P"))),
    "intensity": ("intensity ({pair1[0]},{pair1[1]}) {kind} ({pair2[0]},{pair2[1]})",
                  (("pair1", [_LABEL]), ("pair2", [_LABEL]), ("kind", _PI, "P"))),
    "criterion_importance": ("importance {j} {kind} {k}",
                             (("j", _CRITERION), ("k", _CRITERION), ("kind", _GE, ">"))),
    "interaction_sign": ("interaction_sign {j},{k} {sign}",
                         (("j", _CRITERION), ("k", _CRITERION),
                          ("sign", ("+", "-", "0"), "+"))),
    "interaction_magnitude": (
        "interaction_magnitude ({pair1[0]},{pair1[1]}){signs[0]} {kind} "
        "({pair2[0]},{pair2[1]}){signs[1]}",
        (("pair1", [_CRITERION]), ("pair2", [_CRITERION]),
         ("signs", [("+", "-")], ("+", "+")), ("kind", _GE, ">")),
    ),
    "opposing_power": ("opposing_power[{variant}] {fixed}: {stronger} {kind} {weaker}",
                       (("variant", ("a", "b")), ("fixed", _CRITERION),
                        ("stronger", _CRITERION), ("weaker", _CRITERION),
                        ("kind", _GE, ">"))),
}
# kinds and signs that tie a statement's expression to zero; any other
# holds it above zero by the margin eps
_EQUAL = ("I", "=", "0")


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{where}: {msg}")


def _read(value, kind, where: str, name: str):
    """``value`` as a field of ``kind`` reads it: a label or word, from a
    JSON string or number, as text, a criterion reference as given, and a
    pair, from a list (or tuple) of two, as a tuple."""
    if isinstance(kind, list):
        _require(isinstance(value, (list, tuple)) and len(value) == 2, where,
                 f"{name} must be a list of two entries, got {value!r}")
        return tuple(_read(v, kind[0], where, name) for v in value)
    return value if kind == _CRITERION else _label(value, f"{where}: {name}")


@dataclass(frozen=True)
class Statement:
    """One preference statement: its JSON ``type`` and the fields of that
    type, keyed as in a JSON line.

    Construction checks the statement as a line of a statements file is
    checked, and raises ``ValueError`` naming ``source`` (or "statement"):
    an unknown type or key, a missing field without a default, a label or
    word that is not a string or number, a pair that is not two entries, a
    word outside its allowed values, or a pair of alternatives that are
    the same. ``fields`` then holds every field of the type, in order, as
    a read-only mapping: labels and words as text, pairs as tuples and
    defaults filled in. ``source`` is the ``path:line`` a statement was
    parsed from, which compile errors name, or None for a statement built
    in code; it takes no part in equality or the repr.
    """

    type: str
    fields: Mapping[str, object]
    source: str | None = dataclasses.field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        where = self.source or "statement"
        _require(isinstance(self.type, str) and self.type in _TYPES, where,
                 f"unknown statement type {self.type!r}")
        spec = _TYPES[self.type][1]
        unknown = sorted(set(self.fields) - {name for name, *_ in spec})
        _require(not unknown, where, f"unknown key {', '.join(map(repr, unknown))}")
        values = {}
        for name, kind, *default in spec:
            if name in self.fields:
                values[name] = _read(self.fields[name], kind, where, name)
            else:
                _require(bool(default), where, f"missing field {name!r}")
                values[name] = default[0]
        alternatives = []
        for name, kind, *_ in spec:
            value = values[name]
            items = value if isinstance(kind, list) else (value,)
            kind = kind[0] if isinstance(kind, list) else kind
            if isinstance(kind, tuple):
                _require(all(w in kind for w in items), where,
                         f"{name} must be {' or '.join(kind)}, got {value!r}")
            elif kind == _LABEL:
                alternatives += items
        # the alternatives come in pairs: two label fields, or a pair field
        _require(all(a != b for a, b in zip(alternatives[::2], alternatives[1::2])),
                 where, "the two alternatives must differ")
        object.__setattr__(self, "fields", MappingProxyType(values))


@dataclass(frozen=True)
class ConstraintRow:
    """One linear row: coefs . (params, eps) <rel> rhs."""

    coefs: np.ndarray
    rel: str
    rhs: float
    origin: str

    def __post_init__(self) -> None:
        if self.rel not in ("<=", "=", ">="):
            raise ValueError(f"bad relation {self.rel!r}")
        object.__setattr__(self, "coefs", np.asarray(self.coefs, dtype=float))


@dataclass(frozen=True)
class ConstraintSystem:
    """Rows over the packed parameter columns plus a final eps column,
    packed once, in row order, into read-only arrays: row i reads
    ``A[i] . x = b[i]`` where ``eq[i]``, else ``A[i] . x <= b[i]`` (a
    ``>=`` row stored negated), and ``origins[i]`` names it. ``excess``
    is the one rule that judges a point against these rows."""

    layout: ParameterLayout
    rows: tuple[ConstraintRow, ...]
    A: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    b: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    eq: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    origins: tuple[str, ...] = dataclasses.field(init=False, repr=False, compare=False)

    @property
    def n_cols(self) -> int:
        return self.layout.size + 1

    @property
    def eps_col(self) -> int:
        return self.layout.size

    @property
    def variable_names(self) -> tuple[str, ...]:
        return self.layout.names + ("eps",)

    def __post_init__(self) -> None:
        for row in self.rows:
            if row.coefs.shape != (self.n_cols,):
                raise ValueError(
                    f"row {row.origin!r} has {row.coefs.shape[0]} columns, "
                    f"expected {self.n_cols}"
                )
        rel = np.array([row.rel for row in self.rows], dtype=str)
        sign = np.where(rel == ">=", -1.0, 1.0)
        A = np.array([row.coefs for row in self.rows]).reshape(rel.size, self.n_cols)
        b = np.array([row.rhs for row in self.rows], dtype=float)
        for name, array in (("A", sign[:, None] * A), ("b", sign * b), ("eq", rel == "=")):
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "origins", tuple(row.origin for row in self.rows))

    def with_rows(self, extra: Iterable[ConstraintRow]) -> "ConstraintSystem":
        return ConstraintSystem(layout=self.layout, rows=self.rows + tuple(extra))

    def excess(self, points: np.ndarray, eps: float) -> np.ndarray:
        """By how much each of ``points`` (parameter vectors, the eps
        column left out) exceeds each packed row at margin ``eps``, with
        shape ``points.shape[:-1] + (rows,)``: lhs - rhs, taken absolute
        on an equality row, the margin moved into the right-hand side as
        ``b - A[:, eps_col] * eps``. A point meets a row to tolerance tol
        when its excess there is at most tol."""
        # laid out row by row in memory: each row's excesses lie together
        out = (self.A[:, :self.eps_col] @ points.T).T
        out -= self.b - self.A[:, self.eps_col] * eps
        eq_rows = np.flatnonzero(self.eq)
        out[..., eq_rows] = np.abs(out[..., eq_rows])
        return out

    def split(self):
        """The equality rows and the inequality rows, each in row order.

        Returns (A_eq, b_eq, eq_origins, A_ub, b_ub, ub_origins).
        """
        ub = ~self.eq
        return (self.A[self.eq], self.b[self.eq],
                tuple(o for o, e in zip(self.origins, self.eq) if e),
                self.A[ub], self.b[ub],
                tuple(o for o, e in zip(self.origins, self.eq) if not e))


def parse_statement(obj: dict, where: str | None = None) -> Statement:
    """Build a statement from one decoded JSON object, whose keys are
    ``type`` and that type's fields; ``where`` becomes its ``source``."""
    _require(isinstance(obj, dict), where or "statement", "expected a JSON object")
    return Statement(obj.get("type"), {k: v for k, v in obj.items() if k != "type"},
                     source=where)


def parse_statements(source: Union[str, Path, Iterable[str]]) -> list[Statement]:
    """Parse statements from a UTF-8 JSON-lines file or an iterable of lines.

    Blank lines and lines starting with ``#`` are skipped. Each statement
    records its ``path:line`` (``<lines>:line`` for an iterable) as its
    ``source``.
    """
    if isinstance(source, (str, Path)):
        name = str(source)
        try:
            lines = Path(source).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{name}: not UTF-8 ({exc})") from None
    else:
        name = "<lines>"
        lines = list(source)
    out: list[Statement] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{name}:{lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{where}: not valid JSON ({exc})") from None
        out.append(parse_statement(obj, where))
    return out


def compile_statements(
    table: PerformanceTable, statements: Iterable[Statement]
) -> ConstraintSystem:
    """Translate statements plus structural conditions into a linear system.

    Each statement gives a linear expression over the parameters. A kind or
    sign of I, = or 0 writes ``expr = 0``; any other writes
    ``expr - eps >= 0``. A P1 statement also writes its two flow gaps,
    ``>= 0`` under P and ``= 0`` under I, where they imply its net-flow row,
    which is then left out. Every origin names the statement's position and
    its origin text; an error in a statement names the same, after the
    statement's ``source`` when it has one.

    Row order is deterministic: statement rows in input order, then the
    normalisation equality, sign conditions and the monotonicity family.
    Monotonicity of the negative part coincides with that of the positive
    part once the shared parameters are substituted, so one enumeration
    covers both. Of the 3^(n-1) disjoint (C, D) splits per criterion only
    the 2^(n-1) with C | D holding every other criterion are written: with
    the opposing powers nonpositive, they imply the rest.
    """
    n = table.n_criteria
    _check_cap(n)
    layout = ParameterLayout(n)
    size = layout.size
    tensor = bipolar_preference_tensor(table)
    # expressions are full rows whose eps column stays zero until add
    flow_pos, flow_neg = (
        np.pad(f, ((0, 0), (0, 1))) for f in flow_coefficients(table, layout))
    flow_net = flow_pos - flow_neg
    rows: list[ConstraintRow] = []

    def add(expr: np.ndarray, rel: str, origin: str, rhs: float = 0.0,
            strict: bool = False) -> None:
        if strict:
            # strict statements hold with margin eps: expr - eps >= rhs
            expr[size] = -1.0
        rows.append(ConstraintRow(coefs=expr, rel=rel, rhs=rhs, origin=origin))

    def ones(*cols: int) -> np.ndarray:
        expr = np.zeros(size + 1)
        for col in cols:
            expr[col] = 1.0
        return expr

    def alt(label: str, where: str) -> int:
        try:
            return table.alternative_index(label)
        except KeyError as exc:
            raise ValueError(f"{where}: {exc.args[0]}") from None

    def crit(ref, where: str) -> int:
        try:
            return table.criterion_index(ref)
        except KeyError as exc:
            raise ValueError(f"{where}: {exc.args[0]}") from None

    def pair_gap(a: str, b: str, where: str) -> np.ndarray:
        cp, cn = choquet_coefficients(tensor[alt(a, where), alt(b, where)], layout)
        return np.append(cp - cn, 0.0)

    for pos_idx, st in enumerate(statements, start=1):
        if not isinstance(st, Statement):
            raise TypeError(f"unsupported statement {st!r}")
        stype, f = st.type, st.fields
        label = f"statement {pos_idx} ({_TYPES[stype][0].format(**f)})"
        where = label if st.source is None else f"{st.source}: {label}"
        gaps, tag = (), ""
        if stype == "local_pair":
            expr = pair_gap(f["a"], f["b"], where)
        elif stype == "global_p1":
            ia, ib = alt(f["a"], where), alt(f["b"], where)
            gaps = ((flow_pos[ia] - flow_pos[ib], " [positive flows]"),
                    (flow_neg[ib] - flow_neg[ia], " [negative flows]"))
            expr, tag = flow_net[ia] - flow_net[ib], " [net flows]"
        elif stype == "global_p2":
            expr = flow_net[alt(f["a"], where)] - flow_net[alt(f["b"], where)]
        elif stype == "intensity":
            expr = pair_gap(*f["pair1"], where) - pair_gap(*f["pair2"], where)
        elif stype == "criterion_importance":
            j, k = crit(f["j"], where), crit(f["k"], where)
            _require(j != k, where, "criteria must differ")
            expr = ones(layout.a_col(j)) - ones(layout.a_col(k))
        elif stype == "interaction_sign":
            j, k = crit(f["j"], where), crit(f["k"], where)
            _require(j != k, where, "criteria must differ")
            expr = ones(layout.pair_col(j, k))
            if f["sign"] == "-":
                expr = -expr
        elif stype == "interaction_magnitude":
            j1, k1 = crit(f["pair1"][0], where), crit(f["pair1"][1], where)
            j2, k2 = crit(f["pair2"][0], where), crit(f["pair2"][1], where)
            _require(j1 != k1 and j2 != k2, where, "criteria within a pair must differ")
            # compare magnitudes through the believed signs
            expr = np.zeros(size + 1)
            expr[layout.pair_col(j1, k1)] += 1.0 if f["signs"][0] == "+" else -1.0
            expr[layout.pair_col(j2, k2)] -= 1.0 if f["signs"][1] == "+" else -1.0
        else:
            fixed, stronger, weaker = (
                crit(f[name], where) for name in ("fixed", "stronger", "weaker"))
            _require(len({fixed, stronger, weaker}) == 3, where, "criteria must be distinct")
            # variant a fixes the supporter, variant b the opponent; a
            # stronger opposing power means a more negative parameter
            if f["variant"] == "a":
                expr = ones(layout.opp_col(fixed, weaker)) - ones(layout.opp_col(fixed, stronger))
            else:
                expr = ones(layout.opp_col(weaker, fixed)) - ones(layout.opp_col(stronger, fixed))
        if f.get("sign", f.get("kind")) in _EQUAL:
            # a P1 statement's flow gaps, tied to zero, imply its net-flow row
            for gap, gap_tag in gaps or ((expr, tag),):
                add(gap, "=", label + gap_tag)
        else:
            for gap, gap_tag in gaps:
                add(gap, ">=", label + gap_tag)
            add(expr, ">=", label + tag, strict=True)

    # structural closure
    add(ones(*range(n + len(layout.pair_keys))), "=", "normalisation", rhs=1.0)
    for j in range(n):
        add(ones(layout.a_col(j)), ">=", f"power a_{j + 1} >= 0")
    for j, k in layout.opp_keys:
        add(ones(layout.opp_col(j, k)), "<=", f"opposing opp_{j + 1}|{k + 1} <= 0")
    for j in range(n):
        for c, d in _side_pairs(tuple(i for i in range(n) if i != j), (1, 2)):
            cols = [layout.pair_col(j, k) for k in c] + [layout.opp_col(j, k) for k in d]
            origin = (
                f"monotonicity a_{j + 1}"
                f" with={','.join(str(k + 1) for k in c) or '-'}"
                f" against={','.join(str(k + 1) for k in d) or '-'}"
            )
            add(ones(layout.a_col(j), *cols), ">=", origin)
    return ConstraintSystem(layout=layout, rows=tuple(rows))


def restrict_classical(system: ConstraintSystem) -> ConstraintSystem:
    """Pin every interaction and opposing power to zero.

    The remaining free parameters are the per-criterion powers, which the
    normalisation row turns into a weight vector; statement rows are kept
    unchanged and reduce to their weighted-sum forms.
    """
    layout = system.layout
    extra = []
    for col in range(layout.n, layout.size):
        row = np.zeros(layout.size + 1)
        row[col] = 1.0
        extra.append(
            ConstraintRow(row, "=", 0.0, "classical restriction " + layout.names[col])
        )
    return system.with_rows(extra)
