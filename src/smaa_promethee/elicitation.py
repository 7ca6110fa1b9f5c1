"""Preference statements and their translation into linear constraints.

A decision maker expresses preferences as statements over alternatives,
criteria or interactions, one JSON object per line. Each statement type is
a dataclass; one table gives its JSON name, the origin text its rows carry
and the allowed values of its word fields, and the parser reads the
remaining fields and their defaults off the dataclass. Each statement
becomes one or more linear rows over the packed bicapacity parameters plus
one extra column for the strict preference margin ``eps``: a kind or sign
of I, = or 0 gives ``expr = 0``, any other ``expr - eps >= 0``. Structural
rows (normalisation, sign conditions, monotonicity) close the system so
that any feasible point is a valid parameter set.

Sign conventions for interaction and opposing-power statements follow the
itemized statement catalogue; where the summary constraint block differs
from that list, the list wins.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from .bipolar import (
    ENUMERATION_CAP,
    ParameterLayout,
    _check_cap,
    _covering_pairs,
    bipolar_preference_tensor,
    choquet_coefficients,
    flow_coefficients,
)
from .model import PerformanceTable

__all__ = [
    "LocalPair",
    "GlobalP1",
    "GlobalP2",
    "Intensity",
    "CriterionImportance",
    "InteractionSign",
    "InteractionMagnitude",
    "OpposingPower",
    "Statement",
    "ConstraintRow",
    "ConstraintSystem",
    "parse_statement",
    "parse_statements",
    "compile_statements",
    "restrict_classical",
]


@dataclass(frozen=True)
class LocalPair:
    """Pairwise judgement on one ordered pair: P (strict) or I (indifference)."""

    a: str
    b: str
    kind: str = "P"


@dataclass(frozen=True)
class GlobalP1:
    """Judgement on the positive/negative flow pair of two alternatives."""

    a: str
    b: str
    kind: str = "P"


@dataclass(frozen=True)
class GlobalP2:
    """Judgement on the net flows of two alternatives."""

    a: str
    b: str
    kind: str = "P"


@dataclass(frozen=True)
class Intensity:
    """Pair (a, b) expresses a stronger preference than pair (c, d)."""

    pair1: tuple[str, str]
    pair2: tuple[str, str]
    kind: str = "P"


@dataclass(frozen=True)
class CriterionImportance:
    """Criterion j is more important than (or as important as) criterion k."""

    j: Union[str, int]
    k: Union[str, int]
    kind: str = ">"


@dataclass(frozen=True)
class InteractionSign:
    """The pair (j, k) interacts positively, negatively or not at all."""

    j: Union[str, int]
    k: Union[str, int]
    sign: str = "+"


@dataclass(frozen=True)
class InteractionMagnitude:
    """Compare two interaction magnitudes given their believed signs.

    ``signs`` gives the believed sign of pair1 and pair2. With kind ">",
    |interaction(pair1)| exceeds |interaction(pair2)|; "=" equates them.
    """

    pair1: tuple[Union[str, int], Union[str, int]]
    pair2: tuple[Union[str, int], Union[str, int]]
    signs: tuple[str, str] = ("+", "+")
    kind: str = ">"


@dataclass(frozen=True)
class OpposingPower:
    """Compare two opposing powers.

    Variant "a" fixes the supporting criterion (``fixed``) and says the
    opponent ``stronger`` weakens it more than the opponent ``weaker``.
    Variant "b" fixes the opposing criterion (``fixed``) and says it has
    more opposing power against the supporter ``stronger`` than against
    the supporter ``weaker``. Kind "=" equates the two powers instead.
    """

    variant: str
    fixed: Union[str, int]
    stronger: Union[str, int]
    weaker: Union[str, int]
    kind: str = ">"


Statement = Union[
    LocalPair,
    GlobalP1,
    GlobalP2,
    Intensity,
    CriterionImportance,
    InteractionSign,
    InteractionMagnitude,
    OpposingPower,
]


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
    """Rows over the packed parameter columns plus a final eps column."""

    layout: ParameterLayout
    rows: tuple[ConstraintRow, ...]

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

    def with_rows(self, extra: Iterable[ConstraintRow]) -> "ConstraintSystem":
        return ConstraintSystem(layout=self.layout, rows=self.rows + tuple(extra))

    def split(self):
        """Equalities and <=-normalised inequalities as dense arrays.

        Returns (A_eq, b_eq, eq_origins, A_ub, b_ub, ub_origins).
        """
        eqs, ubs = [], []
        for row in self.rows:
            if row.rel == "=":
                eqs.append((row.coefs, row.rhs, row.origin))
            elif row.rel == "<=":
                ubs.append((row.coefs, row.rhs, row.origin))
            else:
                ubs.append((-row.coefs, -row.rhs, row.origin))
        pack = lambda items: (
            np.array([c for c, _, _ in items]).reshape(len(items), self.n_cols),
            np.array([r for _, r, _ in items]),
            tuple(o for _, _, o in items),
        )
        return (*pack(eqs), *pack(ubs))


# JSON type name -> (dataclass, origin text over its fields, allowed values of
# its word fields); every other field is an alternative label when typed str
# and a criterion reference (name or 1-based position) otherwise
_PI, _GE = ("P", "I"), (">", "=")
_TYPES = {
    "local_pair": (LocalPair, "local_pair {a} {kind} {b}", {"kind": _PI}),
    "global_p1": (GlobalP1, "global_p1 {a} {kind} {b}", {"kind": _PI}),
    "global_p2": (GlobalP2, "global_p2 {a} {kind} {b}", {"kind": _PI}),
    "intensity": (
        Intensity,
        "intensity ({pair1[0]},{pair1[1]}) {kind} ({pair2[0]},{pair2[1]})",
        {"kind": _PI},
    ),
    "criterion_importance": (
        CriterionImportance, "importance {j} {kind} {k}", {"kind": _GE},
    ),
    "interaction_sign": (
        InteractionSign, "interaction_sign {j},{k} {sign}", {"sign": ("+", "-", "0")},
    ),
    "interaction_magnitude": (
        InteractionMagnitude,
        "interaction_magnitude ({pair1[0]},{pair1[1]}){signs[0]} {kind} "
        "({pair2[0]},{pair2[1]}){signs[1]}",
        {"signs": ("+", "-"), "kind": _GE},
    ),
    "opposing_power": (
        OpposingPower,
        "opposing_power[{variant}] {fixed}: {stronger} {kind} {weaker}",
        {"variant": ("a", "b"), "kind": _GE},
    ),
}
_ORIGINS = {cls: origin for cls, origin, _ in _TYPES.values()}
# kinds and signs that tie a statement's expression to zero; any other
# holds it above zero by the margin eps
_EQUAL = ("I", "=", "0")


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{where}: {msg}")


def _read(value, hint, where: str, name: str):
    """``value`` as ``hint`` reads it: a label as str, a criterion reference
    as given, a pair as a tuple of two."""
    if typing.get_origin(hint) is tuple:
        _require(isinstance(value, list) and len(value) == 2, where,
                 f"{name} must be a list of two entries, got {value!r}")
        return tuple(_read(v, h, where, name) for v, h in zip(value, typing.get_args(hint)))
    return str(value) if hint is str else value


def parse_statement(obj: dict, where: str = "statement") -> Statement:
    """Build a statement from one decoded JSON object.

    The keys are ``type`` and the fields of that type's dataclass; a field
    with a default may be left out, and any other key is an error.
    """
    _require(isinstance(obj, dict), where, "expected a JSON object")
    stype = obj.get("type")
    _require(isinstance(stype, str) and stype in _TYPES, where,
             f"unknown statement type {stype!r}")
    cls, _, allowed = _TYPES[stype]
    fields = dataclasses.fields(cls)
    unknown = sorted(set(obj) - {"type"} - {f.name for f in fields})
    _require(not unknown, where, f"unknown key {', '.join(map(repr, unknown))}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields:
        if f.name not in obj:
            _require(f.default is not dataclasses.MISSING, where,
                     f"missing field {f.name!r}")
            continue
        values[f.name] = _read(obj[f.name], hints[f.name], where, f.name)
    st = cls(**values)
    for name, choices in allowed.items():
        value = getattr(st, name)
        words = value if isinstance(value, tuple) else (value,)
        _require(all(w in choices for w in words), where,
                 f"{name} must be {' or '.join(choices)}, got {value!r}")
    pairs = ([st.pair1, st.pair2] if isinstance(st, Intensity)
             else [(st.a, st.b)] if isinstance(st, (LocalPair, GlobalP1, GlobalP2))
             else [])
    _require(all(a != b for a, b in pairs), where, "the two alternatives must differ")
    return st


def parse_statements(source: Union[str, Path, Iterable[str]]) -> list[Statement]:
    """Parse statements from a UTF-8 JSON-lines file or an iterable of lines.

    Blank lines and lines starting with ``#`` are skipped.
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
    table: PerformanceTable,
    statements: Iterable[Statement],
    max_criteria: int = ENUMERATION_CAP,
) -> ConstraintSystem:
    """Translate statements plus structural conditions into a linear system.

    Each statement gives a linear expression over the parameters. A kind or
    sign of I, = or 0 writes ``expr = 0``; any other writes
    ``expr - eps >= 0``. A P1 statement also writes its two flow gaps,
    ``>= 0`` under P and ``= 0`` under I, where they imply its net-flow row,
    which is then left out. Every origin names the statement's position and
    its origin text.

    Row order is deterministic: statement rows in input order, then the
    normalisation equality, sign conditions and the monotonicity family.
    Monotonicity of the negative part coincides with that of the positive
    part once the shared parameters are substituted, so one enumeration
    covers both. Of the 3^(n-1) disjoint (C, D) splits per criterion only
    the 2^(n-1) with C | D holding every other criterion are written: with
    the opposing powers nonpositive, they imply the rest.
    """
    n = table.n_criteria
    _check_cap(n, max_criteria)
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
        origin = _ORIGINS.get(type(st))
        if origin is None:
            raise TypeError(f"unsupported statement {st!r}")
        where = f"statement {pos_idx} ({origin.format(**vars(st))})"
        gaps, tag = (), ""
        if isinstance(st, LocalPair):
            expr = pair_gap(st.a, st.b, where)
        elif isinstance(st, GlobalP1):
            ia, ib = alt(st.a, where), alt(st.b, where)
            gaps = ((flow_pos[ia] - flow_pos[ib], " [positive flows]"),
                    (flow_neg[ib] - flow_neg[ia], " [negative flows]"))
            expr, tag = flow_net[ia] - flow_net[ib], " [net flows]"
        elif isinstance(st, GlobalP2):
            expr = flow_net[alt(st.a, where)] - flow_net[alt(st.b, where)]
        elif isinstance(st, Intensity):
            expr = pair_gap(*st.pair1, where) - pair_gap(*st.pair2, where)
        elif isinstance(st, CriterionImportance):
            j, k = crit(st.j, where), crit(st.k, where)
            _require(j != k, where, "criteria must differ")
            expr = ones(layout.a_col(j)) - ones(layout.a_col(k))
        elif isinstance(st, InteractionSign):
            j, k = crit(st.j, where), crit(st.k, where)
            _require(j != k, where, "criteria must differ")
            expr = ones(layout.pair_col(j, k))
            if st.sign == "-":
                expr = -expr
        elif isinstance(st, InteractionMagnitude):
            j1, k1 = crit(st.pair1[0], where), crit(st.pair1[1], where)
            j2, k2 = crit(st.pair2[0], where), crit(st.pair2[1], where)
            _require(j1 != k1 and j2 != k2, where, "criteria within a pair must differ")
            # compare magnitudes through the believed signs
            expr = np.zeros(size + 1)
            expr[layout.pair_col(j1, k1)] += 1.0 if st.signs[0] == "+" else -1.0
            expr[layout.pair_col(j2, k2)] -= 1.0 if st.signs[1] == "+" else -1.0
        else:
            fixed, stronger, weaker = (
                crit(ref, where) for ref in (st.fixed, st.stronger, st.weaker))
            _require(len({fixed, stronger, weaker}) == 3, where, "criteria must be distinct")
            # variant a fixes the supporter, variant b the opponent; a
            # stronger opposing power means a more negative parameter
            if st.variant == "a":
                expr = ones(layout.opp_col(fixed, weaker)) - ones(layout.opp_col(fixed, stronger))
            else:
                expr = ones(layout.opp_col(weaker, fixed)) - ones(layout.opp_col(stronger, fixed))
        if (st.sign if isinstance(st, InteractionSign) else st.kind) in _EQUAL:
            # a P1 statement's flow gaps, tied to zero, imply its net-flow row
            for gap, gap_tag in gaps or ((expr, tag),):
                add(gap, "=", where + gap_tag)
        else:
            for gap, gap_tag in gaps:
                add(gap, ">=", where + gap_tag)
            add(expr, ">=", where + tag, strict=True)

    # structural closure
    add(ones(*range(n + len(layout.pair_keys))), "=", "normalisation", rhs=1.0)
    for j in range(n):
        add(ones(layout.a_col(j)), ">=", f"power a_{j + 1} >= 0")
    for j, k in layout.opp_keys:
        add(ones(layout.opp_col(j, k)), "<=", f"opposing opp_{j + 1}|{k + 1} <= 0")
    for j in range(n):
        for c, d in _covering_pairs(tuple(i for i in range(n) if i != j)):
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
