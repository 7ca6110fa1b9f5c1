"""Preference statements and their translation into linear constraints.

A decision maker expresses preferences as statements over alternatives,
criteria or interactions. Each statement becomes one or more linear rows
over the packed bicapacity parameters plus one extra column for the strict
preference margin ``eps``: strict statements get ``expr - eps >= 0`` rows,
indifference statements get equalities. Structural rows (normalisation,
sign conditions, monotonicity) close the system so that any feasible point
is a valid parameter set.

Sign conventions for interaction and opposing-power statements follow the
itemized statement catalogue; where the summary constraint block differs
from that list, the list wins.
"""

from __future__ import annotations

import json
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


def _require(cond: bool, where: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{where}: {msg}")


def _two(value, where: str, msg: str) -> list:
    """``value`` when it is a JSON list of two entries; ``msg`` otherwise."""
    _require(isinstance(value, list) and len(value) == 2, where, msg)
    return value


def parse_statement(obj: dict, where: str = "statement") -> Statement:
    """Build a statement from one decoded JSON object."""
    _require(isinstance(obj, dict), where, "expected a JSON object")
    kind_map = {
        "local_pair": LocalPair,
        "global_p1": GlobalP1,
        "global_p2": GlobalP2,
        "intensity": Intensity,
        "criterion_importance": CriterionImportance,
        "interaction_sign": InteractionSign,
        "interaction_magnitude": InteractionMagnitude,
        "opposing_power": OpposingPower,
    }
    stype = obj.get("type")
    _require(isinstance(stype, str) and stype in kind_map, where,
             f"unknown statement type {stype!r}")
    try:
        if stype in ("local_pair", "global_p1", "global_p2"):
            st = kind_map[stype](
                a=str(obj["a"]), b=str(obj["b"]), kind=str(obj.get("kind", "P"))
            )
            _require(st.kind in ("P", "I"), where, f"kind must be P or I, got {st.kind!r}")
            _require(st.a != st.b, where, "the two alternatives must differ")
        elif stype == "intensity":
            p1, p2 = (_two(obj[key], where, "pairs must have two labels")
                      for key in ("pair1", "pair2"))
            st = Intensity(
                pair1=(str(p1[0]), str(p1[1])),
                pair2=(str(p2[0]), str(p2[1])),
                kind=str(obj.get("kind", "P")),
            )
            _require(st.kind in ("P", "I"), where, f"kind must be P or I, got {st.kind!r}")
        elif stype == "criterion_importance":
            st = CriterionImportance(
                j=obj["j"], k=obj["k"], kind=str(obj.get("kind", ">"))
            )
            _require(st.kind in (">", "="), where, f"kind must be > or =, got {st.kind!r}")
        elif stype == "interaction_sign":
            st = InteractionSign(j=obj["j"], k=obj["k"], sign=str(obj.get("sign", "+")))
            _require(st.sign in ("+", "-", "0"), where, f"bad sign {st.sign!r}")
        elif stype == "interaction_magnitude":
            p1, p2 = (_two(obj[key], where, "pairs must have two criteria")
                      for key in ("pair1", "pair2"))
            signs = _two(obj.get("signs", ["+", "+"]), where, "signs must have two entries")
            st = InteractionMagnitude(
                pair1=(p1[0], p1[1]),
                pair2=(p2[0], p2[1]),
                signs=(str(signs[0]), str(signs[1])),
                kind=str(obj.get("kind", ">")),
            )
            _require(
                st.signs[0] in ("+", "-") and st.signs[1] in ("+", "-"),
                where,
                f"signs must be + or -, got {st.signs!r}",
            )
            _require(st.kind in (">", "="), where, f"kind must be > or =, got {st.kind!r}")
        else:
            st = OpposingPower(
                variant=str(obj["variant"]),
                fixed=obj["fixed"],
                stronger=obj["stronger"],
                weaker=obj["weaker"],
                kind=str(obj.get("kind", ">")),
            )
            _require(st.variant in ("a", "b"), where, f"bad variant {st.variant!r}")
            _require(st.kind in (">", "="), where, f"kind must be > or =, got {st.kind!r}")
    except KeyError as exc:
        raise ValueError(f"{where}: missing field {exc.args[0]!r}") from None
    return st


def parse_statements(source: Union[str, Path, Iterable[str]]) -> list[Statement]:
    """Parse statements from a JSON-lines file or an iterable of lines."""
    if isinstance(source, (str, Path)):
        name = str(source)
        lines = Path(source).read_text().splitlines()
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


def _describe(st: Statement) -> str:
    if isinstance(st, LocalPair):
        return f"local_pair {st.a} {st.kind} {st.b}"
    if isinstance(st, GlobalP1):
        return f"global_p1 {st.a} {st.kind} {st.b}"
    if isinstance(st, GlobalP2):
        return f"global_p2 {st.a} {st.kind} {st.b}"
    if isinstance(st, Intensity):
        return (
            f"intensity ({st.pair1[0]},{st.pair1[1]}) {st.kind} "
            f"({st.pair2[0]},{st.pair2[1]})"
        )
    if isinstance(st, CriterionImportance):
        return f"importance {st.j} {st.kind} {st.k}"
    if isinstance(st, InteractionSign):
        return f"interaction_sign {st.j},{st.k} {st.sign}"
    if isinstance(st, InteractionMagnitude):
        return (
            f"interaction_magnitude ({st.pair1[0]},{st.pair1[1]}){st.signs[0]} "
            f"{st.kind} ({st.pair2[0]},{st.pair2[1]}){st.signs[1]}"
        )
    return f"opposing_power[{st.variant}] {st.fixed}: {st.stronger} {st.kind} {st.weaker}"


class _RowBuilder:
    """Accumulates rows; keeps the eps bookkeeping in one place."""

    def __init__(self, layout: ParameterLayout):
        self.layout = layout
        self.rows: list[ConstraintRow] = []

    def blank(self) -> np.ndarray:
        return np.zeros(self.layout.size + 1)

    def add(self, coefs: np.ndarray, rel: str, rhs: float, origin: str,
            strict: bool = False) -> None:
        if strict:
            # strict statements hold with margin eps: expr - eps >= rhs
            coefs = coefs.copy()
            coefs[self.layout.size] -= 1.0
        self.rows.append(ConstraintRow(coefs=coefs, rel=rel, rhs=rhs, origin=origin))


def compile_statements(
    table: PerformanceTable,
    statements: Iterable[Statement],
    max_criteria: int = ENUMERATION_CAP,
) -> ConstraintSystem:
    """Translate statements plus structural conditions into a linear system.

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
    rb = _RowBuilder(layout)
    tensor = bipolar_preference_tensor(table)
    flow_pos, flow_neg = flow_coefficients(table, layout)
    flow_net = flow_pos - flow_neg

    def alt(label: str, where: str) -> int:
        try:
            return table.alternative_index(label)
        except KeyError as exc:
            raise ValueError(f"{where}: {exc.args[0]}") from None

    def pair_x(a: str, b: str, where: str) -> np.ndarray:
        return tensor[alt(a, where), alt(b, where)]

    def crit(ref, where: str) -> int:
        try:
            return table.criterion_index(ref)
        except KeyError as exc:
            raise ValueError(f"{where}: {exc.args[0]}") from None

    size = layout.size
    for pos_idx, st in enumerate(statements, start=1):
        where = f"statement {pos_idx} ({_describe(st)})"
        if isinstance(st, LocalPair):
            cp, cn = choquet_coefficients(pair_x(st.a, st.b, where), layout)
            row = rb.blank()
            row[:size] = cp - cn
            if st.kind == "P":
                rb.add(row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        elif isinstance(st, GlobalP1):
            ia, ib = alt(st.a, where), alt(st.b, where)
            pos_row, neg_row, net_row = rb.blank(), rb.blank(), rb.blank()
            pos_row[:size] = flow_pos[ia] - flow_pos[ib]
            neg_row[:size] = flow_neg[ib] - flow_neg[ia]
            net_row[:size] = flow_net[ia] - flow_net[ib]
            if st.kind == "P":
                rb.add(pos_row, ">=", 0.0, where + " [positive flows]")
                rb.add(neg_row, ">=", 0.0, where + " [negative flows]")
                rb.add(net_row, ">=", 0.0, where + " [net flows]", strict=True)
            else:
                rb.add(pos_row, "=", 0.0, where + " [positive flows]")
                rb.add(neg_row, "=", 0.0, where + " [negative flows]")
        elif isinstance(st, GlobalP2):
            ia, ib = alt(st.a, where), alt(st.b, where)
            row = rb.blank()
            row[:size] = flow_net[ia] - flow_net[ib]
            if st.kind == "P":
                rb.add(row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        elif isinstance(st, Intensity):
            cp1, cn1 = choquet_coefficients(pair_x(*st.pair1, where), layout)
            cp2, cn2 = choquet_coefficients(pair_x(*st.pair2, where), layout)
            row = rb.blank()
            row[:size] = (cp1 - cn1) - (cp2 - cn2)
            if st.kind == "P":
                rb.add(row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        elif isinstance(st, CriterionImportance):
            j, k = crit(st.j, where), crit(st.k, where)
            _require(j != k, where, "criteria must differ")
            row = rb.blank()
            row[layout.a_col(j)] = 1.0
            row[layout.a_col(k)] = -1.0
            if st.kind == ">":
                rb.add(row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        elif isinstance(st, InteractionSign):
            j, k = crit(st.j, where), crit(st.k, where)
            _require(j != k, where, "criteria must differ")
            row = rb.blank()
            row[layout.pair_col(j, k)] = 1.0
            if st.sign == "+":
                rb.add(row, ">=", 0.0, where, strict=True)
            elif st.sign == "-":
                rb.add(-row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        elif isinstance(st, InteractionMagnitude):
            j1, k1 = crit(st.pair1[0], where), crit(st.pair1[1], where)
            j2, k2 = crit(st.pair2[0], where), crit(st.pair2[1], where)
            _require(j1 != k1 and j2 != k2, where, "criteria within a pair must differ")
            s1 = 1.0 if st.signs[0] == "+" else -1.0
            s2 = 1.0 if st.signs[1] == "+" else -1.0
            row = rb.blank()
            # compare magnitudes through the believed signs
            row[layout.pair_col(j1, k1)] += s1
            row[layout.pair_col(j2, k2)] -= s2
            if st.kind == ">":
                rb.add(row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        elif isinstance(st, OpposingPower):
            if st.variant == "a":
                j = crit(st.fixed, where)
                k = crit(st.stronger, where)
                h = crit(st.weaker, where)
                _require(len({j, k, h}) == 3, where, "criteria must be distinct")
                strong_col = layout.opp_col(j, k)
                weak_col = layout.opp_col(j, h)
            else:
                k = crit(st.fixed, where)
                j = crit(st.stronger, where)
                h = crit(st.weaker, where)
                _require(len({j, k, h}) == 3, where, "criteria must be distinct")
                strong_col = layout.opp_col(j, k)
                weak_col = layout.opp_col(h, k)
            row = rb.blank()
            # stronger opposing power means a more negative parameter
            row[weak_col] = 1.0
            row[strong_col] = -1.0
            if st.kind == ">":
                rb.add(row, ">=", 0.0, where, strict=True)
            else:
                rb.add(row, "=", 0.0, where)
        else:
            raise TypeError(f"unsupported statement {st!r}")

    # structural closure
    row = rb.blank()
    row[:n] = 1.0
    for idx in range(len(layout.pair_keys)):
        row[n + idx] = 1.0
    rb.add(row, "=", 1.0, "normalisation")
    for j in range(n):
        row = rb.blank()
        row[layout.a_col(j)] = 1.0
        rb.add(row, ">=", 0.0, f"power a_{j + 1} >= 0")
    for j, k in layout.opp_keys:
        row = rb.blank()
        row[layout.opp_col(j, k)] = 1.0
        rb.add(row, "<=", 0.0, f"opposing opp_{j + 1}|{k + 1} <= 0")
    others = lambda j: tuple(i for i in range(n) if i != j)
    for j in range(n):
        for c, d in _covering_pairs(others(j)):
            row = rb.blank()
            row[layout.a_col(j)] = 1.0
            for k in c:
                row[layout.pair_col(j, k)] += 1.0
            for k in d:
                row[layout.opp_col(j, k)] += 1.0
            origin = (
                f"monotonicity a_{j + 1}"
                f" with={','.join(str(k + 1) for k in c) or '-'}"
                f" against={','.join(str(k + 1) for k in d) or '-'}"
            )
            rb.add(row, ">=", 0.0, origin)
    return ConstraintSystem(layout=layout, rows=tuple(rb.rows))


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
