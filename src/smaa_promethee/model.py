"""Problem data model: criteria, alternatives and the performance table.

A decision problem is a set of alternatives evaluated on several criteria.
Each criterion carries a direction (gain or cost) and an indifference /
preference threshold pair ``0 <= q <= p`` used by the preference functions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "Criterion",
    "PerformanceTable",
    "load_problem",
    "load_evaluations_csv",
]

_DIRECTIONS = {"max": 1, "min": -1, "gain": 1, "cost": -1, 1: 1, -1: -1}


@dataclass(frozen=True)
class Criterion:
    """One evaluation axis with thresholds.

    Parameters
    ----------
    name : str
        Unique criterion name.
    direction : int
        +1 if larger evaluations are better, -1 if smaller are better.
    q : float
        Indifference threshold. Differences up to ``q`` count as no
        preference at all.
    p : float
        Preference threshold. Differences of ``p`` or more count as full
        preference. ``q == p`` degenerates to a step at ``q``.
    """

    name: str
    direction: int = 1
    q: float = 0.0
    p: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in (1, -1):
            raise ValueError(f"criterion {self.name!r}: direction must be +1 or -1")
        if not np.isfinite(self.q) or not np.isfinite(self.p):
            raise ValueError(f"criterion {self.name!r}: thresholds must be finite")
        if not 0.0 <= self.q <= self.p:
            raise ValueError(
                f"criterion {self.name!r}: thresholds must satisfy 0 <= q <= p, "
                f"got q={self.q} p={self.p}"
            )


@dataclass(frozen=True)
class PerformanceTable:
    """Alternatives x criteria evaluation matrix with criterion metadata."""

    alternatives: tuple[str, ...]
    criteria: tuple[Criterion, ...]
    evaluations: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        evals = np.asarray(self.evaluations, dtype=float)
        object.__setattr__(self, "evaluations", evals)
        m, n = len(self.alternatives), len(self.criteria)
        if m < 2:
            raise ValueError("need at least two alternatives")
        if n < 2:
            raise ValueError("need at least two criteria")
        if len(set(self.alternatives)) != m:
            raise ValueError("alternative labels must be unique")
        names = [c.name for c in self.criteria]
        if len(set(names)) != n:
            raise ValueError("criterion names must be unique")
        if evals.shape != (m, n):
            raise ValueError(
                f"evaluation matrix shape {evals.shape} does not match "
                f"{m} alternatives x {n} criteria"
            )
        if not np.all(np.isfinite(evals)):
            raise ValueError("evaluations must be finite")

    @property
    def n_alternatives(self) -> int:
        return len(self.alternatives)

    @property
    def n_criteria(self) -> int:
        return len(self.criteria)

    def alternative_index(self, label: str) -> int:
        try:
            return self.alternatives.index(label)
        except ValueError:
            raise KeyError(f"unknown alternative {label!r}") from None

    def criterion_index(self, ref: str | int) -> int:
        """Resolve a criterion given by name or 1-based position."""
        if isinstance(ref, bool) or not isinstance(ref, (str, int)):
            raise KeyError(f"invalid criterion reference {ref!r}")
        if isinstance(ref, int):
            if not 1 <= ref <= self.n_criteria:
                raise KeyError(f"criterion index {ref} out of range 1..{self.n_criteria}")
            return ref - 1
        for i, c in enumerate(self.criteria):
            if c.name == ref:
                return i
        # accept "3" as a positional reference in text formats
        if ref.isdecimal():
            return self.criterion_index(int(ref))
        raise KeyError(f"unknown criterion {ref!r}")

    def difference(self, criterion: str | int, a: str, b: str) -> float:
        """Signed evaluation difference of ``a`` over ``b``, direction applied."""
        j = self.criterion_index(criterion)
        ia, ib = self.alternative_index(a), self.alternative_index(b)
        c = self.criteria[j]
        return c.direction * (self.evaluations[ia, j] - self.evaluations[ib, j])

    def difference_tensor(self) -> np.ndarray:
        """All signed differences, shape (m, m, n); entry [a, b, j]."""
        dirs = np.array([c.direction for c in self.criteria], dtype=float)
        return (self.evaluations[:, None, :] - self.evaluations[None, :, :]) * dirs


def _number(value, what: str) -> float:
    """A JSON number as a float: not a string, a boolean or null."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} is an integer too large for a float") from None


def _label(value, what: str) -> str:
    """A JSON string or number as the text of a label: not a boolean, null,
    list or object."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"{what} must be a string or a number, got {value!r}")
    return str(value)


def _parse_criterion(obj, where: str) -> Criterion:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {obj!r}")
    if "name" not in obj:
        raise ValueError(f"{where}: missing key 'name'")
    direction = obj.get("direction", "max")
    try:
        # True == 1, so a boolean would look up the gain direction
        if isinstance(direction, bool):
            raise KeyError(direction)
        direction = _DIRECTIONS[direction]
    except (KeyError, TypeError):
        raise ValueError(f"{where}: bad direction {direction!r}") from None
    return Criterion(
        name=_label(obj["name"], f"{where}: name"),
        direction=direction,
        q=_number(obj.get("q", 0.0), f"{where}: q"),
        p=_number(obj.get("p", 0.0), f"{where}: p"),
    )


def load_problem(path: str | Path) -> PerformanceTable:
    """Load a problem description from a UTF-8 JSON file.

    Expected shape::

        {"criteria": [{"name": ..., "direction": ..., "q": ..., "p": ...}, ...],
         "alternatives": ["s1", ...],
         "evaluations": [[...], ...]}

    Any malformed content raises ``ValueError`` prefixed with the path.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    try:
        if not isinstance(data, dict):
            raise ValueError(f"expected a JSON object, got {data!r}")
        for key in ("criteria", "alternatives", "evaluations"):
            if key not in data:
                raise ValueError(f"missing key {key!r}")
            if not isinstance(data[key], list):
                raise ValueError(f"{key!r} must be a list, got {data[key]!r}")
        criteria = tuple(_parse_criterion(c, f"criterion {i}")
                         for i, c in enumerate(data["criteria"], start=1))
        alternatives = tuple(_label(a, f"alternative {i}")
                             for i, a in enumerate(data["alternatives"], start=1))
        for i, row in enumerate(data["evaluations"], start=1):
            for j, value in enumerate(row if isinstance(row, list) else (), start=1):
                _number(value, f"evaluation {j} of row {i}")
        try:
            evals = np.asarray(data["evaluations"], dtype=float)
        except (TypeError, ValueError):
            raise ValueError("'evaluations' must be a rectangular table of "
                             "numbers, one row per alternative") from None
        return PerformanceTable(alternatives, criteria, evals)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_evaluations_csv(
    path: str | Path, criteria: Sequence[Criterion] | None = None
) -> PerformanceTable:
    """Load an evaluation matrix from a UTF-8 CSV file.

    Header row holds criterion names, first column holds alternative labels.
    When ``criteria`` is not given, every column defaults to a gain criterion
    with q = p = 0.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header row and at least one data row")
    header = rows[0]
    names = [h.strip() for h in header[1:]]
    if criteria is None:
        criteria = tuple(Criterion(name=nm) for nm in names)
    else:
        criteria = tuple(criteria)
        if [c.name for c in criteria] != names:
            raise ValueError(f"{path}: header names do not match supplied criteria")
    labels = []
    values = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}")
        labels.append(row[0].strip())
        try:
            values.append([float(cell) for cell in row[1:]])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-numeric evaluation") from None
    try:
        return PerformanceTable(tuple(labels), criteria, np.asarray(values, dtype=float))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
