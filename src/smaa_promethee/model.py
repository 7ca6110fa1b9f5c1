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
        if ref.isdigit():
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


def _parse_criterion(obj: dict) -> Criterion:
    try:
        direction = _DIRECTIONS[obj.get("direction", "max")]
    except KeyError:
        raise ValueError(f"bad direction {obj.get('direction')!r}") from None
    return Criterion(
        name=str(obj["name"]),
        direction=direction,
        q=float(obj.get("q", 0.0)),
        p=float(obj.get("p", 0.0)),
    )


def load_problem(path: str | Path) -> PerformanceTable:
    """Load a problem description from JSON.

    Expected shape::

        {"criteria": [{"name": ..., "direction": ..., "q": ..., "p": ...}, ...],
         "alternatives": ["s1", ...],
         "evaluations": [[...], ...]}
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    for key in ("criteria", "alternatives", "evaluations"):
        if key not in data:
            raise ValueError(f"{path}: missing key {key!r}")
    criteria = tuple(_parse_criterion(c) for c in data["criteria"])
    alternatives = tuple(str(a) for a in data["alternatives"])
    evals = np.asarray(data["evaluations"], dtype=float)
    return PerformanceTable(alternatives, criteria, evals)


def load_evaluations_csv(
    path: str | Path, criteria: Sequence[Criterion] | None = None
) -> PerformanceTable:
    """Load an evaluation matrix from CSV.

    Header row holds criterion names, first column holds alternative labels.
    When ``criteria`` is not given, every column defaults to a gain criterion
    with q = p = 0.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
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
    return PerformanceTable(tuple(labels), criteria, np.asarray(values, dtype=float))
