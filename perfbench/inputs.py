"""Seeded synthetic inputs for the benchmark, in the CLI's own file formats.

Each table comes with statements derived from a hidden valid parameter
vector: every statement holds under that vector with a clear net-flow gap,
so the compiled system is compatible with a positive margin by
construction. The flow arithmetic here is written out independently of the
package, so the inputs do not change when the code under test changes.
"""

from __future__ import annotations

import json
import os

import numpy as np

# smallest hidden net-flow gap a stated preference may have
_MIN_GAP = 0.02


def _degrees(evals: np.ndarray, p: float) -> np.ndarray:
    """Preference degrees (m, m, n) of a over b, q = 0, ramp up to p."""
    diff = evals[:, None, :] - evals[None, :, :]
    if p == 0.0:
        return (diff > 0.0).astype(float)
    return np.clip(diff / p, 0.0, 1.0)


def _net_flows(evals: np.ndarray, p: float, a: np.ndarray,
               pair: np.ndarray, opp: np.ndarray) -> np.ndarray:
    """Bipolar net flows under a two-additive bicapacity (loops, on purpose)."""
    deg = _degrees(evals, p)
    signed = np.where(deg > 0.0, deg, -deg.transpose(1, 0, 2))
    m, _, n = signed.shape
    net = np.zeros(m)
    for i in range(m):
        for k in range(m):
            if i == k:
                continue
            x = signed[i, k]
            sup = np.clip(x, 0.0, None)
            con = np.clip(-x, 0.0, None)
            val = a @ sup - a @ con
            for j in range(n):
                for h in range(j + 1, n):
                    val += pair[j, h] * (min(sup[j], sup[h]) - min(con[j], con[h]))
                for h in range(n):
                    # opponent h weakens supporter j in the positive part;
                    # the mirrored power opp[h, j] enters the negative part
                    val += (opp[j, h] - opp[h, j]) * min(sup[j], con[h])
            net[i] += val
    return net / (m - 1)


def _hidden_bicapacity(rng: np.random.Generator, n: int):
    """Random two-additive bicapacity that is monotone with slack.

    Monotonicity holds for every split (C, D) when each power exceeds the
    sum of its worst interaction or opposing terms, which the draw forces.
    """
    a = rng.uniform(0.5, 1.5, n)
    pair = np.triu(rng.uniform(-0.08, 0.12, (n, n)), 1)
    pair = pair + pair.T
    opp = -rng.uniform(0.0, 0.08, (n, n))
    np.fill_diagonal(opp, 0.0)
    worst = np.minimum(np.minimum(pair, opp), 0.0).sum(axis=1)
    if np.any(a + worst <= 0.0):
        raise ValueError(f"hidden bicapacity for n = {n} is not monotone")
    scale = a.sum() + np.triu(pair, 1).sum()
    return a / scale, pair / scale, opp / scale


def _statements(rng: np.random.Generator, net: np.ndarray, labels, count: int):
    """``count`` global net-flow preferences that the hidden flows satisfy."""
    m = len(labels)
    out = []
    seen = set()
    while len(out) < count:
        i, k = (int(v) for v in rng.choice(m, 2, replace=False))
        if net[i] < net[k]:
            i, k = k, i
        if net[i] - net[k] < _MIN_GAP or (i, k) in seen:
            continue
        seen.add((i, k))
        out.append({"type": "global_p2", "a": labels[i], "b": labels[k], "kind": "P"})
    return out


def synthetic(seed: int, m: int, n: int, p: float, interactions: bool,
              statement_count: int) -> tuple[dict, list[dict]]:
    """Problem and statements for one seed; no interactions means classical."""
    rng = np.random.default_rng([seed, m, n])
    evals = np.round(rng.uniform(0.0, 20.0, (m, n)), 2)
    if interactions:
        a, pair, opp = _hidden_bicapacity(rng, n)
    else:
        a = rng.dirichlet(np.ones(n))
        pair = np.zeros((n, n))
        opp = np.zeros((n, n))
    labels = [f"a{i + 1}" for i in range(m)]
    net = _net_flows(evals, p, a, pair, opp)
    problem = {
        "criteria": [
            {"name": f"g{j + 1}", "direction": "max", "q": 0, "p": p}
            for j in range(n)
        ],
        "alternatives": labels,
        "evaluations": evals.tolist(),
    }
    return problem, _statements(rng, net, labels, statement_count)


def write(directory: str, problem: dict, statements: list[dict]) -> tuple[str, str]:
    """Write ``problem.json`` and ``statements.jsonl``; return their paths."""
    os.makedirs(directory, exist_ok=True)
    problem_path = os.path.join(directory, "problem.json")
    statements_path = os.path.join(directory, "statements.jsonl")
    with open(problem_path, "w", encoding="utf-8") as fh:
        json.dump(problem, fh)
        fh.write("\n")
    with open(statements_path, "w", encoding="utf-8") as fh:
        for st in statements:
            fh.write(json.dumps(st) + "\n")
    return problem_path, statements_path
