"""Spans recorded from outside the package, by swapping in timed wrappers.

``install`` replaces the names that ``smaa_promethee.cli`` and the modules
import from each other with wrappers that record one span per call: name,
start, end, parent and a few counts taken from the call's arguments or
result. Nothing under ``src/`` changes. Spans stay in memory until the run
ends and the caller writes them out.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        # newest open span per name, so pool threads can name their parent
        self._open: dict[str, int] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, args, kwargs, parent_name=None, attrs=None):
        stack = self._stack()
        if parent_name is not None:
            parent = self._open.get(parent_name)
        else:
            parent = stack[-1] if stack else None
        with self._lock:
            sid = next(self._ids)
            self._open[name] = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {"id": sid, "name": name, "start": start, "end": end,
                      "parent": parent}
            with self._lock:
                if self._open.get(name) == sid:
                    del self._open[name]
                self.spans.append(record)
        if attrs is not None:
            record.update(attrs(args, result))
        return result

    def wrap(self, owner, attr: str, name: str | None = None, **options) -> None:
        """Replace ``owner.attr`` by a timed wrapper, if the name exists."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        label = name or attr

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            return self.span(label, fn, args, kwargs, **options)

        setattr(owner, attr, timed)

    def run(self, name: str, fn, *args):
        """Root span around ``fn(*args)``."""
        return self.span(name, fn, args, {})


def _file_bytes(path: str) -> int:
    root, _ = os.path.splitext(path)
    return sum(os.path.getsize(p) for p in (path, root + ".json") if os.path.exists(p))


def install(tracer: Tracer) -> None:
    """Wrap every boundary the per-layer metrics are computed from."""
    from smaa_promethee import cli, lp, sampler, smaa

    tracer.wrap(cli, "load_problem")
    tracer.wrap(cli, "parse_statements")
    tracer.wrap(cli, "compile_statements",
                attrs=lambda args, res: {"rows": len(res.rows)})
    tracer.wrap(cli, "max_epsilon")
    tracer.wrap(cli, "build_polytope",
                attrs=lambda args, res: {"rows": int(res.A.shape[0]),
                                         "dimension": int(res.dimension)})
    tracer.wrap(cli, "hit_and_run", attrs=lambda args, res: {
        "steps": args[1].burn_in + args[1].sample_count * args[1].thinning})
    tracer.wrap(sampler.SampleBatch, "save", name="save",
                attrs=lambda args, res: {"bytes": _file_bytes(args[1])})
    tracer.wrap(cli, "aggregate")
    tracer.wrap(cli, "results_to_dict")
    tracer.wrap(cli, "render_text")
    tracer.wrap(cli, "render_csv")
    tracer.wrap(cli, "validate_against_exact_ror")
    # cross-module names: the margin LP inside build_polytope and the
    # exact outranking programs, the chain bursts and the relation counting
    tracer.wrap(sampler, "max_epsilon")
    tracer.wrap(lp, "max_epsilon")
    tracer.wrap(sampler, "chain_steps")
    tracer.wrap(smaa, "count_relations")
    # exact_ror_pair runs on pool threads, whose span stacks are empty
    tracer.wrap(smaa, "exact_ror_pair", parent_name="validate_against_exact_ror")
