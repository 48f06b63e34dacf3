"""Spans around the calls into each ppdgd layer, recorded from outside the package.

Wrappers replace public functions on the module objects where the calling
code looks them up (for example ``ppdgd.cli.integrate`` as well as
``ppdgd.dynamics.integrate``), so no file of the package changes. Each span
records its name, start, end, thread id, the phase of the benchmark it ran in
and its parent, the innermost open span of the same thread. Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    name: str
    thread: int
    phase: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    self_s: float = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "thread": self.thread, "phase": self.phase,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "attrs": self.attrs,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, list[int]]:
        stack = self._stack()
        span = Span(next(self._ids), stack[-1] if stack else None, name,
                    threading.get_ident(), self.phase, time.perf_counter())
        stack.append(span.id)
        return span, stack

    def _close(self, span: Span, stack: list[int]) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span, stack = self._open(name)
        try:
            yield span
        finally:
            self._close(span, stack)

    def wrap(self, name: str, fn, annotate=None):
        """fn with a span around each call; annotate(result, args) adds span attributes."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, stack)
            if annotate is not None:
                span.attrs.update(annotate(result, args))
            return result
        return traced

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, annotate))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def compute_self_times(self) -> None:
        """Self time: a span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        for s in self.spans:
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted((max(c.start, s.start), min(c.end, s.end))
                                 for c in children.get(s.id, ())):
                lo = max(lo, cursor)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            s.self_s = s.dur - covered


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every ppdgd layer the workloads reach.

    geometry is not wrapped: only rhs reaches it, integrate inlines its own
    copy and no workload calls rhs, so its time shows inside dynamics.
    integrate also inlines the free and box_diag inner solves; in box_dense
    mode it calls the inner layer on every step through dynamics._grad_phi,
    which is wrapped as inner.grad_phi.
    """
    from ppdgd import analysis, casestudy, cli, dynamics, inner, model, problem_io, \
        random_problems

    def traj_attrs(traj, _args):
        return {"steps": round((traj.t[-1] - traj.t[0]) / traj.config.dt),
                "stop_tol": traj.terminated_by is dynamics.TerminationReason.STOP_TOL}

    def inner_attrs(sol, args):
        return {"iterations": sol.iterations, "mode": args[0].inner_mode}

    def rows_attrs(_result, args):
        return {"rows": len(args[0])}

    for owner in (dynamics, cli):
        tracer.patch(owner, "integrate", "dynamics.integrate", traj_attrs)
    for owner in (analysis, cli):
        tracer.patch(owner, "equilibrium_oracle", "analysis.equilibrium_oracle")
        tracer.patch(owner, "certify_envelope", "analysis.certify_envelope")
        tracer.patch(owner, "envelope_series", "analysis.envelope_series")
    tracer.patch(inner, "solve_inner", "inner.solve_inner", inner_attrs)
    tracer.patch(dynamics, "_grad_phi", "inner.grad_phi")
    for owner in (problem_io, cli):
        tracer.patch(owner, "load_problem", "problem_io.load_problem")
        tracer.patch(owner, "dump_problem", "problem_io.dump_problem")
    for owner in (model, problem_io, random_problems, casestudy):
        tracer.patch(owner, "build_problem", "model.build_problem")
    tracer.patch(random_problems, "random_problem", "random_problems.random_problem")
    tracer.patch(casestudy, "build_case", "casestudy.build_case")
    tracer.patch(cli, "main", "cli.main")
    tracer.patch(dynamics.Trajectory, "write_csv", "dynamics.write_csv", rows_attrs)
