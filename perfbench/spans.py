"""In-memory spans recorded from outside the program, around its public calls.

:class:`Tracer.install` replaces a fixed set of public functions and
methods of the ``repro`` package with timing wrappers, and
:class:`Tracer.uninstall` puts the originals back.  Nothing under
``src/`` changes: every wrapper sits at the attribute the caller looks
up at call time.  A span records its name, start, end, parent span and
request id.  Parents follow a :class:`contextvars.ContextVar`, so the
concurrent client coroutines of the serve workload each keep their own
chain; the worker thread of a serve request is linked back to its
request through the identity of the request's ``RunConfig``, the one
object the service hands unchanged to :func:`repro.serve.workers.solve_job`.

A layer's self time is its span's duration minus the time its child
spans cover.  Spans stay in memory and are written out at the end as
JSON and as a Chrome trace (``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import contextvars
import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Spans the benchmark opens around its own units of work.  They are the
#: roots of every span tree; their self time is benchmark overhead and
#: counts against the layers' coverage.
ROOT_OP = "bench.op"
ROOT_SETUP = "bench.setup"

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class Span:
    """One timed call: ``[start, end)`` in ``time.perf_counter`` seconds."""

    id: int
    name: str
    start: float
    parent: int | None
    request: str | None
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while ``enabled``; costs one attribute test when not."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        # id(RunConfig) -> (request id, request span id) for requests in
        # flight; the client keeps the config alive until it completes.
        self._by_config: dict[int, tuple[str, int | None]] = {}

    # -- recording -------------------------------------------------------
    @contextmanager
    def span(self, name: str, *, request: str | None = None,
             parent: int | None = None):
        """Record one span around the ``with`` body (a no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        current = _CURRENT.get()
        if parent is None and current is not None:
            parent = current.id
            if request is None:
                request = current.request
        with self._lock:
            sp = Span(len(self.spans), name, time.perf_counter(), parent,
                      request, threading.get_ident())
            self.spans.append(sp)
        token = _CURRENT.set(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            _CURRENT.reset(token)

    @contextmanager
    def request(self, request_id: str, config):
        """Span one serve request and route its worker span back to it."""
        with self.span("serve.request", request=request_id) as sp:
            key = id(config)
            self._by_config[key] = (request_id, None if sp is None else sp.id)
            try:
                yield sp
            finally:
                self._by_config.pop(key, None)

    def _timed(self, name: str, fn, note=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                # ``enabled`` may flip on another thread after the test
                # above, in which case no span was opened.
                if note is not None and sp is not None:
                    note(sp, out)
                return out

        return wrapper

    def _timed_build(self, name: str, prop: property, product: str) -> property:
        """Wrap a lazy artefact property; keep the span only when it built."""
        fget = prop.fget

        def getter(bundle):
            if not self.enabled:
                return fget(bundle)
            before = bundle.build_counts.get(product, 0)
            with self.span(name) as sp:
                out = fget(bundle)
            if sp is not None and bundle.build_counts.get(product, 0) == before:
                sp.attrs["discard"] = True
            return out

        return property(getter, doc=prop.__doc__)

    def _solve_job(self, fn):
        @functools.wraps(fn)
        def wrapper(payload):
            if not self.enabled:
                return fn(payload)
            request_id, parent = self._by_config.get(
                id(payload.get("config")), (None, None)
            )
            with self.span("serve.worker", request=request_id, parent=parent):
                return fn(payload)

        return wrapper

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the public calls the per-layer metrics are timed around."""
        import repro.exec_model.artefacts as artefacts
        import repro.exec_model.timeline as timeline
        import repro.resilience.recovery as recovery
        import repro.serve.service as service
        import repro.serve.workers as workers
        import repro.solvers.des_solver as des_solver
        import repro.sparse.validate as validate
        from repro.runtime.config import RunConfig
        from repro.runtime.session import SolverSession

        def des_note(sp, ex):
            sp.attrs.update(
                events=int(ex.events),
                sim_time=float(ex.total_time),
                page_faults=int(ex.page_faults),
                trace_records=len(ex.trace.records),
            )

        def hit_note(sp, art):
            # get_artefacts counts a hit on the bundle it returns.
            sp.attrs["hit"] = art.hits > 0

        bundle = artefacts.AnalysisArtefacts
        self._patch(service, "build_workload",
                    self._timed("workloads.gen", service.build_workload))
        self._patch(artefacts, "get_artefacts", self._timed(
            "artefacts.build", artefacts.get_artefacts, hit_note))
        for prop in ("levels", "fronts", "edges"):
            self._patch(bundle, prop, self._timed_build(
                "artefacts.build", bundle.__dict__[prop], prop))
        self._patch(RunConfig, "build_distribution",
                    self._timed("tasks.dist", RunConfig.build_distribution))
        self._patch(bundle, "comm_costs",
                    self._timed("costs.build", bundle.comm_costs))
        self._patch(des_solver, "des_execute", self._timed(
            "des.playout", des_solver.des_execute, des_note))
        self._patch(timeline, "simulate_execution", self._timed(
            "fastmodel.price", timeline.simulate_execution))
        self._patch(validate, "residual_norm",
                    self._timed("residual.check", validate.residual_norm))
        self._patch(recovery, "residual_repair",
                    self._timed("residual.check", recovery.residual_repair))
        for method in ("solve", "simulate"):
            self._patch(SolverSession, method, self._timed(
                "session", SolverSession.__dict__[method]))
        self._patch(workers, "solve_job", self._solve_job(workers.solve_job))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- analysis --------------------------------------------------------
    def kept(self) -> list[Span]:
        return [s for s in self.spans if not s.attrs.get("discard")]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its children cover."""
        spans = self.kept()
        child = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None and s.parent in child:
                child[s.parent] += s.end - s.start
        return {s.id: max(0.0, s.end - s.start - child[s.id]) for s in spans}

    def roots(self) -> dict[int, Span]:
        """Span id -> the root span of its tree."""
        by_id = {s.id: s for s in self.spans}
        out: dict[int, Span] = {}
        for s in self.spans:
            chain = []
            cur = s
            while cur.parent is not None and cur.id not in out:
                chain.append(cur)
                cur = by_id[cur.parent]
            root = out.get(cur.id, cur)
            for c in chain + [cur]:
                out[c.id] = root
        return out

    # -- export ----------------------------------------------------------
    def write(self, json_path, chrome_path) -> None:
        """Write the spans as JSON and as a Chrome trace."""
        spans = self.kept()
        selfs = self.self_times()
        t0 = min((s.start for s in spans), default=0.0)
        threads: dict[int, int] = {}
        rows, events = [], []
        for s in spans:
            tid = threads.setdefault(s.thread, len(threads))
            rows.append({
                "id": s.id, "name": s.name, "start": s.start - t0,
                "end": s.end - t0, "parent": s.parent, "request": s.request,
                "self": selfs[s.id], "thread": tid, **s.attrs,
            })
            events.append({
                "name": s.name, "ph": "X", "pid": 1, "tid": tid,
                "ts": (s.start - t0) * 1e6, "dur": (s.end - s.start) * 1e6,
                "args": {"id": s.id, "parent": s.parent,
                         "request": s.request, **s.attrs},
            })
        with open(json_path, "w") as fh:
            json.dump({"spans": rows}, fh)
        with open(chrome_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
