"""The three workloads: what each sets up, runs and checks.

Every workload is built from ``--seed`` alone, except paper-fig7, whose
inputs are the fixed Table-I stand-ins.  A workload exposes:

* ``setup()`` — one cold set-up: generate and analyse every input, start
  the service where there is one, warm up once.  The runner times it
  several times and reports the median.
* ``window(seconds, tracer, ref, alternate)`` — the measured run.  It
  returns a :class:`Window`: one :class:`Op` per unit of work, each
  tagged with the reference sample taken just before it (see
  ``refclock.py``).  With ``alternate`` set (traced runs) half the work
  is recorded with spans and half without, so the tracing overhead is
  measured in the same process.
* ``check()`` — verify every output and collect the deterministic
  numbers, which must repeat exactly at a given seed.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from spans import ROOT_OP

#: Relative tolerance of a playout solution against serial forward
#: substitution: ``max|x - x_serial| <= RTOL * max(1, max|x_serial|)``.
#: The DES accumulates each ``left.sum`` in delivery order, so it may
#: differ from the serial order in the last bits, never by more.
RTOL = 1e-10

#: The four communication designs the serve mix cycles through.
DESIGNS = ("shmem_readonly", "shmem_naive", "unified", "stale_sync")


@dataclass
class Op:
    """One unit of measured work."""

    seconds: float
    traced: bool
    ok: bool = True
    span: int | None = None
    #: Index of the reference sample taken just before the op.
    ref: int = 0


@dataclass
class Window:
    """A measured window: its operations and its busy time.

    ``active`` lists ``(reference index, seconds)`` for the stretches in
    which operations ran, excluding the reference samples themselves.
    """

    ops: list[Op]
    active: list[tuple[int, float]]


@dataclass
class Check:
    """Outcome of :meth:`check`: counts plus the deterministic numbers."""

    attempted: int
    failed: int
    deterministic: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def geo_factor(ratios) -> float:
    """Geometric mean of ``max(r, 1/r)`` over ``ratios``, minus one."""
    logs = [abs(math.log(r)) for r in ratios]
    return math.exp(sum(logs) / len(logs)) - 1.0


def min_runs(alternate: bool) -> int:
    """Units a window runs however short it is: one per tracing side."""
    return 2 if alternate else 1


class Playout:
    """Warm ``SolverSession.solve`` on the sweep's scale-50k matrix."""

    name = "playout-50k"

    def __init__(self, seed: int):
        from repro.runtime import RunConfig

        self.seed = seed
        # The paper's zero-copy configuration, tracing off.
        self.config = RunConfig(
            design="shmem_readonly", distribution="taskpool", n_gpus=4,
            trace_enabled=False,
        )
        self.solved: list[tuple[np.ndarray, np.ndarray, object]] = []
        self.warm = None

    def _rhs(self, k: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, k])
        return rng.uniform(-1.0, 1.0, size=self.lower.shape[0])

    def setup(self, tracer) -> None:
        from repro.bench.dessweep import DES_CASES
        from repro.runtime import SolverSession
        from repro.workloads.generators import dag_profile_matrix

        with tracer.span("workloads.gen"):
            self.lower = dag_profile_matrix(**DES_CASES["scale-50k"])
        self.session = SolverSession(self.config)
        b = self._rhs(0)
        self.warm = self.session.solve(self.lower, b)
        self.solved = [(b, self.warm.x, self.warm)]

    def window(self, seconds, tracer, ref, alternate):
        """Solve back to back, a reference sample before each solve.

        With ``alternate``, every other solve runs with spans on.
        """
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(ops) < min_runs(alternate):
            index = ref.sample()
            traced = alternate and len(ops) % 2 == 1
            b = self._rhs(len(self.solved))
            tracer.enabled = traced
            with tracer.span(ROOT_OP) as sp:
                t0 = time.perf_counter()
                res = self.session.solve(self.lower, b)
                dt = time.perf_counter() - t0
            tracer.enabled = False
            self.solved.append((b, res.x, res))
            ops.append(Op(dt, traced, True, None if sp is None else sp.id, index))
        ref.sample()
        return Window(ops, [(op.ref, op.seconds) for op in ops])

    def check(self) -> Check:
        from repro.solvers.serial import serial_forward

        out = Check(attempted=len(self.solved) - 1, failed=0)
        warm = self.warm
        for k, (b, x, res) in enumerate(self.solved):
            ref = serial_forward(self.lower, b)
            err = float(np.max(np.abs(x - ref)))
            bad = err > RTOL * max(1.0, float(np.max(np.abs(ref))))
            drift = (
                res.execution.events != warm.execution.events
                or res.execution.total_time != warm.execution.total_time
            )
            if bad or drift:
                out.problems.append(
                    f"solve {k}: max error {err:.3e}, events "
                    f"{res.execution.events}, time {res.execution.total_time!r}"
                )
                if k:
                    out.failed += 1
        ex, report = warm.execution, warm.report
        r = report.total_time / ex.total_time
        out.deterministic = {
            "des.events": int(ex.events),
            "des.sim_time_us": float(ex.total_time) * 1e6,
            "des.page_faults": int(ex.page_faults),
            "fastmodel.total_us": float(report.total_time) * 1e6,
            "fastmodel.err.shmem_readonly": geo_factor([r]),
            "fastmodel_err": geo_factor([r]),
        }
        return out

    def close(self) -> None:
        pass


class ServeMixed:
    """Closed-loop clients on ``SolveService`` over 3 matrices x 4 designs."""

    name = "serve-mixed"

    #: Seconds of closed-loop traffic between reference samples.
    SEGMENT_S = 2.0

    def __init__(self, seed: int):
        from repro.runtime import RunConfig

        self.seed = seed
        # Sizes are fixed so that the seed changes structure, not the
        # amount of work; it draws each generator's own seed.
        seeds = [int(v) for v in np.random.default_rng(seed).integers(1 << 30, size=3)]
        self.specs = (
            {"generator": "random", "n": 5000, "seed": seeds[0]},
            {"generator": "banded", "n": 5000, "bandwidth": 12, "fill": 0.5,
             "seed": seeds[1]},
            {"generator": "grid", "rows": 70, "cols": 70, "seed": seeds[2]},
        )
        # The default RunConfig a client gets (tracing on), per design.
        self.cells = [
            (spec, RunConfig(design=design))
            for spec in self.specs
            for design in DESIGNS
        ]
        self.clients = os.cpu_count() or 1
        self.loop = asyncio.new_event_loop()
        self.service = None
        self.responses: list[tuple[int, bytes]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.snapshot = None
        self._next = 0

    def _rhs(self, cell: int) -> dict:
        # One right-hand side per cell: the check then pays one direct
        # solve per cell to compare every response against.
        return {"seed": self.seed * 1000 + cell}

    async def _request(self, tracer, cell: int) -> bool:
        """Submit one request and encode its response; True when ok."""
        from repro.errors import ReproError
        from repro.serve.request import SolveRequest

        spec, config = self.cells[cell]
        config = replace(config)  # own identity: links the worker span
        rid = f"r{self.attempted}"
        self.attempted += 1
        request = SolveRequest(
            config=config, workload=dict(spec),
            rhs=self._rhs(cell), request_id=rid,
        )
        try:
            with tracer.request(rid, config):
                result = await self.service.submit(request)
            with tracer.span("serve.encode"):
                json.dumps(result.to_mapping())
        except ReproError as err:
            self.failed += 1
            self.errors.append(f"{rid}: {type(err).__name__}: {err}")
            return False
        if result.status != "ok":
            self.failed += 1
            self.errors.append(f"{rid}: status {result.status}")
            return False
        self.responses.append((cell, result.x.tobytes()))
        return True

    async def _setup(self, tracer) -> None:
        from repro.serve.service import SolveService

        self.service = SolveService()
        await self.service.start()
        for cell in range(len(self.cells)):
            await self._request(tracer, cell)

    def setup(self, tracer) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
        self.loop.run_until_complete(self._setup(tracer))

    async def _client(self, tracer, until, index, ops):
        """Send, await, repeat; at least once, then until ``until``."""
        while True:
            cell = self._next % len(self.cells)
            self._next += 1
            with tracer.span(ROOT_OP) as sp:
                t0 = time.perf_counter()
                ok = await self._request(tracer, cell)
                dt = time.perf_counter() - t0
            ops.append(Op(dt, tracer.enabled, ok,
                          None if sp is None else sp.id, index))
            if time.perf_counter() >= until:
                return

    async def _window(self, seconds, tracer, ref, alternate):
        """Closed-loop segments of :data:`SEGMENT_S`, reference between.

        Each segment ends when its last request completes, so nothing is
        in flight while the reference runs or while spans switch.
        """
        ops: list[Op] = []
        active: list[tuple[int, float]] = []
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline
               or len(active) < min_runs(alternate)):
            index = ref.sample()
            tracer.enabled = alternate and len(active) % 2 == 1
            t0 = time.perf_counter()
            until = min(t0 + self.SEGMENT_S, deadline)
            await asyncio.gather(*(
                self._client(tracer, until, index, ops)
                for _ in range(self.clients)
            ))
            tracer.enabled = False
            active.append((index, time.perf_counter() - t0))
        ref.sample()
        self.snapshot = self.service.snapshot()
        return Window(ops, active)

    def window(self, seconds, tracer, ref, alternate):
        return self.loop.run_until_complete(
            self._window(seconds, tracer, ref, alternate))

    def check(self) -> Check:
        from repro.runtime import SolverSession
        from repro.serve.request import SolveRequest, build_workload

        out = Check(attempted=self.attempted, failed=self.failed,
                    problems=list(self.errors))
        expected: dict[int, bytes] = {}
        per_design: dict[str, list[float]] = {d: [] for d in DESIGNS}
        ratios = []
        events = faults = 0
        sim_time = fast_time = 0.0
        matrices = {}
        for cell, (spec, config) in enumerate(self.cells):
            key = json.dumps(spec, sort_keys=True)
            if key not in matrices:
                matrices[key] = build_workload(spec)
            lower = matrices[key]
            session = SolverSession(config)
            request = SolveRequest(config=config, workload=dict(spec),
                                   rhs=self._rhs(cell))
            res = session.solve(lower, request.resolve_rhs(lower.shape[0]),
                                with_report=False)
            expected[cell] = res.x.tobytes()
            ex = res.execution
            report = session.simulate(lower)
            r = report.total_time / ex.total_time
            ratios.append(r)
            per_design[config.design.value].append(r)
            events += int(ex.events)
            faults += int(ex.page_faults)
            sim_time += float(ex.total_time)
            fast_time += float(report.total_time)
        for cell, x in self.responses:
            if x != expected[cell]:
                out.failed += 1
                out.problems.append(
                    f"cell {cell}: response differs from direct solve")
        out.deterministic = {
            "des.events": events,
            "des.sim_time_us": sim_time * 1e6,
            "des.page_faults": faults,
            "fastmodel.total_us": fast_time * 1e6,
            **{f"fastmodel.err.{d}": geo_factor(v)
               for d, v in per_design.items()},
            "fastmodel_err": geo_factor(ratios),
            "cells.fastmodel_over_des": [round(r, 6) for r in ratios],
        }
        return out

    def close(self) -> None:
        if self.service is not None:
            self.loop.run_until_complete(self.service.stop())
        self.loop.close()


#: The paper's Fig. 7 scenarios: (machine, design, distribution,
#: tasks per GPU); machines are "um" (no P2P requirement) or "sh".
FIG7_SCENARIOS = {
    "unified": ("um", "unified", "block", None),
    "unified+task": ("um", "unified", "taskpool", 8),
    "shmem": ("sh", "shmem_readonly", "block", None),
    "zerocopy": ("sh", "shmem_readonly", "taskpool", 8),
}

#: The Fig. 7 aggregates ``docs/calibration.md`` fitted the model to.
PAPER_FIG7 = {
    "unified+task": 0.89, "shmem": 2.33, "zerocopy": 3.53, "zerocopy_max": 9.86,
}


class PaperFig7:
    """Fast-model pricing of all of Fig. 7, from cold Table-I stand-ins."""

    name = "paper-fig7"

    #: Pricings between reference samples (one pricing takes ~0.15 s).
    REF_EVERY = 4

    def __init__(self, seed: int):
        # The Table-I stand-ins are fixed: the seed does not apply.
        self.figures: list[dict] = []

    def setup(self, tracer) -> None:
        from repro.exec_model.artefacts import get_artefacts
        from repro.machine.node import dgx1
        from repro.workloads import suite

        suite.load.cache_clear()
        self.machines = {"um": dgx1(4, require_p2p=False), "sh": dgx1(4)}
        self.matrices = {}
        for name in suite.IN_MEMORY_NAMES:
            with tracer.span("workloads.gen"):
                lower = suite.load(name)
            art = get_artefacts(lower)
            for product in ("levels", "fronts", "edges"):
                getattr(art, product)
            for machine, design, _, _ in FIG7_SCENARIOS.values():
                art.comm_costs(self.machines[machine], design)
            self.matrices[name] = lower

    @property
    def figure_size(self) -> int:
        """Cells priced per figure."""
        return len(self.matrices) * len(FIG7_SCENARIOS)

    def _cells(self):
        for name, lower in self.matrices.items():
            for scenario, spec in FIG7_SCENARIOS.items():
                yield name, scenario, lower, spec

    def window(self, seconds, tracer, ref, alternate):
        from repro.runtime import RunConfig, SolverSession

        cells = list(self._cells())
        ops: list[Op] = []
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline
               or len(self.figures) < min_runs(alternate)):
            # Alternate spans per figure, so each figure is priced whole
            # on one side of the overhead comparison.
            traced = alternate and len(self.figures) % 2 == 1
            totals, figure = {}, []
            for k, (name, scenario, lower, spec) in enumerate(cells):
                if (time.perf_counter() >= deadline
                        and len(self.figures) >= min_runs(alternate)):
                    break
                if k % self.REF_EVERY == 0:
                    index = ref.sample()
                machine, design, dist, tpg = spec
                tracer.enabled = traced
                with tracer.span(ROOT_OP) as sp:
                    t0 = time.perf_counter()
                    config = RunConfig(
                        machine=self.machines[machine], design=design,
                        distribution=dist, tasks_per_gpu=tpg,
                    )
                    report = SolverSession(config).simulate(lower)
                    dt = time.perf_counter() - t0
                tracer.enabled = False
                totals[name, scenario] = float(report.total_time)
                figure.append(
                    Op(dt, traced, True, None if sp is None else sp.id, index))
            if len(figure) == len(cells):
                # Only whole figures count, so every run samples the
                # same set of cells.
                ops.extend(figure)
                self.figures.append(totals)
        ref.sample()
        return Window(ops, [(op.ref, op.seconds) for op in ops])

    def check(self) -> Check:
        out = Check(attempted=sum(len(f) for f in self.figures), failed=0)
        if not self.figures:
            out.problems.append("no complete figure in the window")
            return out
        first = self.figures[0]
        for i, totals in enumerate(self.figures):
            for key, t in totals.items():
                if not (math.isfinite(t) and t > 0.0) or t != first[key]:
                    out.failed += 1
                    out.problems.append(f"figure {i} cell {key}: {t!r}")
        names = list(self.matrices)
        speedup = {
            s: [first[n, "unified"] / first[n, s] for n in names]
            for s in FIG7_SCENARIOS
        }
        agg = {
            "unified+task": _geomean(speedup["unified+task"]),
            "shmem": _geomean(speedup["shmem"]),
            "zerocopy": _geomean(speedup["zerocopy"]),
            "zerocopy_max": max(speedup["zerocopy"]),
        }
        out.deterministic = {
            "fastmodel.total_us": sum(first.values()) * 1e6,
            **{f"fig7.{k.replace('+', '_')}": v for k, v in agg.items()},
            "paper_gap": geo_factor(agg[k] / PAPER_FIG7[k] for k in PAPER_FIG7),
        }
        return out

    def close(self) -> None:
        pass


def _geomean(values) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


WORKLOADS = {w.name: w for w in (Playout, ServeMixed, PaperFig7)}
