"""Chaos harness: fault-scenario matrix over designs × distributions.

Sweeps a deterministic fault-scenario matrix (≥5 fault kinds) across
execution designs (``unified`` / ``zerocopy`` / ``stale``) and task
distributions (``block`` / ``taskpool`` / ``costaware``), asserting the
resilience contract cell by cell: every run either **recovers to a
bit-correct solution** or **fails with a typed**
:class:`~repro.errors.ReproError` — never hangs, never returns a
silently wrong answer.

Bitwise oracle
--------------
The workload is :func:`repro.workloads.generators.forest_lower`: every
row has at most one off-diagonal entry, so ``left.sum`` is a single
product and no fault-induced delivery reordering can reassociate a
floating-point sum.  A recovered run must therefore match the serial
forward substitution — and the cell's own unfaulted baseline — *bit for
bit*; ``"close enough"`` does not exist here, which is exactly what
keeps silent corruption from hiding behind round-off.  The one
principled exception is the ``"certify"`` expectation: a silent
corruption whose backward error sits below the recovery policy's
residual ceiling is provably invisible to any residual test, so those
cells accept "bitwise, or certified within the ceiling".  The
``stale`` design gets the same treatment against its (much tighter)
:class:`~repro.engine.protocol.StalePolicy` ceiling: a sub-ceiling
stale read is deliberately not replayed, so a faulted run may land on
a different — equally certified — sub-ceiling solution than the
unfaulted baseline.

Scenario windows scale with the cell's unfaulted makespan ``T`` so the
same scenario list stresses every design/distribution at comparable
phases of the solve.  In full (non-``quick``) mode every cell is run on
*both* DES engines and the pair must agree bitwise (solution, makespan,
event count) or on the same typed error — the fault-injection paths are
held to the same bit-equality contract as the clean ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import (
    DeadlockError,
    RecoveryExhaustedError,
    ReproError,
    SolverError,
)
from repro.resilience.faults import FaultKind, FaultPlan, FaultSpec
from repro.resilience.recovery import RecoveryPolicy
from repro.resilience.watchdog import Watchdog

__all__ = [
    "ChaosScenario",
    "ChaosCell",
    "ChaosReport",
    "axes_from_config",
    "default_scenarios",
    "run_chaos_matrix",
]

#: Scenario subset exercised by ``run_chaos_matrix(quick=True)`` (CI).
QUICK_SCENARIOS = (
    "msg_drop",
    "bitflip_silent",
    "gpu_fail_remap",
    "drop_noretry",
    "livelock_watchdog",
)

#: Designs under test: exact unified-memory page table, the read-only
#: zero-copy NVSHMEM design (the paper's two endpoints), and its
#: stale-synchronous variant with post-hoc validation.
DESIGNS = ("unified", "zerocopy", "stale")
#: Distributions under test: contiguous blocks, the paper's task pool,
#: and the cost-aware LPT placement.
DISTRIBUTIONS = ("block", "taskpool", "costaware")


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault scenario.

    ``plan_of`` maps the cell's unfaulted makespan ``T`` to a
    :class:`FaultPlan`, so windows and failure times land at comparable
    solve phases across designs/distributions.  ``expect`` is
    ``"recover"`` (bit-correct solution required), ``"certify"``
    (bit-correct, or — for silent corruption the residual check provably
    cannot see — backward error within the recovery policy's ceiling),
    or ``"error"`` (one of ``expected_errors`` must be raised).
    """

    name: str
    plan_of: Callable[[float], FaultPlan]
    recovery: RecoveryPolicy = field(default_factory=RecoveryPolicy)
    expect: str = "recover"
    expected_errors: tuple = (ReproError,)


def default_scenarios(quick: bool = False) -> list[ChaosScenario]:
    """The standard scenario list (all seven fault kinds + loud-failure
    and watchdog cells); ``quick`` selects the CI subset."""
    s = []

    def add(name, plan_of, expect="recover", recovery=None, errors=None):
        s.append(
            ChaosScenario(
                name=name,
                plan_of=plan_of,
                recovery=recovery if recovery is not None else RecoveryPolicy(),
                expect=expect,
                expected_errors=tuple(errors) if errors else (ReproError,),
            )
        )

    add(
        "link_down",
        lambda T: FaultPlan.single(
            FaultKind.LINK_DOWN, t_start=0.05 * T, t_end=0.35 * T
        ),
    )
    add(
        "bandwidth_x8",
        lambda T: FaultPlan.single(FaultKind.BANDWIDTH, factor=8.0),
    )
    add(
        "msg_drop",
        lambda T: FaultPlan.single(FaultKind.MSG_DROP, rate=0.3, seed=11),
    )
    add(
        "msg_delay",
        lambda T: FaultPlan.single(
            FaultKind.MSG_DELAY, rate=0.3, extra_delay=0.25 * T, seed=12
        ),
    )
    add(
        "bitflip_checksum",
        lambda T: FaultPlan.single(FaultKind.BITFLIP, count=2, bit=23, seed=13),
    )
    # Silent corruption is only repairable when it is *detectable*: a
    # flip on a contribution that is tiny relative to its row's scale
    # sits below any backward-error ceiling, so the contract here is
    # "certify", not unconditional bitwise recovery.
    add(
        "bitflip_silent",
        lambda T: FaultPlan.single(FaultKind.BITFLIP, count=1, bit=30, seed=14),
        recovery=RecoveryPolicy(detect_corruption=False),
        expect="certify",
    )
    add(
        "straggler_x16",
        lambda T: FaultPlan.single(
            FaultKind.STRAGGLER, gpu=1, factor=16.0, t_start=0.0, t_end=0.6 * T
        ),
    )
    add(
        "gpu_fail_remap",
        lambda T: FaultPlan.single(FaultKind.GPU_FAIL, gpu=2, t_start=0.25 * T),
    )
    # Loud-failure cells: recovery deliberately hobbled — the contract is
    # a typed error, never a hang and never a wrong answer.
    add(
        "drop_noretry",
        lambda T: FaultPlan.single(FaultKind.MSG_DROP, rate=1.0, seed=15),
        expect="error",
        recovery=RecoveryPolicy(retry=False),
        errors=(DeadlockError, SolverError),
    )
    add(
        "gpu_fail_noremap",
        lambda T: FaultPlan.single(FaultKind.GPU_FAIL, gpu=1, t_start=0.05 * T),
        expect="error",
        recovery=RecoveryPolicy(remap_on_failure=False),
        errors=(DeadlockError, SolverError),
    )
    add(
        "retry_exhausted",
        lambda T: FaultPlan.single(
            FaultKind.MSG_DROP, rate=1.0, repeats=12, seed=16
        ),
        expect="error",
        recovery=RecoveryPolicy(max_retries=4),
        errors=(RecoveryExhaustedError,),
    )
    # The watchdog itself under test: a permanent outage turns the
    # busy-wait protocol into a livelock only the stall detector can end.
    add(
        "livelock_watchdog",
        lambda T: FaultPlan.single(FaultKind.LINK_DOWN, t_start=0.02 * T),
        expect="error",
        errors=(DeadlockError,),
    )
    if quick:
        s = [sc for sc in s if sc.name in QUICK_SCENARIOS]
    return s


@dataclass(frozen=True)
class ChaosCell:
    """Outcome of one (scenario × design × distribution) cell."""

    scenario: str
    design: str
    dist: str
    engine: str
    expect: str
    outcome: str
    ok: bool
    error_type: str = ""
    error: str = ""
    repaired: int = 0
    residual: float = 0.0
    events: int = 0
    total_time: float = 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "design": self.design,
            "dist": self.dist,
            "engine": self.engine,
            "expect": self.expect,
            "outcome": self.outcome,
            "ok": self.ok,
            "error_type": self.error_type,
            "error": self.error,
            "repaired": self.repaired,
            "residual": self.residual,
            "events": self.events,
            "total_time": self.total_time,
        }


@dataclass(frozen=True)
class ChaosReport:
    """Full scenario-matrix result (JSON-able CI artefact)."""

    n: int
    seed: int
    quick: bool
    cells: tuple[ChaosCell, ...]

    @property
    def green(self) -> bool:
        return all(c.ok for c in self.cells)

    @property
    def failed(self) -> tuple[ChaosCell, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "seed": self.seed,
            "quick": self.quick,
            "green": self.green,
            "cells": [c.to_dict() for c in self.cells],
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.cells:
            mark = "ok " if c.ok else "RED"
            if c.outcome == "recovered":
                extra = f"x bit-correct, residual {c.residual:.2e}"
            elif c.outcome == "certified":
                extra = f"sub-ceiling corruption, residual {c.residual:.2e}"
            else:
                extra = f"{c.error_type}: {c.error[:60]}"
            lines.append(
                f"[{mark}] {c.scenario:18s} {c.design:8s} {c.dist:9s} "
                f"{c.engine:9s} -> {c.outcome:15s} {extra}"
            )
        ok = sum(1 for c in self.cells if c.ok)
        lines.append(f"{ok}/{len(self.cells)} cells green")
        return lines


def _distributions(lower, n_gpus: int, machine) -> dict:
    from repro.tasks.schedule import (
        block_distribution,
        costaware_distribution,
        round_robin_distribution,
    )

    n = lower.shape[0]
    return {
        "block": block_distribution(n, n_gpus),
        "taskpool": round_robin_distribution(n, n_gpus, tasks_per_gpu=2),
        # One pricing (the default read-only design) serves every cell:
        # placement is a heuristic, correctness is placement-invariant.
        "costaware": costaware_distribution(lower, n_gpus, machine),
    }


def _design(name: str):
    from repro.exec_model.costmodel import Design

    return {
        "unified": Design.UNIFIED,
        "zerocopy": Design.SHMEM_READONLY,
        "stale": Design.STALE_SYNC,
    }[name]


def axes_from_config(config) -> dict:
    """Map a :class:`~repro.runtime.RunConfig` onto chaos-matrix axes.

    The config's single-valued knobs pin the matching axis to a
    one-element tuple: ``design`` → ``designs``, ``distribution`` →
    ``dists``, ``engine`` → ``engines`` (``"auto"`` keeps the default
    per-mode engine axis).  Designs the matrix has no vocabulary for
    (``shmem_naive``) raise :class:`~repro.errors.ConfigurationError`.
    """
    from repro.errors import ConfigurationError
    from repro.exec_model.costmodel import Design

    design_names = {
        Design.UNIFIED: "unified",
        Design.SHMEM_READONLY: "zerocopy",
        Design.STALE_SYNC: "stale",
    }
    if config.design not in design_names:
        raise ConfigurationError(
            f"chaos matrix has no axis for design {config.design.value!r}; "
            "valid choices: unified, zerocopy, stale",
            parameter="design",
            value=config.design.value,
            choices=tuple(d.value for d in design_names),
        )
    axes: dict = {
        "designs": (design_names[config.design],),
        "dists": (config.distribution,),
    }
    if config.engine != "auto":
        axes["engines"] = (config.engine,)
    return axes


def _run_one(lower, b, dist, machine, design, scenario, T, engine, wall_limit):
    """One faulted, recovered run; returns (result, error)."""
    from repro.runtime.session import resilient_run

    watchdog = Watchdog(
        stall_horizon=max(50.0 * T, 1.0), wall_limit=wall_limit
    )
    try:
        res = resilient_run(
            lower,
            b,
            dist,
            machine,
            design,
            plan=scenario.plan_of(T),
            recovery=scenario.recovery,
            watchdog=watchdog,
            engine=engine,
            trace_enabled=False,
        )
        return res, None
    except ReproError as err:
        return None, err


def _judge(
    scenario, x_base, res, err, stale_ceiling=None
) -> tuple[str, bool, dict]:
    """Classify one run against the scenario's expectation.

    ``stale_ceiling`` (set for ``stale_sync`` cells) additionally
    certifies non-bitwise solutions whose backward error sits below the
    stale policy's ceiling: faults move the stale-read set, and
    sub-ceiling stale reads are deliberately left unreplayed.
    """
    info: dict = {}
    if err is not None:
        info["error_type"] = type(err).__name__
        info["error"] = str(err)
        if isinstance(err, scenario.expected_errors):
            ok = scenario.expect == "error"
            return "typed_error", ok, info
        return "unexpected_error", False, info
    info["repaired"] = len(res.repaired)
    info["residual"] = float(res.residual)
    info["events"] = int(res.execution.events)
    info["total_time"] = float(res.execution.total_time)
    if scenario.expect == "error" and stale_ceiling is None:
        return "recovered_unexpectedly", False, info
    # The stale design may legitimately outlive loud failures that
    # deadlock the strict designs: a component missing <= k
    # contributions launches anyway, and the validation pass replays
    # whatever the failure left wrong — so a loud-failure cell is green
    # on a typed error *or* a bitwise/certified recovery.
    if res.x.tobytes() == x_base.tobytes():
        return "recovered", True, info
    # Sub-ceiling corruption is numerically invisible to any
    # backward-error test, so it can only be certified, not repaired.
    ceiling = 0.0
    if scenario.expect == "certify":
        ceiling = scenario.recovery.residual_ceiling
    if stale_ceiling is not None:
        ceiling = max(ceiling, stale_ceiling)
    if ceiling and res.residual <= ceiling:
        return "certified", True, info
    return "bit_mismatch", False, info


def run_chaos_matrix(
    n: int = 64,
    seed: int = 7,
    quick: bool = False,
    n_gpus: int = 4,
    scenarios: Sequence[ChaosScenario] | None = None,
    designs: Sequence[str] = DESIGNS,
    dists: Sequence[str] = DISTRIBUTIONS,
    wall_limit: float = 60.0,
    engines: Sequence[str] | None = None,
) -> ChaosReport:
    """Run the chaos matrix and return the per-cell report.

    ``quick`` shrinks both axes for CI: the :data:`QUICK_SCENARIOS`
    subset, a smaller system, and the ``auto`` engine per cell.  A full
    run executes every cell on *both* engines and requires them to agree
    bitwise (or on the same typed error), folding the engine-parity
    contract into the chaos sweep itself.  ``engines`` overrides the
    per-cell engine axis (``tools/chaos.py --config`` pins one engine
    through it).

    Never hangs: every run carries a fresh :class:`Watchdog` with a
    simulated-time stall horizon and a ``wall_limit`` real-seconds guard.
    """
    from repro.machine.node import dgx1
    from repro.solvers.serial import serial_forward
    from repro.workloads.generators import forest_lower

    if quick:
        n = min(n, 40)
    lower = forest_lower(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    b = rng.uniform(-1.0, 1.0, size=n)
    x_serial = serial_forward(lower, b)
    machine = dgx1(n_gpus)
    if scenarios is None:
        scenarios = default_scenarios(quick=quick)
    if engines is None:
        engines = ("auto",) if quick else ("reference", "array")
    else:
        engines = tuple(engines)

    cells: list[ChaosCell] = []
    dist_map = _distributions(lower, n_gpus, machine)
    for dist_name in dists:
        dist = dist_map[dist_name]
        # Loud-failure scenarios drop cross-GPU traffic with rate 1.0;
        # a distribution with no cross edge would quietly pass them.
        src = np.repeat(
            np.arange(n, dtype=np.int64), np.diff(lower.indptr)
        )
        cross = int(
            np.sum(
                (dist.gpu_of[src] != dist.gpu_of[lower.indices])
            )
        )
        if cross == 0:
            raise SolverError(
                f"chaos matrix misconfigured: distribution {dist_name!r} "
                "has no cross-GPU edge to fault"
            )
        for design_name in designs:
            design = _design(design_name)
            stale_ceiling = None
            if design_name == "stale":
                from repro.engine.protocol import DEFAULT_STALE_POLICY

                stale_ceiling = DEFAULT_STALE_POLICY.ceiling
            # Unfaulted baseline per engine: the bitwise reference each
            # recovered run must reproduce.  On the forest workload it
            # must itself match serial forward substitution bit-for-bit
            # — except under the stale design, where a sub-ceiling stale
            # read is deliberately left unreplayed and the baseline is
            # instead certified against the (tight) stale ceiling.
            base: dict = {}
            for engine in engines:
                from repro.runtime.session import resilient_run

                base[engine] = resilient_run(
                    lower,
                    b,
                    dist,
                    machine,
                    design,
                    plan=None,
                    engine=engine,
                    trace_enabled=False,
                )
                if base[engine].x.tobytes() != x_serial.tobytes():
                    certified = (
                        stale_ceiling is not None
                        and base[engine].residual <= stale_ceiling
                    )
                    if not certified:
                        raise SolverError(
                            "chaos harness invariant broken: unfaulted "
                            f"{engine} DES solve differs bitwise from the "
                            "serial oracle on a forest system"
                        )
            for scenario in scenarios:
                runs = {}
                for engine in engines:
                    T = float(base[engine].execution.total_time)
                    res, err = _run_one(
                        lower, b, dist, machine, design,
                        scenario, T, engine, wall_limit,
                    )
                    outcome, ok, info = _judge(
                        scenario, base[engine].x, res, err,
                        stale_ceiling=stale_ceiling,
                    )
                    runs[engine] = (outcome, ok, info)
                # Cross-engine agreement (full mode): every engine must
                # match the first one — same outcome, and bit-identical
                # observables on recovered runs.
                (o0, ok0, i0) = runs[engines[0]]
                for other in engines[1:]:
                    (o1, _ok1, i1) = runs[other]
                    agree = o0 == o1 and i0.get("error_type") == i1.get(
                        "error_type"
                    )
                    if agree and o0 in ("recovered", "certified"):
                        agree = (
                            i0["events"] == i1["events"]
                            and i0["total_time"] == i1["total_time"]
                        )
                    if not agree:
                        o0, ok0 = "engine_divergence", False
                        i0 = {
                            "error": (
                                f"{engines[0]}={runs[engines[0]]} "
                                f"{other}={runs[other]}"
                            )
                        }
                        break
                cells.append(
                    ChaosCell(
                        scenario=scenario.name,
                        design=design_name,
                        dist=dist_name,
                        engine="+".join(engines),
                        expect=scenario.expect,
                        outcome=o0,
                        ok=ok0,
                        error_type=i0.get("error_type", ""),
                        error=i0.get("error", ""),
                        repaired=i0.get("repaired", 0),
                        residual=i0.get("residual", 0.0),
                        events=i0.get("events", 0),
                        total_time=i0.get("total_time", 0.0),
                    )
                )
    return ChaosReport(n=n, seed=seed, quick=quick, cells=tuple(cells))
