"""Closed-loop load generator for the solve service.

Drives a :class:`~repro.serve.service.SolveService` with ``concurrency``
closed-loop clients (each sends, awaits, classifies, repeats — so the
in-flight count is the client count until the request budget drains)
and reports the service-level objectives this PR is accountable for:

* **latency** — p50/p99 over successfully served requests;
* **goodput** — served responses (exact or certified-degraded) per
  wall-clock second;
* **outcome census** — every request ends in exactly one bucket:
  ``ok``, ``degraded``, or a typed-error class.  Nothing hangs; a hung
  request would show up as a missing census entry and fail the bench.

:func:`run_bench` runs the three-way comparison behind
``BENCH_serve.json``: a clean baseline, then the same loud solve-level
fault plan served twice — once with degradation consent and once
hard-fail — asserting the degradation ladder buys strictly more goodput
than failing fast does under identical faults.

Timer noise is handled the same way as the fast-model bench: the p99
ceiling on the clean case is only *enforced* when the run looks clean
(latency coefficient-of-variation under ``NOISE_CV``); a noisy run
downgrades the check to a warning flag in the payload.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from repro.errors import ReproError
from repro.resilience.faults import FaultKind, FaultPlan
from repro.resilience.recovery import RecoveryPolicy
from repro.runtime.config import RunConfig
from repro.serve.request import SolveRequest
from repro.serve.service import SolveService

__all__ = ["run_case", "run_bench", "DEADLOCK_CONFIG"]

#: Latency cv above which the p99 ceiling is reported but not enforced.
NOISE_CV = 1.0

#: Clean-case p99 ceiling (seconds) for the perf-smoke gate.
P99_CEILING = 10.0


def DEADLOCK_CONFIG(**overrides) -> RunConfig:
    """A config whose every solve deterministically deadlocks.

    ``MSG_DROP`` at rate 1.0 with retry disabled starves dependants
    loudly (the chaos suite's canonical structural failure); the
    simulated-time watchdog bounds detection.
    """
    base = dict(
        plan=FaultPlan.single(FaultKind.MSG_DROP, seed=5, rate=1.0),
        recovery=RecoveryPolicy(retry=False),
        watchdog_stall_horizon=10.0,
    )
    base.update(overrides)
    return RunConfig(**base)


async def _drive(
    service: SolveService,
    *,
    workload: dict,
    config: RunConfig,
    requests: int,
    concurrency: int,
    allow_degraded: bool,
    deadline: float,
) -> dict:
    """Run one closed-loop case against an already-started service."""
    counter = {"next": 0, "inflight": 0, "max_inflight": 0}
    latencies: list[float] = []
    outcomes: dict[str, int] = {}
    lock = asyncio.Lock()

    async def client(cid: int) -> None:
        while True:
            async with lock:
                i = counter["next"]
                if i >= requests:
                    return
                counter["next"] += 1
            request = SolveRequest(
                config=config,
                workload=workload,
                rhs={"seed": i},
                deadline=deadline,
                allow_degraded=allow_degraded,
                request_id=f"c{cid}-r{i}",
            )
            counter["inflight"] += 1
            counter["max_inflight"] = max(
                counter["max_inflight"], counter["inflight"]
            )
            t0 = time.monotonic()
            try:
                result = await service.submit(request)
            except ReproError as err:
                key = type(err).__name__
                outcomes[key] = outcomes.get(key, 0) + 1
            else:
                latencies.append(time.monotonic() - t0)
                outcomes[result.status] = outcomes.get(result.status, 0) + 1
            finally:
                counter["inflight"] -= 1

    t_start = time.monotonic()
    await asyncio.gather(*(client(c) for c in range(concurrency)))
    wall = time.monotonic() - t_start

    served = outcomes.get("ok", 0) + outcomes.get("degraded", 0)
    lat = np.asarray(latencies, dtype=np.float64)
    accounted = sum(outcomes.values())
    return {
        "requests": requests,
        "accounted": accounted,
        "complete": accounted == requests,
        "concurrency": concurrency,
        "max_inflight": counter["max_inflight"],
        "wall_time": wall,
        "served": served,
        "goodput": served / wall if wall > 0 else 0.0,
        "p50_latency": float(np.percentile(lat, 50)) if len(lat) else None,
        "p99_latency": float(np.percentile(lat, 99)) if len(lat) else None,
        "latency_cv": (
            float(lat.std() / lat.mean())
            if len(lat) > 1 and lat.mean() > 0
            else 0.0
        ),
        "outcomes": dict(sorted(outcomes.items())),
    }


def run_case(
    *,
    workload: dict,
    config: RunConfig | None = None,
    requests: int = 32,
    concurrency: int = 16,
    allow_degraded: bool = True,
    deadline: float = 30.0,
    service_kwargs: dict | None = None,
) -> dict:
    """One closed-loop case on a fresh service (sync entry point)."""

    async def _run() -> dict:
        async with SolveService(**(service_kwargs or {})) as service:
            case = await _drive(
                service,
                workload=workload,
                config=config or RunConfig(),
                requests=requests,
                concurrency=concurrency,
                allow_degraded=allow_degraded,
                deadline=deadline,
            )
            case["service"] = service.snapshot()
            return case

    return asyncio.run(_run())


def run_bench(
    *,
    n: int = 48,
    requests: int = 120,
    concurrency: int = 110,
    deadline: float = 60.0,
    queue_depth: int = 256,
) -> dict:
    """The BENCH_serve three-way: clean vs degraded vs hard-fail.

    The clean case sizes its concurrency to the acceptance target
    (>= 100 concurrent in-flight solves); both faulted cases run the
    same deterministic-deadlock plan so the goodput comparison isolates
    exactly one variable — degradation consent.
    """
    workload = {"generator": "forest", "n": n, "seed": 3}
    service_kwargs = {"queue_depth": queue_depth, "breaker_threshold": 3}

    clean = run_case(
        workload=workload,
        requests=requests,
        concurrency=concurrency,
        deadline=deadline,
        service_kwargs=service_kwargs,
    )
    faulted = DEADLOCK_CONFIG()
    # Fewer requests for the faulted cases: each pre-breaker request
    # walks the full ladder, which is the expensive part by design.
    f_requests = max(8, requests // 4)
    f_concurrency = max(4, concurrency // 4)
    degraded = run_case(
        workload=workload,
        config=faulted,
        requests=f_requests,
        concurrency=f_concurrency,
        allow_degraded=True,
        deadline=deadline,
        service_kwargs=service_kwargs,
    )
    hardfail = run_case(
        workload=workload,
        config=faulted,
        requests=f_requests,
        concurrency=f_concurrency,
        allow_degraded=False,
        deadline=deadline,
        service_kwargs=service_kwargs,
    )

    noisy = clean["latency_cv"] > NOISE_CV
    p99_ok = (
        clean["p99_latency"] is not None
        and clean["p99_latency"] <= P99_CEILING
    )
    return {
        "cases": {
            "clean": clean,
            "faulted_degraded": degraded,
            "faulted_hardfail": hardfail,
        },
        "inflight_target": 100,
        "inflight_ok": clean["max_inflight"] >= min(100, concurrency),
        "degraded_goodput": degraded["goodput"],
        "hardfail_goodput": hardfail["goodput"],
        "goodput_ordered": degraded["goodput"] > hardfail["goodput"],
        "all_accounted": all(
            c["complete"] for c in (clean, degraded, hardfail)
        ),
        "p99_ceiling": P99_CEILING,
        "p99_ok": p99_ok,
        "noisy": noisy,
    }
