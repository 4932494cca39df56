"""Fault injection, recovery, and chaos testing for the DES solver stack.

The paper's synchronization-free execution model (Alg. 2/3) busy-waits
on ``in.degree`` / ``left.sum`` signals: one lost, delayed, or corrupted
inter-GPU message and the solve deadlocks or silently returns a wrong
``x``.  This subsystem makes those failure modes injectable,
survivable, and — above all — *loud*:

* :mod:`repro.resilience.faults` — a deterministic, seed-driven
  :class:`FaultPlan` / :class:`FaultInjector` that both DES engines
  consult at event-dispatch time (link outages, bandwidth degradation,
  dropped / delayed NVSHMEM messages, straggler SMs, whole-GPU
  failures, transient ``left.sum`` bit-flips);
* :mod:`repro.resilience.recovery` — per-message timeout with
  exponential backoff and bounded retry, GPU-failure remap onto
  survivors, and post-solve residual check + selective component
  replay for silent data corruption;
* :mod:`repro.resilience.watchdog` — a no-progress stall detector the
  engines poll as simulated time advances, raising a typed
  :class:`~repro.errors.DeadlockError` with a diagnostic trace instead
  of spinning forever;
* :mod:`repro.resilience.chaos` — the chaos harness: a fault-scenario
  matrix across designs and distributions asserting every cell either
  recovers to a bit-correct solution or fails with a typed
  :class:`~repro.errors.ReproError` — never hangs, never silently
  wrong;
* :mod:`repro.resilience.service_faults` — the same declarative
  vocabulary one layer up: worker kills, dispatch stalls, and slow
  clients injected into the :mod:`repro.serve` session server's own
  hook points (its chaos suite holds the *service* to the solve-level
  contract: typed error, certified degraded result, or bitwise
  recovery).

Determinism contract: a :class:`FaultPlan` materialises into pure
per-edge / per-component decision tables keyed by stable identities
(edge id, component id, delivery attempt), never by call order — which
is what lets the reference and array engines stay bit-identical under
fault injection, and an all-``none`` plan stay bit-identical to the
un-instrumented engines.
"""

from repro.resilience.chaos import (
    ChaosCell,
    ChaosReport,
    default_scenarios,
    run_chaos_matrix,
)
from repro.resilience.faults import (
    FaultInjector,
    FaultKind,
    FaultPlan,
    FaultSpec,
    flip_mantissa_bit,
)
from repro.resilience.recovery import (
    RecoveryPolicy,
    ResilientResult,
    residual_repair,
)
from repro.resilience.service_faults import (
    ServiceFaultInjector,
    ServiceFaultKind,
    ServiceFaultPlan,
    ServiceFaultSpec,
)
from repro.resilience.watchdog import Watchdog

__all__ = [
    "FaultKind",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "flip_mantissa_bit",
    "RecoveryPolicy",
    "ResilientResult",
    "residual_repair",
    "Watchdog",
    "ServiceFaultKind",
    "ServiceFaultSpec",
    "ServiceFaultPlan",
    "ServiceFaultInjector",
    "ChaosCell",
    "ChaosReport",
    "default_scenarios",
    "run_chaos_matrix",
]
