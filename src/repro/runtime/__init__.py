"""Unified execution facade: one configured pipeline per session.

:class:`RunConfig` captures every execution knob (design, engine,
scheduler, machine, distribution, fault plan, recovery policy, watchdog,
trace sink) as a frozen validated value; :class:`SolverSession` runs the
configured pipeline — event-granular playout, recovery, residual
certification, fast-model report — with analysis-artefact reuse across
repeated solves.  :func:`resilient_run` is the functional core the
session and the chaos harness share.
"""

from repro.runtime.config import (
    VALID_DISTRIBUTIONS,
    VALID_SCHEDULERS,
    RunConfig,
    load_run_config,
)
from repro.runtime.session import SessionResult, SolverSession, resilient_run

__all__ = [
    "RunConfig",
    "load_run_config",
    "SolverSession",
    "SessionResult",
    "resilient_run",
    "VALID_DISTRIBUTIONS",
    "VALID_SCHEDULERS",
]
