"""Recovery policies and post-solve repair for faulted DES runs.

Three mechanisms, mirroring the layers "Elasticity in Parallel Sparse
Triangular Solve" identifies as sufficient for SpTRSV to tolerate
degraded communication:

* **bounded retry with exponential backoff** — a delivery the injector
  drops (or checksums as corrupted) is re-sent after
  ``retry_timeout * backoff**attempt``; :class:`RecoveryPolicy` bounds
  the attempts, and exhausting them raises a typed
  :class:`~repro.errors.RecoveryExhaustedError` instead of starving the
  dependant silently;
* **graceful degradation** — a ``gpu_fail`` fault hands the dead rank's
  unsolved components to
  :func:`repro.tasks.schedule.remap_failed_components`, which deals them
  over the survivors; the engines re-launch them after
  ``detect_latency``;
* **residual check + selective component replay** — silent corruption
  (an undetected ``left.sum`` bit-flip) survives the run but not
  :func:`residual_repair`: rows whose componentwise backward error
  exceeds the ceiling are recomputed, the fix propagated through their
  forward closure in dependency order, and a still-failing system raises
  :class:`RecoveryExhaustedError` rather than returning a wrong ``x``.

:func:`repro.runtime.session.resilient_run` composes all three around
:func:`repro.solvers.des_solver.des_execute` and is what the chaos
harness drives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import RecoveryExhaustedError
from repro.sparse.csc import CscMatrix
from repro.sparse.validate import residual_norm

__all__ = [
    "RecoveryPolicy",
    "ResilientResult",
    "residual_repair",
    "stale_validate",
]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs for every recovery mechanism (all on by default).

    Attributes
    ----------
    retry:
        Re-send dropped / corrupt-detected deliveries.  Off, a lost
        message starves its dependant and the deadlock detector fires.
    retry_timeout:
        Base re-send delay (the per-remote-get timeout).
    backoff:
        Exponential backoff factor; attempt ``a`` waits
        ``retry_timeout * backoff**a``.
    max_retries:
        Bounded retry: attempts past this raise
        :class:`RecoveryExhaustedError`.
    detect_corruption:
        Checksum deliveries: a bit-flipped contribution is detected at
        the receiver and re-sent like a drop.  Off, the corrupted value
        lands in ``left.sum`` (and only :func:`residual_repair` can
        catch it).
    remap_on_failure:
        Remap a failed GPU's unsolved components onto survivors.  Off,
        the failure starves every dependant (loud deadlock).
    detect_latency:
        Simulated time between a GPU failing and the survivors
        re-launching its work (failure-detector delay).
    residual_check:
        Run :func:`residual_repair` on the finished solution.
    residual_ceiling:
        Componentwise backward-error ceiling for the check (matches the
        conformance harness's differential oracle).
    """

    retry: bool = True
    retry_timeout: float = 1e-4
    backoff: float = 2.0
    max_retries: int = 8
    detect_corruption: bool = True
    remap_on_failure: bool = True
    detect_latency: float = 1e-5
    residual_check: bool = True
    residual_ceiling: float = 1e-8

    def retry_delay(self, attempt: int) -> float:
        """Backoff before re-sending delivery ``attempt`` (0-based)."""
        return self.retry_timeout * self.backoff**attempt


def _row_backward_errors(
    lower: CscMatrix, x: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Componentwise scaled residual per row (vector form of
    :func:`repro.sparse.validate.residual_norm`)."""
    r = lower.matvec(x) - b
    scale_mat = CscMatrix(
        lower.indptr, lower.indices, np.abs(lower.data), lower.shape
    )
    scale = scale_mat.matvec(np.abs(x)) + np.abs(b)
    scale[scale == 0.0] = 1.0
    return np.abs(r) / scale


def residual_repair(
    lower: CscMatrix,
    b: np.ndarray,
    x: np.ndarray,
    ceiling: float = 1e-8,
) -> tuple[np.ndarray, list[int]]:
    """Detect and repair silently corrupted components of ``x``.

    Rows whose componentwise backward error exceeds ``ceiling`` are the
    *suspects* (a corrupted ``left.sum`` makes exactly the victim row
    inconsistent); their forward closure — every component whose value
    was derived, directly or transitively, from a suspect — is replayed
    in dependency (ascending-index) order from the surviving clean
    values.  Returns ``(x_repaired, replayed_components)``; the input is
    not modified.  Raises :class:`RecoveryExhaustedError` when the
    repaired system still fails the ceiling (the corruption was not of
    the repairable single-component kind).
    """
    b = np.asarray(b, dtype=np.float64)
    errs = _row_backward_errors(lower, x, b)
    suspects = np.nonzero(errs > ceiling)[0]
    if len(suspects) == 0:
        return x, []

    x_fixed, replayed = _closure_replay(lower, b, x, suspects)
    final = residual_norm(lower, x_fixed, b)
    if final > ceiling:
        raise RecoveryExhaustedError(
            f"selective replay of {len(replayed)} components left backward "
            f"error {final:.3e} above ceiling {ceiling:.1e}",
            context={
                "suspects": [int(i) for i in suspects],
                "replayed": int(len(replayed)),
                "residual": final,
            },
        )
    return x_fixed, [int(i) for i in replayed]


def _closure_replay(
    lower: CscMatrix, b: np.ndarray, x: np.ndarray, suspects
) -> tuple[np.ndarray, np.ndarray]:
    """Forward-closure selective replay shared by :func:`residual_repair`
    and :func:`stale_validate`.

    Expands ``suspects`` to their forward closure over the dependency
    DAG (CSC column = out-edges), then re-solves the closure by partial
    forward substitution — left sums seeded from the clean columns,
    replayed in ascending order so each repaired value feeds its
    affected dependants.  Returns ``(x_fixed, replayed_indices)``; the
    input ``x`` is not modified.
    """
    n = lower.shape[0]
    indptr, indices, data = lower.indptr, lower.indices, lower.data
    affected = np.zeros(n, dtype=bool)
    stack = [int(i) for i in suspects]
    while stack:
        i = stack.pop()
        if affected[i]:
            continue
        affected[i] = True
        for e in range(int(indptr[i]) + 1, int(indptr[i + 1])):
            j = int(indices[e])
            if not affected[j]:
                stack.append(j)

    x_fixed = np.asarray(x, dtype=np.float64).copy()
    left = np.zeros(n)
    for i in range(n):
        if affected[i]:
            continue
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        rows = indices[lo + 1 : hi]
        mask = affected[rows]
        if np.any(mask):
            left[rows[mask]] += data[lo + 1 : hi][mask] * x_fixed[i]
    replayed = np.nonzero(affected)[0]
    for i in replayed.tolist():
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        x_fixed[i] = (b[i] - left[i]) / data[lo]
        rows = indices[lo + 1 : hi]
        mask = affected[rows]
        if np.any(mask):
            left[rows[mask]] += data[lo + 1 : hi][mask] * x_fixed[i]
    return x_fixed, replayed


def stale_validate(
    lower: CscMatrix,
    b,
    x: np.ndarray,
    ceiling: float,
) -> tuple[np.ndarray, list[int], list[int]]:
    """Post-hoc validation pass of the ``stale_sync`` design.

    A component that launched on a bounded-stale partial sum and never
    saw the late contributions land is exactly as inconsistent as a
    silently corrupted ``left.sum``: its own row's componentwise
    backward error equals the missing mass.  Rows above ``ceiling`` are
    the suspects; their forward closure is replayed from the clean
    values (:func:`residual_repair` machinery).  Returns
    ``(x_validated, suspects, replayed)`` — both index lists ascending,
    ``replayed`` a superset of ``suspects`` — and raises
    :class:`RecoveryExhaustedError` when the replayed system still
    fails the ceiling.
    """
    b = np.asarray(b, dtype=np.float64)
    errs = _row_backward_errors(lower, x, b)
    suspects = np.nonzero(errs > ceiling)[0]
    if len(suspects) == 0:
        return x, [], []
    x_fixed, replayed = _closure_replay(lower, b, x, suspects)
    final = residual_norm(lower, x_fixed, b)
    if final > ceiling:
        raise RecoveryExhaustedError(
            f"stale-read replay of {len(replayed)} components left "
            f"backward error {final:.3e} above ceiling {ceiling:.1e}",
            context={
                "suspects": [int(i) for i in suspects],
                "replayed": int(len(replayed)),
                "residual": final,
            },
        )
    return x_fixed, [int(i) for i in suspects], [int(i) for i in replayed]


@dataclass(frozen=True)
class ResilientResult:
    """Outcome of one :func:`~repro.runtime.session.resilient_run` run."""

    x: np.ndarray
    execution: object  # repro.solvers.des_solver.DesExecution
    repaired: tuple[int, ...]
    residual: float
