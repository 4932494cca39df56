"""Single-source SpTRSV execution protocol shared by both DES engines.

PRs 3-4 implemented the event-granular execution semantics — the
component and edge lifecycles, the fault/retry/remap protocol, and every
timing rule — twice, bit-for-bit: once in the literal reference engine
(:mod:`repro.solvers.des_solver`, one generator per process) and once in
the token machine (:mod:`repro.solvers.des_array`, flat integer state
machine).  Parity was enforced only by tests, so every new design, fault
kind, or scheduling policy cost two synchronized implementations.

This module is now the *only* home of that protocol.  It provides:

* **lifecycle state tables** — the component states
  (:data:`COMP_ACQUIRE` … :data:`COMP_DEAD`) and cross-GPU transfer
  states (:data:`XFER_CLAIM` … :data:`XFER_RETIRE`) with their
  declarative transition rules (:data:`COMPONENT_LIFECYCLE`,
  :data:`TRANSFER_LIFECYCLE`), including the resilience states
  (tombstones, retry episodes, remap, frozen in-flight routing);
* **token layout** — :class:`TokenLayout` defines the integer encoding
  the array engine compiles the tables into at build time (delivery /
  component / local-hop / transfer / failure token ranges);
* **timing rules** — one home for every cost formula and tie-break rule
  both engines must agree on: kernel-launch serialisation
  (:func:`launch_times`), solve and gather costs (:func:`solve_cost` /
  :func:`solve_cost_table` / :func:`gather_cost_table`), link capacity
  and wire time (:func:`link_capacity` / :func:`wire_time`), and the
  failure-relaunch delay (:func:`relaunch_delay`).  The timestamp
  tie-break itself — FIFO within an exact time, i.e. ``(time, seq)``
  order with a schedule-time monotone sequence — lives in
  :class:`repro.engine.sequence.MonotonicSequence` and the calendar's
  push-order-monotonicity invariant; this module documents it and the
  engines implement it;
* **the delivery protocol** — :func:`delivery_action` maps an
  injector-reported fate and the recovery policy to one of the
  :data:`ACT_DELIVER` … :data:`ACT_EXHAUSTED` verdicts; both engines
  branch on the verdict instead of re-deriving the drop / delay /
  corrupt / retry / starve decision tree.  :func:`exhausted_delivery`
  builds the one shared :class:`~repro.errors.RecoveryExhaustedError`;
* **the fail-stop protocol** — :func:`failure_victims` (which components
  a dying GPU cancels, in wake order) and :func:`remap_plan` (survivor
  targets plus the detector-latency + kernel-launch-serialised relaunch
  delays);
* **per-design hooks** — :func:`design_hooks` returns the
  :class:`DesignHooks` record for a design (page-table routing or cost
  tables), with the scalar (:func:`edge_update_inc` /
  :func:`edge_notify_delay`) and vectorised (:func:`edge_cost_tables`)
  forms of the producer-side update pricing;
* **validation** — :func:`coerce_design` and :func:`missing_diagonal` /
  :func:`validate_diagonals` give both engines identical typed errors.

The reference engine *walks* these rules with generator objects; the
array engine *compiles* them into integer token arrays at build time.
``tests/test_protocol_parity.py`` statically asserts that neither engine
re-declares a protocol constant, and ``tests/test_des_array.py`` keeps
the two interpretations bit-identical in every observable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, RecoveryExhaustedError, SolverError
from repro.exec_model.costmodel import CommCosts, Design

__all__ = [
    # lifecycle states + tables
    "COMP_ACQUIRE",
    "COMP_DISPATCH",
    "COMP_GATHER",
    "COMP_SOLVE",
    "COMP_POST",
    "COMP_RELEASE",
    "COMP_DEAD",
    "COMP_SHIFT",
    "XFER_CLAIM",
    "XFER_WIRE",
    "XFER_RETIRE",
    "XFER_SHIFT",
    "StateRule",
    "COMPONENT_LIFECYCLE",
    "TRANSFER_LIFECYCLE",
    "STALE_LIFECYCLE",
    # trace vocabulary
    "TRACE_DISPATCH",
    "TRACE_SOLVE",
    "TRACE_RELEASE",
    "TRACE_FAULT",
    "TRACE_XFER_BEGIN",
    "TRACE_XFER_END",
    "TRACE_INJECT",
    "TRACE_RETRY",
    "TRACE_RECOVERED",
    "TRACE_MSG_LOST",
    "TRACE_GPU_FAIL",
    "TRACE_REMAP",
    "TRACE_STALE_LAUNCH",
    "TRACE_VALIDATE",
    "TRACE_REPLAY",
    "ALL_TRACE_KINDS",
    # delivery fates + protocol verdicts
    "FATE_DROP",
    "FATE_DELAY",
    "FATE_CORRUPT",
    "ACT_DELIVER",
    "ACT_DELAY",
    "ACT_CORRUPT",
    "ACT_STARVE",
    "ACT_RETRY",
    "ACT_EXHAUSTED",
    "delivery_action",
    "exhausted_delivery",
    # fail-stop protocol
    "failure_victims",
    "remap_plan",
    # token layout
    "TokenLayout",
    # timing rules
    "MESSAGE_BYTES",
    "MESSAGES_IN_FLIGHT_PER_LINK",
    "launch_times",
    "solve_cost",
    "solve_cost_table",
    "gather_cost_table",
    "link_capacity",
    "wire_time",
    "relaunch_delay",
    # stale-synchronous protocol
    "StalePolicy",
    "DEFAULT_STALE_POLICY",
    "resolve_stale_policy",
    "wake_threshold",
    "stale_validation_times",
    # per-design hooks
    "DesignHooks",
    "design_hooks",
    "edge_update_inc",
    "edge_notify_delay",
    "edge_cost_tables",
    # link tiers (multi-node fabric)
    "LINK_TIER_LOCAL",
    "LINK_TIER_DIRECT",
    "LINK_TIER_FALLBACK",
    "rank_tier_matrix",
    "edge_tier_table",
    "tiered_edge_cost_tables",
    "fallback_legal",
    "validate_fabric_reach",
    # validation
    "VALID_ENGINES",
    "coerce_design",
    "missing_diagonal",
    "validate_diagonals",
    "frontier_diagnostics",
    # parity-check manifest
    "PROTOCOL_CONSTANTS",
]

# ---------------------------------------------------------------------------
# Component lifecycle states (array token = (component << COMP_SHIFT) | state).
# ---------------------------------------------------------------------------
COMP_ACQUIRE = 0  #: initial: claim a warp slot
COMP_DISPATCH = 1  #: slot granted: emit dispatch, pay warp-dispatch cost
COMP_GATHER = 2  #: dependencies satisfied: pay the gather cost
COMP_SOLVE = 3  #: gather done: pay the solve cost
COMP_POST = 4  #: value ready: update dependants
COMP_RELEASE = 5  #: updates issued: retire the slot

#: Tombstone state: a cancelled component step (its GPU failed).  The
#: token keeps its exact (time, insertion) slot in the calendar and burns
#: one event when drained — mirroring the reference engine, where the
#: stale generator resumes once, sees its epoch mismatch, and exits.
COMP_DEAD = 6

#: Bits reserved for the component state in an array token (8 states).
COMP_SHIFT = 3

# Cross-GPU transfer states (token = xfer_base + ((edge << XFER_SHIFT) | st)).
XFER_CLAIM = 0  #: claim a link channel
XFER_WIRE = 1  #: channel granted: message on the wire
XFER_RETIRE = 2  #: wire time paid: retire the channel, deliver

#: Bits reserved for the transfer state in an array token (4 states).
XFER_SHIFT = 2

# ---------------------------------------------------------------------------
# Trace vocabulary: every record kind either engine may emit.
# ---------------------------------------------------------------------------
TRACE_DISPATCH = "dispatch"
TRACE_SOLVE = "solve"
TRACE_RELEASE = "release"
TRACE_FAULT = "fault"
TRACE_XFER_BEGIN = "xfer_begin"
TRACE_XFER_END = "xfer_end"
TRACE_INJECT = "inject"
TRACE_RETRY = "retry"
TRACE_RECOVERED = "recovered"
TRACE_MSG_LOST = "msg_lost"
TRACE_GPU_FAIL = "gpu_fail"
TRACE_REMAP = "remap"
# Stale-synchronous vocabulary (the elastic design of Steiner et al.):
# a component that launches on a bounded-stale partial sum records
# ``stale_launch`` with ``(component, missing)``; the post-hoc pass
# records one ``validate`` summary ``(n_suspects, n_replayed)`` and one
# ``replay`` per forward-closure component it re-solves.
TRACE_STALE_LAUNCH = "stale_launch"
TRACE_VALIDATE = "validate"
TRACE_REPLAY = "replay"

#: The closed set of DES trace kinds (causality replay + chrometrace
#: enumerate exactly these).
ALL_TRACE_KINDS = (
    TRACE_DISPATCH,
    TRACE_SOLVE,
    TRACE_RELEASE,
    TRACE_FAULT,
    TRACE_XFER_BEGIN,
    TRACE_XFER_END,
    TRACE_INJECT,
    TRACE_RETRY,
    TRACE_RECOVERED,
    TRACE_MSG_LOST,
    TRACE_GPU_FAIL,
    TRACE_REMAP,
    TRACE_STALE_LAUNCH,
    TRACE_VALIDATE,
    TRACE_REPLAY,
)


@dataclass(frozen=True)
class StateRule:
    """One declarative lifecycle transition.

    Attributes
    ----------
    state:
        The integer state constant the rule describes.
    name:
        Human-readable state name (docs, chrometrace, parity test).
    emits:
        Trace kind recorded when the state runs (``None`` = silent).
    cost:
        Timing-rule key paid before the successor state runs (``None``
        = zero-time hand-over).  Keys name the rule, not a value:
        ``"t_warp_dispatch"`` and ``"t_kernel_launch"`` index the GPU
        spec, ``"gather"``/``"solve"``/``"update"`` the per-component
        cost tables, ``"wire"``/``"notify"`` the per-edge link pricing.
    next:
        Successor state (``None`` = terminal).
    resource:
        Pooled resource claimed (``acquire``) or retired (``release``)
        by the state, if any.
    """

    state: int
    name: str
    emits: str | None = None
    cost: str | None = None
    next: int | None = None
    resource: str | None = None


#: The component lifecycle both engines interpret: ready → dispatch →
#: execute → deliver, plus the tombstone resilience state.
COMPONENT_LIFECYCLE: tuple[StateRule, ...] = (
    StateRule(COMP_ACQUIRE, "acquire", next=COMP_DISPATCH,
              resource="warp_slot:acquire"),
    StateRule(COMP_DISPATCH, "dispatch", emits=TRACE_DISPATCH,
              cost="t_warp_dispatch", next=COMP_GATHER),
    StateRule(COMP_GATHER, "gather", cost="gather", next=COMP_SOLVE),
    StateRule(COMP_SOLVE, "solve", cost="solve", next=COMP_POST),
    StateRule(COMP_POST, "post", emits=TRACE_SOLVE, cost="update",
              next=COMP_RELEASE),
    StateRule(COMP_RELEASE, "release", emits=TRACE_RELEASE,
              resource="warp_slot:release"),
    StateRule(COMP_DEAD, "dead"),
)

#: Stale-synchronous *extension* rows, interpreted on top of the base
#: component lifecycle when the design is
#: :attr:`~repro.exec_model.costmodel.Design.STALE_SYNC`.  They do not
#: introduce new integer states (the token layout is unchanged): the
#: ``stale_launch`` row annotates the GATHER step of a component whose
#: wake threshold fired with contributions still missing, and the
#: ``validate`` / ``replay`` rows describe the post-hoc validation pass
#: appended after the calendar drains (timestamps from
#: :func:`stale_validation_times`).  Kept in a separate table so the
#: base lifecycle's state set stays closed.
STALE_LIFECYCLE: tuple[StateRule, ...] = (
    StateRule(COMP_GATHER, "stale_launch", emits=TRACE_STALE_LAUNCH,
              cost="gather", next=COMP_SOLVE),
    StateRule(COMP_RELEASE, "validate", emits=TRACE_VALIDATE,
              cost="validate"),
    StateRule(COMP_RELEASE, "replay", emits=TRACE_REPLAY,
              cost="t_kernel_launch"),
)

#: The cross-GPU transfer lifecycle (a local delivery skips straight to
#: the terminal delivery hop).
TRANSFER_LIFECYCLE: tuple[StateRule, ...] = (
    StateRule(XFER_CLAIM, "claim", next=XFER_WIRE,
              resource="link_channel:acquire"),
    StateRule(XFER_WIRE, "wire", emits=TRACE_XFER_BEGIN, cost="wire",
              next=XFER_RETIRE),
    StateRule(XFER_RETIRE, "retire", emits=TRACE_XFER_END, cost="notify",
              resource="link_channel:release"),
)


# ---------------------------------------------------------------------------
# Delivery fates (the injector's vocabulary) and protocol verdicts.
# ---------------------------------------------------------------------------
#: Fate tags returned by ``FaultInjector.delivery_fate`` (re-exported by
#: :mod:`repro.resilience.faults`; defined here so the protocol core is
#: the single source).
FATE_DROP = "drop"
FATE_DELAY = "delay"
FATE_CORRUPT = "corrupt"

#: Verdicts of :func:`delivery_action` — what one delivery attempt does.
ACT_DELIVER = "deliver"  #: clean: land the contribution
ACT_DELAY = "delay"  #: wait ``arg`` extra, bump the attempt, re-evaluate
ACT_CORRUPT = "corrupt"  #: flip mantissa bit ``arg``, bump attempt, land
ACT_STARVE = "starve"  #: lost with no retry policy: dependant starves
ACT_RETRY = "retry"  #: re-send after backoff ``arg`` (re-pay the wire)
ACT_EXHAUSTED = "exhausted"  #: bounded retries spent: raise


def delivery_action(
    fate: tuple | None, attempt: int, recovery
) -> tuple[str, float | int | None]:
    """Resolve one delivery attempt's fate against the recovery policy.

    This is the single decision tree of the fault/retry protocol — the
    branches PRs 3-4 mirrored across both engines.  ``fate`` is what the
    injector reported for ``attempt`` (``None`` = clean), ``recovery``
    the :class:`~repro.resilience.recovery.RecoveryPolicy` (or ``None``).

    Returns ``(verdict, arg)``:

    * ``(ACT_DELIVER, None)`` — land the contribution unchanged;
    * ``(ACT_DELAY, extra)`` — hold the message ``extra`` longer, bump
      the attempt counter, then re-evaluate;
    * ``(ACT_CORRUPT, bit)`` — no checksum: the bit-flipped value lands;
    * ``(ACT_STARVE, None)`` — detected loss, no retry policy: the
      dependant starves loudly (deadlock detector reports it);
    * ``(ACT_RETRY, backoff)`` — re-send after exponential backoff,
      re-paying the wire on cross-GPU edges;
    * ``(ACT_EXHAUSTED, None)`` — bounded retries spent: the engine must
      raise :func:`exhausted_delivery`.
    """
    if fate is None:
        return (ACT_DELIVER, None)
    kind = fate[0]
    if kind == FATE_DELAY:
        return (ACT_DELAY, fate[1])
    if kind == FATE_CORRUPT and (
        recovery is None or not recovery.detect_corruption
    ):
        return (ACT_CORRUPT, fate[1])
    # Detected loss: a drop, or a corruption the checksum caught.
    if recovery is None or not recovery.retry:
        return (ACT_STARVE, None)
    if attempt >= recovery.max_retries:
        return (ACT_EXHAUSTED, None)
    return (ACT_RETRY, recovery.retry_delay(attempt))


def exhausted_delivery(edge: int, dst: int, attempts: int) -> RecoveryExhaustedError:
    """The one retry-exhaustion error both engines raise, bit-for-bit."""
    return RecoveryExhaustedError(
        f"delivery on edge {edge} to component {dst} still failing "
        f"after {attempts} attempts",
        context={
            "edge": int(edge),
            "dst": int(dst),
            "attempts": attempts,
        },
    )


# ---------------------------------------------------------------------------
# Fail-stop protocol: victim cancellation and survivor remap.
# ---------------------------------------------------------------------------
def failure_victims(owner, done, gpu: int, n: int) -> list[int]:
    """Components a fail-stopping ``gpu`` cancels, in wake order.

    A victim is an unsolved component the dead rank owns at failure
    time; the ascending-index order is part of the protocol (it fixes
    the ready-channel wake order and therefore the tie-break of every
    tombstone event).
    """
    return [i for i in range(n) if int(owner[i]) == gpu and not done[i]]


def remap_plan(
    owner: np.ndarray,
    victims: list[int],
    failed: int,
    n_gpus: int,
    dead: set[int],
    recovery,
    t_kernel_launch: float,
) -> list[tuple[int, int, float]]:
    """Survivor targets and relaunch delays for a failed GPU's victims.

    Wraps :func:`repro.tasks.schedule.remap_failed_components` (targets
    must be computed against the *pre-mutation* ownership) and attaches
    the protocol's relaunch timing: victim ``k`` restarts after the
    failure-detector latency plus ``k`` serialised kernel launches.
    Returns ``[(victim, new_gpu, delay), ...]`` in victim order; the
    caller mutates ownership and schedules the relaunch.
    """
    from repro.tasks.schedule import remap_failed_components

    targets = remap_failed_components(owner, victims, failed, n_gpus, dead)
    return [
        (i, int(targets[k]), relaunch_delay(recovery, k, t_kernel_launch))
        for k, i in enumerate(victims)
    ]


# ---------------------------------------------------------------------------
# Token layout: how the array engine compiles the tables to integers.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TokenLayout:
    """Integer token ranges for one ``(n, nnz)`` system.

    Tokens are classed by range so the hottest kinds decode cheapest:

    * ``-1 - e`` — edge ``e``'s *update delivery* (the hottest kind);
    * ``(i << COMP_SHIFT) | state`` — component ``i`` at a lifecycle
      state (``[0, local_base)``);
    * ``local_base + e`` — local edge ``e``'s start hop;
    * ``xfer_base + ((e << XFER_SHIFT) | state)`` — cross-GPU transfer
      steps of edge ``e``;
    * ``failure_base + k`` — the k-th scheduled GPU fail-stop event.
    """

    n: int
    nnz: int
    local_base: int  # == n << COMP_SHIFT
    xfer_base: int  # == local_base + nnz
    failure_base: int  # == xfer_base + (nnz << XFER_SHIFT)

    @classmethod
    def for_system(cls, n: int, nnz: int) -> "TokenLayout":
        local_base = n << COMP_SHIFT
        xfer_base = local_base + nnz
        failure_base = xfer_base + (nnz << XFER_SHIFT)
        return cls(
            n=n,
            nnz=nnz,
            local_base=local_base,
            xfer_base=xfer_base,
            failure_base=failure_base,
        )

    # ------------------------------------------------------------- encoders
    def component(self, i: int, state: int = COMP_ACQUIRE) -> int:
        return (i << COMP_SHIFT) | state

    def delivery(self, e: int) -> int:
        return -1 - e

    def local_start(self, e: int) -> int:
        return self.local_base + e

    def transfer(self, e: int, state: int = XFER_CLAIM) -> int:
        return self.xfer_base + ((e << XFER_SHIFT) | state)

    def failure(self, k: int) -> int:
        return self.failure_base + k

    def spawn_codes(self, local_mask: np.ndarray) -> np.ndarray:
        """Per-edge fan-out spawn tokens: local start hop or transfer claim."""
        eids = np.arange(self.nnz, dtype=np.int64)
        return np.where(
            local_mask,
            self.local_base + eids,
            self.xfer_base + (eids << XFER_SHIFT),
        )

    # ------------------------------------------------------------- decoder
    def describe(self, code: int) -> tuple[str, int, int | None]:
        """Decode a token to ``(kind, id, state)`` (tests / diagnostics)."""
        if code < 0:
            return ("delivery", -1 - code, None)
        if code < self.local_base:
            return ("component", code >> COMP_SHIFT, code & (2**COMP_SHIFT - 1))
        if code < self.xfer_base:
            return ("local_start", code - self.local_base, None)
        if code < self.failure_base:
            c = code - self.xfer_base
            return ("transfer", c >> XFER_SHIFT, c & (2**XFER_SHIFT - 1))
        return ("failure", code - self.failure_base, None)


# ---------------------------------------------------------------------------
# Timing rules: the single home of every cost formula the engines share.
# All functions reproduce the exact binary64 operation chains of the
# original engines, so extracting them preserves bit-equality.
# ---------------------------------------------------------------------------
#: Fine-grained message size on the wire (one float64 update).
MESSAGE_BYTES = 8.0

#: Fine-grained messages a single physical link keeps in flight; beyond
#: this, notifications queue on the link channel.
MESSAGES_IN_FLIGHT_PER_LINK = 16


def launch_times(n_tasks: int, t_kernel_launch: float) -> np.ndarray:
    """Host-serialised kernel-launch times: task ``k`` launches at
    ``k * t_kernel_launch`` (the same model as the fast tier)."""
    return np.arange(n_tasks, dtype=np.float64) * t_kernel_launch


def solve_cost(t_per_nnz: float, col_nnz: int, in_count: int) -> float:
    """Solve cost of one component (scalar form, reference engine)."""
    return t_per_nnz * (max(col_nnz, 1) + in_count)


def solve_cost_table(
    t_per_nnz: float, col_nnz: np.ndarray, in_counts: np.ndarray
) -> np.ndarray:
    """Vectorised :func:`solve_cost` (array engine build time)."""
    return t_per_nnz * (np.maximum(col_nnz, 1) + in_counts)


def gather_cost_table(gather: float, in_counts: np.ndarray) -> np.ndarray:
    """Per-component gather cost: paid only with at least one dependency."""
    return np.where(in_counts > 0, gather, 0.0)


def link_capacity(topology, ga: int, gb: int, per_link: int) -> int:
    """In-flight message capacity of the ``ga -> gb`` physical link pair."""
    return max(int(topology.link_count[ga, gb]), 1) * per_link


def wire_time(topology, ga: int, gb: int) -> float:
    """Wire time of one fine-grained message between physical GPUs."""
    return MESSAGE_BYTES / topology.peer_bandwidth(ga, gb)


def relaunch_delay(recovery, k: int, t_kernel_launch: float) -> float:
    """Relaunch delay of the k-th remapped victim: failure-detector
    latency plus ``k`` serialised kernel launches."""
    return recovery.detect_latency + k * t_kernel_launch


# ---------------------------------------------------------------------------
# Stale-synchronous protocol: bounded-stale launch + validation/replay.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StalePolicy:
    """Staleness bound of the ``stale_sync`` design.

    Attributes
    ----------
    k:
        A component may launch once at most ``k`` contributions are
        still missing from its partial sum (all-but-k elasticity).
        Components with in-degree ``<= k`` never block at all.
    ceiling:
        Per-row backward-error ceiling of the post-hoc validation pass:
        any solved row whose stale-read error exceeds it is replayed
        (with its forward closure).  Much tighter than the resilience
        residual ceiling (1e-8) so repaired solutions still clear the
        1e-9 differential-oracle tolerance.
    """

    k: int = 1
    ceiling: float = 1e-12

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigurationError(
                f"stale policy k must be >= 1, got {self.k}",
                parameter="stale_k",
                value=self.k,
            )
        if not self.ceiling > 0.0:
            raise ConfigurationError(
                f"stale validation ceiling must be > 0, got {self.ceiling}",
                parameter="stale_ceiling",
                value=self.ceiling,
            )


#: Policy used when the ``stale_sync`` design is selected without an
#: explicit override.
DEFAULT_STALE_POLICY = StalePolicy()


def resolve_stale_policy(
    design: Design, stale: "StalePolicy | None"
) -> "StalePolicy | None":
    """The effective staleness policy of one run.

    ``stale_sync`` runs get the default policy unless one is supplied;
    any other design must not carry a policy (typed error — staleness is
    a property of the design, not a free knob)."""
    if design is Design.STALE_SYNC:
        return stale if stale is not None else DEFAULT_STALE_POLICY
    if stale is not None:
        raise ConfigurationError(
            f"stale policy requires design={Design.STALE_SYNC.value!r}, "
            f"got {design.value!r}",
            parameter="stale",
            value=stale,
        )
    return None


def wake_threshold(stale: "StalePolicy | None") -> int:
    """Ready-wake threshold both engines gate on: a component may leave
    the GATHER park once at most this many contributions are missing
    (0 = fully synchronous, the base protocol)."""
    return 0 if stale is None else stale.k


def stale_validation_times(
    total_time: float, n_replayed: int, t_kernel_launch: float
) -> tuple[float, np.ndarray]:
    """Timestamps of the post-hoc validation pass records.

    The ``validate`` summary lands exactly when the calendar drains;
    replayed component ``j`` (ascending index order) lands after ``j+1``
    host-serialised kernel launches — the same serialisation model as
    :func:`launch_times` / :func:`relaunch_delay`.  Pure function of the
    run's observables, so every engine extends the trace and the wall
    clock bit-identically."""
    replays = total_time + (
        np.arange(1, n_replayed + 1, dtype=np.float64) * t_kernel_launch
    )
    return total_time, replays


# ---------------------------------------------------------------------------
# Per-design hooks: unified page-table routing vs priced cost tables.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class DesignHooks:
    """How one communication design routes producer-side updates.

    Attributes
    ----------
    design:
        The design the hooks describe.
    page_table:
        ``True`` for :attr:`~repro.exec_model.costmodel.Design.UNIFIED`:
        every remote update is charged through the exact
        :class:`~repro.machine.unified.UnifiedMemory` page table (the
        engines own the stateful table; the hook only routes).  Local
        updates and notify latencies use the shared cost tables either
        way.
    stale:
        The default :class:`StalePolicy` for
        :attr:`~repro.exec_model.costmodel.Design.STALE_SYNC` (``None``
        for every fully synchronous design).
    one_sided:
        ``True`` for the NVSHMEM designs whose remote traffic is
        one-sided puts/gets.  These may cross the fallback link tier
        only when the topology grants ``shmem_over_fallback`` (the IB
        RDMA transport) — see :func:`fallback_legal`; the unified
        design stages through page migration and has no such
        restriction.
    """

    design: Design
    page_table: bool
    stale: "StalePolicy | None" = None
    one_sided: bool = True


_DESIGN_HOOKS = {
    d: DesignHooks(
        design=d,
        page_table=d is Design.UNIFIED,
        stale=DEFAULT_STALE_POLICY if d is Design.STALE_SYNC else None,
        one_sided=d is not Design.UNIFIED,
    )
    for d in Design
}


def design_hooks(design: Design | str) -> DesignHooks:
    """The per-design hook record (coerces and validates ``design``)."""
    return _DESIGN_HOOKS[coerce_design(design)]


def edge_update_inc(costs: CommCosts, src_g: int, dst_g: int) -> float:
    """Producer-side cost of one dependant update (non-page-table path)."""
    if src_g == dst_g:
        return costs.update_local
    return costs.update_remote[src_g, dst_g]


def edge_notify_delay(costs: CommCosts, src_g: int, dst_g: int) -> float:
    """Post-update notify latency from producer to consumer."""
    if src_g == dst_g:
        return 0.0
    return costs.notify[src_g, dst_g]


def edge_cost_tables(
    costs: CommCosts,
    src_g_e: np.ndarray,
    dst_g_e: np.ndarray,
    local_e: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-edge ``(update_inc, notify_delay)`` tables.

    The array engine compiles these at build time for non-page-table
    designs; values are bit-identical to the scalar hooks.
    """
    inc = np.where(
        local_e, costs.update_local, costs.update_remote[src_g_e, dst_g_e]
    )
    delay = np.where(local_e, 0.0, costs.notify[src_g_e, dst_g_e])
    return inc, delay


# ---------------------------------------------------------------------------
# Link tiers: the multi-node fabric's classification of every GPU pair.
# Pricing already flows per pair through the CommCosts matrices (built
# from the topology's tiered latencies/bandwidths), so these helpers add
# *metadata*, never arithmetic — every float an engine pays is unchanged
# and both engines stay bit-identical by construction.
# ---------------------------------------------------------------------------
#: Same rank: no wire.
LINK_TIER_LOCAL = 0
#: Direct link (NVLink / NVSwitch island).
LINK_TIER_DIRECT = 1
#: Fallback path: PCIe staging on a single node, RDMA over IB across
#: nodes.  NVSHMEM one-sided designs may use it only when the topology
#: grants ``shmem_over_fallback``.
LINK_TIER_FALLBACK = 2


def rank_tier_matrix(machine) -> np.ndarray:
    """``(n_gpus, n_gpus)`` link tier of every PE-rank pair.

    Ranks map to physical GPUs through ``machine.active_gpus`` before
    the topology is consulted, so a DGX-1 clique run and a full-cluster
    run both classify correctly.
    """
    phys = np.asarray(machine.active_gpus, dtype=np.int64)
    return machine.topology.tier_matrix()[np.ix_(phys, phys)]


def edge_tier_table(machine, src_g_e: np.ndarray, dst_g_e: np.ndarray) -> np.ndarray:
    """Vectorised per-edge link tier (ranks in, tiers out)."""
    return rank_tier_matrix(machine)[src_g_e, dst_g_e]


def tiered_edge_cost_tables(
    costs: CommCosts,
    machine,
    src_g_e: np.ndarray,
    dst_g_e: np.ndarray,
    local_e: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`edge_cost_tables` plus the per-edge link tier.

    The ``(inc, delay)`` arrays are exactly the classic tables (same
    binary64 values, same lookups); ``tier`` classifies each edge as
    local / direct / fallback so schedulers and reports can attribute
    cost to the fabric level that carries it.
    """
    inc, delay = edge_cost_tables(costs, src_g_e, dst_g_e, local_e)
    return inc, delay, edge_tier_table(machine, src_g_e, dst_g_e)


def fallback_legal(design: Design | str, topology) -> bool:
    """Whether ``design`` may carry traffic over the fallback tier.

    One-sided NVSHMEM designs (naive, read-only/zerocopy, stale-sync)
    need the topology to grant ``shmem_over_fallback`` — the IB RDMA
    transport of multi-node NVSHMEM; the CUDA-10-era single-node
    fallback (PCIe staging) cannot carry one-sided gets, which is the
    paper's 4-GPU DGX-1 limit.  The unified design stages through the
    page-migration path, so any fallback link is legal.  The causality
    replayer enforces the same rule on every recorded transfer.
    """
    if topology.fallback is None:
        return False
    if design_hooks(design).one_sided:
        return bool(topology.shmem_over_fallback)
    return True


def validate_fabric_reach(machine, design: Design | str) -> None:
    """Reject a run whose design cannot reach every active rank pair.

    Raises a typed :class:`~repro.errors.TopologyError` naming the first
    offending pair when any pair of active ranks needs the fallback tier
    and :func:`fallback_legal` denies it — the shared upfront check of
    ``des_execute``, so all engines fail identically before any event is
    played.
    """
    from repro.errors import TopologyError

    topo = machine.topology
    tiers = rank_tier_matrix(machine)
    needs_fallback = np.argwhere(tiers >= LINK_TIER_FALLBACK)
    if needs_fallback.size and not fallback_legal(design, topo):
        a, b = (int(v) for v in needs_fallback[0])
        design = coerce_design(design)
        raise TopologyError(
            f"design {design.value!r} cannot reach rank {a} -> rank {b}: "
            f"the pair crosses the fallback tier of {topo.name} and "
            + (
                "the topology has no fallback link"
                if topo.fallback is None
                else f"{topo.fallback.name} does not carry one-sided access "
                "(shmem_over_fallback=False)"
            )
        )


# ---------------------------------------------------------------------------
# Validation: identical typed errors from both engines.
# ---------------------------------------------------------------------------
#: Engine names accepted by ``des_execute(engine=...)``.
VALID_ENGINES = ("auto", "array", "reference")


def coerce_design(design: Design | str) -> Design:
    """Coerce a design argument, raising a typed error listing choices."""
    try:
        return Design(design)
    except (ValueError, KeyError):
        choices = [d.value for d in Design]
        raise ConfigurationError(
            f"unknown design {design!r}; valid choices: "
            + ", ".join(choices),
            parameter="design",
            value=design,
            choices=tuple(choices),
        ) from None


def missing_diagonal(col: int) -> SolverError:
    """The shared missing-diagonal error (identical message, both engines)."""
    return SolverError(f"missing diagonal at column {col}")


def frontier_diagnostics(components, gpu_of) -> dict:
    """Per-GPU pending-dependency frontier for deadlock diagnostics.

    ``components`` are the component ids still parked on their readiness
    channel when the calendar drained; ``gpu_of`` maps components to
    owning ranks.  Both engines attach the identical payload to
    :class:`~repro.errors.DeadlockError` so service logs can name the
    starved components and the ranks holding them:

    * ``pending_frontier`` — ascending ``{"component", "gpu"}`` rows;
    * ``frontier_by_gpu`` — ``{gpu: [component, ...]}``, ids ascending.
    """
    comps = sorted(int(i) for i in components)
    by_gpu: dict[int, list[int]] = {}
    for i in comps:
        by_gpu.setdefault(int(gpu_of[i]), []).append(i)
    return {
        "pending_frontier": [
            {"component": i, "gpu": int(gpu_of[i])} for i in comps
        ],
        "frontier_by_gpu": by_gpu,
    }


def validate_diagonals(indptr: np.ndarray, indices: np.ndarray, n: int) -> None:
    """Reject a matrix whose unit-position diagonal entries are absent.

    The reference engine discovers a missing diagonal when the solve
    front reaches the column; with the whole structure in hand the array
    engine rejects it upfront — with the identical error the reference
    engine would eventually raise for the first bad column.
    """
    col_nnz = np.diff(indptr)
    if np.any(col_nnz == 0):
        raise missing_diagonal(int(np.nonzero(col_nnz == 0)[0][0]))
    diag_bad = indices[indptr[:-1]] != np.arange(n)
    if np.any(diag_bad):
        raise missing_diagonal(int(np.nonzero(diag_bad)[0][0]))


# ---------------------------------------------------------------------------
# Parity-check manifest: every constant the static check enforces.
# ---------------------------------------------------------------------------
#: Name → value of every protocol constant.  ``tests/test_protocol_parity.py``
#: asserts no engine module re-declares any of these names and that the
#: values each engine binds resolve to these definitions.
PROTOCOL_CONSTANTS: dict[str, object] = {
    "COMP_ACQUIRE": COMP_ACQUIRE,
    "COMP_DISPATCH": COMP_DISPATCH,
    "COMP_GATHER": COMP_GATHER,
    "COMP_SOLVE": COMP_SOLVE,
    "COMP_POST": COMP_POST,
    "COMP_RELEASE": COMP_RELEASE,
    "COMP_DEAD": COMP_DEAD,
    "COMP_SHIFT": COMP_SHIFT,
    "XFER_CLAIM": XFER_CLAIM,
    "XFER_WIRE": XFER_WIRE,
    "XFER_RETIRE": XFER_RETIRE,
    "XFER_SHIFT": XFER_SHIFT,
    "TRACE_DISPATCH": TRACE_DISPATCH,
    "TRACE_SOLVE": TRACE_SOLVE,
    "TRACE_RELEASE": TRACE_RELEASE,
    "TRACE_FAULT": TRACE_FAULT,
    "TRACE_XFER_BEGIN": TRACE_XFER_BEGIN,
    "TRACE_XFER_END": TRACE_XFER_END,
    "TRACE_INJECT": TRACE_INJECT,
    "TRACE_RETRY": TRACE_RETRY,
    "TRACE_RECOVERED": TRACE_RECOVERED,
    "TRACE_MSG_LOST": TRACE_MSG_LOST,
    "TRACE_GPU_FAIL": TRACE_GPU_FAIL,
    "TRACE_REMAP": TRACE_REMAP,
    "TRACE_STALE_LAUNCH": TRACE_STALE_LAUNCH,
    "TRACE_VALIDATE": TRACE_VALIDATE,
    "TRACE_REPLAY": TRACE_REPLAY,
    "FATE_DROP": FATE_DROP,
    "FATE_DELAY": FATE_DELAY,
    "FATE_CORRUPT": FATE_CORRUPT,
    "ACT_DELIVER": ACT_DELIVER,
    "ACT_DELAY": ACT_DELAY,
    "ACT_CORRUPT": ACT_CORRUPT,
    "ACT_STARVE": ACT_STARVE,
    "ACT_RETRY": ACT_RETRY,
    "ACT_EXHAUSTED": ACT_EXHAUSTED,
    "MESSAGE_BYTES": MESSAGE_BYTES,
    "MESSAGES_IN_FLIGHT_PER_LINK": MESSAGES_IN_FLIGHT_PER_LINK,
    "LINK_TIER_LOCAL": LINK_TIER_LOCAL,
    "LINK_TIER_DIRECT": LINK_TIER_DIRECT,
    "LINK_TIER_FALLBACK": LINK_TIER_FALLBACK,
}
