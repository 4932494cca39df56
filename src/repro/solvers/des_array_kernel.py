"""Build, cache and call the compiled drain of the array DES engine.

:mod:`repro.solvers.des_array` builds its tables once and then drains
them either in Python or, for trace-off, fault-free, non-unified runs
without a watchdog, in ``des_array_kernel.c``.  This module owns the C
side:

* **build on first use** — the system ``gcc`` compiles the source with
  ``-O2 -ffp-contract=off`` (no ``-ffast-math``, no ``-march=native``:
  every float must match the Python drain bit for bit) into a shared
  library loaded with :mod:`ctypes`;
* **protocol single-sourced** — the source declares no protocol
  constant; :func:`protocol_defines` passes ``COMP_*``, ``XFER_*``,
  ``COMP_SHIFT`` and ``XFER_SHIFT`` from :mod:`repro.engine.protocol`
  as ``-D`` defines, and the source refuses to compile without them;
* **cache** — ``${XDG_CACHE_HOME:-~/.cache}/repro/``, keyed by a sha256
  of the source, the defines, the flags, ``gcc -dumpfullversion`` and
  ``platform.machine()``.  The library is compiled to a temporary name
  and ``os.replace``-d into place, so concurrent processes never load a
  half-written file;
* **fallback** — a missing compiler, an unwritable cache or a failed
  load is recorded once per process in :data:`failure`, and
  :func:`kernel` returns ``None`` from then on, so the engine keeps its
  Python drain.

``ctypes`` releases the GIL for the call, so threads can drain
concurrently (the kernel keeps no global state).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

from repro.engine import protocol
from repro.errors import ShapeError, SolverError, SparseFormatError

__all__ = ["kernel", "drain", "protocol_defines", "COUNTER_KINDS", "CC", "FLAGS"]

#: Compiler used for the first-use build.
CC = "gcc"

#: Compile flags: IEEE-exact float code, position independent, shared.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Protocol constants the C source is compiled against.
DEFINE_NAMES = (
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
)

#: Trace counters the kernel returns, in slot order.
COUNTER_KINDS = (
    protocol.TRACE_DISPATCH,
    protocol.TRACE_SOLVE,
    protocol.TRACE_RELEASE,
    protocol.TRACE_XFER_BEGIN,
    protocol.TRACE_XFER_END,
    protocol.TRACE_STALE_LAUNCH,
)

SOURCE = Path(__file__).with_name("des_array_kernel.c")

# Kernel return codes (des_array_kernel.c).
DRAIN_OK, DRAIN_BUDGET, DRAIN_NOMEM = 0, 1, 2

_UNSET = object()
#: The loaded ``des_drain`` function; ``None`` once a build or load has
#: failed in this process; ``_UNSET`` before the first use.
_kernel = _UNSET
#: Why the kernel is unavailable in this process (``None`` if it is not).
failure: str | None = None
_lock = threading.Lock()


class DrainArgs(ctypes.Structure):
    """Mirror of ``struct drain_args`` in ``des_array_kernel.c``."""

    _i64 = ctypes.c_int64
    _ptr = ctypes.c_void_p
    _fields_ = [
        ("n", _i64), ("nnz", _i64), ("n_res", _i64),
        ("local_base", _i64), ("xfer_base", _i64),
        ("wake_at", _i64), ("max_events", _i64),
        ("t_disp", ctypes.c_double),
        ("indptr", _ptr), ("indices", _ptr), ("gpu_of", _ptr),
        ("spawn", _ptr), ("elink", _ptr), ("cap", _ptr),
        ("data", _ptr), ("b", _ptr), ("gather", _ptr), ("solve", _ptr),
        ("inc", _ptr), ("dl", _ptr), ("ewire", _ptr),
        ("front_code", _ptr), ("front_time", _ptr),
        ("remaining", _ptr), ("x", _ptr), ("parked", _ptr),
        ("qlen", _ptr), ("counters", _ptr),
        ("now", ctypes.c_double), ("events", _i64),
    ]


def protocol_defines() -> dict[str, int]:
    """The ``-D`` defines the kernel is compiled with."""
    return {name: int(getattr(protocol, name)) for name in DEFINE_NAMES}


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro"


def _compile(source: Path, target: Path, defines: list[str]) -> None:
    """Compile ``source`` to ``target`` atomically (temp file + replace)."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.stem + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [CC, *FLAGS, *defines, "-o", tmp, str(source)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load():
    """Build (if not cached) and load the kernel; raises on failure."""
    defines = [f"-D{k}={v}" for k, v in protocol_defines().items()]
    version = subprocess.run(
        [CC, "-dumpfullversion"],
        check=True, capture_output=True, text=True, timeout=30,
    ).stdout.strip()
    key = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        " ".join(defines).encode(),
        " ".join(FLAGS).encode(),
        version.encode(),
        platform.machine().encode(),
    ):
        key.update(part)
        key.update(b"\0")
    target = _cache_dir() / f"des_array_kernel-{key.hexdigest()[:32]}.so"
    if not target.exists():
        _compile(SOURCE, target, defines)
    fn = ctypes.CDLL(str(target)).des_drain
    fn.argtypes = [ctypes.POINTER(DrainArgs)]
    fn.restype = ctypes.c_int
    return fn


def kernel():
    """The compiled drain, building it on first use; ``None`` if unavailable."""
    global _kernel, failure
    if _kernel is _UNSET:
        with _lock:
            if _kernel is _UNSET:
                try:
                    _kernel = _load()
                except (
                    OSError, AttributeError, subprocess.SubprocessError
                ) as err:
                    detail = getattr(err, "stderr", None) or err
                    failure = f"{type(err).__name__}: {detail}"
                    _kernel = None
    return _kernel


def _check_bounds(t) -> None:
    """Reject inputs the kernel would index out of bounds.

    The Python drain fails on these with an ``IndexError`` (or wraps a
    negative index); the kernel has no such guard, so they are refused
    before any pointer is passed."""
    ptr = t.indptr
    if len(ptr) != t.n + 1 or ptr[0] != 0 or ptr[-1] != len(t.indices):
        raise SparseFormatError("indptr does not span the stored entries")
    if t.nnz and (t.indices.min() < 0 or t.indices.max() >= t.n):
        raise SparseFormatError("row index out of range")
    if len(t.b) != t.n:
        raise ShapeError(f"b has length {len(t.b)}, expected {t.n}")
    if t.n and (t.gpu_of.min() < 0 or t.gpu_of.max() >= t.n_gpus):
        raise SolverError("distribution names a GPU the machine does not have")


def drain(fn, t) -> dict:
    """Run the compiled drain over the tables ``t`` of one playout.

    ``t`` is the :class:`~repro.solvers.des_array` table record; returns
    the drain observables the engine's shared tail consumes.  Raises
    :class:`MemoryError` if the kernel cannot allocate its calendar;
    an exhausted event budget is reported as ``status`` for the caller.
    """
    _check_bounds(t)
    i64, f64 = np.int64, np.float64
    n_res = len(t.bank.capacity)
    # Every buffer the kernel reads or writes, kept referenced here for
    # the length of the call.
    buffers = {
        name: np.ascontiguousarray(arr, dtype=dtype)
        for name, arr, dtype in (
            ("indptr", t.indptr, i64), ("indices", t.indices, i64),
            ("gpu_of", t.gpu_of, i64), ("spawn", t.spawn, i64),
            ("elink", t.elink, i64), ("cap", t.bank.capacity, i64),
            ("data", t.data, f64), ("b", t.b, f64),
            ("gather", t.gather, f64), ("solve", t.solve, f64),
            ("inc", t.inc, f64), ("dl", t.dl, f64), ("ewire", t.ewire, f64),
            ("front_code", t.front_code, i64),
            ("front_time", t.front_time, f64),
        )
    }
    buffers.update(
        remaining=np.array(t.remaining, dtype=i64),
        x=np.zeros(t.n, dtype=f64),
        parked=np.zeros(t.n, dtype=np.uint8),
        qlen=np.zeros(n_res, dtype=i64),
        counters=np.zeros(len(COUNTER_KINDS), dtype=i64),
    )
    args = DrainArgs(
        n=t.n, nnz=t.nnz, n_res=n_res,
        local_base=t.layout.local_base, xfer_base=t.layout.xfer_base,
        wake_at=t.wake_at, max_events=t.max_events, t_disp=t.t_disp,
        **{name: arr.ctypes.data for name, arr in buffers.items()},
    )
    status = fn(ctypes.byref(args))
    if status == DRAIN_NOMEM:
        raise MemoryError("compiled DES drain could not allocate its calendar")
    return {
        "status": status,
        "x": buffers["x"],
        "now": args.now,
        "events": args.events,
        "counters": dict(zip(COUNTER_KINDS, buffers["counters"].tolist())),
        "remaining": buffers["remaining"],
        "parked": buffers["parked"],
        "queue_lengths": buffers["qlen"].tolist(),
    }
