"""Compiled drain of the array engine: bit-identity, errors, build fallback.

The array engine drains its tables in C for trace-off, fault-free,
non-unified runs without a watchdog, and in Python otherwise or when
the kernel cannot be built.  These tests force the Python drain by
clearing the loader's kernel handle and hold the two drains to the
same observables: solution bits, simulated clock, event count, every
trace counter, and identical typed errors.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.solvers.des_array as des_array
from repro.analysis.dag import build_dag
from repro.bench.dessweep import DES_CASES
from repro.engine.protocol import ALL_TRACE_KINDS
from repro.errors import DeadlockError, SimulationError, SparseFormatError
from repro.exec_model.artefacts import get_artefacts
from repro.exec_model.costmodel import Design
from repro.machine.node import dgx1
from repro.runtime import RunConfig, SolverSession
from repro.solvers import des_array_kernel
from repro.solvers.des_array import execute_array
from repro.solvers.des_solver import des_execute
from repro.tasks.schedule import block_distribution, build_distribution
from repro.verify.oracles import default_generators
from repro.workloads.generators import dag_profile_matrix

GENERATORS = default_generators()
DESIGNS = (Design.SHMEM_READONLY, Design.SHMEM_NAIVE, Design.STALE_SYNC)
HAVE_GCC = shutil.which(des_array_kernel.CC) is not None
SRC = str(Path(__file__).resolve().parent.parent / "src")

needs_kernel = pytest.mark.skipif(
    not HAVE_GCC, reason="no C compiler: only the Python drain exists"
)


def _counts(execution) -> dict:
    return {k: execution.trace.count(k) for k in ALL_TRACE_KINDS}


def _solve(lower, design, dist_name, n_gpus, **kw):
    n = lower.shape[0]
    dist = build_distribution(dist_name, n, n_gpus)
    b = np.random.default_rng(3).standard_normal(n)
    return des_execute(
        lower, b, dist, dgx1(n_gpus), design,
        engine="array", trace_enabled=False, **kw,
    )


def _both(monkeypatch, fn):
    """``fn()`` on the compiled drain, then on the Python drain."""
    compiled = fn()
    with monkeypatch.context() as m:
        m.setattr(des_array_kernel, "_kernel", None)
        python = fn()
    return compiled, python


def _raised(fn) -> Exception:
    with pytest.raises(SimulationError) as info:
        fn()
    return info.value


@needs_kernel
class TestCompiledMatchesPython:
    @pytest.mark.parametrize("n_gpus", [2, 4])
    @pytest.mark.parametrize("dist_name", ["block", "taskpool"])
    @pytest.mark.parametrize("design", DESIGNS, ids=lambda d: d.value)
    @pytest.mark.parametrize(
        "gname,gen", GENERATORS, ids=[g[0] for g in GENERATORS]
    )
    def test_bit_identical(
        self, monkeypatch, gname, gen, design, dist_name, n_gpus
    ):
        lower = gen(4)
        compiled, python = _both(
            monkeypatch, lambda: _solve(lower, design, dist_name, n_gpus)
        )
        assert compiled.x.tobytes() == python.x.tobytes()
        assert compiled.total_time == python.total_time
        assert compiled.events == python.events
        assert _counts(compiled) == _counts(python)

    def test_link_contention(self, monkeypatch):
        # One message in flight per link: every link queue is exercised.
        import repro.solvers.des_solver as des_solver

        monkeypatch.setattr(des_solver, "MESSAGES_IN_FLIGHT_PER_LINK", 1)
        lower = dict(GENERATORS)["scattered"](2)
        compiled, python = _both(
            monkeypatch,
            lambda: _solve(lower, Design.SHMEM_READONLY, "block", 4),
        )
        assert compiled.x.tobytes() == python.x.tobytes()
        assert compiled.total_time == python.total_time
        assert compiled.events == python.events
        assert _counts(compiled) == _counts(python)
        assert compiled.trace.count("xfer_begin") > 0


@needs_kernel
class TestErrorsMatch:
    def _phantom(self, design):
        lower = dict(GENERATORS)["chain"](6)
        dag = build_dag(lower)
        dag.in_degree[lower.shape[0] - 1] += 1  # phantom predecessor
        return lambda: _solve(lower, design, "block", 2, dag=dag)

    def test_deadlock(self, monkeypatch):
        run = self._phantom(Design.SHMEM_READONLY)
        compiled, python = _both(monkeypatch, lambda: _raised(run))
        assert type(compiled) is type(python) is DeadlockError
        assert str(compiled) == str(python)
        assert compiled.blocked == python.blocked
        assert compiled.diagnostics == python.diagnostics
        assert compiled.diagnostics["unsatisfied"] == 1

    def test_stale_starvation(self, monkeypatch):
        # Stale-sync lets the starved component launch anyway: the run
        # drains with nobody waiting and a dependency still unmet.
        run = self._phantom(Design.STALE_SYNC)
        compiled, python = _both(monkeypatch, lambda: _raised(run))
        assert type(compiled) is type(python) is DeadlockError
        assert str(compiled) == str(python)
        assert compiled.blocked == python.blocked == {}
        assert compiled.diagnostics == python.diagnostics

    def test_event_budget(self, monkeypatch):
        lower = dict(GENERATORS)["level-major"](1)
        n = lower.shape[0]
        art = get_artefacts(lower)
        machine = dgx1(2)
        design = Design.SHMEM_READONLY

        def run():
            return execute_array(
                lower, np.ones(n), block_distribution(n, 2), machine,
                design, dag=art.dag, costs=art.comm_costs(machine, design),
                trace_enabled=False, max_events=500,
            )

        compiled, python = _both(monkeypatch, lambda: _raised(run))
        assert type(compiled) is type(python) is SimulationError
        assert str(compiled) == str(python)
        assert "event budget 500" in str(compiled)

    def test_out_of_range_row_is_refused(self):
        # The kernel indexes component state by row: a corrupt index
        # must be refused before any pointer is passed.
        lower = dict(GENERATORS)["chain"](1)
        dag = build_dag(lower)
        lower.indices[1] = -1
        with pytest.raises(SparseFormatError, match="row index"):
            _solve(lower, Design.SHMEM_READONLY, "block", 2, dag=dag)


class TestBuild:
    def test_failed_build_falls_back_once(self, monkeypatch, tmp_path):
        lower = dict(GENERATORS)["random"](2)
        expected = _solve(lower, Design.SHMEM_NAIVE, "block", 2)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(des_array_kernel, "CC", str(tmp_path / "no-cc"))
        monkeypatch.setattr(des_array_kernel, "_kernel", des_array_kernel._UNSET)
        monkeypatch.setattr(des_array_kernel, "failure", None)
        attempts = []
        load = des_array_kernel._load

        def counting_load():
            attempts.append(1)
            return load()

        monkeypatch.setattr(des_array_kernel, "_load", counting_load)
        for _ in range(2):
            got = _solve(lower, Design.SHMEM_NAIVE, "block", 2)
            assert got.x.tobytes() == expected.x.tobytes()
            assert got.total_time == expected.total_time
            assert got.events == expected.events
            assert _counts(got) == _counts(expected)
        assert attempts == [1]
        assert des_array_kernel.kernel() is None
        assert "no-cc" in des_array_kernel.failure
        assert not list(tmp_path.rglob("*.so"))

    @needs_kernel
    def test_concurrent_first_builds_share_one_cache(self, tmp_path):
        script = (
            "import hashlib, numpy as np\n"
            "from repro.solvers import des_array_kernel as k\n"
            "from repro.machine.node import dgx1\n"
            "from repro.solvers.des_solver import des_execute\n"
            "from repro.tasks.schedule import block_distribution\n"
            "from repro.workloads.generators import random_lower\n"
            "assert k.kernel() is not None, k.failure\n"
            "low = random_lower(180, 3.5, seed=1)\n"
            "ex = des_execute(low, np.ones(180), block_distribution(180, 2),"
            " dgx1(2), engine='array', trace_enabled=False)\n"
            "print(hashlib.sha256(ex.x.tobytes()).hexdigest(), ex.events)\n"
        )
        env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for _ in range(2)
        ]
        outs = [p.communicate(timeout=300) for p in procs]
        for p, (out, err) in zip(procs, outs):
            assert p.returncode == 0, err
        assert outs[0][0] == outs[1][0]
        built = list((tmp_path / "repro").iterdir())
        assert len(built) == 1 and built[0].suffix == ".so", built


@needs_kernel
def test_trace_off_solve_runs_on_kernel(monkeypatch):
    """With a compiler present, a trace-off solve must not reach the
    Python drain: a broken build fails here instead of silently
    falling back."""

    def no_python_drain(*args, **kwargs):
        raise AssertionError(
            f"trace-off solve fell back to the Python drain "
            f"({des_array_kernel.failure})"
        )

    monkeypatch.setattr(des_array, "_drain_python", no_python_drain)
    lower = dag_profile_matrix(**DES_CASES["des-2k"])
    config = RunConfig(design="shmem_readonly", n_gpus=4, trace_enabled=False)
    b = np.random.default_rng(0).uniform(-1.0, 1.0, lower.shape[0])
    result = SolverSession(config).solve(lower, b, with_report=False)
    assert des_array_kernel.failure is None
    assert result.execution.events > 0
