"""Artefact spill/load and the parallel DES engine sweep."""

import json

import numpy as np
import pytest

from repro.bench import dessweep
from repro.bench.dessweep import measure_des_case, run_des_sweep
from repro.exec_model.artefacts import (
    get_artefacts,
    load_artefacts,
    spill_artefacts,
)
from repro.workloads.generators import dag_profile_matrix

TINY = dict(
    n=250, n_levels=10, dependency=4.0, profile="uniform",
    locality=0.5, order_mix=0.3, scatter=0.0, seed=0,
)


def _tiny_matrix(seed=0):
    return dag_profile_matrix(**{**TINY, "seed": seed})


class TestSpillLoad:
    def test_round_trip_preserves_products(self, tmp_path):
        low = _tiny_matrix()
        art = get_artefacts(low)
        path = spill_artefacts(low, tmp_path / "bundle.pkl")
        low2, art2 = load_artefacts(path)
        assert low2 is not low  # fresh object in the loading process
        assert np.array_equal(low2.indptr, low.indptr)
        assert np.array_equal(low2.data, low.data)
        assert art2.dag.n == art.dag.n
        assert np.array_equal(art2.dag.in_degree, art.dag.in_degree)
        assert art2.levels.n_levels == art.levels.n_levels
        assert art2.fronts.n_fronts == art.fronts.n_fronts
        assert set(art2.edges) == set(art.edges)

    def test_loaded_bundle_never_rebuilds(self, tmp_path):
        low = _tiny_matrix(1)
        path = spill_artefacts(low, tmp_path / "b.pkl")
        _, art2 = load_artefacts(path)
        # Touch every spilled product: no build may be recorded.
        _ = art2.levels, art2.fronts, art2.edges
        assert art2.build_counts.get("dag", 0) == 0
        assert "levels" not in art2.build_counts
        assert "fronts" not in art2.build_counts
        assert "edges" not in art2.build_counts

    def test_loaded_bundle_registered_in_cache(self, tmp_path):
        low = _tiny_matrix(2)
        path = spill_artefacts(low, tmp_path / "c.pkl")
        low2, art2 = load_artefacts(path)
        assert get_artefacts(low2) is art2
        assert art2.hits == 1

    def test_subcaches_not_spilled(self, tmp_path):
        from repro.machine.node import dgx1
        from repro.tasks.schedule import block_distribution

        low = _tiny_matrix(3)
        art = get_artefacts(low)
        art.placement(block_distribution(low.shape[0], 2))
        art.comm_costs(dgx1(2), "shmem_readonly")
        path = spill_artefacts(low, tmp_path / "d.pkl")
        _, art2 = load_artefacts(path)
        # Machine identity and placement keys are process-local.
        assert not art2._placements
        assert not art2._costs


class TestMeasureCase:
    def test_single_case_in_process(self, tmp_path):
        low = _tiny_matrix(4)
        path = spill_artefacts(low, tmp_path / "case.pkl")
        res = measure_des_case(
            "tiny", str(path), n_gpus=2, repeats=1
        )
        assert res["identical"] is True
        assert res["verified"] == "trace"
        assert res["analysis_shared"] is True
        assert res["n"] == TINY["n"]
        assert res["events"] > 0
        assert res["t_reference"] > 0 and res["t_array"] > 0
        assert res["events_per_sec_array"] > 0
        assert res["enforce_floor"] is False  # tiny: below MEDIUM_N

    def test_array_only_engine_selection(self):
        payload = run_des_sweep(
            cases={"tiny": TINY}, repeats=1, jobs=1, engines=("array",)
        )
        assert payload["engines"] == ["array"]
        assert payload["all_identical"] is True
        (case,) = payload["cases"]
        assert case["t_array"] > 0

    def test_large_case_checks_counters_against_reference(
        self, tmp_path, monkeypatch
    ):
        # Rows at or above SKIP_REFERENCE_N never time the reference
        # engine, but still verify the array engine against it.
        monkeypatch.setattr(dessweep, "SKIP_REFERENCE_N", TINY["n"])
        low = _tiny_matrix(5)
        path = spill_artefacts(low, tmp_path / "case.pkl")
        res = measure_des_case("tiny", str(path), n_gpus=2, repeats=1)
        assert res["verified"] == "counters"
        assert res["identical"] is True
        assert res["t_reference"] is None and res["speedup"] is None
        assert res["t_array"] > 0


class TestSweep:
    def test_parallel_sweep_smoke(self):
        cases = {
            "tiny-a": TINY,
            "tiny-b": {**TINY, "n": 300, "seed": 1},
        }
        payload = run_des_sweep(cases=cases, repeats=1, jobs=2)
        assert [c["name"] for c in payload["cases"]] == ["tiny-a", "tiny-b"]
        assert payload["all_identical"] is True
        assert payload["analysis_shared"] is True
        assert payload["floor_misses"] == []
        assert payload["acceptance"] is None  # no scale-50k in this table
        assert payload["engines"] == ["array"]
        assert payload["pass"] is True
        json.dumps(payload)  # BENCH_des.json payload must be serialisable

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="valid"):
            run_des_sweep(cases={"tiny": TINY}, engines=("warp",))

    def test_quick_selection_excludes_acceptance_case(self):
        quick = set(dessweep.QUICK_CASES)
        assert dessweep.ACCEPTANCE_CASE not in quick
        assert quick <= set(dessweep.DES_CASES)

    def test_acceptance_case_matches_fastmodel_config(self):
        from repro.bench.fastmodel import SCALING_CASES

        assert (
            dessweep.DES_CASES[dessweep.ACCEPTANCE_CASE]
            == SCALING_CASES["scale-50k"]
        )
