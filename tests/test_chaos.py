"""Chaos matrix: every cell recovers bit-correct or fails loudly.

The quick matrix runs unmarked (it is the CI smoke of the resilience
contract); the full both-engine sweep carries the ``chaos`` marker like
the other long-matrix suites.
"""

import json

import pytest

from repro.resilience.chaos import (
    DESIGNS,
    DISTRIBUTIONS,
    QUICK_SCENARIOS,
    default_scenarios,
    run_chaos_matrix,
)


class TestScenarioCatalogue:
    def test_all_fault_kinds_covered(self):
        from repro.resilience.faults import FaultKind

        kinds = set()
        for sc in default_scenarios():
            for spec in sc.plan_of(1.0).specs:
                kinds.add(spec.kind)
        assert kinds == set(FaultKind)  # all seven injectable classes

    def test_catalogue_has_loud_failure_cells(self):
        expects = {sc.expect for sc in default_scenarios()}
        assert expects == {"recover", "certify", "error"}

    def test_quick_subset(self):
        names = {sc.name for sc in default_scenarios(quick=True)}
        assert names == set(QUICK_SCENARIOS)


class TestQuickMatrix:
    def test_quick_matrix_green_and_jsonable(self, tmp_path):
        report = run_chaos_matrix(quick=True)
        assert len(report.cells) == len(QUICK_SCENARIOS) * len(DESIGNS) * len(
            DISTRIBUTIONS
        )
        assert report.green, [c.to_dict() for c in report.failed]
        out = tmp_path / "chaos.json"
        report.save(out)
        data = json.loads(out.read_text())
        assert data["green"] is True
        assert len(data["cells"]) == len(report.cells)

    def test_recover_cells_report_bitwise_outcome(self):
        report = run_chaos_matrix(quick=True)
        recovered = [c for c in report.cells if c.expect == "recover"]
        assert recovered
        assert all(c.outcome == "recovered" for c in recovered)
        certified = [c for c in report.cells if c.expect == "certify"]
        assert certified
        assert all(
            c.outcome in ("recovered", "certified") for c in certified
        )
        errored = [c for c in report.cells if c.expect == "error"]
        assert errored
        assert all(c.outcome == "typed_error" for c in errored)
        assert all(c.error_type for c in errored)


@pytest.mark.chaos
class TestFullMatrix:
    def test_full_matrix_all_engines_green(self):
        """Full sweep: 12 scenarios x 2 designs x 2 dists, both engines
        required to agree bitwise (or on the same typed error)."""
        report = run_chaos_matrix(quick=False)
        assert len(report.cells) == 12 * len(DESIGNS) * len(DISTRIBUTIONS)
        assert report.green, [c.to_dict() for c in report.failed]
        assert all(
            c.engine == "reference+array" for c in report.cells
        )
