"""End-to-end tests for the Explainable-DSE framework."""

import math

import pytest

from repro.core.dse.constraints import Constraint, Sense, all_satisfied
from repro.core.dse.explainable import ExplainableDSE
from repro.cost.evaluator import CostEvaluator
from repro.mapping.mapper import FixedDataflowMapper, TopNMapper


@pytest.fixture
def dse_setup(edge_space, tiny_workload):
    evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=80))
    constraints = [
        Constraint("area", "area_mm2", 75.0),
        Constraint("power", "power_w", 4.0),
        Constraint("throughput", "throughput", 200.0, Sense.GEQ),
    ]
    dse = ExplainableDSE(
        edge_space, evaluator, constraints, max_evaluations=40
    )
    return dse, evaluator, constraints


class TestRun:
    def test_finds_feasible_solution(self, dse_setup):
        dse, _, constraints = dse_setup
        result = dse.run()
        assert result.found_feasible
        assert all_satisfied(result.best.costs, constraints)

    def test_respects_evaluation_budget(self, dse_setup):
        dse, evaluator, _ = dse_setup
        result = dse.run()
        assert result.evaluations <= 40
        assert len(result.trials) == result.evaluations

    @pytest.mark.parametrize("budget", [0, -5])
    def test_rejects_nonpositive_budget(self, dse_setup, edge_space, budget):
        """A budget below one would still spend the initial point's
        evaluation, so it is refused as the baselines refuse it."""
        _, evaluator, constraints = dse_setup
        with pytest.raises(ValueError, match="max_evaluations"):
            ExplainableDSE(
                edge_space, evaluator, constraints, max_evaluations=budget
            )
        assert evaluator.evaluations == 0

    @pytest.mark.parametrize("value", [0, -2])
    @pytest.mark.parametrize("name", ["top_k", "patience", "max_candidates"])
    def test_rejects_nonpositive_search_limits(
        self, dse_setup, edge_space, name, value
    ):
        """``top_k=0`` would discard the bottleneck analysis, a negative
        ``top_k`` would keep all but the weakest sub-functions, and
        ``max_candidates=0`` would turn every attempt into a neighbour
        sample; ``patience`` below one is ``patience=1`` in disguise."""
        _, evaluator, constraints = dse_setup
        with pytest.raises(ValueError, match=name):
            ExplainableDSE(
                edge_space, evaluator, constraints, **{name: value}
            )
        assert evaluator.evaluations == 0

    def test_improves_over_initial_point(self, dse_setup, edge_space):
        dse, _, _ = dse_setup
        result = dse.run()
        initial_latency = result.trials[0].costs["latency_ms"]
        assert result.best_objective < initial_latency

    def test_explanations_logged(self, dse_setup):
        dse, _, _ = dse_setup
        result = dse.run()
        assert result.explanations
        assert any("critical cost" in line for line in result.explanations)
        assert any("attempt" in line for line in result.explanations)

    def test_technique_label(self, dse_setup):
        dse, _, _ = dse_setup
        assert dse.run().technique == "explainable"

    def test_deterministic(self, edge_space, tiny_workload):
        constraints = [Constraint("area", "area_mm2", 75.0)]

        def _run():
            evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=60))
            dse = ExplainableDSE(
                edge_space, evaluator, constraints, max_evaluations=20
            )
            return dse.run()

        a, b = _run(), _run()
        assert [t.point for t in a.trials] == [t.point for t in b.trials]

    def test_custom_initial_point(self, dse_setup, mid_point):
        dse, _, _ = dse_setup
        result = dse.run(initial_point=mid_point)
        assert result.trials[0].point == mid_point

    def test_invalid_initial_point_rejected(self, dse_setup, mid_point):
        dse, _, _ = dse_setup
        bad = dict(mid_point)
        bad["pes"] = 100  # not a Table 1 value
        with pytest.raises(ValueError):
            dse.run(initial_point=bad)


class TestConstraintHandling:
    def test_once_feasible_stays_feasible(self, dse_setup):
        """'Once Explainable-DSE achieved a solution that met all
        constraints, it always ensured to optimize further with a
        feasible solution' (§6.3)."""
        dse, _, constraints = dse_setup
        result = dse.run()
        best_so_far = math.inf
        seen_feasible = False
        for trial in result.trials:
            if trial.feasible:
                seen_feasible = True
                best_so_far = min(best_so_far, trial.objective)
        assert seen_feasible
        assert result.best_objective == best_so_far

    def test_area_violation_triggers_downscaling(
        self, edge_space, tiny_workload
    ):
        """Starting from the maximum point (over area/power budget), the
        DSE must move toward smaller configurations."""
        evaluator = CostEvaluator(tiny_workload, TopNMapper(top_n=60))
        constraints = [
            Constraint("area", "area_mm2", 75.0),
            Constraint("power", "power_w", 4.0),
        ]
        dse = ExplainableDSE(
            edge_space, evaluator, constraints, max_evaluations=30
        )
        result = dse.run(initial_point=edge_space.maximum_point())
        assert result.found_feasible
        assert result.best.costs["area_mm2"] <= 75.0
        assert result.best.costs["power_w"] <= 4.0

    def test_unmappable_fixed_dataflow_recovers(
        self, edge_space, tiny_workload
    ):
        """With a fixed dataflow the minimum point cannot map; the DSE's
        compatibility mitigation must raise NoC limits until it can."""
        evaluator = CostEvaluator(tiny_workload, FixedDataflowMapper())
        constraints = [Constraint("area", "area_mm2", 75.0)]
        dse = ExplainableDSE(
            edge_space, evaluator, constraints, max_evaluations=30
        )
        result = dse.run()
        assert any(t.mappable for t in result.trials)


class TestAcquisition:
    def test_candidates_change_single_param_or_noc_bundle(self, dse_setup):
        dse, _, _ = dse_setup
        result = dse.run()
        # Each non-initial trial is S with one parameter changed, except
        # the NoC capability / compatibility bundles, which only touch
        # unicast parameters together.
        points = [t.point for t in result.trials]
        bundle_params = tuple(
            f"{kind}_unicast_{op}"
            for kind in ("virt", "phys")
            for op in ("I", "W", "O", "PSUM")
        )
        for i, point in enumerate(points[1:], start=1):
            diff_sets = [
                {k for k in point if point[k] != other[k]}
                for other in points[:i]
            ]
            smallest = min(diff_sets, key=len)
            assert len(smallest) <= 1 or all(
                k in bundle_params for k in smallest
            ), smallest

    def test_no_duplicate_acquisitions(self, dse_setup, edge_space):
        dse, _, _ = dse_setup
        result = dse.run()
        keys = [edge_space.point_key(t.point) for t in result.trials]
        assert len(keys) == len(set(keys))
