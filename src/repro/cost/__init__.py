"""Analytical cost models: latency, energy, area, and max power."""

from repro.cost.area import AreaBreakdown, accelerator_area
from repro.cost.batch import evaluate_layer_mappings_batch
from repro.cost.energy import EnergyBreakdown, layer_energy
from repro.cost.evaluator import CostEvaluator, Evaluation
from repro.cost.execution_info import ExecutionInfo, InfeasibleMapping
from repro.cost.latency import evaluate_layer_mapping
from repro.cost.power import PowerBreakdown, max_power
from repro.cost.technology import TECH_45NM, TechnologyModel
from repro.cost.validation import (
    RooflineBounds,
    roofline_bounds,
    validate_execution,
)

__all__ = [
    "AreaBreakdown",
    "CostEvaluator",
    "EnergyBreakdown",
    "Evaluation",
    "ExecutionInfo",
    "InfeasibleMapping",
    "PowerBreakdown",
    "RooflineBounds",
    "TECH_45NM",
    "TechnologyModel",
    "accelerator_area",
    "evaluate_layer_mapping",
    "evaluate_layer_mappings_batch",
    "layer_energy",
    "max_power",
    "roofline_bounds",
    "validate_execution",
]
