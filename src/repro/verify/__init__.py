"""Oracle-backed verification subsystem.

An independent, deliberately slow reference implementation of the cost
model (:mod:`repro.verify.oracle`) plus the machinery that uses it to
keep the fast production paths honest:

* :mod:`repro.verify.checks` — exact differential comparisons and the
  exhaustive tiny-space sweep;
* :mod:`repro.verify.invariants` — reusable bottleneck-tree algebra
  assertions (recomputation, argmax, mitigation monotonicity);
* :mod:`repro.verify.differential` — the fast-path campaign matrix
  (batch / warm-cache / resume / fused / ... vs the reference);
* :mod:`repro.verify.goldens` — pinned reference traces under
  ``tests/goldens/``;
* :mod:`repro.verify.fuzzer` — the seeded design-point/mapping fuzzer
  with failure shrinking;
* :mod:`repro.verify.runner` — the ``verify`` pipeline behind
  ``python -m repro.experiments.cli verify`` and the CI job.

See ``docs/verification.md`` for the operating manual.
"""

from repro.verify.checks import (
    SweepReport,
    compare_config_models,
    compare_evaluation,
    compare_layer,
    exhaustive_tiny_sweep,
)
from repro.verify.differential import DifferentialReport, run_differential
from repro.verify.fuzzer import (
    FuzzCase,
    FuzzFailure,
    FuzzReport,
    replay,
    run_fuzz,
)
from repro.verify.goldens import GoldenReport, check_goldens, default_golden_dir
from repro.verify.invariants import (
    InvariantViolation,
    assert_tree_invariants,
    check_all,
    check_findings,
    check_mitigation,
    check_tree,
    recompute_value,
    scale_at_path,
)
from repro.verify.oracle import (
    OracleCapacityError,
    OracleEvaluation,
    OracleExecution,
    OracleInfeasible,
    oracle_area,
    oracle_energy,
    oracle_layer,
    oracle_model_costs,
    oracle_power,
)
from repro.verify.runner import VerifyReport, check_campaign_invariants, run_verify

__all__ = [
    "SweepReport",
    "compare_config_models",
    "compare_evaluation",
    "compare_layer",
    "exhaustive_tiny_sweep",
    "DifferentialReport",
    "run_differential",
    "FuzzCase",
    "FuzzFailure",
    "FuzzReport",
    "replay",
    "run_fuzz",
    "GoldenReport",
    "check_goldens",
    "default_golden_dir",
    "InvariantViolation",
    "assert_tree_invariants",
    "check_all",
    "check_findings",
    "check_mitigation",
    "check_tree",
    "recompute_value",
    "scale_at_path",
    "OracleCapacityError",
    "OracleEvaluation",
    "OracleExecution",
    "OracleInfeasible",
    "oracle_area",
    "oracle_energy",
    "oracle_layer",
    "oracle_model_costs",
    "oracle_power",
    "VerifyReport",
    "check_campaign_invariants",
    "run_verify",
]
