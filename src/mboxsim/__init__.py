"""Classical round-by-round simulation of two-qubit measurement statistics.

A family of partially entangled states is simulated by local strategies
plus bounded resources: shared random unit vectors, one classical bit from
Alice to Bob, and one call to a comparison box per round.  The package
contains the protocol engines, the exact quantum targets, an EPR2-style
local/nonlocal split, deterministic batch execution, and a verification
layer whose oracles are independent of the sampling paths they check.
"""

from .boxes import MBoxOutcome, compare_bit, outcome_from_uniform
from .geometry import (
    Completion,
    as_unit_vector,
    sample_unit_sphere,
    sgn,
    spherical_grid,
    unit_vector_from_uniforms,
)
from .protocols import (
    FlipSpec,
    correlated_flip,
    round_uniform_block,
    run_batch,
    symmetrize,
    tb_round,
)
from .quantum import (
    DegenerateAxisError,
    EntanglementParam,
    JointDist,
    correlation,
    epr2_correlation,
    epr2_flip_probability,
    epr2_local_bias,
    in_slice,
    joint_local_product,
    joint_nl,
    joint_qm,
    slice_threshold,
)
from .runtime import (
    ExperimentConfig,
    load_settings_csv,
    run_experiment,
    write_report,
)
from .verify import (
    CheckResult,
    ComparisonReport,
    EstimateWithError,
    JointEstimate,
    branch_correlation_claim,
    claim_residual_report,
    compare,
    estimate_mean,
    exact_mu_average,
    flip_moments_claim,
    flip_moments_exact,
    quadrature_kernel,
    realized_joint,
)

__version__ = "0.9.0"

__all__ = [
    "CheckResult",
    "Completion",
    "ComparisonReport",
    "DegenerateAxisError",
    "EntanglementParam",
    "EstimateWithError",
    "ExperimentConfig",
    "FlipSpec",
    "JointDist",
    "JointEstimate",
    "MBoxOutcome",
    "as_unit_vector",
    "branch_correlation_claim",
    "claim_residual_report",
    "compare",
    "compare_bit",
    "correlated_flip",
    "correlation",
    "epr2_correlation",
    "epr2_flip_probability",
    "epr2_local_bias",
    "estimate_mean",
    "exact_mu_average",
    "flip_moments_claim",
    "flip_moments_exact",
    "in_slice",
    "joint_local_product",
    "joint_nl",
    "joint_qm",
    "load_settings_csv",
    "outcome_from_uniform",
    "quadrature_kernel",
    "realized_joint",
    "round_uniform_block",
    "run_batch",
    "run_experiment",
    "sample_unit_sphere",
    "sgn",
    "slice_threshold",
    "spherical_grid",
    "symmetrize",
    "tb_round",
    "unit_vector_from_uniforms",
    "write_report",
    "__version__",
]
