"""appell4: evaluation and identity-verification toolkit for two discrete
analogues of the Appell F4 double hypergeometric series."""

from .catalog import (AuditSummary, Composition, Constraints, ExpectedStatus,
                      Family, Identity, ParamPoint, ParamSampler,
                      RelationReport, Target, VerificationMode, audit_catalog,
                      builtin_catalog, catalog_by_id, point_to_dict,
                      select_identities, verify_identity,
                      verify_recursion_sum)
from .errors import (Appell4Error, ConstraintError, InvalidOperatorError,
                     MarginError, OverflowSignalError, PoleError,
                     QuadratureConvergenceError, RegimeError,
                     UnsupportedKError)
from .kernels import factorial, gamma, log_gamma, log_pochhammer, pochhammer
from .operators import (OperatorExpr, OpKind, PrimitiveOp,
                        apply_expr_to_params, identity_expr)
from .quadrature import (IntegralRepSpec, LaguerreRule, RepKind,
                         integral_rep_check, integrand_kdf, laguerre_rule)
from .series import (EVAL_POLICY, CoefficientGrid, DivergenceReport,
                     EvaluationResult, F41Params, F42Params, KdfParams,
                     TruncationPolicy, coefficient_grid, convergence_region,
                     divergence_diagnostic, eval_f4_classic, eval_f41,
                     eval_f42, eval_kdf, evaluate, reduce_to_kdf,
                     scratch_coefficient_f41, scratch_coefficient_f42)

__version__ = "0.1.0"

__all__ = [
    "Appell4Error", "AuditSummary", "CoefficientGrid", "Composition",
    "Constraints", "ConstraintError", "DivergenceReport", "EVAL_POLICY",
    "EvaluationResult", "ExpectedStatus", "F41Params", "F42Params", "Family",
    "Identity", "IntegralRepSpec", "InvalidOperatorError", "KdfParams",
    "LaguerreRule", "MarginError", "OperatorExpr", "OpKind",
    "OverflowSignalError", "ParamPoint", "ParamSampler", "PoleError",
    "PrimitiveOp", "QuadratureConvergenceError", "RegimeError",
    "RelationReport", "RepKind", "Target", "TruncationPolicy",
    "UnsupportedKError", "VerificationMode", "apply_expr_to_params",
    "audit_catalog", "builtin_catalog", "catalog_by_id", "coefficient_grid",
    "convergence_region", "divergence_diagnostic", "eval_f4_classic",
    "eval_f41", "eval_f42", "eval_kdf", "evaluate", "factorial", "gamma",
    "identity_expr", "integral_rep_check", "integrand_kdf", "laguerre_rule",
    "log_gamma", "log_pochhammer", "pochhammer", "point_to_dict",
    "reduce_to_kdf", "scratch_coefficient_f41", "scratch_coefficient_f42",
    "select_identities", "verify_identity", "verify_recursion_sum",
    "__version__",
]
