"""Orlicz-cost transport and functional-inequality verification toolkit.

Young-function calculus, exact discrete optimal transport, inf-convolution
operators, and falsification-style verifiers for the constant chains
linking transport-entropy inequalities to (inf-convolution and slope)
log-Sobolev inequalities on finite metric spaces.
"""

from .constants import (
    ConstantBundle,
    implication_constants,
    kappa,
    kappa_tilde,
    lipschitz_tail_coefficient,
)
from .inequalities import (
    EstimateResult,
    VerificationReport,
    concentration_check,
    dual_check,
    holley_stroock,
    mlsi_constant_estimate,
    tau_lsi_constant_estimate,
    transport_constant_estimate,
    verify_chain,
)
from .infconv import lemma_bounds, p_conv, partial_q, q_conv
from .spaces import (
    FiniteMetricSpace,
    ProbMeasure,
    ProductSpace,
    exp_entropy,
    relative_entropy,
    slope_vector,
)
from .transport import TransportPlan, brute_force_cost, optimal_cost
from .young import (
    ExponentPair,
    PowerYoung,
    ScaledYoung,
    TabulatedYoung,
    YoungFunction,
    change_metric,
    conjugate_numeric,
    epsilon_value,
    xi_numeric,
)

__version__ = "0.1.0"
