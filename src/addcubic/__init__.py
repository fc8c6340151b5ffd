"""Verification lab for a mixed additive-cubic functional equation.

The central rule is

    3 f(x+3y) - f(3x+y) = 12[f(x+y) + f(x-y)] - 16[f(x) + f(y)]
                          + 12 f(2y) - 4 f(2x),

whose odd solutions split into an additive plus a cubic part.  The package
evaluates the rule's difference operator and companion residuals, replays
the derivation chain behind the additive characterization as exact rational
identities, recovers the additive and cubic parts of perturbed functions by
direct-method iteration, and certifies the recovered errors against
geometric bound series and their closed-form constants.
"""

from .scalars import EXACT, FLOAT, format_number, parse_rational
from .models import (
    EUCLIDEAN, MAX, BoundedNoise, Constant, ControlFunction, CubicHomogeneous,
    DimensionMismatchError, Even, FuncModel, Linear, Point, PowerNoise,
    ProductOfPowers, SumOfPowers, cubic_1d, even_1d, evaluate, linear_1d,
    model_1d, norm, phi_value, point, random_cubic, random_linear,
    random_point, random_rational, solution_1d,
)
from .residuals import (
    ABS_COEFFICIENT_SUM, CHAIN_CATALOGUE, ChainIdentity, ResidualVector,
    additive_residual, catalogue_as_json_dict, catalogue_from_json_dict,
    chain_replay, cubic_residual, double_arg_residual, mixed_residual,
)
from .bounds import (
    CertificationError, ConsistencyReport, ExcludedExponentError, SeriesResult,
    auto_directions, certify_phi, consistency_check, corollary_product_bound,
    corollary_sum_bound, series_bound, uniqueness_tail,
)
from .direct_method import (
    DivergentControlError, IterationTrace, OverflowGuardError, ProbeResult,
    RecoveryReport, additive_iterate, cubic_iterate, g_transform, h_transform,
    odd_part, recover, uniqueness_probe,
)

__version__ = "0.1.0"
