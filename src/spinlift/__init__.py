"""Closed-form machinery for Lorentz bivectors and their spin lifts.

The package decomposes Lorentz-algebra elements into commuting boost and
rotation parts, maps them through Clifford-algebra representations,
exponentiates the images in closed form, and lifts finite Lorentz
transformations to the spin double cover -- with an independent series oracle
validating every formula.
"""

from .bivector import (
    Bivector,
    MuPair,
    det_bivector,
    is_simple,
    mu_roots,
    orthogonal_decompose,
    plane_projection,
    tr2,
    wedge,
    wedge_factors,
)
from .clifford import (
    lie_bracket_check,
    representation,
    spin_rep,
)
from .errors import (
    DegenerateDenominatorError,
    DegeneratePlaneError,
    InvalidBivectorError,
    InvalidMetricError,
    InvalidTransformationError,
    MalformedInputError,
    NotNonsimpleError,
    NotSimpleError,
    SimpleInputError,
    SimpleTransformError,
    SingularSigmaError,
    SpinLiftError,
    TracelessSimpleError,
)
from .expmap import (
    exp_coefficients,
    exp_spin,
    exp_spin_factored,
    exp_spin_polynomial,
    exp_spin_simple,
    sin_ratio,
    sinh_ratio,
)
from .group_lift import (
    LorentzTransformation,
    factor_transform,
    is_simple_transform,
    lift,
    lift_nonsimple,
    lift_simple,
    log,
    log_simple,
    tr2_transform,
)
from .metric import Metric, inner, make_metric
from .oracle import (
    exp_series,
    intertwining_defect,
    random_bivector,
    random_transformation,
)
from .spin import (
    cross_trace_check,
    quad_trace_identity_check,
    recover_invariants,
    spin_cross_product,
    spin_decompose,
)

__version__ = "0.1.0"

__all__ = [
    "Bivector",
    "DegenerateDenominatorError",
    "DegeneratePlaneError",
    "InvalidBivectorError",
    "InvalidMetricError",
    "InvalidTransformationError",
    "LorentzTransformation",
    "MalformedInputError",
    "Metric",
    "MuPair",
    "NotNonsimpleError",
    "NotSimpleError",
    "SimpleInputError",
    "SimpleTransformError",
    "SingularSigmaError",
    "SpinLiftError",
    "TracelessSimpleError",
    "cross_trace_check",
    "det_bivector",
    "exp_coefficients",
    "exp_series",
    "exp_spin",
    "exp_spin_factored",
    "exp_spin_polynomial",
    "exp_spin_simple",
    "factor_transform",
    "inner",
    "intertwining_defect",
    "is_simple",
    "is_simple_transform",
    "lie_bracket_check",
    "lift",
    "lift_nonsimple",
    "lift_simple",
    "log",
    "log_simple",
    "make_metric",
    "mu_roots",
    "orthogonal_decompose",
    "plane_projection",
    "quad_trace_identity_check",
    "random_bivector",
    "random_transformation",
    "recover_invariants",
    "representation",
    "sin_ratio",
    "sinh_ratio",
    "spin_cross_product",
    "spin_decompose",
    "spin_rep",
    "tr2",
    "tr2_transform",
    "wedge",
    "wedge_factors",
]
