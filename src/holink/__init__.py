"""Holomorphic linking of degree-zero divisors and its consequences.

The package computes, in double precision with pinned conventions:

* Jacobi theta series, Weierstrass half-period data and the modular
  lambda function (``special_functions``);
* holomorphic linking numbers of degree-zero divisors on the Riemann
  sphere (cross-ratio closed form) and on elliptic curves C/(Z + Z*tau)
  (translation-invariant Green kernel), with pushforward/pullback
  adjunction checks for a small catalog of maps (``linking``);
* the triple Massey product value (4/pi) * log|1 - lambda(tau)| on an
  elliptically fibered Calabi-Yau threefold, by two independent routes
  (``massey``);
* the Hodge diamond of that threefold by exact integer bookkeeping
  (``hodge``).

``holink.cli`` exposes the same functionality as a command line tool.
"""

# Every module is imported eagerly: bench/trace.py looks each one up in
# sys.modules.
from .errors import (
    ActionValidationError,
    BranchError,
    CapabilityError,
    ConvergenceError,
    CurveMismatchError,
    DisjointnessError,
    DivergenceError,
    DomainError,
    HolinkError,
    HomologyError,
    InternalError,
    PoleError,
)
from .special_functions import (
    HalfPeriodValues,
    TauParameter,
    half_period_values,
    lambda_complement_ratio,
    lattice_sum_p,
    modular_lambda,
    reduce_mod_lattice,
    theta,
    torus_distance,
    weierstrass_p,
)
from .linking import (
    INFINITY,
    AdjunctionCheck,
    Curve,
    Divisor,
    LinkingMethod,
    LinkingResult,
    RationalMapSpec,
    arakelov_green,
    check_adjunction,
    linking,
    linking_elliptic,
    linking_sphere,
    pullback,
    pushforward,
)
from .hodge import (
    BigradedDims,
    BlowupCenter,
    GroupAction,
    blowup_assemble,
    hodge_diamond_x,
    invariant_dims,
    invariant_dims_by_enumeration,
    quotient_fixed_curves,
    standard_quotient_action,
    torus_hodge,
)
from .massey import (
    MasseyReport,
    massey_report,
    massey_value_closed_form,
    massey_value_via_linking,
)
from .verify import SuiteResult, format_summary, run_all

__version__ = "0.1.0"

__all__ = [
    "ActionValidationError", "BranchError", "CapabilityError",
    "ConvergenceError", "CurveMismatchError", "DisjointnessError",
    "DivergenceError", "DomainError", "HolinkError", "HomologyError",
    "InternalError", "PoleError",
    "HalfPeriodValues", "TauParameter", "half_period_values",
    "lambda_complement_ratio", "lattice_sum_p", "modular_lambda",
    "reduce_mod_lattice", "theta", "torus_distance", "weierstrass_p",
    "INFINITY", "AdjunctionCheck", "Curve", "Divisor", "LinkingMethod",
    "LinkingResult", "RationalMapSpec", "arakelov_green",
    "check_adjunction", "linking", "linking_elliptic", "linking_sphere",
    "pullback", "pushforward",
    "BigradedDims", "BlowupCenter", "GroupAction", "blowup_assemble",
    "hodge_diamond_x", "invariant_dims", "invariant_dims_by_enumeration",
    "quotient_fixed_curves", "standard_quotient_action", "torus_hodge",
    "MasseyReport", "massey_report",
    "massey_value_closed_form", "massey_value_via_linking",
    "SuiteResult", "format_summary", "run_all",
    "__version__",
]
