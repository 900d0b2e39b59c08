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

import _thread
from types import ModuleType as _ModuleType

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
from .massey import (
    MasseyReport,
    massey_report,
    massey_value_closed_form,
    massey_value_via_linking,
)

# ``hodge`` and ``verify`` sit in sys.modules from the start, where a caller
# may look them up, but each runs its code only at the first lookup of one
# of its names.  So ``import holink``, and every command but ``hodge`` and
# ``verify``, neither compiles nor runs them.
_run_lock = _thread.RLock()


class _RunOnFirstUse(_ModuleType):
    """A module whose code has not run yet.  The first lookup of a name it
    has not defined runs the code, under one re-entrant lock for every such
    module, and leaves a plain module.  Another thread's lookup waits until
    the code has run; a lookup by the code itself, while it runs, fails as
    in any partly run module."""

    def __getattr__(self, name):
        with _run_lock:
            if self.__class__ is _RunOnFirstUse:
                self.__class__ = _Running
                try:
                    self.__spec__.loader.exec_module(self)
                except BaseException:
                    self.__class__ = _RunOnFirstUse
                    raise
                self.__class__ = _ModuleType
        return _ModuleType.__getattribute__(self, name)


class _Running(_RunOnFirstUse):
    """The class of such a module while its code runs."""


def _on_first_use(name: str):
    import sys
    from importlib.util import find_spec, module_from_spec

    module = module_from_spec(find_spec(f"{__name__}.{name}"))
    module.__class__ = _RunOnFirstUse
    sys.modules[module.__name__] = module
    return module


hodge = _on_first_use("hodge")
verify = _on_first_use("verify")
_DEFERRED = {name: module for module, names in (
    (hodge, ("BigradedDims", "GroupAction", "hodge_diamond_x", "invariant_dims",
             "invariant_dims_by_enumeration", "standard_quotient_action",
             "torus_hodge")),
    (verify, ("SuiteResult", "format_summary", "run_all")),
) for name in names}


def __getattr__(name: str):
    if name in _DEFERRED:
        return getattr(_DEFERRED[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return [*globals(), *_DEFERRED]


__version__ = "0.1.0"

__all__ = [
    "ActionValidationError", "BranchError", "CapabilityError",
    "ConvergenceError", "CurveMismatchError", "DisjointnessError",
    "DivergenceError", "DomainError", "HolinkError", "HomologyError",
    "InternalError", "PoleError",
    "HalfPeriodValues", "TauParameter", "half_period_values",
    "lambda_complement_ratio", "lattice_sum_p", "modular_lambda",
    "reduce_mod_lattice", "theta", "torus_distance", "weierstrass_p",
    "INFINITY", "AdjunctionCheck", "Curve", "Divisor", "LinkingResult",
    "RationalMapSpec", "arakelov_green", "check_adjunction", "linking",
    "linking_elliptic", "linking_sphere", "pullback", "pushforward",
    "BigradedDims", "GroupAction", "hodge_diamond_x", "invariant_dims",
    "invariant_dims_by_enumeration", "standard_quotient_action", "torus_hodge",
    "MasseyReport", "massey_report",
    "massey_value_closed_form", "massey_value_via_linking",
    "SuiteResult", "format_summary", "run_all",
    "__version__",
]
