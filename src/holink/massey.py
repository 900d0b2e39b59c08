"""The triple-product obstruction on the resolved torus quotient.

For the family of threefolds X_tau (the crepant resolution of the
two-involution quotient of a product of elliptic curves, fibered over
C/(Z + Z*tau)), the distinguished triple product of combinations of four exceptional
divisor classes, integrated against one of them, reduces to a holomorphic
linking number on the base curve:

    value(tau) = 8 * < [0] - [1/2], [tau/2] - [(1+tau)/2] >_{C_tau}
               = (4/pi) * log|1 - lambda(tau)|.

The two routes share only the evaluation tau, ``TauParameter.shifted``,
the exact even shift of Re tau into [-1, 1]: the closed form sums the theta
constants' series, the linking route the Green kernel ``_pair_greens`` of
``linking`` at the four half periods, which need no ``Divisor``: each is
its own cell representative, and no two are near.  Their agreement is one
of the package's acceptance checks.  The value vanishes exactly on the
locus |1 - lambda(tau)| = 1, and is nonzero for generic tau, so the
obstruction it measures does not vanish identically in the family.  The
locus contains the line Re tau = 1/2, where lambda(tau - 1) equals both
conj(lambda(tau)) and lambda / (lambda - 1): so |lambda|^2 = 2 Re lambda,
and |1 - lambda| = 1.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .errors import DivergenceError, DomainError
from .linking import _pair_greens
from .special_functions import TauParameter, as_tau, modular_lambda

#: Default threshold deciding the ``nonvanishing`` flag of a report.
DEFAULT_NONVANISHING_TOL = 1e-6

_FOUR_OVER_PI = 4.0 / math.pi


def _check_tolerance(tol: float) -> None:
    """The one tolerance rule: a real number, not a bool, positive and
    finite, else DomainError."""
    if (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
            or not 0.0 < tol < math.inf):
        raise DomainError(f"tolerance must be a positive finite number, got {tol!r}")


def _closed_form_from_lambda(lam: complex) -> float:
    """(4/pi) log|1 - lam|.  lambda(tau) never equals 1, it only rounds to
    1 near the Im tau floor, so a log of 0 is a lost value: DivergenceError."""
    modulus = abs(1.0 - lam)
    if modulus == 0.0:
        raise DivergenceError(
            "|1 - lambda(tau)| rounds to 0: the closed form diverges"
        )
    return _FOUR_OVER_PI * math.log(modulus)


def massey_value_closed_form(tau: TauParameter | complex) -> float:
    """value(tau) = (4/pi) * log|1 - lambda(tau)|."""
    return _closed_form_from_lambda(modular_lambda(tau))


def massey_value_via_linking(tau: TauParameter | complex) -> float:
    """Same value through the linking pairing on the base curve.

    The reduction chain contributes the prefactor 8 = 2^4 / 2: pulling the
    four exceptional classes back along the degree-two covering torus
    doubles each class (2^4), while integrating upstairs costs the covering
    factor 1/2.  The remaining factor is the elliptic linking number of the
    half-period configuration, evaluated by the Green-kernel double sum.
    Its half periods are those of ``t.shifted``, where every evaluator runs.
    """
    t = as_tau(tau)
    tv = t.shifted
    return 8.0 * math.fsum(_pair_greens(t, ((0j, 1), (0.5 + 0j, -1)),
                                        ((tv / 2.0, 1), ((1.0 + tv) / 2.0, -1))))


MasseyReport = namedtuple("MasseyReport", "tau value_closed_form value_via_linking "
                                          "residual nonvanishing lambda_at_tau")
MasseyReport.__doc__ = """Both evaluation routes at one tau, with the verdict
``nonvanishing``, |value_closed_form| > tolerance.  Where |1 - lambda| rounds
to 0 no report is made: ``massey_report`` raises DivergenceError."""


def massey_report(tau: TauParameter | complex,
                  tolerance: float = DEFAULT_NONVANISHING_TOL) -> MasseyReport:
    """Evaluate both routes and package the comparison; DivergenceError
    where |1 - lambda(tau)| rounds to 0."""
    _check_tolerance(tolerance)
    t = as_tau(tau)
    lam = modular_lambda(t)
    closed = _closed_form_from_lambda(lam)
    via_linking = massey_value_via_linking(t)
    return MasseyReport(
        tau=t.value, value_closed_form=closed, value_via_linking=via_linking,
        residual=abs(closed - via_linking),
        nonvanishing=abs(closed) > tolerance, lambda_at_tau=lam,
    )
