"""Fixed reference work that measures how fast the machine runs right now.

Run as a child process of the benchmark, between workload rounds:

    python bench/calib.py

It does not import holink, and its work never changes, so its wall time
moves only with the machine: the load other tenants put on a shared host,
the core it lands on, the clock.  bench/run.py divides each round's times
by the calibration time measured next to it (see ``REF_CALIB_S`` there).

The work is a small imitation of holink's own, in about the same shares,
because the machine's slowdowns do not hit every kind of work alike:
interpreter start and the numpy import (a fifth), pure-Python scalar code
(more than half: a theta-like series with its truncation test, lattice
reduction, a validated frozen dataclass per curve and a log kernel summed
over pairs of 8-point divisors), and a small vectorised lattice sum.  It
prints a checksum so that a broken interpreter or numpy shows as a wrong
number, not as a fast run.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np

CURVES = 16
DIVISOR_PAIRS = 400
POINTS = 8


@dataclass(frozen=True)
class Curve:
    tau: complex

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau.real) and self.tau.imag > 0):
            raise ValueError(f"not in the upper half-plane: {self.tau!r}")


def theta1(z: complex, curve: Curve, eps: float = 2.2e-16) -> complex:
    """Odd Jacobi theta series, summed until the next term is negligible."""
    t = curve.tau
    total = 0j
    for n in range(80):
        a = n + 0.5
        k = 2 * n + 1
        log_mag = -math.pi * t.imag * a * a + math.pi * k * abs(z.imag)
        if 2.0 * math.exp(log_mag) < eps * (1.0 + abs(total)):
            break
        e = cmath.exp(1j * math.pi * k * z)
        total += (-1) ** n * cmath.exp(1j * math.pi * t * a * a) * (e - 1.0 / e)
    return -1j * total


def reduce(z: complex, curve: Curve) -> complex:
    t = curve.tau
    y = z.imag / t.imag
    x = z.real - y * t.real
    return (x - math.floor(x)) + (y - math.floor(y)) * t


def kernel(z: complex, curve: Curve) -> float:
    z = reduce(z, curve)
    return (-math.log(abs(theta1(z, curve)))
            + math.pi * z.imag ** 2 / curve.tau.imag)


def pairing(d1, d2, curve: Curve) -> float:
    return sum(m * n * kernel(p - q, curve) for p, m in d1 for q, n in d2)


def scalar_work() -> float:
    rng = random.Random(1)
    taus = [complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
            for _ in range(CURVES)]
    total = 0.0
    for j in range(DIVISOR_PAIRS):
        curve = Curve(taus[j % CURVES])
        pts = [(rng.random() + rng.random() * curve.tau, 1 - 2 * (i % 2))
               for i in range(2 * POINTS)]
        total += pairing(pts[:POINTS], pts[POINTS:], curve)
    return total


def lattice_sum(n: int, repeats: int) -> float:
    """A truncated sum of 1/(z - w)^2 over an n x n period lattice."""
    m = np.arange(-n, n + 1, dtype=float)
    w = (m[:, None] + (0.3 + 0.9j) * m[None, :]).ravel()
    w = w[w != 0]
    total = 0.0
    for k in range(repeats):
        z = complex(0.21 + 0.01 * k, 0.13)
        total += float(np.abs(np.sum(1.0 / (z - w) ** 2 - 1.0 / w ** 2)))
    return total


def main() -> None:
    print(f"{scalar_work():.6f} {lattice_sum(120, 12):.6f}")


if __name__ == "__main__":
    main()
