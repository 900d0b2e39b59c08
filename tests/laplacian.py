"""The five-point finite-difference Laplacian of the Green kernel over a
grid of the fundamental cell, for the tests of the kernel's flatness: away
from the lattice its Laplacian is the constant -2/Im tau."""

from holink.linking import _pair_greens
from holink.special_functions import _corner_distance, as_tau

#: The five-point stencil's step, and the grid's cells per side.
STEP, GRID = 2e-5, 64


def laplacian_grid(tau: complex) -> list[float]:
    """Five-point finite-difference Laplacian of the Green kernel at each
    cell of ``stencil_greens``."""
    return [(g_xp + g_xm + g_yp + g_ym - 4.0 * g) / (STEP * STEP)
            for g_xp, g_xm, g_yp, g_ym, g in stencil_greens(tau)]


def stencil_greens(tau: complex) -> list[tuple[float, ...]]:
    """The Green kernel g at the stencil u + step, u - step, u + i*step,
    u - i*step and u of each midpoint u = x + y*tau' of the n x n grid of
    fundamental cells at least 3/n from the lattice, in row-major cell
    order (x, then y).  g is the pairing's own kernel, ``_pair_greens``, at
    the pairs (x + dx, -(y*tau' + i*dy)), whose difference is the stencil
    point: it takes each point's phase once, so the grid's n columns and
    3n rows, then its 2n side columns and n rows, cost two passes."""
    t = as_tau(tau)
    tv = t.shifted
    n = GRID
    h = 1.0 / n
    mid = [(k + 0.5) * h for k in range(n)]
    rows = [(complex(-y * tv.real, -(y * tv.imag + dy)), 1)
            for y in mid for dy in (0.0, STEP, -STEP)]
    g_mid = list(_pair_greens(t, [(complex(x), 1) for x in mid], rows,
                              clear=False))
    g_side = list(_pair_greens(t, [(complex(x + dx), 1) for x in mid
                                   for dx in (STEP, -STEP)],
                               rows[::3], clear=False))
    return [(g_side[2 * i * n + j], g_side[(2 * i + 1) * n + j],
             g_mid[3 * (i * n + j) + 1], g_mid[3 * (i * n + j) + 2],
             g_mid[3 * (i * n + j)])
            for i, x in enumerate(mid) for j, y in enumerate(mid)
            if _corner_distance(x + y * tv, t) >= 3.0 * h]
