"""Brute-force finite-difference check on the closed-form beam mechanics.

Solves EI w'''' = 0 for a clamped-free uniform beam under a tip force or a
tip moment on an N-node grid, entirely independent of the analytic formulas
in mechanics. Second-order central differences in the interior, one-sided
second-order stencils for the boundary conditions.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SingularSystemError
from .mechanics import BeamGeometry, composite_section

MIN_GRID_SIZE = 50


@dataclass
class BeamSolution:
    node_positions: np.ndarray  # m
    deflection: np.ndarray  # m
    bending_moment: np.ndarray  # N*m
    anchor_stress: float  # Pa, extreme-fiber magnitude at the clamp
    grid_size: int

    @property
    def tip_deflection(self) -> float:
        return float(self.deflection[-1])


def _pick_load(tip_force, tip_moment):
    # Exactly one load kind, mirroring a tagged tip_force | tip_moment union.
    if (tip_force is None) == (tip_moment is None):
        raise ValueError("give exactly one of tip_force or tip_moment")
    if tip_force is not None:
        return float(tip_force), 0.0
    return 0.0, float(tip_moment)


def solve_static(
    geom: BeamGeometry,
    grid_size: int = 400,
    tip_force: float | None = None,
    tip_moment: float | None = None,
) -> BeamSolution:
    """Static deflection of a clamped-free beam under a single tip load.

    Discretizes w'''' = 0 with the clamp conditions w(0) = w'(0) = 0 and the
    free-end conditions EI w''(l) = M_tip, EI w'''(l) = -F_tip, then solves
    the dense linear system directly. The fourth-difference operator's
    conditioning grows like grid_size**4, so grids beyond roughly a thousand
    nodes start trading truncation error for roundoff; a few hundred nodes
    is the sweet spot.
    """
    force, moment = _pick_load(tip_force, tip_moment)
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size}")

    section = composite_section(geom)
    ei = section.flexural_rigidity
    n = grid_size
    h = geom.length / (n - 1)
    if h**2 == 0.0:
        raise SingularSystemError(
            f"beam length {geom.length!r} m is too short for {n} nodes: "
            "the squared grid step underflows to 0"
        )
    a = np.zeros((n, n))
    b = np.zeros(n)

    # Clamp: w(0) = 0 and second-order one-sided w'(0) = 0.
    a[0, 0] = 1.0
    a[1, 0:3] = (-3.0, 4.0, -1.0)

    # Interior: five-point fourth difference, multiplied through by h^4.
    for i in range(2, n - 2):
        a[i, i - 2 : i + 3] = (1.0, -4.0, 6.0, -4.0, 1.0)

    # Free end, multiplied through by h^2 and 2 h^3 respectively.
    a[n - 2, n - 4 :] = (-1.0, 4.0, -5.0, 2.0)
    b[n - 2] = h**2 * moment / ei
    a[n - 1, n - 5 :] = (3.0, -14.0, 24.0, -18.0, 5.0)
    b[n - 1] = -2.0 * h**3 * force / ei

    scale = np.abs(a).max(axis=1)
    a /= scale[:, None]
    b /= scale
    try:
        w = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"beam system solve failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise SingularSystemError("beam system solve produced non-finite values")

    positions = np.linspace(0.0, geom.length, n)
    moment_profile = ei * _second_derivative(w, h)
    return BeamSolution(
        node_positions=positions,
        deflection=w,
        bending_moment=moment_profile,
        anchor_stress=_extreme_fiber_stress(geom, section, moment_profile[0]),
        grid_size=n,
    )


def _second_derivative(w: np.ndarray, h: float) -> np.ndarray:
    """w'' on the grid: central stencils inside, one-sided at the ends."""
    d2 = np.empty_like(w)
    d2[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / h**2
    d2[0] = (2.0 * w[0] - 5.0 * w[1] + 4.0 * w[2] - w[3]) / h**2
    d2[-1] = (2.0 * w[-1] - 5.0 * w[-2] + 4.0 * w[-3] - w[-4]) / h**2
    return d2


def _extreme_fiber_stress(geom, section, anchor_moment: float) -> float:
    """Largest bending-stress magnitude over the section at the clamp.

    Per-layer fiber stress is E_i * M * (z - z_n) / EI, which collapses to
    the familiar M c / I for a single-material stack.
    """
    ei = section.flexural_rigidity
    zn = section.neutral_axis_height
    worst = 0.0
    z = 0.0
    for layer in geom.layers:
        e = layer.material.youngs_modulus
        for fiber in (z, z + layer.thickness):
            worst = max(worst, abs(e * anchor_moment * (fiber - zn) / ei))
        z += layer.thickness
    return worst


def convergence_order(
    geom: BeamGeometry,
    grids: list[int],
    tip_force: float | None = None,
    tip_moment: float | None = None,
) -> float:
    """Observed order of accuracy from a sequence of grid refinements.

    Uses the change in tip deflection between consecutive grids as the error
    proxy: for errors C*h^p at a fixed refinement ratio, those differences
    also scale as h^p, so the least-squares slope of log(difference) against
    log(h) recovers p without a trusted reference solution. Grids should
    form a roughly constant refinement ratio (for example 100, 200, 400).
    Central differences should land near 2. The load must excite a varying
    curvature: a pure tip moment gives a quadratic deflection the stencils
    reproduce exactly, so its fitted order is only roundoff noise.
    """
    force, moment = _pick_load(tip_force, tip_moment)
    if force == 0.0 and moment == 0.0:
        raise ValueError("convergence_order needs a nonzero load")
    grid_list = [int(g) for g in grids]
    if len(grid_list) < 3:
        raise ValueError("need at least 3 grids")
    if any(b <= a for a, b in zip(grid_list, grid_list[1:])):
        raise ValueError("grids must be strictly increasing")

    solutions = [
        solve_static(geom, grid_size=g, tip_force=tip_force, tip_moment=tip_moment)
        for g in grid_list
    ]
    return _fitted_order(geom.length, solutions)


def _fitted_order(length: float, solutions: list[BeamSolution]) -> float:
    """Least-squares slope of log(tip change) against log(h), coarse to fine."""
    tips = [solution.tip_deflection for solution in solutions]
    steps = [length / (solution.grid_size - 1) for solution in solutions]
    diffs = [
        max(abs(coarse - fine), np.finfo(float).tiny)
        for coarse, fine in zip(tips, tips[1:])
    ]
    slope, _ = np.polyfit(np.log(steps[:-1]), np.log(diffs), 1)
    return float(slope)
