"""Finite-difference check on the closed-form beam mechanics.

Solves EI w'''' = 0 for a clamped-free uniform beam under a tip force or a
tip moment on an N-node grid. Only the finite-difference solve is independent
of mechanics: it reads the section's EI, and the anchor stress is mechanics'
per-layer fiber stress at the clamp moment. Second-order central differences
in the interior, one-sided second-order stencils for the boundary conditions.

The discrete system is solved exactly rather than by elimination: its
interior rows make the deflection a cubic in the node index, and the
boundary rows fix that cubic's coefficients as ratios of integers. Each
node's value is then one correctly rounded division, so refining the grid
shrinks the truncation error with no roundoff growing behind it. Only
`solve_static`, which returns arrays, imports numpy.

`oracle_check` is the check that `memsmag verify` prints: the closed-form
tip deflection and clamp moment of a scenario's beam against this solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, SingularSystemError
from .mechanics import BeamGeometry, _layer_fiber_stress, composite_section, tip_deflection

MIN_GRID_SIZE = 50


@dataclass
class BeamSolution:
    """Finite-difference static solution of a tip-loaded cantilever, node by node."""

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
    free-end conditions EI w''(l) = M_tip, EI w'''(l) = -F_tip, and returns
    the discrete system's exact solution, rounded once per node (see
    `_solve_nodes`). Refining the grid therefore only shrinks the
    truncation error: under a tip force the tip deflection is
    F l^3 / (3 EI) * (1 - 1 / (grid_size - 1)**2).
    """
    import numpy as np

    force, moment = _pick_load(tip_force, tip_moment)
    section = composite_section(geom)
    deflection, moments = _solve_nodes(
        geom.length, section.flexural_rigidity, grid_size, force, moment, range(grid_size)
    )
    clamp = _layer_fiber_stress(geom, section, moments[0])
    return BeamSolution(
        node_positions=np.linspace(0.0, geom.length, grid_size),
        deflection=np.array(deflection),
        bending_moment=np.array(moments),
        anchor_stress=max(abs(face) for faces in clamp for face in faces),
        grid_size=grid_size,
    )


def _solve_nodes(
    length: float, ei: float, grid_size: int, force: float, moment: float, nodes
) -> tuple[list[float], list[float]]:
    """Deflection and bending moment at each of `nodes`, as plain floats.

    `nodes` are indices into the grid, 0 at the clamp to grid_size - 1 at
    the tip; a node's values do not depend on which others are asked for.

    With the free-end rows multiplied through by h^2 and 2 h^3 and the
    interior rows by h^4, the system's rows are
        row 0          w_0 = 0
        row 1          -3 w_0 + 4 w_1 - w_2 = 0
        rows 2..n-3    w_{i-2} - 4 w_{i-1} + 6 w_i - 4 w_{i+1} + w_{i+2} = 0
        row n-2        -w_{n-4} + 4 w_{n-3} - 5 w_{n-2} + 2 w_{n-1} = b_m = h^2 M / EI
        row n-1        3 w_{n-5} - 14 w_{n-4} + 24 w_{n-3} - 18 w_{n-2} + 5 w_{n-1}
                           = b_f = -2 h^3 F / EI
    The interior rows make w a cubic in the node index i, and row 0 removes
    its constant: w_i = c1 i + c2 i^2 + c3 i^3. The boundary stencils are
    exact on cubics, so with N = n - 1 the other three rows read
        2 c1 - 4 c3 = 0,    2 c2 + 6 c3 N = b_m,    12 c3 = b_f.
    Taking b_m = p_m / q_m and b_f = p_f / q_f as exact ratios of integers,
    the coefficients share the denominator 12 q_m q_f. Each node's numerator
    is then an integer, and one int / int division rounds it correctly.
    The second-difference stencils give 2 c2 + 6 c3 i exactly on the cubic,
    so the moment EI (2 c2 + 6 c3 i) / h^2 is rounded the same way.
    Under a single tip load |w| peaks at the tip and |M| at the clamp (the
    moment is linear in i, and 0 at the tip under a force), so solving at
    those two nodes raises on every load that the full grid raises on.
    """
    if grid_size < MIN_GRID_SIZE:
        raise ValueError(f"grid_size must be >= {MIN_GRID_SIZE}, got {grid_size}")
    last = grid_size - 1
    h = length / last
    h2 = h**2
    if h2 == 0.0:
        raise SingularSystemError(
            f"beam length {length!r} m is too short for {grid_size} nodes: "
            "the squared grid step underflows to 0"
        )
    b_m = h2 * moment / ei
    b_f = -2.0 * h**3 * force / ei
    if not (math.isfinite(b_m) and math.isfinite(b_f)):
        raise SingularSystemError("beam system solve produced non-finite values")
    p_m, q_m = b_m.as_integer_ratio()
    p_f, q_f = b_f.as_integer_ratio()
    # c1, c2 and c3 times the common denominator.
    a3 = p_f * q_m
    a1 = 2 * a3
    a2 = 6 * p_m * q_f - 3 * last * a3
    den = 12 * q_m * q_f
    # EI (2 c2 + 6 c3 i) / h^2 = (s0 + s1 i) / moment_den.
    p_e, q_e = ei.as_integer_ratio()
    p_h, q_h = h2.as_integer_ratio()
    s0, s1 = 2 * a2 * p_e * q_h, 6 * a3 * p_e * q_h
    moment_den = den * q_e * p_h
    try:
        deflection = [((a3 * i + a2) * i + a1) * i / den for i in nodes]
        moments = [(s0 + s1 * i) / moment_den for i in nodes]
    except OverflowError:
        raise SingularSystemError("beam system solve produced non-finite values") from None
    return deflection, moments


def convergence_order(geom: BeamGeometry, grids: list[int], tip_force: float) -> float:
    """Observed order of accuracy from a sequence of grid refinements.

    Solves each grid at its clamp and tip nodes only (see `_solve_nodes`),
    and uses the change in tip deflection between consecutive grids as the
    error proxy: for errors C*h^p at a fixed refinement ratio, those
    differences also scale as h^p, so the least-squares slope of
    log(difference) against log(h) recovers p without a trusted reference
    solution. Grids should form a roughly constant refinement ratio (for
    example 100, 200, 400). Central differences should land near 2. The
    load is a tip force, which excites a varying curvature: a pure tip
    moment gives a quadratic deflection the stencils reproduce exactly, so
    its fitted order would be only rounding noise.
    """
    force = float(tip_force)
    if force == 0.0:
        raise ValueError("convergence_order needs a nonzero load")
    grid_list = [int(g) for g in grids]
    if len(grid_list) < 3:
        raise ValueError("need at least 3 grids")
    if any(b <= a for a, b in zip(grid_list, grid_list[1:])):
        raise ValueError("grids must be strictly increasing")

    ei = composite_section(geom).flexural_rigidity
    tips = [deflection[1] for deflection, _ in _grid_solves(geom.length, ei, grid_list, force)]
    return _fitted_order(geom.length, grid_list, tips)


def oracle_check(scenario) -> dict:
    """Cross-check the closed-form beam model against the brute-force solver.

    Takes a `Scenario` and solves its suspension beam on 100, 200 and 400
    nodes at the clamp and tip nodes only, where the deflection and the
    moment peak. Compares the finest solution's tip deflection and anchor
    (clamp) moment with the analytic values, and fits the solver's
    convergence order to the three tip deflections.
    """
    beam = scenario.sensor.beam
    force = 1e-9
    section = composite_section(beam)
    analytic_tip = tip_deflection(section, beam.length, force)
    analytic_moment = force * beam.length

    grids = (100, 200, 400)
    solutions = _grid_solves(beam.length, section.flexural_rigidity, grids, force)
    tips = [deflection[1] for deflection, _ in solutions]
    anchor_moment = solutions[-1][1][0]
    tip_error = abs(tips[-1] - analytic_tip) / abs(analytic_tip)
    moment_error = abs(anchor_moment - analytic_moment) / analytic_moment
    order = _fitted_order(beam.length, grids, tips)
    return {
        "tip_deflection_analytic_m": analytic_tip,
        "tip_deflection_fd_m": tips[-1],
        "tip_deflection_rel_error": tip_error,
        "anchor_moment_analytic_N_m": analytic_moment,
        "anchor_moment_fd_N_m": anchor_moment,
        "anchor_moment_rel_error": moment_error,
        "convergence_order": order,
        "passed": bool(tip_error < 0.01 and moment_error < 0.02 and 1.8 <= order <= 2.2),
    }


def _grid_solves(length: float, ei: float, grids, force: float) -> list:
    """`_solve_nodes`' (deflections, moments) at the clamp and tip of each grid."""
    return [_solve_nodes(length, ei, g, force, 0.0, (0, g - 1)) for g in grids]


def _fitted_order(length: float, grids: list[int], tips: list[float]) -> float:
    """Least-squares slope of log(tip change) against log(h), coarse to fine."""
    xs = [math.log(length / (g - 1)) for g in grids[:-1]]
    ys = []
    for coarse, fine, grid, finer in zip(tips, tips[1:], grids, grids[1:]):
        if coarse == fine:  # a subnormal load rounds the change away
            raise DomainError(
                f"tip deflection {fine!r} m does not change from the {grid}-node grid to"
                f" the {finer}-node grid: no convergence order to fit"
            )
        ys.append(math.log(abs(coarse - fine)))
    x_mean = sum(xs) / len(xs)
    y_mean = sum(ys) / len(ys)
    num = sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    return num / sum((x - x_mean) ** 2 for x in xs)
