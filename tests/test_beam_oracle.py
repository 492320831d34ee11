import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from memsmag import (
    BeamGeometry,
    DomainError,
    LayerSpec,
    SingularSystemError,
    builtin_material,
    composite_section,
    convergence_order,
    max_anchor_stress,
    run_scenario,
    solve_static,
    tip_deflection,
)
from memsmag.beam_oracle import _fitted_order, _solve_nodes
from test_point_fuzz import PARENTS, _finite_points

SILICON = builtin_material("silicon")


def _beam(thickness=2e-6, length=300e-6, width=20e-6):
    return BeamGeometry(length, width, [LayerSpec(SILICON, thickness)])


def test_tip_force_matches_closed_form():
    geom = _beam()
    solution = solve_static(geom, grid_size=400, tip_force=1e-6)
    analytic = tip_deflection(composite_section(geom), geom.length, 1e-6)
    assert solution.tip_deflection == pytest.approx(analytic, rel=1e-2)
    assert solution.grid_size == 400
    assert len(solution.deflection) == 400


def test_tip_moment_matches_closed_form():
    # Quadratic deflection shape: the stencils reproduce it to roundoff.
    geom = _beam()
    section = composite_section(geom)
    moment = 1e-10
    solution = solve_static(geom, grid_size=400, tip_moment=moment)
    analytic = moment * geom.length**2 / (2.0 * section.flexural_rigidity)
    assert solution.tip_deflection == pytest.approx(analytic, rel=1e-6)


def test_zero_load_means_zero_deflection():
    solution = solve_static(_beam(), grid_size=100, tip_force=0.0)
    assert np.all(solution.deflection == 0.0)
    assert solution.anchor_stress == 0.0


def test_exactly_one_load_kind():
    with pytest.raises(ValueError):
        solve_static(_beam(), grid_size=100)
    with pytest.raises(ValueError):
        solve_static(_beam(), grid_size=100, tip_force=1e-6, tip_moment=1e-10)


def test_grid_size_floor():
    with pytest.raises(ValueError):
        solve_static(_beam(), grid_size=10, tip_force=1e-6)


def test_load_sign_symmetry():
    up = solve_static(_beam(), grid_size=100, tip_force=1e-6)
    down = solve_static(_beam(), grid_size=100, tip_force=-1e-6)
    assert np.array_equal(up.deflection, -down.deflection)
    assert np.array_equal(up.bending_moment, -down.bending_moment)


def _exact_system_solution(n, h, ei, force, moment):
    """The finite-difference system assembled row by row in Fractions and
    solved by exact Gauss-Jordan elimination: w and the stencil moments."""
    rows = [[Fraction(0)] * (n + 1) for _ in range(n)]

    def put(row, first, coefficients, rhs=0.0):
        for offset, c in enumerate(coefficients):
            rows[row][first + offset] = Fraction(c)
        rows[row][n] = Fraction(rhs)

    put(0, 0, (1,))
    put(1, 0, (-3, 4, -1))
    for i in range(2, n - 2):
        put(i, i - 2, (1, -4, 6, -4, 1))
    put(n - 2, n - 4, (-1, 4, -5, 2), h**2 * moment / ei)
    put(n - 1, n - 5, (3, -14, 24, -18, 5), -2.0 * h**3 * force / ei)
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        scale = lead[col]
        lead[:] = [v / scale for v in lead]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [a - factor * b for a, b in zip(rows[r], lead)]
    w = [row[n] for row in rows]
    second = (
        [2 * w[0] - 5 * w[1] + 4 * w[2] - w[3]]
        + [w[i - 1] - 2 * w[i] + w[i + 1] for i in range(1, n - 1)]
        + [2 * w[-1] - 5 * w[-2] + 4 * w[-3] - w[-4]]
    )
    to_moment = Fraction(ei) / Fraction(h**2)
    return w, [d * to_moment for d in second]


@pytest.mark.parametrize("load", [{"tip_force": 1e-6}, {"tip_moment": -3e-10}])
def test_nodes_are_the_exact_discrete_solution_within_one_ulp(load):
    geom = _beam()
    n = 55
    solution = solve_static(geom, grid_size=n, **load)
    ei = composite_section(geom).flexural_rigidity
    exact_w, exact_m = _exact_system_solution(
        n, geom.length / (n - 1), ei, load.get("tip_force", 0.0), load.get("tip_moment", 0.0)
    )
    for got, want in zip(
        list(solution.deflection) + list(solution.bending_moment), exact_w + exact_m
    ):
        assert abs(Fraction(float(got)) - want) <= Fraction(math.ulp(float(want)))


@pytest.mark.parametrize("load", [
    {"tip_force": 1e308},  # every input finite; the tip is beyond the float range
    {"tip_force": math.inf},
    {"tip_force": math.nan},
    {"tip_moment": -math.inf},
    {"tip_moment": math.nan},
])
def test_out_of_range_load_is_a_singular_system(load):
    with pytest.raises(SingularSystemError, match="non-finite"):
        solve_static(_beam(), grid_size=400, **load)


@pytest.mark.parametrize("load", [{"tip_force": 1e-6}, {"tip_moment": -3e-10}])
def test_chosen_nodes_match_the_full_solve_bit_for_bit(load):
    geom = _beam()
    ei = composite_section(geom).flexural_rigidity
    force, moment = load.get("tip_force", 0.0), load.get("tip_moment", 0.0)
    rng = random.Random(31)
    for n in (50, 51, 100, 199, 200, 400, 800):
        full = solve_static(geom, grid_size=n, **load)
        nodes = [0, n - 1, *rng.sample(range(n), 5)]
        deflection, moments = _solve_nodes(geom.length, ei, n, force, moment, nodes)
        assert [w.hex() for w in deflection] == [float(full.deflection[i]).hex() for i in nodes]
        assert [m.hex() for m in moments] == [float(full.bending_moment[i]).hex() for i in nodes]


def test_convergence_order_fits_the_full_solves_tips():
    geom = _beam()
    grids = [100, 200, 400]
    tips = [solve_static(geom, grid_size=g, tip_force=1e-6).tip_deflection for g in grids]
    assert convergence_order(geom, grids, 1e-6) == _fitted_order(geom.length, grids, tips)


@pytest.mark.parametrize("grids", [[50, 100, 200, 400, 800], [50, 60, 72, 86, 104, 124, 149]])
def test_convergence_order_fit_is_a_left_fold_on_every_python(grids):
    # From Python 3.12 on, sum() adds floats with compensated summation; on
    # these grids that moves the fitted order's last digit.
    geom = _beam()
    ei = composite_section(geom).flexural_rigidity
    tips = [_solve_nodes(geom.length, ei, g, 1e-6, 0.0, (0, g - 1))[0][1] for g in grids]
    xs = [math.log(geom.length / (g - 1)) for g in grids[:-1]]
    ys = [math.log(abs(coarse - fine)) for coarse, fine in zip(tips, tips[1:])]
    x_mean = y_mean = num = den = 0.0
    for x, y in zip(xs, ys):
        x_mean += x
        y_mean += y
    x_mean /= len(xs)
    y_mean /= len(ys)
    for x, y in zip(xs, ys):
        num += (x - x_mean) * (y - y_mean)
        den += (x - x_mean) ** 2
    assert convergence_order(geom, grids, 1e-6) == num / den


def test_solver_tip_is_the_reports_deflection_over_fuzzed_points():
    # Under a tip force the 400-node central-difference tip deflection is
    # the closed form times 1 - 1/399^2 exactly, up to rounding, on the
    # fuzz's three parents and the first 50 finite fuzzed points of each.
    # The solver forms 2 h^3 F / EI left to right, so where 2 h^3 |F/n| is
    # subnormal the load loses its bits before EI scales it back up: those
    # points are counted and skipped.
    compared, subnormal = 0, []
    for name in sorted(PARENTS):
        for scenario in _finite_points(name, 50):
            report = run_scenario(scenario)
            sensor, env = scenario.sensor, scenario.environment
            beam = sensor.beam
            force = (
                sensor.tip_force(scenario.drive, env, env.field_magnitude)
                / sensor.load_share_count
            )
            h = beam.length / 399
            if 2.0 * h**3 * abs(force) < sys.float_info.min:
                subnormal.append((name, force))
                continue
            tip = solve_static(beam, 400, tip_force=force).tip_deflection
            assert tip == pytest.approx(
                report.tip_deflection * (1 - 1 / 399**2), rel=1e-12, abs=0
            ), (name, scenario.tree)
            compared += 1
    assert compared >= 100, (compared, subnormal)


def test_anchor_stress_single_layer():
    geom = _beam(thickness=1.35e-6)
    solution = solve_static(geom, grid_size=400, tip_force=5e-9)
    analytic = max_anchor_stress(
        5e-9, geom.length, geom.width, geom.total_thickness, load_share_count=1
    )
    assert solution.anchor_stress == pytest.approx(analytic, rel=2e-2)


def test_moment_profile():
    geom = _beam()
    force = 1e-6
    solution = solve_static(geom, grid_size=400, tip_force=force)
    anchor = force * geom.length
    assert solution.bending_moment[0] == pytest.approx(anchor, rel=1e-3, abs=0)
    assert abs(solution.bending_moment[-1]) < 1e-3 * anchor

    # A tip moment bends the beam into an exact quadratic, so the moment
    # profile is flat up to the rounding of the load and of each node.
    moment = 1e-10
    pure = solve_static(geom, grid_size=100, tip_moment=moment)
    assert np.max(np.abs(pure.bending_moment - moment)) < 1e-6 * moment


def test_convergence_order():
    order = convergence_order(_beam(), [100, 200, 400], tip_force=1e-6)
    assert 1.8 <= order <= 2.2
    # The exact discrete solution's order; no roundoff moves it.
    assert order == pytest.approx(2.00239, abs=1e-5)


def test_convergence_order_load_scaling():
    one = convergence_order(_beam(), [100, 200, 400], tip_force=1e-6)
    seven = convergence_order(_beam(), [100, 200, 400], tip_force=7e-6)
    assert abs(one - seven) < 1e-9


def test_convergence_order_argument_checks():
    with pytest.raises(ValueError):
        convergence_order(_beam(), [100, 100, 200], tip_force=1e-6)
    with pytest.raises(ValueError):
        convergence_order(_beam(), [100, 200], tip_force=1e-6)
    with pytest.raises(ValueError):
        convergence_order(_beam(), [100, 200, 400], tip_force=0.0)
    # A subnormal load's tip deflections round to 0 on every grid.
    with pytest.raises(DomainError, match=r"^tip deflection 0.0 m does not change from the"
                       r" 100-node grid to the 200-node grid"):
        convergence_order(_beam(), [100, 200, 400], tip_force=5e-324)


def test_composite_stack_deflection_matches_closed_form():
    geom = BeamGeometry(
        500e-6,
        20e-6,
        [
            LayerSpec(SILICON, 100e-9),
            LayerSpec(builtin_material("silicon_nitride"), 280e-9),
            LayerSpec(builtin_material("aluminum"), 1e-6),
        ],
    )
    solution = solve_static(geom, grid_size=400, tip_force=1e-9)
    analytic = tip_deflection(composite_section(geom), geom.length, 1e-9)
    assert solution.tip_deflection == pytest.approx(analytic, rel=1e-2, abs=0)
